"""Immutable records whose fields are stated once, as CPython's ast.AST states them.

A record class names its fields in _fields, which is its __slots__ too
(``__slots__ = _fields = ("kind", "message")``), and the defaults of its
rightmost fields in _defaults, as namedtuple's ``defaults=`` does.  With a
class's first record, Record compiles the class's __init__ from the two: the
code a hand-written one has, ``_set(self, 'kind', kind)`` for each field, so a
run pays only for the classes it builds.  A record that checks or converts
its arguments writes its own __init__ and sets each field with _set.  From
_fields the base derives what a frozen dataclass has: equality with a record
of the same class whose fields are equal, a hash of the fields, the repr that
dataclasses prints, and pickling through __init__.  Assigning or deleting an
attribute raises AttributeError.  Record is a record class's only base: a
subclass would find its parent's __init__.
"""

from __future__ import annotations

__all__ = ["Record"]

# sets a field in __init__, past Record.__setattr__
_set = object.__setattr__


def _build_init(cls: type) -> None:
    fields, defaults = cls._fields, cls._defaults
    first = len(fields) - len(defaults)  # the first field with a default
    params = [name if i < first else f"{name}=_d[{i - first}]" for i, name in enumerate(fields)]
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    scope = {"__name__": cls.__module__, "_set": _set, "_d": defaults}
    exec(f"def __init__(self, {', '.join(params)}):{body}", scope)
    init = cls.__init__ = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # so that its TypeErrors name the class


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        # reached once per class, by its first record: later ones find its own __init__
        _build_init(self.__class__)
        self.__init__(*args, **kwargs)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()  # __init__ takes the fields in order
