"""Immutable records whose fields are stated once, as CPython's ast.AST states them.

A record class names its fields in _fields, which is its __slots__ too
(``__slots__ = _fields = ("kind", "message")``), and writes its own __init__:
it sets each field with _set and checks its arguments there.  From _fields
the base derives what a frozen dataclass has: equality with a record of the
same class whose fields are equal, a hash of the fields, the repr that
dataclasses prints, and pickling through __init__.  Assigning or deleting an
attribute raises AttributeError.  A record class builds in microseconds,
where a dataclass compiles its methods as its module is imported.
"""

from __future__ import annotations

__all__ = ["Record"]

# sets a field in __init__, past Record.__setattr__
_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

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
