"""Formula AST nodes and the canonical printer.

_BINARY_PREC and the unary and postfix levels beside it state once how tightly
operators bind; the parser climbs the same table.  The printer emits the
minimal parentheses needed for the source to reparse to an identical tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "FormulaNode",
    "NumberLit",
    "PercentLit",
    "TextLit",
    "CellRef",
    "RangeRef",
    "Unary",
    "Binary",
    "Call",
    "EmptyArg",
    "EMPTY",
    "column_to_index",
    "index_to_column",
    "to_source",
]

def column_to_index(column: str) -> int:
    """Column letters to 1-based index: A=1, Z=26, AA=27."""
    index = 0
    for ch in column:
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index


def index_to_column(index: int) -> str:
    letters = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


@dataclass(frozen=True)
class NumberLit:
    value: float


@dataclass(frozen=True)
class PercentLit:
    """Numeric literal with a trailing '%'; evaluates to value / 100."""

    value: float


@dataclass(frozen=True)
class TextLit:
    value: str


@dataclass(frozen=True)
class CellRef:
    column: str
    row: int

    @property
    def address(self) -> str:
        return f"{self.column}{self.row}"


@dataclass(frozen=True)
class RangeRef:
    """Rectangular range; corners normalize so start <= end on both axes."""

    start: CellRef
    end: CellRef

    def __post_init__(self) -> None:
        cols = sorted((self.start.column, self.end.column), key=column_to_index)
        rows = sorted((self.start.row, self.end.row))
        object.__setattr__(self, "start", CellRef(cols[0], rows[0]))
        object.__setattr__(self, "end", CellRef(cols[1], rows[1]))


@dataclass(frozen=True)
class Unary:
    op: str
    child: "FormulaNode"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "FormulaNode"
    right: "FormulaNode"


@dataclass(frozen=True)
class EmptyArg:
    """Explicit empty argument slot, as in DB(C1,C2,C3,1,)."""


EMPTY = EmptyArg()


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["FormulaNode", ...]


FormulaNode = Union[
    NumberLit, PercentLit, TextLit, CellRef, RangeRef, Unary, Binary, Call, EmptyArg
]

_PREC_COMPARE = 1
_PREC_CONCAT = 2
_PREC_ADD = 3
_PREC_MUL = 4
_PREC_UNARY = 5
_PREC_POWER = 6
_PREC_POSTFIX = 7
_PREC_ATOM = 8

_BINARY_PREC = {
    "=": _PREC_COMPARE,
    "<>": _PREC_COMPARE,
    "<": _PREC_COMPARE,
    ">": _PREC_COMPARE,
    "<=": _PREC_COMPARE,
    ">=": _PREC_COMPARE,
    "&": _PREC_CONCAT,
    "+": _PREC_ADD,
    "-": _PREC_ADD,
    "*": _PREC_MUL,
    "/": _PREC_MUL,
    "^": _PREC_POWER,
}


def _precedence(node: FormulaNode) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_UNARY
    if isinstance(node, PercentLit):
        return _PREC_POSTFIX
    return _PREC_ATOM


def format_number(value: float) -> str:
    """Shortest float form; integral values drop the trailing .0."""
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(node: FormulaNode) -> str:
    if isinstance(node, NumberLit):
        return format_number(node.value)
    if isinstance(node, PercentLit):
        return format_number(node.value) + "%"
    if isinstance(node, TextLit):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, CellRef):
        return node.address
    if isinstance(node, RangeRef):
        return f"{node.start.address}:{node.end.address}"
    if isinstance(node, Unary):
        child = _render(node.child)
        if _precedence(node.child) < _PREC_UNARY:
            child = f"({child})"
        return node.op + child
    if isinstance(node, Binary):
        prec = _BINARY_PREC[node.op]
        # '^' is right-associative: its left side must outrank it, the right
        # side admits unary expressions.  Everything else is left-associative.
        left_min = _PREC_POSTFIX if node.op == "^" else prec
        right_min = _PREC_UNARY if node.op == "^" else prec + 1
        left = _render(node.left)
        if _precedence(node.left) < left_min:
            left = f"({left})"
        right = _render(node.right)
        if _precedence(node.right) < right_min:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    if isinstance(node, Call):
        rendered = ",".join("" if isinstance(a, EmptyArg) else _render(a) for a in node.args)
        return f"{node.name}({rendered})"
    if isinstance(node, EmptyArg):
        raise ValueError("empty argument slot outside a call")
    raise TypeError(f"not a formula node: {node!r}")


def to_source(node: FormulaNode) -> str:
    """Canonical source for the node, with the leading '='."""
    return "=" + _render(node)
