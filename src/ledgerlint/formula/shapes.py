"""Formulas that share a relative shape are parsed once per sheet.

A formula filled down or across a sheet keeps its text and moves its
references with the cell.  Its shape key is its text with each reference
written as an offset from the cell that holds it, except that a '$'-anchored
column or row stays absolute (the R1C1 view, as in ECMA-376 shared formulas,
<f t="shared">).  The first cell with a key is parsed as usual.  When the key
comes again, that cell's tree becomes the key's template, and each cell with
the key gets the template filled with its own references: the tree parse()
gives its text.
"""

from __future__ import annotations

import re
import sys
from operator import itemgetter
from typing import Callable

from .ast import Binary, Call, CellRef, FormulaNode, RangeRef, Unary, column_to_index
from .parser import _REF_TOKEN, parse

__all__ = ["ShapeCache"]

# The lexer's reference token where it can start one: never right after a
# letter, a digit or a '.' (inside a name or a number like 1E5), and never
# inside a string literal, which leaves an odd number of '"' after it.
_SHAPE_RE = re.compile(rf'(?<![A-Za-z0-9.]){_REF_TOKEN}(?=[^"]*(?:"[^"]*"[^"]*)*\Z)')

_Fill = Callable[[list[CellRef]], FormulaNode]
_UNSHAREABLE = object()


class _Columns(dict):
    """Column letters as written -> (interned upper-case letters, column index)."""

    def __missing__(self, letters: str) -> tuple[str, int]:
        column = sys.intern(letters.upper())
        found = self[letters] = (column, column_to_index(column))
        return found


class ShapeCache:
    """Parses the formulas of one sheet, once per shape key.

    Keep one only while placing the cells of one sheet: it holds a template
    per repeated key and the first tree of every other key.
    """

    def __init__(self) -> None:
        self._columns = _Columns()
        self._shapes: dict[tuple, object] = {}

    def parse(self, text: str, column: int, row: int) -> FormulaNode:
        """parse(text) for the formula of the cell at (column, row), counting from 1."""
        # [text, column anchor, letters, row anchor, digits, text, ...]
        parts = _SHAPE_RE.split(text)
        groups = iter(parts)
        # (text before, column anchor, letters, row anchor, digits) per reference
        references = list(zip(groups, groups, groups, groups, groups))
        columns = self._columns
        key = (
            parts[-1],
            *[
                (
                    before,
                    column_anchor,
                    columns[letters][1] - (0 if column_anchor else column),
                    row_anchor,
                    int(digits) - (0 if row_anchor else row),
                )
                for before, column_anchor, letters, row_anchor, digits in references
            ],
        )
        shape = self._shapes.get(key)
        if shape is None:
            node = parse(text)  # a ParseError leaves the key unseen
            self._shapes[key] = (node, references)
            return node
        if type(shape) is tuple:
            first, first_references = shape
            shape = self._shapes[key] = _template(first, self._refs(first_references))
        if shape is _UNSHAREABLE:
            return parse(text)
        return shape(self._refs(references))

    def _refs(self, references: list[tuple[str, str, str, str, str]]) -> list[CellRef]:
        columns = self._columns
        return [
            CellRef(columns[letters][0], int(digits), column_anchor == "$", row_anchor == "$")
            for _, column_anchor, letters, row_anchor, digits in references
        ]


def _template(node: FormulaNode, refs: list[CellRef]):
    """node as a function of a cell's references, or _UNSHAREABLE.

    The template is accepted only when node's references, in order, are
    exactly refs, the references the key found in node's text: then the
    text's reference tokens are exactly those, and a text with the same key
    differs from it only there, so it parses to the same tree with its own
    references.  A reference-like run the lexer reads otherwise, or a
    reversed range the parser normalized, makes the key unshareable.
    """
    found: list[CellRef] = []
    fill = _filler(node, found)
    return fill if found == refs else _UNSHAREABLE


def _filler(node: FormulaNode, found: list[CellRef]) -> _Fill:
    """node as a function of a cell's references, numbered from len(found).

    Appends node's references to found.  A subtree that holds none is shared
    by every cell the template fills.
    """
    mark = len(found)
    kind = type(node)
    if kind is CellRef:
        found.append(node)
        return itemgetter(mark)
    if kind is RangeRef:
        found += (node.start, node.end)
        # the constructor normalizes each cell's corners as parse() does
        return lambda refs: RangeRef(refs[mark], refs[mark + 1])
    if kind is Unary:
        op, child = node.op, _filler(node.child, found)
        fill = lambda refs: Unary(op, child(refs))  # noqa: E731
    elif kind is Binary:
        op, left, right = node.op, _filler(node.left, found), _filler(node.right, found)
        fill = lambda refs: Binary(op, left(refs), right(refs))  # noqa: E731
    elif kind is Call:
        name, args = node.name, [_filler(arg, found) for arg in node.args]
        fill = lambda refs: Call(name, tuple([arg(refs) for arg in args]))  # noqa: E731
    else:  # a literal or an empty argument slot
        return lambda refs: node
    return fill if len(found) > mark else lambda refs: node
