"""Formulas that share a shape are parsed once per cache.

A formula filled down or across a sheet keeps its text and moves its
references with the cell, so its shape key is the tuple of texts between its
reference tokens: the cells of a filled range share it, whatever their
references and '$' anchors, as spreadsheet files share one formula over a
filled range (ECMA-376, <f t="shared">).  Workbooks built from one template
or wizard share keys too, so one cache serves every workbook of an audit run.
The first cell with a key is parsed as usual.  When the key comes again, that
cell's tree becomes the key's template, and each cell with the key gets the
template filled with its own references: the tree parse() gives its text.
The key keeps the boundaries between the texts, since '=-A1' and '=A1-B1'
join to the same string.
"""

from __future__ import annotations

import re
import sys
import weakref
from operator import itemgetter
from typing import Callable

from .ast import Binary, Call, CellRef, FormulaNode, RangeRef, Unary
from .parser import _REF_TOKEN, parse

__all__ = ["ShapeCache"]

# The lexer's reference token where it can start one: never right after a
# letter, a digit or a '.' (inside a name or a number like 1E5).  A match
# inside a string literal is not a reference for the lexer, and the template
# check below makes such a key unshareable.
_SHAPE_RE = re.compile(rf"(?<![A-Za-z0-9.]){_REF_TOKEN}")

_Fill = Callable[[list[CellRef]], FormulaNode]
_UNSHAREABLE = object()


class _Columns(dict):
    """Column letters as written -> interned upper-case letters."""

    def __missing__(self, letters: str) -> str:
        column = self[letters] = sys.intern(letters.upper())
        return column


class ShapeCache:
    """Parses formulas once per shape key, for as many sheets as share it.

    One cache may serve every sheet of a run (an audit of many workbooks); it
    holds a template per repeated key, and for every other key its first text
    and a weak reference to its tree, so a tree lives only as long as the
    sheet that holds it.  Its memory grows with the run's distinct keys.
    """

    def __init__(self) -> None:
        self._columns = _Columns()
        self._shapes: dict[tuple[str, ...], object] = {}

    def parse(self, text: str) -> FormulaNode:
        """parse(text), filled from the template of its key where there is one."""
        # [text, column anchor, letters, row anchor, digits, text, ...]
        parts = _SHAPE_RE.split(text)
        key = tuple(parts[::5])
        shape = self._shapes.get(key)
        if shape is None:
            node = parse(text)  # a ParseError leaves the key unseen
            self._shapes[key] = (weakref.ref(node), text)
            return node
        if type(shape) is tuple:
            first_tree, first_text = shape
            first = first_tree()
            if first is None:  # its sheet is gone: this cell's tree is the template
                node = parse(text)
                self._shapes[key] = _template(node, self._refs(parts))
                return node
            shape = self._shapes[key] = _template(first, self._refs(_SHAPE_RE.split(first_text)))
        if shape is _UNSHAREABLE:
            return parse(text)
        return shape(self._refs(parts))

    def _refs(self, parts: list[str]) -> list[CellRef]:
        columns = self._columns
        return [
            CellRef(columns[letters], int(digits), column_anchor == "$", row_anchor == "$")
            for column_anchor, letters, row_anchor, digits in zip(
                parts[1::5], parts[2::5], parts[3::5], parts[4::5]
            )
        ]


def _template(node: FormulaNode, refs: list[CellRef]):
    """node as a function of a cell's references, or _UNSHAREABLE.

    The template is accepted only when node's references, in order, are
    exactly refs, the references the key found in node's text: then the
    text's reference tokens are exactly those, and a text with the same key
    differs from it only there, so it parses to the same tree with its own
    references.  A reference-like run the lexer reads otherwise (inside a
    string, say), or a reversed range the parser normalized, makes the key
    unshareable.
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
