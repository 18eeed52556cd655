"""Formulas that share a shape are parsed once per cache, and filled on first read.

A formula filled down or across a sheet keeps its text and moves its
references with the cell, so its shape key is the tuple of texts between its
reference tokens: the cells of a filled range share it, whatever their
references and '$' anchors, as spreadsheet files share one formula over a
filled range (ECMA-376, <f t="shared">).  Workbooks built from one template
or wizard share keys too, so one cache serves every workbook of an audit run.
The first cell with a key is parsed as usual and gets the key's Shape.  When
the key comes again, that cell's tree becomes the shape's template, and each
cell with the key keeps the shape and its text, whose tree, the template
filled with its references, is built when something reads it.  The key keeps
the boundaries between the texts, since '=-A1' and '=A1-B1' join to the same
string.
"""

from __future__ import annotations

import re
import sys
import weakref
from operator import itemgetter
from typing import Callable

from .ast import Binary, Call, CellRef, FormulaNode, RangeRef, Unary
from .parser import _REF_TOKEN, parse

__all__ = ["Shape", "ShapeCache"]

# The lexer's reference token where it can start one: never right after a
# letter, a digit or a '.' (inside a name or a number like 1E5).  A match
# inside a string literal is not a reference for the lexer, and the template
# check below makes such a key unshareable.
_SHAPE_RE = re.compile(rf"(?<![A-Za-z0-9.]){_REF_TOKEN}")

_Fill = Callable[[list[CellRef]], FormulaNode]
_UNSHAREABLE = object()


def _refs(text: str) -> list[CellRef]:
    """The references that the key of text splits it at, in order; the
    references of all texts share their column strings."""
    return [
        CellRef(sys.intern(letters.upper()), int(digits), column_anchor == "$", row_anchor == "$")
        for column_anchor, letters, row_anchor, digits in _SHAPE_RE.findall(text)
    ]


class Shape:
    """The formulas of one key, in every sheet of a cache.

    Until the key comes again it holds the key's first text and, weakly, its
    tree; then the template that tree(text) fills.  rules is where
    audit.run_rules keeps what it found in the shape."""

    __slots__ = ("rules", "_fill", "_first")

    def __init__(self, tree: FormulaNode, text: str) -> None:
        self.rules = None
        self._fill: _Fill | None = None
        self._first: tuple[weakref.ref, str] | None = (weakref.ref(tree), text)

    def tree(self, text: str) -> FormulaNode:
        """parse(text), for a text with the shape's key."""
        return self._fill(_refs(text))

    def _share(self, tree: FormulaNode, text: str) -> None:
        """Make tree, the tree of text, the shape's template."""
        self._fill, self._first = _template(tree, _refs(text)), None


class ShapeCache:
    """Parses formulas once per shape key, for as many sheets as share it.

    One cache may serve every sheet of a run (an audit of many workbooks); it
    holds a Shape per key, whose first tree lives only as long as the sheet
    that holds it.  Its memory grows with the run's distinct keys.
    """

    def __init__(self) -> None:
        self._shapes: dict[tuple[str, ...], Shape] = {}

    def parse(self, text: str) -> tuple[FormulaNode | None, Shape | None, str | None]:
        """(tree, shape, source) of a formula text, or the ParseError of parse(text).

        A text whose key came before and shares its tree gets tree None, to be
        built by shape.tree(source).  Any other gets tree parse(text) and its
        key's new shape, or None for a key whose tree cannot be shared."""
        # the split is [text, column anchor, letters, row anchor, digits, text, ...]
        key = tuple(_SHAPE_RE.split(text)[::5])
        shape = self._shapes.get(key)
        first = shape._first[0]() if shape is not None and shape._fill is None else None
        if first is not None:
            shape._share(first, shape._first[1])
        elif shape is None or shape._fill is None:
            tree = parse(text)  # a ParseError leaves the key as it was
            new = self._shapes[key] = Shape(tree, text)
            if shape is not None:  # the key comes again, but its first sheets are gone
                new._share(tree, text)
            return tree, new, None
        if shape._fill is _UNSHAREABLE:
            return parse(text), None, None
        return None, shape, text


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
