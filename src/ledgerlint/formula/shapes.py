"""Formulas that share a shape are parsed once per cache and read through one template.

A formula filled down or across a sheet keeps its text and moves its
references with the cell, so its shape key is the tuple of texts between its
reference tokens: the cells of a filled range share it, whatever their
references and '$' anchors, as spreadsheet files share one formula over a
filled range (ECMA-376, <f t="shared">; Sestoft, Spreadsheet Implementation
Technology, 2014).  Workbooks built from one template or wizard share keys
too, so one cache serves every workbook of an audit run.  The first cell with
a key is parsed as usual and gets the key's Shape.  When the key comes again,
that cell's tree becomes the shape's template, whose reference nodes each
hold a slot among a text's references, and each cell with the key keeps the
shape and its text.  The evaluator and the audit walk the template and read
each reference from the cell's text by its slot (Shape.refs); the cell's own
tree, the template filled with its references, is built only when something
reads cell.formula.  The key keeps the boundaries between the texts, since
'=-A1' and '=A1-B1' join to the same string.
"""

from __future__ import annotations

import re
import sys
import weakref

from .ast import Binary, Call, CellRef, FormulaNode, RangeRef, Unary
from .parser import _REF_TOKEN, parse

__all__ = ["Shape", "ShapeCache"]

# The lexer's reference token where it can start one: never right after a
# letter, a digit or a '.' (inside a name or a number like 1E5).  A match
# inside a string literal is not a reference for the lexer, and the template
# check below makes such a key unshareable.
_SHAPE_RE = re.compile(rf"(?<![A-Za-z0-9.]){_REF_TOKEN}")


def cell_ref(match: tuple[str, str, str, str]) -> CellRef:
    """The CellRef of one of Shape.refs(text); those of all texts share their
    column strings."""
    column_anchor, letters, row_anchor, digits = match
    return CellRef(sys.intern(letters.upper()), int(digits), column_anchor == "$", row_anchor == "$")


def _refs(text: str) -> list[CellRef]:
    """The references that the key of text splits it at, in order."""
    return [cell_ref(match) for match in _SHAPE_RE.findall(text)]


class Shape:
    """The formulas of one key, in every sheet of a cache.

    Until the key comes again it holds the key's first text and, weakly, its
    tree.  Then that tree is the template, and slots maps each of its
    CellRef and RangeRef nodes, by identity, to its place among a text's
    references: a range has its start corner's place and its end corner's
    next to it.  A key whose template check fails keeps neither.  rules is
    where audit.run_rules keeps what it found in the shape."""

    __slots__ = ("rules", "template", "slots", "_first")

    def __init__(self, tree: FormulaNode, text: str) -> None:
        self.rules = None
        self.template: FormulaNode | None = None
        self.slots: dict[int, int] | None = None
        self._first: tuple[weakref.ref, str] | None = (weakref.ref(tree), text)

    # refs(text) lists the references that the key of text splits it at, as
    # (column anchor, letters, row anchor, digits) in the text's case: node of
    # the template is refs(text)[slots[id(node)]] in text
    refs = staticmethod(_SHAPE_RE.findall)

    def tree(self, text: str) -> FormulaNode:
        """parse(text), for a text with the shape's key."""
        return _fill(self.template, self.slots, _refs(text))

    def _share(self, tree: FormulaNode, text: str) -> None:
        """Make tree, the tree of text, the shape's template, if it fills exactly."""
        found: list[CellRef] = []
        slots: dict[int, int] = {}
        _number(tree, found, slots)
        # The template is accepted only when its references, in order, are
        # exactly those the key found in its text: then the text's reference
        # tokens are exactly those, and a text with the same key differs from
        # it only there, so it parses to the same tree with its own
        # references.  A reference-like run the lexer reads otherwise (inside
        # a string, say), or a reversed range the parser normalized, makes the
        # key unshareable.
        if found == _refs(text):
            self.template, self.slots = tree, slots
        self._first = None


class ShapeCache:
    """Parses formulas once per shape key, for as many sheets as share it.

    One cache may serve every sheet of a run (an audit of many workbooks); it
    holds a Shape per key and, once the key comes again, its template.  Its
    memory grows with the run's distinct keys.
    """

    def __init__(self) -> None:
        self._shapes: dict[tuple[str, ...], Shape] = {}

    def parse(self, text: str) -> tuple[FormulaNode | None, Shape | None, str | None]:
        """(tree, shape, source) of a formula text, or the ParseError of parse(text).

        A text whose key came before and shares its tree gets tree None and
        source text: it is read through shape's template.  Any other gets
        tree parse(text) and its key's new shape, or None for a key whose
        tree cannot be shared."""
        # the split is [text, column anchor, letters, row anchor, digits, text, ...]
        key = tuple(_SHAPE_RE.split(text)[::5])
        shape = self._shapes.get(key)
        pending = shape is not None and shape._first is not None
        first = shape._first[0]() if pending else None
        if first is not None:
            shape._share(first, shape._first[1])
        elif shape is None or pending:
            tree = parse(text)  # a ParseError leaves the key as it was
            new = self._shapes[key] = Shape(tree, text)
            if shape is not None:  # the key comes again, but its first sheets are gone
                new._share(tree, text)
            return tree, new, None
        if shape.template is None:
            return parse(text), None, None
        return None, shape, text


def _number(node: FormulaNode, found: list[CellRef], slots: dict[int, int]) -> None:
    """Append node's references to found in text order, and give each CellRef
    and RangeRef node, by identity, its place in found as its slot: '=A1+A1'
    has two slots, since another text with its key may hold '=B1+C1'."""
    kind = type(node)
    if kind is CellRef:
        slots[id(node)] = len(found)
        found.append(node)
    elif kind is RangeRef:
        slots[id(node)] = len(found)
        found += (node.start, node.end)
    elif kind is Unary:
        _number(node.child, found, slots)
    elif kind is Binary:
        _number(node.left, found, slots)
        _number(node.right, found, slots)
    elif kind is Call:
        for arg in node.args:
            _number(arg, found, slots)


def _fill(node: FormulaNode, slots: dict[int, int], refs: list[CellRef]) -> FormulaNode:
    """node with each reference node replaced by refs at its slot."""
    kind = type(node)
    if kind is CellRef:
        return refs[slots[id(node)]]
    if kind is RangeRef:
        slot = slots[id(node)]
        # the constructor normalizes each cell's corners as parse() does
        return RangeRef(refs[slot], refs[slot + 1])
    if kind is Unary:
        return Unary(node.op, _fill(node.child, slots, refs))
    if kind is Binary:
        return Binary(node.op, _fill(node.left, slots, refs), _fill(node.right, slots, refs))
    if kind is Call:
        return Call(node.name, tuple([_fill(arg, slots, refs) for arg in node.args]))
    return node  # a literal or an empty argument slot
