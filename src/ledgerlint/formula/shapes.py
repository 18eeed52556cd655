"""Formulas that share a shape are parsed once per process and read through one template.

A formula filled down or across a sheet keeps its text and moves its
references with the cell, so its shape key is the tuple of texts between its
reference tokens: the cells of a filled range share it, whatever their
references and '$' anchors, as spreadsheet files share one formula over a
filled range (ECMA-376, <f t="shared">; Sestoft, Spreadsheet Implementation
Technology, 2014).  Workbooks built from one template or wizard share keys
too, so one table per process (_table) serves every sheet.  The first cell
with a key is parsed as usual and gets the key's Shape.  When the key comes
again, that cell's tree becomes the shape's template, whose reference nodes
each hold a slot among a text's references, and each cell with the key keeps
the shape and its text.  The evaluator runs the template compiled (the shape's
kernel) and the audit walks it; both read each reference by its slot among the
references of the cell's text, as the text writes it (Shape.refs: '$b$5',
say), so no tree is built for the cell; its own tree is parse() of its text,
made only when something reads cell.formula.  Where the kernel collects values
(SUM's, NPV's), it passes the cell's references with the template's slots to
the evaluator's own reader of those arguments, as the audit's checks pass
them.  The key keeps the boundaries between the texts, since '=-A1' and
'=A1-B1' join to the same string.  The table holds at most _TABLE_SIZE keys
and drops the oldest inserted first; parse itself keeps no state.
"""

from __future__ import annotations

import re
from weakref import ref as weak_ref

from .ast import Binary, Call, CellRef, FormulaNode, RangeRef, Unary
from .parser import _REF_TOKEN, _make_ref, parse

__all__ = ["Shape", "parse_shared"]

# The lexer's reference token where it can start one: never right after a
# letter, a digit or a '.' (inside a name or a number like 1E5).  A match
# inside a string literal is not a reference for the lexer, and the template
# check below makes such a key unshareable.  The pattern has no groups, so
# split gives the texts between references and findall each reference.
_REFS = re.compile(rf"(?<![A-Za-z0-9.]){_REF_TOKEN}")


def cell_ref(ref: str) -> CellRef:
    """The CellRef of one of Shape.refs(text), a reference as written ('$b$5', say)."""
    return _make_ref(ref.upper())


class Shape:
    """The formulas of one key, in every sheet that has it.

    Until the key comes again it holds the key's first text and, weakly, its
    tree.  Then that tree is the template, and slots maps each of its
    CellRef and RangeRef nodes, by identity, to its place among a text's
    references: a range has its start corner's place and its end corner's
    next to it.  A key whose template check fails keeps neither.  rules is
    where audit.run_rules keeps its plan of the template's nodes, and kernel
    the evaluator's compiled template, once the shape has a template."""

    __slots__ = ("rules", "kernel", "template", "slots", "_first")

    def __init__(self, tree: FormulaNode, text: str) -> None:
        self.rules = self.kernel = None
        self.template: FormulaNode | None = None
        self.slots: dict[int, int] | None = None
        self._first: tuple[weak_ref, str] | None = (weak_ref(tree), text)

    # refs(text) lists the references that the key of text splits it at, each
    # as written in text ('$b$5', say): node of the template is
    # refs(text)[slots[id(node)]] in text
    refs = staticmethod(_REFS.findall)

    def _share(self, tree: FormulaNode, text: str) -> None:
        """Make tree, the tree of text, the shape's template, if its references are the key's."""
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
        if found == [cell_ref(ref) for ref in self.refs(text)]:
            self.template, self.slots = tree, slots
        self._first = None


# The process's shapes by key, oldest inserted first: every Sheet parses
# through it, whoever loads the sheet.  A trapmix run of 1,500 books holds
# 1,177-1,235 keys, and a shape with its template, kernel and plan about 1.9 KB.
_TABLE_SIZE = 2048  # distinct keys
_table: dict[tuple[str, ...], Shape] = {}


def parse_shared(text: str) -> tuple[FormulaNode | None, Shape | None, str | None]:
    """(tree, shape, source) of a formula text, or the ParseError of parse(text).

    A text whose key came before and shares its tree gets tree None and
    source text: it is read through shape's template.  That is the commonest
    case, so a key with a template is looked up first, and a hit does no
    bookkeeping.  Any other text gets tree parse(text) and its key's new
    shape, or None for a key whose tree cannot be shared.  A new key past
    _TABLE_SIZE drops the oldest inserted one: its cells keep their shape, and
    its next text is parsed as a first text."""
    key = tuple(_REFS.split(text))
    shape = _table.get(key)
    if shape is not None and shape.template is not None:  # then _first is None
        return None, shape, text
    pending = shape is not None and shape._first is not None
    first = shape._first[0]() if pending else None
    if first is not None:
        shape._share(first, shape._first[1])
    elif shape is None or pending:
        tree = parse(text)  # a ParseError leaves the key as it was
        if shape is None and len(_table) >= _TABLE_SIZE:
            del _table[next(iter(_table))]
        new = _table[key] = Shape(tree, text)
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
