"""Formulas that share a shape are parsed once per process and read through one template.

A formula filled down or across a sheet keeps its text and moves its
references with the cell, so its reference key is the tuple of texts between
its reference tokens: the cells of a filled range share it, whatever their
references and '$' anchors, as spreadsheet files share one formula over a
filled range (ECMA-376, <f t="shared">; Sestoft, Spreadsheet Implementation
Technology, 2014).  Workbooks built from one template or wizard share keys
too, so one table per process (_table) serves every sheet.  The first text
with a key is parsed as usual, and its tree becomes the template of the key's
Shape at once: each reference node of the template holds a slot among a text's
references.  Every cell with the key, the first one too, keeps the shape and
its text and is read through the template.  The evaluator runs the template
compiled (the shape's kernel) and the audit walks it; both read each reference
by its slot among the references of the cell's text, as the text writes it
(Shape.refs: '$b$5', say), so no tree is built for a later cell; its own tree
is parse() of its text, made only when something reads cell.formula.  Where
the kernel collects values (SUM's, NPV's), it passes the cell's references
with the template's slots to the evaluator's own reader of those arguments, as
the audit's checks pass them.  The key keeps the boundaries between the texts,
since '=-A1' and '=A1-B1' join to the same string.

Books filled in from one template differ mostly in the numbers typed into
them, so a text also has a slot key: the kinds of its reference, number and
string tokens and the texts between them, as grouping cells by structure with
constants abstracted does (CUSTODES, Cheung et al., ICSE 2016).  Its shape, a
SlotShape, reads those numbers and strings from the cell's text too, by their
slots among its tokens.  A text whose reference key has a template is read
through that, as above; a text of a new or unshareable reference key is read
through its slot key's template when there is one, and a new reference key is
then noted (None in the table), so that its next text is parsed and becomes
its template.  A parsed text is read through the template it made, if any.  A
text with no number or string has no slot key.  The table holds at most
_TABLE_SIZE keys of both kinds, noted ones included, and drops the oldest
inserted first; parse itself keeps no state.
"""

from __future__ import annotations

import math
import re

from .ast import Binary, Call, CellRef, FormulaNode, NumberLit, PercentLit, RangeRef, TextLit, Unary
from .parser import _NUMBER_TOKEN, _REF_TOKEN, _STRING_TOKEN, _make_ref, parse, unquote

__all__ = ["Shape", "SlotShape", "parse_shared"]

# The lexer's reference, number and string tokens where they can start one:
# never right after a letter, a digit or a '.' (inside a name like DAYS360 or
# a number like 1E5).  A reference-like run inside a string is no reference
# for the lexer: _SLOTS reads the string whole, and the template check below
# makes such a reference key unshareable.  The patterns have no groups, so
# split gives the texts between tokens and findall each token.
_GUARD = "(?<![A-Za-z0-9.])"
_REFS = re.compile(_GUARD + _REF_TOKEN)
_SLOTS = re.compile(rf"{_GUARD}(?:{_STRING_TOKEN}|{_REF_TOKEN}|{_NUMBER_TOKEN})", re.ASCII)
_KINDS = {'"': "s", **dict.fromkeys("0123456789.", "n")}  # a token's first character; else 'r'


def cell_ref(ref: str) -> CellRef:
    """The CellRef of one of Shape.refs(text), a reference as written ('$b$5', say)."""
    return _make_ref(ref.upper())


def _value(token: str) -> CellRef | float | str:
    """What the parser makes of a token of _SLOTS: a CellRef, a number or a string's text."""
    kind = _KINDS.get(token[0], "r")
    if kind == "r":
        return cell_ref(token)
    return float(token) if kind == "n" else unquote(token)


class Shape:
    """The formulas of one reference key, in every sheet that has it.

    template is tree, the tree of the key's first text, and slots maps each
    of its CellRef and RangeRef nodes, by identity, to its place among a
    text's references: a range has its start corner's place and its end
    corner's next to it.  A key whose first tree fails the template check is
    unshareable and keeps neither, and no cell gets it.  rules is where
    audit.run_rules keeps its plan of the template's nodes, and kernel the
    evaluator's compiled template.  literals is set on a SlotShape, whose
    numbers and strings are slots too."""

    __slots__ = ("rules", "kernel", "template", "slots")
    literals = False

    def __init__(self, tree: FormulaNode, text: str) -> None:
        self.rules = self.kernel = self.template = self.slots = None
        found: list = []
        slots: dict[int, int] = {}
        _number(tree, found, slots, self.literals)
        # The template is accepted only when its slot nodes, in order, are
        # exactly those the key found in its text: then the text's tokens of
        # those kinds are exactly those, and a text with the same key differs
        # from it only there, so it parses to the same tree with its own
        # tokens.  A reference-like run the lexer reads otherwise (inside a
        # string, say), or a reversed range the parser normalized, makes the
        # key unshareable.
        if found == list(map(_value, self.refs(text))):
            self.template, self.slots = tree, slots

    # refs(text) lists the tokens that the key of text splits it at, each as
    # written in text ('$b$5', say): node of the template is
    # refs(text)[slots[id(node)]] in text
    refs = staticmethod(_REFS.findall)


class SlotShape(Shape):
    """The formulas of one slot key: numbers and strings are slots too, and
    slots maps each NumberLit, PercentLit and TextLit node of the template to
    its place among a text's tokens as well (a PercentLit's token is its
    number)."""

    __slots__ = ()
    literals = True
    refs = staticmethod(_SLOTS.findall)


# The process's shapes by key, oldest inserted first: every Sheet parses
# through it, whoever loads the sheet.  An entry is a shape with a template,
# an unshareable shape, or None for a noted reference key.  An audit of the
# 1,579 seed-5 trapmix books leaves 1,192 reference keys (952 of them noted)
# and 17 slot keys in it, and a shape with its template, kernel and plan takes
# about 2 KB.
_TABLE_SIZE = 2048  # distinct keys of both kinds
_table: dict[tuple, Shape | None] = {}


def parse_shared(text: str) -> tuple[FormulaNode | None, Shape | None, str | None]:
    """(tree, shape, source) of a formula text, or the ParseError of parse(text).

    A text read through an existing template gets tree None, source text and
    the template's shape: its reference key's if that has a template, else,
    for a new or unshareable reference key, its slot key's.  That is the
    commonest case, so a reference key with a template is looked up first,
    and a hit does no bookkeeping.  Any other text gets tree parse(text),
    which becomes the template of each of its keys that is new or noted; the
    text is read through its reference key's, or, when that key is
    unshareable, through its slot key's, new or not, with source text, else
    it gets shape and source None.  A new key past _TABLE_SIZE drops the oldest
    inserted one: its cells keep their shape, and its next text is parsed as
    a first text."""
    key = tuple(_REFS.split(text))
    shape = _table.get(key)
    if shape is not None and shape.template is not None:
        return None, shape, text
    slot_key = slot = None
    tokens = _SLOTS.findall(text)
    kinds = "".join([_KINDS.get(token[0], "r") for token in tokens])
    if "n" in kinds or "s" in kinds:
        # None first: no reference key holds it
        slot_key = (None, kinds, *_SLOTS.split(text))
        slot = _table.get(slot_key)
        # a noted key's text is parsed, to become its template; a number the
        # lexer rejects (1E400) leaves the text to parse too
        noted = shape is None and key in _table
        numbers = [float(token) for token, kind in zip(tokens, kinds) if kind == "n"]
        if slot is not None and slot.template is not None and not noted and math.inf not in numbers:
            if shape is None:
                _insert(key, None)
            return None, slot, text
    tree = parse(text)  # a ParseError leaves the keys as they were
    if slot_key is not None and slot is None:
        _insert(slot_key, slot := SlotShape(tree, text))
    if shape is None:
        shape = Shape(tree, text)
        _insert(key, shape)
    if shape.template is None:  # an unshareable reference key: the slot key's template, if any
        shape = slot if slot is not None and slot.template is not None else None
    return tree, shape, None if shape is None else text


def _insert(key: tuple, shape: Shape | None) -> None:
    """Put shape under key, first dropping the oldest key when a new one finds the table full."""
    if key not in _table and len(_table) >= _TABLE_SIZE:
        del _table[next(iter(_table))]
    _table[key] = shape


def _number(node: FormulaNode, found: list, slots: dict[int, int], literals: bool) -> None:
    """Append node's slot values to found in text order, and give each slot
    node, by identity, its place in found: each CellRef and RangeRef node,
    and with literals each NumberLit, PercentLit and TextLit node too.
    '=A1+A1' has two slots, since another text with its key may hold '=B1+C1'."""
    kind = type(node)
    if kind is CellRef:
        slots[id(node)] = len(found)
        found.append(node)
    elif kind is RangeRef:
        slots[id(node)] = len(found)
        found += (node.start, node.end)
    elif kind is Unary:
        _number(node.child, found, slots, literals)
    elif kind is Binary:
        _number(node.left, found, slots, literals)
        _number(node.right, found, slots, literals)
    elif kind is Call:
        for arg in node.args:
            _number(arg, found, slots, literals)
    elif literals and (kind is NumberLit or kind is PercentLit or kind is TextLit):
        slots[id(node)] = len(found)
        found.append(node.value)
