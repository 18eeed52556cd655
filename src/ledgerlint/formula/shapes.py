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
shape and its text.  The evaluator runs the template compiled (the shape's
kernel) and the audit walks it; both read each reference by its slot among
the references of the cell's text, as the text writes it (Shape.refs:
'$b$5', say), so no tree is built for the cell; its own tree is parse() of
its text, made only when something reads cell.formula.  Where the kernel
collects values (SUM's, NPV's), it binds the cell's references to the
template's slots, as the audit does, and walks those arguments with the
evaluator's own reader.  The key keeps the
boundaries between the texts, since '=-A1' and '=A1-B1' join to the same
string.

Where a cache does parse, a text that recurs verbatim (workbooks filled in
from one template repeat them) is parsed about twice per process, not once
per workbook: _parse keeps the last _MEMO_SIZE (512) distinct texts it was
asked for, across caches and load_workbook calls, and keeps a text's tree only
once it is asked for a second time among them, as TinyLFU admits only what
recurs (Einziger, Friedman & Manes, ACM TOS 2017).  A text asked for once
keeps only its string, so its tree still dies with its sheet, and a
ParseError is never kept.  parse itself keeps no state.
"""

from __future__ import annotations

import re
import weakref

from .ast import Binary, Call, CellRef, FormulaNode, RangeRef, Unary
from .parser import _REF_TOKEN, _make_ref, parse

__all__ = ["Shape", "ShapeCache"]

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
    """The formulas of one key, in every sheet of a cache.

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
        self._first: tuple[weakref.ref, str] | None = (weakref.ref(tree), text)

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
        source text: it is read through shape's template.  That is the
        commonest case, so a key with a template is looked up first.  Any
        other text gets tree parse(text) and its key's new shape, or None for
        a key whose tree cannot be shared."""
        key = tuple(_REFS.split(text))
        shape = self._shapes.get(key)
        if shape is not None and shape.template is not None:  # then _first is None
            return None, shape, text
        pending = shape is not None and shape._first is not None
        first = shape._first[0]() if pending else None
        if first is not None:
            shape._share(first, shape._first[1])
        elif shape is None or pending:
            tree = _parse(text)  # a ParseError leaves the key as it was
            new = self._shapes[key] = Shape(tree, text)
            if shape is not None:  # the key comes again, but its first sheets are gone
                new._share(tree, text)
            return tree, new, None
        if shape.template is None:
            return _parse(text), None, None
        return None, shape, text


# The texts that _parse was last asked for, least recently asked first: each
# maps to its tree once it is asked for again, and to _ONCE until then.
_MEMO_SIZE = 512  # distinct texts, as the re module's 512 patterns
_ONCE = object()
_memo: dict[str, object] = {}


def _parse(text: str) -> FormulaNode:
    """parse(text), keeping the tree of a text asked for again while it is
    among the last _MEMO_SIZE distinct texts: a text asked for once keeps
    only its string, and a ParseError is raised again, never kept."""
    kept = _memo.pop(text, None)
    if kept is None or kept is _ONCE:
        tree = parse(text)  # a ParseError leaves the text unseen
        if len(_memo) >= _MEMO_SIZE:
            del _memo[next(iter(_memo))]
        _memo[text] = _ONCE if kept is None else tree
        return tree
    _memo[text] = kept
    return kept


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
