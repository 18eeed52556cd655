"""A formula text that recurs across workbooks is parsed about once per process.

The process's shape table (shapes._table) makes the tree of a key's first
parse its template at once, and later texts with the key are read through it
without a parse.  A key whose first text is read through its slot key's
template is noted (None), and its next text is parsed to be its template.
Work is counted, not timed: the calls of parse in the shapes module.
"""

import collections
import csv
import gc
import io

import pytest
from workbooks import load_workloads

from ledgerlint.formula import Sheet, parse, shapes


@pytest.fixture
def parsed(monkeypatch):
    """How often each text reaches parse(), from an empty table that never passes its bound."""
    counts = collections.Counter()

    def counted(text):
        counts[text] += 1
        assert len(shapes._table) <= shapes._TABLE_SIZE
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    return counts


def _load(book) -> Sheet:
    """The book as load_workbook reads its CSV."""
    return Sheet.from_rows(csv.reader(io.StringIO(book.csv_bytes().decode())))


def _formulas(books) -> collections.Counter:
    return collections.Counter(
        text for book in books for text in book.grid.values() if text.startswith("=")
    )


def _keys(texts) -> set:
    return {tuple(shapes._REFS.split(text)) for text in texts}


def test_fresh_cache_loads_parse_a_recurring_text_at_most_twice(parsed):
    books = load_workloads().trapmix(5, books=300).books
    texts = _formulas(books)
    assert len(_keys(texts)) < shapes._TABLE_SIZE  # no key leaves the table
    for book in books:
        _load(book)  # each sheet dropped at once, as a caller of load_workbook(path) may
    assert {text: count for text, count in parsed.items() if count > 2} == {}
    # a text that occurs once is mostly read through its slot key's template
    once = [text for text, count in texts.items() if count == 1]
    assert sum(parsed[text] for text in once) <= len(once) // 10
    assert set(parsed) <= set(texts)


def test_trapmix_parse_counts(parsed):
    books = load_workloads().trapmix(5).books
    texts = _formulas(books)
    assert (sum(texts.values()), len(texts)) == (7160, 1153)  # each one parsed at the seed
    for book in books:
        _load(book)
    cold = sum(parsed.values())
    assert cold <= 233
    once = [text for text, count in texts.items() if count == 1]
    assert sum(parsed[text] for text in once) <= len(once) // 10
    # below the bound, no key is dropped: each reference key has a template or is noted
    assert {key for key in shapes._table if key[0] is not None} == _keys(texts)
    assert all(shape is None or shape.template is not None for shape in shapes._table.values())
    noted = sum(shape is None for shape in shapes._table.values())
    parsed.clear()
    for book in books:
        _load(book)  # the same books again: each noted key is parsed once, to be its template
    assert sum(parsed.values()) == noted
    assert None not in shapes._table.values()
    parsed.clear()
    shapes._table.clear()
    for book in books:
        sheet = _load(book)  # kept until the next load, as the audit keeps it: no difference
    assert sum(parsed.values()) == cold
    assert len(shapes._table) <= shapes._TABLE_SIZE


def test_a_text_s_first_tree_is_its_key_s_template(parsed):
    text = "=PMT(A1/12,60,B1)"
    tree, shape, source = shapes.parse_shared(text)
    # the text is read through the template its tree became, and keeps the tree
    assert source == text and shape.template is tree
    # the reference key and the slot key, whose tokens are a reference, two numbers and a reference
    slot_key = (None, "rnnr", "=PMT(", "/", ",", ",", ")")
    assert list(shapes._table) == [slot_key, tuple(shapes._REFS.split(text))]
    assert shapes._table[slot_key].template is tree
    del tree, shape
    gc.collect()
    # the next sheet parses nothing
    sheet = Sheet([(2, [(3, "=PMT(A2/12,60,B2)")])])
    assert sheet.cells["C2"].source is not None
    assert sheet.cells["C2"].shape is shapes._table[tuple(shapes._REFS.split(text))]
    assert parsed == {text: 1}
