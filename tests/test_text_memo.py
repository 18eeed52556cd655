"""A formula text that recurs across workbooks is parsed about twice per process.

shapes keeps the tree of a text asked for a second time among the last
_MEMO_SIZE distinct texts, and only the string of a text asked for once.
Work is counted, not timed: the calls of parse in the shapes module.  Every
load compares with a load made from an empty memo: trees, #PARSE! messages,
evaluate_all values and run_rules findings must be the same.
"""

import collections
import contextlib
import csv
import gc
import importlib.util
import io
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sheet_strategies import sheets

from ledgerlint.audit import run_rules
from ledgerlint.formula import ParseError, Sheet, parse, shapes

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    """perfbench/workloads.py, the benchmark's seeded workbook generators (stdlib only)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _memo(size: int = shapes._MEMO_SIZE):
    """An empty memo of size texts for the body, and the memo as it was after it."""
    saved = shapes._memo, shapes._MEMO_SIZE
    shapes._memo, shapes._MEMO_SIZE = {}, size
    try:
        yield
    finally:
        shapes._memo, shapes._MEMO_SIZE = saved


@pytest.fixture
def parsed(monkeypatch):
    """How often each text reaches parse(), from an empty memo whose size never passes its bound."""
    counts = collections.Counter()

    def counted(text):
        counts[text] += 1
        assert len(shapes._memo) <= shapes._MEMO_SIZE
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    monkeypatch.setattr(shapes, "_memo", {})
    return counts


def _load(book, cache=None) -> Sheet:
    """The book as load_workbook reads its CSV."""
    return Sheet.from_rows(csv.reader(io.StringIO(book.csv_bytes().decode())), shapes=cache)


def _formulas(books) -> collections.Counter:
    return collections.Counter(
        text for book in books for text in book.grid.values() if text.startswith("=")
    )


def test_fresh_cache_loads_parse_a_recurring_text_at_most_twice(parsed):
    books = _load_workloads().trapmix(5, books=300).books
    texts = _formulas(books)
    assert len(texts) < shapes._MEMO_SIZE  # no text leaves the memo
    for book in books:
        _load(book)  # a fresh shape cache per book, as load_workbook(path) has
    assert {text: count for text, count in parsed.items() if count > 2} == {}
    assert all(parsed[text] == 1 for text, count in texts.items() if count == 1)
    assert set(parsed) <= set(texts)


def test_trapmix_parse_counts(parsed):
    books = _load_workloads().trapmix(5).books
    texts = _formulas(books)
    assert (sum(texts.values()), len(texts)) == (7160, 1153)  # each one parsed at the parent
    for book in books:
        _load(book)
    assert sum(parsed.values()) <= 1500
    assert all(parsed[text] == 1 for text, count in texts.items() if count == 1)
    parsed.clear()
    shapes._memo.clear()
    cache = shapes.ShapeCache()  # one cache for the run, as an audit run has
    for book in books:
        sheet = _load(book, cache)  # kept until the next load, as the audit keeps it
    assert sum(parsed.values()) <= 1364
    assert len(shapes._memo) <= shapes._MEMO_SIZE


def test_the_memo_keeps_a_tree_only_for_a_text_asked_for_again(parsed):
    texts = [f"=A1+{n}" for n in range(shapes._MEMO_SIZE + 100)]
    for text in texts:
        shapes._parse(text)
    assert list(shapes._memo) == texts[100:]  # the oldest texts are gone
    assert all(kept is shapes._ONCE for kept in shapes._memo.values())
    tree = shapes._parse(texts[-1])
    assert shapes._memo[texts[-1]] is tree and shapes._parse(texts[-1]) is tree
    shapes._parse(texts[0])  # gone, so asked for once again: a string, and the oldest goes
    assert shapes._memo[texts[0]] is shapes._ONCE and texts[100] not in shapes._memo
    assert len(shapes._memo) == shapes._MEMO_SIZE
    assert parsed[texts[-1]] == 2 and parsed[texts[0]] == 2 and parsed[texts[1]] == 1


def test_a_text_asked_for_once_keeps_no_tree(parsed):
    text = "=PMT(A1/12,60,B1)"
    tree = weakref.ref(shapes._parse(text))
    gc.collect()
    assert tree() is None and shapes._memo == {text: shapes._ONCE}


def test_a_failing_text_raises_the_same_parse_error_each_time(parsed):
    messages = []
    for _ in range(4):
        with pytest.raises(ParseError) as exc:
            shapes._parse("=A1+")
        messages.append(str(exc.value))
    cells = [Sheet([(1, [(1, "=A1+")])]).cells["A1"].error.message for _ in range(3)]
    assert set(messages) == set(cells) == {"unexpected end of formula at column 4"}
    assert parsed["=A1+"] == 7 and shapes._memo == {}


def _as_parsed(rows) -> Sheet:
    """The sheet of rows loaded from an empty memo, with a fresh cache."""
    with _memo():
        return Sheet.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(sheets(max_rows=12), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3, shapes._MEMO_SIZE]),
    st.booleans(),
)
def test_loads_read_as_loads_from_an_empty_memo(books, loads, size, shared):
    """A sequence of loads, some repeated, some kept while the next load: each
    reads as the same book loaded from an empty memo."""
    with _memo(size):
        cache = shapes.ShapeCache() if shared else None
        kept = []
        for index, keep in loads:
            rows = books[index % len(books)]
            sheet, oracle = Sheet.from_rows(rows, shapes=cache), _as_parsed(rows)
            # repr, so that nan values compare equal
            assert repr(list(sheet.evaluate_all().items())) == repr(
                list(oracle.evaluate_all().items())
            )
            assert run_rules(sheet) == run_rules(oracle)
            assert list(sheet.cells.items()) == list(oracle.cells.items())
            assert len(shapes._memo) <= size
            if keep:
                kept.append(sheet)
            del sheet  # the others' trees go with them: no cycle holds a tree
