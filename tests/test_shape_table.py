"""One shape table per process: every sheet, however it is loaded, shares it.

Work is counted, not timed: the calls of parse in the shapes module, the
kernels the evaluator compiles and the audit plans a shape keeps.  The table
holds at most shapes._TABLE_SIZE keys and drops the oldest inserted first;
loads through a table at any bound read as loads from an empty one: trees,
#PARSE! messages, evaluate_all values and run_rules findings.
"""

import collections
import contextlib

import pytest
from hypothesis import given, settings, strategies as st
from sheet_strategies import sheets
from workbooks import grid_rows, load_workloads, per_cell

from ledgerlint.audit import run_rules
from ledgerlint.formula import Sheet, evaluator, load_workbook, parse, shapes


@contextlib.contextmanager
def _table(size: int = shapes._TABLE_SIZE):
    """An empty table of size keys for the body, and the table as it was after it."""
    saved = shapes._table, shapes._TABLE_SIZE
    shapes._table, shapes._TABLE_SIZE = {}, size
    try:
        yield
    finally:
        shapes._table, shapes._TABLE_SIZE = saved


@pytest.fixture
def parsed(monkeypatch):
    """How often each text reaches parse()."""
    counts = collections.Counter()

    def counted(text):
        counts[text] += 1
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    return counts


@pytest.fixture(scope="module")
def trapmix_paths(tmp_path_factory):
    """The seed-5 trapmix books and their anchored probe books, written as CSV files."""
    trapmix = load_workloads().trapmix(5)
    directory = tmp_path_factory.mktemp("trapmix5")
    books = trapmix.books + trapmix.probe
    for book in books:
        path = directory / book.name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(book.csv_bytes())
    return books, [directory / book.name for book in books]


def test_trapmix_books_loaded_one_at_a_time_parse_each_key_at_most_twice(
    trapmix_paths, parsed, monkeypatch
):
    books, paths = trapmix_paths
    kernels, plans = collections.Counter(), collections.Counter()
    build = evaluator._build_kernel

    def counted_kernel(shape):
        kernels[shape] += 1
        return build(shape)

    rules = shapes.Shape.__dict__["rules"]  # the slot, set to a shape's plan once it has one

    def set_rules(shape, plan):
        if plan is not None:
            plans[shape] += 1
        rules.__set__(shape, plan)

    monkeypatch.setattr(evaluator, "_build_kernel", counted_kernel)
    monkeypatch.setattr(shapes.Shape, "rules", property(rules.__get__, set_rules))
    texts = collections.Counter(
        text for book in books for text in book.grid.values() if text.startswith("=")
    )
    keys = collections.Counter(tuple(shapes._REFS.split(text)) for text in texts.elements())
    assert (sum(texts.values()), len(keys)) == (7536, 1192)
    for path in paths:
        sheet = load_workbook(path)  # each sheet dropped at the next load
        sheet.evaluate_all()
        run_rules(sheet)
    by_key = collections.Counter()
    for text, count in parsed.items():
        by_key[tuple(shapes._REFS.split(text))] += count
    assert max(by_key.values()) <= 2 and set(by_key) <= set(keys)
    # most keys come once, and their texts are read through a slot key's template
    assert sum(parsed.values()) <= 300
    assert kernels and set(kernels.values()) == {1}
    assert plans and set(plans.values()) == {1}
    # below the bound, no key is dropped: each reference key has a template or is noted
    assert sum(key[0] is not None for key in shapes._table) == len(keys)


GRID = {
    (1, 1): "0.05", (1, 2): "5", (1, 3): "0.06",
    (2, 1): "1000", (2, 2): "-1000", (2, 3): "2000",
    (3, 1): "=PMT(A1/12,60,B1)", (3, 2): "=PMT(A2/12,60,B2)", (3, 3): "=PMT(A3/12,60,B3)",
    (4, 1): "=NPV(A1,B1:B3)", (4, 2): "=NPV(A2,B2:B3)", (4, 3): "=NPV($A$3,B3:B1)",
}


def test_at_the_bound_the_oldest_key_goes_first(parsed):
    sheet = Sheet(grid_rows(GRID))
    pmt, npv = sheet.cells["C1"].shape, sheet.cells["D1"].shape
    assert pmt.template is not None and npv.template is not None
    assert sheet.evaluate_all() and run_rules(sheet)  # each shape's kernel and plan, built
    assert pmt.kernel is not None and pmt.rules is not None
    # the PMT slot key, the PMT key and the NPV key (no number, so no slot key)
    # are in the table; the fillers add one slot key and one reference key each
    fillers = [f"=A1+{n}" for n in range(shapes._TABLE_SIZE - 3)]
    Sheet([(row, [(1, text)]) for row, text in enumerate(fillers, start=1)])
    keys = list(shapes._table)
    assert len(keys) == shapes._TABLE_SIZE
    assert keys[:3] == [("=PMT(", "/12,60,", ")"), ("=NPV(", ",", ":", ")"), (None, "rn", "=", "+", "")]
    assert keys[-1] == ("=", f"+{len(fillers) - 1}")  # the PMT slot key went first
    Sheet([(1, [(1, "=B1*2")])])  # a new slot key, then a new reference key
    assert ("=NPV(", ",", ":", ")") not in shapes._table  # the PMT key and the NPV key next
    # the cells of a dropped shape keep it, and read as each formula parsed on its own
    assert sheet.cells["C3"].shape is pmt and sheet.cells["D3"].shape is npv
    again = Sheet(grid_rows(GRID))  # the PMT key starts again, parsed as a first text
    assert again.cells["C1"].shape is not pmt and parsed["=PMT(A1/12,60,B1)"] == 2
    oracle = per_cell(GRID)
    for loaded in (sheet, again):
        assert loaded.evaluate_all() == oracle.evaluate_all()
        assert run_rules(loaded) == run_rules(oracle)


def test_at_the_bound_a_noted_key_gets_its_template_and_drops_no_key(parsed):
    with _table(4):
        Sheet([(1, [(1, "=A1+1")])])  # its slot key and its reference key
        Sheet([(1, [(1, "=A1+2")])])  # read through the slot key: its key is noted
        Sheet([(1, [(1, "=A1*B1")])])  # no number, so no slot key: the table is full
        keys = list(shapes._table)
        assert len(keys) == 4 and keys[2] == ("=", "+2") and shapes._table[keys[2]] is None
        sheet = Sheet([(1, [(3, "=B1+2")])])  # the noted key's next text is parsed
        assert list(shapes._table) == keys
        assert shapes._table[keys[2]].template is sheet.cells["C1"].formula
    assert parsed == {"=A1+1": 1, "=A1*B1": 1, "=B1+2": 1}


def test_a_failing_text_raises_the_same_parse_error_each_time(parsed):
    cells = [Sheet([(1, [(1, "=A1+")])]).cells["A1"].error.message for _ in range(3)]
    assert set(cells) == {"unexpected end of formula at column 4"}
    assert parsed["=A1+"] == 3 and shapes._table == {}


def _as_parsed(rows) -> Sheet:
    """The sheet of rows loaded through an empty table."""
    with _table():
        return Sheet.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(sheets(max_rows=12), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3, shapes._TABLE_SIZE]),
)
def test_loads_read_as_loads_from_an_empty_table(books, loads, size):
    """A sequence of loads, some repeated, some kept while the next load: each
    reads as the same book loaded through an empty table, whatever the bound."""
    with _table(size):
        kept = []
        for index, keep in loads:
            rows = books[index % len(books)]
            sheet, oracle = Sheet.from_rows(rows), _as_parsed(rows)
            # repr, so that nan values compare equal
            assert repr(list(sheet.evaluate_all().items())) == repr(
                list(oracle.evaluate_all().items())
            )
            assert run_rules(sheet) == run_rules(oracle)
            assert list(sheet.cells.items()) == list(oracle.cells.items())
            assert len(shapes._table) <= size
            if keep:
                kept.append(sheet)
            del sheet  # the others' trees go with them: no cycle holds a tree


def test_after_two_passes_every_trapmix_cell_reads_through_its_reference_key(trapmix_paths):
    # the first pass reads most keys' texts through slot keys; a key's next
    # text makes its template, so the warm path is the reference keys'
    _, paths = trapmix_paths
    with _table():
        for _ in range(2):
            for path in paths:
                run_rules(load_workbook(path))
        formulas = 0
        for path in paths:
            for cell in load_workbook(path).cells.values():
                if cell.literal is None and cell.error is None:
                    formulas += 1
                    assert type(cell.shape) is shapes.Shape and cell.source is not None
                    assert cell.shape is shapes._table[tuple(shapes._REFS.split(cell.source))]
    assert formulas == 7536


def test_a_book_s_findings_do_not_depend_on_the_books_audited_before_it(trapmix_paths):
    """The seed-5 trapmix books, probe books included, audited from an empty
    table forward, reversed and with a table of their own each: a cell is read
    through its key's template whichever text of the key came first, so each
    book's findings are the same all three ways."""
    _, paths = trapmix_paths

    def audit(order) -> dict:
        findings = {}
        for path in order:
            findings[path] = run_rules(load_workbook(path))
        return findings

    forward = audit(paths)
    shapes._table.clear()
    assert audit(paths[::-1]) == forward
    alone = {}
    for path in paths:
        shapes._table.clear()
        alone.update(audit([path]))
    assert alone == forward
    assert sum(map(len, forward.values())) > len(paths)
