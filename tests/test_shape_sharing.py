"""A sheet parses each relative shape once and fills in each cell's references.

Every test compares a sheet with an oracle placed from the same cells, whose
formula cells are each parsed on their own by parse(): the trees or parse
error messages, the evaluate_all values and the run_rules findings must be
the same, in the same order.  Every sheet parses through the process's one
shape table, as the workbooks of an audit run do; each test starts with it
empty.
"""

import collections
import gc
import json
import random
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from sheet_strategies import sheets
from workbooks import assert_read_through_templates, grid_rows, load_workloads, per_cell

from ledgerlint.audit import run_rules
from ledgerlint.cli import RULES_ENV_VAR, main
from ledgerlint.formula import (
    Binary,
    Call,
    ParseError,
    Sheet,
    TokenKind,
    Unary,
    parse,
    tokenize,
)
from ledgerlint.formula import shapes
from ledgerlint.formula.ast import column_to_index, index_to_column

ROOT = Path(__file__).resolve().parent.parent
CORPUS = [
    json.loads(line)["formula"]
    for line in (ROOT / "tests" / "fixtures" / "front_end.jsonl").read_text("utf-8").splitlines()
]


def assert_as_parsed_per_cell(grid: dict[tuple[int, int], str]) -> Sheet:
    sheet, oracle = Sheet(grid_rows(grid)), per_cell(grid)
    assert_read_through_templates(sheet)
    assert list(sheet.cells.items()) == list(oracle.cells.items())
    # repr, so that nan values compare equal
    assert repr(list(sheet.evaluate_all().items())) == repr(list(oracle.evaluate_all().items()))
    assert run_rules(sheet) == run_rules(oracle)
    return sheet


@settings(max_examples=300, deadline=None)
@given(sheets(max_rows=60))
def test_generated_sheets_read_as_parsed_per_cell(rows):
    assert_as_parsed_per_cell(
        {(col, row): text for row, texts in enumerate(rows, 1) for col, text in enumerate(texts, 1)}
    )


def rewritten(text: str, new_ref) -> str | None:
    """text with each reference token replaced by new_ref(its CellRef), the rest
    as it is.  None when new_ref gives None; text itself when it does not lex.
    """
    try:
        tokens = tokenize(text)
    except ParseError:
        return text
    pieces, last = [], 0
    for token in tokens:
        if token.kind is not TokenKind.REF:
            continue
        new = new_ref(parse("=" + token.text))
        if new is None:
            return None
        pieces += [text[last:token.pos], new]
        last = token.pos + len(token.text)
    return "".join(pieces) + text[last:]


def filled(text: str, d_col: int, d_row: int) -> str | None:
    """text as filling it d_col columns right and d_row rows down writes it:
    each reference token moves unless '$' anchors it, the rest stays as it is.
    None when a reference would leave the sheet; text itself when it does not lex.
    """

    def moved(ref):
        col = column_to_index(ref.column) + (0 if ref.column_absolute else d_col)
        row = ref.row + (0 if ref.row_absolute else d_row)
        if not (1 <= col <= column_to_index("ZZZ") and row >= 1):
            return None
        column_anchor = "$" if ref.column_absolute else ""
        row_anchor = "$" if ref.row_absolute else ""
        return f"{column_anchor}{index_to_column(col)}{row_anchor}{row}"

    return rewritten(text, moved)


def fill_region(grid, text, col, row, moves):
    """Place text at (col, row) and its fills at each (d_col, d_row) of moves, on free cells."""
    for d_col, d_row in [(0, 0), *moves]:
        copy = filled(text, d_col, d_row)
        if copy is not None and (col + d_col, row + d_row) not in grid:
            grid[col + d_col, row + d_row] = copy


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_golden_corpus_at_random_hosts(seed):
    rng = random.Random(seed)
    grid = {}
    # literals where the corpus mostly points, so most references read values
    for col in range(1, 7):
        for row in range(1, 31):
            grid[col, row] = rng.choice(
                [str(rng.randint(-50, 500)), repr(round(rng.uniform(0, 1), 4)), "2024-03-01", "x"]
            )
    for text in CORPUS:
        moves = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]
        fill_region(grid, text, rng.randint(8, 60), rng.randint(1, 3000), moves)
    assert_as_parsed_per_cell(grid)


def random_ref(rng: random.Random) -> str:
    """A reference of 1-3 letters, either case, with or without each anchor."""
    if rng.random() < 0.5:
        letters = index_to_column(rng.randint(1, 6))  # mostly the literals
    else:
        letters = "".join(rng.choice("ABCXYZ") for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.3:
        letters = letters.lower()
    column_anchor, row_anchor = rng.choice(["$", ""]), rng.choice(["$", ""])
    return f"{column_anchor}{letters}{row_anchor}{rng.randint(1, 40)}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_golden_corpus_with_random_references(seed):
    # the copies of a text share its key but not its references' offsets
    rng = random.Random(seed)
    grid = {}
    for col in range(1, 7):
        for row in range(1, 41):
            grid[col, row] = str(rng.randint(-50, 500))
    for text in CORPUS:
        for _ in range(4):
            grid[rng.randint(8, 80), rng.randint(1, 3000)] = rewritten(
                text, lambda ref: random_ref(rng)
            )
    assert_as_parsed_per_cell(grid)


@pytest.mark.parametrize("texts", [("=-A1", "=A1-B1"), ("=A1-B1", "=-A1")])
def test_keys_keep_the_boundaries_between_references(texts):
    # joined into one string, the two keys would both be '=-'
    grid = {(1, 1): "3", (2, 1): "5"}
    grid.update({(3, row): texts[row % 2] for row in range(1, 7)})
    assert_as_parsed_per_cell(grid)


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_books(seed):
    workloads = load_workloads()
    loanbook = workloads.loanbook(seed, rows=80)
    trapmix = workloads.trapmix(seed, books=40)
    books = loanbook.books + trapmix.books + trapmix.probe
    assert any(book.anchored for book in books)
    for book in books:
        assert_as_parsed_per_cell(book.grid)


EDGE_CASES = [
    '="A1"&A1',  # a reference inside a string stays text
    '=A1&"$B$2 ""C3"""',
    "=LOG10(A1)+ATAN2(B1,1)",  # call names that look like references
    "=A1*1E5+2.5e-3",  # exponents that look like references
    "=a1+b2*Ab3",  # lower-case references
    "=SUM(B5:A1)",  # a reversed range
    "=SUM(A1:B5)+NPV(0.1,$A1:B$5)",
    "=$A1+A$1+$A$1+A1",  # mixed anchors
    "=SUM($B$1:$A$3)+SUM($C1:A$1)",
    "=PMT($A$1/12,60,10000)",
    "=A1 B1",  # unparsable: each cell's message names its own token
    "=A1+",
    "=B1+#",
    "=A1B1",
    "=1",  # no references
    '=" spaces  "&A1',
    '="Q1 "&B1',  # reference-like text inside a string
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_filled_down_and_across(text):
    grid = {(col, row): str(col * 10 + row) for col in range(1, 4) for row in range(1, 6)}
    moves = [(0, d) for d in range(1, 8)] + [(d, 0) for d in range(1, 4)] + [(2, 5), (3, 1)]
    fill_region(grid, text, 5, 2, moves)
    assert_as_parsed_per_cell(grid)


@pytest.mark.parametrize(
    "template",
    [
        '="A{r}"&A{r}',  # the text in the string moves with the cell too
        '="$A${r} ""A{r}"""&$A${r}',
        "=A{r}*1E{r}",
        "=A{r}*1.E{r}+.5e{r}",
        "=SUM(A{r}:B{r}0)-SUM(B{r}:A{r})",
    ],
)
def test_reference_lookalikes_that_move_with_the_cell(template):
    grid = {(1, row): str(row) for row in range(1, 10)}
    grid.update({(3, row): template.format(r=row) for row in range(1, 10)})
    assert_as_parsed_per_cell(grid)


def test_repeated_unparsable_formulas_keep_their_own_messages():
    grid = {}
    fill_region(grid, "=A1 B1", 2, 1, [(0, 1), (0, 2)])
    sheet = assert_as_parsed_per_cell(grid)
    messages = [sheet.cells[address].error.message for address in ("B1", "B2", "B3")]
    assert messages == [f"unexpected token 'B{row}' at column 4" for row in (1, 2, 3)]


@pytest.fixture
def parsed(monkeypatch):
    """The texts that a sheet hands to parse(), in order."""
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(shapes, "parse", counted)
    return texts


def test_a_filled_column_parses_once(parsed):
    sheet = Sheet((row, [(2, f"=PMT(AB{row}/12,60,C{row})+$A$1")]) for row in range(1, 101))
    assert parsed == ["=PMT(AB1/12,60,C1)+$A$1"]
    # the cells after the first are filled, and their references share column strings
    second = sheet.cells["B2"].formula.left.args[0].left
    last = sheet.cells["B100"].formula.left.args[0].left
    assert (second.column, second.row, last.row) == ("AB", 2, 100)
    assert second.column is last.column


def test_formulas_that_differ_only_in_references_parse_once(parsed):
    grid = {(5, row): "=A1+B1" if row % 2 else "=C7+$D$9" for row in range(1, 21)}
    Sheet(grid_rows(grid))
    assert parsed == ["=A1+B1"]
    assert_as_parsed_per_cell(grid)


def test_the_loan_book_makes_at_most_10_parses(parsed):
    for book in load_workloads().loanbook(1, rows=80).books:
        parsed.clear()
        Sheet(grid_rows(book.grid))
        assert 0 < len(parsed) <= 10, parsed


@pytest.fixture
def shaped(monkeypatch):
    """The trees that get a new Shape, in order."""
    trees = []
    init = shapes.Shape.__init__

    def counted(self, tree, text):
        trees.append(tree)
        init(self, tree, text)

    monkeypatch.setattr(shapes.Shape, "__init__", counted)
    return trees


def test_template_hits_make_no_parse_and_no_shape(parsed, shaped):
    # the full seed-5 loan book: 21,004 formulas, 20,996 of them template hits;
    # the 8 parses make 8 reference-key shapes and 3 slot-key shapes, each with
    # its template, and every formula, the 8 parsed ones too, is read through one
    book = load_workloads().loanbook(5).books[0]
    sheet = Sheet(grid_rows(book.grid))
    shared = [cell for cell in sheet.cells.values() if cell.source is not None]
    hits = sum(cell._formula is None for cell in shared)
    assert (len(parsed), len(shaped), len(shared), hits) == (8, 11, 21_004, 20_996)


@settings(max_examples=200, deadline=None)
@given(sheets(max_rows=60))
def test_a_load_parses_each_formula_at_most_once(rows):
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)

    shapes._table.clear()  # per example: an empty table, as in a new process
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shapes, "parse", counted)
        sheet = Sheet.from_rows(rows)
    formulas = [text.strip() for row in rows for text in row if text.strip().startswith("=")]
    hits = sum(cell.source is not None and cell._formula is None for cell in sheet.cells.values())
    # a template hit parses nothing, and any other formula parses at most once
    assert len(texts) + hits <= len(formulas)
    assert not collections.Counter(texts) - collections.Counter(formulas)


def test_the_key_costs_less_than_a_parse():
    # a text near the csv module's field limit of 131,072 characters; a key
    # that rescans the rest of the text at every reference is quadratic in it
    text = "=SUM(" + ",".join(["A1"] * 40_000) + ")"
    start = time.perf_counter()
    shapes._REFS.split(text)
    key_s = time.perf_counter() - start
    start = time.perf_counter()
    parse(text)
    parse_s = time.perf_counter() - start
    assert key_s < parse_s


# Sheets that share the table, as an audit run's workbooks do.


PMT_TEXT = "=PMT(A{r}/12,60,B{r})+$A${r}"  # one shape, whatever r


def _pmt_sheet(row: int) -> Sheet:
    """A sheet whose one formula, in column C, is PMT_TEXT for its row."""
    return Sheet([(row, [(1, "0.06"), (2, "10000"), (3, PMT_TEXT.format(r=row))])])


@pytest.mark.parametrize("dropped_before", [None, 1, 2])
def test_a_shape_once_in_each_of_three_sheets_parses_at_most_twice(parsed, dropped_before):
    # dropped_before: the index of the sheet before whose build the first is dropped
    sheets = []
    for index, row in enumerate((1, 4, 9)):
        if index == dropped_before:
            sheets[0] = None
            gc.collect()
        sheets.append(_pmt_sheet(row))
    assert 1 <= len(parsed) <= 2
    for index, row in enumerate((1, 4, 9)):
        if sheets[index] is not None:
            assert sheets[index].cells[f"C{row}"].formula == parse(PMT_TEXT.format(r=row))


def test_a_dropped_sheet_s_first_tree_stays_its_key_s_template(parsed):
    first = _pmt_sheet(1)
    tree = weakref.ref(first.cells["C1"].formula)
    # the first text's tree is at once the template of its slot key and of its key
    assert [type(shape) for shape in shapes._table.values()] == [shapes.SlotShape, shapes.Shape]
    assert list(shapes._table.values())[1] is first.cells["C1"].shape
    assert [f.rule_id for f in run_rules(first)] == ["R2"]
    assert first.cells["C1"].shape.rules is not None  # the plan of the template's nodes
    del first
    gc.collect()
    assert tree() is not None
    assert all(shape.template is tree() for shape in shapes._table.values())
    # the next sheet parses nothing: its cell reads through the template
    second = _pmt_sheet(2)
    assert second.cells["C2"].source is not None
    assert second.cells["C2"].formula == parse(PMT_TEXT.format(r=2))
    assert parsed == [PMT_TEXT.format(r=1)]


def _branches(node) -> list:
    """node and every Call, Binary and Unary node below it."""
    if isinstance(node, Call):
        children = node.args
    elif isinstance(node, Binary):
        children = (node.left, node.right)
    elif isinstance(node, Unary):
        children = (node.child,)
    else:
        return []
    return [node] + [found for child in children for found in _branches(child)]


PLANNED = [
    "=NPV(A{r},B{r}:B{s})",  # R1 and R5 per cell
    "=PMT(A{r}/12,60,B{r})",  # R2 per shape, R5 per cell
    "=DB(1000,100,5,1,A{r})",  # R4 per cell
    "=INTRATE(C{r},D{r},100,110)",  # R3 per cell, R7 per shape
    "=(D{r}-C{r})/360*A{r}",  # R8 per cell
    "=B{r}+1/1/80",  # R6 per shape
]


def test_a_plan_holds_only_nodes_of_its_shapes_template():
    grids, sheets, findings = [], [], []
    for offset in (1, 20):
        grid = {}
        for r in range(offset, offset + 3):
            texts = ["5" if r % 2 else "0.05", str(-r), "2024-01-31", "2026-03-01"]
            texts += [template.format(r=r, s=r + 2) for template in PLANNED]
            if r == 1:
                texts.append("=EFFECT(A1,12)+NPV(A1,B1:B3)")  # a key seen once
            grid.update({(col, r): text for col, text in enumerate(texts, start=1)})
        grids.append(grid)
        sheets.append(Sheet(grid_rows(grid)))
        findings.append(run_rules(sheets[-1]))
    once = sheets[0].cells[f"{index_to_column(len(PLANNED) + 5)}1"]
    assert once.shape.template is once.formula and once.shape.rules
    planned = {id(cell.shape): cell.shape for sheet in sheets for cell in sheet.cells.values()
               if cell.shape is not None and cell.shape.rules is not None}
    assert len(planned) == len(PLANNED) + 1  # the key seen once has a template and a plan too
    for shape in planned.values():
        assert shape.template is not None and shape.rules
        nodes = {id(node) for node in _branches(shape.template)}
        assert all(id(node) in nodes for _, node, _, _ in shape.rules)
    assert findings == [run_rules(per_cell(grid)) for grid in grids]


def test_parse_errors_keep_their_own_columns_across_sheets():
    texts = ["=A1+", "=AB10+", "=A1+"]
    messages = [Sheet([(1, [(1, text)])]).cells["A1"].error.message for text in texts]
    expected = []
    for text in texts:
        with pytest.raises(ParseError) as exc:
            parse(text)
        expected.append(str(exc.value))
    assert messages == expected
    assert messages[0] != messages[1]


@pytest.mark.parametrize("keep", [True, False])
def test_a_reference_inside_a_string_stays_unshareable_across_sheets(parsed, keep):
    texts = ['="A1"&A1', '="B2"&B2', '="C3"&C3']
    kept = []
    for text in texts:
        sheet = Sheet([(1, [(4, text)])])
        assert sheet.cells["D1"].formula == parse(text)
        # no cell gets the unshareable reference key's shape: each, the first
        # too, is read through the slot key's template
        assert type(sheet.cells["D1"].shape) is shapes.SlotShape
        if keep:
            kept.append(sheet)
        del sheet
        gc.collect()
    assert shapes._table[tuple(shapes._REFS.split(texts[0]))].template is None
    # the slot key reads the string whole: its template is the first tree,
    # whether or not that tree's sheet is kept
    assert parsed == texts[:1]


@pytest.fixture(scope="module")
def audit_books(tmp_path_factory):
    """trapmix books at two seeds, their anchored probe books, then the fixtures."""
    workloads = load_workloads()
    paths = []
    for seed in (1, 2):
        directory = tmp_path_factory.mktemp(f"trapmix{seed}")
        trapmix = workloads.trapmix(seed, books=60)
        for book in trapmix.books + trapmix.probe:
            path = directory / book.name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(book.csv_bytes())
            paths.append(str(path))
    return paths + sorted(str(p) for p in (ROOT / "tests" / "fixtures").glob("**/*.csv"))


@pytest.mark.parametrize("order", ["forward", "reverse"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_one_audit_run_prints_what_each_book_prints_alone(
    audit_books, order, fmt, capsys, monkeypatch
):
    monkeypatch.delenv(RULES_ENV_VAR, raising=False)
    paths = audit_books if order == "forward" else audit_books[::-1]
    paths = paths + paths[::3]  # repeats, after their first audit
    alone_out, alone_codes = [], []
    for path in paths:
        alone_codes.append(main(["audit", "--format", fmt, path]))
        alone_out.append(capsys.readouterr().out)
    assert set(alone_codes) == {0, 1}
    assert main(["audit", "--format", fmt, *paths]) == max(alone_codes)
    assert capsys.readouterr().out == "".join(alone_out)
