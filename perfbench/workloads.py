"""Seeded workbook generators, each book carrying an oracle built by construction.

Nothing here imports ledgerlint: every expected finding, exit code, value and
error count follows from how the generator laid the book out, so the
benchmark never checks the program against its own output.

Rule severities come from the README rule table: R1, R3 and R4 are warnings,
R5 and R6 errors, R2, R7 and R8 info.  An audit exits 1 when any finding is a
warning or an error.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import random
from dataclasses import dataclass, field

ACTIONABLE_RULES = frozenset({"R1", "R3", "R4", "R5", "R6"})

# Sizes for the timed runs; the self-test passes smaller ones.
LOANBOOK_ROWS = 3000
TRAPMIX_BOOKS = 1500
SPARSE_ROWS = 8000
SPARSE_COLS = 26
SPARSE_DENSITY = 0.01
ANCHORED_SHARE = 0.05

WHY = {
    "loanbook": "one long running-balance loan book: parsing dominates, few relative shapes, "
    "a long dependency chain and narrow ranges",
    "trapmix": "thousands of small books with seeded R1-R8 traps: rules and rendering dominate, "
    "each book has a fixed cost and most shapes are distinct",
    "sparse_wide": "a 1%-populated wide table whose whole-rectangle SUM/NPV feed PMT rates: "
    "range enumeration dominates and parsing is negligible",
}


@dataclass
class Book:
    """One CSV workbook plus what a correct audit and evaluation must report."""

    name: str
    grid: dict[tuple[int, int], str]  # (column index from 1, row from 1) -> cell text
    findings: set[tuple[str, str]] = field(default_factory=set)  # (rule_id, cell)
    values: dict[str, float] = field(default_factory=dict)  # cell -> expected number
    errors: dict[str, int] = field(default_factory=dict)  # error kind -> cell count
    anchored: bool = False

    @property
    def exit_code(self) -> int:
        return 1 if any(rule in ACTIONABLE_RULES for rule, _ in self.findings) else 0

    def csv_bytes(self) -> bytes:
        n_rows = max(row for _, row in self.grid)
        n_cols = max(col for col, _ in self.grid)
        rows = [[""] * n_cols for _ in range(n_rows)]
        for (col, row), text in self.grid.items():
            rows[row - 1][col - 1] = text
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue().encode("utf-8")


@dataclass
class Workload:
    name: str
    books: list[Book]
    probe: list[Book] = field(default_factory=list)  # `$`-anchored books, audited untimed


def column_letters(index: int) -> str:
    letters = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def column_index(letters: str) -> int:
    index = 0
    for ch in letters:
        index = index * 26 + ord(ch) - ord("A") + 1
    return index


def address(col: int, row: int) -> str:
    return f"{column_letters(col)}{row}"


def plain_npv(rate: float, values: list[float]) -> float:
    return sum(v / (1.0 + rate) ** i for i, v in enumerate(values, start=1))


def plain_pmt(rate: float, nper: int, pv: float) -> float:
    """Level payment with the sign opposite to pv."""
    return -pv * rate / (1.0 - (1.0 + rate) ** -nper)


def _random_date(rng: random.Random, first_year: int, last_year: int) -> dt.date:
    start = dt.date(first_year, 1, 1).toordinal()
    end = dt.date(last_year, 12, 31).toordinal()
    return dt.date.fromordinal(rng.randint(start, end))


# loanbook


def loanbook(seed: int, rows: int = LOANBOOK_ROWS) -> Workload:
    """A variable-rate amortization table whose rows chain through the balance.

    Columns: A period, B annual rate (a literal at each year start, else the row
    above), C opening balance (the previous closing), D remaining periods,
    E PMT(B/12, D, C), F interest, G principal, H closing, I sparse
    prepayments, J year-on-year rate change against K, the prior year's rate.
    K is blank in the first year, so J2 is a division by zero and the J total
    below the table propagates it.
    """
    rng = random.Random(f"loanbook:{seed}")
    grid: dict[tuple[int, int], str] = {}
    for col, title in enumerate(
        ["period", "rate", "opening", "remaining", "payment", "interest",
         "principal", "closing", "prepay", "rate_change", "prior_rate"], start=1):
        grid[col, 1] = title
    principal = float(rng.randrange(200_000, 2_000_001, 1000))
    term = rows + rng.randint(60, 240)
    findings: set[tuple[str, str]] = set()
    last = rows + 1
    balance = principal
    remaining = float(term)
    interest_total = 0.0
    rate = prior = 0.0
    for r in range(2, last + 1):
        period = r - 1
        grid[1, r] = str(period)
        if (period - 1) % 12 == 0:
            prior, rate = rate, round(rng.uniform(0.02, 0.09), 4)
            grid[2, r] = repr(rate)
            grid[10, r] = f"=(B{r}-K{r})/K{r}"
            if prior:
                grid[11, r] = repr(prior)
        else:
            grid[2, r] = f"=B{r - 1}"
        if r == 2:
            grid[3, r] = repr(principal)
            grid[4, r] = str(term)
        else:
            grid[3, r] = f"=H{r - 1}"
            grid[4, r] = f"=D{r - 1}-1"
            remaining -= 1.0
        grid[5, r] = f"=PMT(B{r}/12,D{r},C{r})"
        findings.add(("R2", f"E{r}"))
        grid[6, r] = f"=C{r}*B{r}/12"
        grid[7, r] = f"=-E{r}-F{r}"
        grid[8, r] = f"=C{r}-G{r}-I{r}"
        prepay = 0.0
        if rng.random() < 0.01:
            prepay = round(rng.uniform(0.0001, 0.001) * principal, 2)
            grid[9, r] = repr(prepay)
        payment = plain_pmt(rate / 12, int(remaining), balance)
        interest = balance * rate / 12
        interest_total += interest
        balance = balance - (-payment - interest) - prepay
    totals = last + 2
    grid[1, totals] = "totals"
    for col in "EFGIJ":
        grid[column_index(col), totals] = f"=SUM({col}2:{col}{last})"
    grid[8, totals] = f"=H{last}"
    book = Book(
        "loanbook.csv",
        grid,
        findings,
        values={f"H{last}": balance, f"H{totals}": balance, f"F{totals}": interest_total},
        errors={"div0": 1, "propagated": 1},
    )
    return Workload("loanbook", [book])


# trapmix


class _Refs:
    """Writes cell references, `$`-anchored in some style when the book is anchored."""

    def __init__(self, rng: random.Random, anchored: bool):
        self.rng = rng
        self.anchored = anchored

    def __call__(self, cell: str) -> str:
        if not self.anchored:
            return cell
        letters = cell.rstrip("0123456789")
        digits = cell[len(letters):]
        return self.rng.choice(
            (f"${letters}${digits}", f"${letters}{digits}", f"{letters}${digits}")
        )

    def range(self, first: str, last: str) -> str:
        return f"{self(first)}:{self(last)}"


class _Block:
    """Where a book's formulas go: a seeded column and first row, so that the
    same template yields different relative shapes from book to book."""

    def __init__(self, rng: random.Random, book: Book, first_col: int):
        self.book = book
        self.col = rng.randint(first_col, first_col + 5)
        self.row = rng.randint(1, 12)

    def put(self, k: int, text: str, dcol: int = 0) -> str:
        """Write the k-th formula of the block; returns its address."""
        col, row = self.col + dcol, self.row + k
        self.book.grid[col, row] = text
        return address(col, row)


def _appraisal(rng: random.Random, ref: _Refs, book: Book) -> None:
    """Cash flows in A, dates in B, the rate in C1; NPV, XNPV, PMT and EFFECT in a block."""
    grid = book.grid
    block = _Block(rng, book, 4)
    n = rng.randint(4, 9)
    flows = [-float(rng.randint(50, 500) * 10)] + [
        float(rng.randint(10, 200) * 5) for _ in range(n - 1)
    ]
    day = _random_date(rng, 2000, 2030)
    dates = []
    for i, flow in enumerate(flows, start=1):
        grid[1, i] = str(int(flow))
        dates.append(day)
        grid[2, i] = day.isoformat()
        day += dt.timedelta(days=rng.randint(200, 400))
    rate = round(rng.uniform(0.03, 0.15), 4)
    whole_rate = rng.random() < 0.3  # R5: a percentage typed as a whole number
    if whole_rate:
        rate = round(rate * 100, 2)
    grid[3, 1] = repr(rate)
    a_range = ref.range("A1", f"A{n}")
    if rng.random() < 0.5:  # R1: the period-0 outlay fed into NPV
        npv = block.put(0, f"=NPV({ref('C1')},{a_range})")
        book.findings.add(("R1", npv))
        book.values[npv] = plain_npv(rate, flows)
    else:
        npv = block.put(0, f"={ref('A1')}+NPV({ref('C1')},{ref.range('A2', f'A{n}')})")
        book.values[npv] = flows[0] + plain_npv(rate, flows[1:])
    xnpv = block.put(1, f"=XNPV({ref('C1')},{a_range},{ref.range('B1', f'B{n}')})")
    book.values[xnpv] = sum(
        v / (1.0 + rate) ** ((d - dates[0]).days / 365.0) for v, d in zip(flows, dates)
    )
    if whole_rate:
        book.findings |= {("R5", npv), ("R5", xnpv)}
    nper = rng.choice((12, 24, 36, 60, 120))
    pv = float(rng.randint(1, 100) * 1000)
    if rng.random() < 0.5:  # R2: annual rate divided by 12
        payment = block.put(2, f"=PMT({ref('C1')}/12,{nper},{int(pv)})")
        book.findings.add(("R2", payment))
        monthly = rate / 12
    else:
        grid[3, 2] = f"=(1+{ref('C1')})^(1/12)-1"
        payment = block.put(2, f"=PMT({ref('C2')},{nper},{int(pv)})")
        monthly = (1 + rate) ** (1 / 12) - 1
        book.values["C2"] = monthly
    if monthly >= 1.0:  # a whole-number rate in C1 can survive the division
        book.findings.add(("R5", payment))
    book.values[payment] = plain_pmt(monthly, nper, pv)
    if rng.random() < 0.3:  # R5 again, written inline
        nominal = float(rng.randint(2, 20))
    else:
        nominal = round(rng.uniform(0.01, 0.2), 4)
    effect = block.put(3, f"=EFFECT({nominal!r},12)")
    if nominal >= 1.0:
        book.findings.add(("R5", effect))
    book.values[effect] = (1.0 + nominal / 12) ** 12 - 1.0
    grid[1, 15] = "appraisal"


def _bond(rng: random.Random, ref: _Refs, book: Book) -> None:
    """Issue, settlement, maturity, coupon, price and redemption in A1:A6;
    INTRATE, ACCRINT, DAYS360 and a day-count ratio in a block."""
    grid = book.grid
    block = _Block(rng, book, 3)
    issue = _random_date(rng, 1995, 2035)
    settlement = issue + dt.timedelta(days=rng.randint(30, 300))
    r3 = rng.random() < 0.4  # R3: INTRATE over more than a year
    span = rng.randint(400, 1500) if r3 else rng.randint(30, 330)
    maturity = settlement + dt.timedelta(days=span)
    coupon = round(rng.uniform(0.01, 0.09), 4)
    for row, value in enumerate((issue, settlement, maturity), start=1):
        grid[1, row] = value.isoformat()
    grid[1, 4] = repr(coupon)
    grid[1, 5] = repr(round(rng.uniform(90, 99.5), 2))
    grid[1, 6] = repr(round(rng.uniform(100, 110), 2))

    def basis(choices: int) -> tuple[str, bool]:
        """An explicit basis, or R7: omitted outright or left as an empty slot."""
        draw = rng.random()
        if draw < 0.2:
            return "", True
        if draw < 0.3:
            return ",", True
        return f",{rng.randrange(choices)}", False

    def put(k: int, head: str, choices: int) -> str:
        suffix, omitted = basis(choices)
        cell = block.put(k, f"{head}{suffix})")
        if omitted:
            book.findings.add(("R7", cell))
        return cell

    a = [ref(f"A{i}") for i in range(1, 7)]
    intrate = put(0, f"=INTRATE({a[1]},{a[2]},{a[4]},{a[5]}", 5)
    if r3:
        book.findings.add(("R3", intrate))
    whole_coupon = rng.random() < 0.25  # R5: coupon typed as a whole-number percentage
    rate_arg = repr(round(coupon * 100, 2)) if whole_coupon else a[3]
    par = rng.choice((100, 1000, 5000))
    accrint = put(1, f"=ACCRINT({a[0]},{a[1]},{rate_arg},{par}", 5)
    if whole_coupon:
        book.findings.add(("R5", accrint))
    put(2, f"=DAYS360({a[0]},{a[1]}", 2)
    divisor = 360 if rng.random() < 0.5 else 365  # R8: actual days over 360
    ratio = block.put(3, f"=({a[2]}-{a[1]})/{divisor}")
    if divisor == 360:
        book.findings.add(("R8", ratio))
    book.values[ratio] = span / divisor
    grid[1, 15] = "bond"


def _depreciation(rng: random.Random, ref: _Refs, book: Book) -> None:
    """Cost, salvage and life in A1:A3; DB rows in a block, SLN and a
    division chain in the column after it."""
    grid = book.grid
    block = _Block(rng, book, 3)
    cost = float(rng.randint(10, 2000) * 1000)
    salvage = float(round(cost * rng.uniform(0.05, 0.3)))
    life = rng.randint(3, 12)
    grid[1, 1], grid[1, 2], grid[1, 3] = str(int(cost)), str(int(salvage)), str(life)
    a = [ref(f"A{i}") for i in range(1, 4)]
    for period in range(1, min(life, 4) + 1):
        draw = rng.random()
        if draw < 0.3:  # R4: a partial first year
            month = f",{rng.randint(1, 11)}"
        elif draw < 0.5:
            month = ",12"
        else:
            month = ""
        cell = block.put(period - 1, f"=DB({a[0]},{a[1]},{a[2]},{period}{month})")
        if draw < 0.3:
            book.findings.add(("R4", cell))
    cell = block.put(0, f"=SLN({a[0]},{a[1]},{a[2]})", dcol=1)
    book.values[cell] = (cost - salvage) / life
    if rng.random() < 0.4:  # R6: a date typed as a division chain
        day = _random_date(rng, 1950, 2090)
        year = day.year % 100 if rng.random() < 0.5 else day.year
        if year == 0:  # a two-digit year of 0 would divide by zero
            year = day.year
        cell = block.put(1, f"={day.day}/{day.month}/{year}", dcol=1)
        book.findings.add(("R6", cell))
        book.values[cell] = day.day / day.month / year
    else:
        cell = block.put(1, f"={a[0]}/{a[2]}/12", dcol=1)
        book.values[cell] = cost / life / 12
    grid[1, 15] = "depreciation"


_BOOK_TYPES = (_appraisal, _bond, _depreciation)


def _trap_book(rng: random.Random, name: str, anchored: bool) -> Book:
    book = Book(name, {}, anchored=anchored)
    rng.choice(_BOOK_TYPES)(rng, _Refs(rng, anchored), book)
    return book


def _anchor_fails_audit(book: Book) -> bool:
    """Whether some expected finding sits in a formula that holds a `$` anchor."""
    cells = {address(col, row): text for (col, row), text in book.grid.items()}
    return any("$" in cells[cell] for _, cell in book.findings)


def trapmix(seed: int, books: int = TRAPMIX_BOOKS) -> Workload:
    """Small appraisal, bond and depreciation books with seeded traps.

    A further ANCHORED_SHARE of the corpus is written with `$` anchors.  Those
    books are the anchor probe: the oracle expects the same findings as for
    unanchored references, and they are audited apart from the timed books so
    that every timed operation can pass.
    """
    rng = random.Random(f"trapmix:{seed}")
    timed = [_trap_book(rng, f"t/{i:05d}.csv", False) for i in range(books)]
    n_probe = round(books * ANCHORED_SHARE / (1 - ANCHORED_SHARE))
    probe = []
    while len(probe) < n_probe:
        book = _trap_book(rng, f"p/{len(probe):05d}.csv", True)
        if _anchor_fails_audit(book):
            probe.append(book)
    return Workload("trapmix", timed, probe)


# sparse_wide


def sparse_wide(seed: int, rows: int = SPARSE_ROWS, cols: int = SPARSE_COLS) -> Workload:
    """A wide table about 1% populated, summarised by whole-rectangle ranges.

    Data fills A2 to the last column of row rows+1.  Column AB sums the
    rectangle and its halves and takes its NPV; column AC feeds those into PMT
    rates, so R5 resolves every whole-rectangle range.  AC3 divides a sum by
    a count instead of a percentage (an R5 trap) and AC4 is an NPV over the
    lower half whose first value is negative (an R1 trap).
    """
    rng = random.Random(f"sparse_wide:{seed}")
    grid: dict[tuple[int, int], str] = {}
    last_row = rows + 1
    mid_row = 2 + rows // 2
    half = cols // 2
    slots = rng.sample(range(rows * cols), round(rows * cols * SPARSE_DENSITY))
    cells = {(2 + slot // cols, 1 + slot % cols): round(rng.uniform(1, 20), 2) for slot in slots}
    cells[mid_row, 1] = -round(rng.uniform(1, 20), 2)
    for (row, col), value in cells.items():
        grid[col, row] = repr(value)
    ordered = [cells[key] for key in sorted(cells)]  # row-major
    left = [cells[key] for key in sorted(cells) if key[1] <= half]
    right = [cells[key] for key in sorted(cells) if key[1] > half]
    lower = [cells[key] for key in sorted(cells) if key[0] >= mid_row]
    first, last_col, left_last = "A", column_letters(cols), column_letters(half)
    right_first = column_letters(half + 1)
    npv_rate = round(rng.uniform(0.03, 0.08), 4)
    lower_rate = round(rng.uniform(0.03, 0.08), 4)
    ab, ac = column_index("AB"), column_index("AC")
    grid[ab, 1] = f"=SUM({first}2:{last_col}{last_row})"
    grid[ab, 2] = f"=NPV({npv_rate!r},{first}2:{last_col}{last_row})"
    grid[ab, 3] = f"=SUM({first}2:{left_last}{last_row})"
    grid[ab, 4] = f"=SUM({right_first}2:{last_col}{last_row})"
    grid[ab, 5] = str(len(ordered))
    grid[ab, 6] = str(len(left))
    total, npv = sum(ordered), plain_npv(npv_rate, ordered)
    pvs = [float(rng.randint(10, 500) * 1000) for _ in range(3)]
    grid[ac, 1] = f"=PMT(AB1/AB5/100,360,{int(pvs[0])})"
    grid[ac, 2] = f"=PMT(AB2/10000,120,{int(pvs[1])})"
    grid[ac, 3] = f"=PMT(AB3/AB6,60,{int(pvs[2])})"
    grid[ac, 4] = f"=NPV({lower_rate!r},{first}{mid_row}:{last_col}{last_row})"
    rates = (total / len(ordered) / 100, npv / 10000, sum(left) / len(left))
    values = {"AB1": total, "AB2": npv, "AB3": sum(left), "AB4": sum(right),
              "AC4": plain_npv(lower_rate, lower)}
    findings = {("R1", "AC4")}  # the lower half starts with the negative value
    if ordered[0] < 0:
        findings.add(("R1", "AB2"))
    for row, (rate, nper, pv) in enumerate(zip(rates, (360, 120, 60), pvs), start=1):
        values[f"AC{row}"] = plain_pmt(rate, nper, pv)
        if rate >= 1.0:
            findings.add(("R5", f"AC{row}"))
    return Workload("sparse_wide", [Book("sparse_wide.csv", grid, findings, values)])


GENERATORS = {"loanbook": loanbook, "trapmix": trapmix, "sparse_wide": sparse_wide}


def values_match(expected: float, actual: object) -> bool:
    """Plain-Python arithmetic may differ from the program's in the last digits."""
    return isinstance(actual, float) and math.isclose(
        actual, expected, rel_tol=1e-9, abs_tol=1e-6
    )
