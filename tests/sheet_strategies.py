"""Generated sheets of the shapes real workbooks have, for property tests.

A sheet is a few columns, each filled down from one template (or, when the
sheet is transposed, rows filled across), with some cells overwritten:
cycles, seeded errors (=1/0, an overflow, an unparsable formula, a range used
as a scalar), dates and text.  Templates read the cell above or below (chains
running either way), a cumulative range from an anchored first row, a window
of the next rows, or the column to the left; a column may carry a total of
its own cells in its first row, which is evaluated before them.  Each
reference is written with random '$' anchors and case, which a shared shape
must read as the same address.

sheets() draws the layout with hypothesis and each cell's choices from a
seeded Random, so that a grid of thousands of cells costs a handful of draws;
every move costs the same at any size.
"""

import random

from hypothesis import strategies as st

from ledgerlint.formula.ast import index_to_column

# (ref, column, other column, row) -> formula text; ref(column, row) writes a
# reference, None for the first cell of a chain that reads the row above
TEMPLATES = {
    "chain down": lambda ref, c, o, r: f"={ref(c, r + 1)}+1",
    "chain up": lambda ref, c, o, r: None if r == 1 else f"={ref(c, r - 1)}*1.5-{ref(o, r)}",
    "cumulative": lambda ref, c, o, r: f"=SUM({ref(o, 1, row_anchor=True)}:{ref(o, r)})",
    "window": lambda ref, c, o, r: f"=NPV(0.05,{ref(o, r)}:{ref(o, r + 2)})",
    "rate": lambda ref, c, o, r: f"=PMT({ref(o, r)}/100,12,100)",
    "anchored": lambda ref, c, o, r: f"={ref(o, 1, True, True)}*{ref(o, r)}-{ref(c, r + 1)}",
    "days": lambda ref, c, o, r: f"=DAYS360({ref(o, r)},{ref(o, r + 1)})",
    "text": lambda ref, c, o, r: f'={ref(o, r)}&"x"',
    "compare": lambda ref, c, o, r: f"=({ref(o, r)}>{ref(c, r + 1)})+{ref(c, r + 1)}",
    "dated": lambda ref, c, o, r: f"=XNPV(0.1,{ref(o, r)}:{ref(o, r + 1)},{ref(c, r + 2)}:{ref(c, r + 3)})",
}
LITERALS = ["1", "2.5", "-3", "0", "12", "0.05", "2024-01-31", "2024-06-30", "x", ""]
# (ref, column, row) -> the text of a seeded cell
SEEDS = [
    lambda ref, c, r: "=1/0",
    lambda ref, c, r: "=1E300*1E300",
    lambda ref, c, r: "=1+",
    lambda ref, c, r: "text",
    lambda ref, c, r: "2024-02-29",
    lambda ref, c, r: f"={ref(c, 1)}:{ref(c, 2)}+1",
]


@st.composite
def sheets(draw, min_rows: int = 1, max_rows: int = 30, max_cols: int = 3) -> list[list[str]]:
    """The rows of a sheet (lists of raw cell texts) for Sheet.from_rows."""
    n = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, max_cols))
    fills = draw(st.lists(st.sampled_from([*TEMPLATES, "literals"]), min_size=cols, max_size=cols))
    totals = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    transposed = draw(st.booleans())
    seeds = draw(st.lists(st.sampled_from(range(len(SEEDS))), max_size=4))
    cycles = draw(st.lists(st.sampled_from(["pair", "self", "range"]), max_size=2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def ref(c: int, r: int, column_anchor: bool = False, row_anchor: bool = False) -> str:
        if transposed:
            c, r = r, c
        column = index_to_column(c)
        if rng.random() < 0.1:
            column = column.lower()
        column_anchor = column_anchor or rng.random() < 0.1
        row_anchor = row_anchor or rng.random() < 0.1
        return f"{'$' * column_anchor}{column}{'$' * row_anchor}{r}"

    def cell() -> tuple[int, int]:
        return rng.randint(1, cols), rng.randint(1, n)

    grid = {}
    for c, fill in enumerate(fills, start=1):
        other = c - 1 if c > 1 else cols
        for r in range(1, n + 1):
            if fill == "literals":
                grid[c, r] = rng.choice(LITERALS)
            else:
                text = TEMPLATES[fill](ref, c, other, r)
                grid[c, r] = rng.choice(LITERALS[:6]) if text is None else text  # a number
        if totals[c - 1] and n > 1:
            grid[c, 1] = f"=SUM({ref(c, 2)}:{ref(c, n)})"
    for seed in seeds:
        c, r = cell()
        grid[c, r] = SEEDS[seed](ref, c, r)
    for cycle in cycles:
        (c, r), (d, s) = cell(), cell()
        if cycle == "pair":
            grid[c, r], grid[d, s] = f"={ref(d, s)}+1", f"=2*{ref(c, r)}"
        elif cycle == "self":
            grid[c, r] = f"={ref(c, r)}+1"
        else:
            grid[c, r] = f"=SUM({ref(c, 1)}:{ref(c, n)})"
    if transposed:
        grid = {(r, c): text for (c, r), text in grid.items()}
        cols, n = n, cols
    return [[grid[c, r] for c in range(1, cols + 1)] for r in range(1, n + 1)]
