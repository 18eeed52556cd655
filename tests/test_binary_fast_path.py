"""Binary operators take plain float arithmetic first, with the same results.

evaluator._binary tests for + - * / on two floats before any other case.
The _binary that tested every other case first is kept here (ordered) as the
oracle: for every operator and every operand, the two give the same value,
compared by repr, so that the sign of a zero, a nan and each error message
count.  A filled-down column runs the same operands through a shape's kernel.
"""

import datetime as dt
import math

from hypothesis import example, given, settings, strategies as st

from ledgerlint.formula import ErrorKind, ErrorValue, Sheet, shapes
from ledgerlint.formula.evaluator import _ARITHMETIC, _COMPARISONS, _binary, _type_name
from ledgerlint.formula.sheet import format_value

OPERATORS = [*_ARITHMETIC, "^", "&", *_COMPARISONS]


def ordered(op, left, right):
    """op over the values of its two operands, neither an error."""
    if op == "&":
        return format_value(left) + format_value(right)
    if op in _COMPARISONS:
        # every operand here is exactly a float, a date or a str
        if type(left) is not type(right):
            return ErrorValue(
                ErrorKind.VALUE,
                f"cannot compare {_type_name(left)} with {_type_name(right)}",
            )
        return 1.0 if _COMPARISONS[op](left, right) else 0.0
    both_numbers = isinstance(left, float) and isinstance(right, float)
    if op == "-" and isinstance(left, dt.date) and isinstance(right, dt.date):
        return float((left - right).days)
    if not both_numbers:
        return ErrorValue(
            ErrorKind.VALUE,
            f"cannot apply {op!r} to {_type_name(left)} and {_type_name(right)}",
        )
    if op == "/" and right == 0.0:
        return ErrorValue(ErrorKind.DIV0, "division by zero")
    if op == "^":
        try:
            result = left ** right
        except ZeroDivisionError:
            return ErrorValue(ErrorKind.DIV0, "zero raised to a negative power")
        except OverflowError:
            result = math.inf
        if isinstance(result, complex):
            return ErrorValue(
                ErrorKind.VALUE, "negative base with fractional exponent"
            )
    elif op in _ARITHMETIC:
        result = _ARITHMETIC[op](left, right)
    else:
        raise ValueError(f"unknown operator {op!r}")
    if math.isfinite(result):
        return result
    return ErrorValue(ErrorKind.VALUE, f"numeric overflow in {op!r}")


EDGES = [0.0, 5e-324, 1.7976931348623157e308, 1.0, 0.5, 3.0, 12.0]
EDGE_FLOATS = [*EDGES, *(-x for x in EDGES), math.inf, -math.inf, math.nan]
DATES = [dt.date(2024, 1, 31), dt.date(2024, 2, 29), dt.date(1999, 12, 31)]
TEXTS = ["", "x", "1", "2024-01-31"]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
operands = st.one_of(
    floats, st.sampled_from(DATES), st.dates(), st.sampled_from(TEXTS), st.text(max_size=3)
)


@settings(max_examples=3000, deadline=None)
@given(st.sampled_from(OPERATORS), operands, operands)
@example("/", 1.0, 0.0)
@example("/", 1.0, -0.0)
@example("/", 0.0, 0.0)
@example("/", math.nan, 0.0)
@example("/", 0.0, math.nan)
@example("/", 1.0, 5e-324)
@example("*", 1.7976931348623157e308, 2.0)
@example("+", 1.7976931348623157e308, 1.7976931348623157e308)
@example("-", -1.7976931348623157e308, 1.7976931348623157e308)
@example("+", math.inf, -math.inf)
@example("-", math.inf, 1.0)
@example("*", math.nan, 1.0)
@example("*", -0.0, 1.0)
@example("+", -0.0, -0.0)
@example("-", 0.0, 0.0)
@example("^", 0.0, -1.0)
@example("^", -8.0, 1 / 3)
@example("^", 10.0, 400.0)
@example("-", dt.date(2024, 3, 1), dt.date(2024, 2, 1))
@example("+", dt.date(2024, 3, 1), 1.0)
@example("<", 1.0, "x")
@example("&", -0.0, 1e16)
def test_binary_matches_the_ordered_oracle(op, left, right):
    assert repr(_binary(op, left, right)) == repr(ordered(op, left, right))


# cell texts that a sheet reads as finite floats, dates and text
LITERALS = [
    "0", "-0.0", "5e-324", "-5e-324", "1.7976931348623157e308", "-1.7976931348623157e308",
    "1", "-2.5", "12", "2024-01-31", "2024-02-29", "x", "inf", "nan",
]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from(LITERALS)] * 2), min_size=2, max_size=30))
def test_a_filled_down_column_runs_the_kernel_as_the_oracle(pairs):
    # columns A and B hold the operands, and each operator fills one column
    # down from row 1: every cell, the first too, reads its shape's kernel
    shapes._table.clear()  # per example, so that row 1 is each key's first text
    rows = [
        [left, right, *(f"=A{row}{op}B{row}" for op in OPERATORS)]
        for row, (left, right) in enumerate(pairs, 1)
    ]
    sheet = Sheet.from_rows(rows)
    values = sheet.evaluate_all()
    for row in range(1, len(pairs) + 1):
        left, right = values[f"A{row}"], values[f"B{row}"]
        for column, op in zip("CDEFGHIJKLMN", OPERATORS):
            address = f"{column}{row}"
            assert sheet.cells[address].source is not None
            assert repr(values[address]) == repr(ordered(op, left, right)), address
