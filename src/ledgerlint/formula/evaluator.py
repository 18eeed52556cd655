"""Formula evaluation over a sheet: reference resolution, cycle detection,
operator semantics, and dispatch into the financial function catalog.

A cell whose shape came before (shapes.Shape) is evaluated by walking the
shape's template with every reference read through Evaluator.ref, which is
bound to the cell and reads the reference in the same slot of the cell's own
text, as the text writes it; no tree is built for the cell.  Any other
formula is its own tree and its references are read as they are.  A
reference whose value is cached is read in place, without a call.

Evaluation is total: every failure becomes an ErrorValue, never an exception.
Errors reached through a cell reference surface as PROPAGATED at the
referring cell; only the cells actually on a reference cycle are CYCLE.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from ..cashflow import CashFlowSeries, npv_legacy, pmt, xnpv
from ..daycount import DayCountBasis, days_between
from ..depreciation import DepreciationSpec, FullWriteOffWarning, PrecisionMode, db_period, sln
from ..rates import accrint, effective_rate, intrate, nominal_rate
from .ast import (
    Binary,
    Call,
    CellRef,
    EmptyArg,
    FormulaNode,
    NumberLit,
    PercentLit,
    RangeRef,
    TextLit,
    Unary,
)
from .shapes import cell_ref
from .sheet import Cell, CellValue, ErrorKind, ErrorValue, Sheet, format_value

__all__ = ["evaluate", "Evaluator", "FUNCTION_CATALOG", "BASIS_CODES", "Param", "Role"]

BASIS_CODES = {
    0: DayCountBasis.US_30_360,
    1: DayCountBasis.ACTUAL_ACTUAL,
    2: DayCountBasis.ACTUAL_360,
    3: DayCountBasis.ACTUAL_365,
    4: DayCountBasis.EUR_30_360,
}


def _type_name(value: CellValue) -> str:
    if isinstance(value, float):
        return "number"
    if isinstance(value, dt.date):
        return "date"
    return "text"


_Args = Sequence[FormulaNode]

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class Evaluator:
    def __init__(self, sheet: Sheet):
        self.sheet = sheet
        self.cache = sheet._values
        self.stack: dict[str, None] = {}  # addresses being evaluated, in call order
        # the references of the cell whose shape's template is being evaluated,
        # by slot, and the template's slots; None for a formula's own tree
        self._refs: list[str] | None = None
        self._slots: dict[int, int] | None = None

    # cell resolution

    def bind(self, cell: Cell) -> FormulaNode | None:
        """Bind ref() to cell and return the tree to evaluate for it, None for
        a literal or an error: for a cell read through its shape, the shape's
        template, whose references ref() reads from the cell's own text by
        slot; for any other cell, its own tree."""
        if cell.source is None:
            self._refs = None
            return cell.formula
        shape = cell.shape
        self._refs, self._slots = shape.refs(cell.source), shape.slots
        return shape.template

    def ref(self, node: CellRef | RangeRef) -> str | RangeRef:
        """What node, a reference of the tree being evaluated, reads in the
        bound cell's formula: a CellRef's address, or a RangeRef."""
        refs = self._refs
        if refs is None:
            return node.address if type(node) is CellRef else node
        slot = self._slots[id(node)]
        if type(node) is CellRef:
            return refs[slot].replace("$", "").upper()  # CellRef.address: the row has no leading 0
        # the constructor normalizes a reversed range as parse() does
        return RangeRef(cell_ref(refs[slot]), cell_ref(refs[slot + 1]))

    def cell_value(self, address: str) -> CellValue:
        value = self.cache.get(address)  # a CellValue is never None, so None is a miss
        if value is not None:
            return value
        cell = self.sheet.cells.get(address)
        if cell is None:
            return 0.0  # empty cells read as 0
        if cell.error is not None:
            self.cache[address] = cell.error
            return cell.error
        if cell.source is None and cell.formula is None:
            self.cache[address] = cell.literal
            return cell.literal
        if address in self.stack:
            members = list(self.stack)
            members = members[members.index(address):]
            path = " -> ".join(members + [address])
            error = ErrorValue(ErrorKind.CYCLE, f"circular reference: {path}")
            for member in members:
                self.cache[member] = error
            return error
        self.stack[address] = None
        bound = self._refs, self._slots
        try:
            result = self.eval_node(self.bind(cell))
        finally:
            del self.stack[address]
            self._refs, self._slots = bound
        marked = self.cache.get(address)
        if marked is not None:  # marked as a cycle member while recursing
            return marked
        self.cache[address] = result
        return result

    # expression evaluation

    def eval_node(self, node: FormulaNode) -> CellValue:
        kind = type(node)  # the commonest node types first
        if kind is CellRef:
            address = self.ref(node)
            value = self.cache.get(address)  # a cached value is read in place
            if value is None:
                value = self.cell_value(address)
            if isinstance(value, ErrorValue):
                return ErrorValue(ErrorKind.PROPAGATED, f"error propagated from {address}")
            return value
        if kind is Binary:
            left = self.eval_node(node.left)
            if isinstance(left, ErrorValue):
                return left
            right = self.eval_node(node.right)
            if isinstance(right, ErrorValue):
                return right
            return self._binary(node.op, left, right)
        if kind is NumberLit:
            return node.value
        if kind is Call:
            return self._call(node)
        if kind is PercentLit:
            return node.value / 100
        if kind is TextLit:
            return node.value
        if kind is RangeRef:
            ref = self.ref(node)
            return ErrorValue(
                ErrorKind.VALUE,
                f"range {ref.start.address}:{ref.end.address} used as a scalar",
            )
        if kind is Unary:
            value = self.eval_node(node.child)
            if isinstance(value, ErrorValue):
                return value
            if isinstance(value, float):
                return -value
            return ErrorValue(
                ErrorKind.VALUE, f"cannot negate a {_type_name(value)}"
            )
        if kind is EmptyArg:
            return ErrorValue(ErrorKind.ARGUMENT, "empty argument slot outside a call")
        raise TypeError(f"not a formula node: {node!r}")

    def _binary(self, op: str, left: CellValue, right: CellValue) -> CellValue:
        if op == "&":
            return format_value(left) + format_value(right)
        if op in _COMPARISONS:
            same_kind = (
                (isinstance(left, float) and isinstance(right, float))
                or (isinstance(left, str) and isinstance(right, str))
                or (isinstance(left, dt.date) and isinstance(right, dt.date))
            )
            if not same_kind:
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

    # function dispatch

    def _call(self, node: Call) -> CellValue:
        name = node.name.upper()
        spec = FUNCTION_CATALOG.get(name)
        if spec is None:
            return ErrorValue(ErrorKind.UNKNOWN_FUNCTION, f"unknown function {name}")
        args = node.args
        count = len(args)
        if count < spec.min_args or (spec.max_args is not None and count > spec.max_args):
            upper = "or more" if spec.max_args is None else f"to {spec.max_args}"
            return ErrorValue(
                ErrorKind.ARGUMENT,
                f"{name} takes {spec.min_args} {upper} arguments, got {count}",
            )
        values = []
        for index, pname, coerce, optional, default in spec.steps:
            if optional and (index >= count or isinstance(args[index], EmptyArg)):
                values.append(default)
                continue
            value = coerce(self, args, index, name, pname)
            if isinstance(value, ErrorValue):
                return value
            values.append(value)
        try:
            result = spec.compute(*values)
        except ValueError as exc:
            return ErrorValue(ErrorKind.ARGUMENT, f"{name}: {exc}")
        except OverflowError:
            result = math.inf
        except ZeroDivisionError:
            return ErrorValue(ErrorKind.DIV0, f"{name}: division by zero")
        if math.isfinite(result):
            return result
        return ErrorValue(ErrorKind.VALUE, f"{name}: numeric overflow")

    # argument coercion: each role's coercer (see _COERCERS) takes the call's
    # arguments, the parameter's index, the function name and the parameter
    # name, and returns the coerced value or an ErrorValue

    def scalar(self, node: FormulaNode, fname: str, param: str) -> CellValue:
        if isinstance(node, EmptyArg):
            return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: argument '{param}' is required")
        if isinstance(node, RangeRef):
            return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: '{param}' cannot be a range")
        return self.eval_node(node)

    def number(self, args: _Args, index: int, fname: str, param: str) -> float | ErrorValue:
        value = self.scalar(args[index], fname, param)
        if isinstance(value, (ErrorValue, float)):
            return value
        return ErrorValue(
            ErrorKind.ARGUMENT,
            f"{fname}: '{param}' must be a number, got {_type_name(value)}",
        )

    def integer(self, args: _Args, index: int, fname: str, param: str) -> int | ErrorValue:
        value = self.number(args, index, fname, param)
        if isinstance(value, ErrorValue):
            return value
        if not math.isfinite(value) or value != int(value):
            return ErrorValue(
                ErrorKind.ARGUMENT, f"{fname}: '{param}' must be an integer, got {value}"
            )
        return int(value)

    def date(self, args: _Args, index: int, fname: str, param: str) -> dt.date | ErrorValue:
        value = self.scalar(args[index], fname, param)
        if isinstance(value, (ErrorValue, dt.date)):
            return value
        return ErrorValue(
            ErrorKind.ARGUMENT,
            f"{fname}: '{param}' must be a date, got {_type_name(value)}",
        )

    def day_count(self, args: _Args, index: int, fname: str, param: str) -> DayCountBasis | ErrorValue:
        code = self.integer(args, index, fname, param)
        if isinstance(code, ErrorValue):
            return code
        if code not in BASIS_CODES:
            return ErrorValue(
                ErrorKind.ARGUMENT, f"{fname}: basis code must be 0..4, got {code}"
            )
        return BASIS_CODES[code]

    def values(self, args: _Args, index: int, fname: str, param: str) -> list[float] | ErrorValue:
        return self._numbers(args[index:], fname, strict=False)

    def strict_values(self, args: _Args, index: int, fname: str, param: str) -> list[float] | ErrorValue:
        return self._numbers(args[index:index + 1], fname, strict=True)

    def _numbers(self, nodes: _Args, fname: str, strict: bool, kind=float, noun="number") -> list | ErrorValue:
        """Collect values of kind from scalars and ranges, row-major within ranges.

        Range cells of another type are skipped unless strict, else named as
        not holding a noun.  A scalar must be a number.  A range of numbers
        whose every cell holds a float, as its literal or as a cached value,
        is taken whole, in C; any other range is read cell by cell, in order,
        so its cells are evaluated and its messages made as they would be one
        by one.
        """
        values: list = []
        for node in nodes:
            if isinstance(node, EmptyArg):
                return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: empty argument slot")
            if isinstance(node, RangeRef):
                addresses = self.sheet.range_addresses(self.ref(node))
                # a literal is read from its cell, so that the cache holds
                # only what was evaluated; None for a formula not yet evaluated
                cells = map(self.sheet.cells.__getitem__, addresses)
                literals = map(operator.attrgetter("literal"), cells)
                known = list(map(self.cache.get, addresses, literals))
                if kind is float and {*map(type, known)} <= {float}:
                    values += known
                    continue
                for address in addresses:
                    value = self.cell_value(address)
                    if isinstance(value, ErrorValue):
                        return ErrorValue(
                            ErrorKind.PROPAGATED,
                            f"{fname}: error propagated from {address}",
                        )
                    if isinstance(value, kind):
                        values.append(value)
                    elif strict:
                        return ErrorValue(
                            ErrorKind.ARGUMENT,
                            f"{fname}: {address} holds {_type_name(value)}, expected a {noun}",
                        )
                continue
            value = self.eval_node(node)
            if isinstance(value, ErrorValue):
                return value
            if not isinstance(value, float):
                return ErrorValue(
                    ErrorKind.ARGUMENT,
                    f"{fname}: values must be numbers, got {_type_name(value)}",
                )
            values.append(value)
        return values

    def dates(self, args: _Args, index: int, fname: str, param: str) -> list[dt.date] | ErrorValue:
        if isinstance(args[index], RangeRef):
            return self._numbers(args[index:index + 1], fname, True, kind=dt.date, noun="date")
        value = self.date(args, index, fname, param)
        if isinstance(value, ErrorValue):
            return value
        return [value]


# the catalog


class Role(Enum):
    """What a financial-function parameter means, after OASIS OpenFormula."""

    RATE = "rate"  # a fraction: 0.05 is 5%
    NUMBER = "number"
    INTEGER = "integer"
    DATE = "date"
    BASIS = "basis"  # day-count code 0..4, see BASIS_CODES
    METHOD = "method"  # DAYS360: 0 is US 30/360, anything else European 30/360
    VALUES = "values"  # every remaining argument; non-numbers in ranges are skipped
    STRICT_VALUES = "strict values"  # one scalar or range of numbers only
    DATES = "dates"  # a range of dates, or one date


_COERCERS = {
    Role.RATE: Evaluator.number,
    Role.NUMBER: Evaluator.number,
    Role.INTEGER: Evaluator.integer,
    Role.DATE: Evaluator.date,
    Role.BASIS: Evaluator.day_count,
    Role.METHOD: Evaluator.number,
    Role.VALUES: Evaluator.values,
    Role.STRICT_VALUES: Evaluator.strict_values,
    Role.DATES: Evaluator.dates,
}


@dataclass(frozen=True)
class Param:
    name: str
    role: Role
    optional: bool = False
    default: object = None  # the coerced value an omitted or empty slot takes


@dataclass
class _FunctionSpec:
    """One function: its parameters in call order, and the library function
    that receives their coerced values."""

    name: str
    params: tuple[Param, ...]
    compute: Callable[..., float]
    min_args: int = field(init=False)
    max_args: int | None = field(init=False)  # None = unlimited
    steps: tuple[tuple, ...] = field(init=False)

    def __post_init__(self):
        self.min_args = sum(not param.optional for param in self.params)
        variadic = self.params[-1].role is Role.VALUES
        self.max_args = None if variadic else len(self.params)
        # bound once here: looking roles up per call costs more than the coercion
        self.steps = tuple(
            (index, p.name, _COERCERS[p.role], p.optional, p.default)
            for index, p in enumerate(self.params)
        )


def _db(cost: float, salvage: float, life: int, period: int, month: int) -> float:
    spec = DepreciationSpec(cost, salvage, life, month)
    if salvage != 0.0:  # only a salvage of 0 warns
        return db_period(spec, period, PrecisionMode.COMPAT)
    # a formula reports a full write-off through its value alone; the filters
    # are process-wide and catch_warnings is not thread-safe, so they are
    # swapped only here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FullWriteOffWarning)
        return db_period(spec, period, PrecisionMode.COMPAT)


_RATE = Param("rate", Role.RATE)
_BASIS = Param("basis", Role.BASIS, optional=True, default=DayCountBasis.US_30_360)

FUNCTION_CATALOG = {
    spec.name: spec
    for spec in [
        _FunctionSpec("NPV", (_RATE, Param("values", Role.VALUES)), npv_legacy),
        _FunctionSpec(
            "XNPV",
            (_RATE, Param("values", Role.STRICT_VALUES), Param("dates", Role.DATES)),
            lambda rate, values, dates: xnpv(rate, CashFlowSeries(values, dates)),
        ),
        _FunctionSpec(
            "DB",
            (
                Param("cost", Role.NUMBER),
                Param("salvage", Role.NUMBER),
                Param("life", Role.INTEGER),
                Param("period", Role.INTEGER),
                Param("month", Role.INTEGER, optional=True, default=12),
            ),
            _db,
        ),
        _FunctionSpec(
            "SLN",
            (Param("cost", Role.NUMBER), Param("salvage", Role.NUMBER), Param("life", Role.INTEGER)),
            sln,
        ),
        _FunctionSpec(
            "EFFECT",
            (Param("nominal_rate", Role.RATE), Param("npery", Role.INTEGER)),
            effective_rate,
        ),
        _FunctionSpec(
            "NOMINAL",
            (Param("effective_rate", Role.RATE), Param("npery", Role.INTEGER)),
            nominal_rate,
        ),
        _FunctionSpec(
            "INTRATE",
            (
                Param("settlement", Role.DATE),
                Param("maturity", Role.DATE),
                Param("investment", Role.NUMBER),
                Param("redemption", Role.NUMBER),
                _BASIS,
            ),
            intrate,
        ),
        _FunctionSpec(
            "ACCRINT",
            (
                Param("issue", Role.DATE),
                Param("settlement", Role.DATE),
                _RATE,
                Param("par", Role.NUMBER),
                _BASIS,
            ),
            accrint,
        ),
        _FunctionSpec(
            "PMT", (_RATE, Param("nper", Role.INTEGER), Param("pv", Role.NUMBER)), pmt
        ),
        _FunctionSpec(
            "DAYS360",
            (
                Param("start_date", Role.DATE),
                Param("end_date", Role.DATE),
                Param("method", Role.METHOD, optional=True, default=0.0),
            ),
            lambda start, end, method: float(days_between(
                start, end, DayCountBasis.EUR_30_360 if method != 0.0 else DayCountBasis.US_30_360
            )),
        ),
        _FunctionSpec("SUM", (Param("values", Role.VALUES),), lambda values: float(sum(values))),
    ]
}


def evaluate(node: FormulaNode, sheet: Sheet) -> CellValue:
    """Evaluate a parsed formula against a sheet; total, never raises."""
    return Evaluator(sheet).eval_node(node)
