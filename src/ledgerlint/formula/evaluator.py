"""Formula evaluation over a sheet: reference resolution, cycle detection,
operator semantics, and dispatch into the financial function catalog.

One loop evaluates, with no recursion from cell to cell.  evaluate_all
visits the cells row-major.  A formula reads each reference from the value
cache, and a read of a formula not yet evaluated aborts the reading formula
(_Miss): the loop pushes the missed cell on an explicit stack (self.stack),
evaluates it, and evaluates the reader again once that cell is cached.  A miss
inside a range read hands the loop the rest of the range with the read's
stop rule (_Rest), so a range of n formulas costs one more run of its reader,
not n.  A read from outside any formula (the audit's checks, Sheet.value,
evaluate) runs the loop on the formula it misses, in place.  So formulas are
first evaluated in the order that evaluating each one where it is read would
give, and a read of a cell on the stack is a cycle: only the cells on it are
CYCLE, each with its 'A1 -> B1 -> A1' path.

A cell with a shape (shapes.Shape) runs the shape's kernel: a
closure per template node, built on the shape's first evaluation, that reads
each reference from the cell's own text by its slot (Shape.refs), as the text
writes it.  evaluate_all calls a kernel itself, and _settle through _value.
The catalog lookup, the arity check and the argument errors of EmptyArg and
RangeRef nodes are decided when the kernel is built, and so is the value of
a subtree with no slot; a step that collects values (NPV's, SUM's) runs
Evaluator._numbers over the template's arguments.  A SlotShape's numbers and
strings are slots too, read from the cell's text like its references.  Any
other formula is its own tree, walked by eval_node.  eval_node and the readers
under it, the audit's checks too, take the cell a template is read for as an
argument, at = (Shape.refs(text), Shape.slots), or None for an own tree (see
ref and literal).  Both share the value-level rules below (operators,
negation, argument checks, range reads), so each is stated once.  _binary
tries its commonest case first, + - * / on two floats, and leaves a zero
divisor, a result that is not finite and every other operator or operand to
the case that states its rule.
Evaluator.argument gives what a call passes for one parameter, as
FUNCTION_CATALOG reads it: the evaluator's own calls read their arguments
through its _pass, and the audit a formula's own tree through it.  For a
template, argument_readers gives the audit those parameters' steps of the
call's kernel, built by the same _step_kernels.

Evaluation is total: every failure becomes an ErrorValue, never an exception.
Errors reached through a cell reference surface as PROPAGATED at the
referring cell; only the cells actually on a reference cycle are CYCLE.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
import warnings
from collections.abc import Callable, Sequence
from enum import Enum

from ..cashflow import CashFlowSeries, npv_legacy, pmt, xnpv
from ..daycount import DayCountBasis, days_between
from ..depreciation import DepreciationSpec, FullWriteOffWarning, PrecisionMode, db_period, sln
from ..rates import accrint, effective_rate, intrate, nominal_rate
from ..record import Record, _set
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
from .parser import unquote
from .shapes import Shape, cell_ref
from .sheet import Cell, CellValue, ErrorKind, ErrorValue, Sheet, format_value

__all__ = ["evaluate", "Evaluator", "FUNCTION_CATALOG", "BASIS_CODES", "Param", "Role", "literal"]

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
_Kernel = Callable[["Evaluator", list], CellValue]  # (evaluator, Shape.refs(text)) -> value
_At = tuple[list[str], dict[int, int]] | None  # (Shape.refs(text), Shape.slots), None for an own tree


# value-level rules, shared by eval_node and the kernels


def _address(ref: str) -> str:
    """The address a reference as written names ('$b$5' is B5); the row has no leading 0."""
    return ref.replace("$", "").upper()


def _range_at(refs: list[str], slot: int) -> RangeRef:
    """The range whose corners are refs[slot] and refs[slot + 1]; the
    constructor normalizes a reversed range as parse() does."""
    return RangeRef(cell_ref(refs[slot]), cell_ref(refs[slot + 1]))


def ref(node: CellRef | RangeRef, at: _At) -> str | RangeRef:
    """What node, a reference of a tree, reads: a CellRef's address, or a RangeRef.
    at is None for an own tree, or (refs, slots) for a template read for a cell."""
    if at is None:
        return node.address if type(node) is CellRef else node
    refs, slots = at
    slot = slots[id(node)]
    return _address(refs[slot]) if type(node) is CellRef else _range_at(refs, slot)


def literal(node: NumberLit | PercentLit | TextLit, at: _At) -> float | str:
    """What node, a number or string of a tree, reads: its value, or the token
    of the cell's text at its slot when at reads a SlotShape's template for a
    cell (see ref).  A PercentLit reads the number before its '%'."""
    slot = None if at is None else at[1].get(id(node))
    if slot is None:
        return node.value
    token = at[0][slot]
    return unquote(token) if type(node) is TextLit else float(token)


def _propagated(address: str) -> ErrorValue:
    return ErrorValue(ErrorKind.PROPAGATED, f"error propagated from {address}")


def _scalar_range(ref: RangeRef) -> ErrorValue:
    return ErrorValue(
        ErrorKind.VALUE, f"range {ref.start.address}:{ref.end.address} used as a scalar"
    )


def _negate(value: CellValue) -> CellValue:
    if isinstance(value, ErrorValue):
        return value
    if isinstance(value, float):
        return -value
    return ErrorValue(ErrorKind.VALUE, f"cannot negate a {_type_name(value)}")


_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _binary(op: str, left: CellValue, right: CellValue) -> CellValue:
    """op over the values of its two operands, neither an error."""
    # the commonest case first: + - * / on two floats, a divisor of 0.0 or
    # -0.0 aside (both are false); every other case takes its branch below
    if left.__class__ is float and right.__class__ is float and op in _ARITHMETIC and (right or op != "/"):
        result = _ARITHMETIC[op](left, right)
    elif op == "&":
        return format_value(left) + format_value(right)
    elif op in _COMPARISONS:
        # every operand here is exactly a float, a date or a str
        if type(left) is not type(right):
            return ErrorValue(
                ErrorKind.VALUE,
                f"cannot compare {_type_name(left)} with {_type_name(right)}",
            )
        return 1.0 if _COMPARISONS[op](left, right) else 0.0
    elif op == "-" and isinstance(left, dt.date) and isinstance(right, dt.date):
        return float((left - right).days)
    elif not (isinstance(left, float) and isinstance(right, float)):
        return ErrorValue(
            ErrorKind.VALUE,
            f"cannot apply {op!r} to {_type_name(left)} and {_type_name(right)}",
        )
    elif op == "/" and right == 0.0:
        return ErrorValue(ErrorKind.DIV0, "division by zero")
    elif op == "^":
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
    else:
        raise ValueError(f"unknown operator {op!r}")
    if math.isfinite(result):
        return result
    return ErrorValue(ErrorKind.VALUE, f"numeric overflow in {op!r}")


# argument checks: each takes the value of a scalar argument, the function
# name and the parameter name, and returns the checked value or an ErrorValue


def _argument_error(node: EmptyArg | RangeRef, fname: str, param: str) -> ErrorValue:
    """The error of a scalar parameter given an empty slot or a range."""
    if type(node) is EmptyArg:
        return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: argument '{param}' is required")
    return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: '{param}' cannot be a range")


def _as_number(value: CellValue, fname: str, param: str) -> float | ErrorValue:
    if isinstance(value, (ErrorValue, float)):
        return value
    return ErrorValue(
        ErrorKind.ARGUMENT, f"{fname}: '{param}' must be a number, got {_type_name(value)}"
    )


def _as_integer(value: CellValue, fname: str, param: str) -> int | ErrorValue:
    value = _as_number(value, fname, param)
    if isinstance(value, ErrorValue):
        return value
    if not math.isfinite(value) or value != int(value):
        return ErrorValue(
            ErrorKind.ARGUMENT, f"{fname}: '{param}' must be an integer, got {value}"
        )
    return int(value)


def _as_date(value: CellValue, fname: str, param: str) -> dt.date | ErrorValue:
    if isinstance(value, (ErrorValue, dt.date)):
        return value
    return ErrorValue(
        ErrorKind.ARGUMENT, f"{fname}: '{param}' must be a date, got {_type_name(value)}"
    )


def _as_dates(value: CellValue, fname: str, param: str) -> list[dt.date] | ErrorValue:
    value = _as_date(value, fname, param)
    return value if isinstance(value, ErrorValue) else [value]


def _as_basis(value: CellValue, fname: str, param: str) -> DayCountBasis | ErrorValue:
    code = _as_integer(value, fname, param)
    if isinstance(code, ErrorValue):
        return code
    if code not in BASIS_CODES:
        return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: basis code must be 0..4, got {code}")
    return BASIS_CODES[code]


# evaluation by an explicit stack


class _Miss(Exception):
    """A formula's read of a formula not yet evaluated: args[0] is its
    address, or the _Rest of the range read that met it."""


class _Rest:
    """The rest of a range read that missed: addresses[at:] are read in
    order, each formula among them evaluated first, until one stops the read
    (an error, or, when strict, a value not of kind)."""

    __slots__ = ("addresses", "at", "strict", "kind")

    def __init__(self, addresses: list[str], at: int, strict: bool, kind: type) -> None:
        self.addresses, self.at, self.strict, self.kind = addresses, at, strict, kind


class Evaluator:
    def __init__(self, sheet: Sheet):
        self.sheet = sheet
        self.cache = sheet._values
        self.stack: dict[str, None] = {}  # addresses being evaluated, in call order
        self._evaluating = False  # a cell's formula runs: a miss aborts it

    def evaluate_all(self) -> dict[str, CellValue]:
        """Evaluate every populated cell, row-major; returns address -> value."""
        cache, cells = self.cache, self.sheet.cells
        self._evaluating = True
        try:
            for address, cell in cells.items():
                if address in cache:
                    continue
                source = cell.source
                try:
                    if source is None:
                        cache[address] = self._value(cell)
                    else:  # a shared shape's kernel, called here as _value would
                        shape = cell.shape
                        cache[address] = (shape.kernel or _build_kernel(shape))(self, shape.refs(source))
                except _Miss:  # evaluated again, on the stack
                    self._settle(address)
        finally:
            self._evaluating = False
        return dict(zip(cells, map(cache.__getitem__, cells)))

    # the explicit stack

    def cell_value(self, address: str) -> CellValue:
        """The value of the cell at address.  A formula not yet evaluated is a
        cycle when on the stack; else a formula's read of it is a miss
        (_Miss), and a read from outside any formula evaluates it in place."""
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
        if self._evaluating:
            raise _Miss(address)
        self._settle(address)
        return self.cache[address]

    def _settle(self, address: str) -> None:
        """Evaluate the formula at address by an explicit stack: a formula
        that misses stays on it, below what it missed, and is evaluated again
        once that is cached."""
        cache, cells, stack = self.cache, self.sheet.cells, self.stack
        outer = self._evaluating
        self._evaluating = True
        todo: list[str | _Rest] = [address]
        stack[address] = None
        try:
            while todo:
                item = todo[-1]
                try:
                    if type(item) is _Rest:
                        self._read_rest(item)
                    else:
                        if item not in cache:  # else marked as a cycle member meanwhile
                            value = self._value(cells[item])
                            cache.setdefault(item, value)  # a mark made while it ran stands
                        del stack[item]
                except _Miss as miss:
                    item = miss.args[0]
                    if type(item) is str:
                        stack[item] = None
                    todo.append(item)
                else:
                    todo.pop()
        finally:
            self._evaluating = outer
            stack.clear()  # the loop starts only on an empty stack

    def _read_rest(self, rest: _Rest) -> None:
        addresses, strict, kind = rest.addresses, rest.strict, rest.kind
        while rest.at < len(addresses):
            value = self.cell_value(addresses[rest.at])
            if isinstance(value, ErrorValue) or (strict and not isinstance(value, kind)):
                return
            rest.at += 1

    def _value(self, cell: Cell) -> CellValue:
        """cell's value, reading only what is cached; raises _Miss otherwise."""
        source = cell.source
        if source is not None:
            shape = cell.shape
            return (shape.kernel or _build_kernel(shape))(self, shape.refs(source))
        if cell.error is not None:
            return cell.error
        formula = cell.formula
        if formula is None:
            return cell.literal
        return self.eval_node(formula)

    # a tree: a formula's own, or a template read for a cell

    def eval_node(self, node: FormulaNode, at: _At = None) -> CellValue:
        """The value of node, of a formula's own tree (at None) or of a
        template read for the cell that at gives (see ref)."""
        kind = type(node)  # the commonest node types first
        if kind is CellRef:
            address = node.address if at is None else ref(node, at)
            value = self.cache.get(address)  # a cached value is read in place
            if value is None:
                value = self.cell_value(address)
            if isinstance(value, ErrorValue):
                return _propagated(address)
            return value
        if kind is Binary:
            left = self.eval_node(node.left, at)
            if isinstance(left, ErrorValue):
                return left
            right = self.eval_node(node.right, at)
            if isinstance(right, ErrorValue):
                return right
            return _binary(node.op, left, right)
        if kind is NumberLit:
            return node.value if at is None or id(node) not in at[1] else literal(node, at)
        if kind is Call:
            return self._call(node, at)
        if kind is PercentLit:
            return literal(node, at) / 100
        if kind is TextLit:
            return literal(node, at)
        if kind is RangeRef:
            return _scalar_range(ref(node, at))
        if kind is Unary:
            return _negate(self.eval_node(node.child, at))
        if kind is EmptyArg:
            return ErrorValue(ErrorKind.ARGUMENT, "empty argument slot outside a call")
        raise TypeError(f"not a formula node: {node!r}")

    def _call(self, node: Call, at: _At) -> CellValue:
        name = node.name.upper()
        spec = _function(name, len(node.args))
        if isinstance(spec, ErrorValue):
            return spec
        values = []
        for step in spec.steps:
            value = self._pass(step, node.args, name, at)
            if isinstance(value, ErrorValue):
                return value
            values.append(value)
        return spec.apply(values)

    def argument(self, node: Call, index: int, at: _At = None) -> object:
        """What the call node passes for its parameter at index (see
        FUNCTION_CATALOG): the parameter's default when the argument is
        omitted, the argument's value after the check of the parameter's role,
        or the ErrorValue that stops the call there, an unknown function or a
        wrong number of arguments included; at as for eval_node."""
        name = node.name.upper()
        spec = _function(name, len(node.args))
        if isinstance(spec, ErrorValue):
            return spec
        return self._pass(spec.steps[index], node.args, name, at)

    def _pass(self, step: tuple, args: _Args, fname: str, at: _At) -> object:
        """What a call passes for the parameter of step (see argument)."""
        how, reads, check = _argument(step, args, fname)
        if how is _DEFAULT:
            return reads
        if how is _COLLECT:
            return self._numbers(*reads, at)
        return check(self.eval_node(reads, at), fname, step[1])

    def _numbers(self, nodes: _Args, fname: str, strict: bool, kind=float, noun="number", at=None) -> list | ErrorValue:
        """Collect values of kind from scalars and ranges, row-major within
        ranges (see _range); a scalar must be a number.  at as for eval_node."""
        values: list = []
        for node in nodes:
            if type(node) is EmptyArg:
                return ErrorValue(ErrorKind.ARGUMENT, f"{fname}: empty argument slot")
            if type(node) is RangeRef:
                error = self._range(ref(node, at), values, fname, strict, kind, noun)
                if error is not None:
                    return error
                continue
            value = self.eval_node(node, at)
            if isinstance(value, ErrorValue):
                return value
            if not isinstance(value, float):
                return ErrorValue(
                    ErrorKind.ARGUMENT, f"{fname}: values must be numbers, got {_type_name(value)}"
                )
            values.append(value)
        return values

    def _range(self, ref: RangeRef, values: list, fname: str, strict: bool, kind: type, noun: str) -> ErrorValue | None:
        """Append the values of kind in ref, or return the error that stops the read.

        Cells of another type are skipped unless strict, else named as not
        holding a noun.  A range of numbers whose every cell holds a float, as
        its literal or as a cached value, is taken whole, in C; any other
        range is read cell by cell, in order, so its messages are made as
        they would be one by one.  A formula not yet evaluated stops the read
        with the rest of the range for the loop (_Rest).
        """
        addresses = self.sheet.range_addresses(ref)
        # a literal is read from its cell, so that the cache holds only what
        # was evaluated; None for a formula not yet evaluated
        cells = map(self.sheet.cells.__getitem__, addresses)
        literals = map(operator.attrgetter("literal"), cells)
        known = list(map(self.cache.get, addresses, literals))
        if kind is float and {*map(type, known)} <= {float}:
            values += known
            return None
        for at, address in enumerate(addresses):
            try:
                value = self.cell_value(address)
            except _Miss:
                raise _Miss(_Rest(addresses, at, strict, kind)) from None
            if isinstance(value, ErrorValue):
                return ErrorValue(
                    ErrorKind.PROPAGATED, f"{fname}: error propagated from {address}"
                )
            if isinstance(value, kind):
                values.append(value)
            elif strict:
                return ErrorValue(
                    ErrorKind.ARGUMENT,
                    f"{fname}: {address} holds {_type_name(value)}, expected a {noun}",
                )
        return None


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


# How each role reads its argument: the check a scalar argument's value goes
# through, and for a role that collects values (_numbers) whether it reads one
# argument or every remaining one, strict, kind and noun.  DATES collects from
# a range and checks a scalar.
_CHECKS = {
    Role.RATE: _as_number,
    Role.NUMBER: _as_number,
    Role.INTEGER: _as_integer,
    Role.DATE: _as_date,
    Role.BASIS: _as_basis,
    Role.METHOD: _as_number,
    Role.DATES: _as_dates,
}
_COLLECTS = {
    Role.VALUES: (False, False, float, "number"),
    Role.STRICT_VALUES: (True, True, float, "number"),
    Role.DATES: (True, True, dt.date, "date"),
}


class Param(Record):
    """default is the coerced value an omitted or empty slot takes."""

    __slots__ = _fields = ("name", "role", "optional", "default")
    _defaults = (False, None)


class _FunctionSpec(Record):
    """One function: its parameters in call order, and the library function
    that receives their coerced values.  min_args, max_args (None =
    unlimited) and steps follow from params."""

    __slots__ = _fields = ("name", "params", "compute", "min_args", "max_args", "steps")
    __hash__ = None  # a catalog entry is looked up by name, never hashed

    def __init__(self, name: str, params: tuple[Param, ...], compute: Callable[..., float]) -> None:
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "compute", compute)
        _set(self, "min_args", sum(not param.optional for param in params))
        variadic = params[-1].role is Role.VALUES
        _set(self, "max_args", None if variadic else len(params))
        # bound once here: looking roles up per call costs more than the coercion
        _set(self, "steps", tuple(
            (index, p.name, _CHECKS.get(p.role), _COLLECTS.get(p.role), p.optional, p.default)
            for index, p in enumerate(params)
        ))

    def __reduce__(self) -> tuple:
        return _FunctionSpec, (self.name, self.params, self.compute)

    def apply(self, values: list) -> CellValue:
        """compute over the coerced values, its failures as ErrorValues."""
        try:
            result = self.compute(*values)
        except ValueError as exc:
            return ErrorValue(ErrorKind.ARGUMENT, f"{self.name}: {exc}")
        except OverflowError:
            result = math.inf
        except ZeroDivisionError:
            return ErrorValue(ErrorKind.DIV0, f"{self.name}: division by zero")
        if math.isfinite(result):
            return result
        return ErrorValue(ErrorKind.VALUE, f"{self.name}: numeric overflow")


def _function(name: str, count: int) -> _FunctionSpec | ErrorValue:
    """The catalog's function name, called with count arguments, or why it cannot be."""
    spec = FUNCTION_CATALOG.get(name)
    if spec is None:
        return ErrorValue(ErrorKind.UNKNOWN_FUNCTION, f"unknown function {name}")
    if count < spec.min_args or (spec.max_args is not None and count > spec.max_args):
        upper = "or more" if spec.max_args is None else f"to {spec.max_args}"
        return ErrorValue(
            ErrorKind.ARGUMENT, f"{name} takes {spec.min_args} {upper} arguments, got {count}"
        )
    return spec


_DEFAULT, _COLLECT, _CHECK = "default", "collect", "check"


def _argument(step: tuple, args: _Args, fname: str) -> tuple:
    """How a call reads one parameter, decided by its step and the argument
    nodes alone: (_DEFAULT, value, None) for an omitted optional one or an
    argument error, (_COLLECT, _numbers's arguments, None), or (_CHECK, node,
    check) for one scalar argument."""
    index, param, check, collect, optional, default = step
    if optional and (index >= len(args) or type(args[index]) is EmptyArg):
        return _DEFAULT, default, None
    node = args[index]
    if collect is not None and (check is None or type(node) is RangeRef):
        one, strict, kind, noun = collect
        nodes = args[index:index + 1] if one else args[index:]
        return _COLLECT, (nodes, fname, strict, kind, noun), None
    if type(node) is EmptyArg or type(node) is RangeRef:
        return _DEFAULT, _argument_error(node, fname, param), None
    return _CHECK, node, check


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


# kernels


def _build_kernel(shape: Shape) -> _Kernel:
    """Compile shape's template once and keep the kernel on the shape."""
    shape.kernel = kernel = _compile(shape.template, shape.slots)
    return kernel


def _has_slot(node: FormulaNode, slots: dict[int, int]) -> bool:
    """Whether node is or holds a slot of its template: a reference, or a
    number or string of a SlotShape's."""
    if id(node) in slots:
        return True
    kind = type(node)
    if kind is Unary:
        return _has_slot(node.child, slots)
    if kind is Binary:
        return _has_slot(node.left, slots) or _has_slot(node.right, slots)
    if kind is Call:
        return any(_has_slot(arg, slots) for arg in node.args)
    return False


def _constant(value: CellValue) -> _Kernel:
    return lambda ev, refs: value


def _compile(node: FormulaNode, slots: dict[int, int]) -> _Kernel:
    """node of a template as a function of (evaluator, tokens of a cell's text)."""
    if not _has_slot(node, slots):  # its value is the same for every cell: take it now
        return _constant(Evaluator(Sheet(())).eval_node(node))
    kind = type(node)
    if kind is CellRef:
        return _cell_kernel(slots[id(node)])
    if kind is Binary:
        return _binary_kernel(_compile(node.left, slots), _compile(node.right, slots), node.op)
    if kind is Call:
        return _call_kernel(node, slots)
    if kind is RangeRef:
        slot = slots[id(node)]
        return lambda ev, refs: _scalar_range(_range_at(refs, slot))
    if kind is Unary:
        child = _compile(node.child, slots)
        return lambda ev, refs: _negate(child(ev, refs))
    slot = slots[id(node)]  # a number or string of the cell's own text
    if kind is TextLit:
        return lambda ev, refs: unquote(refs[slot])
    scale = 100.0 if kind is PercentLit else 1.0
    return lambda ev, refs: float(refs[slot]) / scale


def _cell_kernel(slot: int) -> _Kernel:
    def read(ev: Evaluator, refs: list[str]) -> CellValue:
        ref = refs[slot]
        value = ev.cache.get(ref)  # a reference written as its address hits as it is
        if value is None:
            ref = _address(ref)
            value = ev.cell_value(ref)
        if isinstance(value, ErrorValue):
            return _propagated(ref)
        return value

    return read


def _binary_kernel(left: _Kernel, right: _Kernel, op: str) -> _Kernel:
    def binary(ev: Evaluator, refs: list[str]) -> CellValue:
        value = left(ev, refs)
        if isinstance(value, ErrorValue):
            return value
        other = right(ev, refs)
        if isinstance(other, ErrorValue):
            return other
        return _binary(op, value, other)

    return binary


def _call_kernel(node: Call, slots: dict[int, int]) -> _Kernel:
    steps = _step_kernels(node, slots)
    if isinstance(steps, ErrorValue):
        return _constant(steps)
    apply = FUNCTION_CATALOG[node.name.upper()].apply

    def call(ev: Evaluator, refs: list[str]) -> CellValue:
        values = []
        for step in steps:
            value = step(ev, refs)
            if isinstance(value, ErrorValue):
                return value
            values.append(value)
        return apply(values)

    return call


def _step_kernels(
    node: Call, slots: dict[int, int], indices: Sequence[int] | None = None
) -> list[_Kernel] | ErrorValue:
    """What the call node of a template passes for each of its parameters, in
    call order, or for those at indices, as a kernel (see Evaluator.argument),
    or the ErrorValue of a call that cannot be made: the catalog lookup and
    each argument's decision are made here, once."""
    name = node.name.upper()
    spec = _function(name, len(node.args))
    if isinstance(spec, ErrorValue):
        return spec
    steps = []
    for step in spec.steps if indices is None else [spec.steps[index] for index in indices]:
        how, reads, check = _argument(step, node.args, name)
        if how is _DEFAULT:
            steps.append(_constant(reads))
        elif how is _COLLECT:
            steps.append(_collect_kernel(reads, slots))
        else:
            steps.append(_check_kernel(_compile(reads, slots), check, name, step[1]))
    return steps


def argument_readers(node: Call, indices: Sequence[int], slots: dict[int, int]) -> list[_Kernel]:
    """Evaluator.argument(node, index, at) for each of indices, of the call
    node of a template, as a function of (evaluator, at[0]) for the template's
    slots: built once per template, so that a read pays no catalog lookup and
    no argument decision."""
    steps = _step_kernels(node, slots, indices)
    return [_constant(steps)] * len(indices) if isinstance(steps, ErrorValue) else steps


def _check_kernel(operand: _Kernel, check: Callable, fname: str, param: str) -> _Kernel:
    return lambda ev, refs: check(operand(ev, refs), fname, param)


def _collect_kernel(reads: tuple, slots: dict[int, int]) -> _Kernel:
    """Evaluator._numbers over a template's arguments, read for the cell of refs."""
    return lambda ev, refs: ev._numbers(*reads, (refs, slots))


def evaluate(node: FormulaNode, sheet: Sheet) -> CellValue:
    """Evaluate a parsed formula against a sheet; total, never raises."""
    return Evaluator(sheet).eval_node(node)
