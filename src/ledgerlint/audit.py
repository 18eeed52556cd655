"""Misuse detection over evaluated workbooks.

Each rule declares the function names or operators it inspects; one walk per
shape (shapes.Shape) finds those nodes of its template and keeps them in the
shape's plan, with what the template alone decides.  A rule's gate reads only
the node (R1's call form, R8's '-' over a literal 360) and leaves out of the
plan a node it rules out; a per_shape check reads only the node too (R2, R6,
R7), and its finding is made there, once for every formula of the shape.
Other checks run per cell on the plan's node, read for the cell (at, see
evaluator.ref and literal) by the audit's one evaluator, so that the node's
references, numbers and values are the cell's own and no cell's tree is
built; on a SlotShape, whose numbers are the cell's, a gate tests only the
node's form, and every check runs per cell.  A check returns what it found,
a message and its evidence; run_rules alone turns that into a Finding, with
the rule's id, its configured severity and the cell.  R3, R4 and R5 get a
call's arguments, named by FUNCTION_CATALOG, as the call would get them,
read by run_rules through readers the plan keeps, built by the evaluator's own
kernel steps (evaluator.argument_readers), so a check pays no catalog lookup;
where one is an error the call itself fails, and no check runs.  Checks are
stateless, skip anything they cannot interpret, and never abort an audit.  R0
inspects no node: it reports each formula that could not be parsed, which no
other rule can read.
"""

from __future__ import annotations

import datetime as dt
import os
import sys
from collections.abc import Mapping
from enum import Enum

from .daycount import format_number, year_fraction
from .formula import Binary, Call, CellRef, EmptyArg, FormulaNode, NumberLit, RangeRef, Sheet, Unary
from .formula.shapes import Shape
from .formula.evaluator import FUNCTION_CATALOG, Evaluator, Role, argument_readers, literal, ref
from .formula.sheet import ErrorValue, format_value
from .record import Record, _set

__all__ = [
    "RULE_IDS",
    "Severity",
    "Finding",
    "RuleConfig",
    "run_rules",
    "explain_rule",
    "render_text",
    "to_record",
]


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


Evidence = tuple[tuple[str, str], ...]  # (cell address, value as printed) pairs


class Finding(Record):
    __slots__ = _fields = ("rule_id", "severity", "cell", "message", "evidence")
    _defaults = ((),)


def _positions(*roles: Role) -> dict[str, int]:
    """Function name -> index of its parameter in one of roles, from the catalog."""
    return {
        name: index
        for name, spec in FUNCTION_CATALOG.items()
        for index, param in enumerate(spec.params)
        if param.role in roles
    }


def _indices(function: str, *names: str) -> tuple[int, ...]:
    """The positions of function's parameters named names, from the catalog."""
    params = [param.name for param in FUNCTION_CATALOG[function].params]
    return tuple(map(params.index, names))


# which argument of a call is a rate, and which sets the day-count convention
RATE_POSITIONS = _positions(Role.RATE)
BASIS_POSITIONS = _positions(Role.BASIS, Role.METHOD)
# the parameters R3 and R4 read
_SETTLEMENT, _MATURITY, _INTRATE_BASIS = _indices("INTRATE", "settlement", "maturity", "basis")
[_MONTH] = _indices("DB", "month")


_BRANCHES = frozenset({Call, Binary, Unary})  # the nodes that have children


def _trigger_nodes(formula: FormulaNode) -> list[tuple[str, FormulaNode, bool]]:
    """Pre-order (key, node, additive) for nodes whose call name or operator is
    a rule trigger; additive is set when a '+' or '-' Binary sits above the node."""
    found: list[tuple[str, FormulaNode, bool]] = []
    if type(formula) in _BRANCHES:
        _visit(formula, False, found)
    return found


def _visit(node: FormulaNode, additive: bool, found: list) -> None:
    kind = type(node)
    if kind is Call:
        if node.name in _TRIGGER_KEYS:
            found.append((node.name, node, additive))
        children = node.args
    elif kind is Binary:
        if node.op in _TRIGGER_KEYS:
            found.append((node.op, node, additive))
        additive = additive or node.op in ("+", "-")
        children = (node.left, node.right)
    else:
        children = (node.child,)
    for child in children:
        if type(child) in _BRANCHES:
            _visit(child, additive, found)


def _ref_evidence(values: Evaluator, at, *nodes: FormulaNode) -> Evidence:
    addresses = [ref(node, at) for node in nodes if isinstance(node, CellRef)]
    return tuple((address, format_value(values.cell_value(address))) for address in addresses)


def _rule_r0(error: ErrorValue, values: Evaluator, threshold: None, at=None):
    return f"formula could not be parsed: {error.message}; no rule checked it", ()


def _gate_r1(node: Call, additive: bool, literals: bool) -> bool:
    # under '+'/'-' a separate additive term holds the period-0 flow
    return not additive and len(node.args) >= 2 and isinstance(node.args[1], RangeRef)


def _rule_r1(node: Call, values: Evaluator, threshold: None, at=None):
    values_arg = ref(node.args[1], at)
    for address in values.sheet.range_addresses(values_arg):
        first = values.cell_value(address)
        if isinstance(first, float):
            break
    else:
        return None
    if first >= 0.0:
        return None
    source = f"{values_arg.start.address}:{values_arg.end.address}"
    return (
        f"NPV range {source} starts with the negative value "
        f"{format_number(first)}; NPV discounts every argument by one "
        "period, so an initial investment fed into the call is discounted "
        "too - keep the period-0 flow outside: value0 + NPV(rate, later "
        "flows)",
        ((address, format_value(first)),),
    )


def _rule_r2(node: Call, values: Evaluator, threshold: None, at=None):
    if not node.args:
        return None
    rate_arg = node.args[RATE_POSITIONS[node.name]]
    if not (
        isinstance(rate_arg, Binary)
        and rate_arg.op == "/"
        and isinstance(rate_arg.right, NumberLit)
        and literal(rate_arg.right, at) == 12.0
    ):
        return None
    return (
        f"rate argument of {node.name} is written as X/12; dividing an "
        "annual rate by 12 is only right for nominal quotes - for an "
        "effective annual rate convert with NOMINAL(rate,12)/12 or "
        "(1+rate)^(1/12)-1",
        (),
    )


def _rule_r3(node: Call, values: Evaluator, threshold: float, at, settlement, maturity, basis):
    try:
        span = year_fraction(settlement, maturity, basis)
    except ValueError:
        return None
    if span <= threshold:
        return None
    return (
        f"INTRATE spans {span:.2f} years; it computes simple interest "
        "only, so over multi-year spans it is not the compound "
        "equivalent yield",
        _ref_evidence(values, at, node.args[_SETTLEMENT], node.args[_MATURITY]),
    )


def _rule_r4(node: Call, values: Evaluator, threshold: None, at, month):
    if not 1 <= month < 12:  # an integer, 12 when omitted; DB itself fails outside 1..12
        return None
    return (
        f"DB with month={format_number(month)} takes a partial first year; "
        "the schedule needs an extra final period (life+1 rows) or total "
        "depreciation will not reconcile with cost minus salvage",
        _ref_evidence(values, at, node.args[_MONTH]),
    )


def _rule_r5(node: Call, values: Evaluator, threshold: float, at, rate):
    if not rate >= threshold:  # a nan rate skips too
        return None
    return (
        f"rate argument of {node.name} resolves to {format_number(rate)}; "
        "rates are fractions, so this reads as "
        f"{format_number(rate * 100)}% - a percentage was probably entered "
        "at a hundred times the value intended",
        _ref_evidence(values, at, node.args[RATE_POSITIONS[node.name]]),
    )


def _rule_r6(node: Binary, values: Evaluator, threshold: None, at=None):
    inner = node.left
    if not (isinstance(inner, Binary) and inner.op == "/"):
        return None
    parts = (inner.left, inner.right, node.right)
    if not all(isinstance(p, NumberLit) for p in parts):
        return None
    day, month, year = (literal(p, at) for p in parts)
    if any(v != int(v) for v in (day, month, year)):
        return None
    if not (1 <= day <= 31 and 1 <= month <= 12 and (0 <= year <= 99 or 1900 <= year <= 2199)):
        return None
    chain = f"{format_number(day)}/{format_number(month)}/{format_number(year)}"
    return (
        f"{chain} is a division chain evaluating to {format_value(values.eval_node(node, at))}, "
        "not a date; dates typed into formulas become arithmetic - put an "
        "ISO date (YYYY-MM-DD) in a cell and reference it",
        (),
    )


def _rule_r7(node: Call, values: Evaluator, threshold: None, at=None):
    index = BASIS_POSITIONS[node.name]
    if len(node.args) > index and not isinstance(node.args[index], EmptyArg):
        return None
    parameter = FUNCTION_CATALOG[node.name].params[index].name
    return (
        f"{node.name} call omits the {parameter} argument, silently "
        "defaulting to US (NASD) 30/360; state the day-count convention "
        "explicitly if European 30/360 or actual-day counting was meant",
        (),
    )


def _gate_r8(node: Binary, additive: bool, literals: bool) -> bool:
    # a literal 360 over a '-': on a SlotShape the divisor is the cell's, so any number
    numerator = node.left
    return (
        isinstance(node.right, NumberLit)
        and (literals or node.right.value == 360.0)
        and isinstance(numerator, Binary)
        and numerator.op == "-"
    )


def _rule_r8(node: Binary, values: Evaluator, threshold: None, at=None):
    if literal(node.right, at) != 360.0:  # a SlotShape's divisor, read for the cell
        return None
    numerator = node.left
    dates = [values.eval_node(side, at) for side in (numerator.left, numerator.right)]
    if not all(isinstance(date, dt.date) for date in dates):
        return None
    return (
        "actual-day difference divided by a literal 360 mixes conventions; "
        "a full year counts about 365/360 = 1.4% extra interest, a known "
        "revenue-inflating pattern - divide by 365 or use one basis "
        "throughout",
        _ref_evidence(values, at, numerator.left, numerator.right),
    )


class _RuleSpec(Record):
    """check(node, values, threshold, at=None, *arguments) gets each node whose
    call name or operator is in triggers and that gate, when set, lets through,
    the sheet's one Evaluator, RuleConfig.threshold (threshold here unless
    configured, None for a rule without one), at (evaluator.ref) and, for a
    rule with arguments, what the call passes for its parameters at
    arguments[node.name], as Evaluator.argument gives them, none of them an
    ErrorValue.  It returns (message, evidence), evidence () when it has none,
    or None; run_rules builds the Finding.  R0 has no triggers: its check gets
    each PARSE cell's ErrorValue as node.  gate(node, additive, literals)
    reads only the node, whether a '+' or '-' Binary sits above it and whether
    the shape's numbers are slots (Shape.literals), so it runs once per shape.
    A per_shape check reads only the node and its numbers, so it runs once per
    shape too, but per cell on a shape whose numbers are slots."""

    __slots__ = _fields = (
        "rule_id", "default_severity", "explanation", "triggers", "check",
        "threshold", "per_shape", "gate", "arguments",
    )
    _defaults = (None, False, None, None)


_RULES: dict[str, _RuleSpec] = {
    spec.rule_id: spec
    for spec in [
        _RuleSpec(
            "R0",
            Severity.WARNING,
            "A formula that cannot be parsed is a #PARSE! cell: it has no "
            "value, and no rule can read it, so a misuse it holds goes "
            "unreported and every formula that reads it fails too.  A formula "
            "that holds a comma must be quoted in a CSV file, or the comma "
            "splits it into several cells.  Fix the formula so that it parses.",
            frozenset(),
            _rule_r0,
        ),
        _RuleSpec(
            "R1",
            Severity.WARNING,
            "NPV discounts every value it is given, treating the first as "
            "arriving one period out.  Feeding an entire cash-flow series "
            "(initial outlay included) into the call therefore discounts the "
            "period-0 investment as well, understating the result.  Keep the "
            "initial flow outside: value0 + NPV(rate, later flows).  This "
            "rule is a heuristic: a genuinely negative period-1 flow at the "
            "head of the range looks identical and is a known false-positive "
            "shape.",
            frozenset({"NPV"}),
            _rule_r1,
            gate=_gate_r1,
        ),
        _RuleSpec(
            "R2",
            Severity.INFO,
            "Dividing an annual rate by 12 assumes the quote is nominal "
            "(simple) annual.  If the rate is an effective annual rate, the "
            "division overstates the monthly rate and every payment built on "
            "it.  Convert between effective and nominal quotes explicitly: "
            "EFFECT(nominal, 12) compounds a nominal quote to effective, "
            "NOMINAL(effective, 12) does the reverse, and the true monthly "
            "equivalent of an effective rate is (1+rate)^(1/12)-1.",
            frozenset({"NPV", "PMT"}),
            _rule_r2,
            per_shape=True,
        ),
        _RuleSpec(
            "R3",
            Severity.WARNING,
            "INTRATE returns (redemption - investment) / investment divided "
            "by the year fraction: simple interest, no compounding.  Over "
            "spans beyond one year the result is not an annually compounded "
            "yield; 100 growing to 125 over two years is 12.5% simple but "
            "only about 11.8% compounded.  For multi-year spans use a "
            "compound-equivalent rate instead.",
            frozenset({"INTRATE"}),
            _rule_r3,
            threshold=1.0,
            arguments={"INTRATE": (_SETTLEMENT, _MATURITY, _INTRATE_BASIS)},
        ),
        _RuleSpec(
            "R4",
            Severity.WARNING,
            "A DB month argument below 12 pro-rates the first year, pushing "
            "the remaining months of depreciation into an extra period after "
            "the asset's stated life.  Schedules must include life+1 rows or "
            "total depreciation will not reconcile with cost minus salvage.",
            frozenset({"DB"}),
            _rule_r4,
            arguments={"DB": (_MONTH,)},
        ),
        _RuleSpec(
            "R5",
            Severity.ERROR,
            "Financial functions take rates as fractions (0.12 is 12%).  An "
            "argument of 1 or more in a rate position almost always means a "
            "percentage was entered as a whole number, making the rate a "
            "hundred times the value intended.",
            frozenset(RATE_POSITIONS),
            _rule_r5,
            threshold=1.0,
            arguments={name: (index,) for name, index in RATE_POSITIONS.items()},
        ),
        _RuleSpec(
            "R6",
            Severity.ERROR,
            "A date typed into a numeric context, such as 1/1/80, parses as a "
            "division chain and evaluates to a small number (0.0125), not a "
            "date.  Store dates as ISO YYYY-MM-DD cell values and reference "
            "the cell; never type slash dates inside formulas.",
            frozenset({"/"}),
            _rule_r6,
            per_shape=True,
        ),
        _RuleSpec(
            "R7",
            Severity.INFO,
            "Day-count functions default their basis argument to US (NASD) "
            "30/360 when it is omitted.  The European 30/360 variant rounds "
            "month-end dates differently, and actual/actual, actual/360, and "
            "actual/365 count real days; results can differ by several days "
            "of interest.  Pass the basis explicitly so the convention in "
            "force is visible.",
            frozenset(BASIS_POSITIONS),
            _rule_r7,
            per_shape=True,
        ),
        _RuleSpec(
            "R8",
            Severity.INFO,
            "Dividing an actual-day difference by 360 mixes an actual-day "
            "numerator with a 360-day year, crediting roughly 365/360 = 1.4% "
            "extra interest per year.  The mixed basis is a known "
            "revenue-inflating pattern; divide actual days by 365, or use a "
            "single day-count basis on both sides.",
            frozenset({"/"}),
            _rule_r8,
            gate=_gate_r8,
        ),
    ]
}

RULE_IDS = tuple(_RULES)
_TRIGGER_KEYS = frozenset().union(*(spec.triggers for spec in _RULES.values()))


class RuleConfig(Record):
    """Which rules run, their thresholds, and their severities.  _active holds
    the (severity, threshold) of each enabled rule, by id, built once per config."""

    _fields = ("enabled", "thresholds", "severities")
    __slots__ = (*_fields, "_active")

    def __init__(
        self,
        enabled: frozenset[str] = frozenset(RULE_IDS),
        thresholds: Mapping[str, float] | None = None,
        severities: Mapping[str, Severity] | None = None,
    ) -> None:
        _set(self, "enabled", enabled)
        _set(self, "thresholds", {} if thresholds is None else thresholds)
        _set(self, "severities", {} if severities is None else severities)
        _set(self, "_active", {
            rule_id: (self.severity(rule_id), self.threshold(rule_id))
            for rule_id in _RULES
            if rule_id in enabled
        })

    @classmethod
    def from_dict(cls, data: Mapping) -> "RuleConfig":
        unknown_fields = set(data) - {"enabled", "thresholds", "severities"}
        if unknown_fields:
            raise ValueError(f"unknown config fields: {sorted(unknown_fields)}")
        enabled = data.get("enabled", list(RULE_IDS))
        if not isinstance(enabled, list) or not all(isinstance(r, str) for r in enabled):
            raise ValueError(f"enabled must be a list of rule ids, got {enabled!r}")
        for rule_id in sorted(set(enabled) - set(RULE_IDS)):
            raise ValueError(f"unknown rule id in enabled: {rule_id}")
        for key in ("thresholds", "severities"):
            if not isinstance(data.get(key, {}), Mapping):
                raise ValueError(f"{key} must be an object keyed by rule id, got {data[key]!r}")
        thresholds = {}
        for rule_id, value in data.get("thresholds", {}).items():
            if rule_id not in RULE_IDS:
                raise ValueError(f"unknown rule id in thresholds: {rule_id}")
            if _RULES[rule_id].threshold is None:
                raise ValueError(f"rule {rule_id} takes no threshold")
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                raise ValueError(f"threshold for {rule_id} must be positive, got {value!r}")
            if not value <= sys.float_info.max:  # exact for an int too large for a float
                raise ValueError(f"threshold for {rule_id} must be finite, got {value!r}")
            thresholds[rule_id] = float(value)
        severities = {}
        for rule_id, name in data.get("severities", {}).items():
            if rule_id not in RULE_IDS:
                raise ValueError(f"unknown rule id in severities: {rule_id}")
            try:
                severities[rule_id] = Severity(name)
            except ValueError:
                valid = ", ".join(s.value for s in Severity)
                raise ValueError(
                    f"invalid severity {name!r} for {rule_id}; expected one of {valid}"
                ) from None
        return cls(enabled=frozenset(enabled), thresholds=thresholds, severities=severities)

    @classmethod
    def from_json_file(cls, path: str | os.PathLike) -> "RuleConfig":
        import json  # here, so that an audit with no rule config never loads it

        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:  # json.load recurses once per level of nesting
                raise ValueError(f"JSON nested too deeply: {path}") from None
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {path}")
        return cls.from_dict(data)

    def threshold(self, rule_id: str) -> float:
        return self.thresholds.get(rule_id, _RULES[rule_id].threshold)

    def severity(self, rule_id: str) -> Severity:
        return self.severities.get(rule_id, _RULES[rule_id].default_severity)


_DEFAULT_CONFIG = RuleConfig()


def _plan(formula: FormulaNode, values: Evaluator, shape: Shape | None = None) -> list[tuple]:
    """(spec, node, readers, found) for each rule and each trigger node of
    formula, shape's template or an own tree, that its gate lets through, in
    finding order: readers the argument_readers of a template's call whose
    arguments the rule reads, else None, and found a per-shape check's
    finding, or None for a check to run per formula (always on a SlotShape)."""
    literals = shape is not None and shape.literals
    triggers = _trigger_nodes(formula)
    plan = []
    for spec in _RULES.values():
        for key, node, additive in triggers:
            if key not in spec.triggers or (spec.gate and not spec.gate(node, additive, literals)):
                continue
            if literals or not spec.per_shape:
                readers = shape and spec.arguments and argument_readers(
                    node, spec.arguments[node.name], shape.slots)
                plan.append((spec, node, readers, None))
            elif (found := spec.check(node, values, spec.threshold)) is not None:
                plan.append((spec, node, None, found))
    return plan


def run_rules(sheet: Sheet, config: RuleConfig | None = None) -> list[Finding]:
    """Audit every formula cell; findings come back ordered by (row, column, rule).

    A cell with a shape is read through its template, whose plan the shape
    keeps, and at for the cell (evaluator.ref); a formula with no shape, its
    own tree, gets a plan of its own, at None, and its checks' arguments from
    Evaluator.argument.  A cell whose formula could not be parsed has no tree:
    R0 reports it, so that such a workbook is never reported clean."""
    active = (config or _DEFAULT_CONFIG)._active
    values = Evaluator(sheet)
    findings: list[Finding] = []
    for cell in sheet.cells.values():
        shape = cell.shape
        if shape is not None:
            plan = shape.rules
            if plan is None:
                plan = shape.rules = _plan(shape.template, values, shape)
            if not plan:
                continue
            at = shape.refs(cell.source), shape.slots
        elif cell.formula is not None:
            plan, at = _plan(cell.formula, values), None
        else:  # a literal, or a formula that could not be parsed
            if cell.error is not None and "R0" in active:
                found = _rule_r0(cell.error, values, None)
                findings.append(Finding("R0", active["R0"][0], cell.address, *found))
            continue
        for spec, node, readers, found in plan:
            if spec.rule_id not in active:
                continue
            severity, threshold = active[spec.rule_id]
            if found is None:
                arguments = ()
                if spec.arguments is not None:
                    if at is None:
                        arguments = [values.argument(node, index) for index in spec.arguments[node.name]]
                    else:
                        arguments = [read(values, at[0]) for read in readers]
                    if ErrorValue in map(type, arguments):
                        continue  # the call itself fails there
                found = spec.check(node, values, threshold, at, *arguments)
            if found is not None:
                findings.append(Finding(spec.rule_id, severity, cell.address, *found))
    return findings


def explain_rule(rule_id: str) -> str:
    """Financial rationale and recommended correction; KeyError if unknown."""
    return _RULES[rule_id].explanation


def render_text(finding: Finding, file_label: str) -> str:
    return (
        f"{file_label}:{finding.cell} {finding.rule_id} "
        f"{finding.severity.value} {finding.message}"
    )


def to_record(finding: Finding, file_label: str) -> dict:
    return {
        "file": file_label,
        "cell": finding.cell,
        "rule_id": finding.rule_id,
        "severity": finding.severity.value,
        "message": finding.message,
        "evidence": [
            {"cell": address, "value": value} for address, value in finding.evidence
        ],
    }
