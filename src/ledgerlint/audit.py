"""Misuse detection over evaluated workbooks.

Each rule declares the function names or operators it inspects; one walk per
shape (shapes.Shape) finds those nodes for the rules, and a check that reads
only the node runs there too, once for every formula of the shape.  Other
checks run per cell on the node of the shape's template, with the audit's one
evaluator bound to the cell, so that the node's references and values are the
cell's own and no cell's tree is built.  A check returns what it found, a
message and its evidence; run_rules alone turns that into a Finding, with the
rule's id, its configured severity and the cell.  Checks are stateless, skip
anything they cannot interpret, and never abort an audit.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping

from .daycount import year_fraction
from .formula import Binary, Call, CellRef, EmptyArg, FormulaNode, NumberLit, RangeRef, Sheet, Unary
from .formula.ast import format_number
from .formula.evaluator import BASIS_CODES, FUNCTION_CATALOG, Evaluator, Role
from .formula.sheet import format_value

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


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: Severity
    cell: str
    message: str
    evidence: Evidence = ()


def _positions(*roles: Role) -> dict[str, int]:
    """Function name -> index of its parameter in one of roles, from the catalog."""
    return {
        name: index
        for name, spec in FUNCTION_CATALOG.items()
        for index, param in enumerate(spec.params)
        if param.role in roles
    }


# which argument of a call is a rate, and which sets the day-count convention
RATE_POSITIONS = _positions(Role.RATE)
BASIS_POSITIONS = _positions(Role.BASIS, Role.METHOD)


_BRANCHES = frozenset({Call, Binary, Unary})  # the nodes that have children


def _trigger_nodes(formula: FormulaNode) -> list[tuple[str, FormulaNode, tuple, bool]]:
    """Pre-order (key, node, path, additive) for nodes whose call name or operator
    is a rule trigger; path holds the argument indices and node attribute names
    that lead from formula to node, and additive is set when a '+' or '-' Binary
    sits above the node."""
    found: list[tuple[str, FormulaNode, tuple, bool]] = []
    if type(formula) in _BRANCHES:
        _visit(formula, False, [], found)
    return found


def _visit(node: FormulaNode, additive: bool, steps: list, found: list) -> None:
    """_trigger_nodes below node, a branch that steps lead to; steps is one list
    for the whole walk, copied only into a trigger's path."""
    kind = type(node)
    if kind is Call:
        if node.name in _TRIGGER_KEYS:
            found.append((node.name, node, tuple(steps), additive))
        children = enumerate(node.args)
    elif kind is Binary:
        if node.op in _TRIGGER_KEYS:
            found.append((node.op, node, tuple(steps), additive))
        additive = additive or node.op in ("+", "-")
        children = (("left", node.left), ("right", node.right))
    else:
        children = (("child", node.child),)
    for step, child in children:
        if type(child) in _BRANCHES:
            steps.append(step)
            _visit(child, additive, steps, found)
            steps.pop()


def _node_at(node: FormulaNode, path: tuple) -> FormulaNode:
    for step in path:
        node = node.args[step] if type(step) is int else getattr(node, step)
    return node


def _ref_evidence(values: Evaluator, *nodes: FormulaNode) -> Evidence:
    addresses = [values.ref(node) for node in nodes if isinstance(node, CellRef)]
    return tuple((address, format_value(values.cell_value(address))) for address in addresses)


def _resolved(values: Evaluator, node: FormulaNode, kind: type):
    value = values.eval_node(node)
    return value if isinstance(value, kind) else None


def _rule_r1(node: Call, additive: bool, values: Evaluator, threshold: None):
    if additive or len(node.args) < 2:
        return None  # under '+'/'-' a separate additive term holds the period-0 flow
    if not isinstance(node.args[1], RangeRef):
        return None
    values_arg = values.ref(node.args[1])
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


def _rule_r2(node: Call, additive: bool, values: Evaluator, threshold: None):
    if not node.args:
        return None
    rate_arg = node.args[RATE_POSITIONS[node.name]]
    if not (
        isinstance(rate_arg, Binary)
        and rate_arg.op == "/"
        and isinstance(rate_arg.right, NumberLit)
        and rate_arg.right.value == 12.0
    ):
        return None
    return (
        f"rate argument of {node.name} is written as X/12; dividing an "
        "annual rate by 12 is only right for nominal quotes - for an "
        "effective annual rate convert with NOMINAL(rate,12)/12 or "
        "(1+rate)^(1/12)-1",
        (),
    )


def _rule_r3(node: Call, additive: bool, values: Evaluator, threshold: float):
    if len(node.args) < 4:
        return None
    settlement = _resolved(values, node.args[0], dt.date)
    maturity = _resolved(values, node.args[1], dt.date)
    if settlement is None or maturity is None:
        return None
    index = BASIS_POSITIONS["INTRATE"]
    basis = FUNCTION_CATALOG["INTRATE"].params[index].default
    if len(node.args) > index and not isinstance(node.args[index], EmptyArg):
        code = _resolved(values, node.args[index], float)
        if code not in BASIS_CODES:  # 2.0 is the key 2; None, 2.5 and nan are no key
            return None
        basis = BASIS_CODES[code]
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
        _ref_evidence(values, node.args[0], node.args[1]),
    )


def _rule_r4(node: Call, additive: bool, values: Evaluator, threshold: None):
    if len(node.args) < 5 or isinstance(node.args[4], EmptyArg):
        return None
    month_arg = node.args[4]
    month = _resolved(values, month_arg, float)
    if month is None or not month < 12.0:  # a nan month skips too
        return None
    return (
        f"DB with month={format_number(month)} takes a partial first year; "
        "the schedule needs an extra final period (life+1 rows) or total "
        "depreciation will not reconcile with cost minus salvage",
        _ref_evidence(values, month_arg),
    )


def _rule_r5(node: Call, additive: bool, values: Evaluator, threshold: float):
    index = RATE_POSITIONS[node.name]
    if len(node.args) <= index or isinstance(node.args[index], EmptyArg):
        return None
    rate = _resolved(values, node.args[index], float)
    if rate is None or not rate >= threshold:  # a nan rate skips too
        return None
    return (
        f"rate argument of {node.name} resolves to {format_number(rate)}; "
        "rates are fractions, so this reads as "
        f"{format_number(rate * 100)}% - a percentage was probably entered "
        "at a hundred times the value intended",
        _ref_evidence(values, node.args[index]),
    )


def _rule_r6(node: Binary, additive: bool, values: Evaluator, threshold: None):
    inner = node.left
    if not (isinstance(inner, Binary) and inner.op == "/"):
        return None
    parts = (inner.left, inner.right, node.right)
    if not all(isinstance(p, NumberLit) for p in parts):
        return None
    day, month, year = (p.value for p in parts)
    if any(v != int(v) for v in (day, month, year)):
        return None
    if not (1 <= day <= 31 and 1 <= month <= 12 and (0 <= year <= 99 or 1900 <= year <= 2199)):
        return None
    chain = f"{format_number(day)}/{format_number(month)}/{format_number(year)}"
    return (
        f"{chain} is a division chain evaluating to {format_value(values.eval_node(node))}, "
        "not a date; dates typed into formulas become arithmetic - put an "
        "ISO date (YYYY-MM-DD) in a cell and reference it",
        (),
    )


def _rule_r7(node: Call, additive: bool, values: Evaluator, threshold: None):
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


def _rule_r8(node: Binary, additive: bool, values: Evaluator, threshold: None):
    numerator = node.left
    if not (
        isinstance(node.right, NumberLit)
        and node.right.value == 360.0
        and isinstance(numerator, Binary)
        and numerator.op == "-"
    ):
        return None
    left_date = _resolved(values, numerator.left, dt.date)
    right_date = _resolved(values, numerator.right, dt.date)
    if left_date is None or right_date is None:
        return None
    return (
        "actual-day difference divided by a literal 360 mixes conventions; "
        "a full year counts about 365/360 = 1.4% extra interest, a known "
        "revenue-inflating pattern - divide by 365 or use one basis "
        "throughout",
        _ref_evidence(values, numerator.left, numerator.right),
    )


@dataclass(frozen=True)
class _RuleSpec:
    """check(node, additive, values, threshold) gets each node whose call name
    or operator is in triggers, whether a '+' or '-' Binary sits above it, the
    sheet's one Evaluator, and RuleConfig.threshold (threshold here unless
    configured, None for a rule without one).  It returns (message, evidence),
    evidence () when it has none, or None; run_rules builds the Finding.  A
    per_shape check reads only the node, so it runs once for a whole shape."""

    rule_id: str
    default_severity: Severity
    explanation: str
    triggers: frozenset[str]
    check: Callable[[FormulaNode, bool, Evaluator, float | None], tuple[str, Evidence] | None]
    threshold: float | None = None
    per_shape: bool = False


_RULES: dict[str, _RuleSpec] = {
    spec.rule_id: spec
    for spec in [
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
        ),
    ]
}

RULE_IDS = tuple(_RULES)
_TRIGGER_KEYS = frozenset().union(*(spec.triggers for spec in _RULES.values()))


@dataclass(frozen=True)
class RuleConfig:
    """Which rules run, their thresholds, and their severities."""

    enabled: frozenset[str] = frozenset(RULE_IDS)
    thresholds: Mapping[str, float] = field(default_factory=dict)
    severities: Mapping[str, Severity] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RuleConfig":
        unknown_fields = set(data) - {"enabled", "thresholds", "severities"}
        if unknown_fields:
            raise ValueError(f"unknown config fields: {sorted(unknown_fields)}")
        enabled = data.get("enabled")
        if enabled is None:
            enabled = list(RULE_IDS)
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
    def from_json_file(cls, path: str | Path) -> "RuleConfig":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"rule config must be a JSON object: {path}")
        return cls.from_dict(data)

    def threshold(self, rule_id: str) -> float:
        return self.thresholds.get(rule_id, _RULES[rule_id].threshold)

    def severity(self, rule_id: str) -> Severity:
        return self.severities.get(rule_id, _RULES[rule_id].default_severity)


def _plan(formula: FormulaNode, values: Evaluator) -> list[tuple]:
    """(spec, path, additive, found) for each rule and each of its trigger nodes
    in formula, in finding order: found is a per-shape check's finding, made
    here and left out when None, or None for a check to run per formula."""
    triggers = _trigger_nodes(formula)
    plan = []
    for spec in _RULES.values():
        for key, node, path, additive in triggers:
            if key not in spec.triggers:
                continue
            if not spec.per_shape:
                plan.append((spec, path, additive, None))
            elif (found := spec.check(node, additive, values, spec.threshold)) is not None:
                plan.append((spec, path, additive, found))
    return plan


def run_rules(sheet: Sheet, config: RuleConfig | None = None) -> list[Finding]:
    """Audit every formula cell; findings come back ordered by (row, column, rule).

    Each shape's plan is kept on it, and a cell's own checks run on the tree
    that the evaluator binds for it, its shape's template when it has one."""
    if config is None:
        config = RuleConfig()
    active = {
        rule_id: (config.severity(rule_id), config.threshold(rule_id))
        for rule_id in _RULES
        if rule_id in config.enabled
    }
    values = Evaluator(sheet)
    findings: list[Finding] = []
    for cell in sheet.cells.values():
        shape = cell.shape
        plan = shape and shape.rules
        tree = None
        if plan is None:
            if shape is None and cell.formula is None:
                continue  # a literal or an error
            tree = values.bind(cell)
            plan = _plan(tree, values)
            if shape:
                shape.rules = plan
        for spec, path, additive, found in plan:
            if spec.rule_id not in active:
                continue
            severity, threshold = active[spec.rule_id]
            if found is None:
                if tree is None:
                    tree = values.bind(cell)
                found = spec.check(_node_at(tree, path), additive, values, threshold)
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
