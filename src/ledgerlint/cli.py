"""Command-line front end: evaluate formulas, audit workbooks, build schedules.

Exit codes are a function of findings and input validity only, never of the
output format: 0 clean, 1 findings or discrepancies, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Sequence

from .audit import RuleConfig, Severity, render_text, run_rules, to_record
from .depreciation import DepreciationSpec, PrecisionMode, db_schedule, reconcile
from .formula import ErrorValue, ParseError, Sheet, evaluate, load_workbook, parse, parse_address
from .formula.ast import column_to_index, format_number
from .formula.shapes import ShapeCache
from .formula.sheet import format_value
from .rates import PeriodicConvention, parse_rate

RULES_ENV_VAR = "LEDGERLINT_RULES"

_CONVENTIONS = {
    "uk": PeriodicConvention.UK_EFFECTIVE_ROOT,
    "us": PeriodicConvention.US_NOMINAL_DIVIDE,
}
_MODES = {"compat": PrecisionMode.COMPAT, "exact": PrecisionMode.EXACT}


def _sheet_from_bindings(bindings: Sequence[str]) -> Sheet:
    placed: dict[int, dict[int, str]] = {}  # row -> column -> text
    for binding in bindings:
        address, sep, text = binding.partition("=")
        if not sep:
            raise ValueError(f"binding {binding!r} must look like A1=value")
        column, row = parse_address(address.strip().upper())
        placed.setdefault(row, {})[column_to_index(column)] = text
    return Sheet(((row, sorted(placed[row].items())) for row in sorted(placed)), name="bindings")


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        sheet = _sheet_from_bindings(args.bind or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        node = parse(args.expr)
    except ParseError as exc:
        print(f"error: parse failure at position {exc.position}: {exc}", file=sys.stderr)
        return 2
    value = evaluate(node, sheet)
    if args.format == "structured":
        if isinstance(value, ErrorValue):
            record = {"kind": "error", "code": value.code, "message": value.message}
        elif isinstance(value, float):
            record = {"kind": "number", "value": value}
        elif isinstance(value, str):
            record = {"kind": "text", "value": value}
        else:
            record = {"kind": "date", "value": value.isoformat()}
        print(json.dumps(record))
    else:
        print(value if isinstance(value, ErrorValue) else format_value(value))
    return 2 if isinstance(value, ErrorValue) else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    rules_path = args.rules or os.environ.get(RULES_ENV_VAR)
    try:
        config = RuleConfig.from_json_file(rules_path) if rules_path else RuleConfig()
    except (OSError, ValueError) as exc:
        print(f"error: rule config: {exc}", file=sys.stderr)
        return 2
    worst_is_actionable = False
    shapes = ShapeCache()  # one for the run: a class's workbooks share their shapes
    for path in args.workbooks:
        try:
            sheet = load_workbook(path, shapes)
        except (OSError, ValueError, csv.Error) as exc:  # unreadable, not UTF-8, oversized
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        findings = run_rules(sheet, config)
        for finding in findings:
            if args.format == "structured":
                print(json.dumps(to_record(finding, path)))
            else:
                print(render_text(finding, path))
            if finding.severity in (Severity.WARNING, Severity.ERROR):
                worst_is_actionable = True
    return 1 if worst_is_actionable else 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    # imported here, so that an audit never loads it
    from .loan import LoanSpec, build_schedule, load_published, verify_schedule
    try:
        spec = LoanSpec(
            principal=args.principal,
            annual_rate=parse_rate(args.rate),
            term_months=args.term,
            holiday_months=args.holiday,
            convention=_CONVENTIONS[args.convention],
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.published:
        try:
            published = load_published(args.published)
        except (OSError, ValueError) as exc:
            print(f"error: {args.published}: {exc}", file=sys.stderr)
            return 2
        try:
            discrepancies = verify_schedule(published, spec, tolerance=args.tolerance)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for d in discrepancies:
            print(
                f"month {d.month}: {d.field} expected {format_number(d.expected)} "
                f"got {format_number(d.actual)} (diff {format_number(d.difference)})"
            )
        print(f"{len(discrepancies)} discrepancies")
        return 1 if discrepancies else 0
    _write_output(build_schedule(spec).to_csv(), args.output)
    return 0


def _cmd_depr(args: argparse.Namespace) -> int:
    try:
        spec = DepreciationSpec(
            cost=args.cost, salvage=args.salvage, life=args.life, month=args.month
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schedule = db_schedule(spec, _MODES[args.mode])
    report = reconcile(schedule, spec)
    text = schedule.to_csv()
    text += (
        f"reconciliation: total_depreciation={format_number(report.total_depreciation)} "
        f"residual_book_value={format_number(report.residual_book_value)} "
        f"gap={format_number(report.gap)}"
        + (" FLAGGED" if report.flagged else "")
        + "\n"
    )
    _write_output(text, args.output)
    return 0


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerlint",
        description="Financial-formula evaluation, auditing, and schedule tools.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output as plain text or machine-readable JSON",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = subparsers.add_parser(
        "eval", parents=[common], help="evaluate a single formula"
    )
    p_eval.add_argument("expr", help='formula starting with "=", e.g. "=EFFECT(0.12,12)"')
    p_eval.add_argument(
        "--bind", action="append", metavar="A1=VALUE",
        help="cell binding the formula may reference (repeatable)",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_audit = subparsers.add_parser(
        "audit", parents=[common], help="run misuse rules over CSV workbooks"
    )
    p_audit.add_argument("workbooks", nargs="+", help="CSV workbook paths")
    p_audit.add_argument(
        "--rules", help=f"rule config JSON (default: ${RULES_ENV_VAR} if set)"
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_schedule = subparsers.add_parser("schedule", help="build or verify a loan schedule")
    p_schedule.add_argument("--principal", type=float, required=True)
    p_schedule.add_argument(
        "--rate", required=True, help='annual rate, "0.126825" or "12.6825%%"'
    )
    p_schedule.add_argument("--term", type=int, required=True, help="term in months")
    p_schedule.add_argument("--holiday", type=int, default=0, help="payment holiday months")
    p_schedule.add_argument(
        "--convention", choices=sorted(_CONVENTIONS), default="uk",
        help="periodic-rate convention: uk (effective root) or us (nominal divide)",
    )
    p_schedule.add_argument(
        "--published", help="verify against this published schedule CSV instead of emitting"
    )
    p_schedule.add_argument(
        "--tolerance", type=float, default=0.005, help="verification tolerance per field"
    )
    p_schedule.add_argument("-o", "--output", help="write schedule CSV here (default stdout)")
    p_schedule.set_defaults(func=_cmd_schedule)

    p_depr = subparsers.add_parser("depr", help="declining-balance depreciation schedule")
    p_depr.add_argument("--cost", type=float, required=True)
    p_depr.add_argument("--salvage", type=float, required=True)
    p_depr.add_argument("--life", type=int, required=True, help="life in years")
    p_depr.add_argument("--month", type=int, default=12, help="months in the first year")
    p_depr.add_argument(
        "--mode", choices=sorted(_MODES), default="exact",
        help="exact (default) or compat (replicates 3-decimal rate rounding)",
    )
    p_depr.add_argument("-o", "--output", help="write schedule CSV here (default stdout)")
    p_depr.set_defaults(func=_cmd_depr)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
