"""Command-line front end: evaluate formulas, audit workbooks, build schedules.

Exit codes are a function of findings and input validity only, never of the
output format: 0 clean, 1 findings or discrepancies, 2 invalid input or
output that cannot be written (stdout closed early included).  A subcommand
raises what the library raises (see the package docstring): ValueError for
invalid input, ArithmeticError for arithmetic past the range of a float.
main alone prints: one `error:` line for either or for a closed stdout, and
one `warning:` line for each library warning.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import warnings
from collections.abc import Sequence

from .daycount import format_number
from .depreciation import DepreciationSpec, PrecisionMode, db_schedule, reconcile
from .rates import PeriodicConvention, parse_rate

RULES_ENV_VAR = "LEDGERLINT_RULES"


def _sheet_from_bindings(bindings: Sequence[str]):
    from .formula import Sheet, parse_address
    from .formula.ast import column_to_index

    placed: dict[int, dict[int, str]] = {}  # row -> column -> text
    for binding in bindings:
        address, sep, text = binding.partition("=")
        if not sep:
            raise ValueError(f"binding {binding!r} must look like A1=value")
        column, row = parse_address(address.strip().upper())
        placed.setdefault(row, {})[column_to_index(column)] = text
    return Sheet(((row, sorted(placed[row].items())) for row in sorted(placed)))


def _cmd_eval(args: argparse.Namespace) -> int:
    # imported here, as in _cmd_audit, so that depr and schedule never load the formula package
    from .formula import ErrorValue, ParseError, evaluate, parse
    from .formula.sheet import format_value

    sheet = _sheet_from_bindings(args.bind or [])
    try:
        node = parse(args.expr)
    except ParseError as exc:
        raise ValueError(f"parse failure at position {exc.position}: {exc}") from exc
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
        import json  # here, so that only structured output loads it

        print(json.dumps(record))
    else:
        print(value if isinstance(value, ErrorValue) else format_value(value))
    return 2 if isinstance(value, ErrorValue) else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import RuleConfig, Severity, render_text, run_rules, to_record
    from .formula import load_workbook

    rules_path = args.rules or os.environ.get(RULES_ENV_VAR)
    try:
        config = RuleConfig.from_json_file(rules_path) if rules_path else RuleConfig()
    except (OSError, ValueError) as exc:
        raise ValueError(f"rule config: {exc}") from exc
    render = render_text
    if args.format == "structured":
        import json  # here, so that only structured output loads it

        def render(finding, path):
            return json.dumps(to_record(finding, path))

    worst_is_actionable = False
    for path in args.workbooks:
        try:
            sheet = load_workbook(path)
        except (OSError, ValueError, csv.Error) as exc:  # unreadable, not UTF-8, oversized
            raise ValueError(f"{path}: {exc}") from exc
        findings = run_rules(sheet, config)
        for finding in findings:
            print(render(finding, path))
            if finding.severity in (Severity.WARNING, Severity.ERROR):
                worst_is_actionable = True
    return 1 if worst_is_actionable else 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    # imported here, so that an audit never loads it
    from .loan import LoanSpec, build_schedule, load_published, verify_schedule
    if args.tolerance is not None and args.published is None:
        args.usage_error("argument --tolerance: not allowed without --published")
    spec = LoanSpec(
        principal=args.principal,
        annual_rate=parse_rate(args.rate),
        term_months=args.term,
        holiday_months=args.holiday,
        convention=PeriodicConvention(args.convention),
    )
    if args.published is not None:
        try:
            published = load_published(args.published)
        except (OSError, ValueError, csv.Error) as exc:  # unreadable, not UTF-8, malformed
            raise ValueError(f"{args.published}: {exc}") from exc
        # verify_schedule's own default tolerance unless one is given
        tolerance = {} if args.tolerance is None else {"tolerance": args.tolerance}
        discrepancies = verify_schedule(published, spec, **tolerance)
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
    spec = DepreciationSpec(
        cost=args.cost, salvage=args.salvage, life=args.life, month=args.month
    )
    schedule = db_schedule(spec, PrecisionMode(args.mode))
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
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:  # a missing directory, no permission
            raise ValueError(f"{path}: {exc}") from exc
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
        "--convention", choices=sorted(c.value for c in PeriodicConvention), default="uk",
        help="periodic-rate convention: uk (effective root) or us (nominal divide)",
    )
    target = p_schedule.add_mutually_exclusive_group()
    target.add_argument(
        "--published", help="verify against this published schedule CSV instead of emitting"
    )
    target.add_argument("-o", "--output", help="write schedule CSV here (default stdout)")
    p_schedule.add_argument(
        "--tolerance", type=float,
        help="verification tolerance per field, with --published only (default: penny rounding)",
    )
    p_schedule.set_defaults(func=_cmd_schedule, usage_error=p_schedule.error)

    p_depr = subparsers.add_parser("depr", help="declining-balance depreciation schedule")
    p_depr.add_argument("--cost", type=float, required=True)
    p_depr.add_argument("--salvage", type=float, required=True)
    p_depr.add_argument("--life", type=int, required=True, help="life in years")
    p_depr.add_argument("--month", type=int, default=12, help="months in the first year")
    p_depr.add_argument(
        "--mode", choices=sorted(m.value for m in PrecisionMode), default="exact",
        help="exact (default) or compat (replicates 3-decimal rate rounding)",
    )
    p_depr.add_argument("-o", "--output", help="write schedule CSV here (default stdout)")
    p_depr.set_defaults(func=_cmd_depr)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
            sys.stdout.flush()  # so that a closed pipe shows here, not at exit
            return code
        except BrokenPipeError as exc:  # the reader closed stdout, as `| head` does
            # what stdout still holds goes to devnull, so the last flush at exit is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: stdout: {exc.strerror}", file=sys.stderr)
            return 2
        except ValueError as exc:  # the library's invalid-input signal, ParseError included
            print(f"error: {_one_line(exc)}", file=sys.stderr)
            return 2
        except ArithmeticError as exc:  # an overflow, as of pmt at a rate near -1
            print(f"error: arithmetic out of range: {_one_line(exc)}", file=sys.stderr)
            return 2
        finally:
            for warning in caught:
                print(f"warning: {_one_line(warning.message)}", file=sys.stderr)


def _one_line(message: object) -> str:
    """str(message) with each control character escaped as repr writes it
    ('\\n', '\\x85'), so that a diagnostic stays one line whatever it quotes."""
    return re.sub(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]", lambda m: repr(m[0])[1:-1], str(message))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
