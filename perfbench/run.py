#!/usr/bin/env python3
"""Benchmark for ledgerlint: seeded workbooks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload loanbook --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 10

A workload run generates its workbooks from the seed, checks every operation
against the generator's oracle and prints, as its last stdout line, one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 a separate traced run
gives the per-layer ones.  --report runs every workload both ways and prints
the metrics as tables, one row or column per workload.

The program is run from the source tree next to this directory: the
end-to-end audit is `python -m ledgerlint.cli audit` with PYTHONPATH=src, and
the per-layer numbers come from calls into ledgerlint's public functions.
Timings are medians over the iterations that fit in --seconds, of wall times
rescaled to a reference CPU speed by gauge.py, because the speed of a shared
host drifts by up to a factor of two within seconds.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import workloads
from gauge import Gauge
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150

RULES = tuple(f"R{i}" for i in range(1, 9))
ERROR_KINDS = ("parse", "cycle", "propagated", "unknown_function", "argument", "div0", "value")
FUNCTIONS = ("NPV", "XNPV", "DB", "SLN", "EFFECT", "NOMINAL", "INTRATE", "ACCRINT", "PMT",
             "DAYS360", "SUM")

END_TO_END = [
    ("setup_s", "s"),
    ("audit_s", "s"),
    ("audit_cells_per_s", "cells/s"),
    ("eval_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("parser.tokenize_s", "s"),
    ("parser.parse_s", "s"),
    ("parser.formulas", "count"),
    ("parser.tokens", "count"),
    ("parser.parse_errors", "count"),
    ("parser.distinct_shapes", "count"),
    ("sheet.load_s", "s"),
    ("sheet.build_s", "s"),
    ("sheet.range_s", "s"),
    ("sheet.range_area", "count"),
    ("sheet.range_populated", "count"),
    ("sheet.range_hit_ratio", "ratio"),
    ("evaluator.eval_all_s", "s"),
    ("evaluator.cells", "count"),
    *[(f"evaluator.errors.{kind}", "count") for kind in ERROR_KINDS],
    ("evaluator.max_chain_depth", "count"),
    *[pair for name in FUNCTIONS
      for pair in ((f"evaluator.call.{name}_s", "s"), (f"evaluator.call.{name}", "count"))],
    ("audit.rules_s", "s"),
    *[(f"audit.rule.{rule}_s", "s") for rule in RULES],
    *[(f"audit.findings.{rule}", "count") for rule in RULES],
    ("audit.render_s", "s"),
    ("self.op_s", "s"),
    ("self.sheet_load_s", "s"),
    ("self.audit_rules_s", "s"),
    ("self.audit_render_s", "s"),
    ("self.evaluator_eval_all_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("workload.distinct_shape_share", "ratio"),
    ("workload.findings_per_formula", "ratio"),
    ("workload.anchored_share", "ratio"),
    ("probe.anchored_books", "count"),
    ("probe.anchored_failed", "count"),
]

# Per-layer times from the passes: each is the summed duration of the spans
# named like the metric without its "_s".
PASS_TIMES = [
    name for name, unit in PER_LAYER if unit == "s" and not name.startswith(("self.", "trace."))
]

# In-process pipeline span -> per-layer self-time metric.
SELF_METRICS = {
    "op.audit": "self.op_s",
    "op.eval": "self.op_s",
    "sheet.load": "self.sheet_load_s",
    "audit.rules": "self.audit_rules_s",
    "audit.render": "self.audit_render_s",
    "evaluator.eval_all": "self.evaluator_eval_all_s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# the program, in a child process


@dataclass
class Child:
    stdout: str
    stderr: str
    code: int
    interval: tuple[float, float]  # perf_counter at start and at exit
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Cached bytecode, as an installed package has, whatever the caller's setting.
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("LEDGERLINT_RULES", None)  # the oracle assumes the default rule config
    return env


class Launcher:
    """The small process that spawns every audit child; see launcher.py."""

    def __init__(self) -> None:
        script = Path(__file__).with_name("launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def audit(self, names: list[str], cwd: Path, env: dict[str, str]) -> Child:
        """`ledgerlint audit` over the named files, from its own rusage and clock."""
        request = {
            "argv": [sys.executable, "-m", "ledgerlint.cli", "audit", *names],
            "cwd": str(cwd),
            "env": env,
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(
            reply["stdout"],
            reply["stderr"],
            reply["code"],
            (reply["start"], reply["end"]),
            reply["maxrss_kib"] / 1024,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def failed_books(child: Child, books: list[workloads.Book], expected_exit: int) -> int:
    """Books whose (rule, cell) findings in the text output differ from the oracle.

    A traceback or an unexpected exit code fails every book of the invocation.
    """
    if child.code != expected_exit or "Traceback" in child.stderr:
        return len(books)
    found: dict[str, set[tuple[str, str]]] = defaultdict(set)
    for line in child.stdout.splitlines():
        head, _, rest = line.partition(" ")
        label, _, cell = head.rpartition(":")
        found[label].add((rest.partition(" ")[0], cell))
    return sum(found.get(book.name, set()) != book.findings for book in books)


# the program, in this process


class Program:
    """ledgerlint's public calls, imported from the source tree."""

    def __init__(self) -> None:
        sys.pycache_prefix = str(WORK / "pycache")
        sys.dont_write_bytecode = False
        sys.path.insert(0, str(SRC))
        from ledgerlint import audit, formula

        self.audit = audit
        self.formula = formula

    def render(self, findings, label: str) -> None:
        for finding in findings:
            self.audit.render_text(finding, label)
            json.dumps(self.audit.to_record(finding, label))

    def values_fail(self, book: workloads.Book, values: dict) -> bool:
        kinds = Counter(
            v.kind.value for v in values.values() if isinstance(v, self.formula.ErrorValue)
        )
        if dict(kinds) != book.errors or len(values) != len(book.grid):
            return True
        return not all(workloads.values_match(v, values.get(c)) for c, v in book.values.items())


@dataclass
class Run:
    """One workload's generated files, the oracle, and the tallies of a run."""

    workload: workloads.Workload
    dir: Path
    program: Program
    launcher: Launcher
    env: dict[str, str] = field(default_factory=child_env)
    attempted: int = 0
    failed: int = 0

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def books(self) -> list[workloads.Book]:
        return self.workload.books

    def path(self, book: workloads.Book) -> Path:
        return self.dir / book.name

    def audit_op(self, book: workloads.Book, tracer, op: int = 0) -> tuple[float, float]:
        """load_workbook + run_rules + rendering for one book; returns when it ran."""
        audit, formula = self.program.audit, self.program.formula
        findings = None
        start = time.perf_counter()
        try:
            with tracer.span("op.audit", op):
                with tracer.span("sheet.load", op):
                    sheet = formula.load_workbook(self.path(book))
                with tracer.span("audit.rules", op):
                    findings = audit.run_rules(sheet)
                with tracer.span("audit.render", op):
                    self.program.render(findings, book.name)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            log(f"audit {book.name}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        wrong = findings is None or {(f.rule_id, f.cell) for f in findings} != book.findings
        self.tally(1, int(wrong))
        return start, end

    def eval_op(self, book: workloads.Book, tracer, op: int = 0) -> tuple[float, float]:
        """load_workbook(path).evaluate_all() for one book; returns when it ran."""
        values = None
        start = time.perf_counter()
        try:
            with tracer.span("op.eval", op):
                with tracer.span("sheet.load", op):
                    sheet = self.program.formula.load_workbook(self.path(book))
                with tracer.span("evaluator.eval_all", op):
                    values = sheet.evaluate_all()
        except Exception as exc:
            log(f"evaluate {book.name}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        self.tally(1, int(values is None or self.program.values_fail(book, values)))
        return start, end

    def audit_child(self, books: list[workloads.Book]) -> tuple[Child, int]:
        child = self.launcher.audit([b.name for b in books], self.dir, self.env)
        expected = max(book.exit_code for book in books)
        return child, failed_books(child, books, expected)


def timed_audit(run: Run, gauge: Gauge, books: list[workloads.Book]) -> Child:
    """One audit child over books, between two calibrations, checked and tallied."""
    gauge.sample()
    child, failed = run.audit_child(books)
    gauge.sample()
    run.tally(len(books), failed)
    return child


def probe(run: Run) -> int:
    """Audit the `$`-anchored books, untimed; returns how many the oracle rejects."""
    if not run.workload.probe:
        return 0
    _, failed = run.audit_child(run.workload.probe)
    return failed


def settle() -> None:
    """Collect garbage, then exempt the benchmark's own long-lived data (books,
    oracle, spans) from later collections, which the program's calls would
    otherwise pay for."""
    gc.collect()
    gc.freeze()


def in_process(run: Run, gauge: Gauge, op, tracer, ops) -> list[tuple[float, float]]:
    """op on every book, calibrating between books; returns when each op ran."""
    settle()
    intervals = []
    for book in run.books:
        gauge.maybe_sample()
        intervals.append(op(book, tracer, next(ops)))
    gauge.sample()
    return intervals


def measure_end_to_end(run: Run, gauge: Gauge, seconds: float) -> dict[str, list[float]]:
    """Audit children over the workload and over an empty CSV, in-process audit and
    evaluation, in turn until the time is up.  The audit child, the noisiest to
    time, and the empty audit run twice per round."""
    books = run.books
    empty = workloads.Book("empty.csv", {})
    (run.dir / empty.name).write_bytes(b"")
    run.audit_child([empty])  # untimed: the first start may compile bytecode
    null, ops = NullTracer(), itertools.count(1)
    intervals: dict[str, list[list[tuple[float, float]]]] = defaultdict(list)
    rss = []
    deadline = time.perf_counter() + seconds
    while len(rss) < 2 * MIN_ITERATIONS or time.perf_counter() < deadline:
        for _ in range(2):
            child = timed_audit(run, gauge, books)
            intervals["audit_s"].append([child.interval])
            rss.append(child.peak_rss_mb)
            intervals["setup_s"].append([timed_audit(run, gauge, [empty]).interval])
        intervals["audit_in_process"].append(in_process(run, gauge, run.audit_op, null, ops))
        intervals["eval_s"].append(in_process(run, gauge, run.eval_op, null, ops))
    samples = {
        name: [sum(gauge.scaled(*iv) for iv in group) for group in groups]
        for name, groups in intervals.items()
    }
    cells = sum(len(book.grid) for book in books)
    samples["audit_cells_per_s"] = [cells / t for t in samples.pop("audit_in_process")]
    samples["peak_rss_mb"] = rss
    return samples


# the traced run


@dataclass
class Layout:
    """What the benchmark reads from one book's formulas with the program's parser."""

    rows: list[list[str]]
    texts: list[str]
    ranges: list
    area: int
    calls: dict[str, list]


def walk(node, range_type):
    """Every AST node below node, not descending into ranges."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, range_type):
            continue
        if isinstance(current, tuple):
            stack.extend(current)
        elif is_dataclass(current):
            stack.extend(getattr(current, f.name) for f in fields(current))


def shape_key(node, col: int, row: int, ref_type):
    """The formula in relative (R1C1-like) form: references become offsets from the host cell.

    Literals stay as they are, as in ExceLint's reference vectors; fields a
    reference carries besides column and row are kept absolute.
    """
    if isinstance(node, ref_type):
        extra = tuple(
            getattr(node, f.name) for f in fields(node) if f.name not in ("column", "row")
        )
        return ("ref", workloads.column_index(node.column) - col, node.row - row) + extra
    if isinstance(node, tuple):
        return tuple(shape_key(n, col, row, ref_type) for n in node)
    if is_dataclass(node):
        return (type(node).__name__,) + tuple(
            shape_key(getattr(node, f.name), col, row, ref_type) for f in fields(node)
        )
    return node


def max_chain_depth(deps: dict[str, list[str]]) -> int:
    """Longest chain of formula cells through references, found without recursion.

    A reference back onto the current path (a cycle) is not followed.
    """
    depth: dict[str, int] = {}
    for start in deps:
        if start in depth:
            continue
        stack = [(start, iter(deps[start]))]
        on_path = {start}
        while stack:
            cell, pending = stack[-1]
            for dep in pending:
                if dep in deps and dep not in depth and dep not in on_path:
                    stack.append((dep, iter(deps[dep])))
                    on_path.add(dep)
                    break
            else:
                stack.pop()
                on_path.discard(cell)
                depth[cell] = 1 + max((depth.get(d, 0) for d in deps[cell] if d in deps), default=0)
    return max(depth.values(), default=0)


def analyse(run: Run) -> tuple[list[Layout], dict[str, float]]:
    """Parse every formula once, untimed, for the structure the passes and properties need."""
    formula = run.program.formula
    layouts = []
    shapes = set()
    n_formulas = 0
    depth = 0
    for book in run.books:
        with open(run.path(book), newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        populated = {}
        formulas = []
        for r, row in enumerate(rows, start=1):
            for c, raw in enumerate(row, start=1):
                text = raw.strip()
                if text:
                    populated[c, r] = workloads.address(c, r)
                    if text.startswith("="):
                        formulas.append((c, r, text))
        ranges, calls, deps = [], defaultdict(list), {}
        for c, r, text in formulas:
            try:
                node = formula.parse(text)
            except formula.ParseError:
                continue
            shapes.add(shape_key(node, c, r, formula.CellRef))
            refs = []
            for sub in walk(node, formula.RangeRef):
                if isinstance(sub, formula.RangeRef):
                    ranges.append(sub)
                    c0, c1 = (workloads.column_index(x.column) for x in (sub.start, sub.end))
                    refs += [a for (cell_col, cell_row), a in populated.items()
                             if c0 <= cell_col <= c1 and sub.start.row <= cell_row <= sub.end.row]
                elif isinstance(sub, formula.CellRef):
                    refs.append(sub.address)
                elif isinstance(sub, formula.Call):
                    calls[sub.name.upper()].append(sub)
            deps[workloads.address(c, r)] = refs
        area = sum(
            (workloads.column_index(ref.end.column) - workloads.column_index(ref.start.column) + 1)
            * (ref.end.row - ref.start.row + 1)
            for ref in ranges
        )
        layouts.append(Layout(rows, [text for _, _, text in formulas], ranges, area, calls))
        n_formulas += len(formulas)
        depth = max(depth, max_chain_depth(deps))
    n_probe = len(run.workload.probe)
    properties = {
        "parser.formulas": n_formulas,
        "parser.distinct_shapes": len(shapes),
        "evaluator.max_chain_depth": depth,
        "sheet.range_area": sum(layout.area for layout in layouts),
        "workload.distinct_shape_share": len(shapes) / n_formulas if n_formulas else 0.0,
        "workload.anchored_share": n_probe / (n_probe + len(run.books)),
        "probe.anchored_books": n_probe,
    }
    return layouts, properties


def layer_passes(run: Run, layouts: list[Layout], gauge: Gauge, tracer: Tracer, ops) -> Counter:
    """Time each layer's public calls on every book; returns the counts the passes make."""
    audit, formula = run.program.audit, run.program.formula
    counts: Counter = Counter()
    settle()
    for book, layout in zip(run.books, layouts):
        gauge.maybe_sample()
        op = next(ops)
        with tracer.span("pass.parser", op):
            with tracer.span("parser.tokenize", op):
                for text in layout.texts:
                    try:
                        counts["parser.tokens"] += len(formula.tokenize(text))
                    except formula.ParseError:
                        pass
            with tracer.span("parser.parse", op):
                for text in layout.texts:
                    try:
                        formula.parse(text)
                    except formula.ParseError:
                        counts["parser.parse_errors"] += 1
        with tracer.span("pass.sheet", op):
            with tracer.span("sheet.load", op):
                formula.load_workbook(run.path(book))
            with tracer.span("sheet.build", op):
                sheet = formula.Sheet.from_rows(layout.rows, name=Path(book.name).stem)
            with tracer.span("sheet.range", op):
                for ref in layout.ranges:
                    for _ in sheet.range_addresses(ref):
                        counts["sheet.range_populated"] += 1
        with tracer.span("pass.evaluator", op):
            sheet = formula.Sheet.from_rows(layout.rows)
            with tracer.span("evaluator.eval_all", op):
                values = sheet.evaluate_all()
            counts["evaluator.cells"] += len(values)
            for value in values.values():
                if isinstance(value, formula.ErrorValue):
                    counts[f"evaluator.errors.{value.kind.value}"] += 1
            for name, calls in layout.calls.items():
                with tracer.span(f"evaluator.call.{name}", op):
                    for call in calls:
                        formula.evaluate(call, sheet)
                counts[f"evaluator.call.{name}"] += len(calls)
        with tracer.span("pass.audit", op):
            sheet = formula.Sheet.from_rows(layout.rows)
            with tracer.span("audit.rules", op):
                findings = audit.run_rules(sheet)
            with tracer.span("audit.render", op):
                run.program.render(findings, book.name)
            counts.update(f"audit.findings.{f.rule_id}" for f in findings)
            for rule in RULES:
                sheet = formula.Sheet.from_rows(layout.rows)
                config = audit.RuleConfig(enabled=frozenset({rule}))
                with tracer.span(f"audit.rule.{rule}", op):
                    audit.run_rules(sheet, config)
    gauge.sample()
    return counts


def measure_traced(run: Run, gauge: Gauge, seconds: float) -> tuple[dict[str, list[float]], Tracer]:
    """Traced and untraced in-process pipelines, then the per-layer passes, per iteration.

    Durations are rescaled once the run is over, when the calibrations after
    every span are known.
    """
    layouts, properties = analyse(run)
    tracer = Tracer()
    ops = itertools.count(1)
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        record = {}
        # Alternate which side of the overhead comparison runs first.
        sides = [("untraced", NullTracer()), ("traced", tracer)]
        if len(iterations) % 2:
            sides.reverse()
        for side, side_tracer in sides:
            mark = len(tracer.spans)
            record[side] = in_process(run, gauge, run.audit_op, side_tracer, ops)
            record[side] += in_process(run, gauge, run.eval_op, side_tracer, ops)
            record[f"{side}_spans"] = (mark, len(tracer.spans))
        mark = len(tracer.spans)
        counts = layer_passes(run, layouts, gauge, tracer, ops)
        record["pass_spans"] = (mark, len(tracer.spans))
        iterations.append(record)
    samples: dict[str, list[float]] = defaultdict(list)
    for record in iterations:
        for side in ("untraced", "traced"):
            samples[f"trace.{side}_s"].append(sum(gauge.scaled(*iv) for iv in record[side]))
        overhead = samples["trace.traced_s"][-1] - samples["trace.untraced_s"][-1]
        samples["trace.overhead_s"].append(overhead)
        selfs: dict[str, float] = defaultdict(float)
        for name, value in tracer.self_times(*record["traced_spans"], gauge.scaled).items():
            selfs[SELF_METRICS[name]] += value
        for metric in set(SELF_METRICS.values()):
            samples[metric].append(selfs[metric])
        totals = tracer.totals(*record["pass_spans"], gauge.scaled)
        for name in PASS_TIMES:
            samples[name].append(totals.get(name.removesuffix("_s"), 0.0))
    samples["trace.spans"] = [len(tracer.spans) / len(iterations)]
    formulas = properties["parser.formulas"]
    findings = sum(counts[f"audit.findings.{rule}"] for rule in RULES)
    area = properties["sheet.range_area"]
    derived = {
        **properties,
        **counts,
        "sheet.range_hit_ratio": counts["sheet.range_populated"] / area if area else 0.0,
        "workload.findings_per_formula": findings / formulas if formulas else 0.0,
        "probe.anchored_failed": probe(run),
    }
    for name, _ in PER_LAYER:
        if name not in samples:
            samples[name] = [derived.get(name, 0)]
    return samples, tracer


# entry points


def write(workload: workloads.Workload, directory: Path) -> None:
    for book in workload.books + workload.probe:
        path = directory / book.name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(book.csv_bytes())


def run_workload(
    program: Program, launcher: Launcher, name: str, seed: int, seconds: float, trace: bool
) -> dict:
    """One benchmark run; returns the result object plus sample counts."""
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = workloads.GENERATORS[name](seed)
        write(workload, run_dir)
        run = Run(workload, run_dir, program, launcher)
        gauge = Gauge()
        anchored_failed = 0
        if trace:
            samples, tracer = measure_traced(run, gauge, seconds)
            tracer.write(WORK / f"trace-{name}-{seed}.json")
            wanted = PER_LAYER
        else:
            samples = measure_end_to_end(run, gauge, seconds)
            anchored_failed = probe(run)
            if workload.probe:
                log(f"{name}: anchor probe: {anchored_failed} of {len(workload.probe)} "
                    "`$`-anchored books differ from the oracle")
            wanted = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {
        metric: {"value": statistics.median(samples[metric]), "unit": unit}
        for metric, unit in wanted
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    log(f"{name}: host speed {gauge.speed():.3f} of the reference")
    return {
        "result": result,
        "samples": {m: len(samples[m]) for m, _ in wanted},
        "anchored_failed_share": anchored_failed / (len(workload.probe) + len(workload.books)),
    }


def report(program: Program, launcher: Launcher, seed: int, seconds: float) -> None:
    """Every workload, both runs; prints end-to-end rows, per-layer columns and properties."""
    runs = {
        (name, trace): run_workload(program, launcher, name, seed, seconds, trace)
        for name in workloads.GENERATORS
        for trace in (False, True)
    }
    names = list(workloads.GENERATORS)
    columns = [f"{metric} [{unit}]" for metric, unit in END_TO_END]
    columns += ["failed_share [ratio]", "anchored_failed_share [ratio]"]
    print("end-to-end (median, n = samples)")
    print("\t".join(["workload", *columns]))
    for name in names:
        done = runs[name, False]
        result = done["result"]
        cells = [
            f"{result['metrics'][m]['value']:.6g} (n={done['samples'][m]})" for m, _ in END_TO_END
        ]
        cells.append(f"{result['failed'] / result['attempted']:.6g} ({result['attempted']} ops)")
        cells.append(f"{done['anchored_failed_share']:.6g}")
        print("\t".join([name, *cells]))
    print("\nper-layer (traced run, median)")
    print("\t".join(["metric [unit]", *names]))
    for metric, unit in PER_LAYER:
        values = [runs[name, True]["result"]["metrics"][metric]["value"] for name in names]
        print("\t".join([f"{metric} [{unit}]", *(f"{v:.6g}" for v in values)]))
    print("\nwhy each workload")
    for name in names:
        print(f"{name}: {workloads.WHY[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload, print tables")
    args = parser.parse_args(argv)
    if not (SRC / "ledgerlint" / "cli.py").is_file():
        log(f"error: no ledgerlint source tree at {SRC}")
        return 2
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")
    # One CPU for this process, the launcher and every child, so that the
    # calibrations measure the CPU the program runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher()  # first, while this process is still small
    try:
        program = Program()
        if args.report:
            report(program, launcher, args.seed, args.seconds)
            return 0
        done = run_workload(
            program, launcher, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        launcher.close()
    counts = sorted(set(done["samples"].values()))
    log(f"{args.workload}: {counts[0]} to {counts[-1]} samples per metric")
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
