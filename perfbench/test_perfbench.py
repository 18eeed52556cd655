"""Self-test of the benchmark: determinism, the oracle, and the failure counter.

    python3 -m unittest perfbench/test_perfbench.py

It runs the workloads at small sizes against the source tree next to this
directory, plus one short contract run of run.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TINY = {
    "loanbook": lambda seed: workloads.loanbook(seed, rows=40),
    "trapmix": lambda seed: workloads.trapmix(seed, books=60),
    "sparse_wide": lambda seed: workloads.sparse_wide(seed, rows=300),
}


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.program = run.Program()
        cls.launcher = run.Launcher()
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.launcher.close()
        cls.tmp.cleanup()

    def run_for(self, workload: workloads.Workload) -> run.Run:
        directory = Path(tempfile.mkdtemp(dir=self.tmp.name))
        run.write(workload, directory)
        return run.Run(workload, directory, self.program, self.launcher)

    def all_ops(self, bench: run.Run) -> int:
        """Audit child, in-process audit and evaluation of every timed book; returns failures."""
        _, failed = bench.audit_child(bench.books)
        bench.tally(len(bench.books), failed)
        for book in bench.books:
            bench.audit_op(book, NullTracer())
            bench.eval_op(book, NullTracer())
        return bench.failed

    def test_same_seed_gives_identical_bytes(self):
        for name, make in TINY.items():
            first, again, other = make(7), make(7), make(8)
            data = [b.csv_bytes() for b in first.books + first.probe]
            self.assertEqual(data, [b.csv_bytes() for b in again.books + again.probe], name)
            self.assertNotEqual(data, [b.csv_bytes() for b in other.books + other.probe], name)

    def test_oracle_agrees_with_the_program_on_timed_books(self):
        for name, make in TINY.items():
            for seed in (1, 2):
                bench = self.run_for(make(seed))
                self.assertEqual(self.all_ops(bench), 0, f"{name} seed {seed}")
                self.assertEqual(bench.attempted, 3 * len(bench.books))

    def test_wrong_expectations_are_counted_as_failures(self):
        workload = TINY["trapmix"](3)
        first, second = workload.books[0], workload.books[1]
        first.findings.add(("R6", "Z99"))  # fails the audit child and the in-process audit
        cell = next(iter(second.values))
        second.values[cell] += 1.0  # fails the evaluation
        bench = self.run_for(workload)
        self.assertEqual(self.all_ops(bench), 3)
        loan = TINY["loanbook"](3)
        loan.books[0].errors["div0"] += 1
        bench = self.run_for(loan)
        self.assertEqual(self.all_ops(bench), 1)

    def test_anchor_probe_books_are_apart_from_timed_books(self):
        workload = TINY["trapmix"](4)
        self.assertTrue(workload.probe)
        self.assertTrue(all(book.anchored for book in workload.probe))
        self.assertFalse(any(book.anchored for book in workload.books))

    def test_chain_depth_follows_references_and_stops_at_cycles(self):
        chain = {"A1": [], "A2": ["A1"], "A3": ["A2", "B9"], "C1": ["C2"], "C2": ["C1"]}
        self.assertEqual(run.max_chain_depth(chain), 3)

    def test_self_times_subtract_children(self):
        tracer = Tracer()
        tracer.spans = [["op", 0.0, 10.0, None, 1], ["a", 1.0, 4.0, 0, 1], ["b", 5.0, 9.0, 0, 1]]
        selfs = tracer.self_times(0, 3, lambda start, end: end - start)
        self.assertEqual(dict(selfs), {"op": 3.0, "a": 3.0, "b": 4.0})

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(map(tuple, run.END_TO_END))
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(map(tuple, run.PER_LAYER))
        )
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(name, workloads.WHY[name]) for name in workloads.GENERATORS],
        )

    def test_contract_line(self):
        for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "sparse_wide",
                 "--seed", "5", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, check=True, timeout=170,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [name for name, _ in wanted])


if __name__ == "__main__":
    unittest.main()
