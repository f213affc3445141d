"""Self-tests of the benchmark harness (not of symquiv).

    python3 perfbench/selftest.py

Checks that input generation is deterministic for a seed, that a tampered
golden digest is counted as a failure, that the record drops only inputs
symquiv rejects, that the tracer restores every binding it replaced, and
that traced and untraced runs print the same bytes.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

import jobs as jobmod
import run
from tracer import Tracer

CLI = run.import_symquiv()[0]
with open(run.GOLDEN, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def small_jobs():
    """A few cheap jobs of every workload: short commands plus the smallest
    family and pencil points."""
    short = jobmod.schedule(jobmod.workload("short-commands", GOLDEN), 7)[0]
    family = [j for s in jobmod.workload("family-structure", GOLDEN)
              if "d01_3" in s.name for j in s.pool[:1]]
    pencil = [j for s in jobmod.workload("pencil-sweep", GOLDEN)
              if s.name.endswith(("sp 4,4", "o 4,4")) for j in s.pool[:1]]
    return short[:40] + family + pencil


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_selftest-")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_inputs_deterministic_for_seed(self):
        for name in jobmod.WORKLOADS:
            slots = jobmod.workload(name, GOLDEN)
            a = jobmod.schedule(slots, 3)
            b = jobmod.schedule(jobmod.workload(name, GOLDEN), 3)
            self.assertEqual([[j.key for j in p] for p in a], [[j.key for j in p] for p in b])
            keys = [j.key for p in a for j in p]
            self.assertEqual(len(keys), len(set(keys)), "a job repeats within a run")
            c = jobmod.schedule(slots, 4)
            self.assertNotEqual([j.key for j in a[0]], [j.key for j in c[0]])
        jobs = jobmod.schedule(jobmod.workload("short-commands", GOLDEN), 3)[0]
        p1 = jobmod.write_inputs(jobs, os.path.join(self.tmp, "a"))
        p2 = jobmod.write_inputs(jobs, os.path.join(self.tmp, "b"))
        self.assertEqual(p1.keys(), p2.keys())
        for spec in p1:
            with open(p1[spec]) as f1, open(p2[spec]) as f2:
                self.assertEqual(f1.read(), f2.read(), spec)

    def test_tampered_digest_counts_as_failure(self):
        jobs = small_jobs()[:12]
        paths = jobmod.write_inputs(jobs, self.tmp)
        digests = dict(GOLDEN["digests"])
        samples, failures = [], []
        run.run_pass(CLI, jobs, paths, digests, samples, failures)
        self.assertEqual(failures, [])
        code, sha = digests[jobs[5].key].split(":")
        digests[jobs[5].key] = "%s:%s" % (code, "0" * len(sha))
        samples, failures = [], []
        run.run_pass(CLI, jobs, paths, digests, samples, failures)
        self.assertEqual([f[0] for f in failures], [jobs[5].key])
        self.assertEqual(len(samples), len(jobs))

    def test_record_drops_only_rejected_inputs(self):
        odd = os.path.join(self.tmp, "odd.txt")
        with open(odd, "w") as fh:
            fh.write("0 1 2\n-1 0 3\n-2 -3 0\n")
        dig, why = run.record_job(CLI, ["pfaffian", "--matrix", odd])
        self.assertIsNone(dig)
        self.assertTrue(why.startswith("OddDimension"), why)
        with self.assertRaises(FileNotFoundError):
            run.record_job(CLI, ["pfaffian", "--matrix", odd + ".missing"])
        with self.assertRaises(SystemExit), redirect_stderr(io.StringIO()):
            run.record_job(CLI, ["pfaffian", "--no-such-option"])
        job = small_jobs()[0]
        paths = jobmod.write_inputs([job], self.tmp)
        self.assertEqual(run.record_job(CLI, jobmod.argv_of(job, paths)),
                         (GOLDEN["digests"][job.key], None))

    def test_tracer_restores_bindings(self):
        def snapshot():
            mods = {n: dict(vars(m)) for n, m in sys.modules.items()
                    if n == "symquiv" or n.startswith("symquiv.")}
            from symquiv.semiinvariant import GeneratorDescriptor
            return mods, dict(vars(GeneratorDescriptor))

        before = snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            import symquiv.linalg
            import symquiv.tame
            self.assertIsNot(symquiv.tame.null_root, before[0]["symquiv.tame"]["null_root"])
            self.assertIsNot(symquiv.linalg.pfaffian, before[0]["symquiv.linalg"]["pfaffian"])
        finally:
            tracer.uninstall()
        after = snapshot()
        self.assertEqual(before[1], after[1])
        self.assertEqual(before[0].keys(), after[0].keys())
        for mod in before[0]:
            for attr, val in before[0][mod].items():
                self.assertIs(after[0][mod][attr], val, "%s.%s" % (mod, attr))

    def test_traced_output_matches_untraced(self):
        jobs = small_jobs()
        paths = jobmod.write_inputs(jobs, self.tmp)
        plain = [run.run_job(CLI, jobmod.argv_of(j, paths))[:2] for j in jobs]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run.run_job(CLI, jobmod.argv_of(j, paths))[:2] for j in jobs]
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        for job, (code, out) in zip(jobs, plain):
            self.assertEqual(run.digest(code, out), GOLDEN["digests"][job.key], job.key)
        metrics = tracer.metrics(1.0)
        self.assertGreater(tracer.overhead_s(), 0)
        spans = os.path.join(self.tmp, "spans", "x.tsv")
        tracer.write_spans(spans)
        with open(spans) as fh:
            self.assertEqual(sum(1 for _ in fh), 1 + len(tracer.span_name))
        self.assertGreater(metrics["cli.cmd_pfaffian.calls"], 0)
        self.assertGreater(metrics["quiver.null_root.calls"], 0)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        added_by_run = {"input.quiver_reuse_frac", "trace.overhead_frac"}
        self.assertEqual(set(metrics) | added_by_run, declared)


if __name__ == "__main__":
    unittest.main()
