"""symquiv benchmark: closed-loop runs of the ``symquiv`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread, one command at a time: every job calls
``symquiv.cli.main(argv)`` in this interpreter with stdout captured, and the
next job starts when it returns.  Set-up imports the package, builds the
run's schedule and writes the generator files the run needs (once); before
each pass (outside the pass time) the pass's other input files are written
under ``.perfbench_work/`` in the checkout (removed afterwards).  The run
executes passes (see ``jobs.py``) while a typical pass still fits in
``--seconds`` (always at least one); each job's exit code and stdout digest
are checked against ``golden.json``, recorded at the seed commit.
``setup_s`` is the median time of an import of symquiv, plus the time to
write the generator files, plus the median time to write one pass's other
inputs; the harness's own schedule building is left out.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pass 0
traced (``tracer.py``), prints the per-layer metrics and writes every span to
``.perfbench_spans/<workload>.tsv`` in the checkout.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a ``#`` line before it states the sample counts.

``--record`` rebuilds ``golden.json``: the tables the pools need and the
digest of every pooled job, from the checkout's current code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import jobs as jobmod
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

IMPORTS = 5                   # imports of symquiv timed per run for setup_s
# The speed of a shared host drifts by up to 2x within seconds.  Every timing
# is therefore bracketed by timings of a fixed reference task and reported at
# the speed of a host on which that task takes REF_S (see ``scaled``).
REF_S = 0.003
REF_EVERY_S = 0.25            # time the reference again after this much job time
UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
         "scaling_exp": "1", "peak_rss_mb": "MB"}


def reference_task() -> float:
    """Time a fixed piece of pure-Python work like symquiv's inner loops
    (exact fractions, dict and list updates), with the garbage collector off
    so that the program's heap does not change its cost; the median of three
    timings."""
    gc_on = gc.isenabled()
    gc.disable()
    secs = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 1500):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[i % 97] = [i, i * 3]
        secs.append(time.perf_counter() - t0)
    if gc_on:
        gc.enable()
    REF_TIMES.append(statistics.median(secs))
    return REF_TIMES[-1]


REF_TIMES: list = []


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` measured between two reference timings, at reference speed."""
    return seconds * 2 * REF_S / (ref_before + ref_after)


def import_symquiv(times: int = 1):
    """Import the checkout's own symquiv ``times`` times, dropping its modules
    from ``sys.modules`` in between, so that each import runs the package
    afresh.  Return ``symquiv.cli`` and the median import time (scaled);
    exit with a message when the tree has no symquiv."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "symquiv", "cli.py")):
        sys.exit("perfbench: no symquiv sources under %s" % src)
    sys.path.insert(0, src)
    secs = []
    for k in range(times):
        if k:
            for name in [n for n in sys.modules if n.split(".")[0] == "symquiv"]:
                del sys.modules[name]
        ref = reference_task()
        t0 = time.perf_counter()
        cli = importlib.import_module("symquiv.cli")
        secs.append(scaled(time.perf_counter() - t0, ref, reference_task()))
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit("perfbench: imported symquiv from %s, not from the checkout"
                 % cli.__file__)
    return cli, statistics.median(secs)


def run_job(cli, argv):
    """Run one command in-process; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:            # a traceback is a wrong answer, not a crash
            code = "exception %s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def digest(code, stdout: str) -> str:
    return "%s:%s" % (code, hashlib.sha256(stdout.encode()).hexdigest()[:16])


# -- measured run --------------------------------------------------------------------

def run_pass(cli, jobs, paths, digests, samples, failures):
    """Run the jobs one after the other; append ``(job, scaled seconds)`` to
    ``samples``.  The reference task is timed before the first job and again
    after every REF_EVERY_S of job time, and the jobs in between are scaled
    by the two timings around them.  Return the pass's summed job time, raw
    and scaled."""
    raw = total = 0.0
    pending, pending_s = [], 0.0
    ref = reference_task()
    for i, job in enumerate(jobs):
        code, out, err, dt = run_job(cli, jobmod.argv_of(job, paths))
        pending.append((job, dt))
        pending_s += dt
        if digest(code, out) != digests[job.key]:
            failures.append((job.key, code, err.strip().splitlines()[-1:]))
        if pending_s >= REF_EVERY_S or i == len(jobs) - 1:
            after = reference_task()
            samples.extend((j, scaled(d, ref, after)) for j, d in pending)
            raw += pending_s
            total += scaled(pending_s, ref, after)
            pending, pending_s, ref = [], 0.0, after
    return raw, total


def scaling_exponent(samples) -> float:
    """Least-squares slope of log(median time) against log(size) over the
    jobs that sit on the workload's scaling ladder."""
    by_size = {}
    for job, dt in samples:
        if job.size is not None:
            by_size.setdefault(job.size, []).append(dt)
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(args):
    cli, import_s = import_symquiv(IMPORTS)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = golden["digests"]

    base = os.path.join(ROOT, ".perfbench_work", "run-%d" % os.getpid())
    samples, failures, walls, raw_walls, pass_setups = [], [], [], [], []
    tracer = None
    try:
        passes = jobmod.schedule(jobmod.workload(args.workload, golden), args.seed)
        shared, shared_s = {}, 0.0
        for job in [j for p in passes for j in p]:
            if all(spec in shared or spec[0] not in jobmod.SHARED_KINDS
                   for spec in job.files.values()):
                continue
            ref = reference_task()
            t0 = time.perf_counter()
            shared = jobmod.write_inputs([job], os.path.join(base, "shared"),
                                         jobmod.SHARED_KINDS, shared)
            shared_s += scaled(time.perf_counter() - t0, ref, reference_task())
        t_run = time.perf_counter()
        for k, jobs in enumerate(passes):
            # start another pass only if a typical pass still fits in --seconds
            if k and (args.trace or time.perf_counter() - t_run
                      + statistics.median(raw_walls) > args.seconds):
                break
            workdir = os.path.join(base, "pass-%d" % k)
            ref = reference_task()
            t0 = time.perf_counter()
            paths = jobmod.write_inputs(jobs, workdir, have=shared)
            pass_setups.append(scaled(time.perf_counter() - t0, ref, reference_task()))
            gc.collect()
            if args.trace:
                tracer = Tracer()
                tracer.install()
            try:
                raw, wall = run_pass(cli, jobs, paths, digests, samples, failures)
                raw_walls.append(raw)
                walls.append(wall)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))
        except OSError:
            pass
    setup_s = import_s + shared_s + statistics.median(pass_setups)

    attempted, failed = len(samples), len(failures)
    seen, reused = set(), 0
    for job, _ in samples:
        if job.quiver is not None:
            reused += job.quiver in seen
            seen.add(job.quiver)
    reuse_frac = reused / attempted
    times = sorted(dt for _, dt in samples)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    p90_beyond = sum(1 for t in times if t > p90)
    print("# workload=%s seed=%d passes=%d commands=%d failed_frac=%.6f "
          "input.quiver_reuse_frac=%.4f cmd_p50/p90 over %d samples, %d beyond p90; "
          "reference task median %.3f ms (scaled to %.1f ms), raw wall_s %.4f"
          % (args.workload, args.seed, len(walls), attempted, failed / attempted,
             reuse_frac, attempted, p90_beyond, 1000 * statistics.median(REF_TIMES),
             1000 * REF_S, statistics.median(raw_walls)))
    for key, code, err in failures[:5]:
        print("# FAILED %s: exit %s %s" % (key, code, " ".join(err)), file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics(raw_walls[0])
        metrics["input.quiver_reuse_frac"] = reuse_frac
        # the wrappers' own time, taken out of the traced pass, estimates the
        # untraced pass; overhead_frac = traced / untraced - 1
        overhead_s = tracer.overhead_s()
        metrics["trace.overhead_frac"] = overhead_s / (raw_walls[0] - overhead_s)
        spans = os.path.join(ROOT, ".perfbench_spans", args.workload + ".tsv")
        tracer.write_spans(spans)
        print("# %d spans written to %s" % (len(tracer.span_name),
                                            os.path.relpath(spans, ROOT)))
        units = {}
        for name in metrics:
            units[name] = ("s" if name.endswith("_s") else
                           "count" if name.endswith(("calls", "n_le_12", "n_gt_12"))
                           else "ratio")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cmd_p50_ms": 1000 * statistics.median(times),
            "cmd_p90_ms": 1000 * p90,
            "scaling_exp": scaling_exponent(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


# -- golden record -------------------------------------------------------------------

def record_tables(cli):
    """Valid regular dimension vectors per tame quiver and admissible sinks."""
    import random
    from symquiv.quiver import DimensionVector, null_root
    from symquiv.symmetric import admissible_sinks
    from symquiv.tame import tau_orbits

    dims = {}
    workdir = os.path.join(ROOT, ".perfbench_work", "record")
    wants = [(s, jobmod.MAX_PASSES["family-structure"]) for s in jobmod.FAMILY_QUIVERS]
    wants += [(s, 10) for s in jobmod.SMALL_TAME if s not in jobmod.FAMILY_QUIVERS]
    for spec, want in wants:
        label = jobmod.qlabel(spec)
        sq = jobmod.build_quiver(label)
        verts = sq.base.vertices
        h = null_root(sq.base)
        elems = [e for poly in tau_orbits(sq).polygons for e in poly.dims]
        rng = random.Random(label)
        qspec = ("quiver", label, 0)
        qpath = jobmod.write_inputs([jobmod.Job("", [], {"q": qspec})], workdir)[qspec]
        found, tried = [], set()
        for attempt in range(60):
            p = 1 + attempt % 3 if attempt < 30 else rng.randint(1, 2)
            beta = DimensionVector.zero(sq.base)
            for _ in range(rng.randint(0, 2) if attempt >= 3 and elems else 0):
                beta = beta + rng.choice(elems)
            d = h.scale(p) + beta + sq.delta(beta)
            text = ",".join(str(d[v]) for v in verts)
            if text in tried:
                continue
            tried.add(text)
            ok = all(record_job(cli, [cmd, "-q", qpath, "--dim", text] + extra)[0]
                     for cmd, extra in jobmod.FAMILY_COMMANDS)
            if ok:
                found.append(text)
                if len(found) == want:
                    break
        dims[label] = found
        print("dims %s: %d" % (label, len(found)), file=sys.stderr)
    sinks = {}
    for spec in jobmod.CHAINS + jobmod.SMALL_TAME:
        sinks[jobmod.qlabel(spec)] = admissible_sinks(jobmod.build_quiver(jobmod.qlabel(spec)))
    return {"dims": dims, "sinks": sinks}


def record_job(cli, argv):
    """Run one candidate job for the record, as ``cli.main`` would without its
    mapping of errors to exit codes.  Return ``(digest, None)`` when the
    command succeeds and ``(None, reason)`` when symquiv rejects its input
    with a ``SymquivError``.  Anything else (a traceback, a usage error, a
    failed invariance check or another non-zero exit) is a defect, not an
    invalid input: it stops the record instead of leaving the pools."""
    from symquiv.errors import SymquivError
    args = cli.build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = args.func(args)
    except SymquivError as exc:
        return None, reason_of(exc)
    if code != 0:
        sys.exit("perfbench --record: %s exited %s: %s"
                 % (" ".join(argv), code, err.getvalue().strip()))
    return digest(code, out.getvalue()), None


def reason_of(exc) -> str:
    """An error's class and message, numbers blanked so that equal reasons group."""
    return re.sub(r"\d+", "#", "%s: %s" % (type(exc).__name__, exc))


def record():
    """Record every pooled job's digest, and per slot how many candidates were
    kept and why the others were dropped (``meta.pools`` of golden.json).
    The tables of an existing golden.json are kept, so re-recording at a
    later commit leaves the pools unchanged."""
    cli = import_symquiv()[0]
    from symquiv.errors import SymquivError
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            tables = json.load(fh)["tables"]
    else:
        tables = record_tables(cli)
        write_golden({}, tables, {})
    digests, pools, shared = {}, {}, {}
    workdir = os.path.join(ROOT, ".perfbench_work", "record")
    try:
        for name in jobmod.WORKLOADS:
            for slot in jobmod.POOL_MAKERS[name](tables):
                need = jobmod.MAX_PASSES[name] * slot.count
                got, dropped = 0, Counter()
                for job in slot.pool:
                    if got == need:
                        break
                    if job.key in digests:
                        continue            # the pool drew the same job twice
                    try:
                        paths = jobmod.write_inputs([job], workdir, have=shared)
                    except SymquivError as exc:   # e.g. odd symplectic dims
                        dropped["input " + reason_of(exc)] += 1
                        continue
                    shared.update((spec, path) for spec, path in paths.items()
                                  if spec[0] in jobmod.SHARED_KINDS)
                    dig, why = record_job(cli, jobmod.argv_of(job, paths))
                    if dig is None:
                        dropped[why] += 1
                        continue
                    digests[job.key] = dig
                    got += 1
                pools["%s / %s" % (name, slot.name)] = {
                    "kept": got, "wanted": need, "dropped": dict(dropped)}
                print("%s / %s: %d of %d, %d dropped" % (
                    name, slot.name, got, need, sum(dropped.values())), file=sys.stderr)
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"), ignore_errors=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    write_golden({"git_sha": sha, "python": platform.python_version(),
                  "nproc": os.cpu_count(), "pools": pools}, tables, digests)
    return 0


def write_golden(meta, tables, digests):
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "tables": tables, "digests": digests}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=jobmod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rebuild golden.json")
    args = ap.parse_args(argv)
    if args.record:
        return record()
    if not args.workload:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
