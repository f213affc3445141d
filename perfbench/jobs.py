"""Job pools of the three workloads, their seeded schedule and their input files.

A job is one ``symquiv`` command line.  Each workload is a set of *slots*
(``pfaffian n=12``, ``generators sp n=8``, ``classify`` ...); a slot owns a
pool of distinct jobs and takes ``count`` of them in every pass.  The pools
are built by deterministic code from a fixed pool seed plus the tables in
``golden.json`` (valid dimension vectors and admissible sinks, found once by
``run.py --record``).  A run's ``--seed`` permutes every pool and the order of
the jobs inside each pass, so pass ``k`` runs jobs no earlier pass ran: no
command repeats inside a run, and every job has a recorded output digest.

Input files are written by :func:`write_inputs`.  Quivers come from
``symquiv.families``; representations from ``random_structured``; generator
files from the generator enumerations; skew matrices from this module's own
random numbers.  The program then sees only those files and the argv.
Generator files do not depend on the run's seed and cost an enumeration, so
a run writes them once (:data:`SHARED_KINDS`); the other files are written
afresh for every pass.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

POOL_SEED = 1006_4378          # fixed: the pools, and so the golden record, never move
WORKLOADS = ("pencil-sweep", "family-structure", "short-commands")

# Quiver spec: (families constructor name, *args).  The Kronecker quiver of the
# tests' fixture a201_00.qv is ("a201", 0, 0); a201_22.qv is ("a201", 2, 2).
KRONECKER = ("a201", 0, 0)
A201_22 = ("a201", 2, 2)
FAMILY_QUIVERS = [("a201", 4, 2), ("a202", 4, 2), ("a02", 4, 2), ("a11", 2, 4),
                  ("a00", 4), ("d10", 3), ("d10", 4), ("d01", 3), ("d01", 4)]
SMALL_TAME = [("a201", 0, 0), ("a201", 2, 2), ("a02", 2, 2), ("a11", 0, 2),
              ("a00", 2), ("d10", 3), ("d01", 3)]
CHAINS = [("symmetric_a", n) for n in range(3, 10)]
CLASSIFY_QUIVERS = (
    [("symmetric_a", n) for n in range(2, 13)]
    + [("a201", k, l) for k in (0, 2, 4, 6) for l in (0, 2, 4, 6)]
    + [("a202", k, l) for k in (2, 4, 6) for l in (0, 2, 4, 6)]
    + [("a02", k, l) for k in (2, 4, 6) for l in (2, 4, 6)]
    + [("a11", k, l) for k in (0, 2, 4, 6) for l in (2, 4, 6)]
    + [("a00", k) for k in (2, 4, 6, 8)]
    + [("d10", n) for n in range(3, 9)] + [("d01", n) for n in range(3, 9)])
ORACLE_QUIVERS = [("symmetric_a", n) for n in range(2, 9)] + [("a201", 0, 0)]
FAMILY_COMMANDS = [("decompose", ["--mode", "plain"]), ("decompose", ["--mode", "sp"]),
                   ("decompose", ["--mode", "o"]), ("arcs", []),
                   ("generators", ["--flavor", "sp"]), ("generators", ["--flavor", "o"])]

MAX_PASSES = {"pencil-sweep": 6, "family-structure": 6, "short-commands": 24}
SHARED_KINDS = ("gens",)       # input files a run writes once, not once per pass


def qlabel(spec: Tuple) -> str:
    return "_".join(str(x) for x in spec)


@dataclass
class Job:
    key: str                      # unique, path-free description; golden record key
    argv: List[str]               # "@name" items are replaced by input file paths
    files: Dict[str, Tuple] = field(default_factory=dict)   # name -> input spec
    quiver: Optional[Tuple] = None
    size: Optional[int] = None    # point on the workload's scaling ladder


@dataclass
class Slot:
    name: str
    count: int                    # jobs taken per pass
    pool: List[Job]


# -- pools -------------------------------------------------------------------------

def _q(spec, off=0):
    return {"q": ("quiver", qlabel(spec), off)}


def _ql(spec, off) -> str:
    return qlabel(spec) + ("+%d" % off if off else "")


def _dims_str(vals) -> str:
    return ",".join(str(v) for v in vals)


def _nverts(spec) -> int:
    return len(build_quiver(qlabel(spec)).base.vertices)


def pencil_sweep(tables) -> List[Slot]:
    """Per sweep point, ``generators --check-invariance 1`` and ``evaluate`` of
    the enumerated generators at a seeded representation.  The invariance
    check only compares values with each other; the evaluate output puts the
    exact pencil determinants and Pfaffians of every point into the record.
    The ten cheapest points evaluate at two representations per pass: then a
    pass has 40 commands, so the three costliest points are under a tenth of
    them and p90 does not fall on the gap between them and the rest."""
    points = ([(KRONECKER, "sp", n) for n in (4, 6, 8, 10)]
              + [(KRONECKER, "o", n) for n in (4, 6, 8, 10, 14)]
              + [(A201_22, fl, m) for fl in ("sp", "o") for m in (1, 2, 3)])
    rng = random.Random(POOL_SEED)
    rep_rng = random.Random(POOL_SEED + 2)
    slots = []
    for spec, flavor, n in points:
        label = qlabel(spec)
        dim = _dims_str([n] * (2 if spec == KRONECKER else 6))
        name = "generators %s %s %s" % (label, flavor, dim)
        pool = []
        for _ in range(MAX_PASSES["pencil-sweep"]):
            s = rng.randrange(1, 10 ** 6)
            pool.append(Job(
                "%s inv1 seed%d" % (name, s),
                ["generators", "-q", "@q", "--dim", dim, "--flavor", flavor,
                 "--check-invariance", "1", "--seed", str(s)],
                _q(spec), (label, 0),
                n if spec == KRONECKER and flavor == "sp" and n >= 6 else None))
        slots.append(Slot(name, 1, pool))
        name = "evaluate %s %s %s" % (label, flavor, dim)
        count = 2 if spec == A201_22 or n <= 6 else 1
        pool = []
        for _ in range(count * MAX_PASSES["pencil-sweep"]):
            s = rep_rng.randrange(10 ** 6)
            pool.append(Job(
                "%s rep%d" % (name, s),
                ["evaluate", "-q", "@q", "--rep", "@w", "--gen-file", "@g"],
                dict(_q(spec), g=("gens", label, 0, dim, flavor),
                     w=("rep", label, 0, flavor, dim, s)),
                (label, 0)))
        slots.append(Slot(name, count, pool))
    return slots


def family_structure(tables) -> List[Slot]:
    slots = []
    for spec in FAMILY_QUIVERS:
        dims = tables["dims"][qlabel(spec)][:MAX_PASSES["family-structure"]]
        size = _nverts(spec) if spec[0] in ("d10", "d01") else None
        for cmd, extra in FAMILY_COMMANDS:
            name = " ".join([cmd, qlabel(spec)] + extra)
            pool = [Job("%s dim %s" % (name, d),
                        [cmd, "-q", "@q", "--dim", d] + extra, _q(spec),
                        (qlabel(spec), 0), size)
                    for d in dims]
            slots.append(Slot(name, 1, pool))
    return slots


def _sym_dim(rng, n, lo, hi):
    """Random dimension vector of symmetric_a(n) with d_i = d_(n+1-i)."""
    half = [rng.randint(lo, hi) for _ in range((n + 1) // 2)]
    return half + half[:n // 2][::-1]


def _partition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    vals = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return sorted((v for v in vals if v), reverse=True)


def short_commands(tables) -> List[Slot]:
    """Candidate jobs per slot; :func:`workload` keeps the recorded ones.

    Every job that reads a quiver gets its own copy with all vertex ids
    shifted by a random offset, so few commands of a run share a quiver
    value or text even though the shapes repeat."""
    rng = random.Random(POOL_SEED + 1)
    nverts = {qlabel(s): _nverts(s) for s in set(CLASSIFY_QUIVERS + CHAINS + SMALL_TAME)}
    small = CHAINS + SMALL_TAME
    slots: List[Slot] = []

    def job(key, argv, spec=None, off=0, **files):
        if spec is not None:
            files.update(_q(spec, off))
        return Job(key, argv, files, None if spec is None else (qlabel(spec), off))

    def pool_of(make, n=900):
        return [make() for _ in range(n)]

    def offset():
        return rng.randrange(1, 1000)

    def classify():
        s, off = rng.choice(CLASSIFY_QUIVERS), offset()
        return job("classify " + _ql(s, off), ["classify", "-q", "@q"], s, off)
    slots.append(Slot("classify", 6, pool_of(classify)))

    def euler():
        s, off = rng.choice(small), offset()
        a, b = (_dims_str(rng.randint(0, 4) for _ in range(nverts[qlabel(s)]))
                for _ in range(2))
        return job("euler %s %s %s" % (_ql(s, off), a, b),
                   ["euler", "-q", "@q", "--alpha", a, "--beta", b], s, off)
    slots.append(Slot("euler", 18, pool_of(euler)))

    sinks = tables["sinks"]
    reflectable = [s for s in small if sinks.get(qlabel(s))]

    def reflect():
        s, off = rng.choice(reflectable), offset()
        x = rng.choice(sinks[qlabel(s)]) + off
        mode = rng.choice(("none", "dim", "rep"))
        key = "reflect %s at%d" % (_ql(s, off), x)
        argv = ["reflect", "-q", "@q", "--at", str(x)]
        if mode == "none":
            return job(key, argv, s, off)
        dim = _pick_sym_dim(rng, s, tables)
        if mode == "dim":
            return job(key + " dim " + dim, argv + ["--dim", dim], s, off)
        flavor, seed = rng.choice(("sp", "o")), rng.randrange(10 ** 6)
        return job("%s rep %s %s %d" % (key, flavor, dim, seed),
                   argv + ["--rep", "@w"], s, off,
                   w=("rep", qlabel(s), off, flavor, dim, seed))
    slots.append(Slot("reflect", 15, pool_of(reflect)))

    def generators():
        s, off = rng.choice(CHAINS[:5]), offset()
        dim = _dims_str(_sym_dim(rng, s[1], 1, 2))
        flavor, k, seed = rng.choice(("sp", "o")), rng.choice((1, 2)), rng.randrange(10 ** 6)
        return job("generators %s %s %s inv%d seed%d"
                   % (_ql(s, off), flavor, dim, k, seed),
                   ["generators", "-q", "@q", "--dim", dim, "--flavor", flavor,
                    "--check-invariance", str(k), "--seed", str(seed), "--json-lines"],
                   s, off)
    slots.append(Slot("generators", 12, pool_of(generators)))

    gen_sets = [(("symmetric_a", n), fl, _dims_str(d)) for n, d in
                ((3, (2, 2, 2)), (4, (1, 2, 2, 1)), (5, (2, 1, 2, 1, 2)),
                 (6, (1, 2, 2, 2, 2, 1)), (7, (1, 1, 2, 2, 2, 1, 1)))
                for fl in ("sp", "o")]
    gen_sets += [(KRONECKER, "sp", "2,2"), (KRONECKER, "o", "2,2"),
                 (KRONECKER, "sp", "3,3"), (A201_22, "sp", "1,1,1,1,1,1"),
                 (("a02", 2, 2), "o", "2,2,2,2")]

    def evaluate():
        # two offsets only: each generator file costs an enumeration at set-up
        (s, flavor, dim), off = rng.choice(gen_sets), rng.choice((0, 500))
        seed = rng.randrange(10 ** 6)
        return job("evaluate %s %s %s %d" % (_ql(s, off), flavor, dim, seed),
                   ["evaluate", "-q", "@q", "--rep", "@w", "--gen-file", "@g"], s, off,
                   g=("gens", qlabel(s), off, dim, flavor),
                   w=("rep", qlabel(s), off, flavor, dim, seed))
    slots.append(Slot("evaluate", 18, pool_of(evaluate)))

    def oracle():
        s, off = rng.choice(ORACLE_QUIVERS), offset()
        nv = nverts[qlabel(s)]
        if s[0] == "symmetric_a":
            dim = _dims_str(_sym_dim(rng, nv, 1, 4))
            half = [rng.randint(-2, 2) for _ in range(nv // 2)]
            wt = half + ([0] if nv % 2 else []) + [-x for x in half[::-1]]
        else:
            p, t = rng.randint(1, 5), rng.randint(0, 4)
            dim, wt = "%d,%d" % (p, p), [t, -t]
        wt, flavor = _dims_str(wt), rng.choice(("sp", "o"))
        return job("oracle-dim %s %s %s %s" % (_ql(s, off), dim, flavor, wt),
                   ["oracle-dim", "-q", "@q", "--dim", dim, "--flavor", flavor,
                    "--weight=" + wt], s, off)      # "=": a weight may start with "-"
    slots.append(Slot("oracle-dim", 15, pool_of(oracle)))

    def lr():
        lam = _partition(rng, rng.randint(1, 6), 3)
        mu = _partition(rng, rng.randint(1, 6), 3)
        if rng.random() < 0.5:
            nu = _partition(rng, sum(lam) + sum(mu), 4)
        else:
            nu = sorted([a + b for a, b in zip(lam + [0] * 3, mu + [0] * 3)], reverse=True)
            nu = [x for x in nu if x]
        args = [_dims_str(lam), _dims_str(mu), _dims_str(nu)]
        return job("lr %s / %s / %s" % tuple(args),
                   ["lr", "--lambda", args[0], "--mu", args[1], "--nu", args[2]])
    slots.append(Slot("lr", 18, pool_of(lr)))

    for n in range(4, 26, 2):
        name = "pfaffian n=%d" % n
        pool = []
        for _ in range(4 * MAX_PASSES["short-commands"]):
            seed = rng.randrange(10 ** 9)
            pool.append(Job("pfaffian %d %d" % (n, seed), ["pfaffian", "--matrix", "@m"],
                            {"m": ("matrix", n, seed)}, size=n if n >= 14 else None))
        slots.append(Slot(name, 3, pool))

    def tame(cmd, modes):
        def make():
            s, off = rng.choice(SMALL_TAME), offset()
            d, extra = rng.choice(tables["dims"][qlabel(s)]), rng.choice(modes)
            return job(" ".join([cmd, _ql(s, off), d] + extra),
                       [cmd, "-q", "@q", "--dim", d] + extra, s, off)
        return make
    slots.append(Slot("decompose", 9, pool_of(
        tame("decompose", [["--mode", m] for m in ("plain", "sp", "o")]))))
    slots.append(Slot("arcs", 6, pool_of(tame("arcs", [[]]))))
    return slots


def _pick_sym_dim(rng, spec, tables) -> str:
    """A symmetric dimension vector: a recorded regular one on tame quivers,
    a random symmetric one on chains."""
    if spec[0] == "symmetric_a":
        return _dims_str(_sym_dim(rng, spec[1], 0, 3))
    return rng.choice(tables["dims"][qlabel(spec)])


POOL_MAKERS = {"pencil-sweep": pencil_sweep, "family-structure": family_structure,
            "short-commands": short_commands}


def workload(name: str, golden) -> List[Slot]:
    """The recorded pools of a workload: candidates in golden's record, each
    slot cut to what MAX_PASSES passes can use."""
    digests = golden["digests"]
    cap = MAX_PASSES[name]
    out = []
    for slot in POOL_MAKERS[name](golden["tables"]):
        seen = set()
        pool = []
        for job in slot.pool:
            if job.key in digests and job.key not in seen:
                seen.add(job.key)
                pool.append(job)
        out.append(Slot(slot.name, slot.count, pool[:cap * slot.count]))
    return out


def schedule(slots: List[Slot], seed: int) -> List[List[Job]]:
    """Passes for one run: pass k takes the k-th stretch of every slot's
    seeded permutation, in a seeded order; no job appears twice."""
    perms = []
    for slot in slots:
        pool = list(slot.pool)
        random.Random("%d:%s" % (seed, slot.name)).shuffle(pool)
        perms.append((slot.count, pool))
    passes = []
    k = 0
    while all(len(pool) >= (k + 1) * c for c, pool in perms):
        jobs = [j for c, pool in perms for j in pool[k * c:(k + 1) * c]]
        random.Random("%d:pass%d" % (seed, k)).shuffle(jobs)
        passes.append(jobs)
        k += 1
    return passes


# -- input files ----------------------------------------------------------------------

def _file_name(spec) -> str:
    ext = {"quiver": ".qv", "rep": ".rep", "matrix": ".txt", "gens": ".jsonl"}[spec[0]]
    return hashlib.sha1(repr(spec).encode()).hexdigest()[:16] + ext


def skew_matrix_text(n: int, seed: int) -> str:
    rng = random.Random(seed)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-9, 9)
            m[i][j], m[j][i] = x, -x
    return "".join(" ".join(str(x) for x in row) + "\n" for row in m)


def build_quiver(label: str, off: int = 0):
    """The families quiver named by ``label``, every vertex id shifted by ``off``."""
    from symquiv import families
    from symquiv.quiver import Quiver
    from symquiv.symmetric import SymmetricQuiver
    name, *args = label.split("_")
    if name == "symmetric":          # "symmetric_a_<n>"
        sq = families.symmetric_a(int(args[1]))
    else:
        sq = getattr(families, name)(*(int(a) for a in args))
    if not off:
        return sq
    q = sq.base
    return SymmetricQuiver(
        Quiver([v + off for v in q.vertices],
               [(a.name, a.tail + off, a.head + off) for a in q.arrows], name=q.name),
        {v + off: w + off for v, w in sq.sigma_v.items()}, sq.sigma_a)


def input_text(spec) -> str:
    from symquiv import io as sqio
    kind = spec[0]
    if kind == "matrix":
        return skew_matrix_text(spec[1], spec[2])
    sq = build_quiver(spec[1], spec[2])
    if kind == "quiver":
        return sqio.serialize_quiver(sq)
    if kind == "rep":
        from symquiv.representation import random_structured
        _, _, _, flavor, dim, seed = spec
        d = sqio.parse_dim_vector(dim, sq)
        return sqio.serialize_representation(random_structured(sq, flavor, d, seed))
    if kind == "gens":
        from symquiv.semiinvariant import generators_finite, generators_tame
        from symquiv.symmetric import classify_symmetric
        _, _, _, dim, flavor = spec
        d = sqio.parse_dim_vector(dim, sq)
        enum = generators_finite if classify_symmetric(sq).tag == "FiniteA" else generators_tame
        return "".join(sqio.descriptor_to_json(g) + "\n" for g in enum(sq, d, flavor))
    raise ValueError("unknown input spec %r" % (spec,))


def write_inputs(jobs: List[Job], workdir: str, kinds=None,
                 have: Optional[Dict[Tuple, str]] = None) -> Dict[Tuple, str]:
    """Write every input file the jobs name that ``have`` lacks (only files
    of ``kinds`` when given); return spec -> path, ``have`` included."""
    os.makedirs(workdir, exist_ok=True)
    paths: Dict[Tuple, str] = dict(have or {})
    for job in jobs:
        for spec in job.files.values():
            if spec in paths or (kinds is not None and spec[0] not in kinds):
                continue
            path = os.path.join(workdir, _file_name(spec))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(input_text(spec))
            paths[spec] = path
    return paths


def argv_of(job: Job, paths: Dict[Tuple, str]) -> List[str]:
    return [paths[job.files[a[1:]]] if a.startswith("@") else a for a in job.argv]
