"""Per-layer tracing of symquiv from outside the package.

:class:`Tracer` wraps the public functions listed in :data:`TRACED` by
rebinding each name in every ``symquiv.*`` module namespace that holds the
function (so ``from .x import y`` call sites are caught too), and patches
methods on their classes.  Every call opens a span; spans live in flat
arrays in memory (name, start, end, parent) and are aggregated and written
out when the traced pass ends.  :meth:`Tracer.uninstall` restores every
original binding.

Per-element methods (``RationalMatrix.__getitem__``, ``Fraction`` arithmetic)
are deliberately not wrapped, so the tracing overhead stays small.  It is
estimated in the same process (:meth:`Tracer.overhead_s`): the number of
spans times the cost of one wrapped no-op call, plus the measured time of the
per-call bookkeeping hooks.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

TRACED: Dict[str, List[str]] = {
    "linalg": ["determinant", "pfaffian", "rref", "kernel_basis", "solve",
               "interpolate_polynomial"],
    "quiver": ["null_root", "defect", "validate_and_classify"],
    "reflection": ["coxeter_dim"],
    "tame": ["tau_orbits", "canonical_decomposition", "generic_summands",
             "admissible_arcs", "realize_interval"],
    "semiinvariant": ["pencil_coefficients", "GeneratorDescriptor.evaluate",
                      "skew_normalize_template", "generators_tame", "generators_finite"],
    "presentation": ["evaluate_template", "minimal_presentation"],
    "symmetric": ["classify_symmetric"],
    "representation": ["random_structured", "random_group_element", "act"],
    "schur": ["weight_space_dim", "lr_coefficient"],
    "io": ["parse_quiver", "parse_representation", "parse_matrix",
           "descriptor_from_json", "descriptor_to_json"],
    "cli": ["cmd_classify", "cmd_euler", "cmd_reflect", "cmd_decompose", "cmd_arcs",
            "cmd_generators", "cmd_evaluate", "cmd_lr", "cmd_oracle_dim", "cmd_pfaffian"],
}

PFAFFIAN_SWITCH = 12          # linalg.pfaffian uses the matching sum up to this size


def _quiver_key(q) -> Tuple:
    return (q.vertices, q.orientation_key())


def _symmetric_key(sq) -> Tuple:
    return (_quiver_key(sq.base), tuple(sorted(sq.sigma_v.items())),
            tuple(sorted(sq.sigma_a.items())))


def _rep_key(w) -> Tuple:
    return (w.flavor, tuple(sorted(w.matrices.items())),
            tuple(sorted(w.fixed_matrices.items())))


def span_names() -> List[str]:
    return ["%s.%s" % (mod, fn) for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.index = {n: i for i, n in enumerate(self.names)}
        self._restore: List[Callable[[], None]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.distinct: Dict[str, set] = {}
        self.pf_sizes: Counter = Counter()
        self.generators_emitted = 0
        self.hook_s = 0.0                    # time spent in the bookkeeping hooks
        self._keep: List[object] = []        # pins objects whose id() is used in a key

    # -- install / uninstall --------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "symquiv" or n.startswith("symquiv."))]
        for mod_name, fns in TRACED.items():
            mod = sys.modules["symquiv." + mod_name]
            for fn in fns:
                name = "%s.%s" % (mod_name, fn)
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._restore.append(lambda c=cls, m=meth, o=orig: setattr(c, m, o))
                    continue
                orig = getattr(mod, fn)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append(
                                lambda m=m, a=attr, o=orig: setattr(m, a, o))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _hook(self, name: str) -> Optional[Callable]:
        """Per-call bookkeeping for the waste ratios, run before the span opens."""
        distinct = self.distinct
        if name == "quiver.null_root":
            seen = distinct.setdefault(name, set())
            return lambda a, k: seen.add(_quiver_key(a[0]))
        if name in ("tame.tau_orbits", "symmetric.classify_symmetric"):
            seen = distinct.setdefault(name, set())
            return lambda a, k: seen.add(_symmetric_key(a[0]))
        if name == "semiinvariant.pencil_coefficients":
            seen = distinct.setdefault(name, set())

            def pencil_point(a, k):
                self._keep.append(a[0])
                seen.add((id(a[0]), _rep_key(a[1])))
            return pencil_point
        if name == "linalg.pfaffian":
            sizes = self.pf_sizes
            return lambda a, k: sizes.update((a[0].rows,))
        return None

    def _wrap(self, name: str, orig: Callable, hooked: bool = True) -> Callable:
        idx = self.index[name]
        hook = self._hook(name) if hooked else None
        emits = name in ("semiinvariant.generators_tame", "semiinvariant.generators_finite")
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                t = perf_counter()
                hook(args, kwargs)
                tracer.hook_s += perf_counter() - t
            stack = tracer._stack
            sid = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(sid)
            tracer.span_start.append(perf_counter())
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.span_end[sid] = perf_counter()
                stack.pop()
            if emits:
                tracer.generators_emitted += len(out)
            return out

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", name)
        traced.__qualname__ = getattr(orig, "__qualname__", name)
        traced.__doc__ = getattr(orig, "__doc__", None)
        return traced

    # -- results --------------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, parent span (-1 for none),
        start and end in seconds from the first span's start."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write("%s\t%d\t%.9f\t%.9f\n" % (
                    self.names[self.span_name[i]], self.span_parent[i],
                    self.span_start[i] - t0, self.span_end[i] - t0))

    def overhead_s(self, reps: int = 20000) -> float:
        """Estimated seconds the tracing added to the traced code: spans times
        the cost one wrapper adds to a no-op call (best of five timings in
        this process), plus the time the hooks took."""
        def noop():
            return None

        wrapped = Tracer()._wrap(self.names[0], noop, hooked=False)
        best = float("inf")
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(reps):
                wrapped()
            t1 = perf_counter()
            for _ in range(reps):
                noop()
            t2 = perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / reps)
        return len(self.span_name) * max(best, 0.0) + self.hook_s

    def _cover(self, members) -> float:
        """Time under spans of ``members`` not nested in another such span."""
        member = [n in members for n in self.names]
        inside = bytearray(len(self.span_name))
        total = 0.0
        for i, nid in enumerate(self.span_name):
            p = self.span_parent[i]
            above = p >= 0 and inside[p]
            if member[nid] or above:
                inside[i] = 1
            if member[nid] and not above:
                total += self.span_end[i] - self.span_start[i]
        return total

    def metrics(self, traced_wall: float) -> Dict[str, float]:
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        child = [0.0] * len(self.span_name)
        for i in range(len(self.span_name) - 1, -1, -1):
            dur = self.span_end[i] - self.span_start[i]
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls[i]
            out[name + ".self_s"] = self_s[i]
        pf = self.pf_sizes
        out["linalg.pfaffian.calls.n_le_12"] = sum(c for s, c in pf.items()
                                                   if s <= PFAFFIAN_SWITCH)
        out["linalg.pfaffian.calls.n_gt_12"] = sum(c for s, c in pf.items()
                                                   if s > PFAFFIAN_SWITCH)

        def ratio(num, den):
            return num / den if den else 0.0

        c = dict(zip(self.names, calls))
        d = self.distinct
        for name in ("quiver.null_root", "tame.tau_orbits", "symmetric.classify_symmetric"):
            out[name + ".calls_per_quiver"] = ratio(c[name], len(d.get(name, ())))
        out["semiinvariant.pencil_coefficients.calls_per_point"] = ratio(
            c["semiinvariant.pencil_coefficients"],
            len(d.get("semiinvariant.pencil_coefficients", ())))
        out["semiinvariant.evaluate.calls_per_generator"] = ratio(
            c["semiinvariant.GeneratorDescriptor.evaluate"], self.generators_emitted)
        out["cover.null_root_frac"] = ratio(self._cover({"quiver.null_root"}), traced_wall)
        linalg = {nm for nm in self.names if nm.startswith("linalg.")}
        out["cover.linalg_pencil_frac"] = ratio(
            self._cover(linalg | {"semiinvariant.pencil_coefficients"}), traced_wall)
        return out

