"""Symmetric quivers: the involution, classification, orientation normal forms."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import (AsymmetricDimension, NotAdmissible, NotContravariant, NotFiniteType,
                     NotInvolutive, OddSymplecticDimension, PartitionViolation,
                     UnsupportedSymmetricType, ValidationError)
from .quiver import DimensionVector, Frozen, Quiver, validate_and_classify

SYMPLECTIC = "sp"
ORTHOGONAL = "o"
PARTS = ("v_plus", "v_fixed", "v_minus", "a_plus", "a_fixed", "a_minus")


@dataclass(frozen=True)
class SymmetricType:
    tag: str  # 'FiniteA', 'A201', 'A202', 'A02', 'A11', 'A00', 'D10', 'D01'
    s: int = 0
    t: int = 0
    k: int = 0
    l: int = 0
    n: int = 0

    def __str__(self):
        if self.tag == "FiniteA":
            return "FiniteA(%d)" % self.n
        if self.tag in ("D10", "D01"):
            return "%s(%d)" % (self.tag, self.n)
        return "%s k=%d l=%d" % (self.tag, self.k, self.l)


class SymmetricQuiver(Frozen):
    """A quiver with a contravariant involution on vertices and arrows.

    Immutable, like its base quiver; invariants derived from it (the
    symmetric type and the translation orbits) are kept per object through
    :meth:`cached`.
    """

    __slots__ = ("base", "sigma_v", "sigma_a", "v_plus", "v_fixed", "v_minus",
                 "a_plus", "a_fixed", "a_minus", "_memo")

    def __init__(self, base: Quiver, sigma_v: Mapping[int, int], sigma_a: Mapping[str, str]):
        self._init(base=base,
                   sigma_v=MappingProxyType({int(k): int(v) for k, v in sigma_v.items()}),
                   sigma_a=MappingProxyType({str(k): str(v) for k, v in sigma_a.items()}),
                   _memo={})
        self._validate()
        parts = self._partition()
        self._init(**{key: tuple(part) for key, part in zip(PARTS, parts)})

    # -- involution --------------------------------------------------------
    def sv(self, x: int) -> int:
        return self.sigma_v[x]

    def sa(self, a: str) -> str:
        return self.sigma_a[a]

    def sigma_path(self, path: Sequence[str]) -> Tuple[str, ...]:
        return tuple(self.sa(a) for a in reversed(tuple(path)))

    def _validate(self) -> None:
        q = self.base
        if sorted(self.sigma_v) != list(q.vertices):
            raise NotInvolutive("sigma must be defined on every vertex")
        if sorted(self.sigma_a) != sorted(a.name for a in q.arrows):
            raise NotInvolutive("sigma must be defined on every arrow")
        for x, y in self.sigma_v.items():
            if y not in set(q.vertices):
                raise NotInvolutive("sigma sends vertex %r outside the quiver" % x)
            if self.sigma_v[y] != x:
                raise NotInvolutive("sigma_v is not an involution at %r" % x)
        for a, b in self.sigma_a.items():
            if b not in q.arrow_by_name:
                raise NotInvolutive("sigma sends arrow %r outside the quiver" % a)
            if self.sigma_a[b] != a:
                raise NotInvolutive("sigma_a is not an involution at %r" % a)
        for a in q.arrows:
            img = q.arrow_by_name[self.sa(a.name)]
            if img.tail != self.sv(a.head) or img.head != self.sv(a.tail):
                raise NotContravariant(
                    "sigma(%s) must run from sigma(head) to sigma(tail)" % a.name)
            if self.sv(a.tail) == a.head and self.sa(a.name) != a.name:
                raise NotContravariant(
                    "arrow %s joins x to sigma(x) and must be sigma-fixed" % a.name)

    def _partition(self):
        """The positive part: the smallest admissible choice of one vertex
        per mirror pair, or, when there is none and sigma fixes nothing, the
        free central symmetry's choice.

        A choice is admissible when no arrow that sigma moves touches both
        sides; read it as the binary number whose bit i says "sigma(x_i) is
        positive", for the pairs x_i < sigma(x_i) in ascending order. It is
        built in linear time. The free vertices fall into components under
        the free arrows between them, sigma pairs component C with sigma(C),
        and each lies on one side. So none is admissible when some C holds
        x and sigma(x); else each pair {C, sigma(C)} owns its bits and
        clears the highest: the one holding the largest x < sigma(x) is
        positive."""
        q = self.base
        sv, sa = self.sigma_v, self.sigma_a
        v_fixed = sorted(x for x in q.vertices if sv[x] == x)
        a_fixed = sorted(a.name for a in q.arrows if sa[a.name] == a.name)
        near: Dict[int, List[int]] = {x: [] for x in q.vertices if sv[x] != x}
        for a in q.arrows:
            if a.tail in near and a.head in near and sa[a.name] != a.name:
                near[a.tail].append(a.head)
                near[a.head].append(a.tail)
        positive: Dict[int, bool] = {}      # x and sigma(x) are entered together
        crossed = False                     # some C holds x and sigma(x)
        for x in reversed(q.vertices):
            if x >= sv[x] or x in positive:
                continue
            positive[x], positive[sv[x]] = True, False
            todo = [x]
            while todo:
                for w in near[todo.pop()]:
                    if w not in positive:
                        positive[w], positive[sv[w]] = True, False
                        todo.append(w)
                    elif not positive[w]:
                        crossed = True
        if not crossed:
            plus = {x for x, side in positive.items() if side}
            aplus = sorted(a.name for a in q.arrows
                           if (a.tail in plus or a.head in plus) and sa[a.name] != a.name)
            return (sorted(plus), v_fixed, sorted(sv[x] for x in plus),
                    aplus, a_fixed, sorted(sa[a] for a in aplus))
        free_pairs = [(x, sv[x]) for x in q.vertices if x < sv[x]]
        if not v_fixed and not a_fixed:
            # free central symmetry on a cycle: crossing arrows are
            # unavoidable, so pick one arrow per orbit deterministically
            plus = {min(x, y) for x, y in free_pairs}
            aplus = []
            seen = set()
            for a in sorted(q.arrows, key=lambda a: a.name):
                if a.name in seen:
                    continue
                mirror = self.sa(a.name)
                seen.update({a.name, mirror})
                marr = q.arrow_by_name[mirror]

                def score(arr):
                    return (0 if arr.tail in plus else 1,
                            0 if arr.head in plus else 1, arr.name)

                aplus.append(min((a, marr), key=score).name)
            aminus = sorted(self.sa(a) for a in aplus)
            return (sorted(plus), v_fixed, sorted(self.sv(x) for x in plus),
                    sorted(aplus), a_fixed, aminus)
        raise PartitionViolation("no admissible positive part exists")

    # -- basic operations ----------------------------------------------------
    def delta(self, alpha: DimensionVector) -> DimensionVector:
        return DimensionVector({x: alpha[self.sv(x)] for x in self.base.vertices})

    def is_symmetric_dim(self, alpha: DimensionVector) -> bool:
        return self.delta(alpha) == alpha

    def check_point(self, beta: DimensionVector, flavor: str | None = None) -> None:
        """Raise unless beta is the dimension vector of a representation of
        the flavor (Derksen & Weyman): nonnegative, sigma-symmetric and, for
        sp, even at every sigma-fixed vertex.  Without a flavor the parity
        is not read.

        Every entry point that takes a dimension vector checks it here, in
        this order: an unknown flavor or a negative entry is a validation
        error (exit 2), an asymmetric vector or an odd sp dimension a
        precondition error (exit 4)."""
        if flavor not in (None, SYMPLECTIC, ORTHOGONAL):
            raise ValidationError("flavor must be 'sp' or 'o'")
        if any(x < 0 for x in beta.values.values()):
            raise ValidationError("beta must have nonnegative entries")
        if not self.is_symmetric_dim(beta):
            raise AsymmetricDimension("beta must be sigma-symmetric")
        if flavor == SYMPLECTIC:
            for x in self.v_fixed:
                if beta[x] % 2:
                    raise OddSymplecticDimension(
                        "symplectic dimension at fixed vertex %r must be even" % x)

    def with_base(self, new_base: Quiver) -> "SymmetricQuiver":
        return SymmetricQuiver(new_base, self.sigma_v, self.sigma_a)

    def __repr__(self):
        return "SymmetricQuiver(%r, fixed_v=%r, fixed_a=%r)" % (
            self.base, self.v_fixed, self.a_fixed)


def validate_symmetric(q: Quiver, sigma_v: Dict[int, int], sigma_a: Dict[str, str]):
    """Validate and return the symmetric quiver plus its canonical partitions."""
    sq = SymmetricQuiver(q, sigma_v, sigma_a)
    return sq, {key: list(getattr(sq, key)) for key in PARTS}


# -- weights ------------------------------------------------------------------

class Weight(Frozen):
    """Rational-valued weight vector on the vertices (denominators 1 or 2).
    Immutable: ``values`` is a read-only mapping."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, Fraction]):
        vals = {int(k): Fraction(v) for k, v in values.items()}
        for v in vals.values():
            if v.denominator not in (1, 2):
                raise ValidationError("weight entries must be integers or halves")
        self._init(values=MappingProxyType(vals))

    def __getitem__(self, x: int) -> Fraction:
        return self.values.get(x, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, dict):
            other = Weight(other)
        if not isinstance(other, Weight):
            return NotImplemented
        keys = set(self.values) | set(other.values)
        return all(self[k] == other[k] for k in keys)

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self.values.items() if v)))

    def __add__(self, other: "Weight") -> "Weight":
        keys = set(self.values) | set(other.values)
        return Weight({k: self[k] + other[k] for k in keys})

    def scale(self, c) -> "Weight":
        return Weight({k: Fraction(c) * v for k, v in self.values.items()})

    def halve(self) -> "Weight":
        return self.scale(Fraction(1, 2))

    def as_sorted_items(self):
        return tuple(sorted(self.values.items()))

    def character_key(self, sq) -> Tuple:
        """The underlying character: weight vectors are representatives, and
        only the exponent differences across mirror pairs are observable."""
        return tuple((x, self[x] - self[sq.sv(x)]) for x in sq.v_plus)

    def __repr__(self):
        body = ", ".join("%d:%s" % (k, v) for k, v in sorted(self.values.items()) if v)
        return "Weight(%s)" % body


# -- classification ----------------------------------------------------------

def _cycle_order(q: Quiver) -> List[Tuple[int, str, int]]:
    """Cyclic order of an A-tilde quiver: (vertex, arrow, +1/-1 direction)."""
    start = q.vertices[0]
    order = []
    prev_arrow = None
    v = start
    while True:
        arrows = [a for a in q.arrows_at(v) if a.name != prev_arrow]
        if prev_arrow is None:
            arrows = sorted(q.arrows_at(v), key=lambda a: a.name)[:1]
        a = arrows[0]
        direction = 1 if a.tail == v else -1
        order.append((v, a.name, direction))
        v = a.head if a.tail == v else a.tail
        prev_arrow = a.name
        if v == start:
            break
    return order


def _chain_vertices(sq: SymmetricQuiver) -> List[int]:
    """Vertices of an equioriented symmetric A_n from source to sink."""
    q = sq.base
    sources = q.sources()
    if len(sources) != 1:
        raise NotFiniteType("the equioriented orientation has a unique source")
    order = [sources[0]]
    while True:
        outs = q.arrows_out_of(order[-1])
        if not outs:
            break
        order.append(outs[0].head)
    if len(order) != len(q.vertices):
        raise NotFiniteType("underlying graph is not a chain")
    return order


def classify_symmetric(sq: SymmetricQuiver) -> SymmetricType:
    """Finite/tame family of a symmetric quiver, with the (s,t,k,l) signature.

    Computed once per symmetric quiver object; nothing is kept when the
    structure is unsupported, and every such call raises again.
    """
    return sq.cached("classify", _classify)


def _classify(sq: SymmetricQuiver) -> SymmetricType:
    gt = validate_and_classify(sq.base)
    s = len(sq.a_fixed)
    t = len(sq.v_fixed)
    if gt.family == "A":
        return SymmetricType("FiniteA", s=s, t=t, n=gt.n)
    if gt.family == "Atilde":
        order = _cycle_order(sq.base)
        dir_of = {name: d for (_, name, d) in order}
        counts = {1: 0, -1: 0}     # the arrows sigma moves, by direction on the cycle
        for name, d in dir_of.items():
            if name not in sq.a_fixed:
                counts[d] += 1
        if s == 2 and t == 0:
            f1, f2 = sq.a_fixed
            if dir_of[f1] == dir_of[f2]:
                # opposite-sense arrows form the k side
                k = counts[-dir_of[f1]]
                l = counts[dir_of[f1]]
                return SymmetricType("A202", s=s, t=t, k=k, l=l)
            kl = sorted(counts.values())
            return SymmetricType("A201", s=s, t=t, k=kl[0], l=kl[1])
        if s == 0 and t == 2:
            kl = sorted(counts.values())
            return SymmetricType("A02", s=s, t=t, k=kl[0], l=kl[1])
        if s == 1 and t == 1:
            f = sq.a_fixed[0]
            k = counts[dir_of[f]]
            l = counts[-dir_of[f]]
            return SymmetricType("A11", s=s, t=t, k=k, l=l)
        if s == 0 and t == 0:
            if counts[1] != counts[-1]:
                raise UnsupportedSymmetricType(
                    "central symmetry forces equally many arrows each way")
            return SymmetricType("A00", s=s, t=t, k=counts[1], l=counts[-1])
        raise UnsupportedSymmetricType("no tame symmetric structure with s=%d t=%d" % (s, t))
    if gt.family == "Dtilde":
        nv = len(sq.base.vertices)
        if s == 1 and t == 0 and nv % 2 == 0:
            return SymmetricType("D10", s=s, t=t, n=nv // 2)
        if s == 0 and t == 1 and nv % 2 == 1:
            return SymmetricType("D01", s=s, t=t, n=(nv + 1) // 2)
        raise UnsupportedSymmetricType("unsupported symmetric structure on D-tilde")
    raise UnsupportedSymmetricType("underlying graph %s is not symmetric finite or tame" % gt)


# -- admissible reflections ---------------------------------------------------

def admissible_sinks(sq: SymmetricQuiver) -> List[int]:
    """Sinks x with no arrow joining x and sigma(x)."""
    out = []
    for x in sq.base.sinks():
        partner = sq.sv(x)
        if partner == x:
            continue
        joined = any({a.tail, a.head} == {x, partner} for a in sq.base.arrows)
        if not joined:
            out.append(x)
    return sorted(out)


def reflect_pair_quiver(sq: SymmetricQuiver, x: int) -> SymmetricQuiver:
    """Reverse all arrows at the admissible sink x and at its source partner."""
    if x not in admissible_sinks(sq):
        raise NotAdmissible("vertex %r is not an admissible sink" % x)
    q1 = sq.base.reverse_arrows_at(x)
    q2 = q1.reverse_arrows_at(sq.sv(x))
    return sq.with_base(q2)


def is_canonical_orientation(sq: SymmetricQuiver) -> bool:
    """Normal-form test per family: equioriented A, single flow for A-tilde
    families (two flows for the reversed double-arrow family), equioriented
    spine with source leaves for D-tilde."""
    st = classify_symmetric(sq)
    q = sq.base
    sources, sinks = q.sources(), q.sinks()
    if st.tag == "FiniteA":
        return len(sources) == 1 and len(sinks) == 1
    if st.tag in ("A201", "A02", "A11", "A00"):
        return (len(sources) == 1 and len(sinks) == 1
                and sinks[0] == sq.sv(sources[0]))
    if st.tag == "A202":
        if len(sources) != 2 or len(sinks) != 2:
            return False
        # one fixed arrow runs source-to-sink, the leftover source mirrors to
        # the leftover sink
        for f in sq.a_fixed:
            arr = q.arrow_by_name[f]
            if arr.tail in sources and arr.head in sinks:
                others = [v for v in sources if v != arr.tail]
                if len(others) == 1 and sq.sv(others[0]) in sinks:
                    return True
        return False
    if st.tag in ("D10", "D01"):
        deg = {v: len(q.arrows_at(v)) for v in q.vertices}
        leaves = [v for v in q.vertices if deg[v] == 1]
        if len(sources) != 2 or any(v not in leaves for v in sources):
            return False
        if sorted(sinks) != sorted(sq.sv(v) for v in sources):
            return False
        # both source leaves hang off the same junction, and the spine has no
        # internal sinks or sources
        junctions = set()
        for v in sources:
            a = q.arrows_at(v)[0]
            junctions.add(a.head if a.tail == v else a.tail)
        if len(junctions) != 1:
            return False
        for v in q.vertices:
            if v in leaves:
                continue
            if q.is_sink(v) or q.is_source(v):
                return False
        return True
    return False


def normalize_orientation(sq: SymmetricQuiver):
    """Breadth-first search through admissible sink-source pair reflections
    until a canonical orientation is reached.

    Returns (word, canonical) where word lists (sink, source) pairs in the
    order applied.
    """
    classify_symmetric(sq)  # raises on unsupported structures
    start_key = sq.base.orientation_key()
    if is_canonical_orientation(sq):
        return [], sq
    seen = {start_key}
    queue = deque([(sq, [])])
    while queue:
        cur, word = queue.popleft()
        for x in admissible_sinks(cur):
            nxt = reflect_pair_quiver(cur, x)
            key = nxt.base.orientation_key()
            if key in seen:
                continue
            seen.add(key)
            nword = word + [(x, cur.sv(x))]
            if is_canonical_orientation(nxt):
                return nword, nxt
            queue.append((nxt, nword))
    raise UnsupportedSymmetricType("no canonical orientation reachable")
