"""Quivers, dimension vectors, Euler/Tits forms and Dynkin classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, TypeVar

from .errors import CyclicQuiver, DomainMismatch, NotEuclidean, ValidationError
from .linalg import RationalMatrix, kernel_basis


T = TypeVar("T")


class Frozen:
    """Base of immutable objects: every attribute is set once, in ``__init__``.

    A subclass with a ``_memo`` slot keeps the values it derives from itself
    through :meth:`cached`, for the life of the object.
    """

    __slots__ = ()

    def _init(self, **fields) -> None:
        for key, value in fields.items():
            object.__setattr__(self, key, value)

    def __setattr__(self, key, value):
        raise AttributeError("%s objects are immutable" % type(self).__name__)

    def __delattr__(self, key):
        raise AttributeError("%s objects are immutable" % type(self).__name__)

    def cached(self, key, compute: Callable[..., T]) -> T:
        """``compute(self)``, computed on the first request for ``key`` and
        kept on this object.  Nothing is kept when ``compute`` raises."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: int
    head: int


class Quiver(Frozen):
    """Finite directed multigraph without oriented cycles.

    Immutable.  Invariants derived from the quiver (its null root,
    reflection orders and neighbour lists) are computed on first request
    through :meth:`cached` and kept for the life of the object.
    """

    __slots__ = ("name", "vertices", "arrows", "arrow_by_name", "_memo")

    def __init__(self, vertices: Iterable[int], arrows: Iterable[Tuple[str, int, int]],
                 name: str = "Q"):
        vlist = [int(v) for v in vertices]
        if len(set(vlist)) != len(vlist):
            raise ValidationError("duplicate vertex ids")
        verts: Tuple[int, ...] = tuple(sorted(vlist))
        if any(v <= 0 for v in verts):
            raise ValidationError("vertex ids must be positive integers")
        arrs: Tuple[Arrow, ...] = tuple(Arrow(str(n), int(t), int(h)) for (n, t, h) in arrows)
        names = [a.name for a in arrs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate arrow names")
        vset = set(verts)
        for a in arrs:
            if a.tail not in vset or a.head not in vset:
                raise ValidationError("arrow %s references missing vertex" % a.name)
        self._init(name=name, vertices=verts, arrows=arrs,
                   arrow_by_name=MappingProxyType({a.name: a for a in arrs}), _memo={})
        self._topological_order()  # raises CyclicQuiver when impossible

    def neighbours(self, x: int) -> Tuple[int, ...]:
        """The other end of every arrow at x, one entry per arrow.  Reversing
        arrows leaves these lists unchanged."""
        return self.cached("neighbours", _neighbour_lists)[x]

    # -- structure ---------------------------------------------------------
    def arrows_into(self, x: int) -> List[Arrow]:
        return [a for a in self.arrows if a.head == x]

    def arrows_out_of(self, x: int) -> List[Arrow]:
        return [a for a in self.arrows if a.tail == x]

    def arrows_at(self, x: int) -> List[Arrow]:
        return [a for a in self.arrows if x in (a.tail, a.head)]

    def is_sink(self, x: int) -> bool:
        return not self.arrows_out_of(x)

    def is_source(self, x: int) -> bool:
        return not self.arrows_into(x)

    def sinks(self) -> List[int]:
        return [v for v in self.vertices if self.is_sink(v)]

    def sources(self) -> List[int]:
        return [v for v in self.vertices if self.is_source(v)]

    def _topological_order(self) -> List[int]:
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.head] += 1
        order = []
        ready = sorted(v for v, d in indeg.items() if d == 0)
        while ready:
            v = ready.pop(0)
            order.append(v)
            for a in self.arrows_out_of(v):
                indeg[a.head] -= 1
                if indeg[a.head] == 0:
                    ready.append(a.head)
            ready.sort()
        if len(order) != len(self.vertices):
            raise CyclicQuiver("quiver has an oriented cycle")
        return order

    def reverse_arrows_at(self, x: int) -> "Quiver":
        """The quiver with every arrow incident to x reversed, built on the
        first request and kept on this quiver; reversing it at x again
        gives back this quiver."""
        return self.cached(("reversed", x), lambda q: _reversed_at(q, x))

    def orientation_key(self) -> Tuple[Tuple[str, int, int], ...]:
        return tuple(sorted((a.name, a.tail, a.head) for a in self.arrows))

    def paths_from(self, x: int) -> Dict[int, List[Tuple[str, ...]]]:
        """All paths starting at x, grouped by end vertex, in lexicographic order.

        A path is the tuple of arrow names in traversal order; the empty
        tuple is the trivial path at x.
        """
        out: Dict[int, List[Tuple[str, ...]]] = {v: [] for v in self.vertices}
        stack: List[Tuple[int, Tuple[str, ...]]] = [(x, ())]
        while stack:
            v, path = stack.pop()
            out[v].append(path)
            nxt = sorted(self.arrows_out_of(v), key=lambda a: a.name, reverse=True)
            for a in nxt:
                stack.append((a.head, path + (a.name,)))
        for v in out:
            out[v].sort()
        return out

    def path_endpoints(self, path: Sequence[str]) -> Tuple[int, int]:
        if not path:
            raise ValidationError("trivial path has no fixed endpoints")
        first = self.arrow_by_name[path[0]]
        tail = first.tail
        head = first.head
        for name in path[1:]:
            a = self.arrow_by_name[name]
            if a.tail != head:
                raise ValidationError("non-composable path %r" % (tuple(path),))
            head = a.head
        return tail, head

    def __repr__(self):
        return "Quiver(%s: %d vertices, %d arrows)" % (self.name, len(self.vertices), len(self.arrows))


def _reversed_at(q: Quiver, x: int) -> Quiver:
    r = Quiver(q.vertices, [(a.name, a.head, a.tail) if x in (a.tail, a.head)
                            else (a.name, a.tail, a.head) for a in q.arrows], name=q.name)
    r._memo[("reversed", x)] = q
    return r


def _neighbour_lists(q: Quiver) -> Dict[int, Tuple[int, ...]]:
    nbrs: Dict[int, List[int]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        nbrs[a.tail].append(a.head)
        nbrs[a.head].append(a.tail)
    return {v: tuple(ws) for v, ws in nbrs.items()}


class DimensionVector(Frozen):
    """Integer-valued function on the vertex set.

    Immutable, so dimension vectors can be hashed, shared and kept in the
    invariants a quiver caches; ``values`` is a read-only view.
    """

    __slots__ = ("values", "_values")

    def __init__(self, values: Mapping[int, int]):
        vals = {int(k): int(v) for k, v in values.items()}
        object.__setattr__(self, "_values", vals)       # the hot constructor skips _init
        object.__setattr__(self, "values", MappingProxyType(vals))

    @classmethod
    def zero(cls, quiver: Quiver) -> "DimensionVector":
        return cls({v: 0 for v in quiver.vertices})

    def replace(self, x: int, value: int) -> "DimensionVector":
        """The same vector with the entry at x set to value."""
        vals = dict(self._values)
        vals[x] = value
        return DimensionVector(vals)

    def __getitem__(self, x: int) -> int:
        return self._values.get(x, 0)

    def __add__(self, other: "DimensionVector") -> "DimensionVector":
        keys = set(self._values) | set(other._values)
        return DimensionVector({k: self[k] + other[k] for k in keys})

    def scale(self, c: int) -> "DimensionVector":
        return DimensionVector({k: c * v for k, v in self._values.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DimensionVector):
            return NotImplemented
        a, b = self._values, other._values
        if a.keys() == b.keys():
            return a == b
        return all(self[k] == other[k] for k in set(a) | set(b))

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self._values.items() if v)))

    def support(self) -> List[int]:
        return sorted(k for k, v in self._values.items() if v)

    def as_tuple(self, vertices: Sequence[int]) -> Tuple[int, ...]:
        return tuple(self[v] for v in vertices)

    def __repr__(self):
        items = ", ".join("%d:%d" % (k, self._values[k]) for k in sorted(self._values))
        return "Dim(%s)" % items


@dataclass(frozen=True)
class GraphType:
    family: str  # 'A', 'D', 'E', 'Atilde', 'Dtilde', 'Etilde', 'Other'
    n: int

    def is_euclidean(self) -> bool:
        return self.family in ("Atilde", "Dtilde", "Etilde")

    def __str__(self):
        names = {"A": "DynkinA", "D": "DynkinD", "E": "DynkinE",
                 "Atilde": "EuclideanA", "Dtilde": "EuclideanD",
                 "Etilde": "EuclideanE", "Other": "Other"}
        if self.family == "Other":
            return "Other"
        return "%s(%d)" % (names[self.family], self.n)


def _undirected_degrees(q: Quiver) -> Dict[int, int]:
    deg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        deg[a.tail] += 1
        deg[a.head] += 1
    return deg


def _connected(q: Quiver) -> bool:
    if not q.vertices:
        return False
    seen = {q.vertices[0]}
    frontier = [q.vertices[0]]
    while frontier:
        v = frontier.pop()
        for a in q.arrows_at(v):
            for w in (a.tail, a.head):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return len(seen) == len(q.vertices)


def _arm_lengths(q: Quiver, center: int) -> List[int]:
    """Lengths of the tree arms hanging off a branch vertex."""
    lengths = []
    for a in sorted(q.arrows_at(center), key=lambda a: a.name):
        prev, cur = center, a.head if a.tail == center else a.tail
        steps = 1
        while True:
            nbrs = [b.head if b.tail == cur else b.tail for b in q.arrows_at(cur)]
            nxt = [w for w in nbrs if w != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            steps += 1
        lengths.append(steps)
    return sorted(lengths)


def validate_and_classify(q: Quiver) -> GraphType:
    """Shape of the underlying undirected multigraph, computed once per
    quiver object."""
    return q.cached("graph_type", _graph_type)


def _graph_type(q: Quiver) -> GraphType:
    nv = len(q.vertices)
    ne = len(q.arrows)
    if nv == 0 or not _connected(q):
        return GraphType("Other", 0)
    deg = _undirected_degrees(q)
    multi = any(
        sum(1 for b in q.arrows if {b.tail, b.head} == {a.tail, a.head}) > 1
        for a in q.arrows)
    if ne == nv - 1 and not multi:
        # tree shapes
        maxdeg = max(deg.values()) if deg else 0
        if maxdeg <= 2:
            return GraphType("A", nv)
        branch = [v for v in q.vertices if deg[v] >= 3]
        if len(branch) == 1 and deg[branch[0]] == 3:
            arms = _arm_lengths(q, branch[0])
            if arms[0] == 1 and arms[1] == 1:
                return GraphType("D", nv)
            if arms == [1, 2, 2]:
                return GraphType("E", 6)
            if arms == [1, 2, 3]:
                return GraphType("E", 7)
            if arms == [1, 2, 4]:
                return GraphType("E", 8)
            if arms == [2, 2, 2]:
                return GraphType("Etilde", 6)
            if arms == [1, 3, 3]:
                return GraphType("Etilde", 7)
            if arms == [1, 2, 5]:
                return GraphType("Etilde", 8)
            return GraphType("Other", 0)
        if len(branch) == 1 and deg[branch[0]] == 4 and nv == 5:
            return GraphType("Dtilde", 4)
        if len(branch) == 2 and all(deg[b] == 3 for b in branch):
            leaves = [v for v in q.vertices if deg[v] == 1]
            mids = [v for v in q.vertices if deg[v] == 2]
            leaf_nbrs = {b: 0 for b in branch}
            for leaf in leaves:
                nbr_arrow = q.arrows_at(leaf)[0]
                nbr = nbr_arrow.head if nbr_arrow.tail == leaf else nbr_arrow.tail
                if nbr in leaf_nbrs:
                    leaf_nbrs[nbr] += 1
            if (len(leaves) == 4 and len(mids) == nv - 6
                    and all(c == 2 for c in leaf_nbrs.values())):
                # two fork vertices with two leaves each, joined by a spine
                return GraphType("Dtilde", nv - 1)
        return GraphType("Other", 0)
    if ne == nv and all(d == 2 for d in deg.values()):
        return GraphType("Atilde", nv - 1)
    return GraphType("Other", 0)


def euler_matrix(q: Quiver) -> RationalMatrix:
    """Matrix E with <a,b> = a E b^t in the ascending-vertex basis."""
    verts = q.vertices
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    num = [int(i == j) for i in range(n) for j in range(n)]
    for a in q.arrows:
        num[idx[a.tail] * n + idx[a.head]] -= 1
    return RationalMatrix._from_ints(n, n, num)


def euler_form(q: Quiver, alpha: DimensionVector, beta: DimensionVector) -> int:
    """Sum over vertices of a(x)b(x) minus sum over arrows of a(ta)b(ha)."""
    vset = set(q.vertices)
    for v in alpha.values:
        if v not in vset:
            raise DomainMismatch("dimension vector uses unknown vertex %r" % v)
    for v in beta.values:
        if v not in vset:
            raise DomainMismatch("dimension vector uses unknown vertex %r" % v)
    total = sum(alpha[x] * beta[x] for x in q.vertices)
    total -= sum(alpha[a.tail] * beta[a.head] for a in q.arrows)
    return total


def tits_form(q: Quiver, alpha: DimensionVector) -> int:
    return euler_form(q, alpha, alpha)


def null_root(q: Quiver) -> DimensionVector:
    """Minimal positive radical vector of the Tits form on a Euclidean quiver.

    Solved once per quiver object; a non-Euclidean quiver raises on every call.
    """
    return q.cached("null_root", _solve_null_root)


def _solve_null_root(q: Quiver) -> DimensionVector:
    gt = validate_and_classify(q)
    if not gt.is_euclidean():
        raise NotEuclidean("null root requires a Euclidean underlying graph, got %s" % gt)
    e = euler_matrix(q)
    sym = e + e.transpose()
    kb = kernel_basis(sym)
    assert len(kb) == 1, "radical of a Euclidean Tits form is one-dimensional"
    v = kb[0]
    denom = math.lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if any(x < 0 for x in ints):
        ints = [-x for x in ints]
    assert all(x > 0 for x in ints)
    return DimensionVector({v: ints[i] for i, v in enumerate(q.vertices)})


def defect(q: Quiver, d: DimensionVector) -> int:
    """Pairing of the null root against d; zero exactly on regular vectors."""
    return euler_form(q, null_root(q), d)
