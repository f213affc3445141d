"""Regular dimension-vector combinatorics for tame symmetric quivers:
translation orbits, labelled polygons, admissible arcs, and the plain,
symplectic and orthogonal generic decompositions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import IndexOutOfOrbit, NotRegular, ParityViolation, UnsupportedSymmetricType
from .linalg import RationalMatrix, solve
from .presentation import PathCombo, PathMatrix, _frozen_grid, module_from_presentation
from .quiver import DimensionVector, Quiver, defect, null_root
from .reflection import (MINUS, PLUS, _apply_word, _coxeter_word, coxeter_dim,
                         coxeter_rep, dual_rep)
from .representation import Representation
from .symmetric import SYMPLECTIC, SymmetricQuiver, _cycle_order, classify_symmetric


@dataclass(frozen=True)
class Polygon:
    name: str
    dims: Tuple[DimensionVector, ...]    # tau-plus cyclic order
    sigma: Optional[Tuple[int, ...]]     # index involution, None when paired away
    partner: Optional[str] = None        # polygon carrying the delta images

    @property
    def rank(self) -> int:
        return len(self.dims)

    def interval_sum(self, start: int, length: int) -> DimensionVector:
        acc = None
        for k in range(length):
            e = self.dims[(start + k) % self.rank]
            acc = e if acc is None else acc + e
        assert acc is not None
        return acc


@dataclass(frozen=True)
class TauOrbits:
    sq: SymmetricQuiver
    polygons: List[Polygon]

    def by_name(self, name: str) -> Polygon:
        for p in self.polygons:
            if p.name == name:
                return p
        raise IndexOutOfOrbit("no polygon named %r" % name)


@dataclass(frozen=True)
class Arc:
    polygon: str
    start: int
    end: int          # closed ascending cyclic interval [start, end]
    length: int       # number of indices covered
    ind: int
    q: int
    symmetric: bool
    wrap: bool = False  # anchored full circuit rather than a proper interval


@dataclass
class LabelledPolygon:
    polygon: Polygon
    labels: List[int]


def _regular_simple_roots(q: Quiver) -> List[Tuple[int, ...]]:
    """The positive real roots below h, other than h, with zero defect, as
    int tuples in ``q.vertices`` order.

    Every positive real root is reached from a simple root by simple
    reflections that each raise one coordinate (Kac 1980), so every root on
    the way lies below the last one, and the search upward from the simple
    roots, cut at h, finds every real root of the box [0, h].  On a
    Euclidean quiver those are exactly its vectors of Tits form 1 (Dlab &
    Ringel 1976).  The defect is linear, with coefficients h(x) minus the
    sum of h over the tails of arrows into x.
    """
    verts = q.vertices
    n = len(verts)
    h = null_root(q).as_tuple(verts)
    pos = {v: i for i, v in enumerate(verts)}
    arrows = [(pos[a.tail], pos[a.head]) for a in q.arrows]
    coeffs = [h[i] - sum(h[t] for t, s in arrows if s == i) for i in range(n)]
    # the simple reflections, each with the neighbours of its vertex
    word = _coxeter_word(q, PLUS)
    seen = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for j, adj in word:
            y = -x[j]                                # s_j(x) at j
            for k in adj:
                y += x[k]
            if x[j] < y <= h[j]:
                z = x[:j] + (y,) + x[j + 1:]
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return [x for x in seen if x != h and sum(map(mul, coeffs, x)) == 0]


def tau_orbits(sq: SymmetricQuiver) -> TauOrbits:
    """Orbits of the translation on nonhomogeneous simple regular dimension
    vectors, anchored and oriented deterministically.

    Computed once per symmetric quiver object; the polygons are frozen, and
    each call returns its own list of them.
    """
    return TauOrbits(sq, list(sq.cached("tau_orbits", _polygons)))


def _polygons(sq: SymmetricQuiver) -> Tuple[Polygon, ...]:
    """The polygons of :func:`tau_orbits`.  The orbits are walked on int
    tuples in ``q.vertices`` order; dimension vectors are built only for the
    polygons handed out."""
    st = classify_symmetric(sq)
    if st.tag == "FiniteA":
        raise UnsupportedSymmetricType("translation orbits need a tame quiver")
    q = sq.base
    verts = q.vertices
    h = null_root(q).as_tuple(verts)
    word = _coxeter_word(q, PLUS)
    candidates = set(_regular_simple_roots(q))
    orbits: List[List[Tuple[int, ...]]] = []
    seen = set()
    for alpha in sorted(candidates):
        if alpha in seen:
            continue
        orbit = [alpha]
        seen.add(alpha)
        cur = alpha
        while True:
            cur = tuple(_apply_word(word, list(cur)))
            if cur == alpha:
                break
            if cur not in candidates or len(orbit) > len(candidates):
                orbit = None
                break
            orbit.append(cur)
            seen.add(cur)
        if orbit is None:
            continue
        if tuple(map(sum, zip(*orbit))) == h:
            orbits.append(orbit)
    orbits.sort(key=lambda o: (-len(o), o[0]))
    # delta on tuples: position i reads the position of sigma of vertex i
    pos = {v: i for i, v in enumerate(verts)}
    perm = [pos[sq.sv(v)] for v in verts]

    def delta(x: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(x[j] for j in perm)

    names = ["delta", "delta1", "delta2"]
    polygons: List[Polygon] = []
    for oi, orbit in enumerate(orbits):
        # locate the delta image of the orbit
        img = delta(orbit[0])
        target = next((oj for oj, other in enumerate(orbits) if img in other), None)
        assert target is not None, "delta must permute the orbits"
        if target != oi:
            polygons.append(Polygon(names[oi], _dimension_vectors(verts, orbit), None,
                                    partner=names[target]))
            continue
        # rotate a self-paired polygon so the anchor pole sits at index 0
        r = len(orbit)
        sigma = _index_involution(delta, orbit)
        fixed = [i for i in range(r) if sigma[i] == i]
        if fixed:
            anchor = min(fixed, key=orbit.__getitem__)
        else:
            edges = [i for i in range(r) if sigma[i] == (i + 1) % r]
            anchor = min(edges, key=orbit.__getitem__)
        rotated = orbit[anchor:] + orbit[:anchor]
        sigma = _index_involution(delta, rotated)
        polygons.append(Polygon(names[oi], _dimension_vectors(verts, rotated), sigma))
    return tuple(polygons)


def _dimension_vectors(verts: Sequence[int],
                       tuples: Sequence[Tuple[int, ...]]) -> Tuple[DimensionVector, ...]:
    return tuple(DimensionVector(dict(zip(verts, x))) for x in tuples)


def _index_involution(delta, dims: List[Tuple[int, ...]]) -> Tuple[int, ...]:
    return tuple(dims.index(delta(e)) for e in dims)


# -- canonical decomposition ---------------------------------------------------

@dataclass
class CanonicalDecomposition:
    p: int
    labelled: List[LabelledPolygon]


def canonical_decomposition(sq: SymmetricQuiver, d: DimensionVector) -> CanonicalDecomposition:
    """Unique expression of a regular symmetric vector as a multiple of the
    null root plus labelled orbit contributions, normalized so every orbit
    has a zero label.  Since sigma permutes the orbit elements, the
    expression of a symmetric vector is its own mirror image: mirrored
    labels agree."""
    q = sq.base
    sq.check_point(d)
    if defect(q, d) != 0:
        raise NotRegular("the input vector has nonzero defect")
    orbits = tau_orbits(sq)
    h = null_root(q)
    columns: List[DimensionVector] = [h]
    owners: List[Tuple[int, int]] = [(-1, -1)]
    for pi, poly in enumerate(orbits.polygons):
        for i in range(poly.rank - 1):  # drop the last element of each orbit
            columns.append(poly.dims[i])
            owners.append((pi, i))
    verts = list(q.vertices)
    mat = RationalMatrix.from_rows([col.as_tuple(verts) for col in columns]).transpose()
    rhs = [Fraction(d[v]) for v in verts]
    sol = solve(mat, rhs)
    if sol is None:
        raise NotRegular("vector is outside the regular lattice")
    p = sol[0]
    raw: Dict[int, List[Fraction]] = {pi: [Fraction(0)] * poly.rank
                                      for pi, poly in enumerate(orbits.polygons)}
    for val, (pi, i) in zip(sol[1:], owners[1:]):
        raw[pi][i] = val
    labelled = []
    for pi, poly in enumerate(orbits.polygons):
        vals = raw[pi]
        shift = min(vals)
        vals = [v - shift for v in vals]
        p = p + shift
        if any(v.denominator != 1 or v < 0 for v in vals):
            raise NotRegular("orbit labels are not nonnegative integers")
        labelled.append(LabelledPolygon(poly, [int(v) for v in vals]))
    if p.denominator != 1 or p < 0:
        raise NotRegular("the null-root multiplicity is not a nonnegative integer")
    return CanonicalDecomposition(int(p), labelled)


# -- arcs ------------------------------------------------------------------------

def _cyclic_interval(start: int, length: int, r: int) -> List[int]:
    return [(start + k) % r for k in range(length)]


def admissible_arcs(lp: LabelledPolygon) -> List[Arc]:
    """Runs of the peeling procedure plus the index-zero arcs.

    Runs carry the multiplicities of the generic decomposition; equal-label
    edges and the arcs whose interior labels are all positive index extra
    generators with multiplicity zero.
    """
    poly = lp.polygon
    labels = lp.labels
    r = poly.rank
    arcs: Dict[Tuple[int, int], Arc] = {}
    if r == 0:
        return []
    maxlab = max(labels) if labels else 0
    run_count: Dict[Tuple[int, int], int] = {}
    for level in range(1, maxlab + 1):
        marked = [lab >= level for lab in labels]
        if all(marked):
            raise NotRegular("labels must vanish somewhere on each polygon")
        for s in range(r):
            if marked[s] and not marked[(s - 1) % r]:
                length = 0
                while marked[(s + length) % r]:
                    length += 1
                run_count[(s, length)] = run_count.get((s, length), 0) + 1
    for (s, length), q in run_count.items():
        ind = min(labels[(s + k) % r] for k in range(length))
        sym = _is_symmetric_interval(poly, s, length)
        arcs[(s, length)] = Arc(poly.name, s, (s + length - 1) % r, length, ind, q, sym)
    # equal-label edges
    if r >= 2:
        for i in range(r):
            j = (i + 1) % r
            if labels[i] == labels[j]:
                key = (i, 2)
                if key not in arcs:
                    arcs[key] = Arc(poly.name, i, j, 2, labels[i], 0,
                                    _is_symmetric_interval(poly, i, 2))
    # index-zero arcs with strictly positive interior
    for s in range(r):
        if labels[s] != 0:
            continue
        for length in range(1, r + 1):
            e = (s + length - 1) % r
            if labels[e] != 0:
                continue
            interior = [(s + k) % r for k in range(1, length - 1)]
            wrap = length == 1
            if wrap:
                interior = [(s + k) % r for k in range(1, r)]
            if interior and all(labels[k] > 0 for k in interior):
                key = (s, r if wrap else length)
                if key not in arcs:
                    arcs[key] = Arc(poly.name, s, (s + (key[1]) - 1) % r, key[1],
                                    0, 0, _is_symmetric_interval(poly, s, key[1]),
                                    wrap=wrap)
    out = sorted(arcs.values(), key=lambda a: (a.start, a.length))
    return out


def _is_symmetric_interval(poly: Polygon, start: int, length: int) -> bool:
    if poly.sigma is None:
        return False
    idx = set(_cyclic_interval(start, length, poly.rank))
    return idx == {poly.sigma[i] for i in idx}


# -- generic decompositions -------------------------------------------------------

@dataclass
class Summand:
    dim: DimensionVector
    mult: int
    recipe: Tuple


def _polygon_partial(lp: LabelledPolygon) -> DimensionVector:
    poly = lp.polygon
    acc = poly.dims[0].scale(0)
    for i, lab in enumerate(lp.labels):
        acc = acc + poly.dims[i].scale(lab)
    return acc


def generic_decomposition(sq: SymmetricQuiver, d: DimensionVector, mode: str):
    """Summands of the generic, symplectic-generic or orthogonal-generic
    decomposition, as (dimension vector, multiplicity) pairs.

    Internal recipes for module realization ride along on the summand
    records returned by :func:`generic_summands`.
    """
    return [(s.dim, s.mult) for s in generic_summands(sq, d, mode)]


def generic_summands(sq: SymmetricQuiver, d: DimensionVector, mode: str) -> List[Summand]:
    sq.check_point(d, None if mode == "plain" else mode)
    dec = canonical_decomposition(sq, d)
    h = null_root(sq.base)
    out: List[Summand] = []
    h_budget = dec.p
    for lp in dec.labelled:
        poly = lp.polygon
        if poly.partner is not None and poly.partner < poly.name:
            continue  # the mirror polygon repeats the same arcs
        arcs = [a for a in admissible_arcs(lp) if a.q > 0]
        sym_arcs = [a for a in arcs if a.symmetric]
        asym_arcs = [a for a in arcs if not a.symmetric]
        emitted_mirrors = set()
        for arc in asym_arcs:
            if poly.sigma is not None:
                # each arc strictly inside a half pairs with its mirror image
                mstart = poly.sigma[arc.end]
                if (mstart, arc.length) in emitted_mirrors:
                    continue
                emitted_mirrors.add((arc.start, arc.length))
            ivl = poly.interval_sum(arc.start, arc.length)
            mirror = sq.delta(ivl)
            out.append(Summand(ivl + mirror, arc.q,
                               ("pair", poly.name, arc.start, arc.length)))
        if not sym_arcs:
            continue
        if mode == "plain":
            for arc in sym_arcs:
                out.append(Summand(poly.interval_sum(arc.start, arc.length), arc.q,
                                   ("symarc", poly.name, arc.start, arc.length)))
            continue
        # group the symmetric arcs by their pole, at twice the middle index
        # (an even centre is a vertex pole, an odd one the edge after it),
        # and apply the pairing rules
        by_centre: Dict[int, List[Arc]] = {}
        for arc in sym_arcs:
            centre = (2 * arc.start + arc.length - 1) % (2 * poly.rank)
            by_centre.setdefault(centre, []).append(arc)
        partial = _polygon_partial(lp)
        for centre, group in sorted(by_centre.items()):
            group.sort(key=lambda a: -a.length)  # outermost first
            e = poly.dims[centre // 2]
            # sp substitutes at a vertex pole that meets a sigma-fixed
            # vertex; o never does there, and elsewhere it does when the
            # first sigma-fixed arrow the pole meets has an even partial sum
            # at its tail
            if centre % 2 == 0 and any(e[x] for x in sq.v_fixed):
                substitute = mode == SYMPLECTIC
            elif mode == SYMPLECTIC:
                substitute = False
            else:
                arrow = next((a for a in map(sq.base.arrow_by_name.get, sq.a_fixed)
                              if e[a.tail] or e[a.head]), None)
                substitute = arrow is not None and partial[arrow.tail] % 2 == 0
            if not substitute:
                for arc in group:
                    out.append(Summand(poly.interval_sum(arc.start, arc.length), arc.q,
                                       ("symarc", poly.name, arc.start, arc.length)))
                continue
            expanded: List[Arc] = []
            for arc in group:
                expanded.extend([arc] * arc.q)
            if len(expanded) % 2 == 1:
                if h_budget == 0:
                    raise ParityViolation(
                        "an odd stack of symmetric arcs needs a null-root summand")
                h_budget -= 1
                inner = expanded[0]
                out.append(Summand(h + poly.interval_sum(inner.start, inner.length), 1,
                                   ("hmerge", poly.name, inner.start, inner.length)))
                expanded = expanded[1:]
            for t in range(0, len(expanded), 2):
                outer, inner = expanded[t], expanded[t + 1]
                # cross pairing: inner start to mirrored outer end, and back
                r = poly.rank
                cross1_start = inner.start
                cross1_len = (outer.end - inner.start) % r + 1
                cross1 = poly.interval_sum(cross1_start, cross1_len)
                cross2 = sq.delta(cross1)
                out.append(Summand(cross1 + cross2, 1,
                                   ("cross", poly.name, cross1_start, cross1_len)))
    for t in range(h_budget):
        out.append(Summand(h, 1, ("h", t)))
    return out


# -- family path data and pencils ------------------------------------------------

@dataclass(frozen=True)
class Pencil:
    """Immutable, like ``PathMatrix``: tuples of rows, columns and signs,
    read-only entries.  The pencil of a quiver is kept on it and shared."""
    quiver: Quiver
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    phi_entries: Tuple[Tuple[PathCombo, ...], ...]
    psi_entries: Tuple[Tuple[PathCombo, ...], ...]
    const_entries: Tuple[Tuple[PathCombo, ...], ...]
    signs: Tuple[int, ...] = ()    # one sign (1 or -1) per row, or none

    def __post_init__(self):
        for name in ("rows", "cols", "signs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("phi_entries", "psi_entries", "const_entries"):
            object.__setattr__(self, name, _frozen_grid(getattr(self, name)))

    def combine(self, phi: Fraction, psi: Fraction) -> PathMatrix:
        """The template phi * phi_entries + psi * psi_entries + const_entries,
        with row r multiplied by signs[r] when the pencil has signs."""
        entries = []
        for r in range(len(self.rows)):
            flip = bool(self.signs) and self.signs[r] == -1
            row = []
            for c in range(len(self.cols)):
                combo: dict = {}
                for src, coeff in ((self.phi_entries[r][c], phi),
                                   (self.psi_entries[r][c], psi),
                                   (self.const_entries[r][c], 1)):
                    for p, v in src.items():
                        combo[p] = combo.get(p, 0) + coeff * v
                row.append({p: -v if flip else v for p, v in combo.items() if v})
            entries.append(row)
        return PathMatrix(self.quiver, self.rows, self.cols, entries)


def _zeros(rows, cols):
    return [[dict() for _ in cols] for _ in rows]


def _single(rows, cols, r, c, path, coeff=1):
    grid = _zeros(rows, cols)
    grid[r][c] = {tuple(path): Fraction(coeff)}
    return grid


def _no_pencil(why: str) -> UnsupportedSymmetricType:
    return UnsupportedSymmetricType("no pencil for this orientation: " + why)


def _unique_path(q: Quiver, src: int, dst: int) -> Tuple[str, ...]:
    paths = [p for p in q.paths_from(src)[dst] if p]
    if not paths:
        raise _no_pencil("no path from %r to %r" % (src, dst))
    return paths[0]


def _visits(q: Quiver, path, start) -> List[int]:
    verts = [start]
    cur = start
    for name in path:
        cur = q.arrow_by_name[name].head
        verts.append(cur)
    return verts


def pencil_templates(sq: SymmetricQuiver) -> Pencil:
    """The coefficient-family pencil of the canonical tame orientation, and
    of some others; UnsupportedSymmetricType for the rest.

    Built once per symmetric quiver object and kept on it; the pencil is
    frozen, so every caller reads the same one.  An orientation without a
    pencil keeps nothing and raises on every call.
    """
    return sq.cached("pencil", _pencil)


def _pencil(sq: SymmetricQuiver) -> Pencil:
    """The pencil of :func:`pencil_templates`."""
    st = classify_symmetric(sq)
    q = sq.base
    if st.tag in ("D10", "D01"):
        sources = q.sources()
        if len(sources) != 2:
            raise _no_pencil("%d sources, not 2" % len(sources))
        t1, t2 = sorted(sources)
        a = q.arrows_out_of(t1)[0]
        b = q.arrows_out_of(t2)[0]
        j0 = a.head
        if b.head != j0:
            raise _no_pencil("sources %r and %r do not meet at one vertex" % (t1, t2))
        cbar = _unique_path(q, j0, sq.sv(j0)) if sq.sv(j0) != j0 else ()
        sa = sq.sa(a.name)
        sb = sq.sa(b.name)
        rows = [sq.sv(t1), sq.sv(t2)]
        cols = [t1, t2]
        p_aa = (a.name,) + cbar + (sa,)
        p_ab = (b.name,) + cbar + (sa,)
        p_ba = (a.name,) + cbar + (sb,)
        p_bb = (b.name,) + cbar + (sb,)
        phi = _single(rows, cols, 0, 0, p_aa)
        psi = _single(rows, cols, 1, 1, p_bb)
        const = _zeros(rows, cols)
        const[0][1] = {p_ab: Fraction(1)}
        const[1][0] = {p_ba: Fraction(1)}
        return Pencil(q, rows, cols, phi, psi, const)
    if st.tag == "A202":
        fixed = [q.arrow_by_name[n] for n in sq.a_fixed]
        sources = q.sources()
        sinks = q.sinks()
        a0 = next((s for s in sources if sq.sv(s) in sinks and q.paths_from(s)[sq.sv(s)]),
                  None)
        if a0 is None:
            raise _no_pencil("no source reaches its mirror")
        abar = _unique_path(q, a0, sq.sv(a0))
        on_path = set(abar)
        f_b = next(f for f in fixed if f.name not in on_path)
        y = f_b.head
        cbar = _unique_path(q, a0, y) if y != a0 else ()
        rows = [sq.sv(a0), y]
        cols = [a0, sq.sv(y)]
        phi = _single(rows, cols, 0, 0, abar)
        psi = _single(rows, cols, 1, 1, (f_b.name,))
        const = _zeros(rows, cols)
        const[0][1] = {sq.sigma_path(cbar): Fraction(1)} if cbar else {(): Fraction(1)}
        const[1][0] = {tuple(cbar): Fraction(1)} if cbar else {(): Fraction(1)}
        return Pencil(q, rows, cols, phi, psi, const)
    # remaining A-families: one source, one sink, two boundary paths
    sources = q.sources()
    if len(sources) != 1:
        raise _no_pencil("%d sources, not 1" % len(sources))
    s = sources[0]
    t = sq.sv(s)
    paths = [p for p in q.paths_from(s)[t] if p]
    if len(paths) != 2:
        raise _no_pencil("%d paths from %r to %r, not 2" % (len(paths), s, t))
    p1, p2 = sorted(paths)
    rows = [t]
    cols = [s]
    if st.tag == "A11":
        through_fixed_vertex = None
        for p in (p1, p2):
            if any(v in sq.v_fixed for v in _visits(q, p, s)):
                through_fixed_vertex = p
        if through_fixed_vertex is None:
            raise _no_pencil("no path through the fixed vertex")
        pa = through_fixed_vertex
        pb = p1 if pa == p2 else p2
    elif st.tag in ("A201", "A02", "A00"):
        pa, pb = p1, p2
    else:
        raise UnsupportedSymmetricType("no pencil for %s" % st)
    psi = _single(rows, cols, 0, 0, pa)
    phi = _single(rows, cols, 0, 0, pb)
    return Pencil(q, rows, cols, phi, psi, _zeros(rows, cols))


def pf_singleton_template(sq: SymmetricQuiver) -> PathMatrix:
    """The skew single-block template of the free central symmetry family,
    built once per symmetric quiver object and kept on it."""
    assert classify_symmetric(sq).tag == "A00"
    return sq.cached("pf_singleton",
                     lambda sq: pencil_templates(sq).combine(Fraction(1), Fraction(1)))


# -- string and tree modules ------------------------------------------------------

def _window_matches(sq, order, pos, length, target: DimensionVector) -> bool:
    m = len(order)
    counts: Dict[int, int] = {v: 0 for v in sq.base.vertices}
    for z in range(pos, pos + length):
        counts[order[z % m][0]] += 1
    return all(counts[v] == target[v] for v in sq.base.vertices)


def _find_tiling(sq, poly: Polygon):
    """Offsets realizing the polygon's orbit as consecutive windows on the
    universal cover of the cycle: the elements rho, rho + eps, ... fill the
    windows that follow each other from position s of the cycle order.

    Each element is thin on one arc, read off where the arc starts, and the
    arcs tile the cycle. s is the smallest start, rho its element, and eps
    is +1 when the arc of rho + 1 starts where the arc of rho ends."""
    order = _cycle_order(sq.base)
    m = len(order)
    r = poly.rank
    lens = [sum(e.values.values()) for e in poly.dims]
    starts = []
    for e, length in zip(poly.dims, lens):
        inside = [e[v] > 0 for v, _, _ in order]
        pos = next((z for z in range(m) if inside[z] and not inside[z - 1]), None)
        if pos is None or not _window_matches(sq, order, pos, length, e):
            raise IndexOutOfOrbit("no string tiling found for polygon %s" % poly.name)
        starts.append(pos)
    s = min(starts)
    rho = starts.index(s)
    eps = 1 if starts[(rho + 1) % r] == (s + lens[rho]) % m else -1
    return order, s, rho, eps


def _string_module(sq, order, a: int, b: int) -> Representation:
    """Pushdown of the interval [a, b] on the covering line."""
    q = sq.base
    m = len(order)
    positions = list(range(a, b + 1))
    by_vertex: Dict[int, List[int]] = {v: [] for v in q.vertices}
    for z in positions:
        by_vertex[order[z % m][0]].append(z)
    dim = DimensionVector({v: len(by_vertex[v]) for v in q.vertices})
    nums = {arrow.name: [0] * (dim[arrow.head] * dim[arrow.tail]) for arrow in q.arrows}
    for z in range(a, b):
        v, arrow_name, direction = order[z % m]
        arrow = q.arrow_by_name[arrow_name]
        if direction == 1:
            src, dst = z, z + 1
        else:
            src, dst = z + 1, z
        nums[arrow_name][by_vertex[arrow.head].index(dst) * dim[arrow.tail]
                         + by_vertex[arrow.tail].index(src)] = 1
    return Representation(q, dim, {
        arrow.name: RationalMatrix._from_ints(dim[arrow.head], dim[arrow.tail], nums[arrow.name])
        for arrow in q.arrows})


def _tree_module(sq, target: DimensionVector) -> Optional[Representation]:
    q = sq.base
    if any(v not in (0, 1) for v in target.values.values()):
        return None
    support = set(target.support())
    if not support:
        return None
    # connectivity of the support
    seen = {min(support)}
    frontier = [min(support)]
    while frontier:
        v = frontier.pop()
        for a in q.arrows_at(v):
            for w in (a.tail, a.head):
                if w in support and w not in seen:
                    seen.add(w)
                    frontier.append(w)
    if seen != support:
        return None
    return Representation.thin(q, support)


def _pencil_module(template: PathMatrix) -> Representation:
    """The module presented by a template of the pencil family, whose
    dimension is the null root."""
    mod = module_from_presentation(template)
    assert mod.dim == null_root(template.quiver), "pencil module off the null root"
    return mod


def _dtilde_wrap_template(sq, poly: Polygon) -> PathMatrix:
    pen = pencil_templates(sq)
    if poly.name == "delta":
        return pen.combine(Fraction(1), Fraction(1))
    assert poly.sigma is not None
    all_fixed = all(poly.sigma[i] == i for i in range(poly.rank))
    full = pen.combine(Fraction(1), Fraction(1))
    entries = [[dict(full.entries[r][c]) for c in range(2)] for r in range(2)]
    if all_fixed:
        entries[1][0] = {}
    else:
        entries[0][0] = {}
    return PathMatrix(full.quiver, full.rows, full.cols, entries)


def realize_interval(sq: SymmetricQuiver, poly_name: str, start: int,
                     length: int) -> Representation:
    """The regular module whose dimension is a consecutive orbit sum."""
    st = classify_symmetric(sq)
    poly = tau_orbits(sq).by_name(poly_name)
    r = poly.rank
    if st.tag.startswith("A"):
        order, s, rho, eps = sq.cached(("tiling", poly_name), lambda sq: _find_tiling(sq, poly))
        lens = [sum(e.values.values()) for e in poly.dims]
        prefix = [0]
        for t in range(r):
            idx = (rho + eps * t) % r
            prefix.append(prefix[-1] + lens[idx])
        windows = [(start + k) % r for k in range(length)]
        t0 = (windows[0] - rho) % r if eps == 1 else (rho - windows[-1]) % r
        a = s + prefix[t0]
        b = a + sum(lens[w] for w in windows) - 1
        mod = _string_module(sq, order, a, b)
        expected = poly.interval_sum(start, length)
        assert mod.dim == expected, "string tiling mismatch"
        return mod
    # D-tilde families
    if length >= r:
        if length == r:
            return _pencil_module(_dtilde_wrap_template(sq, poly))
        raise IndexOutOfOrbit("intervals beyond one full turn are not realized here")
    target = poly.interval_sum(start, length)
    shifted = target
    for shift in range(2 * r + 1):
        if shift:
            shifted = coxeter_dim(sq.base, shifted, PLUS)
        mod = _tree_module(sq, shifted)
        if mod is not None:
            for _ in range(shift):
                mod = coxeter_rep(sq.base, mod, MINUS)
            assert mod.dim == target
            return mod
    raise IndexOutOfOrbit("no tree realization of the requested interval")


def realize_summand(sq: SymmetricQuiver, summand: Summand) -> Representation:
    """A module of the summand's dimension, per the recipe attached to it."""
    kind = summand.recipe[0]
    if kind == "h":
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        phi = primes[summand.recipe[1] % len(primes)]
        return _pencil_module(pencil_templates(sq).combine(Fraction(phi), Fraction(1)))
    _, poly_name, start, length = summand.recipe
    if kind == "symarc":
        return realize_interval(sq, poly_name, start, length)
    if kind in ("pair", "cross"):
        half = realize_interval(sq, poly_name, start, length)
        return half.direct_sum(dual_rep(sq, half))
    if kind == "hmerge":
        poly = tau_orbits(sq).by_name(poly_name)
        return realize_interval(sq, poly_name, start, length + poly.rank)
    raise IndexOutOfOrbit("unknown summand recipe %r" % (summand.recipe,))


def tame_regular_module(sq: SymmetricQuiver, which: Tuple) -> Representation:
    """Named regular indecomposables of a canonical tame symmetric quiver.

    ``which`` is ('E', i, j), ('E1', i, j), ('E2', i, j) for the module with
    socle index i and closed orbit interval [i, j] on the respective polygon,
    or ('Vhom', phi, psi) for the homogeneous module of null-root dimension.
    """
    tag = which[0]
    if tag == "Vhom":
        _, phi, psi = which
        return _pencil_module(pencil_templates(sq).combine(Fraction(phi), Fraction(psi)))
    poly_name = {"E": "delta", "E1": "delta1", "E2": "delta2"}.get(tag)
    if poly_name is None:
        raise IndexOutOfOrbit("unknown module family %r" % (tag,))
    poly = tau_orbits(sq).by_name(poly_name)
    _, i, j = which
    r = poly.rank
    if not (0 <= i < r and 0 <= j < r):
        raise IndexOutOfOrbit("orbit indices must lie in [0, %d)" % r)
    length = (j - i) % r + 1
    return realize_interval(sq, poly_name, i, length)
