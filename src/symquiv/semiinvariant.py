"""Weights of determinantal semi-invariants, their evaluation, and the
generator enumeration for finite and tame symmetric quivers."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations, product as iproduct
from math import lcm
from typing import Dict, List, Optional, Tuple

from .errors import (AsymmetricDimension, NonOrthogonalDimensions,
                     NotFiniteType, NotSquare, NotSkewSymmetric, NotTame,
                     OddSymplecticDimension, PatternNotFound, ValidationError)
from .linalg import (RationalMatrix, _check_skew, _det_int, _interpolate_int, _pf_int,
                     determinant, pfaffian)
from .presentation import PathMatrix, evaluate_template, minimal_presentation
from .quiver import DimensionVector, Quiver, euler_form
from .representation import (Representation, StructuredRepresentation,
                             dvw_matrix, random_structured)
from .symmetric import ORTHOGONAL, SYMPLECTIC, SymmetricQuiver, classify_symmetric


class Weight:
    """Rational-valued weight vector on the vertices (denominators 1 or 2)."""

    __slots__ = ("values",)

    def __init__(self, values: Dict[int, Fraction]):
        self.values = {int(k): Fraction(v) for k, v in values.items()}
        for v in self.values.values():
            if v.denominator not in (1, 2):
                raise ValidationError("weight entries must be integers or halves")

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

    def pair(self, d: DimensionVector) -> Fraction:
        return sum((v * d[k] for k, v in self.values.items()), Fraction(0))

    def as_sorted_items(self):
        return tuple(sorted(self.values.items()))

    def character_key(self, sq) -> Tuple:
        """The underlying character: weight vectors are representatives, and
        only the exponent differences across mirror pairs are observable."""
        return tuple((x, self[x] - self[sq.sv(x)]) for x in sq.v_plus)

    def __repr__(self):
        body = ", ".join("%d:%s" % (k, v) for k, v in sorted(self.values.items()) if v)
        return "Weight(%s)" % body


def euler_row(q: Quiver, alpha: DimensionVector) -> Weight:
    """The linear form pairing alpha against dimension vectors on the left."""
    vals = {}
    for y in q.vertices:
        v = Fraction(alpha[y])
        for a in q.arrows_into(y):
            v -= alpha[a.tail]
        vals[y] = v
    return Weight(vals)


def weight_of_cv(sq: SymmetricQuiver, alpha: DimensionVector,
                 flavor: str = SYMPLECTIC) -> Weight:
    """Weight of the determinantal semi-invariant attached to alpha, with the
    coordinates at sigma-fixed vertices zeroed out."""
    w = euler_row(sq.base, alpha)
    for x in sq.v_fixed:
        w.values[x] = Fraction(0)
    return w


def gamma(sq: SymmetricQuiver, chi: Weight) -> Weight:
    """The involution sending a weight to minus its sigma pullback."""
    return Weight({x: -chi[sq.sv(x)] for x in sq.base.vertices})


def template_weight(sq: SymmetricQuiver, t: PathMatrix, half: bool = False) -> Weight:
    vals = {x: Fraction(0) for x in sq.base.vertices}
    for v in t.cols:
        vals[v] += 1
    for v in t.rows:
        vals[v] -= 1
    w = Weight(vals)
    for x in sq.v_fixed:
        w.values[x] = Fraction(0)
    return w.halve() if half else w


def evaluate_cv(v: Representation, w_structured: StructuredRepresentation) -> Fraction:
    """Determinant of the Hom-space map for the pair, in the fixed basis order."""
    w = w_structured.full()
    if euler_form(v.quiver, v.dim, w.dim) != 0:
        raise NonOrthogonalDimensions(
            "the Euler pairing of the dimension vectors must vanish")
    m = dvw_matrix(v, w)
    return determinant(m)


def evaluate_det(t: PathMatrix, w_structured: StructuredRepresentation) -> Fraction:
    m = evaluate_template(t, w_structured.full())
    if not m.is_square():
        raise NotSquare("template does not evaluate to a square matrix")
    return determinant(m)


def evaluate_pf(t: PathMatrix, w_structured: StructuredRepresentation) -> Fraction:
    m = evaluate_template(t, w_structured.full())
    if not m.is_square():
        raise NotSquare("template does not evaluate to a square matrix")
    return pfaffian(m)


# -- generator descriptors -------------------------------------------------------

@dataclass
class GeneratorDescriptor:
    kind: str                      # 'det', 'pf', 'pencil-det', 'pencil-pf'
    weight: Weight
    provenance: str
    template: Optional[PathMatrix] = None
    pencil: Optional[object] = None
    index: Optional[int] = None    # parameter exponent for pencil kinds

    def evaluate(self, w: StructuredRepresentation) -> Fraction:
        return evaluate_all([self], w)[0]

    def sort_key(self):
        return (self.kind, self.weight.as_sorted_items(),
                self.index if self.index is not None else -1, self.provenance)


def _pencil_key(pencil) -> Tuple:
    """A hashable value of a pencil (or a sign-normalized pencil): pencils
    with equal keys evaluate to the same matrices at every representation."""
    signs = ()
    if isinstance(pencil, _SkewPencil):
        signs, pencil = pencil.signs, pencil.base

    def grid(entries):
        return tuple(tuple(tuple(sorted(combo.items())) for combo in row)
                     for row in entries)
    return (tuple(pencil.rows), tuple(pencil.cols), grid(pencil.phi_entries),
            grid(pencil.psi_entries), grid(pencil.const_entries), tuple(signs))


def evaluate_all(gens: List[GeneratorDescriptor],
                 w: StructuredRepresentation) -> List[Fraction]:
    """Values of the generators at one representation, in order.

    The coefficients of each distinct pencil polynomial (distinct by value,
    not by object) are computed once and shared by every pencil generator
    reading it; nothing is kept after the call returns.
    """
    coefficients: Dict[Tuple, Dict[int, Fraction]] = {}
    out = []
    for g in gens:
        if g.kind == "det":
            out.append(evaluate_det(g.template, w))
        elif g.kind == "pf":
            out.append(evaluate_pf(g.template, w))
        else:
            key = (g.kind, _pencil_key(g.pencil))
            if key not in coefficients:
                coefficients[key] = pencil_coefficients(
                    g.pencil, w, "pf" if g.kind == "pencil-pf" else "det")
            out.append(coefficients[key].get(g.index, Fraction(0)))
    return out


def pencil_coefficients(pencil, w: StructuredRepresentation, kind: str) -> Dict[int, Fraction]:
    """Exact coefficients of the parameter polynomial det or pf of the pencil
    evaluated at a representation, by interpolation at integer nodes.

    The pencil is affine in its parameter, so the templates are evaluated
    at t = 0 and t = 1 only.  With ``den`` a common denominator of M(0) and
    M(1), the nodes den M(t) = den M(0) + t den (M(1) - M(0)) are int
    matrices that go straight to the integer kernel; the polynomial of the
    nodes is den^n det M(t) or den^(n/2) pf M(t), interpolated on ints from
    its values at t = 0..degree.  Every node is an affine
    combination of M(0) and M(1), so checking those two for skew symmetry
    checks them all.
    """
    full = w.full()
    m0 = evaluate_template(pencil.combine(Fraction(0), Fraction(1)), full)
    if not m0.is_square():
        raise NotSquare("pencil does not evaluate to square matrices")
    m1 = evaluate_template(pencil.combine(Fraction(1), Fraction(1)), full)
    n = m0.rows
    if kind == "det":
        degree, kernel = n, _det_int
    else:
        _check_skew(m0)
        _check_skew(m1)
        degree, kernel = n // 2, _pf_int
    den = lcm(m0.den, m1.den)
    z0 = [x * (den // m0.den) for x in m0.num]
    step = [y * (den // m1.den) - z for y, z in zip(m1.num, z0)]
    values = []
    for t in range(degree + 1):
        node = [z + t * s for z, s in zip(z0, step)]
        values.append(kernel([node[i * n:(i + 1) * n] for i in range(n)]))
    return {i: c for i, c in enumerate(_interpolate_int(values, den ** degree)) if c}


class _SeededPoints(Sequence):
    """Seeded structured representations at one dimension vector, each
    drawn on first use and then kept: an enumeration draws every decision
    point once and shares it across all its candidates."""

    def __init__(self, sq: SymmetricQuiver, flavor: str, beta, seeds):
        self._draw = lambda seed: random_structured(sq, flavor, beta, seed=seed)
        self._seeds = list(seeds)
        self._points: List[Optional[StructuredRepresentation]] = [None] * len(self._seeds)

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, k: int) -> StructuredRepresentation:
        if self._points[k] is None:
            self._points[k] = self._draw(self._seeds[k])
        return self._points[k]


def _skew_witnesses(sq: SymmetricQuiver, flavor: str, beta, seed: int = 0,
                    count: int = 8) -> _SeededPoints:
    """The points of the skew search: two at seed + 101 k, tried first, and
    count - 2 more at seed + 7777 + 101 k."""
    return _SeededPoints(sq, flavor, beta,
                         [seed + 101 * k for k in range(2)]
                         + [seed + 7777 + 101 * k for k in range(count - 2)])


def _is_skew(rows: List[List[int]], signs: List[int]) -> bool:
    """Whether the square matrix with row i equal to signs[i] * rows[i] is
    skew-symmetric."""
    for i, (row, s) in enumerate(zip(rows, signs)):
        if row[i]:
            return False
        for j in range(i + 1, len(rows)):
            x, y = row[j], rows[j][i]
            if (x != -y) if s == signs[j] else (x != y):
                return False
    return True


def _skew_search(heights: List[int], perms, evaluations) -> Optional[Tuple]:
    """The first (perm, signs), perm from ``perms`` and signs from
    product((1, -1)), such that every evaluated matrix is skew-symmetric
    once its row strips (of the given heights) are put in the order perm
    and multiplied by signs.

    ``evaluations`` are the callables returning the square matrices; each
    is called once, on the first candidate that passes all before it.
    """
    starts = list(accumulate([0] + heights))
    evaluated: List[List[List[int]]] = []

    def rows(k: int) -> List[List[int]]:
        """The numerator rows of the k-th matrix: skew symmetry does not
        depend on the positive common denominator."""
        if k == len(evaluated):
            evaluated.append(evaluations[k]().int_rows())
        return evaluated[k]

    for perm in perms:
        order = [i for p in perm for i in range(starts[p], starts[p + 1])]
        for signs in iproduct((1, -1), repeat=len(heights)):
            row_signs = [s for p, s in zip(perm, signs) for _ in range(heights[p])]
            if all(_is_skew([rows(k)[i] for i in order], row_signs)
                   for k in range(len(evaluations))):
                return perm, signs
    return None


def skew_normalize_template(t: PathMatrix, witnesses) -> Optional[PathMatrix]:
    """Search row permutations and sign flips making the evaluated template
    exactly skew-symmetric at every witness (structured representations of
    one dimension vector, the first two tried first).

    Candidates run over permutations, then sign vectors, in itertools order,
    and the first that passes is returned: the row order it fixes is what
    pins the sign of the template's Pfaffian.  The template is evaluated at
    most once per witness; the candidates permute its evaluated rows.
    """
    rows = len(t.rows)
    if rows > 4:
        return None
    dim = witnesses[0].dim
    heights = [dim[v] for v in t.rows]
    size = sum(heights)
    if size != sum(dim[v] for v in t.cols) or size % 2:
        return None
    found = _skew_search(heights, permutations(range(rows)),
                         [lambda k=k: evaluate_template(t, witnesses[k].full())
                          for k in range(len(witnesses))])
    if found is None:
        return None
    perm, signs = found
    return PathMatrix(t.quiver, [t.rows[i] for i in perm], list(t.cols),
                      [[{p: Fraction(s) * v for p, v in e.items()} for e in t.entries[i]]
                       for i, s in zip(perm, signs)])


def is_pfaffian_type(t: PathMatrix, sq: SymmetricQuiver, flavor: str, beta,
                     seed: int = 0) -> bool:
    """Whether the template carries a pfaffian on the flavor's space."""
    return skew_normalize_template(t, _skew_witnesses(sq, flavor, beta, seed)) is not None


def _nonzero_at(descriptor: GeneratorDescriptor, points) -> bool:
    for w in points:
        try:
            if descriptor.evaluate(w) != 0:
                return True
        except (NotSquare, NotSkewSymmetric):
            return False
    return False


# -- finite type -------------------------------------------------------------------

def _chain_vertices(sq: SymmetricQuiver) -> List[int]:
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


def chain_interval_module(sq: SymmetricQuiver, j: int, i: int) -> Representation:
    """Interval module on positions j..i (1-based) of the equioriented chain."""
    order = _chain_vertices(sq)
    n = len(order)
    if not (1 <= j <= i <= n):
        raise ValidationError("interval out of range")
    inside = set(order[j - 1:i])
    dim = DimensionVector({v: int(v in inside) for v in sq.base.vertices})
    mats = {}
    for a in sq.base.arrows:
        if dim[a.tail] and dim[a.head]:
            mats[a.name] = RationalMatrix.identity(1)
    return Representation(sq.base, dim, mats)


def generators_finite(sq: SymmetricQuiver, beta: DimensionVector,
                      flavor: str) -> List[GeneratorDescriptor]:
    """Generator list for an equioriented symmetric chain."""
    from .symmetric import classify_symmetric
    st = classify_symmetric(sq)
    if st.tag != "FiniteA":
        raise NotFiniteType("generators_finite needs a finite symmetric type")
    if not sq.is_symmetric_dim(beta):
        raise AsymmetricDimension("beta must be sigma-symmetric")
    order = _chain_vertices(sq)
    n = len(order)
    m = n // 2
    if n % 2 and flavor == SYMPLECTIC and beta[order[m]] % 2:
        raise OddSymplecticDimension("middle dimension must be even")
    out: List[GeneratorDescriptor] = []
    wants_pf = (flavor == ORTHOGONAL) if n % 2 == 0 else (flavor == SYMPLECTIC)
    witnesses = _skew_witnesses(sq, flavor, beta)
    top = m - 1 if n % 2 == 0 else m
    for j in range(1, top + 1):
        for i in range(j, top + 1):
            v = chain_interval_module(sq, j, i)
            if euler_form(sq.base, v.dim, beta) != 0:
                continue
            t = minimal_presentation(v)
            out.append(GeneratorDescriptor(
                "det", template_weight(sq, t), "interval[%d,%d]" % (j, i), template=t))
    for i in range(1, m + 1):
        hi = n - i
        v = chain_interval_module(sq, i, hi)
        if euler_form(sq.base, v.dim, beta) != 0:
            continue
        t = minimal_presentation(v)
        if wants_pf:
            if beta[order[i - 1]] % 2:
                continue
            normalized = skew_normalize_template(t, witnesses)
            assert normalized is not None, "mirror interval must be skew"
            out.append(GeneratorDescriptor(
                "pf", template_weight(sq, normalized, half=True),
                "mirror-interval[%d,%d]" % (i, hi), template=normalized))
        else:
            out.append(GeneratorDescriptor(
                "det", template_weight(sq, t), "mirror-interval[%d,%d]" % (i, hi),
                template=t))
    out.sort(key=lambda d: d.sort_key())
    return out


# -- tame type ----------------------------------------------------------------------

PENCIL_KIND = {
    ("A201", SYMPLECTIC): "det", ("A201", ORTHOGONAL): "pf",
    ("A202", SYMPLECTIC): "det", ("A202", ORTHOGONAL): "pf",
    ("A02", ORTHOGONAL): "det", ("A02", SYMPLECTIC): "pf",
    ("A11", ORTHOGONAL): "det", ("A11", SYMPLECTIC): "det",
    ("A00", SYMPLECTIC): "det", ("A00", ORTHOGONAL): "det",
    ("D10", SYMPLECTIC): "det", ("D10", ORTHOGONAL): "pf",
    ("D01", ORTHOGONAL): "det", ("D01", SYMPLECTIC): "pf",
}


@dataclass
class _SkewPencil:
    base: object
    signs: Tuple[int, ...]

    def combine(self, phi, psi):
        t = self.base.combine(phi, psi)
        for r, s in enumerate(self.signs):
            if s == -1:
                t.scale_row(r, Fraction(-1))
        return t


def _skew_normalize_pencil(pen, witnesses) -> Optional[_SkewPencil]:
    """The first row sign vector making the pencil skew at t = 2 and 3 on
    the first two witnesses; each of the four matrices is evaluated once."""
    found = _skew_search([witnesses[0].dim[v] for v in pen.rows], [range(len(pen.rows))],
                         [lambda k=k, t=t: evaluate_template(pen.combine(Fraction(t), Fraction(1)),
                                                             witnesses[k].full())
                          for k in (0, 1) for t in (2, 3)])
    return None if found is None else _SkewPencil(pen, found[1])


def generators_tame(sq: SymmetricQuiver, d: DimensionVector,
                    flavor: str) -> List[GeneratorDescriptor]:
    """Generator list for a canonical tame symmetric quiver and a regular
    symmetric dimension vector: the coefficient pencil plus one determinant
    or pfaffian per admissible arc."""
    from .symmetric import classify_symmetric
    from .tame import (admissible_arcs, canonical_decomposition, pencil_templates,
                       pf_singleton_template, realize_interval, tau_orbits)
    st = classify_symmetric(sq)
    if st.tag == "FiniteA":
        raise NotTame("generators_tame needs a tame symmetric type")
    if flavor == SYMPLECTIC:
        for x in sq.v_fixed:
            if d[x] % 2:
                return []
    orbits = tau_orbits(sq)
    dec = canonical_decomposition(sq, d)

    def size(vertices) -> int:
        """The height (row vertices) or width (column vertices) of a
        template evaluated at a point of dimension d."""
        return sum(d[v] for v in vertices)

    out: List[GeneratorDescriptor] = []
    # the coefficient family of the parameter pencil
    pen = pencil_templates(sq)
    kind = PENCIL_KIND[(st.tag, flavor)]
    # every seeded decision point is drawn once, and shared by all candidates
    checks = _SeededPoints(sq, flavor, d, [1000 + s for s in (0, 1, 2)])
    witnesses = _skew_witnesses(sq, flavor, d)
    use_pencil = size(pen.rows) == size(pen.cols)
    if use_pencil and kind == "pf":
        normalized = _skew_normalize_pencil(pen, witnesses)
        if normalized is None or size(pen.rows) % 2:
            use_pencil = False
        else:
            pen = normalized
    # the two points of pencil index discovery also decide the duplicates,
    # and the pencil coefficients found there are the pencil generators'
    # values at them: the pencil is solved twice per enumeration
    points = _SeededPoints(sq, flavor, d, (5000, 5001))
    coefficients: List[Dict[int, Fraction]] = []
    if use_pencil:
        coefficients = [pencil_coefficients(pen, w, kind) for w in points]
        indices = set().union(*coefficients)
        base = pen.base if isinstance(pen, _SkewPencil) else pen
        wt = Weight({x: Fraction(0) for x in sq.base.vertices})
        for v in base.cols:
            wt.values[v] = wt[v] + 1
        for v in base.rows:
            wt.values[v] = wt[v] - 1
        for x in sq.v_fixed:
            wt.values[x] = Fraction(0)
        if kind == "pf":
            wt = wt.halve()
        for i in sorted(indices):
            out.append(GeneratorDescriptor(
                "pencil-" + kind, wt, "pencil[%d]" % i, pencil=pen, index=i))
    # the extra skew singleton of the free central symmetry family
    if st.tag == "A00":
        try:
            t = pf_singleton_template(sq)
            normalized = skew_normalize_template(t, witnesses)
            if normalized is not None:
                desc = GeneratorDescriptor(
                    "pf", template_weight(sq, normalized, half=True),
                    "skew-singleton", template=normalized)
                if _nonzero_at(desc, checks):
                    out.append(desc)
        except NotSquare:
            pass
    # arc generators
    for lp in dec.labelled:
        poly = lp.polygon
        if poly.partner is not None and poly.partner < poly.name:
            continue
        for arc in admissible_arcs(lp):
            # singleton and anchored wrap arcs carry a full-turn module, a
            # proper arc drops its clockwise-last vertex
            if arc.wrap or arc.length == 1:
                gen_length = poly.rank
            else:
                gen_length = arc.length - 1
            module = realize_interval(sq, orbits, poly.name, arc.start, gen_length)
            t = minimal_presentation(module)
            desc = None
            normalized = skew_normalize_template(t, witnesses)
            if normalized is not None:
                cand = GeneratorDescriptor(
                    "pf", template_weight(sq, normalized, half=True),
                    "arc[%s:%d+%d]" % (poly.name, arc.start, arc.length),
                    template=normalized)
                if _nonzero_at(cand, checks):
                    desc = cand
            if desc is None:
                cand = GeneratorDescriptor(
                    "det", template_weight(sq, t),
                    "arc[%s:%d+%d]" % (poly.name, arc.start, arc.length), template=t)
                if _nonzero_at(cand, checks) and size(t.rows) == size(t.cols):
                    desc = cand
            if desc is not None:
                out.append(desc)
    # each sigma-fixed arrow contributes its own determinant or pfaffian;
    # these coincide with arc modules or pencil extremes in the smallest
    # cases, and the deduplication below drops the overlap
    for fname in sq.a_fixed:
        arrow = sq.base.arrow_by_name[fname]
        if flavor == ORTHOGONAL:
            if d[arrow.tail] % 2:
                continue
            desc = _single_arrow_descriptor(sq, fname, "pf", label="arrow")
        else:
            desc = _single_arrow_descriptor(sq, fname, "det", label="arrow")
        if _nonzero_at(desc, checks):
            out.append(desc)
    # drop duplicates: same weight and same values at both points
    def values(g: GeneratorDescriptor) -> Tuple[Fraction, ...]:
        if g.kind.startswith("pencil-"):
            return tuple(c.get(g.index, Fraction(0)) for c in coefficients)
        return tuple(g.evaluate(w) for w in points)

    seen = set()
    deduped = []
    for g in out:
        key = (g.kind.replace("pencil-", ""), g.weight.as_sorted_items(), values(g))
        if key in seen:
            continue
        seen.add(key)
        deduped.append(g)
    deduped.sort(key=lambda dd: dd.sort_key())
    return deduped


# -- composition reduction ------------------------------------------------------------

def reduce_composition(sq: SymmetricQuiver, alpha: DimensionVector,
                       flavor: str = SYMPLECTIC):
    """Contract a two-arrow flow vertex, collecting the determinant or
    pfaffian factors split off by the contraction."""
    q = sq.base
    for x in sorted(sq.v_plus):
        arrows = q.arrows_at(x)
        if len(arrows) != 2:
            continue
        ins = [a for a in arrows if a.head == x]
        outs = [a for a in arrows if a.tail == x]
        if len(ins) != 1 or len(outs) != 1:
            continue
        a, b = ins[0], outs[0]
        y, z = a.tail, b.head
        if y in sq.v_minus or (z in sq.v_minus and sq.sa(b.name) != b.name):
            continue
        ax, ay, az = alpha[x], alpha[y], alpha[z]
        if ax < max(ay, az):
            continue
        extracted: List[GeneratorDescriptor] = []
        if sq.sa(b.name) == b.name:
            # sigma-fixed composite: contract x and sigma(x) into one arrow
            if ax > ay:
                if flavor == SYMPLECTIC:
                    extracted.append(_single_arrow_descriptor(sq, b.name, "det"))
                elif ax % 2 == 0:
                    extracted.append(_single_arrow_descriptor(sq, b.name, "pf"))
                else:
                    continue
            else:
                extracted.append(_single_arrow_descriptor(sq, a.name, "det"))
            new_arrow = a.name + "." + b.name + "." + sq.sa(a.name)
            arrows_new = [(ar.name, ar.tail, ar.head) for ar in q.arrows
                          if ar.name not in (a.name, b.name, sq.sa(a.name))]
            arrows_new.append((new_arrow, y, sq.sv(y)))
            verts = [v for v in q.vertices if v not in (x, sq.sv(x))]
            q2 = Quiver(verts, arrows_new, name=q.name + "-red")
            sv = {v: sq.sv(v) for v in verts}
            sa = {ar: sq.sa(ar) for ar in q2.arrow_by_name if ar != new_arrow}
            sa[new_arrow] = new_arrow
            sq2 = type(sq)(q2, sv, sa)
        else:
            if ax > max(ay, az):
                pass
            elif ax == ay and ax > az:
                extracted.append(_single_arrow_descriptor(sq, a.name, "det"))
            elif ax == az and ax > ay:
                extracted.append(_single_arrow_descriptor(sq, b.name, "det"))
            else:
                extracted.append(_single_arrow_descriptor(sq, a.name, "det"))
                extracted.append(_single_arrow_descriptor(sq, b.name, "det"))
            new_arrow = a.name + "." + b.name
            mirror_new = sq.sa(b.name) + "." + sq.sa(a.name)
            drop = {a.name, b.name, sq.sa(a.name), sq.sa(b.name)}
            arrows_new = [(ar.name, ar.tail, ar.head) for ar in q.arrows
                          if ar.name not in drop]
            arrows_new.append((new_arrow, y, z))
            arrows_new.append((mirror_new, sq.sv(z), sq.sv(y)))
            verts = [v for v in q.vertices if v not in (x, sq.sv(x))]
            q2 = Quiver(verts, arrows_new, name=q.name + "-red")
            sv = {v: sq.sv(v) for v in verts}
            sa = {ar.name: sq.sa(ar.name) for ar in q.arrows if ar.name not in drop}
            sa[new_arrow] = mirror_new
            sa[mirror_new] = new_arrow
            sq2 = type(sq)(q2, sv, sa)
        alpha2 = DimensionVector({v: alpha[v] for v in verts})
        return sq2, alpha2, extracted
    raise PatternNotFound("no contractible two-arrow vertex")


def _single_arrow_descriptor(sq: SymmetricQuiver, name: str, kind: str,
                             label: str = "contraction") -> GeneratorDescriptor:
    a = sq.base.arrow_by_name[name]
    t = PathMatrix(sq.base, [a.head], [a.tail], [[{(name,): Fraction(1)}]])
    w = template_weight(sq, t, half=(kind == "pf"))
    return GeneratorDescriptor(kind, w, "%s[%s]" % (label, name), template=t)
