"""Weights of determinantal semi-invariants, their evaluation, and the
generator enumeration for finite and tame symmetric quivers."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, permutations, product as iproduct
from math import lcm
from typing import Dict, List, Optional, Tuple

from .errors import (NonOrthogonalDimensions, NotFiniteType, NotSquare, NotSkewSymmetric,
                     NotTame, PatternNotFound, ValidationError)
from .linalg import (RationalMatrix, _check_skew, _det_int, _interpolate_int, _pf_int,
                     determinant, pfaffian)
from .presentation import PathMatrix, evaluate_template, minimal_presentation
from .quiver import DimensionVector, Quiver, euler_form
from .representation import (Representation, StructuredRepresentation,
                             dvw_matrix, random_structured)
from .symmetric import (ORTHOGONAL, SYMPLECTIC, SymmetricQuiver, Weight,
                        _chain_vertices, classify_symmetric)
from .tame import (Pencil, admissible_arcs, canonical_decomposition, pencil_templates,
                   pf_singleton_template, realize_interval)


def weight_of_cv(sq: SymmetricQuiver, alpha: DimensionVector) -> Weight:
    """Weight of the determinantal semi-invariant attached to alpha: the
    linear form pairing alpha against dimension vectors on the left, with
    the coordinates at sigma-fixed vertices zero."""
    q = sq.base
    return Weight({y: 0 if y in sq.v_fixed else
                   alpha[y] - sum(alpha[a.tail] for a in q.arrows_into(y))
                   for y in q.vertices})


def gamma(sq: SymmetricQuiver, chi: Weight) -> Weight:
    """The involution sending a weight to minus its sigma pullback."""
    return Weight({x: -chi[sq.sv(x)] for x in sq.base.vertices})


def template_weight(sq: SymmetricQuiver, t: PathMatrix | Pencil, half: bool = False) -> Weight:
    """The weight of a determinant (or, halved, a pfaffian) of the template
    or pencil: +1 per column vertex, -1 per row vertex, 0 on sigma-fixed
    vertices."""
    vals = {x: Fraction(0) for x in sq.base.vertices}
    for v in t.cols:
        vals[v] += 1
    for v in t.rows:
        vals[v] -= 1
    for x in sq.v_fixed:
        vals[x] = Fraction(0)
    w = Weight(vals)
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
    pencil: Optional[Pencil] = None
    index: Optional[int] = None    # parameter exponent for pencil kinds

    def evaluate(self, w: StructuredRepresentation) -> Fraction:
        return evaluate_all([self], w)[0]

    def sort_key(self):
        return (self.kind, self.weight.as_sorted_items(),
                self.index if self.index is not None else -1, self.provenance)


def _pencil_key(pencil: Pencil) -> Tuple:
    """A hashable value of a pencil: pencils with equal keys evaluate to the
    same matrices at every representation."""
    def grid(entries):
        return tuple(tuple(tuple(sorted(combo.items())) for combo in row)
                     for row in entries)
    return (pencil.rows, pencil.cols, grid(pencil.phi_entries),
            grid(pencil.psi_entries), grid(pencil.const_entries), pencil.signs)


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


def pencil_coefficients(pencil: Pencil, w: StructuredRepresentation, kind: str) -> Dict[int, Fraction]:
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


class _Lazy(Sequence):
    """The values f(0), ..., f(n - 1), each computed on first use and then
    kept."""

    def __init__(self, f, n: int):
        self._f = f
        self._values: List = [None] * n

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, k: int):
        if self._values[k] is None:
            self._values[k] = self._f(k)
        return self._values[k]


class _SeededPoints(_Lazy):
    """The decision points of one enumeration: the structured
    representations of one dimension vector at seeds 5000..5007, each drawn
    on first use and then kept, so that every decision of the enumeration
    reads the same points.

    The pencil and the duplicate test read points 0-1, the nonzero test
    points 0-2, and the skew searches up to all eight.
    """

    SEEDS = range(5000, 5008)

    def __init__(self, sq: SymmetricQuiver, flavor: str, beta):
        super().__init__(lambda k: random_structured(sq, flavor, beta, seed=self.SEEDS[k]),
                         len(self.SEEDS))


def _evaluations(t: PathMatrix, points) -> _Lazy:
    """The matrices of the template at the points, each evaluated on first
    use and then kept."""
    return _Lazy(lambda k: evaluate_template(t, points[k].full()), len(points))


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


def _skew_search(heights: List[int], perms, matrices) -> Optional[Tuple]:
    """The first (perm, signs), perm from ``perms`` and signs from
    product((1, -1)), such that every matrix of ``matrices`` is
    skew-symmetric once its row strips (of the given heights) are put in
    the order perm and multiplied by signs.

    ``matrices`` is a sequence of square matrices; the k-th is read once,
    on the first candidate that passes all before it.
    """
    starts = list(accumulate([0] + heights))
    evaluated: List[List[List[int]]] = []

    def rows(k: int) -> List[List[int]]:
        """The numerator rows of the k-th matrix: skew symmetry does not
        depend on the positive common denominator."""
        if k == len(evaluated):
            evaluated.append(matrices[k].int_rows())
        return evaluated[k]

    for perm in perms:
        order = [i for p in perm for i in range(starts[p], starts[p + 1])]
        for signs in iproduct((1, -1), repeat=len(heights)):
            row_signs = [s for p, s in zip(perm, signs) for _ in range(heights[p])]
            if all(_is_skew([rows(k)[i] for i in order], row_signs)
                   for k in range(len(matrices))):
                return perm, signs
    return None


def _skew_order(t: PathMatrix, dim, matrices) -> Optional[Tuple]:
    """The (perm, signs) of ``_skew_search`` for the template's row strips
    at dimension vector ``dim``, given its matrices at the witnesses; None
    when there is none or the template has more than four rows or does not
    evaluate to an even square matrix (then no matrix is read)."""
    rows = len(t.rows)
    if rows > 4:
        return None
    heights = [dim[v] for v in t.rows]
    size = sum(heights)
    if size != sum(dim[v] for v in t.cols) or size % 2:
        return None
    return _skew_search(heights, permutations(range(rows)), matrices)


def _arrange_template(t: PathMatrix, perm, signs) -> PathMatrix:
    """The template with its rows in the order perm, multiplied by signs."""
    return PathMatrix(t.quiver, [t.rows[i] for i in perm], t.cols,
                      [[{p: Fraction(s) * v for p, v in e.items()} for e in t.entries[i]]
                       for i, s in zip(perm, signs)])


def _arrange_matrix(m: RationalMatrix, heights: List[int], perm, signs) -> RationalMatrix:
    """The matrix with its row strips (of the given heights) in the order
    perm, multiplied by signs: where m is the matrix of t, the matrix of
    ``_arrange_template(t, perm, signs)``, over the same denominator, since
    neither row order nor sign changes a gcd."""
    starts = list(accumulate([0] + heights))
    c = m.cols
    num = [s * x for p, s in zip(perm, signs)
           for x in m.num[starts[p] * c:starts[p + 1] * c]]
    return RationalMatrix._from_ints(m.rows, c, num, m.den)


def skew_normalize_template(t: PathMatrix, witnesses) -> Optional[PathMatrix]:
    """Search row permutations and sign flips making the evaluated template
    exactly skew-symmetric at every witness (structured representations of
    one dimension vector, the first two tried first).

    Candidates run over permutations, then sign vectors, in itertools order,
    and the first that passes is returned: the row order it fixes is what
    pins the sign of the template's Pfaffian.  The template is evaluated at
    most once per witness; the candidates permute its evaluated rows.
    """
    found = _skew_order(t, witnesses[0].dim, _evaluations(t, witnesses))
    return None if found is None else _arrange_template(t, *found)


def is_pfaffian_type(t: PathMatrix, sq: SymmetricQuiver, flavor: str, beta) -> bool:
    """Whether the template carries a pfaffian on the flavor's space."""
    return skew_normalize_template(t, _SeededPoints(sq, flavor, beta)) is not None


def _values(kind: str, matrices) -> _Lazy:
    """The det or pf (``kind``) of each matrix, computed on first use."""
    kernel = pfaffian if kind == "pf" else determinant
    return _Lazy(lambda k: kernel(matrices[k]), len(matrices))


def _dedup_values(values) -> Optional[Tuple[Fraction, ...]]:
    """A candidate's values at points 0-1, which the duplicate test
    compares, when it is nonzero at one of points 0-2; None when it
    vanishes at all three or does not evaluate to a square (skew) matrix.
    ``values`` are the candidate's values at the points, computed on
    first use."""
    try:
        pair = (values[0], values[1])
        if any(pair) or values[2] != 0:
            return pair
    except (NotSquare, NotSkewSymmetric):
        pass
    return None


def _is_empty(t: PathMatrix | Pencil, dim: DimensionVector) -> bool:
    """Whether the template evaluates to a 0 x 0 matrix at dimension vector
    ``dim``: its det or pf is the constant 1, not a generator."""
    return not any(dim[v] for v in (*t.rows, *t.cols))


# -- finite type -------------------------------------------------------------------

def chain_interval_module(sq: SymmetricQuiver, j: int, i: int) -> Representation:
    """Interval module on positions j..i (1-based) of the equioriented chain."""
    order = _chain_vertices(sq)
    n = len(order)
    if not (1 <= j <= i <= n):
        raise ValidationError("interval out of range")
    return Representation.thin(sq.base, order[j - 1:i])


def generators_finite(sq: SymmetricQuiver, beta: DimensionVector,
                      flavor: str) -> List[GeneratorDescriptor]:
    """Generator list for an equioriented symmetric chain."""
    st = classify_symmetric(sq)
    if st.tag != "FiniteA":
        raise NotFiniteType("generators_finite needs a finite symmetric type")
    sq.check_point(beta, flavor)
    order = _chain_vertices(sq)
    n = len(order)
    m = n // 2
    out: List[GeneratorDescriptor] = []
    wants_pf = (flavor == ORTHOGONAL) if n % 2 == 0 else (flavor == SYMPLECTIC)
    witnesses = _SeededPoints(sq, flavor, beta)
    top = m - 1 if n % 2 == 0 else m
    for j in range(1, top + 1):
        for i in range(j, top + 1):
            v = chain_interval_module(sq, j, i)
            if euler_form(sq.base, v.dim, beta) != 0:
                continue
            t = minimal_presentation(v)
            if _is_empty(t, beta):
                continue
            out.append(GeneratorDescriptor(
                "det", template_weight(sq, t), "interval[%d,%d]" % (j, i), template=t))
    for i in range(1, m + 1):
        hi = n - i
        v = chain_interval_module(sq, i, hi)
        if euler_form(sq.base, v.dim, beta) != 0:
            continue
        t = minimal_presentation(v)
        if _is_empty(t, beta):
            continue
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


def arc_template(sq: SymmetricQuiver, poly_name: str, start: int, length: int) -> PathMatrix:
    """The minimal presentation of the regular module on an orbit interval
    (:func:`realize_interval`), built once per symmetric quiver object and
    interval and kept on the quiver; the template is frozen, so every
    enumeration on the quiver reads the same one."""
    def build(sq: SymmetricQuiver) -> PathMatrix:
        return minimal_presentation(realize_interval(sq, poly_name, start, length))
    return sq.cached(("arc_template", poly_name, start, length), build)


def _skew_normalize_pencil(pen: Pencil, witnesses) -> Optional[Pencil]:
    """The pencil with the first row sign vector making it skew at t = 2 and
    3 on the first two witnesses; each of the four matrices is evaluated
    once."""
    matrices = _Lazy(lambda i: evaluate_template(pen.combine(Fraction(2 + i % 2), Fraction(1)),
                                                 witnesses[i // 2].full()), 4)
    found = _skew_search([witnesses[0].dim[v] for v in pen.rows], [range(len(pen.rows))],
                         matrices)
    return None if found is None else replace(pen, signs=found[1])


def generators_tame(sq: SymmetricQuiver, d: DimensionVector,
                    flavor: str) -> List[GeneratorDescriptor]:
    """Generator list for a canonical tame symmetric quiver and a regular
    symmetric dimension vector: the coefficient pencil plus one determinant
    or pfaffian per admissible arc."""
    st = classify_symmetric(sq)
    if st.tag == "FiniteA":
        raise NotTame("generators_tame needs a tame symmetric type")
    sq.check_point(d, flavor)
    dec = canonical_decomposition(sq, d)

    def size(vertices) -> int:
        """The height (row vertices) or width (column vertices) of a
        template evaluated at a point of dimension d."""
        return sum(d[v] for v in vertices)

    # every seeded decision reads these points; each kept candidate goes
    # into ``out`` with its values at points 0-1, which decide duplicates
    points = _SeededPoints(sq, flavor, d)
    out: List[Tuple[GeneratorDescriptor, Tuple[Fraction, ...]]] = []

    def keep_if_nonzero(desc: GeneratorDescriptor, values) -> None:
        """Keep the candidate if it is nonzero at points 0-2; ``values`` are
        its values at the points, computed on first use."""
        if _is_empty(desc.template, d):
            return
        pair = _dedup_values(values)
        if pair is not None:
            out.append((desc, pair))

    def keep_template(t: PathMatrix, provenance: str, det_fallback: bool) -> None:
        """Keep the pfaffian of t's skew normalization, or else, with
        ``det_fallback``, the determinant of t, if nonzero.  The skew search
        and the nonzero and duplicate tests read one evaluation of t per
        point: the pfaffian's matrices are t's with their row strips
        arranged, the determinant's are t's own."""
        matrices = _evaluations(t, points)
        found = _skew_order(t, d, matrices)
        if found is not None:
            # the normalized template is t with its row strips permuted and
            # signed, so det(t) = +-pf(normalized)^2 vanishes at points 0-2
            # whenever that pf does: t needs no det candidate
            normalized = _arrange_template(t, *found)
            heights = [d[v] for v in t.rows]
            keep_if_nonzero(GeneratorDescriptor(
                "pf", template_weight(sq, normalized, half=True), provenance,
                template=normalized),
                _values("pf", _Lazy(lambda k: _arrange_matrix(matrices[k], heights, *found),
                                    len(points))))
        elif det_fallback and size(t.rows) == size(t.cols):
            keep_if_nonzero(GeneratorDescriptor(
                "det", template_weight(sq, t), provenance, template=t),
                _values("det", matrices))

    # the coefficient family of the parameter pencil
    pen = pencil_templates(sq)
    kind = PENCIL_KIND[(st.tag, flavor)]
    use_pencil = size(pen.rows) == size(pen.cols) and not _is_empty(pen, d)
    if use_pencil and kind == "pf":
        normalized = _skew_normalize_pencil(pen, points)
        if normalized is None or size(pen.rows) % 2:
            use_pencil = False
        else:
            pen = normalized
    if use_pencil:
        # the coefficients at points 0-1 give the indices and the pencil
        # generators' values there: the pencil is solved twice per enumeration
        coefficients = [pencil_coefficients(pen, points[k], kind) for k in (0, 1)]
        wt = template_weight(sq, pen, half=kind == "pf")
        for i in sorted(set().union(*coefficients)):
            out.append((GeneratorDescriptor("pencil-" + kind, wt, "pencil[%d]" % i,
                                            pencil=pen, index=i),
                        tuple(c.get(i, Fraction(0)) for c in coefficients)))
    # the extra skew singleton of the free central symmetry family
    if st.tag == "A00":
        keep_template(pf_singleton_template(sq), "skew-singleton", det_fallback=False)
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
            t = arc_template(sq, poly.name, arc.start, gen_length)
            keep_template(t, "arc[%s:%d+%d]" % (poly.name, arc.start, arc.length),
                          det_fallback=True)
    # each sigma-fixed arrow contributes its own determinant or pfaffian;
    # these coincide with arc modules or pencil extremes in the smallest
    # cases, and the deduplication below drops the overlap
    for fname in sq.a_fixed:
        if flavor == ORTHOGONAL and d[sq.base.arrow_by_name[fname].tail] % 2:
            continue
        desc = _single_arrow_descriptor(sq, fname, "pf" if flavor == ORTHOGONAL else "det",
                                        label="arrow")
        keep_if_nonzero(desc, _values(desc.kind, _evaluations(desc.template, points)))
    # drop duplicates: same weight and same values at points 0-1
    seen = set()
    deduped = []
    for g, values in out:
        key = (g.kind.replace("pencil-", ""), g.weight.as_sorted_items(), values)
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
            added = [(new_arrow, y, sq.sv(y))]
        else:
            if ax == ay:
                extracted.append(_single_arrow_descriptor(sq, a.name, "det"))
            if ax == az:
                extracted.append(_single_arrow_descriptor(sq, b.name, "det"))
            new_arrow = a.name + "." + b.name
            mirror_new = sq.sa(b.name) + "." + sq.sa(a.name)
            added = [(new_arrow, y, z), (mirror_new, sq.sv(z), sq.sv(y))]
        drop = {a.name, b.name, sq.sa(a.name), sq.sa(b.name)}
        kept = [ar for ar in q.arrows if ar.name not in drop]
        verts = [v for v in q.vertices if v not in (x, sq.sv(x))]
        q2 = Quiver(verts, [(ar.name, ar.tail, ar.head) for ar in kept] + added,
                    name=q.name + "-red")
        sa = {ar.name: sq.sa(ar.name) for ar in kept}
        # one added arrow is sigma-fixed; two added arrows mirror each other
        names = [name for name, _, _ in added]
        sa.update(zip(names, reversed(names)))
        sq2 = type(sq)(q2, {v: sq.sv(v) for v in verts}, sa)
        alpha2 = DimensionVector({v: alpha[v] for v in verts})
        return sq2, alpha2, extracted
    raise PatternNotFound("no contractible two-arrow vertex")


def _single_arrow_descriptor(sq: SymmetricQuiver, name: str, kind: str,
                             label: str = "contraction") -> GeneratorDescriptor:
    a = sq.base.arrow_by_name[name]
    t = PathMatrix(sq.base, [a.head], [a.tail], [[{(name,): Fraction(1)}]])
    w = template_weight(sq, t, half=(kind == "pf"))
    return GeneratorDescriptor(kind, w, "%s[%s]" % (label, name), template=t)
