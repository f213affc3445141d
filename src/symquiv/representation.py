"""Representations over exact rationals, structured symplectic/orthogonal
representations, Hom/Ext dimensions, and seeded random generation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, Iterable, Mapping

from .errors import (BadInterval, OddSymplecticDimension, QuiverMismatch, ShapeMismatch,
                     ValidationError)
from .families import symmetric_a
from .linalg import RationalMatrix, inverse as _inverse, linalg_kit
from .quiver import DimensionVector, Frozen, Quiver
from .symmetric import ORTHOGONAL, SYMPLECTIC, SymmetricQuiver


class Representation(Frozen):
    """Rational matrices attached to the arrows of a quiver.

    Immutable: ``matrices`` is a read-only view of matrices, which never
    change.  Arrows missing from ``matrices`` get zero matrices; a key that
    names no arrow is an error.  Values derived from the matrices (the path
    products of ``presentation.evaluate_template``) are kept through
    :meth:`cached`.
    """

    __slots__ = ("quiver", "dim", "matrices", "_memo")

    def __init__(self, quiver: Quiver, dim: DimensionVector,
                 matrices: Mapping[str, RationalMatrix]):
        for name in matrices:
            if name not in quiver.arrow_by_name:
                raise ValidationError("no arrow named %r in quiver %s" % (name, quiver.name))
        mats = {}
        for a in quiver.arrows:
            m = matrices.get(a.name)
            if m is None:
                m = RationalMatrix.zero(dim[a.head], dim[a.tail])
            if m.rows != dim[a.head] or m.cols != dim[a.tail]:
                raise ShapeMismatch(
                    "matrix for %s must be %dx%d" % (a.name, dim[a.head], dim[a.tail]))
            mats[a.name] = m
        self._init(quiver=quiver, dim=dim, matrices=MappingProxyType(mats), _memo={})

    @classmethod
    def thin(cls, quiver: Quiver, support: Iterable[int]) -> "Representation":
        """Dimension 1 on ``support`` and 0 elsewhere, with the identity on
        every arrow whose ends both lie in the support."""
        inside = set(support)
        dim = DimensionVector({v: int(v in inside) for v in quiver.vertices})
        one = RationalMatrix.identity(1)
        return cls(quiver, dim, {a.name: one for a in quiver.arrows
                                 if a.tail in inside and a.head in inside})

    def direct_sum(self, other: "Representation") -> "Representation":
        if self.quiver is not other.quiver and \
                self.quiver.orientation_key() != other.quiver.orientation_key():
            raise QuiverMismatch("direct sum requires a common quiver")
        dim = self.dim + other.dim
        mats = {}
        for a in self.quiver.arrows:
            m1 = self.matrices[a.name]
            m2 = other.matrices[a.name]
            mats[a.name] = RationalMatrix.block(
                [[m1, RationalMatrix.zero(m1.rows, m2.cols)],
                 [RationalMatrix.zero(m2.rows, m1.cols), m2]])
        return Representation(self.quiver, dim, mats)

    def __repr__(self):
        return "Representation(%r, dim=%r)" % (self.quiver.name, self.dim)


def interval_module(n: int, j: int, i: int) -> Representation:
    """The indecomposable of equioriented A_n supported on [j, i]."""
    if not (1 <= j <= i <= n):
        raise BadInterval("need 1 <= j <= i <= n")
    return Representation.thin(symmetric_a(n).base, range(j, i + 1))


def dvw_matrix(v: Representation, w: Representation) -> RationalMatrix:
    """The block matrix of the map from vertex-Hom spaces to arrow-Hom spaces.

    Vertex blocks run in ascending vertex order, arrow blocks in ascending
    arrow-name order; Hom spaces are row-major vectorised.
    """
    if v.quiver.orientation_key() != w.quiver.orientation_key():
        raise QuiverMismatch("representations live on different quivers")
    q = v.quiver
    verts = list(q.vertices)
    arrows = sorted(q.arrows, key=lambda a: a.name)
    col_sizes = [w.dim[x] * v.dim[x] for x in verts]
    row_sizes = [w.dim[a.head] * v.dim[a.tail] for a in arrows]
    total_c = sum(col_sizes)
    # one denominator for every arrow matrix of v and w
    den = lcm(*(rep.matrices[a.name].den for rep in (v, w) for a in arrows))
    out = [0] * (sum(row_sizes) * total_c)
    col_off = {}
    off = 0
    for x, sz in zip(verts, col_sizes):
        col_off[x] = off
        off += sz
    row_off = 0
    for a, rsz in zip(arrows, row_sizes):
        wd_h, vd_t = w.dim[a.head], v.dim[a.tail]
        # f(ha) V(a): rows (p, q) over W(ha) x V(ta); block I (x) V(a)^t
        va = v.matrices[a.name]
        va_rows = [[x * (den // va.den) for x in row] for row in va.int_rows()]
        base_c = col_off[a.head]
        vd_ha = v.dim[a.head]
        for p in range(wd_h):
            for qq in range(vd_t):
                r = (row_off + p * vd_t + qq) * total_c + base_c + p * vd_ha
                for s in range(vd_ha):
                    out[r + s] += va_rows[s][qq]
        # minus W(a) f(ta)
        wa = w.matrices[a.name]
        wa_rows = [[x * (den // wa.den) for x in row] for row in wa.int_rows()]
        base_c = col_off[a.tail]
        wd_ta = w.dim[a.tail]
        for p in range(wd_h):
            for qq in range(vd_t):
                r = (row_off + p * vd_t + qq) * total_c + base_c + qq
                for s in range(wd_ta):
                    out[r + s * vd_t] -= wa_rows[p][s]
        row_off += rsz
    return RationalMatrix._from_ints(row_off, total_c, out, den)


def dvw_and_homext(v: Representation, w: Representation):
    """Returns (matrix, homDim, extDim) for the pair (v, w)."""
    m = dvw_matrix(v, w)
    kit = linalg_kit(m)
    return m, len(kit.kernel_basis), kit.cokernel_dim


# -- structured representations ----------------------------------------------

def form_matrix(flavor: str, size: int) -> RationalMatrix:
    """The pairing used at a sigma-fixed vertex: standard J or the identity."""
    if flavor == SYMPLECTIC:
        if size % 2:
            raise OddSymplecticDimension("symplectic form needs even size")
        half = size // 2
        num = [0] * (size * size)
        for i in range(half):
            num[i * size + half + i] = 1
            num[(half + i) * size + i] = -1
        return RationalMatrix._from_ints(size, size, num)
    return RationalMatrix.identity(size)


class StructuredRepresentation(Frozen):
    """Symplectic or orthogonal representation of a symmetric quiver.

    Only matrices on the positive arrows and on the sigma-fixed arrows are
    stored; mirror arrows are derived, never stored.  Immutable: the matrix
    maps are read-only views of matrices, which never change, so the
    induced representation (:meth:`full`) is built once per object.
    """

    __slots__ = ("sq", "flavor", "dim", "matrices", "fixed_matrices", "_memo")

    def __init__(self, sq: SymmetricQuiver, flavor: str, dim: DimensionVector,
                 matrices: Dict[str, RationalMatrix],
                 fixed_matrices: Dict[str, RationalMatrix]):
        if flavor is None:
            raise ValidationError("a structured representation needs a flavor")
        sq.check_point(dim, flavor)
        mats = {}
        for name in sq.a_plus:
            a = sq.base.arrow_by_name[name]
            m = matrices.get(name, RationalMatrix.zero(dim[a.head], dim[a.tail]))
            if m.rows != dim[a.head] or m.cols != dim[a.tail]:
                raise ShapeMismatch("matrix for %s has the wrong shape" % name)
            mats[name] = m
        fixed = {}
        for name in sq.a_fixed:
            a = sq.base.arrow_by_name[name]
            sz = dim[a.tail]
            m = fixed_matrices.get(name, RationalMatrix.zero(sz, sz))
            if m.rows != sz or m.cols != sz:
                raise ShapeMismatch("fixed matrix for %s must be %dx%d" % (name, sz, sz))
            if flavor == SYMPLECTIC and not m.is_symmetric():
                raise ShapeMismatch("symplectic fixed matrix for %s must be symmetric" % name)
            if flavor == ORTHOGONAL and not m.is_skew_symmetric():
                raise ShapeMismatch("orthogonal fixed matrix for %s must be skew" % name)
            fixed[name] = m
        self._init(sq=sq, flavor=flavor, dim=dim, matrices=MappingProxyType(mats),
                   fixed_matrices=MappingProxyType(fixed), _memo={})

    def full(self) -> Representation:
        """The induced representation of the underlying quiver, built on the
        first request and kept on this object: every call returns the same
        ``Representation``.

        Mirror arrows carry minus-transpose matrices, twisted by the fixed
        vertex pairing where an endpoint is sigma-fixed.
        """
        return self.cached("full", _induced)

    def __repr__(self):
        return "StructuredRepresentation(%s, %r)" % (self.flavor, self.dim)


def _induced(sr: StructuredRepresentation) -> Representation:
    sq = sr.sq
    mats: Dict[str, RationalMatrix] = {}
    mats.update(sr.matrices)
    mats.update(sr.fixed_matrices)
    # with no fixed vertices or arrows the two structured spaces and
    # their groups coincide; one mirror orbit flips sign so that the
    # underlying form is the skew one and mirrored even paths pair up
    flip = None
    if not sq.v_fixed and not sq.a_fixed:
        flip = min(sq.a_plus)
    for name in sq.a_plus:
        a = sq.base.arrow_by_name[name]
        mirror = sq.sa(name)
        sign = 1 if name == flip else -1
        m = sr.matrices[name].transpose().scale(sign)
        if a.head in sq.v_fixed:
            m = m * form_matrix(sr.flavor, sr.dim[a.head])
        elif a.tail in sq.v_fixed:
            m = _inverse(form_matrix(sr.flavor, sr.dim[a.tail])) * m
        mats[mirror] = m
    return Representation(sq.base, sr.dim, mats)


def check_structured(sr: StructuredRepresentation) -> bool:
    """Re-run the constructor invariants as a boolean predicate."""
    try:
        StructuredRepresentation(sr.sq, sr.flavor, sr.dim, sr.matrices,
                                 sr.fixed_matrices)
        return True
    except ValidationError:
        return False


def random_structured(sq: SymmetricQuiver, flavor: str, dim: DimensionVector,
                      seed: int) -> StructuredRepresentation:
    """Seeded structured representation with integer entries in [-9, 9]."""
    rng = random.Random(seed)
    mats = {}
    for name in sq.a_plus:
        a = sq.base.arrow_by_name[name]
        mats[name] = RationalMatrix(
            dim[a.head], dim[a.tail],
            [rng.randint(-9, 9) for _ in range(dim[a.head] * dim[a.tail])])
    fixed = {name: _random_mirrored(flavor, dim[sq.base.arrow_by_name[name].tail],
                                    lambda: rng.randint(-9, 9))
             for name in sq.a_fixed}
    return StructuredRepresentation(sq, flavor, dim, mats, fixed)


def _random_mirrored(flavor: str, n: int, draw) -> RationalMatrix:
    """The n x n matrix, symmetric for sp and skew-symmetric for o, whose
    entries above the diagonal (and on it, for sp) are ``draw()``, drawn
    row by row."""
    entries = [0] * (n * n)
    for i in range(n):
        if flavor == SYMPLECTIC:
            entries[i * n + i] = draw()
        for j in range(i + 1, n):
            x = draw()
            entries[i * n + j] = x
            entries[j * n + i] = x if flavor == SYMPLECTIC else -x
    return RationalMatrix(n, n, entries)


# -- group elements ------------------------------------------------------------

@dataclass
class GroupElement:
    sq: SymmetricQuiver
    flavor: str
    blocks: Dict[int, RationalMatrix]        # on the positive vertices, det 1
    fixed_blocks: Dict[int, RationalMatrix]  # form-preserving at fixed vertices


def _random_sl(rng, n: int) -> RationalMatrix:
    """Product of the elementary transvections I + c e_ij of 2n + 2 draws
    of (i, j), none where i = j; determinant exactly one.  Each factor acts
    on the right as the column operation column j += c column i, on int
    rows.  At n = 0 nothing is drawn."""
    rows = [[int(r == s) for s in range(n)] for r in range(n)]
    for _ in range(2 * n + 2 if n else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for row in rows:
            row[j] += c * row[i]
    return RationalMatrix._from_ints(n, n, [x for row in rows for x in row])


def _cayley(s: RationalMatrix) -> RationalMatrix:
    n = s.rows
    eye = RationalMatrix.identity(n)
    return (eye - s) * _inverse(eye + s)


def _random_form_preserving(rng, flavor: str, n: int) -> RationalMatrix:
    """Cayley transform of a form-compatible matrix: Sp(J) or SO(I) element."""
    if n == 0:
        return RationalMatrix.zero(0, 0)
    for _ in range(50):
        # skew for o; for sp, J times a symmetric matrix
        s = _random_mirrored(flavor, n, lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        if flavor == SYMPLECTIC:
            s = form_matrix(SYMPLECTIC, n) * s
        try:
            return _cayley(s)
        except ValidationError:
            continue
    raise ValidationError("could not sample a form-preserving element")


def random_group_element(sq: SymmetricQuiver, flavor: str, dim: DimensionVector,
                         seed: int) -> GroupElement:
    rng = random.Random(seed)
    blocks = {x: _random_sl(rng, dim[x]) for x in sq.v_plus}
    fixed = {x: _random_form_preserving(rng, flavor, dim[x]) for x in sq.v_fixed}
    return GroupElement(sq, flavor, blocks, fixed)


def act(g: GroupElement, sr: StructuredRepresentation) -> StructuredRepresentation:
    """Base change: arrow matrices by g_h V(a) g_t^{-1}, fixed ones by congruence.

    g acts at a negative vertex x by the inverse transpose of its block at
    sigma x, so the inverse of g there is that block transposed.  Each block
    is inverted at most once per call.
    """
    sq = sr.sq
    inverses: Dict[int, RationalMatrix] = {}

    def inverse(x: int, block: RationalMatrix) -> RationalMatrix:
        if x not in inverses:
            inverses[x] = _inverse(block)
        return inverses[x]

    def g_at(x: int) -> RationalMatrix:
        if x in g.blocks:
            return g.blocks[x]
        if x in g.fixed_blocks:
            return g.fixed_blocks[x]
        return inverse(sq.sv(x), g.blocks[sq.sv(x)]).transpose()

    def g_inverse_at(x: int) -> RationalMatrix:
        if x in g.blocks:
            return inverse(x, g.blocks[x])
        if x in g.fixed_blocks:
            return inverse(x, g.fixed_blocks[x])
        return g.blocks[sq.sv(x)].transpose()

    mats = {}
    for name in sq.a_plus:
        a = sq.base.arrow_by_name[name]
        mats[name] = g_at(a.head) * sr.matrices[name] * g_inverse_at(a.tail)
    fixed = {}
    for name in sq.a_fixed:
        gti = g_inverse_at(sq.base.arrow_by_name[name].tail)
        fixed[name] = gti.transpose() * sr.fixed_matrices[name] * gti
    return StructuredRepresentation(sq, sr.flavor, sr.dim, mats, fixed)
