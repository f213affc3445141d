import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from symquiv import families
from symquiv.linalg import RationalMatrix, column_space_complement, kernel_basis, solve
from symquiv.presentation import (Path, PathCombo, PathMatrix, evaluate_template,
                                  minimal_presentation,
                                  module_from_presentation)
from symquiv.quiver import DimensionVector, Quiver, null_root
from symquiv.representation import (Representation, dvw_and_homext,
                                    interval_module, random_structured)
from symquiv.semiinvariant import chain_interval_module
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC
from symquiv.tame import pencil_templates, realize_interval, tau_orbits


def test_minimal_presentation_of_interval_is_single_path():
    v = interval_module(4, 1, 2)
    t = minimal_presentation(v)
    assert t.cols == (1,)
    assert t.rows == (3,)
    assert list(t.entries[0][0].keys()) == [("a1", "a2")]


def test_presentation_roundtrip_on_intervals():
    for (j, i) in [(1, 1), (2, 3), (1, 3), (2, 4)]:
        v = interval_module(4, j, i)
        t = minimal_presentation(v)
        back = module_from_presentation(t)
        assert back.dim == v.dim
        _, hom, _ = dvw_and_homext(back, v)
        assert hom == 1


def test_evaluate_template_single_path():
    sq = families.symmetric_a(4)
    v13 = interval_module(4, 1, 3)
    t = minimal_presentation(v13)
    dim = DimensionVector({1: 1, 2: 1, 3: 1, 4: 1})
    mats = {"a1": RationalMatrix(1, 1, [2]), "a2": RationalMatrix(1, 1, [3]),
            "a3": RationalMatrix(1, 1, [5])}
    w = Representation(sq.base, dim, mats)
    m = evaluate_template(t, w)
    assert m.rows == m.cols == 1
    assert abs(m[0, 0]) == 30


def test_presentation_of_tree_module_on_dtilde():
    sq = families.d10(3)
    q = sq.base
    # the module supported on {1,3,6,4} with identity maps along a, c1, a~
    dim = DimensionVector({1: 1, 2: 0, 3: 1, 4: 1, 5: 0, 6: 1})
    one = RationalMatrix.identity(1)
    v = Representation(q, dim, {"a": one, "c1": one, "a~": one})
    t = minimal_presentation(v)
    assert t.cols == (1,)
    assert t.rows == (5,)
    back = module_from_presentation(t)
    assert back.dim == v.dim


def test_presentation_roundtrip_random_rigid():
    # projective covers recompute the module dimensions for tame strings
    sq = families.a201(2, 2)
    h = null_root(sq.base)
    sr = random_structured(sq, "sp", h, seed=3)
    full = sr.full()
    t = minimal_presentation(full)
    back = module_from_presentation(t)
    assert back.dim == full.dim


def path_combo(*items) -> PathCombo:
    """Build a combination; items are paths or (coefficient, path) pairs."""
    out: PathCombo = {}
    for it in items:
        if isinstance(it, tuple) and it and isinstance(it[0], (int, Fraction)):
            coeff, path = it
        else:
            coeff, path = Fraction(1), tuple(it)
        path = tuple(path)
        out[path] = out.get(path, Fraction(0)) + Fraction(coeff)
    return {p: c for p, c in out.items() if c}


def test_path_combo_helper():
    c = path_combo(("a1",), (Fraction(2), ("a1", "a2")), (-1, ("a1",)))
    assert c == {("a1", "a2"): Fraction(2)}


# -- the path-basis rewrite against the solve-per-vector routines -------------
#
# The oracle below is ``_ProjSum``, ``module_from_presentation`` and
# ``minimal_presentation`` as they were before every map between sums of
# projectives was read off the path bases: arrow maps are products with 0/1
# matrices and a section matrix, and each syzygy vector is solved for in the
# kernel basis at the head of each arrow.

def coordinates_in_span(basis: List[List[Fraction]], vec: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Coordinates of vec in the span of basis vectors (columns), or None."""
    if not basis:
        return [] if all(x == 0 for x in vec) else None
    return solve(RationalMatrix.from_rows(basis).transpose(), list(vec))


class _ProjSum:
    """Direct sum of indecomposable projectives with a path-labelled basis."""

    def __init__(self, q: Quiver, vertices: Sequence[int]):
        self.q = q
        self.vertices = list(vertices)
        self.paths = [q.paths_from(x) for x in self.vertices]
        self.basis: Dict[int, List[Tuple[int, Path]]] = {}
        for z in q.vertices:
            items: List[Tuple[int, Path]] = []
            for c, table in enumerate(self.paths):
                for p in table[z]:
                    items.append((c, p))
            self.basis[z] = items

    def dim(self, z: int) -> int:
        return len(self.basis[z])

    def index(self, z: int, summand: int, path: Path) -> int:
        return self.basis[z].index((summand, path))

    def arrow_matrix(self, name: str) -> RationalMatrix:
        a = self.q.arrow_by_name[name]
        src = self.basis[a.tail]
        dst = self.basis[a.head]
        lookup = {item: i for i, item in enumerate(dst)}
        num = [0] * (len(dst) * len(src))
        for j, (c, p) in enumerate(src):
            num[lookup[(c, p + (name,))] * len(src) + j] = 1
        return RationalMatrix._from_ints(len(dst), len(src), num)


def oracle_module_from_presentation(t: PathMatrix) -> Representation:
    """Cokernel of the presentation map, with deterministic quotient bases."""
    q = t.quiver
    p0 = _ProjSum(q, t.cols)
    p1 = _ProjSum(q, t.rows)
    # the map phi sends the basis path (r, tail_path) of P1 to
    # sum over columns of entry-path * tail_path inside P0
    phi: Dict[int, RationalMatrix] = {}
    for z in q.vertices:
        width = p1.dim(z)
        entries = [0] * (p0.dim(z) * width)
        for jcol, (r, tpath) in enumerate(p1.basis[z]):
            for c in range(len(t.cols)):
                for spath, coeff in t.entries[r][c].items():
                    entries[p0.index(z, c, spath + tpath) * width + jcol] += coeff
        phi[z] = RationalMatrix(p0.dim(z), width, entries)
    proj = {}
    comp = {}
    for z in q.vertices:
        proj[z], comp[z] = column_space_complement(phi[z])
    dim = DimensionVector({z: proj[z].rows for z in q.vertices})
    mats = {}
    for a in q.arrows:
        p0a = p0.arrow_matrix(a.name)
        width = proj[a.tail].rows
        num = [0] * (p0.dim(a.tail) * width)
        for col, idx in enumerate(comp[a.tail]):
            num[idx * width + col] = 1
        section = RationalMatrix._from_ints(p0.dim(a.tail), width, num)
        mats[a.name] = proj[a.head] * p0a * section
    return Representation(q, dim, mats)


def oracle_minimal_presentation(m: Representation) -> PathMatrix:
    """Minimal projective presentation of a representation.

    The cover is built on a deterministic complement of the radical, the
    syzygy is expressed in the path bases of the cover, and the resulting
    template evaluates to the defining matrix of the determinantal
    semi-invariant attached to ``m``.
    """
    q = m.quiver
    # generators: complement of the radical at each vertex
    gens: List[Tuple[int, List[Fraction]]] = []
    for x in q.vertices:
        arrows_in = sorted(q.arrows_into(x), key=lambda a: a.name)
        rad = (RationalMatrix.block([[m.matrices[a.name] for a in arrows_in]]) if arrows_in
               else RationalMatrix.zero(m.dim[x], 0))
        for idx in column_space_complement(rad)[1]:
            vec = [Fraction(0)] * m.dim[x]
            vec[idx] = Fraction(1)
            gens.append((x, vec))
    p0 = _ProjSum(q, [x for x, _ in gens])
    # pi: P0 -> M on path bases
    pi: Dict[int, RationalMatrix] = {}
    for z in q.vertices:
        cols = []
        for c, path in p0.basis[z]:
            vec = list(gens[c][1])
            for name in path:
                vec = m.matrices[name].apply(vec)
            cols.append(vec)
        pi[z] = (RationalMatrix.from_rows(cols).transpose() if cols
                 else RationalMatrix.zero(m.dim[z], 0))
    # the syzygy as a subrepresentation of P0
    kb: Dict[int, List[List[Fraction]]] = {z: kernel_basis(pi[z]) for z in q.vertices}
    karrow: Dict[str, RationalMatrix] = {}
    for a in q.arrows:
        p0a = p0.arrow_matrix(a.name)
        cols = []
        for vec in kb[a.tail]:
            img = p0a.apply(vec)
            coords = coordinates_in_span(kb[a.head], img)
            assert coords is not None, "syzygy is not arrow-stable"
            cols.append(coords)
        karrow[a.name] = (RationalMatrix.from_rows(cols).transpose() if cols
                          else RationalMatrix.zero(len(kb[a.head]), 0))
    # generators of the syzygy
    rows: List[int] = []
    row_vectors: List[Tuple[int, List[Fraction]]] = []
    for y in q.vertices:
        arrows_in = sorted(q.arrows_into(y), key=lambda a: a.name)
        rad = (RationalMatrix.block([[karrow[a.name] for a in arrows_in]]) if arrows_in
               else RationalMatrix.zero(len(kb[y]), 0))
        for idx in column_space_complement(rad)[1]:
            rows.append(y)
            row_vectors.append((y, kb[y][idx]))
    cols = [x for x, _ in gens]
    entries: List[List[PathCombo]] = []
    for y, vec in row_vectors:
        row_entry: List[PathCombo] = [dict() for _ in cols]
        for pos, coeff in enumerate(vec):
            if coeff:
                c, path = p0.basis[y][pos]
                row_entry[c][path] = row_entry[c].get(path, Fraction(0)) + coeff
        entries.append([{p: v for p, v in e.items() if v} for e in row_entry])
    return PathMatrix(q, rows, cols, entries)


def _layout(t: PathMatrix):
    """Rows, columns and every entry's (path, coefficient) items in order."""
    return (t.rows, t.cols, [[list(e.items()) for e in row] for row in t.entries])


def assert_same_presentation(m: Representation) -> PathMatrix:
    t = minimal_presentation(m)
    expected = oracle_minimal_presentation(m)
    assert _layout(t) == _layout(expected)
    assert all(type(v) is Fraction for row in t.entries for e in row for v in e.values())
    return t


def assert_same_cokernel(t: PathMatrix) -> Representation:
    got, expected = module_from_presentation(t), oracle_module_from_presentation(t)
    assert got.dim == expected.dim
    assert dict(got.matrices) == dict(expected.matrices)
    return got


def arc_modules(sq, long_lengths=True):
    """The module of each interval of each translation orbit that
    ``generators_tame`` can visit: every start and every length up to one
    turn; without ``long_lengths``, every start only for lengths up to 4 and
    the full turn, and each other length at one start."""
    for poly in tau_orbits(sq).polygons:
        if poly.partner is not None and poly.partner < poly.name:
            continue
        for length in range(1, poly.rank + 1):
            short = long_lengths or length <= 4 or length == poly.rank
            for start in range(poly.rank) if short else [length % poly.rank]:
                yield realize_interval(sq, poly.name, start, length)


FAMILY_STRUCTURE = [families.a201(4, 2), families.a202(4, 2), families.a02(4, 2),
                    families.a11(2, 4), families.a00(4), families.d10(3), families.d10(4),
                    families.d01(3), families.d01(4)]


@pytest.mark.parametrize("sq", FAMILY_STRUCTURE, ids=lambda sq: sq.base.name)
def test_arc_presentations_match_the_solve_per_vector_oracle(sq):
    for m in arc_modules(sq):
        assert_same_cokernel(assert_same_presentation(m))


@pytest.mark.parametrize("sq", [families.d10(12), families.d01(12), families.a201(12, 2)],
                         ids=lambda sq: sq.base.name)
def test_large_arc_presentations_match_the_oracle(sq):
    # every length at every start is up to 441 modules, 10 s to realize on
    # a D quiver of this size
    for m in arc_modules(sq, long_lengths=False):
        assert_same_cokernel(assert_same_presentation(m))


def test_presentations_at_random_points_of_the_null_root_match_the_oracle():
    for sq in FAMILY_STRUCTURE:
        h = null_root(sq.base)
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            if flavor == SYMPLECTIC and any(h[x] % 2 for x in sq.v_fixed):
                continue
            for seed in (1, 2):
                full = random_structured(sq, flavor, h, seed=seed).full()
                assert_same_cokernel(assert_same_presentation(full))


def test_chain_interval_presentations_match_the_oracle():
    for n in range(2, 9):
        sq = families.symmetric_a(n)
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                assert_same_cokernel(assert_same_presentation(chain_interval_module(sq, j, i)))


def test_pencil_cokernels_and_their_presentations_match_the_oracle():
    for sq in FAMILY_STRUCTURE:
        pen = pencil_templates(sq)
        for phi, psi in ((0, 1), (1, 0), (1, 1), (Fraction(-2, 3), 5)):
            cokernel = assert_same_cokernel(pen.combine(Fraction(phi), Fraction(psi)))
            assert_same_cokernel(assert_same_presentation(cokernel))


def test_presentations_of_random_rational_modules_match_the_oracle():
    rng = random.Random(5)
    for sq in (families.a201(2, 2), families.d10(3), families.symmetric_a(5)):
        q = sq.base
        for _ in range(10):
            dim = DimensionVector({v: rng.randint(0, 2) for v in q.vertices})
            mats = {a.name: RationalMatrix(dim[a.head], dim[a.tail],
                                           [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                            for _ in range(dim[a.head] * dim[a.tail])])
                    for a in q.arrows}
            assert_same_cokernel(assert_same_presentation(Representation(q, dim, mats)))
