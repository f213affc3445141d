import random
from fractions import Fraction
from pathlib import Path

import pytest

from symquiv import families
from symquiv.errors import NotSinkOrSource
from symquiv.io import parse_quiver
from symquiv.linalg import RationalMatrix, column_space_complement, kernel_basis
from symquiv.quiver import DimensionVector, Quiver, null_root
from symquiv.reflection import (MINUS, PLUS, _admissible_numbering, coxeter_dim,
                                coxeter_rep, dual_rep, reflect_dim, reflect_pair_dim,
                                reflect_pair_rep, reflect_rep, reflect_weight)
from symquiv.representation import (Representation, dvw_and_homext,
                                    interval_module, random_structured)
from symquiv.symmetric import SYMPLECTIC


def test_reflect_dim_basics():
    sq = families.symmetric_a(2)
    q = sq.base
    alpha = DimensionVector({1: 1, 2: 1})
    qr, ar = reflect_dim(q, 2, alpha)
    assert ar == DimensionVector({1: 1, 2: 0})
    qr2, arr = reflect_dim(qr, 2, ar)
    assert arr == alpha
    assert qr2.orientation_key() == q.orientation_key()
    with pytest.raises(NotSinkOrSource):
        reflect_dim(families.symmetric_a(3).base, 2, alpha)


def test_reflect_pair_preserves_symmetry():
    rng = random.Random(2)
    sq = families.symmetric_a(4)
    for _ in range(30):
        half = [rng.randint(0, 4) for _ in range(2)]
        alpha = DimensionVector({1: half[0], 2: half[1], 3: half[1], 4: half[0]})
        sq2, out = reflect_pair_dim(sq, 4, alpha)
        assert sq2.delta(out) == out


def test_reflect_rep_simple_dies():
    sq = families.symmetric_a(3)
    q = sq.base
    s3 = Representation(q, DimensionVector({1: 0, 2: 0, 3: 1}), {})
    _, out = reflect_rep(q, 3, PLUS, s3)
    assert out.dim.support() == []


def test_bgp_on_intervals():
    # dims transform by the reflection and C- C+ recovers the module
    for (j, i) in [(1, 1), (1, 2), (2, 3), (1, 3), (2, 4), (1, 4)]:
        v = interval_module(4, j, i)
        q = v.quiver
        if v.dim[4] == 1 and v.dim.support() == [4]:
            continue
        qr, alpha = reflect_dim(q, 4, v.dim)
        _, w = reflect_rep(q, 4, PLUS, v)
        assert w.dim == alpha
        _, back = reflect_rep(qr, 4, MINUS, w)
        assert back.dim == v.dim
        _, hom, _ = dvw_and_homext(back, v)
        assert hom == 1


def test_reflect_rep_additive():
    v1 = interval_module(4, 1, 3)
    v2 = interval_module(4, 2, 4)
    q = v1.quiver
    _, w1 = reflect_rep(q, 4, PLUS, v1)
    _, w2 = reflect_rep(q, 4, PLUS, v2)
    _, wsum = reflect_rep(q, 4, PLUS, v1.direct_sum(v2))
    assert wsum.dim == w1.dim + w2.dim


def test_coxeter_fixes_null_root():
    for sq in (families.a201(0, 0), families.a201(2, 2), families.a02(2, 2),
               families.a11(0, 2), families.a00(2), families.d10(3),
               families.d01(3), families.d01(4)):
        h = null_root(sq.base)
        assert coxeter_dim(sq.base, h, PLUS) == h
        assert coxeter_dim(sq.base, h, MINUS) == h
        zero = DimensionVector.zero(sq.base)
        assert coxeter_dim(sq.base, zero, PLUS) == zero


def test_coxeter_matches_ar_combinatorics_on_a4():
    sq = families.symmetric_a(4)
    v12 = interval_module(4, 1, 2)
    delta_dim = sq.delta(v12.dim)
    out = coxeter_dim(sq.base, delta_dim, MINUS)
    assert out == DimensionVector({1: 0, 2: 1, 3: 1, 4: 0})


def test_coxeter_rep_translates_intervals():
    # on equioriented A4 the inverse translation moves intervals leftward
    v23 = interval_module(4, 2, 3)
    out = coxeter_rep(v23.quiver, v23, MINUS)
    assert out.dim == DimensionVector({1: 1, 2: 1, 3: 0, 4: 0})


def test_a_second_coxeter_rep_builds_no_quiver(monkeypatch):
    """Each reflected quiver is kept on the quiver it was reflected from, so
    a second translation from the same base quiver reuses them all, and
    reflecting back at the same vertex gives the quiver itself."""
    q = families.d10(4).base
    v = _random_rep(random.Random(3), q)
    first = coxeter_rep(q, v, MINUS)
    built = []
    init = Quiver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quiver, "__init__", counting_init)
    second = coxeter_rep(q, v, MINUS)
    assert built == []
    assert _same_rep(first, second) and first.quiver is second.quiver
    x = q.sinks()[0]
    assert q.reverse_arrows_at(x).reverse_arrows_at(x) is q


def test_dual_reflection_compatibility():
    # reflecting then dualising agrees with dualising then reflecting
    rng = random.Random(9)
    sq = families.symmetric_a(4)
    for seed in range(5):
        dim = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
        sr = random_structured(sq, SYMPLECTIC, dim, seed=seed)
        v = sr.full()
        _, a = reflect_pair_rep(sq, 4, PLUS, v)
        lhs = dual_rep(sq, a)
        rhs_in = dual_rep(sq, v)
        _, rhs = reflect_pair_rep(sq, 4, PLUS, rhs_in)
        assert lhs.dim == rhs.dim
        _, hom, _ = dvw_and_homext(lhs, rhs)
        assert hom >= 1


def test_reflect_weight_consistency():
    from symquiv.semiinvariant import weight_of_cv
    rng = random.Random(4)
    for sq in (families.symmetric_a(4), families.symmetric_a(6)):
        x = max(sq.base.vertices)
        for _ in range(100):
            alpha = DimensionVector({v: rng.randint(0, 4) for v in sq.base.vertices})
            chi = weight_of_cv(sq, alpha)
            sq2, alpha2 = reflect_pair_dim(sq, x, alpha)
            lhs = reflect_weight(sq, x, chi.values)
            rhs = weight_of_cv(sq2, alpha2)
            assert lhs == rhs.values


def test_pair_reflection_preserves_structure():
    """The reflected point of a structured representation is structured:
    symmetric dimensions, flavor-typed fixed blocks, and selfdual up to
    isomorphism (the literal mirror relation is basis-dependent)."""
    sq = families.symmetric_a(4)
    beta = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
    for flavor in (SYMPLECTIC, "o"):
        sr = random_structured(sq, flavor, beta, seed=3)
        sq2, refl = reflect_pair_rep(sq, 4, PLUS, sr.full())
        assert sq2.delta(refl.dim) == refl.dim
        fixed = refl.matrices["a2"]
        if flavor == SYMPLECTIC:
            assert fixed.is_symmetric()
        else:
            assert fixed.is_skew_symmetric()
        dual = dual_rep(sq2, refl)
        _, hom, _ = dvw_and_homext(refl, dual)
        assert hom >= 1


def _two_branch_reflect_rep(q, x, direction, v):
    """Oracle: the sink and source reflections as two separate branches.

    Returns (reflected quiver, reflected representation) with deterministic
    bases: kernels from reduced row echelon form, cokernels from the greedy
    standard-vector complement of the column space.
    """
    if direction == PLUS:
        if not q.is_sink(x):
            raise NotSinkOrSource("plus reflection needs a sink, %r is not" % x)
        arrows = sorted(q.arrows_into(x), key=lambda a: a.name)
        stacked = (RationalMatrix.block([[v.matrices[a.name] for a in arrows]]) if arrows
                   else RationalMatrix.zero(v.dim[x], 0))
        kb = kernel_basis(stacked)
        new_dim = v.dim.replace(x, len(kb))
        qr = q.reverse_arrows_at(x)
        mats = {}
        for a in q.arrows:
            if a.head != x:
                mats[a.name] = v.matrices[a.name]
        off = 0
        for a in arrows:
            width = v.dim[a.tail]
            proj = (RationalMatrix.from_rows([vec[off:off + width] for vec in kb]).transpose()
                    if kb else RationalMatrix.zero(width, 0))
            mats[a.name] = proj  # reversed arrow x -> tail
            off += width
        return qr, Representation(qr, new_dim, mats)
    if direction == MINUS:
        if not q.is_source(x):
            raise NotSinkOrSource("minus reflection needs a source, %r is not" % x)
        arrows = sorted(q.arrows_out_of(x), key=lambda a: a.name)
        stacked = (RationalMatrix.block([[v.matrices[a.name]] for a in arrows]) if arrows
                   else RationalMatrix.zero(0, v.dim[x]))
        proj, _comp = column_space_complement(stacked)
        new_dim = v.dim.replace(x, proj.rows)
        qr = q.reverse_arrows_at(x)
        mats = {}
        for a in q.arrows:
            if a.tail != x:
                mats[a.name] = v.matrices[a.name]
        off = 0
        for a in arrows:
            height = v.dim[a.head]
            incl = RationalMatrix._from_ints(
                proj.rows, height, [x for row in proj.int_rows() for x in row[off:off + height]],
                proj.den)
            mats[a.name] = incl  # reversed arrow head -> x
            off += height
        return qr, Representation(qr, new_dim, mats)
    raise ValueError("direction must be 'plus' or 'minus'")


def _same_rep(v, w):
    return (v.quiver.orientation_key() == w.quiver.orientation_key()
            and v.dim == w.dim and dict(v.matrices) == dict(w.matrices))


def _random_rep(rng, q):
    dim = DimensionVector({x: rng.choice((0, 0, 1, 2, 3)) for x in q.vertices})
    return Representation(q, dim, {a.name: RationalMatrix(
        dim[a.head], dim[a.tail],
        [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
         for _ in range(dim[a.head] * dim[a.tail])]) for a in q.arrows})


def _reflection_quivers():
    fixtures = Path(__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.qv")):
        yield parse_quiver(path.read_text()).base
    for sq in (families.symmetric_a(5), families.a201(2, 4), families.a202(2, 2),
               families.a02(2, 2), families.a11(2, 2), families.a00(4),
               families.d10(4), families.d01(5)):
        yield sq.base
    # an isolated vertex is a sink and a source at once
    yield Quiver([1, 2, 3, 4], [("a", 1, 2), ("b", 3, 2)], name="isolated")


def test_one_reflection_step_matches_the_two_branches():
    """The single reflection body gives exactly the matrices of a separate
    kernel branch (plus) and cokernel branch (minus), on random rational
    representations, zero-dimensional vertices included, and so does the
    Coxeter functor built from it."""
    rng = random.Random(12)
    zero_dim = isolated = 0
    for q in _reflection_quivers():
        for _ in range(6):
            v = _random_rep(rng, q)
            for x in q.vertices:
                for direction, ok in ((PLUS, q.is_sink(x)), (MINUS, q.is_source(x))):
                    if not ok:
                        continue
                    qr, got = reflect_rep(q, x, direction, v)
                    _, want = _two_branch_reflect_rep(q, x, direction, v)
                    assert _same_rep(got, want), (q.name, x, direction)
                    assert got.quiver is qr
                    zero_dim += v.dim[x] == 0
                    isolated += not q.arrows_at(x)
            for direction in (PLUS, MINUS):
                want, cur_q = v, q
                for x in _admissible_numbering(q, direction):
                    cur_q, want = _two_branch_reflect_rep(cur_q, x, direction, want)
                assert _same_rep(coxeter_rep(q, v, direction), want), (q.name, direction)
    assert zero_dim and isolated
