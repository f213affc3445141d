import random
from fractions import Fraction

import pytest

from symquiv import families, representation
from symquiv.errors import ValidationError
from symquiv.linalg import RationalMatrix, determinant
from symquiv.quiver import DimensionVector, Quiver, euler_form
from symquiv.representation import (GroupElement, Representation, act,
                                    check_structured, dvw_and_homext,
                                    form_matrix, interval_module,
                                    random_group_element, random_structured)
from symquiv.semiinvariant import chain_interval_module
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC, SymmetricQuiver


def identity_group_element(sq: SymmetricQuiver, flavor: str,
                           dim: DimensionVector) -> GroupElement:
    blocks = {x: RationalMatrix.identity(dim[x]) for x in sq.v_plus}
    fixed = {x: RationalMatrix.identity(dim[x]) for x in sq.v_fixed}
    return GroupElement(sq, flavor, blocks, fixed)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    blocks = {x: g.blocks[x] * h.blocks[x] for x in g.blocks}
    fixed = {x: g.fixed_blocks[x] * h.fixed_blocks[x] for x in g.fixed_blocks}
    return GroupElement(g.sq, g.flavor, blocks, fixed)


def random_rep(rng, q, maxdim=3):
    dim = DimensionVector({v: rng.randint(0, maxdim) for v in q.vertices})
    mats = {}
    for a in q.arrows:
        mats[a.name] = RationalMatrix(
            dim[a.head], dim[a.tail],
            [rng.randint(-4, 4) for _ in range(dim[a.head] * dim[a.tail])])
    return Representation(q, dim, mats)


def test_dvw_simples_on_a2():
    sq = families.symmetric_a(2)
    q = sq.base
    s1 = Representation(q, DimensionVector({1: 1, 2: 0}), {})
    s2 = Representation(q, DimensionVector({1: 0, 2: 1}), {})
    _, hom, ext = dvw_and_homext(s1, s1)
    assert (hom, ext) == (1, 0)
    _, hom, ext = dvw_and_homext(s1, s2)
    assert (hom, ext) == (0, 1)
    _, hom, ext = dvw_and_homext(s2, s1)
    assert (hom, ext) == (0, 0)


def test_hom_minus_ext_is_euler_form():
    rng = random.Random(21)
    sq5 = families.symmetric_a(5)
    sq_t = families.a201(2, 2)
    for q in (sq5.base, sq_t.base):
        for _ in range(200):
            v = random_rep(rng, q)
            w = random_rep(rng, q)
            _, hom, ext = dvw_and_homext(v, w)
            assert hom - ext == euler_form(q, v.dim, w.dim)


def test_interval_module():
    v11 = interval_module(4, 1, 1)
    assert v11.dim == DimensionVector({1: 1, 2: 0, 3: 0, 4: 0})
    v23 = interval_module(4, 2, 3)
    assert v23.dim == DimensionVector({1: 0, 2: 1, 3: 1, 4: 0})
    v12 = interval_module(4, 1, 2)
    # one map drops out of the overlap [2, 2]; with the equioriented
    # orientation it goes from the later interval into the earlier one
    _, hom, _ = dvw_and_homext(v23, v12)
    assert hom == 1
    _, hom, _ = dvw_and_homext(v12, v23)
    assert hom == 0


def test_structured_roundtrip_and_selfduality():
    rng = random.Random(3)
    from symquiv.reflection import dual_rep
    for sq in (families.symmetric_a(4), families.a201(0, 0), families.a11(0, 2),
               families.d10(3), families.d01(3)):
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            dim = DimensionVector({v: 2 for v in sq.base.vertices})
            sr = random_structured(sq, flavor, dim, seed=rng.randint(0, 10 ** 6))
            assert check_structured(sr)
            full = sr.full()
            dd = dual_rep(sq, dual_rep(sq, full))
            assert all(dd.matrices[a.name] == full.matrices[a.name]
                       for a in sq.base.arrows)
            dual = dual_rep(sq, full)
            assert dual.dim == sq.delta(full.dim)
            if flavor == ORTHOGONAL:
                # orthogonal points are exactly selfdual entrywise
                for a in sq.base.arrows:
                    assert dual.matrices[a.name] == full.matrices[a.name]
            else:
                # symplectic points are selfdual up to the fixed-part twist
                for name in sq.a_plus:
                    a = sq.base.arrow_by_name[name]
                    if a.head not in sq.v_fixed and a.tail not in sq.v_fixed:
                        assert dual.matrices[name] == full.matrices[name]
                for name in sq.a_fixed:
                    assert dual.matrices[name] == full.matrices[name].scale(-1)
                _, hom, _ = dvw_and_homext(full, dual)
                assert hom >= 1


def test_group_element_properties():
    rng = random.Random(11)
    for sq in (families.symmetric_a(4), families.a11(0, 2), families.d01(3)):
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            dim = DimensionVector({v: 2 for v in sq.base.vertices})
            g = random_group_element(sq, flavor, dim, seed=7)
            for x in sq.v_plus:
                assert determinant(g.blocks[x]) == 1
            for x in sq.v_fixed:
                blk = g.fixed_blocks[x]
                gm = form_matrix(flavor, dim[x])
                assert blk.transpose() * gm * blk == gm
                assert determinant(blk) == 1


def test_action_is_group_action():
    rng = random.Random(13)
    sq = families.a11(0, 2)
    dim = DimensionVector({v: 2 for v in sq.base.vertices})
    for trial in range(50):
        flavor = SYMPLECTIC if trial % 2 else ORTHOGONAL
        sr = random_structured(sq, flavor, dim, seed=rng.randint(0, 10 ** 9))
        g = random_group_element(sq, flavor, dim, seed=rng.randint(0, 10 ** 9))
        h = random_group_element(sq, flavor, dim, seed=rng.randint(0, 10 ** 9))
        lhs = act(g, act(h, sr))
        rhs = act(compose(g, h), sr)
        assert lhs.matrices == rhs.matrices
        assert lhs.fixed_matrices == rhs.fixed_matrices
        assert check_structured(act(g, sr))


def test_identity_action_fixes():
    sq = families.d10(3)
    from symquiv.quiver import null_root
    dim = null_root(sq.base)
    sr = random_structured(sq, SYMPLECTIC, dim, seed=5)
    g = identity_group_element(sq, SYMPLECTIC, dim)
    out = act(g, sr)
    assert out.matrices == sr.matrices
    assert out.fixed_matrices == sr.fixed_matrices


def test_act_inverts_each_block_once(monkeypatch):
    from symquiv import representation
    real_inverse = representation._inverse
    # a202: a fixed arrow leaves a negative vertex; a00: a positive arrow
    # enters one; a11: a fixed vertex and a fixed arrow
    for sq in (families.a202(2, 2), families.a00(2), families.a11(2, 2)):
        dim = DimensionVector({v: 2 for v in sq.base.vertices})
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            sr = random_structured(sq, flavor, dim, seed=3)
            g = random_group_element(sq, flavor, dim, seed=4)
            calls = []
            monkeypatch.setattr(representation, "_inverse",
                                lambda m: calls.append(m) or real_inverse(m))
            out = act(g, sr)
            monkeypatch.undo()
            assert 0 < len(calls) <= len(g.blocks) + len(g.fixed_blocks)

            # oracle: g at every vertex, each inverse taken afresh
            def g_at(x):
                if x in g.blocks:
                    return g.blocks[x]
                if x in g.fixed_blocks:
                    return g.fixed_blocks[x]
                return real_inverse(g.blocks[sq.sv(x)]).transpose()

            for name in sq.a_plus:
                a = sq.base.arrow_by_name[name]
                assert out.matrices[name] == (g_at(a.head) * sr.matrices[name]
                                              * real_inverse(g_at(a.tail)))
            for name in sq.a_fixed:
                gti = real_inverse(g_at(sq.base.arrow_by_name[name].tail))
                assert out.fixed_matrices[name] == (gti.transpose()
                                                    * sr.fixed_matrices[name] * gti)


def test_representations_are_frozen_values():
    """Neither the matrix map nor an attribute of a Representation can be
    changed, so the value StructuredRepresentation.full() keeps stays as it
    was built."""
    sq = families.a201(2, 2)
    dim = DimensionVector({v: 1 for v in sq.base.vertices})
    sr = random_structured(sq, SYMPLECTIC, dim, seed=1)
    full = sr.full()
    before = dict(full.matrices)
    name = sq.base.arrows[0].name
    with pytest.raises(TypeError):
        full.matrices[name] = RationalMatrix.zero(1, 1)
    with pytest.raises(TypeError):
        del full.matrices[name]
    for attr, value in (("dim", None), ("matrices", {}), ("quiver", None)):
        with pytest.raises(AttributeError):
            setattr(full, attr, value)
    with pytest.raises(AttributeError):
        full.extra = 1
    assert sr.full() is full
    assert dict(sr.full().matrices) == before
    assert any(full.matrices[name].num)


def test_representation_copies_its_matrix_map():
    q = families.symmetric_a(3).base
    one = RationalMatrix.identity(1)
    mats = {"a1": one}
    v = Representation(q, DimensionVector({1: 1, 2: 1, 3: 1}), mats)
    mats["a1"] = RationalMatrix.zero(1, 1)
    mats["a2"] = one
    assert v.matrices["a1"] == one
    assert v.matrices["a2"] == RationalMatrix.zero(1, 1)


def _thin_oracle(q, support):
    inside = set(support)
    dim = DimensionVector({v: int(v in inside) for v in q.vertices})
    mats = {a.name: RationalMatrix.identity(1) if a.tail in inside and a.head in inside
            else RationalMatrix.zero(dim[a.head], dim[a.tail]) for a in q.arrows}
    return dim, mats


def test_thin_constructor_builds_every_interval_module():
    """Representation.thin equals interval_module and chain_interval_module,
    and an explicit construction, on every interval of symmetric_a(2..7)."""
    for n in range(2, 8):
        sq = families.symmetric_a(n)
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                thin = Representation.thin(sq.base, range(j, i + 1))
                assert (thin.dim, dict(thin.matrices)) == _thin_oracle(sq.base, range(j, i + 1))
                for other in (interval_module(n, j, i), chain_interval_module(sq, j, i)):
                    assert other.dim == thin.dim
                    assert dict(other.matrices) == dict(thin.matrices)
    # a support that is not connected still gets identities only inside it
    q = families.d10(3).base
    support = [1, 3, 6]
    thin = Representation.thin(q, support)
    assert (thin.dim, dict(thin.matrices)) == _thin_oracle(q, support)


def test_matrix_for_an_unknown_arrow_is_rejected():
    q = families.symmetric_a(2).base
    with pytest.raises(ValidationError, match="b1"):
        Representation(q, DimensionVector({1: 1, 2: 1}), {"b1": RationalMatrix.identity(1)})


def product_random_sl(rng, n: int) -> RationalMatrix:
    """The product of the drawn transvections, one n x n product per factor
    (the form _random_sl had before it applied each factor as a column
    operation; test oracle)."""
    m = RationalMatrix.identity(n)
    for _ in range(2 * n + 2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        t = [int(r == s) for r in range(n) for s in range(n)]
        t[i * n + j] = rng.randint(-3, 3)
        m = m * RationalMatrix._from_ints(n, n, t)
    return m


def test_random_sl_is_the_product_of_its_transvections():
    for n in range(1, 17):
        for seed in range(50):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            assert representation._random_sl(rng, n) == product_random_sl(oracle_rng, n)
            assert rng.random() == oracle_rng.random()      # the same draws


def test_random_sl_of_size_zero_draws_nothing():
    rng = random.Random(3)
    state = rng.getstate()
    assert representation._random_sl(rng, 0) == RationalMatrix.zero(0, 0)
    assert rng.getstate() == state
