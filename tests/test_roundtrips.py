import random
from fractions import Fraction

import pytest

from symquiv import families
from symquiv import io as sqio
from symquiv.quiver import DimensionVector, null_root
from symquiv.reflection import PLUS, reflect_dim, reflect_rep
from symquiv.representation import interval_module, random_structured
from symquiv.semiinvariant import (generators_finite, generators_tame,
                                   reduce_composition)
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC, admissible_sinks, \
    classify_symmetric
from symquiv.tame import tau_orbits, tame_regular_module


def test_bgp_dimension_identity_on_chains():
    # reflected dimensions match the functor on every interval of the 6-chain
    sq = families.symmetric_a(6)
    q = sq.base
    for j in range(1, 7):
        for i in range(j, 7):
            v = interval_module(6, j, i)
            if v.dim.support() == [6]:
                continue
            qr, alpha = reflect_dim(q, 6, v.dim)
            _, w = reflect_rep(q, 6, PLUS, v)
            assert w.dim == alpha


def test_bgp_dimension_identity_on_tame_regulars():
    for sq in (families.a201(2, 2), families.d10(3), families.a11(0, 6)):
        orbits = tau_orbits(sq)
        sinks = admissible_sinks(sq)
        if not sinks:
            continue
        x = sinks[0]
        mods = []
        for poly in orbits.polygons:
            tag = {"delta": "E", "delta1": "E1", "delta2": "E2"}[poly.name]
            for i in range(poly.rank):
                mods.append(tame_regular_module(sq, (tag, i, i)))
                if poly.rank > 2:
                    mods.append(tame_regular_module(
                        sq, (tag, i, (i + 1) % poly.rank)))
        mods.append(tame_regular_module(sq, ("Vhom", 1, 1)))
        for v in mods:
            if v.dim.support() == [x]:
                continue
            qr, alpha = reflect_dim(sq.base, x, v.dim)
            _, w = reflect_rep(sq.base, x, PLUS, v)
            assert w.dim == alpha


def test_descriptor_json_roundtrip_all_kinds():
    cases = [
        (families.symmetric_a(4), DimensionVector({1: 2, 2: 2, 3: 2, 4: 2}),
         ORTHOGONAL, "finite"),
        (families.d10(3), null_root(families.d10(3).base).scale(2),
         ORTHOGONAL, "tame"),
        (families.a00(2), null_root(families.a00(2).base).scale(2),
         SYMPLECTIC, "tame"),
    ]
    for sq, d, flavor, which in cases:
        if which == "finite":
            gens = generators_finite(sq, d, flavor)
        else:
            gens = generators_tame(sq, d, flavor)
        kinds = {g.kind for g in gens}
        w = random_structured(sq, flavor, d, seed=13)
        for g in gens:
            line = sqio.descriptor_to_json(g)
            back = sqio.descriptor_from_json(line, sq)
            assert back.kind == g.kind
            assert back.weight == g.weight
            assert back.evaluate(w) == g.evaluate(w)
            # serialization is stable
            assert sqio.descriptor_to_json(back) == line
        assert any(k.startswith("pf") or k == "pf" for k in kinds) or flavor == SYMPLECTIC


def test_reduce_composition_shrinks_signature():
    sq = families.a02(4, 2)
    st = classify_symmetric(sq)
    alpha = DimensionVector({v: 2 for v in sq.base.vertices})
    sq2, alpha2, extracted = reduce_composition(sq, alpha, SYMPLECTIC)
    st2 = classify_symmetric(sq2)
    assert st2.tag == st.tag
    assert st2.k + st2.l == st.k + st.l - 2
    # extracted factors are genuine semi-invariants of the original quiver
    from symquiv.representation import act, random_group_element
    w = random_structured(sq, SYMPLECTIC, alpha, seed=2)
    for g in extracted:
        base = g.evaluate(w)
        assert base != 0
        elt = random_group_element(sq, SYMPLECTIC, alpha, seed=6)
        assert g.evaluate(act(elt, w)) == base


def test_reduce_composition_fixed_arrow_case():
    sq = families.a11(2, 2)
    alpha = DimensionVector({v: 2 for v in sq.base.vertices})
    sq2, alpha2, extracted = reduce_composition(sq, alpha, ORTHOGONAL)
    st2 = classify_symmetric(sq2)
    assert st2.tag == "A11"
    # the contraction across the fixed arrow yields a sigma-fixed composite
    assert any(sq2.sa(a.name) == a.name for a in sq2.base.arrows)


def test_oracle_on_odd_chain_matches_generators():
    sq5 = families.symmetric_a(5)
    beta = DimensionVector({v: 2 for v in sq5.base.vertices})
    gens = generators_finite(sq5, beta, SYMPLECTIC)
    # every generator weight hits a one-dimensional stratum
    from symquiv.schur import weight_space_dim
    for g in gens:
        assert weight_space_dim(sq5, SYMPLECTIC, beta, g.weight) == 1
    # and products of two generators stay one-dimensional
    for a in gens:
        for b in gens:
            assert weight_space_dim(sq5, SYMPLECTIC, beta, a.weight + b.weight) == 1



def test_larger_family_instances():
    rng = random.Random(17)
    bigger = [families.a201(4, 2), families.a11(2, 4), families.a02(4, 2),
              families.d10(4), families.d01(5), families.a202(4, 2)]
    from symquiv.tame import generic_summands, realize_summand
    from symquiv.representation import act, dvw_and_homext, random_group_element
    for sq in bigger:
        orbits = tau_orbits(sq)
        d = null_root(sq.base).scale(2)
        for poly in orbits.polygons:
            if poly.partner is not None and poly.partner < poly.name:
                continue
            labels = [rng.randint(0, 1) for _ in range(poly.rank)]
            if poly.sigma is not None:
                labels = [max(labels[i], labels[poly.sigma[i]])
                          for i in range(poly.rank)]
            labels = [l - min(labels) for l in labels]
            if poly.sigma is not None:
                for i in range(poly.rank):
                    if poly.sigma[i] == i and labels[i] % 2:
                        labels[i] -= 1
            for i, lab in enumerate(labels):
                d = d + poly.dims[i].scale(lab)
                if poly.partner is not None:
                    d = d + sq.delta(poly.dims[i]).scale(lab)
        for mode in (SYMPLECTIC, ORTHOGONAL):
            summands = generic_summands(sq, d, mode)
            mods = [realize_summand(sq, s) for s in summands]
            for m, s in zip(mods, summands):
                assert m.dim == s.dim
            for i in range(len(mods)):
                for j in range(len(mods)):
                    if i != j:
                        assert dvw_and_homext(mods[i], mods[j])[2] == 0
            gens = generators_tame(sq, d, mode)
            assert gens
            w = random_structured(sq, mode, d, seed=2)
            wg = act(random_group_element(sq, mode, d, seed=4), w)
            assert all(g.evaluate(w) == g.evaluate(wg) for g in gens)


def test_normalize_orientation_on_scrambled_dtilde():
    from symquiv.quiver import Quiver
    from symquiv.symmetric import SymmetricQuiver, is_canonical_orientation, \
        normalize_orientation
    # d10(4) layout with the inner spine pair reversed
    base = families.d10(4).base
    flipped = []
    for a in base.arrows:
        if a.name in ("c1", "c1~"):
            flipped.append((a.name, a.head, a.tail))
        else:
            flipped.append((a.name, a.tail, a.head))
    q = Quiver(base.vertices, flipped, name="D10_4_scrambled")
    sq = SymmetricQuiver(q, families.d10(4).sigma_v, families.d10(4).sigma_a)
    assert not is_canonical_orientation(sq)
    word, out = normalize_orientation(sq)
    assert word
    assert is_canonical_orientation(out)
    assert classify_symmetric(out) == classify_symmetric(sq)
