import random
from fractions import Fraction
from pathlib import Path

import pytest

from symquiv import families
from symquiv import io as sqio
from symquiv import semiinvariant
from symquiv.errors import NonOrthogonalDimensions, PatternNotFound
from symquiv.linalg import RationalMatrix, determinant
from symquiv.quiver import DimensionVector, euler_form, null_root
from symquiv.reflection import MINUS, PLUS, coxeter_dim, coxeter_rep, dual_rep, \
    reflect_pair_rep
from symquiv.representation import (act, interval_module, random_group_element,
                                    random_structured)
from symquiv.semiinvariant import (GeneratorDescriptor, evaluate_all,
                                   evaluate_cv, gamma, generators_finite,
                                   generators_tame, is_pfaffian_type,
                                   pencil_coefficients,
                                   reduce_composition, weight_of_cv, Weight)
from symquiv.presentation import minimal_presentation
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC, classify_symmetric
from symquiv.tame import pencil_templates, tame_regular_module


def test_weight_of_cv_examples():
    sq = families.symmetric_a(4)
    v12 = interval_module(4, 1, 2)
    chi = weight_of_cv(sq, v12.dim)
    assert chi == Weight({1: 1, 2: 0, 3: -1, 4: 0})
    sq5 = families.symmetric_a(5)
    v13 = DimensionVector({1: 1, 2: 1, 3: 1, 4: 0, 5: 0})
    chi5 = weight_of_cv(sq5, v13)
    assert chi5[3] == 0  # zeroed on the fixed middle vertex


def test_weight_values_are_read_only():
    sq = families.symmetric_a(5)
    chi = weight_of_cv(sq, DimensionVector({1: 1, 2: 1, 3: 1, 4: 0, 5: 0}))
    before = hash(chi)
    with pytest.raises(TypeError):
        chi.values[3] = Fraction(1)
    with pytest.raises(AttributeError):
        chi.values = {3: Fraction(1)}
    assert chi[3] == 0 and hash(chi) == before


def test_no_det_candidate_after_a_skew_normalization(monkeypatch):
    """An arc template made skew by row permutations and signs is tried as a
    pfaffian only: its determinant is +-that pfaffian squared, so it vanishes
    at the decision points whenever the pfaffian does."""
    normalized, candidates = [], []
    order, descriptor = semiinvariant._skew_order, semiinvariant.GeneratorDescriptor

    def recording_order(t, dim, matrices):
        found = order(t, dim, matrices)
        if found is not None:
            normalized.append(t)
        return found

    def recording_descriptor(*args, **kwargs):
        candidates.append(descriptor(*args, **kwargs))
        return candidates[-1]

    monkeypatch.setattr(semiinvariant, "_skew_order", recording_order)
    monkeypatch.setattr(semiinvariant, "GeneratorDescriptor", recording_descriptor)
    d = DimensionVector({1: 5, 2: 5, 3: 8, 4: 5, 5: 5})
    assert generators_tame(families.d01(3), d, SYMPLECTIC) and normalized
    assert any(c.kind == "det" and c.template is not None for c in candidates)
    assert [c.provenance for c in candidates
            if c.kind == "det" and any(c.template is t for t in normalized)] == []


def test_gamma_involution_and_translation():
    rng = random.Random(12)
    for sq in (families.symmetric_a(4), families.a201(2, 2), families.a11(0, 2),
               families.d10(3), families.d01(3), families.a00(2),
               families.a02(2, 2), families.a202(2, 0)):
        for _ in range(100):
            alpha = DimensionVector({v: rng.randint(0, 3) for v in sq.base.vertices})
            chi = weight_of_cv(sq, alpha)
            assert gamma(sq, gamma(sq, chi)) == chi
            lhs = gamma(sq, chi)
            rhs = weight_of_cv(sq, coxeter_dim(sq.base, sq.delta(alpha), MINUS))
            assert lhs == rhs


def test_evaluate_cv_examples():
    sq = families.symmetric_a(4)
    v13 = interval_module(4, 1, 3)
    dim = DimensionVector({1: 1, 2: 1, 3: 1, 4: 1})
    w = random_structured(sq, SYMPLECTIC, dim, seed=8)
    full = w.full()
    chain = full.matrices["a3"] * full.matrices["a2"] * full.matrices["a1"]
    assert abs(evaluate_cv(v13, w)) == abs(chain[0, 0])
    with pytest.raises(NonOrthogonalDimensions):
        evaluate_cv(interval_module(4, 1, 1),
                    random_structured(sq, SYMPLECTIC,
                                      DimensionVector({1: 1, 2: 2, 3: 2, 4: 1}),
                                      seed=0))


def test_cv_vanishes_with_hom():
    sq = families.symmetric_a(4)
    # V = S_2, W supported so Hom(V, W) is nonzero
    v = interval_module(4, 2, 2)
    dim = DimensionVector({1: 1, 2: 1, 3: 1, 4: 1})
    mats = {"a1": RationalMatrix(1, 1, [3]), "a2": RationalMatrix(1, 1, [0]),
            "a3": RationalMatrix(1, 1, [2])}
    from symquiv.representation import StructuredRepresentation
    w = StructuredRepresentation(sq, SYMPLECTIC, dim,
                                 {"a1": mats["a1"], "a2": mats["a2"]},
                                 {})
    assert euler_form(sq.base, v.dim, dim) == 0
    assert evaluate_cv(v, w) == 0


def test_cv_multiplicative_on_sums():
    sq = families.symmetric_a(4)
    beta = DimensionVector({1: 2, 2: 2, 3: 2, 4: 2})
    v1 = interval_module(4, 1, 1)
    v2 = interval_module(4, 2, 2)
    w = random_structured(sq, SYMPLECTIC, beta, seed=77)
    both = v1.direct_sum(v2)
    assert abs(evaluate_cv(both, w)) == abs(evaluate_cv(v1, w) * evaluate_cv(v2, w))


def test_generators_finite_a4_sp():
    sq = families.symmetric_a(4)
    beta = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
    gens = generators_finite(sq, beta, SYMPLECTIC)
    provs = sorted(g.provenance for g in gens)
    assert provs == ["mirror-interval[1,3]", "mirror-interval[2,2]"]
    assert all(g.kind == "det" for g in gens)


def test_generators_finite_a4_orthogonal_pf():
    sq = families.symmetric_a(4)
    beta = DimensionVector({v: 2 for v in sq.base.vertices})
    gens = generators_finite(sq, beta, ORTHOGONAL)
    kinds = {g.provenance: g.kind for g in gens}
    assert kinds["mirror-interval[1,3]"] == "pf"
    assert kinds["mirror-interval[2,2]"] == "pf"
    assert kinds["interval[1,1]"] == "det"
    w = random_structured(sq, ORTHOGONAL, beta, seed=5)
    for g in gens:
        if g.kind == "pf":
            det_desc = GeneratorDescriptor("det", g.weight, "check", template=g.template)
            assert g.evaluate(w) ** 2 == det_desc.evaluate(w)


def test_generators_finite_a5():
    sq = families.symmetric_a(5)
    beta_sp = DimensionVector({1: 1, 2: 2, 3: 2, 4: 2, 5: 1})
    gens = generators_finite(sq, beta_sp, SYMPLECTIC)
    kinds = {g.provenance: g.kind for g in gens}
    assert kinds == {"interval[2,2]": "det", "mirror-interval[2,3]": "pf"}
    beta_o = DimensionVector({v: 2 for v in sq.base.vertices})
    gens_o = generators_finite(sq, beta_o, ORTHOGONAL)
    kinds_o = {g.provenance: g.kind for g in gens_o}
    assert kinds_o["mirror-interval[1,4]"] == "det"
    assert kinds_o["mirror-interval[2,3]"] == "det"
    assert all(k == "det" for k in kinds_o.values())


def test_generator_invariance_and_nonvanishing():
    rng = random.Random(15)
    cases = [
        (families.symmetric_a(4), DimensionVector({1: 1, 2: 2, 3: 2, 4: 1}), SYMPLECTIC),
        (families.symmetric_a(4), DimensionVector({1: 2, 2: 2, 3: 2, 4: 2}), ORTHOGONAL),
        (families.symmetric_a(5), DimensionVector({1: 2, 2: 2, 3: 2, 4: 2, 5: 2}), SYMPLECTIC),
    ]
    for sq, beta, flavor in cases:
        gens = generators_finite(sq, beta, flavor)
        assert gens
        w = random_structured(sq, flavor, beta, seed=1)
        for g in gens:
            base = g.evaluate(w)
            assert any(g.evaluate(random_structured(sq, flavor, beta, seed=s)) != 0
                       for s in range(3))
            for trial in range(20):
                elt = random_group_element(sq, flavor, beta,
                                           seed=rng.randint(0, 10 ** 9))
                assert g.evaluate(act(elt, w)) == base


def test_weight_transformation_under_scaling():
    sq = families.symmetric_a(4)
    beta = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
    gens = generators_finite(sq, beta, SYMPLECTIC)
    w = random_structured(sq, SYMPLECTIC, beta, seed=21)
    from symquiv.representation import GroupElement
    t = Fraction(3)
    for g in gens:
        for x in sq.v_plus:
            blocks = {y: RationalMatrix.identity(beta[y]) for y in sq.v_plus}
            n = beta[x]
            # determinant t, so the character reads the weight
            blocks[x] = RationalMatrix(n, n, [t if i == j == 0 else int(i == j)
                                              for i in range(n) for j in range(n)])
            elt = GroupElement(sq, SYMPLECTIC, blocks,
                               {y: RationalMatrix.identity(beta[y]) for y in sq.v_fixed})
            # acting on the argument pulls the character exponent back with a
            # minus sign; the mirror slot contributes through g_{sigma x}
            exponent = g.weight[sq.sv(x)] - g.weight[x]
            base = g.evaluate(w)
            assert g.evaluate(act(elt, w)) == t ** exponent * base


def test_reflection_ratio_constancy():
    # the reflected kernel basis is only pinned up to a change of basis at
    # the reflected pair, so the literal ratio is constant exactly when the
    # weight vanishes there
    sq = families.symmetric_a(5)
    beta = DimensionVector({v: 2 for v in sq.base.vertices})
    x = 5  # admissible sink of the equioriented chain
    checked = 0
    for (j, i) in [(2, 2), (3, 3), (2, 3)]:
        v = interval_module(5, j, i)
        chi = weight_of_cv(sq, v.dim)
        assert chi[x] == 0 and chi[sq.sv(x)] == 0
        if euler_form(sq.base, v.dim, beta) != 0:
            continue
        sq2, v_r = reflect_pair_rep(sq, x, PLUS, v)
        ratios = set()
        hits = 0
        for seed in range(5):
            w = random_structured(sq, SYMPLECTIC, beta, seed=seed)
            _, w_r = reflect_pair_rep(sq, x, PLUS, w.full())
            from symquiv.representation import dvw_matrix
            lhs = evaluate_cv(v, w)
            rhs = determinant(dvw_matrix(v_r, w_r))
            if lhs == 0 or rhs == 0:
                continue
            hits += 1
            ratios.add(lhs / rhs)
        assert hits >= 3 and len(ratios) == 1
        checked += 1
    assert checked == 3


def test_duality_ratio_constancy():
    for sq, dim, intervals in [
        (families.symmetric_a(5), DimensionVector({v: 2 for v in range(1, 6)}),
         [(1, 1), (2, 2), (1, 4), (2, 3)]),
    ]:
        for (j, i) in intervals:
            v = interval_module(5, j, i)
            if euler_form(sq.base, v.dim, dim) != 0:
                continue
            tv = coxeter_rep(sq.base, dual_rep(sq, v), MINUS)
            from symquiv.representation import dvw_matrix
            ratios = set()
            for seed in range(5):
                w = random_structured(sq, SYMPLECTIC, dim, seed=seed)
                lhs = evaluate_cv(v, w)
                rhs = determinant(dvw_matrix(tv, w.full()))
                if lhs == 0 or rhs == 0:
                    continue
                ratios.add(lhs / rhs)
            assert len(ratios) == 1


def test_duality_ratio_on_tame_regulars():
    sq = families.a11(0, 2)
    h = null_root(sq.base)
    dim = h.scale(2)
    mods = [tame_regular_module(sq, ("E", 0, 0)),
            tame_regular_module(sq, ("E", 1, 1)),
            tame_regular_module(sq, ("E", 0, 1)),
            tame_regular_module(sq, ("Vhom", 1, 1))]
    from symquiv.representation import dvw_matrix
    for v in mods:
        tv = coxeter_rep(sq.base, dual_rep(sq, v), MINUS)
        ratios = set()
        for seed in range(5):
            w = random_structured(sq, SYMPLECTIC, dim, seed=seed)
            lhs = evaluate_cv(v, w)
            rhs = determinant(dvw_matrix(tv, w.full()))
            if lhs == 0 or rhs == 0:
                continue
            ratios.add(lhs / rhs)
        assert len(ratios) <= 1


def test_pfaffian_type_detection():
    sq = families.symmetric_a(4)
    beta = DimensionVector({v: 2 for v in sq.base.vertices})
    v22 = interval_module(4, 2, 2)
    t = minimal_presentation(v22)
    assert is_pfaffian_type(t, sq, ORTHOGONAL, beta)
    assert not is_pfaffian_type(t, sq, SYMPLECTIC, beta)


def test_pencil_extremes_match_arrow_determinants():
    sq = families.a201(0, 0)
    h = null_root(sq.base)
    d = h.scale(3)
    w = random_structured(sq, SYMPLECTIC, d, seed=6)
    pen = pencil_templates(sq)
    coeffs = pencil_coefficients(pen, w, "det")
    d0 = determinant(w.fixed_matrices["b"])
    dp = determinant(w.fixed_matrices["a"])
    assert {coeffs[0], coeffs[max(coeffs)]} == {d0, dp}


def test_evaluate_all_matches_single_evaluations():
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.qv")):
        sq = sqio.parse_quiver(path.read_text())
        if classify_symmetric(sq).tag == "FiniteA":
            enumerate_gens = generators_finite
            d = DimensionVector({v: 2 for v in sq.base.vertices})
        else:
            enumerate_gens = generators_tame
            d = null_root(sq.base).scale(2)
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            gens = enumerate_gens(sq, d, flavor)
            assert gens, path.name
            w = random_structured(sq, flavor, d, seed=4)
            assert evaluate_all(gens, w) == [g.evaluate(w) for g in gens]


def test_generators_tame_odd_orthogonal_kronecker_empty():
    sq = families.a201(0, 0)
    h = null_root(sq.base)
    assert generators_tame(sq, h.scale(3), ORTHOGONAL) == []


def test_generators_tame_invariance():
    rng = random.Random(90)
    for sq in (families.a201(0, 0), families.a11(0, 2), families.d10(3)):
        h = null_root(sq.base)
        d = h.scale(2)
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            gens = generators_tame(sq, d, flavor)
            w = random_structured(sq, flavor, d, seed=3)
            for g in gens:
                base = g.evaluate(w)
                assert any(g.evaluate(random_structured(sq, flavor, d, seed=s)) != 0
                           for s in range(3))
                for _ in range(5):
                    elt = random_group_element(sq, flavor, d,
                                               seed=rng.randint(0, 10 ** 9))
                    assert g.evaluate(act(elt, w)) == base


def test_reduce_composition_cases():
    # straight-through vertex with equal dimensions extracts both factors
    sq = families.a02(4, 2)
    alpha = DimensionVector({v: 2 for v in sq.base.vertices})
    sq2, alpha2, extracted = reduce_composition(sq, alpha, SYMPLECTIC)
    assert len(extracted) == 2
    assert len(sq2.base.vertices) == len(sq.base.vertices) - 2
    # contraction across a fixed arrow
    sq_mid = families.a11(2, 2)
    alpha_mid = DimensionVector({v: 2 for v in sq_mid.base.vertices})
    sq3, alpha3, extracted3 = reduce_composition(sq_mid, alpha_mid, SYMPLECTIC)
    assert len(sq3.base.vertices) == len(sq_mid.base.vertices) - 2
    # no pattern on the smallest double arrow
    with pytest.raises(PatternNotFound):
        reduce_composition(families.a201(0, 0),
                           DimensionVector({1: 2, 2: 2}), SYMPLECTIC)


def test_reduce_composition_strict_interior():
    # alpha_x strictly larger: nothing extracted
    sq = families.a02(4, 2)
    alpha = DimensionVector({v: 2 for v in sq.base.vertices})
    heavy = DimensionVector(dict(alpha.values))
    # find the contractible vertex and bump it
    q = sq.base
    for x in sorted(sq.v_plus):
        arrows = q.arrows_at(x)
        if len(arrows) == 2 and len([a for a in arrows if a.head == x]) == 1:
            ins = [a for a in arrows if a.head == x][0]
            outs = [a for a in arrows if a.tail == x][0]
            if ins.tail not in sq.v_minus and (outs.head not in sq.v_minus
                                               or sq.sa(outs.name) == outs.name):
                heavy = heavy.replace(x, heavy[x] + 1)
                heavy = heavy.replace(sq.sv(x), heavy[sq.sv(x)] + 1)
                break
    sq2, alpha2, extracted = reduce_composition(sq, heavy, SYMPLECTIC)
    assert extracted == []


def test_semigroup_monomial_counts_match_oracle():
    from math import comb
    from symquiv.schur import weight_space_dim
    # the double-arrow family: p + 1 pencil coefficients, algebraically
    # independent, all of the same weight
    sq = families.a201(0, 0)
    for p in (1, 2, 3):
        d = null_root(sq.base).scale(p)
        gens = generators_tame(sq, d, SYMPLECTIC)
        assert len(gens) == p + 1
        for k in range(0, 4):
            chi = Weight({1: Fraction(k), 2: Fraction(-k)})
            expected = comb(k + p, p)  # degree-k monomials in p+1 generators
            assert weight_space_dim(sq, SYMPLECTIC, d, chi) == expected
    # a finite chain: independent generator weights, one monomial per weight
    sq4 = families.symmetric_a(4)
    beta = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
    gens = generators_finite(sq4, beta, SYMPLECTIC)
    weights = [g.weight for g in gens]
    for a in range(0, 4):
        for b in range(0, 4 - a):
            chi = Weight({v: a * weights[0][v] + b * weights[1][v]
                          for v in sq4.base.vertices})
            assert weight_space_dim(sq4, SYMPLECTIC, beta, chi) == 1
    off = Weight({1: 1, 2: 0, 3: -1, 4: 0})
    assert weight_space_dim(sq4, SYMPLECTIC, beta, off) == 0


def test_validate_rejects_every_single_perturbation():
    sq = families.a11(0, 2)
    from symquiv.symmetric import SymmetricQuiver
    from symquiv.errors import NotContravariant, NotInvolutive, PartitionViolation
    verts = list(sq.base.vertices)
    for v in verts:
        for w in verts:
            if sq.sv(v) == w:
                continue
            bad = dict(sq.sigma_v)
            bad[v] = w
            with pytest.raises((NotContravariant, NotInvolutive, PartitionViolation)):
                SymmetricQuiver(sq.base, bad, dict(sq.sigma_a))
    names = [a.name for a in sq.base.arrows]
    for a in names:
        for b in names:
            if sq.sa(a) == b:
                continue
            bad_a = dict(sq.sigma_a)
            bad_a[a] = b
            with pytest.raises((NotContravariant, NotInvolutive, PartitionViolation)):
                SymmetricQuiver(sq.base, dict(sq.sigma_v), bad_a)


def test_generators_finite_preconditions():
    from symquiv.errors import AsymmetricDimension, OddSymplecticDimension
    sq = families.symmetric_a(4)
    with pytest.raises(AsymmetricDimension):
        generators_finite(sq, DimensionVector({1: 1, 2: 2, 3: 1, 4: 1}), SYMPLECTIC)
    sq5 = families.symmetric_a(5)
    with pytest.raises(OddSymplecticDimension):
        generators_finite(sq5, DimensionVector({1: 1, 2: 2, 3: 3, 4: 2, 5: 1}),
                          SYMPLECTIC)
    with pytest.raises(Exception):
        generators_finite(families.a201(0, 0), DimensionVector({1: 1, 2: 1}),
                          SYMPLECTIC)


def test_an_unknown_flavor_is_a_validation_error():
    """Each enumeration and the generic decomposition reject a flavor other
    than sp and o (or a mode other than plain, sp and o) before any work."""
    from symquiv.errors import ValidationError
    from symquiv.tame import generic_summands
    kronecker, d = families.a201(0, 0), DimensionVector({1: 2, 2: 2})
    calls = [lambda: generators_finite(families.symmetric_a(4),
                                       DimensionVector({1: 1, 2: 1, 3: 1, 4: 1}), "x"),
             lambda: generators_tame(kronecker, d, "x"),
             lambda: generic_summands(kronecker, d, "x")]
    for call in calls:
        with pytest.raises(ValidationError, match="^flavor must be 'sp' or 'o'$"):
            call()


def test_generators_labelled_inputs_all_families():
    from symquiv.tame import tau_orbits
    rng = random.Random(5)
    fams = [families.a201(2, 2), families.a202(2, 2), families.a02(2, 2),
            families.a11(2, 2), families.a00(2), families.d10(3),
            families.d01(3)]
    for sq in fams:
        orbits = tau_orbits(sq)
        d = null_root(sq.base).scale(2)
        for poly in orbits.polygons:
            if poly.partner is not None and poly.partner < poly.name:
                continue
            labels = [rng.randint(0, 2) for _ in range(poly.rank)]
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
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            gens = generators_tame(sq, d, flavor)
            assert gens
            w = random_structured(sq, flavor, d, seed=1)
            for g in gens:
                elt = random_group_element(sq, flavor, d,
                                           seed=rng.randint(0, 10 ** 9))
                assert g.evaluate(act(elt, w)) == g.evaluate(w)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "fixtures").glob("*.qv")),
                         ids=lambda p: p.stem)
def test_generators_at_dimension_zero_are_empty(path):
    # every candidate evaluates to a 0 x 0 matrix there, whose det or pf is
    # the constant 1
    sq = sqio.parse_quiver(path.read_text())
    zero = DimensionVector.zero(sq.base)
    enumeration = (generators_finite if classify_symmetric(sq).tag == "FiniteA"
                   else generators_tame)
    for flavor in (SYMPLECTIC, ORTHOGONAL):
        assert enumeration(sq, zero, flavor) == []


def test_a_candidate_through_zero_spaces_is_not_a_generator():
    # interval[2,2] and mirror-interval[2,3] of the five-chain and
    # mirror-interval[2,2] of the four-chain present modules whose row and
    # column vertices carry 0
    sq5 = families.symmetric_a(5)
    beta5 = DimensionVector({1: 1, 2: 0, 3: 0, 4: 0, 5: 1})
    sq4 = families.symmetric_a(4)
    beta4 = DimensionVector({1: 1, 2: 0, 3: 0, 4: 1})
    assert generators_finite(sq5, beta5, SYMPLECTIC) == []
    assert generators_finite(sq4, beta4, ORTHOGONAL) == []


@pytest.mark.xfail(strict=True, reason="generators_finite has no nonzero test: "
                   "det mirror-interval[1,3] at (2,1,1,2) is the det of a 2x2 map "
                   "through 1-dimensional spaces")
def test_finite_generators_do_not_vanish_identically():
    sq = families.symmetric_a(4)
    beta = DimensionVector({1: 2, 2: 1, 3: 1, 4: 2})
    for g in generators_finite(sq, beta, SYMPLECTIC):
        assert any(g.evaluate(random_structured(sq, SYMPLECTIC, beta, seed=s))
                   for s in (1, 2, 3)), g.provenance
