"""Acceptance suite: one test per criterion, exact arithmetic throughout."""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from symquiv import families
from symquiv import io as sqio
from symquiv.cli import main as cli_main
from symquiv.linalg import RationalMatrix, determinant, pfaffian
from symquiv.quiver import DimensionVector, euler_form, null_root
from symquiv.reflection import MINUS, PLUS, coxeter_dim, coxeter_rep, dual_rep, \
    reflect_pair_rep
from symquiv.representation import (Representation, act, dvw_and_homext,
                                    dvw_matrix, interval_module,
                                    random_group_element, random_structured)
from symquiv.schur import weight_space_dim
from symquiv.semiinvariant import (GeneratorDescriptor, Weight, evaluate_cv,
                                   gamma, generators_finite, generators_tame,
                                   weight_of_cv)
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC
from symquiv.tame import (canonical_decomposition, generic_summands,
                          realize_summand, tau_orbits)

FIX = Path(__file__).parent / "fixtures"

TAME_FAMILIES = {
    "a201": families.a201(2, 2),
    "a202": families.a202(2, 2),
    "a02": families.a02(2, 2),
    "a11": families.a11(2, 2),
    "a00": families.a00(2),
    "d10": families.d10(3),
    "d01": families.d01(4),
}


def _random_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-9, 9))
            rows[i][j] = x
            rows[j][i] = -x
    return RationalMatrix.from_rows(rows)


def test_criterion_01_pfaffian_identities():
    rng = random.Random(20260810)
    for n in range(1, 6):
        for _ in range(100):
            m = _random_skew(rng, 2 * n)
            p = pfaffian(m)
            assert p * p == determinant(m)
            b = RationalMatrix(2 * n, 2 * n,
                               [rng.randint(-3, 3) for _ in range(4 * n * n)])
            assert pfaffian(b * m * b.transpose()) == determinant(b) * p
    print("criterion 1 (pfaffian identities): PASS")


def test_criterion_02_euler_hom_ext():
    rng = random.Random(2)
    quivers = [families.symmetric_a(5).base, families.a201(2, 2).base]
    for q in quivers:
        for _ in range(200):
            def rnd():
                dim = DimensionVector({v: rng.randint(0, 3) for v in q.vertices})
                mats = {a.name: RationalMatrix(
                    dim[a.head], dim[a.tail],
                    [rng.randint(-5, 5) for _ in range(dim[a.head] * dim[a.tail])])
                    for a in q.arrows}
                return Representation(q, dim, mats)
            v, w = rnd(), rnd()
            _, hom, ext = dvw_and_homext(v, w)
            assert hom - ext == euler_form(q, v.dim, w.dim)
    print("criterion 2 (Euler form vs Hom/Ext): PASS")


def _check_invariant_nonzero(sq, beta, flavor, gens, rng, group_trials=20):
    w = random_structured(sq, flavor, beta, seed=101)
    for g in gens:
        assert any(g.evaluate(random_structured(sq, flavor, beta, seed=s)) != 0
                   for s in range(4))
        base = g.evaluate(w)
        for _ in range(group_trials):
            elt = random_group_element(sq, flavor, beta, seed=rng.randint(0, 10 ** 9))
            assert g.evaluate(act(elt, w)) == base


def test_criterion_03_finite_generators():
    rng = random.Random(3)
    sq4 = families.symmetric_a(4)
    beta = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
    gens = generators_finite(sq4, beta, SYMPLECTIC)
    assert sorted(g.provenance for g in gens) == \
        ["mirror-interval[1,3]", "mirror-interval[2,2]"]
    _check_invariant_nonzero(sq4, beta, SYMPLECTIC, gens, rng)

    beta_o = DimensionVector({v: 2 for v in sq4.base.vertices})
    gens_o = generators_finite(sq4, beta_o, ORTHOGONAL)
    by_prov = {g.provenance: g for g in gens_o}
    assert by_prov["mirror-interval[1,3]"].kind == "pf"
    assert by_prov["mirror-interval[2,2]"].kind == "pf"
    w = random_structured(sq4, ORTHOGONAL, beta_o, seed=55)
    for g in gens_o:
        if g.kind == "pf":
            det_twin = GeneratorDescriptor("det", g.weight, "twin", template=g.template)
            assert g.evaluate(w) ** 2 == det_twin.evaluate(w)
    _check_invariant_nonzero(sq4, beta_o, ORTHOGONAL, gens_o, rng)

    sq5 = families.symmetric_a(5)
    beta5 = DimensionVector({1: 2, 2: 2, 3: 2, 4: 2, 5: 2})
    gens5sp = generators_finite(sq5, beta5, SYMPLECTIC)
    kinds5 = {g.provenance: g.kind for g in gens5sp}
    assert kinds5["mirror-interval[1,4]"] == "pf"
    assert kinds5["mirror-interval[2,3]"] == "pf"
    _check_invariant_nonzero(sq5, beta5, SYMPLECTIC, gens5sp, rng)
    gens5o = generators_finite(sq5, beta5, ORTHOGONAL)
    assert all(g.kind == "det" for g in gens5o)
    assert any(g.provenance == "mirror-interval[1,4]" for g in gens5o)
    _check_invariant_nonzero(sq5, beta5, ORTHOGONAL, gens5o, rng)
    print("criterion 3 (finite type generators): PASS")


def test_criterion_04_tame_ph_generators():
    rng = random.Random(4)
    sq = families.a201(0, 0)
    h = null_root(sq.base)
    d2 = h.scale(2)
    gens = generators_tame(sq, d2, SYMPLECTIC)
    assert [g.index for g in gens] == [0, 1, 2]
    _check_invariant_nonzero(sq, d2, SYMPLECTIC, gens, rng)
    w = random_structured(sq, SYMPLECTIC, d2, seed=77)
    vals = {g.index: g.evaluate(w) for g in gens}
    det_a = determinant(w.fixed_matrices["a"])
    det_b = determinant(w.fixed_matrices["b"])
    assert {vals[0], vals[2]} == {det_a, det_b}
    assert vals[0] == det_a  # the constant side of the parameter pencil

    assert generators_tame(sq, h.scale(3), ORTHOGONAL) == []

    sqd = families.d10(3)
    hd = null_root(sqd.base)
    gd = generators_tame(sqd, hd, SYMPLECTIC)
    provs = [g.provenance for g in gd]
    weights = {g.provenance: g.weight for g in gd}
    # six clauses: the spine determinant, the two-leg block determinant (and
    # its mirror), the two long-path determinants, the crossed determinant,
    # and a two-member coefficient pencil
    assert "arc[delta:1+2]" in provs                   # spine arrow
    assert "arc[delta:0+2]" in provs                   # block of the two legs
    assert "arc[delta2:0+2]" in provs and "arc[delta2:1+2]" in provs
    assert "arc[delta1:0+2]" in provs and "arc[delta1:1+2]" in provs
    assert [g.index for g in gd if g.kind.startswith("pencil")] == [0, 1]
    wd = random_structured(sqd, SYMPLECTIC, hd, seed=5)
    e0 = next(g for g in gd if g.provenance == "arc[delta1:0+2]").evaluate(wd)
    e1 = next(g for g in gd if g.provenance == "arc[delta1:1+2]").evaluate(wd)
    assert e0 == e1 != 0  # the two crossed determinants agree
    _check_invariant_nonzero(sqd, hd, SYMPLECTIC, gd, rng, group_trials=10)
    print("criterion 4 (tame null-root generators): PASS")


def test_criterion_05_oracle_agreement():
    sq2 = families.symmetric_a(2)
    for p in range(1, 5):
        beta = DimensionVector({1: p, 2: p})
        for k in range(0, 4):
            chi = Weight({1: Fraction(k), 2: Fraction(-k)})
            dim = weight_space_dim(sq2, SYMPLECTIC, beta, chi)
            # the monomial count in the single determinant generator
            assert dim == 1
    sqk = families.a201(0, 0)
    for p in range(1, 5):
        d = null_root(sqk.base).scale(p)
        chi = Weight({1: Fraction(1), 2: Fraction(-1)})
        dim = weight_space_dim(sqk, SYMPLECTIC, d, chi)
        assert dim == p + 1
        gens = generators_tame(sqk, d, SYMPLECTIC)
        assert len(gens) == p + 1
        assert all(g.weight == chi for g in gens)
    print("criterion 5 (weight space oracle agreement): PASS")


def test_criterion_06_decomposition_example():
    sq = families.a11(0, 6)
    orbits = tau_orbits(sq)
    poly = orbits.polygons[0]
    h = null_root(sq.base)
    labels = {0: 2, 3: 2, 2: 3, 4: 3}
    d = h.scale(2)
    for i, lab in labels.items():
        d = d + poly.dims[i].scale(lab)
    verts = sq.base.vertices
    pair = poly.dims[2] + poly.dims[poly.sigma[2]]
    chain = poly.interval_sum(2, 3)
    single = poly.dims[0]

    def summary(mode):
        out = {}
        for s in generic_summands(sq, d, mode):
            key = s.dim.as_tuple(verts)
            out[key] = out.get(key, 0) + s.mult
        return out

    plain = summary("plain")
    assert plain[chain.as_tuple(verts)] == 2
    assert plain[pair.as_tuple(verts)] == 1
    assert plain[single.as_tuple(verts)] == 2
    sp = summary(SYMPLECTIC)
    assert sp[single.scale(2).as_tuple(verts)] == 1
    assert single.as_tuple(verts) not in sp
    assert sp[chain.as_tuple(verts)] == 2
    oo = summary(ORTHOGONAL)
    assert oo[single.as_tuple(verts)] == 2
    assert oo[chain.scale(2).as_tuple(verts)] == 1
    assert chain.as_tuple(verts) not in oo
    for mode in ("plain", SYMPLECTIC, ORTHOGONAL):
        total = d.scale(0)
        for s in generic_summands(sq, d, mode):
            total = total + s.dim.scale(s.mult)
        assert total == d
    print("criterion 6 (worked decomposition example): PASS")


def test_criterion_07_involutions_translation():
    rng = random.Random(7)
    for name, sq in TAME_FAMILIES.items():
        h = null_root(sq.base)
        assert coxeter_dim(sq.base, h, PLUS) == h
        for _ in range(100):
            half = {v: rng.randint(0, 4) for v in sq.base.vertices}
            alpha = DimensionVector({v: max(half[v], half[sq.sv(v)])
                                     for v in sq.base.vertices})
            assert sq.delta(sq.delta(alpha)) == alpha
            chi = weight_of_cv(sq, alpha)
            assert gamma(sq, gamma(sq, chi)) == chi
            assert gamma(sq, chi) == \
                weight_of_cv(sq, coxeter_dim(sq.base, sq.delta(alpha), MINUS))
    print("criterion 7 (involutions and translation): PASS")


def test_criterion_08_reflection_duality_ratios():
    checked = 0
    # reflection leg on the equioriented 5-chain, at the admissible end pair,
    # for the mirror-weight-free indecomposables
    sq5 = families.symmetric_a(5)
    beta = DimensionVector({v: 2 for v in sq5.base.vertices})
    for (j, i) in [(2, 2), (3, 3), (2, 3)]:
        v = interval_module(5, j, i)
        assert euler_form(sq5.base, v.dim, beta) == 0
        _, v_r = reflect_pair_rep(sq5, 5, PLUS, v)
        ratios = set()
        hits = 0
        for seed in range(5):
            w = random_structured(sq5, SYMPLECTIC, beta, seed=seed)
            _, w_r = reflect_pair_rep(sq5, 5, PLUS, w.full())
            lhs = evaluate_cv(v, w)
            rhs = determinant(dvw_matrix(v_r, w_r))
            if lhs and rhs:
                hits += 1
                ratios.add(lhs / rhs)
        assert hits >= 3 and len(ratios) == 1
        checked += 1
    # duality leg on the 5-chain and on the smallest mixed tame family
    for (j, i) in [(1, 1), (2, 2), (1, 4), (2, 3)]:
        v = interval_module(5, j, i)
        if euler_form(sq5.base, v.dim, beta) != 0:
            continue
        tv = coxeter_rep(sq5.base, dual_rep(sq5, v), MINUS)
        ratios = set()
        hits = 0
        for seed in range(5):
            w = random_structured(sq5, SYMPLECTIC, beta, seed=seed)
            lhs = evaluate_cv(v, w)
            rhs = determinant(dvw_matrix(tv, w.full()))
            if lhs and rhs:
                hits += 1
                ratios.add(lhs / rhs)
        assert hits >= 3 and len(ratios) == 1
        checked += 1
    sq11 = families.a11(0, 2)
    from symquiv.tame import tame_regular_module
    d = null_root(sq11.base).scale(2)
    mods = [tame_regular_module(sq11, ("E", 0, 0)),
            tame_regular_module(sq11, ("E", 1, 1)),
            tame_regular_module(sq11, ("E", 0, 1)),
            tame_regular_module(sq11, ("Vhom", 1, 1))]
    for v in mods:
        tv = coxeter_rep(sq11.base, dual_rep(sq11, v), MINUS)
        ratios = set()
        hits = 0
        for seed in range(5):
            w = random_structured(sq11, SYMPLECTIC, d, seed=seed)
            lhs = evaluate_cv(v, w)
            rhs = determinant(dvw_matrix(tv, w.full()))
            if lhs and rhs:
                hits += 1
                ratios.add(lhs / rhs)
        # on structured points the two values agree on the nose
        assert hits >= 3 and ratios == {Fraction(1)}
        checked += 1
    assert checked >= 10
    print("criterion 8 (reflection and duality compatibility): PASS")


def _random_regular(rng, sq, orbits, p):
    h = null_root(sq.base)
    d = h.scale(p)
    for poly in orbits.polygons:
        if poly.partner is not None and poly.partner < poly.name:
            continue
        labels = [rng.randint(0, 2) for _ in range(poly.rank)]
        if poly.sigma is not None:
            labels = [max(labels[i], labels[poly.sigma[i]]) for i in range(poly.rank)]
        labels = [l - min(labels) for l in labels]
        if poly.sigma is not None:
            # symplectic parity: labels over the poles must stay even
            for i in range(poly.rank):
                if poly.sigma[i] == i and labels[i] % 2:
                    labels[i] -= 1
        for i, lab in enumerate(labels):
            d = d + poly.dims[i].scale(lab)
            if poly.partner is not None:
                d = d + sq.delta(poly.dims[i]).scale(lab)
    return d


def test_criterion_09_ext_vanishing_of_generic_decompositions():
    rng = random.Random(9)
    for name, sq in TAME_FAMILIES.items():
        orbits = tau_orbits(sq)
        for trial in range(30):
            d = _random_regular(rng, sq, orbits, p=2)
            for mode in (SYMPLECTIC, ORTHOGONAL):
                summands = generic_summands(sq, d, mode)
                mods = [realize_summand(sq, s) for s in summands]
                for m, s in zip(mods, summands):
                    assert m.dim == s.dim
                for i in range(len(mods)):
                    for j in range(len(mods)):
                        if i == j:
                            continue
                        _, _, ext = dvw_and_homext(mods[i], mods[j])
                        assert ext == 0, (name, mode, summands[i].recipe,
                                          summands[j].recipe)
    print("criterion 9 (rigidity of generic decompositions): PASS")


def test_criterion_10_cli_roundtrip_and_determinism(tmp_path):
    for path in sorted(FIX.glob("*.qv")):
        text = path.read_text()
        assert sqio.serialize_quiver(sqio.parse_quiver(text)) == text
    for path in sorted(FIX.glob("*.rep")):
        text = path.read_text()
        qname = text.splitlines()[0].split()[1]
        qfile = {"A201_0_0": "a201_00.qv", "D10_3": "d10_3.qv"}[qname]
        sq = sqio.parse_quiver((FIX / qfile).read_text())
        assert sqio.serialize_representation(
            sqio.parse_representation(text, sq)) == text

    def run(*argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    for argv in (
        ("generators", "-q", str(FIX / "d10_3.qv"), "--dim", "1,1,2,1,1,2",
         "--flavor", "sp", "--json-lines", "--seed", "5"),
        ("decompose", "-q", str(FIX / "a11_02.qv"), "--dim", "2,2,2",
         "--mode", "sp"),
        ("arcs", "-q", str(FIX / "a201_22.qv"), "--dim", "2,2,2,2,2,2"),
    ):
        c1, o1 = run(*argv)
        c2, o2 = run(*argv)
        assert c1 == c2 == 0
        assert o1 == o2
    print("criterion 10 (CLI round trips and determinism): PASS")
