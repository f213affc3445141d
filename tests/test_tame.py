import io
import random
from contextlib import redirect_stdout
from itertools import product
from math import prod

import pytest

from symquiv import families
from symquiv import io as sqio
from symquiv.cli import main
from symquiv.errors import AsymmetricDimension, NotRegular, UnsupportedSymmetricType
from symquiv.quiver import DimensionVector, null_root
from symquiv.reflection import PLUS, coxeter_dim
from symquiv.representation import dvw_and_homext
from symquiv.semiinvariant import generators_tame
from symquiv.symmetric import (ORTHOGONAL, SYMPLECTIC, _cycle_order,
                               admissible_sinks, reflect_pair_quiver)
from symquiv.tame import (_find_tiling, _regular_simple_roots, _window_matches,
                          admissible_arcs,
                          canonical_decomposition, generic_summands,
                          pencil_templates, realize_summand,
                          tame_regular_module, tau_orbits)


def labels_of(dec, name):
    """The labels of the polygon named ``name`` in a canonical decomposition."""
    (labels,) = [lp.labels for lp in dec.labelled if lp.polygon.name == name]
    return labels


FAMILIES = {
    "a201": families.a201(2, 2),
    "a202": families.a202(2, 2),
    "a02": families.a02(2, 2),
    "a11": families.a11(2, 2),
    "a00": families.a00(2),
    "d10": families.d10(3),
    "d01": families.d01(4),
}


def esempio_setup():
    sq = families.a11(0, 6)
    orbits = tau_orbits(sq)
    poly = orbits.polygons[0]
    h = null_root(sq.base)
    # two poles: index 0 carries the fixed vertex, index 3 the fixed arrow
    labels = {0: 2, 3: 2, 2: 3, 4: 3}
    d = h.scale(2)
    for i, lab in labels.items():
        d = d + poly.dims[i].scale(lab)
    return sq, orbits, poly, d


def test_tau_orbit_invariants():
    for name, sq in FAMILIES.items():
        h = null_root(sq.base)
        orbits = tau_orbits(sq)
        for poly in orbits.polygons:
            total = poly.dims[0].scale(0)
            for i, e in enumerate(poly.dims):
                total = total + e
                assert coxeter_dim(sq.base, e, PLUS) == poly.dims[(i + 1) % poly.rank]
                if poly.sigma is not None:
                    assert sq.delta(e) == poly.dims[poly.sigma[i]]
            assert total == h


def _box_scan(q):
    """Test oracle: every vector of the box [0, h] other than 0 and h with
    zero defect and Tits form 1, found by visiting them all."""
    verts = list(q.vertices)
    h = null_root(q).as_tuple(verts)
    pos = {v: i for i, v in enumerate(verts)}
    arrows = [(pos[a.tail], pos[a.head]) for a in q.arrows]
    coeffs = [h[i] - sum(h[t] for t, s in arrows if s == i) for i in range(len(verts))]
    out = set()
    for x in product(*(range(k + 1) for k in h)):
        if not any(x) or x == h:
            continue
        if sum(c * y for c, y in zip(coeffs, x)) != 0:
            continue
        if sum(y * y for y in x) - sum(x[t] * x[s] for t, s in arrows) != 1:
            continue
        out.add(DimensionVector(dict(zip(verts, x))))
    return out


def _candidate_regular_simples(q):
    """The positive real roots below h, other than h, with zero defect."""
    return [DimensionVector(dict(zip(q.vertices, x))) for x in _regular_simple_roots(q)]


def _family_quivers():
    for k, l in product((0, 2, 4), repeat=2):
        yield families.a201(k, l)
        if k >= 2:
            yield families.a202(k, l)
        if l >= 2:
            yield families.a11(k, l)
            if k >= 2:
                yield families.a02(k, l)
    for k in (2, 4, 6):
        yield families.a00(k)
    for n in (3, 4, 5, 6):
        yield families.d10(n)
        yield families.d01(n)


def test_reflection_search_matches_box_scan():
    """The regular simple candidates reached by raising reflections from the
    simple roots are exactly those of the box scan, on every family quiver
    whose box [0, h] has at most 1e5 points."""
    checked = 0
    for sq in _family_quivers():
        q = sq.base
        if prod(x + 1 for x in null_root(q).as_tuple(q.vertices)) > 10 ** 5:
            continue
        assert set(_candidate_regular_simples(q)) == _box_scan(q), q.name
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("make", [lambda: families.d10(12), lambda: families.d01(12),
                                  lambda: families.a201(12, 2)],
                         ids=["d10(12)", "d01(12)", "a201(12,2)"])
def test_large_family_orbits_and_generators(tmp_path, make):
    """Large family quivers, far beyond a box scan: the translation orbits
    keep their invariants, and generators at h pass an invariance check in
    both flavors."""
    sq = make()
    h = null_root(sq.base)
    orbits = tau_orbits(sq)
    orbit_sets = {frozenset(poly.dims) for poly in orbits.polygons}
    assert orbit_sets
    assert {frozenset(map(sq.delta, o)) for o in orbit_sets} == orbit_sets
    for poly in orbits.polygons:
        total = poly.dims[0].scale(0)
        for i, e in enumerate(poly.dims):
            total = total + e
            assert coxeter_dim(sq.base, e, PLUS) == poly.dims[(i + 1) % poly.rank]
        assert total == h
    qfile = tmp_path / "q.qv"
    qfile.write_text(sqio.serialize_quiver(sq))
    dim = ",".join(str(x) for x in h.as_tuple(sq.base.vertices))
    for flavor in (SYMPLECTIC, ORTHOGONAL):
        with redirect_stdout(io.StringIO()) as out:
            code = main(["generators", "-q", str(qfile), "--dim", dim,
                         "--flavor", flavor, "--check-invariance", "1"])
        assert code == 0, flavor
        assert out.getvalue().strip()


def _polygons_on_dimension_vectors(sq):
    """Oracle of the orbit walk: the polygons found on DimensionVectors,
    with coxeter_dim as the step and sq.delta as the involution."""
    q = sq.base
    verts = q.vertices
    h = null_root(q)
    candidates = set(_candidate_regular_simples(q))
    orbits, seen = [], set()
    for alpha in sorted(candidates, key=lambda a: a.as_tuple(verts)):
        if alpha in seen:
            continue
        orbit, cur = [alpha], alpha
        seen.add(alpha)
        while True:
            cur = coxeter_dim(q, cur, PLUS)
            if cur == alpha:
                break
            if cur not in candidates or len(orbit) > len(candidates):
                orbit = None
                break
            orbit.append(cur)
            seen.add(cur)
        if orbit is not None and sum(orbit[1:], orbit[0]) == h:
            orbits.append(orbit)
    orbits.sort(key=lambda o: (-len(o), o[0].as_tuple(verts)))

    def involution(dims):
        return tuple(dims.index(sq.delta(e)) for e in dims)

    names = ["delta", "delta1", "delta2"]
    out = []
    for oi, orbit in enumerate(orbits):
        img = sq.delta(orbit[0])
        target = next(oj for oj, other in enumerate(orbits) if img in other)
        if target != oi:
            out.append((names[oi], tuple(orbit), None, names[target]))
            continue
        r = len(orbit)
        sigma = involution(orbit)
        ends = ([i for i in range(r) if sigma[i] == i]
                or [i for i in range(r) if sigma[i] == (i + 1) % r])
        anchor = min(ends, key=lambda i: orbit[i].as_tuple(verts))
        dims = tuple(orbit[anchor:] + orbit[:anchor])
        out.append((names[oi], dims, involution(list(dims)), None))
    return out


@pytest.mark.parametrize("make", [lambda: families.d10(12), lambda: families.d01(12),
                                  lambda: families.a201(12, 2), None],
                         ids=["d10(12)", "d01(12)", "a201(12,2)", "family quivers"])
def test_tuple_orbit_walk_matches_dimension_vector_walk(make):
    quivers = [make()] if make else list(_family_quivers()) + list(FAMILIES.values())
    for sq in quivers:
        got = [(p.name, p.dims, p.sigma, p.partner) for p in tau_orbits(sq).polygons]
        assert got == _polygons_on_dimension_vectors(sq), sq.base.name


def _search_tiling(sq, poly):
    """The (order, s, rho, eps) of the first start s, element rho and
    direction eps, in that order of loops, whose windows tile the cycle."""
    order = _cycle_order(sq.base)
    r = poly.rank
    lens = [sum(e.values.values()) for e in poly.dims]
    for s in range(len(order)):
        for rho in range(r):
            for eps in (1, -1):
                pos = s
                for t in range(r):
                    idx = (rho + eps * t) % r
                    if not _window_matches(sq, order, pos, lens[idx], poly.dims[idx]):
                        break
                    pos += lens[idx]
                else:
                    return order, s, rho, eps
    return None


def test_string_tiling_read_off_the_arcs_matches_the_search():
    """On every polygon of the A family quivers and of one admissible
    reflection of each, the tiling read off the arcs is the first one the
    search over (s, rho, eps) finds."""
    rng = random.Random(23)
    checked = 0
    for sq in _family_quivers():
        if not sq.base.name.startswith("A"):
            continue
        sinks = admissible_sinks(sq)
        for cur in [sq] + ([reflect_pair_quiver(sq, rng.choice(sinks))] if sinks else []):
            for poly in tau_orbits(cur).polygons:
                assert _find_tiling(cur, poly) == _search_tiling(cur, poly)
                checked += 1
    assert checked > 40


def test_kronecker_has_no_polygons():
    assert tau_orbits(families.a201(0, 0)).polygons == []


def test_d10_orbit_shapes():
    orbits = tau_orbits(families.d10(3))
    ranks = sorted(p.rank for p in orbits.polygons)
    assert ranks == [2, 2, 3]
    small = [p for p in orbits.polygons if p.rank == 2]
    fixedness = sorted(all(p.sigma[i] == i for i in range(2)) if p.sigma else False
                       for p in small)
    assert fixedness == [False, True]


def test_canonical_decomposition_roundtrip():
    rng = random.Random(31)
    for name, sq in FAMILIES.items():
        orbits = tau_orbits(sq)
        h = null_root(sq.base)
        for trial in range(10):
            p = rng.randint(0, 2)
            d = h.scale(p)
            expected = {}
            for poly in orbits.polygons:
                if poly.partner is not None and poly.partner < poly.name:
                    continue
                labels = [0] * poly.rank
                support = rng.sample(range(poly.rank), k=rng.randint(0, poly.rank - 1))
                for i in support:
                    labels[i] = rng.randint(0, 2)
                if poly.sigma is not None:
                    sym = [0] * poly.rank
                    for i in range(poly.rank):
                        sym[i] = max(labels[i], labels[poly.sigma[i]])
                    labels = sym
                if min(labels) != 0:
                    labels = [l - min(labels) for l in labels]
                expected[poly.name] = labels
                for i, lab in enumerate(labels):
                    d = d + poly.dims[i].scale(lab)
                    if poly.partner is not None:
                        img = sq.delta(poly.dims[i])
                        d = d + img.scale(lab)
            dec = canonical_decomposition(sq, d)
            assert dec.p == p
            for poly_name, labels in expected.items():
                assert labels_of(dec, poly_name) == labels


def test_canonical_decomposition_rejects():
    sq = FAMILIES["a201"]
    h = null_root(sq.base)
    bad = h.replace(1, h[1] + 1)
    with pytest.raises((NotRegular, AsymmetricDimension)):
        canonical_decomposition(sq, bad)


def test_ph_arcs_are_edges():
    for name, sq in FAMILIES.items():
        h = null_root(sq.base)
        dec = canonical_decomposition(sq, h.scale(2))
        for lp in dec.labelled:
            arcs = admissible_arcs(lp)
            assert all(a.length == 2 and a.ind == 0 and a.q == 0 for a in arcs)
            assert len(arcs) == lp.polygon.rank


def test_esempio_arcs_and_modes():
    sq, orbits, poly, d = esempio_setup()
    dec = canonical_decomposition(sq, d)
    assert dec.p == 2
    assert labels_of(dec, "delta") == [2, 0, 3, 2, 3, 0]
    arcs = {(a.start, a.length): a for a in admissible_arcs(dec.labelled[0])}
    assert arcs[(0, 1)].q == 2 and arcs[(0, 1)].ind == 2
    assert arcs[(2, 1)].q == 1 and arcs[(2, 1)].ind == 3
    assert arcs[(2, 3)].q == 2 and arcs[(2, 3)].ind == 2

    verts = sq.base.vertices
    e = poly.dims
    pair = (e[2] + e[poly.sigma[2]])
    chain = pair + e[1].scale(0) + e[0]  # (e2 + de2) + e1 analogue
    chain = poly.interval_sum(2, 3)
    plain = sorted((s.dim.as_tuple(verts), s.mult) for s in
                   generic_summands(sq, d, "plain"))
    h = null_root(sq.base)
    assert (chain.as_tuple(verts), 2) in plain
    assert (pair.as_tuple(verts), 1) in plain
    assert (e[0].as_tuple(verts), 2) in plain
    sp = sorted((s.dim.as_tuple(verts), s.mult) for s in
                generic_summands(sq, d, SYMPLECTIC))
    assert (e[0].scale(2).as_tuple(verts), 1) in sp
    assert (chain.as_tuple(verts), 2) in sp
    oo = sorted((s.dim.as_tuple(verts), s.mult) for s in
                generic_summands(sq, d, ORTHOGONAL))
    assert (e[0].as_tuple(verts), 2) in oo
    assert (chain.scale(2).as_tuple(verts), 1) in oo
    for mode in ("plain", SYMPLECTIC, ORTHOGONAL):
        total = d.scale(0)
        for s in generic_summands(sq, d, mode):
            total = total + s.dim.scale(s.mult)
        assert total == d


def random_regular_symmetric(rng, sq, orbits, p=2, maxlab=2, even_poles=True):
    h = null_root(sq.base)
    d = h.scale(p)
    for poly in orbits.polygons:
        if poly.partner is not None and poly.partner < poly.name:
            continue
        labels = [0] * poly.rank
        for i in range(poly.rank):
            labels[i] = rng.randint(0, maxlab)
        if poly.sigma is not None:
            labels = [max(labels[i], labels[poly.sigma[i]]) for i in range(poly.rank)]
            if even_poles:
                for i in range(poly.rank):
                    if poly.sigma[i] == i and labels[i] % 2:
                        labels[i] += 1
        labels = [l - min(labels) for l in labels]
        if even_poles and poly.sigma is not None:
            for i in range(poly.rank):
                if poly.sigma[i] == i and labels[i] % 2:
                    labels = [0] * poly.rank
        for i, lab in enumerate(labels):
            d = d + poly.dims[i].scale(lab)
            if poly.partner is not None:
                d = d + sq.delta(poly.dims[i]).scale(lab)
    return d


def test_generic_decomposition_sums_and_symmetry():
    rng = random.Random(77)
    for name, sq in FAMILIES.items():
        orbits = tau_orbits(sq)
        for trial in range(8):
            d = random_regular_symmetric(rng, sq, orbits)
            for mode in ("plain", SYMPLECTIC, ORTHOGONAL):
                ss = generic_summands(sq, d, mode)
                total = d.scale(0)
                for s in ss:
                    total = total + s.dim.scale(s.mult)
                    assert sq.delta(s.dim) == s.dim or s.recipe[0] == "h"
                assert total == d


def test_realized_summands_pairwise_rigid():
    rng = random.Random(99)
    for name, sq in FAMILIES.items():
        orbits = tau_orbits(sq)
        for trial in range(3):
            d = random_regular_symmetric(rng, sq, orbits)
            for mode in (SYMPLECTIC, ORTHOGONAL):
                ss = generic_summands(sq, d, mode)
                mods = [realize_summand(sq, s) for s in ss]
                for m, s in zip(mods, ss):
                    assert m.dim == s.dim
                for i in range(len(mods)):
                    for j in range(len(mods)):
                        if i == j:
                            continue
                        _, _, ext = dvw_and_homext(mods[i], mods[j])
                        assert ext == 0, (name, mode, ss[i].recipe, ss[j].recipe)


def test_tame_regular_module_examples():
    sq = families.d10(3)
    orbits = tau_orbits(sq)
    h = null_root(sq.base)
    vhom = tame_regular_module(sq, ("Vhom", 1, 0))
    assert vhom.dim == h
    vhom2 = tame_regular_module(sq, ("Vhom", 0, 1))
    assert vhom2.dim == h
    for poly in orbits.polygons:
        for i in range(poly.rank):
            tag = {"delta": "E", "delta1": "E1", "delta2": "E2"}[poly.name]
            mod = tame_regular_module(sq, (tag, i, i))
            assert mod.dim == poly.dims[i]


def test_pencil_cokernels_have_null_root_dimension():
    from fractions import Fraction
    from symquiv.presentation import module_from_presentation
    for name, sq in FAMILIES.items():
        pen = pencil_templates(sq)
        h = null_root(sq.base)
        for phi in (1, 2, 5):
            mod = module_from_presentation(pen.combine(Fraction(phi), Fraction(1)))
            assert mod.dim == h


@pytest.mark.parametrize("make, at", [
    (lambda: families.a201(2, 2), 4), (lambda: families.a02(2, 4), 5),
    (lambda: families.a00(4), 5), (lambda: families.d10(3), 4),
    (lambda: families.d01(4), 5), (lambda: families.d01(4), 6)],
    ids=["a201(2,2)@4", "a02(2,4)@5", "a00(4)@5", "d10(3)@4", "d01(4)@5", "d01(4)@6"])
def test_no_pencil_for_a_reflected_orientation_is_unsupported(make, at):
    """An orientation whose pencil is not built is unsupported (exit 3), not
    an AssertionError or a false non-composable path."""
    sq = reflect_pair_quiver(make(), at)
    with pytest.raises(UnsupportedSymmetricType):
        pencil_templates(sq)
    with pytest.raises(UnsupportedSymmetricType):
        generators_tame(sq, null_root(sq.base).scale(2), SYMPLECTIC)


@pytest.mark.parametrize("make, at, counts", [
    (lambda: families.a02(2, 2), 4, (6, 7)), (lambda: families.a00(2), 3, (5, 5)),
    (lambda: families.d01(3), 4, (8, 9)), (lambda: families.d01(3), 5, (8, 9))],
    ids=["a02(2,2)@4", "a00(2)@3", "d01(3)@4", "d01(3)@5"])
def test_reflected_orientations_with_a_pencil_keep_their_generators(make, at, counts):
    sq = reflect_pair_quiver(make(), at)
    d = null_root(sq.base).scale(2)
    assert tuple(len(generators_tame(sq, d, flavor))
                 for flavor in (SYMPLECTIC, ORTHOGONAL)) == counts
