"""Quiver objects are immutable and compute each invariant once, per object."""

import dataclasses
import random

import pytest

from symquiv.errors import UnsupportedSymmetricType
from symquiv import cli, families, io as sqio, quiver, semiinvariant, symmetric, tame
from symquiv.quiver import DimensionVector, Quiver, null_root
from symquiv.reflection import MINUS, PLUS, coxeter_dim, reflect_dim
from symquiv.symmetric import SymmetricQuiver, admissible_sinks, reflect_pair_quiver
from symquiv.tame import tau_orbits

CONSTRUCTORS = [families.symmetric_a(1), families.symmetric_a(2), families.symmetric_a(5),
                families.a201(0, 0), families.a201(2, 2), families.a201(4, 2),
                families.a202(2, 0), families.a202(4, 2), families.a02(2, 2),
                families.a02(4, 2), families.a11(0, 2), families.a11(2, 4),
                families.a00(2), families.a00(4), families.d10(3), families.d10(4),
                families.d01(3), families.d01(4)]

TAME = [families.a201(2, 2), families.a202(2, 2), families.a02(2, 2), families.a11(2, 2),
        families.a00(2), families.d10(3), families.d01(4)]


def test_generators_solves_null_root_once_per_quiver(tmp_path, monkeypatch):
    sq = families.d01(4)
    path = tmp_path / "d01.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    dim = ",".join(str(x) for x in null_root(sq.base).scale(2).as_tuple(sq.base.vertices))
    solved, kernels = [], []
    real_solve, real_kernel = quiver._solve_null_root, quiver.kernel_basis
    monkeypatch.setattr(quiver, "_solve_null_root",
                        lambda q: solved.append(q) or real_solve(q))
    monkeypatch.setattr(quiver, "kernel_basis",
                        lambda m: kernels.append(m) or real_kernel(m))
    for flavor in ("sp", "o"):
        solved.clear()
        kernels.clear()
        argv = ["generators", "-q", str(path), "--dim", dim, "--flavor", flavor,
                "--check-invariance", "1"]
        assert cli.main(argv) == 0
        assert solved, "the command needs the null root"
        assert len({id(q) for q in solved}) == len(solved)
        assert len(kernels) == len(solved)


def test_generators_classifies_each_symmetric_quiver_once(tmp_path, monkeypatch):
    sq = families.d10(4)
    path = tmp_path / "d10.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    dim = ",".join(str(x) for x in null_root(sq.base).scale(2).as_tuple(sq.base.vertices))
    classified, shapes = [], []
    real_classify, real_shape = symmetric._classify, symmetric.validate_and_classify
    monkeypatch.setattr(symmetric, "_classify",
                        lambda s: classified.append(s) or real_classify(s))
    monkeypatch.setattr(symmetric, "validate_and_classify",
                        lambda q: shapes.append(q) or real_shape(q))
    for flavor in ("sp", "o"):
        classified.clear()
        shapes.clear()
        argv = ["generators", "-q", str(path), "--dim", dim, "--flavor", flavor,
                "--check-invariance", "1"]
        assert cli.main(argv) == 0
        assert classified, "the command needs the symmetric type"
        assert len({id(s) for s in classified}) == len(classified)
        assert len(shapes) == len(classified)


def test_generators_computes_graph_type_once_per_quiver(tmp_path, monkeypatch):
    sq = families.a202(2, 2)
    path = tmp_path / "a202.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    dim = ",".join(str(x) for x in null_root(sq.base).scale(2).as_tuple(sq.base.vertices))
    # every graph type computation starts with one connectivity test
    shapes = []
    real_connected = quiver._connected
    monkeypatch.setattr(quiver, "_connected", lambda q: shapes.append(q) or real_connected(q))
    for flavor in ("sp", "o"):
        shapes.clear()
        argv = ["generators", "-q", str(path), "--dim", dim, "--flavor", flavor,
                "--check-invariance", "1"]
        assert cli.main(argv) == 0
        assert shapes, "the command needs the graph type"
        assert len({id(q) for q in shapes}) == len(shapes)


@pytest.mark.parametrize("sq", [families.a201(4, 2), families.a02(4, 2), families.a00(4)],
                         ids=lambda sq: sq.base.name)
def test_generators_finds_each_string_tiling_once_per_polygon(sq, tmp_path, monkeypatch):
    path = tmp_path / "family.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    dim = ",".join(str(x) for x in null_root(sq.base).scale(2).as_tuple(sq.base.vertices))
    tilings, realized = [], []
    real_tiling, real_realize = tame._find_tiling, semiinvariant.realize_interval
    monkeypatch.setattr(tame, "_find_tiling",
                        lambda s, poly: tilings.append((s, poly.name)) or real_tiling(s, poly))
    monkeypatch.setattr(semiinvariant, "realize_interval",
                        lambda s, *args: realized.append(args) or real_realize(s, *args))
    for flavor in ("sp", "o"):
        del tilings[:], realized[:]
        assert cli.main(["generators", "-q", str(path), "--dim", dim, "--flavor", flavor]) == 0
        # tilings keeps every quiver object alive, so no id is reused
        keys = [(id(s), name) for s, name in tilings]
        assert len(set(keys)) == len(keys)
        assert len(realized) > len(keys) > 0


def test_unsupported_symmetric_type_is_not_kept():
    # a triple arrow: a wild underlying graph
    q = Quiver([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)])
    sq = SymmetricQuiver(q, {1: 2, 2: 1}, {"a": "a", "b": "b", "c": "c"})
    for _ in range(2):
        with pytest.raises(UnsupportedSymmetricType):
            symmetric.classify_symmetric(sq)
    assert "classify" not in sq._memo


def test_returned_invariants_cannot_change_the_memo():
    sq = families.d10(3)
    h = null_root(sq.base)
    before = h.as_tuple(sq.base.vertices)
    with pytest.raises(TypeError):
        h.values[sq.base.vertices[0]] = 7
    with pytest.raises(AttributeError):
        h.values = {}
    assert null_root(sq.base).as_tuple(sq.base.vertices) == before

    orbits = tau_orbits(sq)
    snapshot = [(p.name, p.dims, p.sigma, p.partner) for p in orbits.polygons]
    poly = orbits.polygons[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        poly.dims = poly.dims[::-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        orbits.polygons = []
    with pytest.raises(TypeError):
        poly.sigma[0] = 1
    with pytest.raises(TypeError):
        poly.dims[0].values[1] = 5
    orbits.polygons.reverse()
    orbits.polygons.pop()
    again = tau_orbits(sq)
    assert [(p.name, p.dims, p.sigma, p.partner)
            for p in again.polygons] == snapshot


def test_quiver_objects_reject_attribute_assignment():
    sq = families.a11(2, 2)
    q = sq.base
    for obj, attr, value in ((q, "name", "other"), (q, "arrows", ()), (q, "extra", 1),
                             (sq, "base", q), (sq, "v_fixed", ()), (sq, "extra", 1),
                             (null_root(q), "values", {})):
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)
    with pytest.raises(AttributeError):
        del q.vertices
    with pytest.raises(TypeError):
        sq.sigma_v[1] = 2
    with pytest.raises(TypeError):
        q.arrow_by_name["new"] = q.arrows[0]


def test_reflected_quivers_get_their_own_orbits():
    for sq in TAME:
        orbits = tau_orbits(sq)
        assert orbits.sq is sq
        same = sq.with_base(sq.base)
        assert tau_orbits(same).sq is same
        assert tau_orbits(same).polygons == orbits.polygons
        for x in admissible_sinks(sq):
            refl = reflect_pair_quiver(sq, x)
            got = tau_orbits(refl)
            assert got.sq is refl
            # the same quiver built anew has no memo to share
            q = refl.base
            fresh = SymmetricQuiver(Quiver(q.vertices, [(a.name, a.tail, a.head)
                                                        for a in q.arrows]),
                                    refl.sigma_v, refl.sigma_a)
            assert got.polygons == tau_orbits(fresh).polygons
            h = null_root(q)
            for poly in got.polygons:
                total = poly.dims[0].scale(0)
                for i, e in enumerate(poly.dims):
                    total = total + e
                    assert coxeter_dim(q, e, PLUS) == poly.dims[(i + 1) % poly.rank]
                assert total == h
        assert tau_orbits(sq).polygons == orbits.polygons


def _coxeter_by_reflections(q, alpha, direction):
    """Oracle: the reflection word at the smallest sink (plus) or source
    (minus) of the current quiver, reflecting quiver and vector each step."""
    cur_q, cur = q, alpha
    remaining = set(q.vertices)
    while remaining:
        x = min(v for v in remaining
                if (cur_q.is_sink(v) if direction == PLUS else cur_q.is_source(v)))
        cur_q, cur = reflect_dim(cur_q, x, cur)
        remaining.discard(x)
    return cur


def test_coxeter_dim_matches_reflection_word():
    rng = random.Random(1006)
    for sq in CONSTRUCTORS:
        q = sq.base
        for direction in (PLUS, MINUS):
            for _ in range(6):
                alpha = DimensionVector({v: rng.randint(-3, 6) for v in q.vertices})
                assert coxeter_dim(q, alpha, direction) == \
                    _coxeter_by_reflections(q, alpha, direction)
