"""Quiver objects are immutable and compute each invariant once, per object."""

import contextlib
import dataclasses
import io
import random

import pytest

from symquiv.errors import UnsupportedSymmetricType
from symquiv import cli, families, io as sqio, quiver, semiinvariant, symmetric, tame
from symquiv.quiver import DimensionVector, Quiver, null_root
from symquiv.reflection import MINUS, PLUS, coxeter_dim, reflect_dim
from symquiv.representation import random_structured
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


def _generators_argv(path, sq, flavor, *extra):
    """A generators command on the quiver file at twice its null root."""
    dim = ",".join(str(x) for x in null_root(sq.base).scale(2).as_tuple(sq.base.vertices))
    return ["generators", "-q", str(path), "--dim", dim, "--flavor", flavor, *extra]


# Each test below runs two generators commands on one quiver file, sp and
# then o, from an empty quiver cache: the first command computes each
# invariant once, and the second, on the same text, reads the quiver the
# first one parsed and computes none.

def test_generators_solves_null_root_once_per_quiver(tmp_path, monkeypatch):
    sq = families.d01(4)
    path = tmp_path / "d01.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    solved, kernels = [], []
    real_solve, real_kernel = quiver._solve_null_root, quiver.kernel_basis
    monkeypatch.setattr(quiver, "_solve_null_root",
                        lambda q: solved.append(q) or real_solve(q))
    monkeypatch.setattr(quiver, "kernel_basis",
                        lambda m: kernels.append(m) or real_kernel(m))
    cli._parse_quiver_text.cache_clear()
    assert cli.main(_generators_argv(path, sq, "sp", "--check-invariance", "1")) == 0
    assert solved, "the command needs the null root"
    assert len({id(q) for q in solved}) == len(solved)
    assert len(kernels) == len(solved)
    del solved[:], kernels[:]
    assert cli.main(_generators_argv(path, sq, "o", "--check-invariance", "1")) == 0
    assert solved == kernels == []


def test_generators_classifies_each_symmetric_quiver_once(tmp_path, monkeypatch):
    sq = families.d10(4)
    path = tmp_path / "d10.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    classified, shapes = [], []
    real_classify, real_shape = symmetric._classify, symmetric.validate_and_classify
    monkeypatch.setattr(symmetric, "_classify",
                        lambda s: classified.append(s) or real_classify(s))
    monkeypatch.setattr(symmetric, "validate_and_classify",
                        lambda q: shapes.append(q) or real_shape(q))
    cli._parse_quiver_text.cache_clear()
    assert cli.main(_generators_argv(path, sq, "sp", "--check-invariance", "1")) == 0
    assert classified, "the command needs the symmetric type"
    assert len({id(s) for s in classified}) == len(classified)
    assert len(shapes) == len(classified)
    del classified[:], shapes[:]
    assert cli.main(_generators_argv(path, sq, "o", "--check-invariance", "1")) == 0
    assert classified == shapes == []


def test_generators_computes_graph_type_once_per_quiver(tmp_path, monkeypatch):
    sq = families.a202(2, 2)
    path = tmp_path / "a202.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    # every graph type computation starts with one connectivity test
    shapes = []
    real_connected = quiver._connected
    monkeypatch.setattr(quiver, "_connected", lambda q: shapes.append(q) or real_connected(q))
    cli._parse_quiver_text.cache_clear()
    assert cli.main(_generators_argv(path, sq, "sp", "--check-invariance", "1")) == 0
    assert shapes, "the command needs the graph type"
    assert len({id(q) for q in shapes}) == len(shapes)
    del shapes[:]
    assert cli.main(_generators_argv(path, sq, "o", "--check-invariance", "1")) == 0
    assert shapes == []


@pytest.mark.parametrize("sq", [families.a201(4, 2), families.a02(4, 2), families.a00(4)],
                         ids=lambda sq: sq.base.name)
def test_generators_finds_each_string_tiling_once_per_polygon(sq, tmp_path, monkeypatch):
    path = tmp_path / "family.quiver"
    path.write_text(sqio.serialize_quiver(sq))
    tilings, realized = [], []
    real_tiling, real_realize = tame._find_tiling, semiinvariant.realize_interval
    monkeypatch.setattr(tame, "_find_tiling",
                        lambda s, poly: tilings.append((s, poly.name)) or real_tiling(s, poly))
    monkeypatch.setattr(semiinvariant, "realize_interval",
                        lambda s, *args: realized.append(args) or real_realize(s, *args))
    cli._parse_quiver_text.cache_clear()
    assert cli.main(_generators_argv(path, sq, "sp")) == 0
    # tilings keeps every quiver object alive, so no id is reused
    keys = [(id(s), name) for s, name in tilings]
    assert len(set(keys)) == len(keys)
    # each arc module is realized once, and some polygon has two arcs
    assert len(set(realized)) == len(realized) > len(keys) > 0
    del tilings[:], realized[:]
    assert cli.main(_generators_argv(path, sq, "o")) == 0
    assert tilings == realized == []


def test_quiver_cache_is_keyed_by_text_bounded_and_keeps_no_failed_parse(tmp_path,
                                                                        monkeypatch):
    parsed = []
    real_parse = sqio.parse_quiver
    monkeypatch.setattr(sqio, "parse_quiver", lambda text: parsed.append(text) or
                        real_parse(text))
    cli._parse_quiver_text.cache_clear()
    path = tmp_path / "q.qv"

    def classify():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["classify", "-q", str(path)])
        return code, out.getvalue()

    path.write_text(sqio.serialize_quiver(families.a201(0, 0)))
    assert classify() == classify() == (0, "A201 k=0 l=0\n")
    assert len(parsed) == 1
    # an edited file at the same path is parsed afresh
    path.write_text(sqio.serialize_quiver(families.a02(2, 2)))
    assert classify() == (0, "A02 k=2 l=2\n")
    assert len(parsed) == 2
    # a file that fails to parse keeps nothing, and is parsed on every command
    path.write_text("quiver X\nvertex 1 2\narrow a 1\n")
    assert classify() == classify() == (2, "")
    assert len(parsed) == 4
    assert cli._parse_quiver_text.cache_info().currsize == 2
    # the cache holds the last QUIVER_CACHE_SIZE texts
    for n in range(2, cli.QUIVER_CACHE_SIZE + 2):
        path.write_text(sqio.serialize_quiver(families.symmetric_a(n)))
        assert classify() == (0, "FiniteA(%d)\n" % n)
    assert cli._parse_quiver_text.cache_info().currsize == cli.QUIVER_CACHE_SIZE
    del parsed[:]
    path.write_text(sqio.serialize_quiver(families.a201(0, 0)))
    assert classify() == (0, "A201 k=0 l=0\n")
    assert len(parsed) == 1


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


def _template_value(t):
    """Everything of a template or pencil but its quiver object."""
    return tuple(getattr(t, f.name) for f in dataclasses.fields(t) if f.name != "quiver")


@pytest.mark.parametrize("make", [lambda: families.a00(2), lambda: families.d10(3)],
                         ids=["A00_2", "D10_3"])
def test_memoized_templates_cannot_change_the_memo(make):
    sq = make()
    d = null_root(sq.base).scale(2)
    gens = semiinvariant.generators_tame(sq, d, "o")
    arcs = {key: t for key, t in sq._memo.items() if key[0] == "arc_template"}
    assert arcs, "the enumeration keeps its arc templates"
    pen = tame.pencil_templates(sq)
    templates = list(arcs.values())
    if sq.base.name.startswith("A00"):
        templates.append(tame.pf_singleton_template(sq))
    for t in templates + [pen]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.rows = ()
        with pytest.raises(AttributeError):
            t.cols.append(1)
        with pytest.raises(TypeError):
            t.rows[0] = 7
    for t in templates:
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.entries = ()
        with pytest.raises(TypeError):
            t.entries[0] = ()
        with pytest.raises(TypeError):
            t.entries[0][0][("x",)] = 1
    for grid in (pen.phi_entries, pen.psi_entries, pen.const_entries):
        with pytest.raises(TypeError):
            grid[0][0][("x",)] = 1
        with pytest.raises(TypeError):
            grid[0] = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        pen.signs = (1,)
    # a round of enumeration and evaluation leaves the memo as a fresh
    # quiver computes it
    values = semiinvariant.evaluate_all(gens, random_structured(sq, "o", d, seed=3))
    assert tame.pencil_templates(sq) is pen
    assert all(sq._memo[key] is t for key, t in arcs.items())
    fresh = make()
    assert semiinvariant.evaluate_all(semiinvariant.generators_tame(fresh, d, "o"),
                                      random_structured(fresh, "o", d, seed=3)) == values
    assert _template_value(tame.pencil_templates(fresh)) == _template_value(pen)
    assert {key: _template_value(fresh._memo[key]) for key in arcs} == \
        {key: _template_value(t) for key, t in arcs.items()}


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
