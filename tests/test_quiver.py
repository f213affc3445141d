import random

import pytest

from symquiv.errors import CyclicQuiver, NotEuclidean
from symquiv.quiver import (DimensionVector, Quiver, defect, euler_form,
                            null_root, tits_form, validate_and_classify)


def path_quiver(n):
    return Quiver(range(1, n + 1), [("a%d" % i, i, i + 1) for i in range(1, n)])


def cycle_quiver_alternating(n_vertices):
    # alternating orientation around a cycle (n_vertices even)
    arrows = []
    for i in range(1, n_vertices + 1):
        j = i % n_vertices + 1
        if i % 2 == 1:
            arrows.append(("c%d" % i, i, j))
        else:
            arrows.append(("c%d" % i, j, i))
    return Quiver(range(1, n_vertices + 1), arrows)


def unit(q, x):
    """The unit dimension vector at x."""
    return DimensionVector.zero(q).replace(x, 1)


def kronecker():
    return Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])


def dtilde_eq(n_spine):
    """D-tilde with equioriented spine: two source leaves, two sink leaves."""
    spine = list(range(3, 3 + n_spine))
    arrows = [("a", 1, spine[0]), ("b", 2, spine[0])]
    for i in range(n_spine - 1):
        arrows.append(("c%d" % (i + 1), spine[i], spine[i + 1]))
    last = spine[-1]
    arrows += [("d", last, 3 + n_spine), ("e", last, 4 + n_spine)]
    return Quiver(list(range(1, 3 + n_spine)) + [3 + n_spine, 4 + n_spine], arrows)


def test_cycle_rejected():
    with pytest.raises(CyclicQuiver):
        Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])


def test_classify_path():
    assert str(validate_and_classify(path_quiver(3))) == "DynkinA(3)"
    assert str(validate_and_classify(path_quiver(1))) == "DynkinA(1)"


def test_classify_alternating_cycle():
    assert str(validate_and_classify(cycle_quiver_alternating(4))) == "EuclideanA(3)"


def test_classify_kronecker():
    assert str(validate_and_classify(kronecker())) == "EuclideanA(1)"


def test_classify_d_types():
    d4 = Quiver([1, 2, 3, 4], [("a", 1, 3), ("b", 2, 3), ("c", 3, 4)])
    assert str(validate_and_classify(d4)) == "DynkinD(4)"
    dt = dtilde_eq(2)
    assert str(validate_and_classify(dt)) == "EuclideanD(5)"
    dt4 = Quiver([1, 2, 3, 4, 5],
                 [("a", 1, 3), ("b", 2, 3), ("c", 3, 4), ("d", 3, 5)])
    assert str(validate_and_classify(dt4)) == "EuclideanD(4)"


def test_classify_e6():
    arrows = [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 4, 5), ("e", 6, 3)]
    q = Quiver(range(1, 7), arrows)
    assert str(validate_and_classify(q)) == "DynkinE(6)"


def test_euler_form_a2():
    q = path_quiver(2)
    e1 = unit(q, 1)
    e2 = unit(q, 2)
    assert euler_form(q, e1, e2) == -1
    alpha = DimensionVector({1: 1, 2: 1})
    assert euler_form(q, alpha, alpha) == 1


def test_null_root_atilde_all_ones():
    q = cycle_quiver_alternating(6)
    h = null_root(q)
    assert all(h[v] == 1 for v in q.vertices)
    assert euler_form(q, h, h) == 0


def test_null_root_dtilde_pattern():
    q = dtilde_eq(2)
    h = null_root(q)
    leaves = [v for v in q.vertices if len(q.arrows_at(v)) == 1]
    spine = [v for v in q.vertices if len(q.arrows_at(v)) > 1]
    assert all(h[v] == 1 for v in leaves)
    assert all(h[v] == 2 for v in spine)
    assert euler_form(q, h, h) == 0


def test_null_root_requires_euclidean():
    q = path_quiver(3)
    for _ in range(2):          # a failure is not remembered as a result
        with pytest.raises(NotEuclidean):
            null_root(q)


def test_tits_form_positive_semidefinite_on_euclidean():
    rng = random.Random(42)
    for q in (kronecker(), cycle_quiver_alternating(4), dtilde_eq(2)):
        h = null_root(q)
        for _ in range(500):
            alpha = DimensionVector({v: rng.randint(0, 5) for v in q.vertices})
            assert tits_form(q, alpha) >= 0
        assert tits_form(q, h) == 0
        for x in q.vertices:
            assert tits_form(q, h + unit(q, x)) >= 0


def test_defect_examples():
    q = kronecker()
    h = null_root(q)
    assert defect(q, h) == 0
    # projective cover of vertex 1 has dimension (1, 2); preprojectives have
    # negative defect
    assert defect(q, DimensionVector({1: 1, 2: 2})) < 0


def test_paths_from():
    q = path_quiver(3)
    paths = q.paths_from(1)
    assert paths[1] == [()]
    assert paths[2] == [("a1",)]
    assert paths[3] == [("a1", "a2")]
    assert q.path_endpoints(("a1", "a2")) == (1, 3)
