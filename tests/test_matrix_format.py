"""Property tests of the matrix format: a ``RationalMatrix`` is int
numerators over one reduced positive denominator, and every public
operation agrees with the same operation on plain lists of Fractions."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symquiv.linalg import RationalMatrix  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)

entry = st.one_of(st.integers(-12, 12),
                  st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))
size = st.integers(0, 4)


def grid(rows, cols):
    """A list-of-rows oracle of the given shape with mixed-denominator entries."""
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def matrix(rows, cols):
    return grid(rows, cols).map(lambda g: (rows, cols, [[Fraction(x) for x in r] for r in g]))


shaped = st.tuples(size, size).flatmap(lambda rc: matrix(*rc))


def build(oracle):
    rows, cols, g = oracle
    return RationalMatrix(rows, cols, [x for r in g for x in r])


def check(m, rows, cols, g):
    """``m`` is in the format and holds the oracle ``g`` (rows x cols)."""
    assert (m.rows, m.cols) == (rows, cols)
    assert type(m.den) is int and m.den > 0
    assert len(m.num) == rows * cols and all(type(x) is int for x in m.num)
    assert gcd(m.den, *m.num) == 1
    flat = [x for r in g for x in r]
    assert m.data == flat
    assert all(type(x) is Fraction for x in m.data)
    assert [m.row(i) for i in range(rows)] == g
    assert [[m[i, j] for j in range(cols)] for i in range(rows)] == g
    same = RationalMatrix(rows, cols, flat)
    assert m == same and hash(m) == hash(same)


@SETTINGS
@given(shaped)
def test_construction_and_from_rows(oracle):
    rows, cols, g = oracle
    check(build(oracle), rows, cols, g)
    if rows:
        check(RationalMatrix.from_rows(g), rows, cols, g)


@SETTINGS
@given(shaped, entry)
def test_transpose_negate_scale(oracle, c):
    rows, cols, g = oracle
    m = build(oracle)
    check(m.transpose(), cols, rows, [[g[i][j] for i in range(rows)] for j in range(cols)])
    check(-m, rows, cols, [[-x for x in r] for r in g])
    check(m.scale(c), rows, cols, [[c * x for x in r] for r in g])


@SETTINGS
@given(st.tuples(size, size).flatmap(lambda rc: st.tuples(matrix(*rc), matrix(*rc))))
def test_add_and_subtract(pair):
    (rows, cols, g), (_, _, h) = pair
    a, b = build(pair[0]), build(pair[1])
    check(a + b, rows, cols, [[x + y for x, y in zip(r, s)] for r, s in zip(g, h)])
    check(a - b, rows, cols, [[x - y for x, y in zip(r, s)] for r, s in zip(g, h)])
    check(a - a, rows, cols, [[Fraction(0)] * cols for _ in range(rows)])


@SETTINGS
@given(st.tuples(size, size, size).flatmap(
    lambda s: st.tuples(matrix(s[0], s[1]), matrix(s[1], s[2]),
                        st.lists(entry, min_size=s[1], max_size=s[1]))))
def test_product_and_apply(args):
    (rows, inner, g), (_, cols, h), vec = args
    a, b = build(args[0]), build(args[1])
    check(a * b, rows, cols,
          [[sum((g[i][k] * h[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
           for i in range(rows)])
    got = a.apply(vec)
    assert got == [sum((x * v for x, v in zip(r, vec)), Fraction(0)) for r in g]
    assert all(type(x) is Fraction for x in got)


@SETTINGS
@given(st.tuples(size, size, size, size).flatmap(
    lambda s: st.tuples(matrix(s[0], s[2]), matrix(s[0], s[3]),
                        matrix(s[1], s[2]), matrix(s[1], s[3]))))
def test_block(blocks):
    (h1, w1, a), (_, w2, b), (h2, _, c), (_, _, d) = blocks
    m = RationalMatrix.block([[build(blocks[0]), build(blocks[1])],
                              [build(blocks[2]), build(blocks[3])]])
    check(m, h1 + h2, w1 + w2, [r + s for r, s in zip(a, b)] + [r + s for r, s in zip(c, d)])


@SETTINGS
@given(size.flatmap(lambda n: matrix(n, n)))
def test_symmetry_predicates(oracle):
    n, _, g = oracle
    sym = [[g[i][j] + g[j][i] for j in range(n)] for i in range(n)]
    skew = [[g[i][j] - g[j][i] for j in range(n)] for i in range(n)]
    for h in (g, sym, skew):
        m = build((n, n, h))
        assert m.is_symmetric() == all(h[i][j] == h[j][i] for i in range(n) for j in range(n))
        assert m.is_skew_symmetric() == all(h[i][j] == -h[j][i]
                                            for i in range(n) for j in range(n))
    assert build((n, n, sym)).is_symmetric() and build((n, n, skew)).is_skew_symmetric()


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda rc: st.tuples(matrix(*rc), st.integers(0, rc[0] - 1), st.integers(0, rc[1] - 1),
                         entry)))
def test_item_assignment_raises_and_changes_nothing(args):
    """A matrix is a value: no entry can be written after construction."""
    (rows, cols, g), i, j, value = args
    m = build(args[0])
    before = hash(m)
    with pytest.raises(TypeError):
        m[i, j] = value
    check(m, rows, cols, g)
    assert hash(m) == before
