import random
from fractions import Fraction

import pytest

from symquiv.errors import NotSkewSymmetric, OddDimension, ValidationError
from symquiv.linalg import (RationalMatrix, _eliminate, _interpolate_int, _kernel,
                            column_space_complement,
                            determinant, interpolate_polynomial, inverse, kernel_basis, linalg_kit,
                            pfaffian, rank, rref, solve)


def pfaffian_matching_sum(m: RationalMatrix) -> Fraction:
    """Pfaffian via the signed sum over perfect matchings (test oracle)."""
    def rec(indices):
        if not indices:
            return Fraction(1)
        i = indices[0]
        total = Fraction(0)
        for pos in range(1, len(indices)):
            a = m[i, indices[pos]]
            if a:
                rest = indices[1:pos] + indices[pos + 1:]
                total += (-1 if pos % 2 == 0 else 1) * a * rec(rest)
        return total

    return rec(tuple(range(m.rows)))


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return RationalMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def skew_rows(rng, n, max_den=1, density=1.0):
    """The rows of a random n x n skew-symmetric matrix."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if density < 1 and rng.random() >= density:
                continue
            x = Fraction(rng.randint(-9, 9))
            if max_den > 1:
                x /= rng.randint(1, max_den)
            rows[i][j] = x
            rows[j][i] = -x
    return rows


def random_skew(rng, n, max_den=1, density=1.0):
    return RationalMatrix.from_rows(skew_rows(rng, n, max_den, density))


def test_kit_identity():
    kit = linalg_kit(RationalMatrix.identity(2))
    assert kit.rank == 2
    assert kit.det == 1
    assert kit.kernel_basis == []
    assert kit.cokernel_dim == 0


def test_kit_zero_1x1():
    kit = linalg_kit(RationalMatrix(1, 1, [0]))
    assert kit.rank == 0
    assert kit.det == 0
    assert kit.kernel_basis == [[Fraction(1)]]
    assert kit.cokernel_dim == 1


def test_kit_rank_one():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    kit = linalg_kit(m)
    assert kit.rank == 1
    assert kit.det == 0
    assert kit.cokernel_dim == 1
    assert kit.kernel_basis == [[Fraction(-2), Fraction(1)]]


def test_rank_kernel_relation_random():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        m = random_matrix(rng, r, c, -3, 3)
        kit = linalg_kit(m)
        assert kit.rank + len(kit.kernel_basis) == c
        assert kit.cokernel_dim == r - kit.rank
        for v in kit.kernel_basis:
            assert all(x == 0 for x in m.apply(v))


def test_rank_invariant_under_permutation():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, 4, 5, -4, 4)
        rows = [m.row(i) for i in range(4)]
        rng.shuffle(rows)
        perm = RationalMatrix.from_rows(rows)
        assert rank(m) == rank(perm)


def test_determinant_against_definition():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        # cofactor expansion oracle
        def cof(rows):
            k = len(rows)
            if k == 0:
                return Fraction(1)
            if k == 1:
                return rows[0][0]
            total = Fraction(0)
            for j in range(k):
                if rows[0][j]:
                    minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                    total += (-1) ** j * rows[0][j] * cof(minor)
            return total
        assert determinant(m) == cof([m.row(i) for i in range(n)])


def test_pfaffian_2x2():
    assert pfaffian(RationalMatrix.from_rows([[0, 5], [-5, 0]])) == 5


def test_pfaffian_4x4_example():
    m = RationalMatrix.from_rows([
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ])
    assert pfaffian(m) == 8  # 1*6 - 2*5 + 3*4
    assert determinant(m) == 64


def test_pfaffian_empty():
    assert pfaffian(RationalMatrix.zero(0, 0)) == 1


def test_pfaffian_rejects_bad_input():
    with pytest.raises(OddDimension):
        pfaffian(RationalMatrix.zero(3, 3))
    with pytest.raises(NotSkewSymmetric):
        pfaffian(RationalMatrix.identity(2))


def test_pfaffian_square_is_det():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(20):
            m = random_skew(rng, 2 * n)
            p = pfaffian(m)
            assert p * p == determinant(m)


def test_pfaffian_congruence():
    rng = random.Random(9)
    for n in range(1, 5):
        for _ in range(10):
            m = random_skew(rng, 2 * n)
            b = random_matrix(rng, 2 * n, 2 * n, -3, 3)
            conj = b * m * b.transpose()
            assert pfaffian(conj) == determinant(b) * pfaffian(m)


def test_pfaffian_eliminate_matches_matching_sum():
    rng = random.Random(13)
    cases = []
    for n in range(0, 7):
        for density in (1.0, 0.5, 0.2):
            for _ in range(6 if n < 5 else 2):
                cases.append(random_skew(rng, 2 * n, max_den=5, density=density))
        if n:
            # a zero first pivot forces the row/column swap
            g = skew_rows(rng, 2 * n, max_den=5)
            g[0][1] = g[1][0] = 0
            cases.append(RationalMatrix.from_rows(g))
            # singular: vertex 0 isolated, and a rank-deficient congruence
            g = skew_rows(rng, 2 * n, max_den=5)
            for j in range(2 * n):
                g[0][j] = g[j][0] = 0
            cases.append(RationalMatrix.from_rows(g))
            g = [[rng.randint(-3, 3) for _ in range(2 * n)] for _ in range(2 * n)]
            g[1] = [x * 2 for x in g[0]]
            b = RationalMatrix.from_rows(g)
            cases.append(b * random_skew(rng, 2 * n, max_den=5) * b.transpose())
    for m in cases:
        p = pfaffian(m)
        assert p == pfaffian_matching_sum(m)
        assert p ** 2 == determinant(m)
    assert any(pfaffian(m) == 0 and any(m.num) for m in cases)


def test_linalg_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    for trial in range(100):
        rows = rng.randint(0, 12)
        cols = rows if trial % 2 == 0 else rng.randint(0, 12)
        data = [[entry() for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0 and cols:
            for r in data:
                r[0] = Fraction(0)           # zero leading pivot column
        if trial % 5 == 0 and rows > 2:
            data[-1] = [x - 2 * y for x, y in zip(data[0], data[1])]  # rank drop
        if trial % 7 == 0 and cols > 1:
            for r in data:
                r[-1] = r[0] * 3             # dependent column
        m = RationalMatrix(rows, cols, [x for r in data for x in r])
        s = sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                      for r in data for x in r])
        assert rank(m) == s.rank()
        assert kernel_basis(m) == [[frac(x) for x in v] for v in s.nullspace()]
        ech, pivots = rref(m)
        s_ech, s_pivots = s.rref()
        assert pivots == list(s_pivots)
        assert ech.data == [frac(x) for x in s_ech]
        # cokernel: the pivots of the transpose's rref pick the column-space
        # basis, and proj is the kernel basis of the transpose
        proj, comp = column_space_complement(m)
        assert comp == [i for i in range(rows) if i not in s.T.rref()[1]]
        assert (proj.rows, proj.cols) == (len(comp), rows)
        assert [proj.row(i) for i in range(proj.rows)] == [
            [frac(x) for x in v] for v in s.T.nullspace()]
        rhs = [entry() for _ in range(rows)]
        if trial % 4 == 0 and cols:
            rhs = m.apply([entry() for _ in range(cols)])   # consistent
        try:
            sol, params = s.gauss_jordan_solve(
                sympy.Matrix(rows, 1, [sympy.Rational(x.numerator, x.denominator)
                                       for x in rhs]))
        except ValueError:
            assert solve(m, rhs) is None
        else:
            sol = sol.subs({t: 0 for t in params})   # the free variables at zero
            assert solve(m, rhs) == [frac(x) for x in sol]
        if rows == cols:
            det = s.det()
            assert determinant(m) == frac(det)
            if det:
                assert inverse(m).data == [frac(x) for x in s.inv()]
            else:
                with pytest.raises(ValidationError):
                    inverse(m)


def test_one_elimination_per_kit_and_determinant(monkeypatch):
    from symquiv import linalg
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda a, *args, **kw: calls.append(a) or real(a, *args, **kw))
    rng = random.Random(31)
    for rows, cols in ((3, 3), (4, 6), (6, 4), (5, 5)):
        m = random_matrix(rng, rows, cols, -3, 3)
        calls.clear()
        linalg_kit(m)
        assert len(calls) == 1
        if rows == cols:
            calls.clear()
            determinant(m)
            assert len(calls) == 1


def test_pfaffian_large_uses_elimination():
    rng = random.Random(17)
    m = random_skew(rng, 14)
    assert pfaffian(m) ** 2 == determinant(m)


def _vandermonde_interpolation(pts):
    """Oracle: solve the Vandermonde system, then drop trailing zeros."""
    n = len(pts)
    vm = RationalMatrix(n, n, [Fraction(x) ** j for x, _ in pts for j in range(n)])
    sol = solve(vm, [Fraction(y) for _, y in pts])
    while sol and sol[-1] == 0:
        sol.pop()
    return sol


def test_interpolation_roundtrip():
    coeffs = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(7)]
    pts = []
    for x in range(5):
        y = sum(c * x ** i for i, c in enumerate(coeffs))
        pts.append((Fraction(x), y))
    assert interpolate_polynomial(pts) == coeffs
    assert interpolate_polynomial([]) == []
    assert interpolate_polynomial([(0, 0), (1, 0)]) == []
    rng = random.Random(4378)
    for trial in range(60):
        n = rng.randint(1, 9)
        xs = set()
        while len(xs) < n:
            xs.add(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
        pts = [(x, Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
               for x in sorted(xs, key=lambda _: rng.random())]
        got = interpolate_polynomial(pts)
        assert got == _vandermonde_interpolation(pts)
        for x, y in pts:
            assert sum(c * x ** i for i, c in enumerate(got)) == y
    # integer nodes 0..d and integer values, as the pencil solver uses them
    for d in range(8):
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(d + 1)]
        pts = [(Fraction(t), sum(c * t ** i for i, c in enumerate(coeffs)))
               for t in range(d + 1)]
        assert interpolate_polynomial(pts) == _vandermonde_interpolation(pts)


def test_integer_interpolation_matches_newton():
    """The all-int interpolation at nodes 0..d equals the general routine at
    every degree the pencils reach, for any positive scale, and on the zero
    polynomial."""
    rng = random.Random(4379)
    for d in range(41):
        for values in ([0] * (d + 1),
                       [rng.randint(-10 ** 9, 10 ** 9) for _ in range(d + 1)],
                       [rng.randint(-3, 3) for _ in range(d + 1)]):
            for scale in (1, rng.randint(2, 10 ** 6)):
                want = interpolate_polynomial([(t, Fraction(v, scale))
                                               for t, v in enumerate(values)])
                assert _interpolate_int(values, scale) == want, (d, values, scale)
        # a polynomial of lower degree keeps only its own coefficients
        coeffs = [rng.randint(-50, 50) for _ in range(d // 2)] + [1]
        values = [sum(c * t ** i for i, c in enumerate(coeffs)) for t in range(d + 1)]
        assert _interpolate_int(values) == coeffs
    assert _interpolate_int([]) == []


def test_kernel_deterministic_order():
    m = RationalMatrix.from_rows([[1, 1, 0, 2]])
    kb = kernel_basis(m)
    assert kb[0][1] == 1 and kb[1][2] == 1 and kb[2][3] == 1


def test_index_outside_the_shape_raises():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    for key in ((0, 2), (2, 0), (-1, -1), (0, -1), (-1, 0)):
        with pytest.raises(IndexError):
            m[key]
        with pytest.raises(TypeError):
            m[key] = 9
    for i in (2, -1, -2):
        with pytest.raises(IndexError):
            m.row(i)
    assert m == RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert RationalMatrix.zero(0, 3).data == []
    with pytest.raises(IndexError):
        RationalMatrix.zero(0, 3)[0, 0]


def test_float_entries_raise_type_error():
    with pytest.raises(TypeError):
        RationalMatrix(1, 1, [0.1])
    with pytest.raises(TypeError):
        RationalMatrix.from_rows([[1, 0.5]])
    m = RationalMatrix.identity(2)
    with pytest.raises(TypeError):
        m[0, 1] = 0.5
    assert m == RationalMatrix.identity(2)
    # ints (bool included) and Fractions are the exact entries
    assert RationalMatrix(1, 3, [True, 2, Fraction(1, 2)]).data == [1, 2, Fraction(1, 2)]


def test_column_space_complement_of_an_empty_shape_is_the_elimination():
    """A matrix with no rows or no columns skips the elimination; the
    result is what the elimination of its transpose gives."""
    for r in range(7):
        for c in range(7):
            if r and c:
                continue
            m = RationalMatrix.zero(r, c)
            a, pivots, _, d = _eliminate(m.transpose().int_rows())
            basis, comp = _kernel(a, pivots, d, r)
            want = RationalMatrix._from_ints(len(comp), r, [x for v in basis for x in v], d)
            assert column_space_complement(m) == (want, comp), (r, c)
            assert comp == list(range(r))
