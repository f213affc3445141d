"""Exact linear algebra over the rationals.

A matrix is a flat row-major list of int numerators ``num`` over one
positive denominator ``den``, kept reduced (``gcd(den, *num) == 1``), so
equal matrices have equal fields; a matrix is never changed after it is
built.  No floating point is used anywhere in the package.  The kernels
run on the int rows directly: one fraction-free Gauss-Jordan routine
serves rref, rank, kernel, cokernel, solve, inverse and determinant, and
the Pfaffian has its own skew elimination.
``Fraction`` values appear only at the edges: entry access, ``data``,
``apply`` and the kernel and solution vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add
from typing import List, NamedTuple, Optional, Sequence

from .errors import NotSkewSymmetric, NotSquare, OddDimension, ValidationError

ZERO = Fraction(0)


def _exact(x):
    """``x`` if it is an int or a Fraction; otherwise TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError("matrix entries are int or Fraction, not %s" % type(x).__name__)
    return x


def _reduce(num: List[int], den: int):
    """(num, den) divided by the sign of den and by gcd(den, *num)."""
    if den < 0:
        den, num = -den, [-x for x in num]
    g = gcd(den, *num) if den > 1 else 1
    return ([x // g for x in num], den // g) if g > 1 else (num, den)


class RationalMatrix:
    """Dense matrix with exact rational entries: int numerators ``num``,
    row-major, over one reduced positive denominator ``den``.

    A value: no method changes a matrix after construction, and ``rows``,
    ``cols``, ``num`` and ``den`` are read-only (not guarded by a
    ``__setattr__``, which would slow every construction).  Build the
    entries first, then the matrix, once.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        flat = [_exact(x) for x in entries]
        if len(flat) != rows * cols:
            raise ValueError("entry count %d does not match %dx%d" % (len(flat), rows, cols))
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(x.denominator for x in flat))
        self.rows = rows
        self.cols = cols
        self.num = [x.numerator * (den // x.denominator) for x in flat]
        self.den = den

    @classmethod
    def _from_ints(cls, rows: int, cols: int, num: List[int], den: int = 1) -> "RationalMatrix":
        """The matrix num / den (den nonzero); ``num`` is taken over."""
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.num, m.den = _reduce(num, den)
        return m

    # -- construction -----------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._from_ints(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._from_ints(rows, cols, [0] * (rows * cols))

    @classmethod
    def block(cls, grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        """Assemble a matrix from a 2d grid of blocks with consistent shapes."""
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]] if grid else []
        for row in grid:
            for j, b in enumerate(row):
                if b.cols != col_widths[j] or b.rows != row[0].rows:
                    raise ValueError("inconsistent block shapes")
        den = lcm(*(b.den for row in grid for b in row))
        num: List[int] = []
        for row, height in zip(grid, row_heights):
            strip = [(b.num, b.cols, den // b.den) for b in row]
            for i in range(height):
                for bnum, c, s in strip:
                    num.extend(x * s for x in bnum[i * c:(i + 1) * c])
        return cls._from_ints(sum(row_heights), sum(col_widths), num, den)

    # -- basics ------------------------------------------------------------
    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("index (%r, %r) outside a %dx%d matrix"
                             % (i, j, self.rows, self.cols))
        return Fraction(self.num[i * self.cols + j], self.den)

    @property
    def data(self) -> List[Fraction]:
        """The entries, row-major, as a new list of Fractions."""
        return [Fraction(x, self.den) for x in self.num]

    def int_rows(self) -> List[List[int]]:
        """The rows of den * self, as new int lists."""
        c = self.cols
        return [self.num[i * c:(i + 1) * c] for i in range(self.rows)]

    def row(self, i: int) -> List[Fraction]:
        if not 0 <= i < self.rows:
            raise IndexError("row %r outside a %dx%d matrix" % (i, self.rows, self.cols))
        return [Fraction(x, self.den) for x in self.num[i * self.cols:(i + 1) * self.cols]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, tuple(self.num)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return "RationalMatrix(%dx%d: %s)" % (self.rows, self.cols, body)

    def transpose(self) -> "RationalMatrix":
        c = self.cols
        return RationalMatrix._from_ints(
            c, self.rows, [x for j in range(c) for x in self.num[j::c]], self.den)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._from_ints(self.rows, self.cols, [-x for x in self.num], self.den)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return RationalMatrix._from_ints(
            self.rows, self.cols, [s * a + t * b for a, b in zip(self.num, other.num)], den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def scale(self, c) -> "RationalMatrix":
        c = _exact(c)
        return RationalMatrix._from_ints(self.rows, self.cols,
                                         [c.numerator * x for x in self.num],
                                         c.denominator * self.den)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        rows = _int_product(self.int_rows(), other.int_rows(), other.cols)
        return RationalMatrix._from_ints(self.rows, other.cols,
                                         [x for row in rows for x in row],
                                         self.den * other.den)

    def apply(self, vec: Sequence[Fraction]) -> List[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        s = lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (s // x.denominator) for x in vec]
        return [Fraction(sum(a * b for a, b in zip(row, ints) if b), s * self.den)
                for row in self.int_rows()]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # row i from the diagonal on against column i from the diagonal down:
    # one slice comparison per row, not one Python comparison per entry
    def is_symmetric(self) -> bool:
        n, a = self.cols, self.num
        return self.is_square() and all(
            a[i * n + i + 1:(i + 1) * n] == a[(i + 1) * n + i::n] for i in range(n))

    def is_skew_symmetric(self) -> bool:
        n, a = self.cols, self.num
        return self.is_square() and all(
            not any(map(add, a[i * n + i:(i + 1) * n], a[i * n + i::n])) for i in range(n))


def _int_product(a: List[List[int]], b: List[List[int]], cols: int) -> List[List[int]]:
    """The product of two int matrices given as rows; ``cols`` is b's width."""
    out = []
    for arow in a:
        acc = [0] * cols
        for x, brow in zip(arow, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def _eliminate(a: List[List[int]], upward: bool = True):
    """Fraction-free Gauss-Jordan elimination of int rows, in place.

    Returns (a, pivot columns, swap sign, last pivot d).  Every update
    ``(p*x - f*y) // prev`` divides exactly, since each entry is a minor of
    the input (Bareiss 1968); the sweep over the rows above the pivot keeps
    the pivot rows equal to d times the reduced row echelon form (Nakos,
    Turner & Williams 1997), and the rows below the rank are zero.  With
    ``upward`` false only the rows below the pivot are updated and the run
    stops at the first column without a pivot: all the determinant needs.
    """
    n = len(a)
    pivots: List[int] = []
    sign = 1
    prev = 1
    for c in range(len(a[0]) if n else 0):
        r = len(pivots)
        if not a[r][c]:
            p = next((i for i in range(r + 1, n) if a[i][c]), None)
            if p is None:
                if upward:
                    continue
                break
            a[r], a[p] = a[p], a[r]
            sign = -sign
        row = a[r]
        piv = row[c]
        lo = c if upward else c + 1      # left of lo a lower row is zero
        tail = row[lo:]
        for ai in a[r + 1:]:
            f = ai[c]
            ai[lo:] = [(piv * x - f * y) // prev for x, y in zip(ai[lo:], tail)]
        if upward:
            for ai in a[:r]:
                f = ai[c]
                ai[:] = [(piv * x - f * y) // prev for x, y in zip(ai, row)]
        prev = piv
        pivots.append(c)
        if r + 1 == n:
            break
    return a, pivots, sign, prev


def rref(m: RationalMatrix):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    a, pivots, _, d = _eliminate(m.int_rows())
    return RationalMatrix._from_ints(m.rows, m.cols, [x for row in a for x in row], d), pivots


def rank(m: RationalMatrix) -> int:
    return len(_eliminate(m.int_rows())[1])


def _kernel(a: List[List[int]], pivots: List[int], d: int, cols: int):
    """Kernel basis of a reduced elimination, as int rows over d, and the
    free columns."""
    free = sorted(set(range(cols)) - set(pivots))
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis, free


def _fractions(rows: List[List[int]], d: int) -> List[List[Fraction]]:
    return [[Fraction(x, d) if x else ZERO for x in row] for row in rows]


def kernel_basis(m: RationalMatrix) -> List[List[Fraction]]:
    """Basis of the right kernel, from the RREF free columns in ascending order."""
    a, pivots, _, d = _eliminate(m.int_rows())
    return _fractions(_kernel(a, pivots, d, m.cols)[0], d)


def _complement(columns: List[List[int]], n: int):
    """``column_space_complement`` on ints: the columns of a matrix with n
    rows, given as int lists (consumed), each scaled by any positive factor.
    Returns (proj rows as ints, d, complement indices) with proj = rows / d.

    The result depends only on the span of the columns, so neither their
    order nor their scale matters."""
    if not (n and columns):
        return [[int(i == j) for j in range(n)] for i in range(n)], 1, list(range(n))
    a, pivots, _, d = _eliminate(columns)
    basis, comp = _kernel(a, pivots, d, n)
    return basis, d, comp


def column_space_complement(m: RationalMatrix):
    """Deterministic complement data for the column space of ``m``.

    Returns (proj, complement_indices): the indices are the coordinates
    outside the pivot set of the echelon basis of the column space,
    ascending, and ``proj`` maps K^rows onto them.  Reducing a standard
    vector against that basis leaves minus a kernel entry at each
    complement index, so the rows of ``proj`` are the kernel basis of the
    transpose (the free columns of its RREF are the complement indices),
    and a vector of that kernel has its entries at the complement indices
    as its coordinates in that basis.  A matrix with no rows or no columns
    has no pivots: every coordinate is free and ``proj`` is the identity,
    which is what the elimination would return, read off without it.
    """
    basis, d, comp = _complement(m.transpose().int_rows(), m.rows)
    return RationalMatrix._from_ints(len(comp), m.rows, [x for v in basis for x in v], d), comp


def _det_int(a: List[List[int]]) -> int:
    """Determinant of a square int matrix given as rows (consumed):
    Bareiss elimination, downward sweep only."""
    _, pivots, sign, d = _eliminate(a, upward=False)
    return sign * d if len(pivots) == len(a) else 0


def determinant(m: RationalMatrix) -> Fraction:
    """Determinant via integer fraction-free (Bareiss) elimination of the
    numerators: det(A / d) = det(A) / d^n."""
    if not m.is_square():
        raise NotSquare("determinant of a non-square matrix")
    return Fraction(_det_int(m.int_rows()), m.den ** m.rows)


class LinalgKit(NamedTuple):
    rank: int
    det: Optional[Fraction]
    kernel_basis: List[List[Fraction]]
    cokernel_dim: int


def linalg_kit(m: RationalMatrix) -> LinalgKit:
    """Rank, determinant (square case), kernel basis and cokernel dimension."""
    a, pivots, sign, d = _eliminate(m.int_rows())
    r = len(pivots)
    det = None
    if m.is_square():
        det = Fraction(sign * d, m.den ** m.rows) if r == m.rows else ZERO
    basis = _fractions(_kernel(a, pivots, d, m.cols)[0], d)
    return LinalgKit(rank=r, det=det, kernel_basis=basis, cokernel_dim=m.rows - r)


def pfaffian(m: RationalMatrix) -> Fraction:
    """Exact Pfaffian of an even skew-symmetric matrix: the numerators go
    through ``_pf_int``, and pf(A / d) = pf(A) / d^(n/2)."""
    _check_skew(m)
    return Fraction(_pf_int(m.int_rows()), m.den ** (m.rows // 2))


def _pf_int(a: List[List[int]]) -> int:
    """Pfaffian of an even skew-symmetric int matrix given as rows (consumed).

    Fraction-free skew elimination: after the step on the pair (k, k+1)
    with pivot p, every remaining entry is the Pfaffian of a principal
    submatrix, and the division by the previous pivot is exact (Rote
    2001).  Only the upper triangle of the remaining block is kept current.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        if a[k][k + 1] == 0:
            swap = next((r for r in range(k + 2, n) if a[k][r]), None)
            if swap is None:
                return 0
            # restore the lower triangle, then swap k+1 and swap in rows and
            # columns: a congruence that flips the sign of the Pfaffian
            for i in range(k, n):
                for j in range(i + 1, n):
                    a[j][i] = -a[i][j]
            a[k + 1], a[swap] = a[swap], a[k + 1]
            for row in a:
                row[k + 1], row[swap] = row[swap], row[k + 1]
            sign = -sign
        p = a[k][k + 1]
        ak, ak1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            ai = a[i]
            x, y = ak[i], ak1[i]          # -a[i][k], -a[i][k+1]
            ai[i + 1:] = [(p * z - x * u + y * v) // prev
                          for z, u, v in zip(ai[i + 1:], ak1[i + 1:], ak[i + 1:])]
        prev = p
    return sign * prev


def _check_skew(m: RationalMatrix) -> None:
    if not m.is_square():
        raise NotSquare("pfaffian of a non-square matrix")
    if m.rows % 2 != 0:
        raise OddDimension("pfaffian needs even size, got %d" % m.rows)
    if not m.is_skew_symmetric():
        raise NotSkewSymmetric("matrix is not exactly skew-symmetric")


def solve(m: RationalMatrix, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of m x = rhs, or None if inconsistent."""
    aug = RationalMatrix.block([[m, RationalMatrix(m.rows, 1, rhs)]])
    a, pivots, _, d = _eliminate(aug.int_rows())
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(a[r][m.cols], d)
    return x


def inverse(m: RationalMatrix) -> RationalMatrix:
    """Inverse of a square matrix, read off the reduction of [m | I]."""
    if not m.is_square():
        raise NotSquare("inverse of a non-square matrix")
    n = m.rows
    aug = RationalMatrix.block([[m, RationalMatrix.identity(n)]])
    a, pivots, _, d = _eliminate(aug.int_rows())
    if pivots[:n] != list(range(n)):
        raise ValidationError("matrix is singular")
    return RationalMatrix._from_ints(n, n, [x for row in a for x in row[n:]], d)


def interpolate_polynomial(points: Sequence) -> List[Fraction]:
    """Coefficients c_0..c_d of the unique degree-<n polynomial through points.

    ``points`` is a sequence of (x, y) pairs with distinct rational x.  Newton
    divided differences, expanded to monomial coefficients: O(n^2) exact
    operations.  Trailing zero coefficients are dropped.  For int values at
    the nodes 0..d, :func:`_interpolate_int` gives the same coefficients on
    ints; the pencil calls that one directly.
    """
    xs = [Fraction(x) for x, _ in points]
    dd = [Fraction(y) for _, y in points]
    n = len(xs)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # Horner on the Newton form dd_0 + (x - x_0)(dd_1 + (x - x_1)(dd_2 + ...))
    coeffs: List[Fraction] = []
    for k in range(n - 1, -1, -1):
        shifted = [ZERO] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= xs[k] * c
        shifted[0] += dd[k]
        coeffs = shifted
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _interpolate_int(values: Sequence[int], scale: int = 1) -> List[Fraction]:
    """Coefficients c_0..c_d of the polynomial p of degree <= d with
    scale * p(t) = values[t] at the nodes t = 0..d.

    On these nodes the Newton form runs on ints: d! p(t) is the sum over k
    of the k-th forward difference of the values at 0, times d!/k!, times
    t(t-1)..(t-k+1), expanded by Horner.  One Fraction per coefficient
    divides by d! * scale.  Trailing zero coefficients are dropped.
    """
    n = len(values)
    diff = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            diff[i] -= diff[i - 1]
    coeffs: List[int] = []
    ratio = 1                                  # d!/k! at step k
    for k in range(n - 1, -1, -1):
        # coeffs * (t - k) + the k-th Newton term
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diff[k] * ratio
        ratio *= k
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    denom = factorial(max(n - 1, 0)) * scale
    return [Fraction(c, denom) for c in coeffs]
