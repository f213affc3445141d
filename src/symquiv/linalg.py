"""Exact linear algebra over the rationals.

Matrices hold `fractions.Fraction` entries; no floating point is used
anywhere in the package.  Elimination clears row denominators first and
runs on Python ints: one fraction-free Gauss-Jordan routine serves rref,
rank, kernel, cokernel, solve, inverse and determinant, and the Pfaffian
has its own skew elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import List, NamedTuple, Optional, Sequence

from .errors import NotSkewSymmetric, NotSquare, OddDimension, ValidationError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalMatrix:
    """Dense matrix with exact rational entries, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        flat = [_frac(x) for x in entries]
        if len(flat) != rows * cols:
            raise ValueError("entry count %d does not match %dx%d" % (len(flat), rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = flat

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
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i * n + i] = ONE
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def block(cls, grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        """Assemble a matrix from a 2d grid of blocks with consistent shapes."""
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]] if grid else []
        for row in grid:
            for j, b in enumerate(row):
                if b.cols != col_widths[j] or b.rows != row[0].rows:
                    raise ValueError("inconsistent block shapes")
        total_r = sum(row_heights)
        total_c = sum(col_widths)
        out = cls.zero(total_r, total_c)
        r0 = 0
        for bi, row in enumerate(grid):
            c0 = 0
            for bj, b in enumerate(row):
                for i in range(b.rows):
                    base = (r0 + i) * total_c + c0
                    out.data[base:base + b.cols] = b.data[i * b.cols:(i + 1) * b.cols]
                c0 += col_widths[bj]
            r0 += row_heights[bi]
        return out

    # -- basics ------------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        return self.data[i * self.cols + j]

    def __setitem__(self, key, value):
        i, j = key
        self.data[i * self.cols + j] = _frac(value)

    def row(self, i: int) -> List[Fraction]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def copy(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, list(self.data))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return "RationalMatrix(%dx%d: %s)" % (self.rows, self.cols, body)

    def transpose(self) -> "RationalMatrix":
        out = RationalMatrix.zero(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[i * self.cols + j]
        return out

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-x for x in self.data])

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        return RationalMatrix(self.rows, self.cols,
                              [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(self.rows, self.cols, [c * x for x in self.data])

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        out = RationalMatrix.zero(self.rows, other.cols)
        oc = other.cols
        for i in range(self.rows):
            ri = self.data[i * self.cols:(i + 1) * self.cols]
            acc = out.data
            for k, a in enumerate(ri):
                if a:
                    rk = other.data[k * oc:(k + 1) * oc]
                    base = i * oc
                    for j in range(oc):
                        if rk[j]:
                            acc[base + j] += a * rk[j]
        return out

    def apply(self, vec: Sequence[Fraction]) -> List[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            s = ZERO
            for j, v in enumerate(vec):
                if v:
                    s += self.data[i * self.cols + j] * v
            out.append(s)
        return out

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_skew_symmetric(self) -> bool:
        if not self.is_square():
            return False
        for i in range(self.rows):
            if self[i, i] != 0:
                return False
            for j in range(i + 1, self.cols):
                if self[i, j] != -self[j, i]:
                    return False
        return True


def _int_rows(rows: Sequence[Sequence[Fraction]]):
    """Each row times the lcm of its denominators, as ints; and those lcms."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (s // x.denominator) for x in row]
            for row, s in zip(rows, scales)], scales


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


def _reduced(rows: Sequence[Sequence[Fraction]]):
    """(d*RREF int rows, pivot columns, d) of a matrix given by its rows."""
    a, pivots, _, d = _eliminate(_int_rows(rows)[0])
    return a, pivots, d


def _rows(m: RationalMatrix) -> List[List[Fraction]]:
    return [m.row(i) for i in range(m.rows)]


def rref(m: RationalMatrix):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    a, pivots, d = _reduced(_rows(m))
    return RationalMatrix(m.rows, m.cols, [Fraction(x, d) for row in a for x in row]), pivots


def rank(m: RationalMatrix) -> int:
    return len(_reduced(_rows(m))[1])


def _kernel(a: List[List[int]], pivots: List[int], d: int, cols: int):
    """Kernel basis and free columns of a reduced elimination."""
    free = sorted(set(range(cols)) - set(pivots))
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = Fraction(-a[r][f], d)
        basis.append(v)
    return basis, free


def kernel_basis(m: RationalMatrix) -> List[List[Fraction]]:
    """Basis of the right kernel, from the RREF free columns in ascending order."""
    return _kernel(*_reduced(_rows(m)), m.cols)[0]


def column_space_complement(m: RationalMatrix):
    """Deterministic complement data for the column space of ``m``.

    Returns (proj, complement_indices): the indices are the coordinates
    outside the pivot set of the echelon basis of the column space,
    ascending, and ``proj`` maps K^rows onto them.  Reducing a standard
    vector against that basis leaves minus a kernel entry at each
    complement index, so the rows of ``proj`` are the kernel basis of the
    transpose.
    """
    basis, comp = _kernel(*_reduced(_rows(m.transpose())), m.rows)
    return RationalMatrix(len(comp), m.rows, [x for v in basis for x in v]), comp


def _det_int(a: List[List[int]]) -> int:
    """Determinant of a square int matrix given as rows (consumed):
    Bareiss elimination, downward sweep only."""
    _, pivots, sign, d = _eliminate(a, upward=False)
    return sign * d if len(pivots) == len(a) else 0


def determinant(m: RationalMatrix) -> Fraction:
    """Determinant via integer fraction-free (Bareiss) elimination.

    Each row is scaled by the lcm of its denominators, so the elimination
    runs on Python ints.
    """
    if not m.is_square():
        raise NotSquare("determinant of a non-square matrix")
    a, scales = _int_rows(_rows(m))
    return Fraction(_det_int(a), prod(scales))


class LinalgKit(NamedTuple):
    rank: int
    det: Optional[Fraction]
    kernel_basis: List[List[Fraction]]
    cokernel_dim: int


def linalg_kit(m: RationalMatrix) -> LinalgKit:
    """Rank, determinant (square case), kernel basis and cokernel dimension."""
    a, scales = _int_rows(_rows(m))
    _, pivots, sign, d = _eliminate(a)
    r = len(pivots)
    det = None
    if m.is_square():
        det = Fraction(sign * d, prod(scales)) if r == m.rows else ZERO
    return LinalgKit(rank=r, det=det, kernel_basis=_kernel(a, pivots, d, m.cols)[0],
                     cokernel_dim=m.rows - r)


def pfaffian_matching_sum(m: RationalMatrix) -> Fraction:
    """Pfaffian via the signed sum over perfect matchings (test oracle)."""
    _check_skew(m)
    n = m.rows
    if n == 0:
        return ONE

    def rec(indices):
        if not indices:
            return ONE
        i = indices[0]
        total = ZERO
        for pos in range(1, len(indices)):
            j = indices[pos]
            a = m[i, j]
            if a:
                rest = indices[1:pos] + indices[pos + 1:]
                sign = -ONE if pos % 2 == 0 else ONE
                total += sign * a * rec(rest)
        return total

    return rec(tuple(range(n)))


def pfaffian(m: RationalMatrix) -> Fraction:
    """Exact Pfaffian of an even skew-symmetric matrix.

    Denominators are cleared by the congruence D*A*D with D diagonal (the
    row lcms), which scales the Pfaffian by det D; the integer matrix then
    goes through ``_pf_int``.
    """
    _check_skew(m)
    a, d = _int_rows(_rows(m))
    return Fraction(_pf_int([[x * d[j] for j, x in enumerate(row)] for row in a]), prod(d))


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
    a, pivots, d = _reduced([row + [_frac(rhs[i])] for i, row in enumerate(_rows(m))])
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
    a, pivots, d = _reduced([row + [int(i == j) for j in range(n)]
                             for i, row in enumerate(_rows(m))])
    if pivots[:n] != list(range(n)):
        raise ValidationError("matrix is singular")
    return RationalMatrix(n, n, [Fraction(x, d) for row in a for x in row[n:]])


def coordinates_in_span(basis: List[List[Fraction]], vec: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Coordinates of vec in the span of basis vectors (columns), or None."""
    if not basis:
        return [] if all(x == 0 for x in vec) else None
    return solve(RationalMatrix.from_rows(basis).transpose(), list(vec))


def interpolate_polynomial(points: Sequence) -> List[Fraction]:
    """Coefficients c_0..c_d of the unique degree-<n polynomial through points.

    ``points`` is a sequence of (x, y) pairs with distinct rational x.  Newton
    divided differences, expanded to monomial coefficients: O(n^2) exact
    operations.  Trailing zero coefficients are dropped.
    """
    xs = [_frac(x) for x, _ in points]
    dd = [_frac(y) for _, y in points]
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
