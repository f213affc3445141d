"""Exact rational linear algebra: ranks, determinants, and pfaffians.

Every computation in symquiv runs over `fractions.Fraction`, so the classical
pfaffian identities hold on the nose rather than up to floating error.
"""

import random
from fractions import Fraction

from symquiv import RationalMatrix, determinant, linalg_kit, pfaffian

rng = random.Random(0)

print("A singular 2x2 matrix and its kit:")
m = RationalMatrix.from_rows([[1, 2], [2, 4]])
kit = linalg_kit(m)
print("  rank", kit.rank, " det", kit.det, " kernel", kit.kernel_basis,
      " cokernel dim", kit.cokernel_dim)

print("\nThe textbook 4x4 skew example:")
a = RationalMatrix.from_rows([
    [0, 1, 2, 3],
    [-1, 0, 4, 5],
    [-2, -4, 0, 6],
    [-3, -5, -6, 0],
])
print("  pf =", pfaffian(a), " (1*6 - 2*5 + 3*4),  det =", determinant(a),
      "= pf^2 =", pfaffian(a) ** 2)

print("\nCongruence acts through the determinant, exactly:")
for n in (2, 3):
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            x = Fraction(rng.randint(-9, 9))
            rows[i][j] = x
            rows[j][i] = -x
    skew = RationalMatrix.from_rows(rows)
    b = RationalMatrix(2 * n, 2 * n, [rng.randint(-3, 3) for _ in range(4 * n * n)])
    lhs = pfaffian(b * skew * b.transpose())
    rhs = determinant(b) * pfaffian(skew)
    print("  size %d: pf(B M B^t) = %s = det(B) pf(M): %s" % (2 * n, lhs, lhs == rhs))
