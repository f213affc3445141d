import itertools
import random
from fractions import Fraction

import pytest

from symquiv import families
from symquiv.quiver import DimensionVector
from symquiv.schur import (classical_invariant_dim, conjugate, lr_coefficient,
                           normalize_partition, pair_semiinvariant_dim, partitions_of,
                           rectangle_complement, rectangle_tensor,
                           weight_space_dim)
from symquiv.semiinvariant import Weight
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC


def brute_lr(lam, mu, nu):
    """Independent oracle: enumerate all fillings of nu/lam as tuples and
    filter by semistandardness, content, and the lattice word condition."""
    lam = tuple(lam)
    mu = tuple(mu)
    nu = tuple(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    lam_pad = lam + (0,) * (len(nu) - len(lam))
    boxes = [(r, c) for r in range(len(nu)) for c in range(lam_pad[r], nu[r])]
    n = len(mu)
    count = 0
    for fill in itertools.product(range(1, n + 1), repeat=len(boxes)):
        grid = {}
        for (rc, v) in zip(boxes, fill):
            grid[rc] = v
        # content
        ok = all(sum(1 for v in fill if v == i + 1) == mu[i] for i in range(n))
        if not ok:
            continue
        # semistandard
        for (r, c) in boxes:
            if (r, c + 1) in grid and grid[(r, c)] > grid[(r, c + 1)]:
                ok = False
            if (r - 1, c) in grid and grid[(r - 1, c)] >= grid[(r, c)]:
                ok = False
            if r > 0 and c < nu[r - 1] and c < lam_pad[r - 1] and False:
                ok = False
        if not ok:
            continue
        # lattice word: rows left to right, each row read right to left
        word = []
        for r in range(len(nu)):
            row = [(c, grid[(r, c)]) for c in range(lam_pad[r], nu[r])]
            word.extend(v for c, v in sorted(row, reverse=True))
        seen = [0] * (n + 1)
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_lr_pieri():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (), (2,)) == 1
    assert lr_coefficient((2,), (), (1, 1)) == 0


def test_lr_accepts_lists():
    """Lists, tuples and trailing zeros give the same coefficient."""
    assert lr_coefficient([2, 1], [1], [3, 1]) == 1
    rng = random.Random(5)
    shapes = [p for n in range(0, 5) for p in partitions_of(n)]
    for _ in range(100):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        for nu in partitions_of(sum(lam) + sum(mu))[:4]:
            want = lr_coefficient(lam, mu, nu)
            assert lr_coefficient(list(lam), list(mu), list(nu)) == want
            assert lr_coefficient(list(lam) + [0], mu + (0, 0), list(nu)) == want


def test_lr_against_brute_force():
    rng = random.Random(6)
    shapes = [p for n in range(0, 5) for p in partitions_of(n)]
    for _ in range(200):
        lam = rng.choice(shapes)
        mu = rng.choice(shapes)
        nus = [p for p in partitions_of(sum(lam) + sum(mu))]
        nu = rng.choice(nus) if nus else ()
        assert lr_coefficient(lam, mu, nu) == brute_lr(lam, mu, nu)


def test_lr_symmetry():
    rng = random.Random(8)
    shapes = [p for n in range(0, 5) for p in partitions_of(n)]
    for _ in range(200):
        lam = rng.choice(shapes)
        mu = rng.choice(shapes)
        nus = partitions_of(sum(lam) + sum(mu))
        nu = rng.choice(nus) if nus else ()
        assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_rectangle_tensor():
    assert set(rectangle_tensor(1, 1, 1, 1)) == {(2,), (1, 1)}
    for (l, s, m, t) in [(2, 2, 1, 1), (2, 1, 2, 1), (3, 2, 2, 2), (2, 3, 2, 3)]:
        nus = rectangle_tensor(l, s, m, t)
        assert len(set(nus)) == len(nus)
        total = 0
        for nu in nus:
            c = lr_coefficient([l] * s, [m] * t, nu)
            assert c == 1
            assert len(nu) <= s + t
        # completeness against the full LR expansion
        all_nu = [p for p in partitions_of(l * s + m * t) if len(p) <= s + t]
        expected = [p for p in all_nu if lr_coefficient([l] * s, [m] * t, p) > 0]
        assert sorted(nus) == sorted(expected)


def test_classical_invariant_dims():
    assert classical_invariant_dim((2, 2, 2), "SL", 3) == 1
    assert classical_invariant_dim((2, 2), "SL", 3) == 0
    assert classical_invariant_dim((1, 1), "Sp", 4) == 1
    assert classical_invariant_dim((1,), "Sp", 4) == 0
    assert classical_invariant_dim((1,), "O", 3) == 0
    assert classical_invariant_dim((2, 2), "O", 3) == 1
    assert classical_invariant_dim((3, 1, 1), "SO", 3) == 1
    assert classical_invariant_dim((3, 2), "SO", 3) == 0


def test_pair_semiinvariant_dim():
    assert pair_semiinvariant_dim((1, 0), (0, 0), 2) == 0
    assert pair_semiinvariant_dim((2, 1), (1, 0), 2) == 1
    assert pair_semiinvariant_dim((3, 1), (4, 2), 2) == 1


def test_rectangle_complement_matches_lr():
    for t in range(0, 4):
        for p in range(1, 4):
            subs = [q for n in range(0, t * p + 1) for q in partitions_of(n, t, p)]
            for lam in subs:
                comp = rectangle_complement(lam, t, p)
                for mu in subs:
                    expected = 1 if mu == comp else 0
                    assert lr_coefficient(lam, mu, [t] * p) == expected


def test_weight_space_a2_fixed_arrow():
    sq = families.symmetric_a(2)
    for p in range(1, 5):
        beta = DimensionVector({1: p, 2: p})
        for k in range(0, 4):
            chi = Weight({1: Fraction(k), 2: Fraction(-k)})
            assert weight_space_dim(sq, SYMPLECTIC, beta, chi) == 1


def test_weight_space_kronecker_pencil():
    sq = families.a201(0, 0)
    for p in range(1, 5):
        beta = DimensionVector({1: p, 2: p})
        chi = Weight({1: Fraction(1), 2: Fraction(-1)})
        assert weight_space_dim(sq, SYMPLECTIC, beta, chi) == p + 1


def test_weight_space_kronecker_orthogonal():
    sq = families.a201(0, 0)
    chi = Weight({1: Fraction(1, 2), 2: Fraction(-1, 2)})
    # odd p kills the odd stratum, even p has the pfaffian pencil
    beta3 = DimensionVector({1: 3, 2: 3})
    assert weight_space_dim(sq, ORTHOGONAL, beta3, chi) == 0
    beta4 = DimensionVector({1: 4, 2: 4})
    assert weight_space_dim(sq, ORTHOGONAL, beta4, chi) == 3


def test_weight_space_zero_weight_is_one():
    for sq in (families.symmetric_a(4), families.a201(0, 0), families.a11(0, 2)):
        beta = DimensionVector({v: 2 for v in sq.base.vertices})
        chi = Weight({v: Fraction(0) for v in sq.base.vertices})
        assert weight_space_dim(sq, SYMPLECTIC, beta, chi) == 1


def test_weight_space_wrong_sign_is_zero():
    sq = families.symmetric_a(4)
    beta = DimensionVector({1: 1, 2: 2, 3: 2, 4: 1})
    chi = Weight({1: Fraction(-1), 2: 0, 3: 0, 4: Fraction(1)})
    assert weight_space_dim(sq, SYMPLECTIC, beta, chi) == 0


def test_oracle_matches_generated_stratum_on_small_tame():
    """Rank of the monomial evaluation matrix equals the oracle dimension."""
    from itertools import combinations_with_replacement
    from symquiv.linalg import RationalMatrix, rank
    from symquiv.quiver import null_root
    from symquiv.semiinvariant import generators_tame
    from symquiv.representation import random_structured

    cases = [
        (families.a11(0, 2), SYMPLECTIC, 2),
        (families.a11(0, 2), ORTHOGONAL, 2),
        (families.a02(2, 2), ORTHOGONAL, 2),
        (families.a02(2, 2), SYMPLECTIC, 2),
        (families.a202(2, 0), SYMPLECTIC, 2),
        (families.a00(2), SYMPLECTIC, 2),
        (families.a201(0, 0), ORTHOGONAL, 4),
    ]
    for sq, flavor, p in cases:
        d = null_root(sq.base).scale(p)
        gens = generators_tame(sq, d, flavor)
        pencil = [g for g in gens if g.kind.startswith("pencil")]
        if not pencil:
            continue
        chi = pencil[0].weight
        chik = chi.character_key(sq)
        target = weight_space_dim(sq, flavor, d, chi)
        witnesses = [random_structured(sq, flavor, d, seed=7000 + s)
                     for s in range(2 * target + 6)]
        gen_values = [[g.evaluate(w) for w in witnesses] for g in gens]
        rows = []
        for degree in range(1, 5):
            for combo in combinations_with_replacement(range(len(gens)), degree):
                total = gens[combo[0]].weight
                for i in combo[1:]:
                    total = total + gens[i].weight
                if total.character_key(sq) != chik:
                    continue
                row = []
                for wi in range(len(witnesses)):
                    prod = Fraction(1)
                    for i in combo:
                        prod *= gen_values[i][wi]
                    row.append(prod)
                rows.append(row)
        assert rows, (sq.base.name, flavor)
        got = rank(RationalMatrix.from_rows(rows))
        assert got == target, (sq.base.name, flavor, p, got, target)
