import itertools
import random
import time
from fractions import Fraction
from typing import List, Optional

import pytest

from symquiv import families
from symquiv.errors import AsymmetricDimension, UnsupportedQuiver, ValidationError
from symquiv.linalg import RationalMatrix, rank
from symquiv.quiver import DimensionVector, Quiver, null_root
from symquiv.representation import random_structured
from symquiv.schur import (Partition, _fixed_vertex_rule, _subrectangle_partitions,
                           classical_invariant_dim, contains, has_even_columns,
                           has_even_rows, lr_coefficient, normalize_partition,
                           pair_semiinvariant_dim, rectangle_complement,
                           rectangle_tensor, shifted_by_constant, size, weight_space_dim)
from symquiv.semiinvariant import Weight, evaluate_all, generators_tame
from symquiv.symmetric import (ORTHOGONAL, SYMPLECTIC, SymmetricQuiver, admissible_sinks,
                               classify_symmetric, reflect_pair_quiver)


def partitions_of(n: int, max_part: Optional[int] = None,
                  max_height: Optional[int] = None) -> List[Partition]:
    """All partitions of n subject to optional caps."""
    if max_part is None:
        max_part = n
    if max_height is None:
        max_height = n

    out: List[Partition] = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) >= max_height:
            return
        top = min(cap, remaining)
        for part in range(top, 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, max_part, [])
    return out


def conjugate(p: Partition) -> Partition:
    """The transposed diagram: part j counts the parts of p that are >= j."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


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
    # the shift rule: S_lam V^* (x) S_nu V holds det^m once when nu = lam + m,
    # read through S_lam V^* = S_lamc V (x) det^-w, lamc the complement of
    # lam in the w x p box
    w = 3
    for p in range(1, 4):
        box = [q for n in range(0, w * p + 1) for q in partitions_of(n, w, p)]
        nus = [q for n in range(0, 2 * w * p + 1) for q in partitions_of(n, 2 * w, p)]
        for lam in box:
            lamc = rectangle_complement(lam, w, p)
            for m in range(-w, w + 1):
                shifted = shifted_by_constant(lam, m, p)
                for nu in nus:
                    expected = 1 if nu == shifted else 0
                    assert lr_coefficient(lamc, nu, [m + w] * p) == expected, (lam, m, nu)


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


@pytest.mark.parametrize("flavor", ["x", None, "SP"])
def test_weight_space_rejects_an_unknown_flavor(flavor):
    sq, beta = families.a201(0, 0), DimensionVector({1: 2, 2: 2})
    with pytest.raises(ValidationError, match="flavor must be 'sp' or 'o'"):
        weight_space_dim(sq, flavor, beta, {1: 2, 2: -2})
    assert weight_space_dim(sq, SYMPLECTIC, beta, {1: 2, 2: -2}) == 6
    assert weight_space_dim(sq, ORTHOGONAL, beta, {1: 2, 2: -2}) == 5


def test_weight_space_is_zero_at_odd_sp_and_checks_the_rest():
    # no sp representation has an odd dimension at a fixed vertex: the answer
    # is 0 there, while an asymmetric vector is still refused
    sq = families.a11(0, 2)
    verts = sq.base.vertices
    chi = {v: 0 for v in verts}
    assert weight_space_dim(sq, SYMPLECTIC, DimensionVector({v: 1 for v in verts}), chi) == 0
    with pytest.raises(AsymmetricDimension):
        weight_space_dim(sq, SYMPLECTIC, DimensionVector(dict(zip(verts, (1, 2, 2)))), chi)


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


# -- the walk against the five A-tilde branches it replaced ---------------------
#
# Before the walk, weight_space_dim covered the A-tilde families with one
# hand-written branch per family at its smallest size. Those branches are
# kept verbatim below as the oracle on the inputs they answer correctly:
# canonical vertex ids and multiples of the null root.

def _row_class(flavor: str) -> str:
    # polynomial functions on the fixed-arrow space decompose over even rows
    # in the symplectic case and even columns in the orthogonal case
    return "ER" if flavor == SYMPLECTIC else "EC"


def _in_class(lam, cls: str) -> bool:
    if cls == "ER":
        return has_even_rows(lam)
    if cls == "EC":
        return has_even_columns(lam)
    return True


def old_branches(sq, flavor, beta, chi) -> int:
    st = classify_symmetric(sq)

    def m_of(x: int) -> Fraction:
        return chi[x] - chi[sq.sv(x)]

    cls = _row_class(flavor)
    if st.tag == "A201" and st.k == 0 and st.l == 0:
        v = sq.v_plus[0]
        p = beta[v]
        m1 = m_of(v)
        if m1.denominator != 1 or m1 < 0:
            return 0
        t = int(m1)
        count = 0
        for lam in _subrectangle_partitions(t, p):
            comp = rectangle_complement(lam, t, p)
            if comp is None:
                continue
            if _in_class(lam, cls) and _in_class(comp, cls):
                count += 1
        return count
    if st.tag == "A202" and (st.k, st.l) == (2, 0):
        a0 = 1
        y = [x for x in sq.v_plus if x != a0][0]
        p = beta[a0]
        m1, m2 = m_of(a0), m_of(y)
        if m1.denominator != 1 or m2.denominator != 1:
            return 0
        t1, t2 = int(m1), -int(m2)
        if t1 < 0 or t2 < 0:
            return 0
        count = 0
        for lc in _subrectangle_partitions(min(t1, t2), p):
            la = rectangle_complement(lc, t1, p)
            lb = rectangle_complement(lc, t2, p)
            if la is None or lb is None:
                continue
            if _in_class(la, cls) and _in_class(lb, cls):
                count += 1
        return count
    if st.tag == "A02" and (st.k, st.l) == (2, 2):
        a0 = sq.v_plus[0]
        top, bottom = sq.v_fixed
        p = beta[a0]
        m1 = m_of(a0)
        if m1.denominator != 1 or m1 < 0:
            return 0
        t = int(m1)
        count = 0
        for la in _subrectangle_partitions(t, p):
            lb = rectangle_complement(la, t, p)
            if lb is None:
                continue
            if _fixed_vertex_rule(flavor, la, beta[top]) and \
                    _fixed_vertex_rule(flavor, lb, beta[bottom]):
                count += 1
        return count
    if st.tag == "A11" and (st.k, st.l) == (0, 2):
        a0 = sq.v_plus[0]
        top = sq.v_fixed[0]
        p = beta[a0]
        m1 = m_of(a0)
        if m1.denominator != 1 or m1 < 0:
            return 0
        t = int(m1)
        count = 0
        for la in _subrectangle_partitions(t, p):
            lb = rectangle_complement(la, t, p)
            if lb is None:
                continue
            if _in_class(lb, cls) and _fixed_vertex_rule(flavor, la, beta[top]):
                count += 1
        return count
    if st.tag == "A00" and st.k == 2:
        v1 = 1
        v2 = [x for x in sq.v_plus if x != v1][0]
        p = beta[v1]
        m1, m2 = m_of(v1), m_of(v2)
        if m1.denominator != 1 or m2.denominator != 1 or m1 < 0:
            return 0
        t = int(m1)
        count = 0
        for l1 in _subrectangle_partitions(t, p):
            l2 = rectangle_complement(l1, t, p)
            if l2 is None:
                continue
            if shifted_by_constant(l1, int(m2), p) == l2:
                count += 1
        return count
    raise UnsupportedQuiver("weight-space oracle does not cover %s" % st)


OLD_SHAPES = [families.a201(0, 0), families.a202(2, 0), families.a02(2, 2),
              families.a11(0, 2), families.a00(2)]

WIDER_SHAPES = [families.a201(2, 2), families.a201(4, 2), families.a202(2, 2),
                families.a202(4, 2), families.a02(2, 4), families.a02(4, 2),
                families.a11(2, 2), families.a11(0, 4), families.a11(2, 4),
                families.a00(2), families.a00(4)]


def _random_weight(rng, sq):
    """Halves in [-3, 3] on the plus and minus vertices, 0 on fixed ones."""
    return Weight({x: Fraction(rng.randint(-6, 6), 2)
                   for x in sq.base.vertices if sq.sv(x) != x})


def _on_support(chi, beta):
    """chi with every entry where beta is 0 set to 0."""
    return Weight({x: v for x, v in chi.values.items() if beta[x]})


def test_cycle_walk_matches_the_old_branches():
    """The old branches read chi at beta = 0 h as well, so they are given
    chi on the support of beta."""
    rng = random.Random(18)
    for _ in range(1500):
        sq = rng.choice(OLD_SHAPES)
        beta = null_root(sq.base).scale(rng.randint(0, 4))
        chi = _random_weight(rng, sq)
        flavor = rng.choice((SYMPLECTIC, ORTHOGONAL))
        want = old_branches(sq, flavor, beta, _on_support(chi, beta))
        assert weight_space_dim(sq, flavor, beta, chi) == want, \
            (sq.base.name, beta, chi, flavor)


def test_the_oracle_reads_no_weight_where_beta_is_zero():
    """GL(0) is trivial, so chi off the support of beta changes nothing."""
    rng = random.Random(22)
    changed = 0
    for sq in OLD_SHAPES + [families.symmetric_a(4), families.symmetric_a(5)]:
        for _ in range(200):
            beta = _random_symmetric_dim(rng, sq)
            chi = _random_weight(rng, sq)
            flavor = rng.choice((SYMPLECTIC, ORTHOGONAL))
            on = _on_support(chi, beta)
            changed += on != chi
            assert weight_space_dim(sq, flavor, beta, chi) == \
                weight_space_dim(sq, flavor, beta, on), (sq.base.name, beta, chi, flavor)
    assert changed >= 400


def test_cycle_walk_off_the_null_root_line():
    """The old branches read beta at one plus vertex for both; counted by
    hand, each representation space below holds no semi-invariant of the
    weight."""
    a00 = families.a00(2)
    beta = DimensionVector({1: 0, 2: 1, 3: 0, 4: 1})
    chi = Weight({2: -3})
    assert old_branches(a00, SYMPLECTIC, beta, chi) == 1
    assert weight_space_dim(a00, SYMPLECTIC, beta, chi) == 0
    a202 = families.a202(2, 0)
    beta = DimensionVector({1: 1, 2: 3, 3: 1, 4: 3})
    chi = Weight({1: 3, 2: -1, 3: -2, 4: 2})
    assert old_branches(a202, SYMPLECTIC, beta, chi) == 2
    assert weight_space_dim(a202, SYMPLECTIC, beta, chi) == 0


def _relabel(sq, ids):
    """The same symmetric quiver with vertex x renamed ids[x]."""
    q = sq.base
    base = Quiver(sorted(ids.values()), [(a.name, ids[a.tail], ids[a.head]) for a in q.arrows],
                  name=q.name)
    return SymmetricQuiver(base, {ids[x]: ids[sq.sv(x)] for x in q.vertices}, sq.sigma_a)


def _random_symmetric_dim(rng, sq):
    vals = {}
    for x in sq.base.vertices:
        if x not in vals:
            vals[x] = vals[sq.sv(x)] = rng.randint(0, 3)
    return DimensionVector(vals)


def test_cycle_walk_ignores_vertex_ids():
    rng = random.Random(19)
    for _ in range(240):
        sq = rng.choice(OLD_SHAPES + WIDER_SHAPES)
        verts = sq.base.vertices
        images = rng.sample(range(1, 3 * len(verts)), len(verts))
        ids = dict(zip(verts, images))
        other = _relabel(sq, ids)
        beta = _random_symmetric_dim(rng, sq)
        chi = _random_weight(rng, sq)
        flavor = rng.choice((SYMPLECTIC, ORTHOGONAL))
        want = weight_space_dim(sq, flavor, beta, chi)
        got = weight_space_dim(other, flavor,
                               DimensionVector({ids[x]: beta[x] for x in verts}),
                               Weight({ids[x]: chi[x] for x in verts}))
        assert got == want, (sq.base.name, ids, beta, chi, flavor)


def test_cycle_walk_answers_in_every_reflected_orientation():
    """Seeded admissible reflection words move every A-tilde family through
    its orientations; the walk answers each, and the D families still raise."""
    rng = random.Random(20)
    for sq in WIDER_SHAPES + [families.d10(3), families.d01(4)]:
        for _ in range(8):
            cur = sq
            for _ in range(rng.randint(1, 4)):
                sinks = admissible_sinks(cur)
                if sinks:
                    cur = reflect_pair_quiver(cur, rng.choice(sinks))
            beta = _random_symmetric_dim(rng, cur)
            chi = _random_weight(rng, cur)
            if sq.base.name.startswith("D"):
                with pytest.raises(UnsupportedQuiver):
                    weight_space_dim(cur, SYMPLECTIC, beta, chi)
                continue
            for flavor in (SYMPLECTIC, ORTHOGONAL):
                assert weight_space_dim(cur, flavor, beta, chi) >= 0


def test_generators_fit_the_oracle_beyond_the_old_branches():
    """Per character, the generators of that character are linearly
    independent functions no more numerous than the weight space allows:
    the rank of their values at six seeded points is at least 1 and at most
    the oracle's dimension. Symplectic groups need even dimensions at the
    fixed vertices."""
    characters = 0
    for sq in WIDER_SHAPES:
        for scale in (1, 2):
            d = null_root(sq.base).scale(scale)
            for flavor in (SYMPLECTIC, ORTHOGONAL):
                if flavor == SYMPLECTIC and any(d[x] % 2 for x in sq.v_fixed):
                    continue
                points = [random_structured(sq, flavor, d, seed=1800 + s) for s in range(6)]
                by_character = {}
                for g in generators_tame(sq, d, flavor):
                    by_character.setdefault(g.weight.character_key(sq), []).append(g)
                characters += len(by_character)
                for gens in by_character.values():
                    values = [[g.evaluate(w) for w in points] for g in gens]
                    got = rank(RationalMatrix.from_rows(values))
                    dim = weight_space_dim(sq, flavor, d, gens[0].weight)
                    assert 1 <= got <= dim, (sq.base.name, scale, flavor,
                                             [g.kind for g in gens], got, dim)
    assert characters >= 150


# -- the generation theorem ---------------------------------------------------------
#
# The listed dets, pfs and pencil coefficients generate the semi-invariant
# ring.  Each generator is a weight vector of one character (its exponent
# differences across mirror pairs, at the plus vertices); a functional l
# that is positive on every generator's character grades the ring, and every
# monomial in the generators of l-degree at most B x min l(g) is listed.  A
# character's weight space is then spanned by the monomials of that
# character, so their rank at seeded points equals the oracle's dimension,
# and a character that no monomial reaches has dimension 0.

GENERATION_SHAPES = [families.a201(0, 0), families.a201(2, 2), families.a202(2, 0),
                     families.a02(2, 2), families.a11(0, 2), families.a00(2),
                     families.a201(4, 2), families.a202(4, 2), families.a02(4, 2),
                     families.a11(2, 4), families.a00(4)]
GENERATION_BOUND = 3


def generation_cases():
    for sq in GENERATION_SHAPES:
        for scale in (1, 2):
            d = null_root(sq.base).scale(scale)
            for flavor in (SYMPLECTIC, ORTHOGONAL):
                if flavor == SYMPLECTIC and any(d[x] % 2 for x in sq.v_fixed):
                    continue
                yield sq, d, flavor


def generation_mismatches(sq, d, flavor, gens):
    """(reached, unreached) characters at which the monomials in ``gens``
    disagree with the oracle; every character has |c_x| <= 2 or is reached
    by a monomial."""
    plus = list(sq.v_plus)
    # a pf's halved weight still has integral exponent differences
    chars = [tuple(int(c) for _, c in g.weight.character_key(sq)) for g in gens]
    # the first functional with entries in [-4, 4], in itertools order
    l = next(l for l in itertools.product(range(-4, 5), repeat=len(plus))
             if all(sum(a * c for a, c in zip(l, ch)) > 0 for ch in chars))
    degrees = [sum(a * c for a, c in zip(l, ch)) for ch in chars]
    # with no generators only the constants are listed, and every other
    # character of the box must have dimension 0
    top = GENERATION_BOUND * min(degrees, default=0)
    monomials = {}                       # character -> exponent vectors

    def extend(i, exponents, degree, char):
        if i == len(gens):
            monomials.setdefault(char, []).append(exponents)
            return
        e = 0
        while degree + e * degrees[i] <= top:
            extend(i + 1, exponents + (e,), degree + e * degrees[i],
                   tuple(c + e * x for c, x in zip(char, chars[i])))
            e += 1

    extend(0, (), 0, (0,) * len(plus))
    need = max(map(len, monomials.values())) + 2
    values = [evaluate_all(gens, random_structured(sq, flavor, d, seed=3500 + k))
              for k in range(need)]
    reached, unreached = [], []
    for char, exps in monomials.items():
        rows = [[_monomial(vals, e) for vals in values[:len(exps) + 2]] for e in exps]
        got = rank(RationalMatrix.from_rows(rows))
        want = weight_space_dim(sq, flavor, d, Weight(dict(zip(plus, char))))
        if got != want:
            reached.append((char, got, want))
    for char in itertools.product(range(-2, 3), repeat=len(plus)):
        if char in monomials or sum(a * c for a, c in zip(l, char)) > top:
            continue
        if weight_space_dim(sq, flavor, d, Weight(dict(zip(plus, char)))):
            unreached.append(char)
    return reached, unreached, len(monomials)


def _monomial(values, exponents) -> Fraction:
    out = Fraction(1)
    for v, e in zip(values, exponents):
        out *= v ** e
    return out


def test_generators_generate_the_semi_invariant_ring():
    characters = 0
    for sq, d, flavor in generation_cases():
        reached, unreached, count = generation_mismatches(
            sq, d, flavor, generators_tame(sq, d, flavor))
        assert (reached, unreached) == ([], []), (sq.base.name, d, flavor)
        characters += count
    assert characters >= 300


def test_generation_check_catches_a_dropped_generator():
    """Without its first generator a list fails the check where that
    generator is not a combination of the other monomials of its character
    (the lists are not minimal): by rank, or by an unreached character."""
    caught = {"rank": 0, "unreached": 0}
    for sq, d, flavor in list(generation_cases())[::2]:
        gens = generators_tame(sq, d, flavor)
        reached, unreached, _ = generation_mismatches(sq, d, flavor, gens[1:])
        caught["rank"] += bool(reached)
        caught["unreached"] += bool(unreached)
    assert caught["rank"] >= 2 and caught["unreached"] >= 3, caught


@pytest.mark.xfail(strict=True, reason=(
    "schur._chain_dim compares beta with the zero-padded running partition, "
    "so a drop in beta along the half chain kills even the constants. The "
    "fix re-records six oracle-dim outputs of the benchmark's golden file, "
    "so it lands with its own benchmark change, which must flip this test."))
@pytest.mark.parametrize("flavor", [SYMPLECTIC, ORTHOGONAL])
def test_chain_with_a_drop_in_beta_holds_the_constants(flavor):
    beta = DimensionVector({1: 2, 2: 1, 3: 1, 4: 2})
    assert weight_space_dim(families.symmetric_a(4), flavor, beta, Weight({})) == 1


# -- the box enumerators against the recursions they replaced -------------------
#
# The LR count and the rectangle tensor used to be hand-written recursions.
# They are kept verbatim below, renamed, as the oracle.

def oracle_lr_coefficient(lam, mu, nu) -> int:
    """Number of Littlewood-Richardson skew tableaux of shape nu/lam and
    content mu whose row word is a lattice permutation.  The partitions may
    be any int sequences; trailing zeros are dropped."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    if size(lam) + size(mu) != size(nu):
        return 0
    if not contains(nu, lam):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    counts = [0] * (len(mu) + 1)  # counts[i] = number of i's placed so far
    mu_list = list(mu)

    total = 0

    def place(r: int, c: int, row_vals: List[int], above: List[List[int]]) -> int:
        """Fill row r from right to left to keep the reading word lattice."""
        nonlocal total
        if r == rows:
            total += 1
            return 0
        row_start = lam_pad[r]
        row_end = nu[r]
        if c < row_start:
            above.append(row_vals[:])
            place(r + 1, nu[r + 1] - 1 if r + 1 < rows else 0, [0] * (nu[r + 1] if r + 1 < rows else 0), above)
            above.pop()
            return 0
        for val in range(1, len(mu_list) + 1):
            if counts[val] >= mu_list[val - 1]:
                continue
            # lattice condition as the reading word grows
            if val > 1 and counts[val] + 1 > counts[val - 1]:
                continue
            # weakly increasing along the row, left to right
            if c + 1 < row_end and row_vals[c + 1] and val > row_vals[c + 1]:
                continue
            # strictly increasing down each column
            if r > 0 and c < nu[r - 1] and c >= lam_pad[r - 1]:
                if above[r - 1][c] >= val:
                    continue
            row_vals[c] = val
            counts[val] += 1
            place(r, c - 1, row_vals, above)
            counts[val] -= 1
            row_vals[c] = 0
        return 0

    place(0, nu[0] - 1, [0] * nu[0], [])
    return total


def oracle_rectangle_tensor(l: int, s: int, m: int, t: int) -> List[Partition]:
    """The multiplicity-free decomposition of a product of two rectangles."""
    if l == 0:
        s = 0
    if m == 0:
        t = 0
    if s < t:
        l, s, m, t = m, t, l, s
    if t == 0:
        return [normalize_partition([l] * s)]
    out: List[Partition] = []

    def rec(prefix: List[int], remaining: int, cap: int):
        if remaining == 0:
            cs = prefix[:]
            if l + cs[-1] < m:
                return
            nu = [l + c for c in cs]
            nu += [l] * (s - t)
            nu += [m - c for c in reversed(cs)]
            out.append(normalize_partition(nu))
            return
        for c in range(min(cap, m), -1, -1):
            prefix.append(c)
            rec(prefix, remaining - 1, c)
            prefix.pop()

    rec([], t, m)
    seen = set()
    unique = []
    for nu in out:
        if nu not in seen:
            seen.add(nu)
            unique.append(nu)
    return unique


def test_lr_row_count_matches_the_recursion_up_to_size_8():
    triples = 0
    for n in range(9):
        nus = partitions_of(n)
        for a in range(n + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(n - a):
                    for nu in nus:
                        assert lr_coefficient(lam, mu, nu) == \
                            oracle_lr_coefficient(lam, mu, nu), (lam, mu, nu)
                        triples += 1
    assert triples > 6000


def test_lr_row_count_matches_the_recursion_on_random_triples():
    """Sizes up to 10, mismatched sizes and a nu that misses lam included."""
    rng = random.Random(2201)
    shapes = [p for n in range(11) for p in partitions_of(n)]
    missed = 0
    for _ in range(3000):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        n = size(lam) + size(mu)
        if n > 10 or rng.random() < 0.2:
            nu = rng.choice(shapes)
        else:
            nu = rng.choice(partitions_of(n))
        missed += not contains(nu, lam)
        assert lr_coefficient(lam, mu, nu) == oracle_lr_coefficient(lam, mu, nu), (lam, mu, nu)
    assert missed >= 300


def test_rectangle_tensor_matches_the_recursion():
    for l, s, m, t in itertools.product(range(5), repeat=4):
        assert rectangle_tensor(l, s, m, t) == oracle_rectangle_tensor(l, s, m, t), (l, s, m, t)


def test_subrectangle_partitions_lists_the_box():
    for t in range(5):
        for p in range(5):
            want = [q for n in range(t * p + 1) for q in partitions_of(n, t, p)]
            got = _subrectangle_partitions(t, p)
            assert len(got) == len(set(got)) and set(got) == set(want), (t, p)


def test_subrectangle_partitions_size_guard():
    """The 14 x 7 box holds C(21, 7) = 116,280 partitions; enumerating them
    by size through partitions_of took seconds."""
    start = time.perf_counter()
    box = _subrectangle_partitions(14, 7)
    elapsed = time.perf_counter() - start
    assert len(set(box)) == len(box) == 116280
    assert all(len(q) <= 7 and all(0 < x <= 14 for x in q) and
               all(a >= b for a, b in zip(q, q[1:])) for q in box)
    assert elapsed < 0.5, elapsed


def test_has_even_columns_is_the_pairwise_rule():
    """The nonzero parts in equal pairs, against the even rows of the
    conjugate, on every weakly decreasing vector of the 9 x 9 box."""
    box = list(itertools.combinations_with_replacement(range(9, -1, -1), 9))
    assert len(box) == 48620
    even = 0
    for p in box:
        assert has_even_columns(p) == has_even_rows(conjugate(p)), p
        even += has_even_columns(p)
    assert 0 < even < len(box)
