"""The positive part of a symmetric quiver against the search it replaced.

``SymmetricQuiver._partition`` builds the smallest admissible choice of one
vertex per mirror pair from the components of the free vertices. The oracle
below finds the same choice by trying the choices in increasing order, at a
cost of up to 2^(mirror pairs) trials.
"""

import random
import time

import pytest

from symquiv import families
from symquiv.errors import PartitionViolation
from symquiv.quiver import Quiver
from symquiv.symmetric import (PARTS, SymmetricQuiver, admissible_sinks,
                               reflect_pair_quiver)


def oracle_partition(q, sigma_v, sigma_a):
    """The six parts, by scanning the choices of positive vertices in
    increasing binary order (bit i set: take the mirror partner of pair i)."""
    def sv(x):
        return sigma_v[x]

    def sa(a):
        return sigma_a[a]

    v_fixed = sorted(x for x in q.vertices if sv(x) == x)
    a_fixed = sorted(a.name for a in q.arrows if sa(a.name) == a.name)
    free_pairs = []
    seen = set()
    for x in q.vertices:
        if x in v_fixed or x in seen:
            continue
        seen.add(x)
        seen.add(sv(x))
        free_pairs.append((x, sv(x)))

    def arrow_side(plus: set):
        aplus, aminus = [], []
        for a in q.arrows:
            if a.name in a_fixed:
                continue
            touches_plus = a.tail in plus or a.head in plus
            touches_minus = (a.tail not in plus and a.tail not in v_fixed) or \
                            (a.head not in plus and a.head not in v_fixed)
            if touches_plus and touches_minus:
                return None
            if not touches_plus and not touches_minus:
                return None
            if touches_plus:
                aplus.append(a.name)
            else:
                aminus.append(a.name)
        mirrored = sorted(sa(a) for a in aplus)
        if mirrored != sorted(aminus):
            return None
        return sorted(aplus), sorted(aminus)

    for mask in range(1 << len(free_pairs)):
        plus = set()
        for i, (x, y) in enumerate(free_pairs):
            plus.add(x if not (mask >> i) & 1 else y)
        sides = arrow_side(plus)
        if sides is not None:
            aplus, aminus = sides
            return (sorted(plus), v_fixed, sorted(sv(x) for x in plus),
                    aplus, a_fixed, aminus)
    if not v_fixed and not a_fixed:
        plus = {min(x, y) for x, y in free_pairs}
        aplus = []
        seen = set()
        for a in sorted(q.arrows, key=lambda a: a.name):
            if a.name in seen:
                continue
            mirror = sa(a.name)
            seen.update({a.name, mirror})
            marr = q.arrow_by_name[mirror]

            def score(arr):
                return (0 if arr.tail in plus else 1,
                        0 if arr.head in plus else 1, arr.name)

            aplus.append(min((a, marr), key=score).name)
        aminus = sorted(sa(a) for a in aplus)
        return (sorted(plus), v_fixed, sorted(sv(x) for x in plus),
                sorted(aplus), a_fixed, aminus)
    raise PartitionViolation("no admissible positive part exists")


def outcome(build):
    """The six parts as lists, or the PartitionViolation message."""
    try:
        parts = build()
    except PartitionViolation as exc:
        return "PartitionViolation: %s" % exc
    if isinstance(parts, SymmetricQuiver):
        parts = [getattr(parts, key) for key in PARTS]
    return [list(part) for part in parts]


def assert_same_partition(q, sigma_v, sigma_a):
    got = outcome(lambda: SymmetricQuiver(q, sigma_v, sigma_a))
    assert got == outcome(lambda: oracle_partition(q, sigma_v, sigma_a))
    return got


def family_quivers():
    yield from (families.symmetric_a(n) for n in range(1, 10))
    for k in range(0, 7, 2):
        for l in range(0, 7, 2):
            yield families.a201(k, l)
            if k >= 2:
                yield families.a202(k, l)
            if k >= 2 and l >= 2:
                yield families.a02(k, l)
            if l >= 2:
                yield families.a11(k, l)
    yield from (families.a00(k) for k in (2, 4, 6, 8))
    yield from (families.d10(n) for n in range(3, 8))
    yield from (families.d01(n) for n in range(3, 8))


def test_family_constructors_and_their_reflections_match_the_search():
    rng = random.Random(17)
    count = 0
    for sq in family_quivers():
        cur = sq
        for _ in range(4):
            assert_same_partition(cur.base, cur.sigma_v, cur.sigma_a)
            count += 1
            sinks = admissible_sinks(cur)
            if not sinks:
                break
            cur = reflect_pair_quiver(cur, rng.choice(sinks))
    assert count > 150


def random_symmetric_quiver(rng):
    """A random quiver with a contravariant involution: 1-7 mirror pairs,
    0-2 sigma-fixed vertices, and arrows that climb a height h with
    h(sigma x) = -h(x), so the quiver has no oriented cycle."""
    n_pairs, n_fixed = rng.randint(1, 7), rng.randint(0, 2)
    labels = list(range(1, 2 * n_pairs + n_fixed + 1))
    rng.shuffle(labels)
    sigma_v, height = {}, {}
    for i in range(n_pairs):
        x, y = labels[2 * i], labels[2 * i + 1]
        sigma_v[x], sigma_v[y] = y, x
        height[x] = rng.randint(-3, 3)
        height[y] = -height[x]
    for z in labels[2 * n_pairs:]:
        sigma_v[z], height[z] = z, 0
    arrows, sigma_a = [], {}
    for i in range(rng.randint(0, 3 * n_pairs)):
        u, w = rng.choice(labels), rng.choice(labels)
        if height[u] >= height[w]:
            continue
        name = "e%d" % i
        arrows.append((name, u, w))
        if w == sigma_v[u]:
            sigma_a[name] = name
        else:
            arrows.append((name + "~", sigma_v[w], sigma_v[u]))
            sigma_a[name], sigma_a[name + "~"] = name + "~", name
    return Quiver(labels, arrows), sigma_v, sigma_a


def test_random_symmetric_quivers_match_the_search():
    rng = random.Random(2002)
    rejected = 0
    for _ in range(3000):
        got = assert_same_partition(*random_symmetric_quiver(rng))
        rejected += isinstance(got, str)
    assert 100 < rejected < 2900


def crossing_quiver(n):
    """Mirror pairs (i, i + n) and a sigma-fixed vertex 2n + 1, joined so that
    one component of the free vertices holds 1 and its mirror n + 1: no
    positive part exists."""
    arrows = [("p%d" % i, i, i + 1) for i in range(1, n)]
    arrows += [("p%d~" % i, n + i + 1, n + i) for i in range(1, n)]
    arrows += [("x", n, n + 1), ("x~", 1, 2 * n), ("f", 1, 2 * n + 1), ("f~", 2 * n + 1, n + 1)]
    sigma_v = {i: i + n for i in range(1, n + 1)}
    sigma_v.update({i + n: i for i in range(1, n + 1)})
    sigma_v[2 * n + 1] = 2 * n + 1
    sigma_a = {}
    for name, _, _ in arrows:
        partner = name[:-1] if name.endswith("~") else name + "~"
        sigma_a[name] = partner
    return Quiver(range(1, 2 * n + 2), arrows), sigma_v, sigma_a


def test_crossing_quiver_matches_the_search_when_small():
    for n in range(2, 7):
        assert_same_partition(*crossing_quiver(n))


def test_large_quivers_are_partitioned_promptly():
    """The search tries up to 2^22 choices on a00(22) and on the crossing
    quiver at 22 pairs; the construction is linear."""
    t0 = time.perf_counter()
    sq = families.a00(22)
    assert time.perf_counter() - t0 < 1.0
    assert len(sq.v_plus) == 22 and not sq.v_fixed and not sq.a_fixed
    q, sigma_v, sigma_a = crossing_quiver(22)
    t0 = time.perf_counter()
    with pytest.raises(PartitionViolation):
        SymmetricQuiver(q, sigma_v, sigma_a)
    assert time.perf_counter() - t0 < 1.0
