"""Partition combinatorics: Littlewood-Richardson coefficients, rectangle
tensor decompositions, classical-group invariant dimensions, and the
independent weight-space dimension oracle for supported quivers."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import NonzeroOnFixedVertex, UnsupportedQuiver, ValidationError
from .quiver import DimensionVector
from .symmetric import (ORTHOGONAL, SYMPLECTIC, SymmetricQuiver, Weight, _chain_vertices,
                        classify_symmetric)

Partition = Tuple[int, ...]


def normalize_partition(parts: Iterable[int]) -> Partition:
    """The parts as a tuple without its trailing zeros, once they are
    checked weakly decreasing and nonnegative."""
    p = tuple(int(x) for x in parts)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValidationError("partition parts must be weakly decreasing")
    if any(x < 0 for x in p):
        raise ValidationError("partition parts must be nonnegative")
    return tuple(filter(None, p))


def size(p: Partition) -> int:
    return sum(p)


def height(p: Partition) -> int:
    return len(p)


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def has_even_rows(p: Partition) -> bool:
    return all(x % 2 == 0 for x in p)


def has_even_columns(p: Partition) -> bool:
    """Whether every column of the diagram has even length: the nonzero
    parts come in equal pairs."""
    q = [x for x in p if x]
    return len(q) % 2 == 0 and all(q[i] == q[i + 1] for i in range(0, len(q), 2))


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Number of Littlewood-Richardson skew tableaux of shape nu/lam and
    content mu whose reversed row word is a lattice word.  The partitions
    may be any int sequences; trailing zeros are dropped.

    A tableau is counted row by row. Row r holds c_i letters i, laid out
    weakly increasing, so it is fixed by the column where its letters <= i
    end. Each c_i is bounded by the content still left, by the column where
    letter i starts in row r - 1 (so that columns strictly increase), and by
    used[i] + c_i <= used[i - 1] over the rows above (the lattice word)."""
    lam, mu, nu = (normalize_partition(p) for p in (lam, mu, nu))
    if size(lam) + size(mu) != size(nu) or not contains(nu, lam):
        return 0
    if not mu:
        return 1
    lam += (0,) * (len(nu) - len(lam))
    k = len(mu)

    def count(r: int, above: List[int], ends: List[int], used: List[int]) -> int:
        """The fillings of row r from letter len(ends) on, and of the rows
        below. ends[j] is the column where the letters <= j of row r end,
        above[j] the same in row r - 1, and used[j] counts the letters j in
        the rows above (used[0] leaves letter 1 unbounded)."""
        i, col = len(ends), ends[-1]
        if i > k:
            if r + 1 == len(nu):
                return 1
            used = used[:1] + [u + b - a for u, a, b in zip(used[1:], ends, ends[1:])]
            return count(r + 1, ends, [lam[r + 1]], used)
        top = min(nu[r], above[i - 1], col + mu[i - 1] - used[i], col + used[i - 1] - used[i])
        # the last letter fills the row
        return sum(count(r, above, ends + [end], used)
                   for end in range(nu[r] if i == k else col, top + 1))

    return count(0, [nu[0]] * (k + 1), [lam[0]], [size(mu)] + [0] * k)


def rectangle_tensor(l: int, s: int, m: int, t: int) -> List[Partition]:
    """The multiplicity-free decomposition of a product of two rectangles."""
    if l == 0:
        s = 0
    if m == 0:
        t = 0
    if s < t:
        l, s, m, t = m, t, l, s
    out: Dict[Partition, None] = {}  # a dict keeps the first-seen order
    for cs in combinations_with_replacement(range(m, -1, -1), t):
        if not cs or l + cs[-1] >= m:
            nu = [l + c for c in cs] + [l] * (s - t) + [m - c for c in reversed(cs)]
            out[normalize_partition(nu)] = None
    return list(out)


def classical_invariant_dim(lam, group: str, n: int) -> int:
    """Dimension (0 or 1) of the invariant space of the irreducible with
    highest weight lam under SL(n), O(n), SO(n) or Sp(2n-sized) groups.

    ``n`` is the size of the natural representation in every case.
    """
    lam = normalize_partition(lam)
    if height(lam) > n:
        return 0
    if group == "SL":
        return 1 if (not lam or (height(lam) == n and len(set(lam)) == 1)) else 0
    if group == "O":
        return 1 if has_even_rows(lam) else 0
    if group == "SO":
        padded = list(lam) + [0] * (n - len(lam))
        return 1 if len(set(x % 2 for x in padded)) <= 1 else 0
    if group == "Sp":
        if n % 2:
            return 0
        return 1 if has_even_columns(lam) else 0
    raise ValidationError("unknown group %r" % group)


def pair_semiinvariant_dim(lam: Sequence[int], mu: Sequence[int], n: int) -> int:
    """1 when the product of the two GL(n) irreducibles contains a
    semi-invariant line, i.e. when the difference sequences mirror."""
    lam = list(lam) + [0] * (n - len(list(lam)))
    mu = list(mu) + [0] * (n - len(list(mu)))
    lam = lam[:n]
    mu = mu[:n]
    for i in range(n - 1):
        if lam[i] - lam[i + 1] != mu[n - 2 - i] - mu[n - 1 - i]:
            return 0
    return 1


def shifted_by_constant(lam: Partition, c: int, n: int) -> Optional[Partition]:
    """lam padded to height n with every part shifted by c, when this is a
    partition."""
    padded = list(lam) + [0] * (n - len(lam))
    if len(padded) != n:
        return None
    shifted = [x + c for x in padded]
    if any(x < 0 for x in shifted):
        return None
    return normalize_partition(shifted)


# -- weight space dimensions ----------------------------------------------------

def rectangle_complement(lam: Partition, t: int, p: int) -> Optional[Partition]:
    """The unique mu with a nonzero coefficient into the rectangle (t^p)."""
    if t < 0:
        return None
    padded = list(lam) + [0] * (p - len(lam))
    if len(padded) != p or any(x > t for x in padded):
        return None
    return normalize_partition([t - padded[p - 1 - i] for i in range(p)])


def _subrectangle_partitions(t: int, p: int) -> List[Partition]:
    """Every partition inside the t x p box: a weakly decreasing vector of p
    entries in [0, t], without its zeros."""
    return [tuple(filter(None, c)) for c in combinations_with_replacement(range(t, -1, -1), p)]


def _fixed_arrow_rule(flavor: str, lam: Partition) -> bool:
    # polynomial functions on the fixed-arrow space decompose over even rows
    # in the symplectic case and even columns in the orthogonal case
    return has_even_rows(lam) if flavor == SYMPLECTIC else has_even_columns(lam)


def _fixed_vertex_rule(flavor: str, lam: Partition, n: int) -> bool:
    if flavor == SYMPLECTIC:
        return n % 2 == 0 and classical_invariant_dim(lam, "Sp", n) == 1
    return classical_invariant_dim(lam, "SO", n) == 1


def _chain_dim(betas: List[int], ms: List[Fraction], end_rule) -> int:
    """Weight-space dimension on an equioriented half chain.

    The per-vertex invariant of a pair of Schur functors is unique and
    shifts the running partition by a constant, so the family is forced.
    """
    lam: List[int] = []
    for beta, mval in zip(betas, ms):
        if mval.denominator != 1:
            return 0
        m = int(mval)
        if len(lam) > beta:
            return 0
        lam = [x + m for x in (lam + [0] * (beta - len(lam)))]
        if any(x < 0 for x in lam):
            return 0
    return 1 if end_rule(normalize_partition(tuple(lam))) else 0


def _cycle_dim(sq: SymmetricQuiver, flavor: str, beta: DimensionVector,
               ms: Dict[int, Fraction]) -> int:
    """Weight-space dimension on a cycle, read off its arrows.

    By Cauchy's formula each arrow of Q1+ and each sigma-fixed arrow carries
    one partition. With V_sigma(x) = V_x^*, each plus vertex x then carries
    two Schur functors, and det^m(x) occurs at most once in their product:
    the partitions determine each other, by the complement in the m(x) x
    beta(x) box when both are covariant or both dual, else by a shift of
    m(x). So the first partition at a source or sink fixes all others, and
    the count is of those that pass the rules at the fixed arrows and fixed
    vertices, or that close the cycle. A plus vertex with other than two
    functors (a D-tilde junction or leaf) raises ``UnsupportedQuiver``.
    """
    at: Dict[int, Dict[str, int]] = {x: {} for x in sq.v_plus}  # +1 covariant, -1 dual
    ends: Dict[str, List[int]] = {}        # the plus or fixed vertices of each arrow
    for name in sq.a_plus + sq.a_fixed:
        arr = sq.base.arrow_by_name[name]
        ends[name] = []
        # a fixed arrow meets x and sigma(x) in one functor
        sides = [(arr.tail, 1)] + ([] if name in sq.a_fixed else [(arr.head, -1)])
        for v, var in sides:
            if v not in at and sq.sv(v) != v:
                v, var = sq.sv(v), -var
            ends[name].append(v)
            if v in at:
                at[v][name] = var
    if any(len(fs) != 2 for fs in at.values()):
        raise UnsupportedQuiver("weight-space oracle does not cover %s"
                                % classify_symmetric(sq))
    if any(m.denominator != 1 for m in ms.values()):
        return 0
    cyclic = not sq.a_fixed and not sq.v_fixed
    # the plus end of a source or a sink, which an acyclic cycle has
    x0 = next(x for x in sq.v_plus if len(set(at[x].values())) == 1)
    (a0, var0), (b0, _) = at[x0].items()
    t = var0 * int(ms[x0])

    def walk(x: int, a: str, lam: Optional[Partition], home: Partition) -> bool:
        """Carry lam on the arrow a away from x until a rule decides."""
        while lam is not None:
            if a in sq.a_fixed:
                return _fixed_arrow_rule(flavor, lam)
            y = next(z for z in ends[a] if z != x)
            if y not in at:
                return _fixed_vertex_rule(flavor, lam, beta[y])
            if y == x0:
                return lam == home
            (c, vc), = [(c, vc) for c, vc in at[y].items() if c != a]
            m = at[y][a] * int(ms[y])
            lam = rectangle_complement(lam, m, beta[y]) if at[y][a] == vc \
                else shifted_by_constant(lam, -m, beta[y])
            x, a = y, c
        return False

    return sum(1 for lam in _subrectangle_partitions(t, beta[x0])
               if walk(x0, b0, rectangle_complement(lam, t, beta[x0]), lam)
               and (cyclic or walk(x0, a0, lam, lam)))


def weight_space_dim(sq: SymmetricQuiver, flavor: str, beta: DimensionVector,
                     chi) -> int:
    """Dimension of the semi-invariant weight space, computed from partition
    combinatorics alone.

    Supported quivers: the equioriented symmetric A_n, and every A-tilde
    family at any size, with any vertex ids and in any orientation; the
    D-tilde families raise ``UnsupportedQuiver``.  ``chi`` is a Weight or a
    vertex dict and must vanish on sigma-fixed vertices.  The parity of
    beta is not checked: where an sp dimension at a fixed vertex is odd,
    there is no sp representation and the answer is 0.
    """
    # the flavor is checked here: check_point with a flavor would read the parity
    if flavor not in (SYMPLECTIC, ORTHOGONAL):
        raise ValidationError("flavor must be 'sp' or 'o'")
    if not isinstance(chi, Weight):
        chi = Weight(chi)
    sq.check_point(beta)
    for x in sq.v_fixed:
        if chi[x] != 0:
            raise NonzeroOnFixedVertex("weight must vanish on fixed vertex %r" % x)

    def m_of(x: int) -> Fraction:
        # GL(0) is trivial: no weight is read where beta is 0
        return chi[x] - chi[sq.sv(x)] if beta[x] else Fraction(0)

    if classify_symmetric(sq).tag != "FiniteA":
        return _cycle_dim(sq, flavor, beta, {x: m_of(x) for x in sq.v_plus})
    order = _chain_vertices(sq)
    n = len(order)
    half = order[:n // 2]
    betas = [beta[x] for x in half]
    ms = [m_of(x) for x in half]
    if n % 2 == 0:
        return _chain_dim(betas, ms, lambda lam: _fixed_arrow_rule(flavor, lam))
    mid = order[n // 2]
    return _chain_dim(betas, ms, lambda lam: _fixed_vertex_rule(flavor, lam, beta[mid]))
