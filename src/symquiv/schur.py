"""Partition combinatorics: Littlewood-Richardson coefficients, rectangle
tensor decompositions, classical-group invariant dimensions, and the
independent weight-space dimension oracle for supported quivers."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import AsymmetricWeight, UnsupportedQuiver, ValidationError
from .quiver import DimensionVector
from .symmetric import (SYMPLECTIC, SymmetricQuiver, Weight, _chain_vertices,
                        classify_symmetric)

Partition = Tuple[int, ...]


def normalize_partition(parts: Iterable[int]) -> Partition:
    p = tuple(int(x) for x in parts)
    trimmed = tuple(x for x in p if x != 0)
    if any(trimmed[i] < trimmed[i + 1] for i in range(len(trimmed) - 1)):
        raise ValidationError("partition parts must be weakly decreasing")
    if any(x < 0 for x in trimmed):
        raise ValidationError("partition parts must be nonnegative")
    return trimmed


def size(p: Partition) -> int:
    return sum(p)


def height(p: Partition) -> int:
    return len(p)


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    out = []
    for j in range(1, p[0] + 1):
        out.append(sum(1 for x in p if x >= j))
    return tuple(out)


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def has_even_rows(p: Partition) -> bool:
    return all(x % 2 == 0 for x in p)


def has_even_columns(p: Partition) -> bool:
    return has_even_rows(conjugate(p))


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


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
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


def rectangle_tensor(l: int, s: int, m: int, t: int) -> List[Partition]:
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
    out = [()]
    for n in range(1, t * p + 1):
        out.extend(partitions_of(n, max_part=t, max_height=p))
    return out


def _row_class(flavor: str) -> str:
    # polynomial functions on the fixed-arrow space decompose over even rows
    # in the symplectic case and even columns in the orthogonal case
    return "ER" if flavor == SYMPLECTIC else "EC"


def _in_class(lam: Partition, cls: str) -> bool:
    if cls == "ER":
        return has_even_rows(lam)
    if cls == "EC":
        return has_even_columns(lam)
    return True


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


def weight_space_dim(sq: SymmetricQuiver, flavor: str, beta: DimensionVector,
                     chi) -> int:
    """Dimension of the semi-invariant weight space, computed from partition
    combinatorics alone.

    Supported quivers: equioriented symmetric A_n and the smallest tame
    cases in each A-family.  ``chi`` is a Weight or a vertex dict and must
    vanish on sigma-fixed vertices.
    """
    if not isinstance(chi, Weight):
        chi = Weight(chi)
    if not sq.is_symmetric_dim(beta):
        raise AsymmetricWeight("beta must be a symmetric dimension vector")
    if any(x < 0 for x in beta.values.values()):
        raise ValidationError("beta must have nonnegative entries")
    for x in sq.v_fixed:
        if chi[x] != 0:
            raise AsymmetricWeight("weights vanish on sigma-fixed vertices")
    st = classify_symmetric(sq)

    def m_of(x: int) -> Fraction:
        return chi[x] - chi[sq.sv(x)]

    if st.tag == "FiniteA":
        order = _chain_vertices(sq)
        n = len(order)
        half = order[:n // 2]
        betas = [beta[x] for x in half]
        ms = [m_of(x) for x in half]
        if n % 2 == 0:
            cls = _row_class(flavor)
            return _chain_dim(betas, ms, lambda lam: _in_class(lam, cls))
        mid = order[n // 2]
        if flavor == SYMPLECTIC:
            end = lambda lam: classical_invariant_dim(lam, "Sp", beta[mid]) == 1
        else:
            end = lambda lam: classical_invariant_dim(lam, "SO", beta[mid]) == 1
        return _chain_dim(betas, ms, end)

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
