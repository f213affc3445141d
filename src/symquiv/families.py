"""Constructors for the canonical symmetric quivers of finite and tame type."""

from __future__ import annotations

from typing import Callable, List, Tuple

from .errors import ValidationError
from .quiver import Quiver
from .symmetric import SymmetricQuiver


def symmetric_a(n: int) -> SymmetricQuiver:
    """Equioriented A_n with the flip involution."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    arrows = [("a%d" % i, i, i + 1) for i in range(1, n)]
    q = Quiver(range(1, n + 1), arrows, name="A%d" % n)
    sv = {i: n + 1 - i for i in range(1, n + 1)}
    sa = {"a%d" % i: "a%d" % (n - i) for i in range(1, n)}
    return SymmetricQuiver(q, sv, sa)


def _mirrored(name: str, verts: List[int], s: Callable[[int], int],
              arrows: List[Tuple[str, int, int]]) -> SymmetricQuiver:
    """The symmetric quiver on ``verts`` and ``arrows`` with the vertex
    involution ``s``: an arrow ``x`` mirrors to ``x~``, and an arrow with no
    ``~`` partner is sigma-fixed."""
    names = {a for a, _, _ in arrows}
    sa = {}
    for a, _, _ in arrows:
        partner = a[:-1] if a.endswith("~") else a + "~"
        sa[a] = partner if partner in names else a
    return SymmetricQuiver(Quiver(verts, arrows, name=name), {i: s(i) for i in verts}, sa)


def _even(x: int, what: str) -> None:
    if x < 0 or x % 2:
        raise ValidationError("%s must be a nonnegative even integer" % what)


def a201(k: int, l: int) -> SymmetricQuiver:
    """Cycle with two sigma-fixed arrows of opposite rotational sense."""
    _even(k, "k")
    _even(l, "l")
    m = l // 2 + k // 2 + 1
    verts = list(range(1, 2 * m + 1))

    def s(i):
        return i + m if i <= m else i - m

    x = [1] + [1 + i for i in range(1, l // 2 + 1)]      # x[0]=a0, x[i]
    y = [1] + [l // 2 + 1 + j for j in range(1, k // 2 + 1)]
    arrows: List[Tuple[str, int, int]] = []
    for i in range(1, l // 2 + 1):
        arrows.append(("v%d" % i, x[i - 1], x[i]))
        arrows.append(("v%d~" % i, s(x[i]), s(x[i - 1])))
    arrows.append(("a", x[l // 2], s(x[l // 2])))
    for j in range(1, k // 2 + 1):
        arrows.append(("u%d" % j, y[j - 1], y[j]))
        arrows.append(("u%d~" % j, s(y[j]), s(y[j - 1])))
    arrows.append(("b", y[k // 2], s(y[k // 2])))
    return _mirrored("A201_%d_%d" % (k, l), verts, s, arrows)


def a202(k: int, l: int) -> SymmetricQuiver:
    """Cycle with two sigma-fixed arrows of the same rotational sense (k >= 2)."""
    _even(k, "k")
    _even(l, "l")
    if k < 2:
        raise ValidationError("a202 needs k >= 2 for an acyclic orientation")
    sq = a201(k, l)
    q = sq.base
    b = q.arrow_by_name["b"]
    arrows = [(a.name, a.tail, a.head) if a.name != "b" else ("b", b.head, b.tail)
              for a in q.arrows]
    q2 = Quiver(q.vertices, arrows, name="A202_%d_%d" % (k, l))
    return SymmetricQuiver(q2, sq.sigma_v, sq.sigma_a)


def a02(k: int, l: int) -> SymmetricQuiver:
    """Cycle with two sigma-fixed vertices (k, l >= 2)."""
    _even(k, "k")
    _even(l, "l")
    if k < 2 or l < 2:
        raise ValidationError("a02 needs k, l >= 2")
    n_plus = l // 2 + k // 2 - 1
    top = n_plus + 1
    bottom = n_plus + 2

    def s(i):
        if i == top or i == bottom:
            return i
        return i + n_plus + 2 if i <= n_plus else i - n_plus - 2

    verts = list(range(1, 2 * n_plus + 3))
    x = [1] + [1 + i for i in range(1, l // 2)]
    y = [1] + [l // 2 + j for j in range(1, k // 2)]
    arrows: List[Tuple[str, int, int]] = []
    for i in range(1, l // 2 + 1):
        tail = x[i - 1] if i - 1 < len(x) else top
        head = x[i] if i < len(x) else top
        arrows.append(("v%d" % i, tail, head))
        arrows.append(("v%d~" % i, s(head), s(tail)))
    for j in range(1, k // 2 + 1):
        tail = y[j - 1] if j - 1 < len(y) else bottom
        head = y[j] if j < len(y) else bottom
        arrows.append(("u%d" % j, tail, head))
        arrows.append(("u%d~" % j, s(head), s(tail)))
    return _mirrored("A02_%d_%d" % (k, l), verts, s, arrows)


def a11(k: int, l: int) -> SymmetricQuiver:
    """Cycle with one sigma-fixed vertex and one sigma-fixed arrow (l >= 2)."""
    _even(k, "k")
    _even(l, "l")
    if l < 2:
        raise ValidationError("a11 needs l >= 2")
    n_plus = l // 2 + k // 2
    top = n_plus + 1

    def s(i):
        if i == top:
            return i
        return i + n_plus + 1 if i <= n_plus else i - n_plus - 1

    verts = list(range(1, 2 * n_plus + 2))
    x = [1] + [1 + i for i in range(1, l // 2)]
    y = [1] + [l // 2 + j for j in range(1, k // 2 + 1)]
    arrows: List[Tuple[str, int, int]] = []
    for i in range(1, l // 2 + 1):
        tail = x[i - 1] if i - 1 < len(x) else top
        head = x[i] if i < len(x) else top
        arrows.append(("v%d" % i, tail, head))
        arrows.append(("v%d~" % i, s(head), s(tail)))
    for j in range(1, k // 2 + 1):
        arrows.append(("u%d" % j, y[j - 1], y[j]))
        arrows.append(("u%d~" % j, s(y[j]), s(y[j - 1])))
    arrows.append(("b", y[k // 2], s(y[k // 2])))
    return _mirrored("A11_%d_%d" % (k, l), verts, s, arrows)


def a00(k: int) -> SymmetricQuiver:
    """Cycle of length 2k with a free central symmetry (k >= 2 even)."""
    _even(k, "k")
    if k < 2:
        raise ValidationError("a00 needs k >= 2")
    verts = list(range(1, 2 * k + 1))

    def s(i):
        return i + k if i <= k else i - k

    arrows: List[Tuple[str, int, int]] = []
    x = list(range(1, k + 1))  # a0 = 1, x_i = i+1
    for i in range(1, k):
        arrows.append(("v%d" % i, x[i - 1], x[i]))
        arrows.append(("v%d~" % i, s(x[i]), s(x[i - 1])))
    arrows.append(("v%d" % k, x[k - 1], s(1)))
    arrows.append(("v%d~" % k, 1, s(x[k - 1])))
    return _mirrored("A00_%d" % k, verts, s, arrows)


def d10(n: int) -> SymmetricQuiver:
    """D-tilde with a sigma-fixed central arrow; 2n vertices (n >= 3)."""
    if n < 3:
        raise ValidationError("d10 needs n >= 3")
    verts = list(range(1, 2 * n + 1))

    def s(i):
        return i + n if i <= n else i - n

    z = list(range(3, n + 1))  # spine on the plus side
    arrows: List[Tuple[str, int, int]] = [("a", 1, 3), ("b", 2, 3)]
    arrows.append(("a~", s(3), s(1)))
    arrows.append(("b~", s(3), s(2)))
    for i in range(len(z) - 1):
        arrows.append(("c%d" % (i + 1), z[i], z[i + 1]))
        arrows.append(("c%d~" % (i + 1), s(z[i + 1]), s(z[i])))
    arrows.append(("c%d" % (len(z)), z[-1], s(z[-1])))  # sigma-fixed central arrow
    return _mirrored("D10_%d" % n, verts, s, arrows)


def d01(n: int) -> SymmetricQuiver:
    """D-tilde with a sigma-fixed central vertex; 2n-1 vertices (n >= 3)."""
    if n < 3:
        raise ValidationError("d01 needs n >= 3")
    n_plus = n - 1
    center = n

    def s(i):
        if i == center:
            return i
        return i + n if i <= n_plus else i - n

    verts = list(range(1, 2 * n))
    z = list(range(3, n))  # plus-side spine, excluding the fixed center
    arrows: List[Tuple[str, int, int]] = []
    first = z[0] if z else center
    arrows.append(("a", 1, first))
    arrows.append(("b", 2, first))
    arrows.append(("a~", s(first), s(1)))
    arrows.append(("b~", s(first), s(2)))
    chain = z + [center]
    for i in range(len(chain) - 1):
        arrows.append(("c%d" % (i + 1), chain[i], chain[i + 1]))
        arrows.append(("c%d~" % (i + 1), s(chain[i + 1]), s(chain[i])))
    return _mirrored("D01_%d" % n, verts, s, arrows)

