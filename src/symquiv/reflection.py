"""Sink/source reflections on dimension vectors, weights and representations,
Coxeter translation, and the duality functor."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .errors import NotAdmissible, NonzeroOnFixedVertex, NotSinkOrSource
from .linalg import RationalMatrix, column_space_complement
from .quiver import DimensionVector, Quiver
from .representation import Representation
from .symmetric import SymmetricQuiver, admissible_sinks

PLUS = "plus"
MINUS = "minus"


def reflect_dim(q: Quiver, x: int, alpha: DimensionVector):
    """BGP reflection of a dimension vector at a sink or source x.

    Returns (reflected quiver, reflected dimension vector).
    """
    if not (q.is_sink(x) or q.is_source(x)):
        raise NotSinkOrSource("vertex %r is neither a sink nor a source" % x)
    total = 0
    for a in q.arrows_at(x):
        other = a.tail if a.head == x else a.head
        total += alpha[other]
    return q.reverse_arrows_at(x), alpha.replace(x, total - alpha[x])


def reflect_pair_dim(sq: SymmetricQuiver, x: int, alpha: DimensionVector):
    """Reflection at an admissible sink-source pair (x, sigma x)."""
    if x not in admissible_sinks(sq):
        raise NotAdmissible("vertex %r is not an admissible sink" % x)
    q1, a1 = reflect_dim(sq.base, x, alpha)
    q2, a2 = reflect_dim(q1, sq.sv(x), a1)
    return sq.with_base(q2), a2


def arrows_between(q: Quiver, x: int, y: int) -> int:
    return sum(1 for a in q.arrows if {a.tail, a.head} == {x, y})


def reflect_weight(sq: SymmetricQuiver, x: int, chi) -> Dict[int, Fraction]:
    """Weight transform under the admissible pair reflection at sink x.

    Accepts a vertex mapping or a Weight; the input must vanish on sigma-fixed
    vertices and the output does too.
    """
    if not isinstance(chi, Mapping):
        chi = chi.values
    if x not in admissible_sinks(sq):
        raise NotAdmissible("vertex %r is not an admissible sink" % x)
    for v in sq.v_fixed:
        if chi.get(v, 0) != 0:
            raise NonzeroOnFixedVertex("weight must vanish on fixed vertex %r" % v)
    q = sq.base
    sx = sq.sv(x)
    out: Dict[int, Fraction] = {}
    for y in q.vertices:
        if y in sq.v_fixed:
            out[y] = Fraction(0)
        elif y == x:
            out[y] = -Fraction(chi.get(x, 0))
        elif y == sx:
            out[y] = -Fraction(chi.get(sx, 0))
        else:
            val = Fraction(chi.get(y, 0))
            val += arrows_between(q, x, y) * Fraction(chi.get(x, 0))
            val += arrows_between(q, sx, y) * Fraction(chi.get(sx, 0))
            out[y] = val
    return out


def reflect_rep(q: Quiver, x: int, direction: str, v: Representation):
    """Kernel (plus, at a sink) or cokernel (minus, at a source) reflection.

    Returns (reflected quiver, reflected representation).  The two are one
    step, the sink reflection being the source reflection of the transposed
    matrices (Bernstein, Gelfand & Ponomarev 1973): the arrow matrices at x,
    ordered by name and transposed at a sink, are stacked in a column, and
    the rows of the projection onto the greedy standard-vector complement of
    the stack's column space, cut into one block per arrow, are the new
    matrices, transposed back at a sink.  Those rows are the kernel basis,
    from reduced row echelon form, of the transposed stack, so the bases are
    deterministic.
    """
    if direction == PLUS:
        if not q.is_sink(x):
            raise NotSinkOrSource("plus reflection needs a sink, %r is not" % x)
        arrows = q.arrows_into(x)
    elif direction == MINUS:
        if not q.is_source(x):
            raise NotSinkOrSource("minus reflection needs a source, %r is not" % x)
        arrows = q.arrows_out_of(x)
    else:
        raise ValueError("direction must be 'plus' or 'minus'")
    arrows.sort(key=lambda a: a.name)
    plus = direction == PLUS
    blocks = [v.matrices[a.name].transpose() if plus else v.matrices[a.name]
              for a in arrows]
    stack = (RationalMatrix.block([[b] for b in blocks]) if blocks
             else RationalMatrix.zero(0, v.dim[x]))
    proj, _comp = column_space_complement(stack)
    rows = proj.int_rows()
    mats = dict(v.matrices)
    off = 0
    for a, b in zip(arrows, blocks):
        cut = RationalMatrix._from_ints(
            proj.rows, b.rows, [y for row in rows for y in row[off:off + b.rows]], proj.den)
        mats[a.name] = cut.transpose() if plus else cut
        off += b.rows
    qr = q.reverse_arrows_at(x)
    return qr, Representation(qr, v.dim.replace(x, proj.rows), mats)


def reflect_pair_rep(sq: SymmetricQuiver, x: int, direction: str, v: Representation):
    """C at the admissible pair: the sink reflection then the partner source."""
    if direction == PLUS:
        if x not in admissible_sinks(sq):
            raise NotAdmissible("vertex %r is not an admissible sink" % x)
        q1, v1 = reflect_rep(sq.base, x, PLUS, v)
        q2, v2 = reflect_rep(q1, sq.sv(x), MINUS, v1)
        return sq.with_base(q2), v2
    q1, v1 = reflect_rep(sq.base, x, MINUS, v)
    q2, v2 = reflect_rep(q1, sq.sv(x), PLUS, v1)
    return sq.with_base(q2), v2


def _admissible_numbering(q: Quiver, direction: str) -> Tuple[int, ...]:
    """Ascending-id vertex order that is a valid sink (plus) or source
    (minus) sequence; computed once per quiver and direction."""
    return q.cached(("numbering", direction), lambda q: _numbering(q, direction))


def _numbering(q: Quiver, direction: str) -> Tuple[int, ...]:
    """Reflects the arrow list itself: no reflected quiver is built."""
    order = []
    arrows = [(a.tail, a.head) for a in q.arrows]
    remaining = set(q.vertices)
    while remaining:
        # a sink is the tail of no arrow, a source the head of none
        blocked = {t if direction == PLUS else h for t, h in arrows}
        pick = min((v for v in remaining if v not in blocked), default=None)
        assert pick is not None, "acyclic quivers always have a sink and a source"
        order.append(pick)
        arrows = [(h, t) if pick in (t, h) else (t, h) for t, h in arrows]
        remaining.discard(pick)
    return tuple(order)


def _coxeter_word(q: Quiver, direction: str) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """The reflection word of the Coxeter translation on vectors indexed
    like ``q.vertices``: one (position, neighbour positions) pair per
    reflection, along the admissible numbering; computed once per quiver
    and direction."""
    return q.cached(("coxeter_word", direction), lambda q: _index_word(q, direction))


def _index_word(q: Quiver, direction: str) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    pos = {v: i for i, v in enumerate(q.vertices)}
    return tuple((pos[x], tuple(pos[y] for y in q.neighbours(x)))
                 for x in _admissible_numbering(q, direction))


def _apply_word(word, x: List[int]) -> List[int]:
    """Run a reflection word of :func:`_coxeter_word` on the int list x, in
    place: each reflection sets x[i] to the sum over its neighbours minus
    x[i].  Returns x."""
    for i, adj in word:
        y = -x[i]
        for j in adj:
            y += x[j]
        x[i] = y
    return x


def coxeter_dim(q: Quiver, alpha: DimensionVector, direction: str) -> DimensionVector:
    """Full reflection word along the ascending admissible numbering.

    The reflection at x reads only the neighbours of x, which reversing
    arrows leaves unchanged, so the word runs on one list of entries without
    building the reflected quivers.
    """
    verts = q.vertices
    vals = dict(alpha.values)
    vals.update(zip(verts, _apply_word(_coxeter_word(q, direction), [alpha[v] for v in verts])))
    return DimensionVector(vals)


def coxeter_rep(q: Quiver, v: Representation, direction: str) -> Representation:
    cur_q = q
    cur = v
    for x in _admissible_numbering(q, direction):
        cur_q, cur = reflect_rep(cur_q, x, direction, cur)
    return cur


def dual_rep(sq: SymmetricQuiver, v: Representation) -> Representation:
    """The duality functor: spaces pulled back along sigma, matrices
    minus-transposed.  Works on any sigma-compatible orientation, so it can
    be applied to reflected representations as well."""
    q = v.quiver
    dim = sq.delta(v.dim)
    mats = {}
    for a in q.arrows:
        mats[a.name] = v.matrices[sq.sa(a.name)].transpose().scale(-1)
    return Representation(q, dim, mats)
