"""Projective presentations as matrices of formal path combinations.

A ``PathMatrix`` is a presentation template: rows list the projective
summands being mapped in, columns the target summands, and each entry is a
rational combination of quiver paths from the column vertex to the row
vertex.  Evaluating the template at a representation produces the block
number matrix of the induced map on Hom spaces; taking cokernels of the
template itself produces the presented module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ValidationError
from .linalg import RationalMatrix, _complement, _int_product, column_space_complement
from .quiver import DimensionVector, Quiver
from .representation import Representation

Path = Tuple[str, ...]
PathCombo = Mapping[Path, Fraction]


def _frozen_grid(grid: Sequence[Sequence[PathCombo]]) -> Tuple[Tuple[PathCombo, ...], ...]:
    """A grid of path combinations as tuples of read-only copies."""
    return tuple(tuple(MappingProxyType(dict(combo)) for combo in row) for row in grid)


@dataclass(frozen=True)
class PathMatrix:
    """Immutable: ``rows`` and ``cols`` are tuples and each entry is a
    read-only copy of the mapping given, so one template can be shared by
    every caller (arc templates are kept on their quiver)."""
    quiver: Quiver
    rows: Tuple[int, ...]                 # vertices of the inner projectives
    cols: Tuple[int, ...]                 # vertices of the outer projectives
    entries: Tuple[Tuple[PathCombo, ...], ...]   # entries[r][c], paths col -> row

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(self, "entries", _frozen_grid(self.entries))
        for r, qv in enumerate(self.rows):
            for c, pv in enumerate(self.cols):
                for path in self.entries[r][c]:
                    if path == ():
                        if pv != qv:
                            raise ValidationError("identity entry on mismatched vertices")
                        continue
                    t, h = self.quiver.path_endpoints(path)
                    if t != pv or h != qv:
                        raise ValidationError(
                            "entry path %r must run %r -> %r" % (path, pv, qv))


def evaluate_template(t: PathMatrix, w: Representation) -> RationalMatrix:
    """The block matrix Hom(template, w); block (r, c) maps W(col) to W(row).

    The result is always (sum of W at the row vertices) x (sum of W at the
    column vertices), also when either sum is zero.  Path products are
    formed on ints and kept in one table on ``w`` (the representation never
    changes): each distinct path prefix is multiplied out once per
    representation, from the arrow numerators, whichever template asks for
    it.  Each block is an integer combination over its own denominator, and
    the blocks are written over the lcm of those.
    """
    dim = w.dim
    arrow = w.quiver.arrow_by_name
    products: Dict[Path, Tuple[List[List[int]], int]] = w.cached("paths", lambda _: {})

    def product(path: Path) -> Tuple[List[List[int]], int]:
        """Int rows n and a denominator d with n / d the matrix of the path;
        the rows are read, never changed."""
        found = products.get(path)
        if found is None:
            if len(path) == 1:
                m = w.matrices[path[0]]
                found = (m.int_rows(), m.den)
            else:
                (a, da), (n, d) = product(path[-1:]), product(path[:-1])
                found = (_int_product(a, n, dim[arrow[path[0]].tail]), da * d)
            products[path] = found
        return found

    heights = [dim[v] for v in t.rows]
    widths = [dim[v] for v in t.cols]
    strips = []                             # per row: (int rows, denominator) per block
    for r, height in enumerate(heights):
        strip = []
        for c, width in enumerate(widths):
            terms = []
            for path, coeff in t.entries[r][c].items():
                if path:
                    n, d = product(path)
                else:
                    n, d = [[int(i == j) for j in range(width)] for i in range(height)], 1
                terms.append((coeff, n, d))
            den = lcm(*(coeff.denominator * d for coeff, _, d in terms))
            block = [[0] * width for _ in range(height)]
            for coeff, n, d in terms:
                k = coeff.numerator * (den // (coeff.denominator * d))
                block = [[u + k * x for u, x in zip(brow, nrow)]
                         for brow, nrow in zip(block, n)]
            strip.append((block, den))
        strips.append(strip)
    den = lcm(*(d for strip in strips for _, d in strip))
    num: List[int] = []
    for strip, height in zip(strips, heights):
        for i in range(height):
            for block, d in strip:
                s = den // d
                num.extend(s * x for x in block[i])
    return RationalMatrix._from_ints(sum(heights), sum(widths), num, den)


# -- modules from presentations ------------------------------------------------
#
# A sum of projectives P(x_0) + P(x_1) + ... has at each vertex z the basis of
# pairs (summand c, path from x_c to z), by summand and then path, and an
# arrow a sends (c, p) to (c, p + (a,)).  So every map between such sums and
# their sub- and quotient modules is read off these bases: an arrow map is a
# re-indexing of coordinates, not a matrix product.

_Basis = Dict[int, List[Tuple[int, Path]]]


def _basis(q: Quiver, vertices: Sequence[int]) -> _Basis:
    """The path basis at each vertex of the sum of the projectives at ``vertices``."""
    tables = [q.paths_from(x) for x in vertices]
    return {z: [(c, p) for c, table in enumerate(tables) for p in table[z]]
            for z in q.vertices}


def _shift(basis: _Basis, a) -> List[int]:
    """The arrow ``a`` on a path basis: the position at its head of each
    position at its tail."""
    index = {item: i for i, item in enumerate(basis[a.head])}
    return [index[c, p + (a.name,)] for c, p in basis[a.tail]]


def _columns(m: RationalMatrix, picks: Sequence[Optional[int]]) -> RationalMatrix:
    """The columns of ``m`` at ``picks``, a zero column for None."""
    num = [m.num[i * m.cols + j] if j is not None else 0
           for i in range(m.rows) for j in picks]
    return RationalMatrix._from_ints(m.rows, len(picks), num, m.den)


def _top(q: Quiver, dim, columns) -> List[Tuple[int, int]]:
    """The (vertex, coordinate) pairs spanning a complement of the radical
    of the module with dimensions ``dim`` whose arrow maps have the int
    columns ``columns[name]`` (each scaled by any positive factor, and
    consumed): at each vertex, the coordinates outside the pivots of the
    images of the arrows into it, taken by name.  A vertex of dimension 0
    has none, and an arrow from a vertex of dimension 0 has no image."""
    out = []
    for x in q.vertices:
        if not dim[x]:
            continue
        images = [col for a in sorted(q.arrows_into(x), key=lambda a: a.name)
                  if dim[a.tail] for col in columns[a.name]]
        out.extend((x, i) for i in _complement(images, dim[x])[2])
    return out


def module_from_presentation(t: PathMatrix) -> Representation:
    """Cokernel of the presentation map, with deterministic quotient bases:
    at each vertex, the path basis coordinates outside the pivots of the
    image."""
    q = t.quiver
    p0, p1 = _basis(q, t.cols), _basis(q, t.rows)
    proj, comp = {}, {}
    for z in q.vertices:
        index = {item: i for i, item in enumerate(p0[z])}
        width = len(p1[z])
        # column j is the image of the basis path (r, tail) of P1: the sum
        # over the columns c of entry-path * tail inside P0
        entries = [0] * (len(p0[z]) * width)
        for j, (r, tail) in enumerate(p1[z]):
            for c in range(len(t.cols)):
                for path, coeff in t.entries[r][c].items():
                    entries[index[c, path + tail] * width + j] += coeff
        proj[z], comp[z] = column_space_complement(RationalMatrix(len(p0[z]), width, entries))
    mats = {}
    for a in q.arrows:
        shift = _shift(p0, a)
        mats[a.name] = _columns(proj[a.head], [shift[i] for i in comp[a.tail]])
    return Representation(q, DimensionVector({z: proj[z].rows for z in q.vertices}), mats)


def minimal_presentation(m: Representation) -> PathMatrix:
    """Minimal projective presentation of a representation.

    The cover P0 has one summand per generator (``_top``).  The syzygy at
    each vertex is the RREF kernel basis of P0 -> m on the path basis, one
    vector per free column, so a syzygy vector's coordinates are its free
    entries and the syzygy's arrow maps re-index them.  The rows of the
    template are the syzygy's generators in the path basis; it evaluates to
    the defining matrix of the determinantal semi-invariant attached to ``m``.

    Everything runs on ints: a path's image in m is an int vector over a
    denominator, the images at a vertex are brought over their lcm, and each
    kernel basis is int rows over one denominator.  Fractions are built
    only for the template's entries.
    """
    q = m.quiver
    gens = _top(q, m.dim, {name: a.transpose().int_rows() for name, a in m.matrices.items()})
    p0 = _basis(q, [x for x, _ in gens])
    arrows = {name: (a.int_rows(), a.den) for name, a in m.matrices.items()}
    # the image in m of each basis path, formed from its prefix
    images: Dict[Tuple[int, Path], Tuple[List[int], int]] = {}
    for c, path in sorted((item for z in q.vertices for item in p0[z]),
                          key=lambda item: len(item[1])):
        if path:
            (v, d), (a, da) = images[c, path[:-1]], arrows[path[-1]]
            images[c, path] = ([sum(x * y for x, y in zip(row, v) if y) for row in a], d * da)
        else:
            x, i = gens[c]
            images[c, path] = ([int(k == i) for k in range(m.dim[x])], 1)
    kernel, free = {}, {}
    for z in q.vertices:
        at_z = [images[item] for item in p0[z]]
        den = lcm(*(d for _, d in at_z))
        # column j: coordinate j of every image at z, over den
        columns = [list(col) for col in zip(*([x * (den // d) for x in v] for v, d in at_z))]
        basis, d, free[z] = _complement(columns, len(at_z))
        kernel[z] = (basis, d)
    # the syzygy's arrow maps, by their columns: a kernel vector at the tail,
    # re-indexed to the free coordinates at the head
    syzygy_columns = {}
    for a in q.arrows:
        back = {j: i for i, j in enumerate(_shift(p0, a))}
        picks = [back.get(j) for j in free[a.head]]
        syzygy_columns[a.name] = [[0 if i is None else k[i] for i in picks]
                                  for k in kernel[a.tail][0]]
    rows: List[int] = []
    entries: List[List[Dict[Path, Fraction]]] = []
    for y, k in _top(q, {z: len(free[z]) for z in q.vertices}, syzygy_columns):
        basis, d = kernel[y]
        entry: List[Dict[Path, Fraction]] = [{} for _ in gens]
        for (c, path), x in zip(p0[y], basis[k]):
            if x:
                entry[c][path] = Fraction(x, d)
        rows.append(y)
        entries.append(entry)
    return PathMatrix(q, rows, [x for x, _ in gens], entries)
