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
from typing import Dict, List, Sequence, Tuple

from .errors import ValidationError
from .linalg import (RationalMatrix, _int_product, column_space_complement,
                     coordinates_in_span, kernel_basis)
from .quiver import DimensionVector, Quiver
from .representation import Representation

Path = Tuple[str, ...]
PathCombo = Dict[Path, Fraction]


@dataclass
class PathMatrix:
    quiver: Quiver
    rows: List[int]                       # vertices of the inner projectives
    cols: List[int]                       # vertices of the outer projectives
    entries: List[List[PathCombo]]        # entries[r][c], paths col -> row

    def __post_init__(self):
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


def path_combo(*items) -> PathCombo:
    """Build a combination; items are paths or (coefficient, path) pairs."""
    out: PathCombo = {}
    for it in items:
        if isinstance(it, tuple) and it and isinstance(it[0], (int, Fraction)):
            coeff, path = it
        else:
            coeff, path = Fraction(1), tuple(it)
        path = tuple(path)
        out[path] = out.get(path, Fraction(0)) + Fraction(coeff)
    return {p: c for p, c in out.items() if c}


def evaluate_template(t: PathMatrix, w: Representation) -> RationalMatrix:
    """The block matrix Hom(template, w); block (r, c) maps W(col) to W(row).

    The result is always (sum of W at the row vertices) x (sum of W at the
    column vertices), also when either sum is zero.  Path products are
    formed on ints: each distinct path prefix is multiplied out once from
    the arrow numerators, each block is an integer combination over its own
    denominator, and the blocks are written over the lcm of those.
    """
    dim = w.dim
    q = t.quiver
    products: Dict[Path, Tuple[List[List[int]], int]] = {}

    def product(path: Path) -> Tuple[List[List[int]], int]:
        """Int rows n and a denominator d with n / d the matrix of the path."""
        if path not in products:
            if len(path) == 1:
                m = w.matrices[path[0]]
                products[path] = (m.int_rows(), m.den)
            else:
                (a, da), (n, d) = product(path[-1:]), product(path[:-1])
                products[path] = (_int_product(a, n, dim[q.arrow_by_name[path[0]].tail]),
                                  da * d)
        return products[path]

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

class _ProjSum:
    """Direct sum of indecomposable projectives with a path-labelled basis."""

    def __init__(self, q: Quiver, vertices: Sequence[int]):
        self.q = q
        self.vertices = list(vertices)
        self.paths = [q.paths_from(x) for x in self.vertices]
        self.basis: Dict[int, List[Tuple[int, Path]]] = {}
        for z in q.vertices:
            items: List[Tuple[int, Path]] = []
            for c, table in enumerate(self.paths):
                for p in table[z]:
                    items.append((c, p))
            self.basis[z] = items

    def dim(self, z: int) -> int:
        return len(self.basis[z])

    def index(self, z: int, summand: int, path: Path) -> int:
        return self.basis[z].index((summand, path))

    def arrow_matrix(self, name: str) -> RationalMatrix:
        a = self.q.arrow_by_name[name]
        src = self.basis[a.tail]
        dst = self.basis[a.head]
        lookup = {item: i for i, item in enumerate(dst)}
        num = [0] * (len(dst) * len(src))
        for j, (c, p) in enumerate(src):
            num[lookup[(c, p + (name,))] * len(src) + j] = 1
        return RationalMatrix._from_ints(len(dst), len(src), num)


def module_from_presentation(t: PathMatrix) -> Representation:
    """Cokernel of the presentation map, with deterministic quotient bases."""
    q = t.quiver
    p0 = _ProjSum(q, t.cols)
    p1 = _ProjSum(q, t.rows)
    # the map phi sends the basis path (r, tail_path) of P1 to
    # sum over columns of entry-path * tail_path inside P0
    phi: Dict[int, RationalMatrix] = {}
    for z in q.vertices:
        width = p1.dim(z)
        entries = [0] * (p0.dim(z) * width)
        for jcol, (r, tpath) in enumerate(p1.basis[z]):
            for c in range(len(t.cols)):
                for spath, coeff in t.entries[r][c].items():
                    entries[p0.index(z, c, spath + tpath) * width + jcol] += coeff
        phi[z] = RationalMatrix(p0.dim(z), width, entries)
    proj = {}
    comp = {}
    for z in q.vertices:
        proj[z], comp[z] = column_space_complement(phi[z])
    dim = DimensionVector({z: proj[z].rows for z in q.vertices})
    mats = {}
    for a in q.arrows:
        p0a = p0.arrow_matrix(a.name)
        width = proj[a.tail].rows
        num = [0] * (p0.dim(a.tail) * width)
        for col, idx in enumerate(comp[a.tail]):
            num[idx * width + col] = 1
        section = RationalMatrix._from_ints(p0.dim(a.tail), width, num)
        mats[a.name] = proj[a.head] * p0a * section
    return Representation(q, dim, mats)


def minimal_presentation(m: Representation) -> PathMatrix:
    """Minimal projective presentation of a representation.

    The cover is built on a deterministic complement of the radical, the
    syzygy is expressed in the path bases of the cover, and the resulting
    template evaluates to the defining matrix of the determinantal
    semi-invariant attached to ``m``.
    """
    q = m.quiver
    # generators: complement of the radical at each vertex
    gens: List[Tuple[int, List[Fraction]]] = []
    for x in q.vertices:
        arrows_in = sorted(q.arrows_into(x), key=lambda a: a.name)
        rad = (RationalMatrix.block([[m.matrices[a.name] for a in arrows_in]]) if arrows_in
               else RationalMatrix.zero(m.dim[x], 0))
        for idx in column_space_complement(rad)[1]:
            vec = [Fraction(0)] * m.dim[x]
            vec[idx] = Fraction(1)
            gens.append((x, vec))
    p0 = _ProjSum(q, [x for x, _ in gens])
    # pi: P0 -> M on path bases
    pi: Dict[int, RationalMatrix] = {}
    for z in q.vertices:
        cols = []
        for c, path in p0.basis[z]:
            vec = list(gens[c][1])
            for name in path:
                vec = m.matrices[name].apply(vec)
            cols.append(vec)
        pi[z] = (RationalMatrix.from_rows(cols).transpose() if cols
                 else RationalMatrix.zero(m.dim[z], 0))
    # the syzygy as a subrepresentation of P0
    kb: Dict[int, List[List[Fraction]]] = {z: kernel_basis(pi[z]) for z in q.vertices}
    karrow: Dict[str, RationalMatrix] = {}
    for a in q.arrows:
        p0a = p0.arrow_matrix(a.name)
        cols = []
        for vec in kb[a.tail]:
            img = p0a.apply(vec)
            coords = coordinates_in_span(kb[a.head], img)
            assert coords is not None, "syzygy is not arrow-stable"
            cols.append(coords)
        karrow[a.name] = (RationalMatrix.from_rows(cols).transpose() if cols
                          else RationalMatrix.zero(len(kb[a.head]), 0))
    # generators of the syzygy
    rows: List[int] = []
    row_vectors: List[Tuple[int, List[Fraction]]] = []
    for y in q.vertices:
        arrows_in = sorted(q.arrows_into(y), key=lambda a: a.name)
        rad = (RationalMatrix.block([[karrow[a.name] for a in arrows_in]]) if arrows_in
               else RationalMatrix.zero(len(kb[y]), 0))
        for idx in column_space_complement(rad)[1]:
            rows.append(y)
            row_vectors.append((y, kb[y][idx]))
    cols = [x for x, _ in gens]
    entries: List[List[PathCombo]] = []
    for y, vec in row_vectors:
        row_entry: List[PathCombo] = [dict() for _ in cols]
        for pos, coeff in enumerate(vec):
            if coeff:
                c, path = p0.basis[y][pos]
                row_entry[c][path] = row_entry[c].get(path, Fraction(0)) + coeff
        entries.append([{p: v for p, v in e.items() if v} for e in row_entry])
    return PathMatrix(q, rows, cols, entries)
