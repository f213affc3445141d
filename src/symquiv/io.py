"""Textual formats: quiver files, representation files, generator records."""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .errors import ParseError
from .linalg import RationalMatrix
from .presentation import PathMatrix
from .quiver import DimensionVector, Quiver
from .representation import StructuredRepresentation
from .semiinvariant import GeneratorDescriptor, Weight
from .symmetric import ORTHOGONAL, SYMPLECTIC, SymmetricQuiver
from .tame import Pencil


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ParseError("bad integer %r" % tok) from exc


def _parse_ratio(tok: str) -> Tuple[int, int]:
    """A rational token ``a`` or ``a/b`` as ints (numerator, nonzero
    denominator), not reduced."""
    try:
        num, den = map(int, tok.split("/")) if "/" in tok else (int(tok), 1)
    except ValueError as exc:
        raise ParseError("bad rational %r" % tok) from exc
    if den == 0:
        raise ParseError("bad rational %r" % tok)
    return num, den


def parse_rational(tok: str) -> Fraction:
    return Fraction(*_parse_ratio(tok))


def _matrix_entries(toks: List[str]) -> Tuple[List[int], int]:
    """Row-major matrix tokens ``a`` or ``a/b`` as int numerators over one
    positive denominator, the lcm of the token denominators.

    The one reader of matrix files and ``mat`` blocks.  Integer tokens go
    through ``int()`` alone; if it rejects any token (one holding ``/``
    among them), every token goes through ``_parse_ratio``, which reads
    ``p/q`` and raises the error of the first bad token."""
    try:
        return [int(t) for t in toks], 1
    except ValueError:
        pass
    ratios = [_parse_ratio(t) for t in toks]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


# -- quiver files -----------------------------------------------------------------

def parse_quiver(text: str) -> SymmetricQuiver:
    name = "Q"
    vertices: List[int] = []
    arrows: List[Tuple[str, int, int]] = []
    sigma_v: Dict[int, int] = {}
    sigma_a: Dict[str, str] = {}
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "quiver":
                name = parts[1]
            elif key == "vertex":
                vertices.extend(int(p) for p in parts[1:])
            elif key == "arrow":
                arrows.append((parts[1], int(parts[2]), int(parts[3])))
            elif key == "sigma" and parts[1] == "v":
                i, j = int(parts[2]), int(parts[3])
                sigma_v[i] = j
                sigma_v[j] = i
            elif key == "sigma" and parts[1] == "a":
                a, b = parts[2], parts[3]
                sigma_a[a] = b
                sigma_a[b] = a
            else:
                raise ParseError("unknown directive %r" % key)
        except (IndexError, ValueError) as exc:
            raise ParseError("bad line %r" % raw) from exc
    q = Quiver(vertices, arrows, name=name)
    return SymmetricQuiver(q, sigma_v, sigma_a)


def serialize_quiver(sq: SymmetricQuiver) -> str:
    q = sq.base
    lines = ["quiver %s" % q.name]
    lines.append("vertex " + " ".join(str(v) for v in q.vertices))
    for a in sorted(q.arrows, key=lambda a: a.name):
        lines.append("arrow %s %d %d" % (a.name, a.tail, a.head))
    seen = set()
    for v in q.vertices:
        if v in seen:
            continue
        w = sq.sv(v)
        seen.update({v, w})
        lines.append("sigma v %d %d" % (min(v, w), max(v, w)))
    seen_a = set()
    for a in sorted(q.arrows, key=lambda a: a.name):
        if a.name in seen_a:
            continue
        b = sq.sa(a.name)
        seen_a.update({a.name, b})
        lines.append("sigma a %s %s" % (min(a.name, b), max(a.name, b)))
    return "\n".join(lines) + "\n"


# -- representation files -----------------------------------------------------------

def parse_representation(text: str, sq: SymmetricQuiver) -> StructuredRepresentation:
    flavor = None
    dims: Dict[int, int] = {}
    mats: Dict[str, RationalMatrix] = {}
    lines = [l for l in text.splitlines()]
    idx = 0
    quiver_name = None
    while idx < len(lines):
        line = _strip(lines[idx])
        idx += 1
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "rep":
                quiver_name = parts[1]
            elif key == "flavor":
                if parts[1] not in (SYMPLECTIC, ORTHOGONAL):
                    raise ParseError("flavor must be sp or o")
                if flavor is not None:
                    raise ParseError("flavor line repeated")
                flavor = parts[1]
            elif key == "dim":
                for tok in parts[1:]:
                    v, d = tok.split("=")
                    v = int(v)
                    if v not in sq.base.vertices:
                        raise ParseError("dim names vertex %d, which %s lacks"
                                         % (v, sq.base.name))
                    if v in dims:
                        raise ParseError("dim names vertex %d twice" % v)
                    dims[v] = int(d)
            elif key == "mat":
                arrow = parts[1]
                r, c = parts[2].split("x")
                r, c = int(r), int(c)
                toks: List[str] = []
                try:
                    for _ in range(r):
                        row = _strip(lines[idx]).split()
                        idx += 1
                        if len(row) != c:
                            raise ParseError("matrix row needs %d entries" % c)
                        toks.extend(row)
                except (IndexError, ParseError):
                    _matrix_entries(toks)  # a bad token in an earlier row wins
                    raise
                num, den = _matrix_entries(toks)
                if arrow in mats:
                    raise ParseError("mat names arrow %s twice" % arrow)
                mats[arrow] = RationalMatrix._from_ints(r, c, num, den)
            else:
                raise ParseError("unknown directive %r" % key)
        except (IndexError, ValueError) as exc:
            raise ParseError("bad line %r" % line) from exc
    if not dims:
        raise ParseError("representation file has no dim line")
    dim = DimensionVector({v: dims.get(v, 0) for v in sq.base.vertices})
    plus = {n: m for n, m in mats.items() if n in sq.a_plus}
    fixed = {n: m for n, m in mats.items() if n in sq.a_fixed}
    unknown = set(mats) - set(plus) - set(fixed)
    if unknown:
        raise ParseError("matrices for mirror arrows are derived, drop %s"
                         % sorted(unknown))
    return StructuredRepresentation(sq, flavor or SYMPLECTIC, dim, plus, fixed)


def serialize_representation(sr: StructuredRepresentation) -> str:
    sq = sr.sq
    lines = ["rep %s" % sq.base.name, "flavor %s" % sr.flavor]
    lines.append("dim " + " ".join("%d=%d" % (v, sr.dim[v]) for v in sq.base.vertices))
    for name in sorted(list(sr.matrices) + list(sr.fixed_matrices)):
        m = sr.matrices.get(name, sr.fixed_matrices.get(name))
        lines.append("mat %s %dx%d" % (name, m.rows, m.cols))
        for i in range(m.rows):
            lines.append(" ".join(format_rational(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


# -- generator records ----------------------------------------------------------------

def _combo_to_json(combo):
    return sorted([[format_rational(c), list(p)] for p, c in combo.items()])


def _combo_from_json(data):
    return {tuple(p): parse_rational(c) for c, p in data}


def _template_to_json(t: PathMatrix):
    return {"rows": list(t.rows), "cols": list(t.cols),
            "entries": [[_combo_to_json(e) for e in row] for row in t.entries]}


def _template_from_json(data, q: Quiver) -> PathMatrix:
    entries = [[_combo_from_json(e) for e in row] for row in data["entries"]]
    return PathMatrix(q, list(data["rows"]), list(data["cols"]), entries)


def descriptor_to_json(d: GeneratorDescriptor) -> str:
    rec = {
        "kind": d.kind,
        "provenance": d.provenance,
        "weight": {str(k): format_rational(v) for k, v in sorted(d.weight.values.items())
                   if v},
    }
    if d.template is not None:
        rec["template"] = _template_to_json(d.template)
    if d.pencil is not None:
        pen = d.pencil
        rec["pencil"] = {
            "rows": list(pen.rows), "cols": list(pen.cols),
            "phi": [[_combo_to_json(e) for e in row] for row in pen.phi_entries],
            "psi": [[_combo_to_json(e) for e in row] for row in pen.psi_entries],
            "const": [[_combo_to_json(e) for e in row] for row in pen.const_entries],
        }
        if pen.signs:
            rec["pencil"]["signs"] = list(pen.signs)
        rec["index"] = d.index
    return json.dumps(rec, sort_keys=True)


def descriptor_from_json(line: str, sq: SymmetricQuiver) -> GeneratorDescriptor:
    try:
        return _descriptor_from_record(json.loads(line), sq)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ParseError("bad generator record %r" % line[:60]) from exc


def _signs_from_json(signs, rows: int) -> Tuple[int, ...]:
    """The row signs of a pencil record: one entry per row, each 1 or -1."""
    if not (isinstance(signs, list) and len(signs) == rows
            and all(type(s) is int and s in (1, -1) for s in signs)):
        raise ParseError("pencil signs need one entry, 1 or -1, per row")
    return tuple(signs)


def _descriptor_from_record(rec, sq: SymmetricQuiver) -> GeneratorDescriptor:
    weight = Weight({int(k): parse_rational(v) for k, v in rec["weight"].items()})
    template = None
    pencil = None
    if "template" in rec:
        template = _template_from_json(rec["template"], sq.base)
    if "pencil" in rec:
        pd = rec["pencil"]
        rows = list(pd["rows"])
        pencil = Pencil(sq.base, rows, list(pd["cols"]),
                        [[_combo_from_json(e) for e in row] for row in pd["phi"]],
                        [[_combo_from_json(e) for e in row] for row in pd["psi"]],
                        [[_combo_from_json(e) for e in row] for row in pd["const"]],
                        _signs_from_json(pd["signs"], len(rows)) if "signs" in pd else ())
    kind, index = rec["kind"], rec.get("index")
    if kind in ("det", "pf"):
        if template is None:
            raise ParseError("a %s record needs a template" % kind)
    elif kind in ("pencil-det", "pencil-pf"):
        if pencil is None or type(index) is not int:
            raise ParseError("a %s record needs a pencil and an integer index" % kind)
    else:
        raise ParseError("unknown generator kind %r" % (kind,))
    return GeneratorDescriptor(kind, weight, rec["provenance"],
                               template=template, pencil=pencil, index=index)


# -- small vectors ------------------------------------------------------------------

def parse_dim_vector(text: str, sq: SymmetricQuiver) -> DimensionVector:
    toks = [t for t in text.replace(",", " ").split() if t]
    verts = sq.base.vertices
    if len(toks) != len(verts):
        raise ParseError("expected %d entries for vertices %s" % (len(verts), verts))
    return DimensionVector({v: parse_int(t) for v, t in zip(verts, toks)})


def parse_weight(text: str, sq: SymmetricQuiver) -> Weight:
    toks = [t for t in text.replace(",", " ").split() if t]
    verts = sq.base.vertices
    if len(toks) != len(verts):
        raise ParseError("expected %d entries for vertices %s" % (len(verts), verts))
    return Weight({v: parse_rational(t) for v, t in zip(verts, toks)})


def format_dim_vector(d: DimensionVector, sq: SymmetricQuiver) -> str:
    return ",".join(str(d[v]) for v in sq.base.vertices)


def parse_matrix(text: str) -> RationalMatrix:
    rows = [line.split() for line in map(_strip, text.splitlines()) if line]
    # a bad token anywhere is raised before a ragged row
    num, den = _matrix_entries([t for row in rows for t in row])
    if not rows:
        raise ParseError("empty matrix file")
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise ParseError("ragged matrix rows")
    return RationalMatrix._from_ints(len(rows), cols, num, den)
