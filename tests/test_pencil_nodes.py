"""Pencil polynomials on integer nodes against the per-node Fraction loop."""

from fractions import Fraction
from pathlib import Path

import pytest

from symquiv import io as sqio
from symquiv.cli import main
from symquiv.errors import NotSkewSymmetric, OddDimension
from symquiv.linalg import RationalMatrix, determinant, interpolate_polynomial, pfaffian
from symquiv.presentation import evaluate_template
from symquiv.quiver import DimensionVector, null_root
from symquiv.representation import (StructuredRepresentation, act,
                                    random_group_element, random_structured)
from symquiv.semiinvariant import generators_tame, pencil_coefficients
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC, classify_symmetric

FIX = Path(__file__).parent / "fixtures"

# entry (i, j) and entry (j, i) get the same factor, so symmetric and skew
# fixed-arrow matrices stay so
FACTORS = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3), Fraction(-1, 4)]


def pencil_coefficients_oracle(pencil, w, kind):
    """Test oracle: every node M(0) + t (M(1) - M(0)) as a Fraction matrix,
    solved by the public determinant or pfaffian."""
    full = w.full()
    m0 = evaluate_template(pencil.combine(Fraction(0), Fraction(1)), full)
    m1 = evaluate_template(pencil.combine(Fraction(1), Fraction(1)), full)
    step = [b - a for a, b in zip(m0.data, m1.data)]
    degree = m0.rows if kind == "det" else m0.rows // 2
    kernel = determinant if kind == "det" else pfaffian
    pts = [(Fraction(t), kernel(RationalMatrix(m0.rows, m0.cols,
                                               [a + t * s for a, s in zip(m0.data, step)])))
           for t in range(degree + 1)]
    return {i: c for i, c in enumerate(interpolate_polynomial(pts)) if c}


def _scaled(m):
    return RationalMatrix(m.rows, m.cols, [
        m[i, j] * FACTORS[(min(i, j) * 3 + max(i, j)) % len(FACTORS)]
        for i in range(m.rows) for j in range(m.cols)])


def _fractional_rep(sq, flavor, d, seed):
    """A seeded structured representation with its entries scaled by
    non-integer rationals, written to .rep text and parsed back."""
    w = random_structured(sq, flavor, d, seed=seed)
    scaled = StructuredRepresentation(
        sq, flavor, d, {n: _scaled(m) for n, m in w.matrices.items()},
        {n: _scaled(m) for n, m in w.fixed_matrices.items()})
    text = sqio.serialize_representation(scaled)
    assert "/" in text
    return sqio.parse_representation(text, sq)


def _has_fractions(w):
    return any(x.denominator > 1 for m in list(w.matrices.values())
               + list(w.fixed_matrices.values()) for x in m.data)


def _tame_pencils():
    for path in sorted(FIX.glob("*.qv")):
        sq = sqio.parse_quiver(path.read_text())
        if classify_symmetric(sq).tag == "FiniteA":
            continue
        d = null_root(sq.base).scale(2)
        for flavor in (SYMPLECTIC, ORTHOGONAL):
            gens = [g for g in generators_tame(sq, d, flavor) if g.kind.startswith("pencil-")]
            if gens:
                yield path.name, sq, d, flavor, gens[0].pencil, gens[0].kind[len("pencil-"):]


def test_integer_nodes_match_fraction_nodes():
    kinds = set()
    for name, sq, d, flavor, pen, kind in _tame_pencils():
        kinds.add(kind)
        for seed in (1, 2):
            parsed = _fractional_rep(sq, flavor, d, seed)
            moved = act(random_group_element(sq, flavor, d, seed=seed + 10), parsed)
            for w in (parsed, moved):
                assert _has_fractions(w), name
                expected = pencil_coefficients_oracle(pen, w, kind)
                assert expected, (name, flavor)
                assert pencil_coefficients(pen, w, kind) == expected, (name, flavor, seed)
    assert kinds == {"det", "pf"}


def _kronecker_pf_pencil():
    sq = sqio.parse_quiver((FIX / "a201_00.qv").read_text())
    gens = generators_tame(sq, DimensionVector({1: 4, 2: 4}), ORTHOGONAL)
    assert gens and all(g.kind == "pencil-pf" for g in gens)
    return sq, gens


@pytest.mark.parametrize("flavor, n, error", [(ORTHOGONAL, 3, OddDimension),
                                              (SYMPLECTIC, 4, NotSkewSymmetric)],
                         ids=["odd", "not-skew"])
def test_pf_pencil_preconditions(tmp_path, flavor, n, error):
    """A pf pencil evaluated where it is odd or not skew raises as the
    per-node loop does, and the CLI exits 4."""
    sq, gens = _kronecker_pf_pencil()
    w = _fractional_rep(sq, flavor, DimensionVector({1: n, 2: n}), seed=5)
    with pytest.raises(error):
        pencil_coefficients_oracle(gens[0].pencil, w, "pf")
    with pytest.raises(error):
        pencil_coefficients(gens[0].pencil, w, "pf")
    rep = tmp_path / "w.rep"
    rep.write_text(sqio.serialize_representation(w))
    gen_file = tmp_path / "g.jsonl"
    gen_file.write_text("".join(sqio.descriptor_to_json(g) + "\n" for g in gens))
    code = main(["evaluate", "-q", str(FIX / "a201_00.qv"), "--rep", str(rep),
                 "--gen-file", str(gen_file)])
    assert code == error.exit_code == 4

