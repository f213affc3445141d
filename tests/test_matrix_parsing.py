"""Matrix files parse to int numerators over one denominator: the values
and the errors agree with a parse that builds one Fraction per token."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from symquiv import io as sqio
from symquiv.errors import ParseError
from symquiv.linalg import RationalMatrix

FIXTURES = Path(__file__).parent / "fixtures"
GOOD = ["0", "7", "-3", "+4", "1/2", "-1/2", "1/-2", "-1/-2", "6/4", "0/5", "0/-3",
        "12/-18", "1_0/3", "-0"]
BAD = ["1/0", "-3/0", "0/0", "1/2/3", "x", "1.5", "/2", "2/", "1/x", "--1"]


def _oracle_rational(tok):
    """One Fraction per token, as matrix files were parsed before."""
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational %r" % tok) from exc


def _oracle_matrix(text):
    rows = []
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if line:
            rows.append([_oracle_rational(t) for t in line.split()])
    if not rows:
        raise ParseError("empty matrix file")
    if len(set(len(r) for r in rows)) != 1:
        raise ParseError("ragged matrix rows")
    return RationalMatrix.from_rows(rows)


def _outcome(parse, text):
    try:
        m = parse(text)
    except ParseError as exc:
        return ("error", str(exc))
    return ("matrix", m.rows, m.cols, m.num, m.den)


def _random_files(rng, count):
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        lines = []
        for _ in range(rows):
            toks = [rng.choice(GOOD) if rng.random() < 0.6 else
                    "%d/%d" % (rng.randint(-30, 30), rng.choice([-7, -4, -1, 1, 2, 3, 9, 12]))
                    for _ in range(cols)]
            if rng.random() < 0.05:
                toks[rng.randrange(cols)] = rng.choice(BAD)
            if rng.random() < 0.05:
                toks.append("1")
            lines.append(" ".join(toks) + (" # note" if rng.random() < 0.2 else ""))
            if rng.random() < 0.1:
                lines.append("")
        yield "\n".join(lines) + "\n"


def test_parse_matrix_matches_fraction_per_token_parse():
    rng = random.Random(808)
    outcomes = set()
    for text in _random_files(rng, 400):
        got = _outcome(sqio.parse_matrix, text)
        assert got == _outcome(_oracle_matrix, text), text
        outcomes.add(got[0])
    assert outcomes == {"error", "matrix"}


@pytest.mark.parametrize("tok", BAD)
def test_bad_tokens_give_the_same_error(tok):
    text = "1 %s\n2 3\n" % tok
    with pytest.raises(ParseError) as got:
        sqio.parse_matrix(text)
    with pytest.raises(ParseError) as want:
        _oracle_matrix(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("tok", GOOD)
def test_parse_rational_reads_every_good_token(tok):
    assert sqio.parse_rational(tok) == _oracle_rational(tok)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "1 2\n3\n"])
def test_shape_errors_are_unchanged(text):
    assert _outcome(sqio.parse_matrix, text) == _outcome(_oracle_matrix, text)


def _rep_text(entries_a, entries_b):
    return ("rep A201_0_0\nflavor sp\ndim 1=2 2=2\n"
            "mat a 2x2\n%s\n%s\nmat b 2x2\n%s\n%s\n"
            % (" ".join(entries_a[:2]), " ".join(entries_a[2:]),
               " ".join(entries_b[:2]), " ".join(entries_b[2:])))


def test_representation_matrices_match_fraction_per_token_parse():
    sq = sqio.parse_quiver((FIXTURES / "a201_00.qv").read_text())
    rng = random.Random(809)
    for _ in range(100):
        # sp fixed matrices are symmetric: the off-diagonal pair is one value
        # written as two different tokens
        mats = []
        for _ in range(2):
            p, q = rng.randint(-20, 20), rng.choice([1, 2, 3, 6, -4])
            diag = [rng.choice(GOOD), "%d/%d" % (rng.randint(-9, 9), rng.choice([5, -5, 10]))]
            mats.append([diag[0], "%d/%d" % (p, q), "%d/%d" % (-2 * p, -2 * q), diag[1]])
        sr = sqio.parse_representation(_rep_text(*mats), sq)
        for name, toks in zip(("a", "b"), mats):
            want = RationalMatrix(2, 2, [_oracle_rational(t) for t in toks])
            got = sr.fixed_matrices[name]
            assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("tok", BAD)
def test_representation_bad_tokens_give_the_same_error(tok):
    sq = sqio.parse_quiver((FIXTURES / "a201_00.qv").read_text())
    text = _rep_text(["1", "2", "2", tok], ["1", "0", "0", "1"])
    with pytest.raises(ParseError) as got:
        sqio.parse_representation(text, sq)
    with pytest.raises(ParseError) as want:
        _oracle_rational(tok)
    assert str(got.value) == str(want.value)


# -- all-integer files: the int() path against the per-token oracle -------------------

INT_GOOD = [t for t in GOOD if "/" not in t] + ["1_000", "007", "-98765432109876543210"]
INT_BAD = ["x", "1.5", "--1", "1e3", "0x10", "1__0"]


def _int_rows(rng, rows, cols):
    """Row lines of int-like tokens; now and then a bad token, a row one
    entry long or short, a blank line or a comment holding '/'."""
    lines = []
    for _ in range(rows):
        toks = [rng.choice(INT_GOOD) if rng.random() < 0.5 else str(rng.randint(-50, 50))
                for _ in range(cols)]
        if rng.random() < 0.06:
            toks[rng.randrange(cols)] = rng.choice(INT_BAD)
        if rng.random() < 0.05:
            toks.append("1")
        elif rng.random() < 0.05:
            toks.pop()
        lines.append(" ".join(toks) + (" # scale 1/2" if rng.random() < 0.3 else ""))
        if rng.random() < 0.05:
            lines.append("# 3/4 of the rows below")
    return lines


def test_integer_matrix_files_match_fraction_per_token_parse():
    rng = random.Random(810)
    kinds = set()
    for _ in range(400):
        lines = _int_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.1:
            lines.insert(rng.randrange(len(lines) + 1), "")
        text = "\n".join(lines) + "\n"
        got = _outcome(sqio.parse_matrix, text)
        assert got == _outcome(_oracle_matrix, text), text
        kinds.add(got[0] if got[0] == "matrix" else " ".join(got[1].split()[:2]))
    assert {"matrix", "bad rational", "ragged matrix"} <= kinds


def _oracle_mat_block(header, lines, r, c):
    """A ``mat`` block read row by row, as before: each row's length, then
    its tokens; a file that ends inside the block is a bad header line."""
    vals = []
    for k in range(r):
        if k >= len(lines):
            raise ParseError("bad line %r" % header)
        toks = lines[k].split("#")[0].split()
        if len(toks) != c:
            raise ParseError("matrix row needs %d entries" % c)
        vals.extend(_oracle_rational(t) for t in toks)
    return RationalMatrix(r, c, vals)


def _block_outcome(parse):
    try:
        m = parse()
    except ParseError as exc:
        return ("error", str(exc))
    return ("matrix", m.num, m.den)


def test_integer_mat_blocks_match_fraction_per_token_parse():
    # a1 is a positive arrow of A4: any r x c matrix over dims 1=c 2=r 3=r 4=c
    sq = sqio.parse_quiver((FIXTURES / "a4.qv").read_text())
    rng = random.Random(811)
    kinds = set()
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        lines = _int_rows(rng, r, c)[:r]
        if rng.random() < 0.05:
            lines = lines[:rng.randrange(r)]     # the file ends inside the block
        header = "mat a1 %dx%d" % (r, c)
        text = ("rep A4\nflavor sp\ndim 1=%d 2=%d 3=%d 4=%d\n%s\n%s"
                % (c, r, r, c, header, "".join(line + "\n" for line in lines)))
        got = _block_outcome(lambda: sqio.parse_representation(text, sq).matrices["a1"])
        assert got == _block_outcome(lambda: _oracle_mat_block(header, lines, r, c)), text
        kinds.add(got[0] if got[0] == "matrix" else " ".join(got[1].split()[:2]))
    assert {"matrix", "bad rational", "matrix row", "bad line"} <= kinds


@pytest.mark.parametrize("rows, message", [
    (["1 x", "2"], "bad rational 'x'"),             # a bad token before a short row
    (["1", "2 x"], "matrix row needs 2 entries"),   # a short row before a bad token
    (["1 2/3 x", "4 5"], "matrix row needs 2 entries"),
    (["1 2"], "bad line 'mat a1 2x2'"),             # the file ends inside the block
    (["--1 2"], "bad rational '--1'"),              # ...after a bad token
])
def test_mat_block_errors_come_in_row_order(rows, message):
    sq = sqio.parse_quiver((FIXTURES / "a4.qv").read_text())
    text = "rep A4\nflavor sp\ndim 1=2 2=2 3=2 4=2\nmat a1 2x2\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError) as got:
        sqio.parse_representation(text, sq)
    assert str(got.value) == message
