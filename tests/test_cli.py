import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from symquiv import cli
from symquiv import io as sqio
from symquiv import semiinvariant
from symquiv.cli import main
from symquiv.errors import NotSquare
from symquiv.quiver import DimensionVector
from symquiv.representation import random_structured
from symquiv.symmetric import admissible_sinks, reflect_pair_quiver

FIX = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_quiver_roundtrip_byte_exact():
    for path in sorted(FIX.glob("*.qv")):
        text = path.read_text()
        sq = sqio.parse_quiver(text)
        assert sqio.serialize_quiver(sq) == text


def test_rep_roundtrip_byte_exact():
    for path in sorted(FIX.glob("*.rep")):
        text = path.read_text()
        qname = text.splitlines()[0].split()[1]
        qfile = {"A201_0_0": "a201_00.qv", "D10_3": "d10_3.qv"}[qname]
        sq = sqio.parse_quiver((FIX / qfile).read_text())
        sr = sqio.parse_representation(text, sq)
        assert sqio.serialize_representation(sr) == text


def test_classify_command():
    code, out = run_cli("classify", "-q", str(FIX / "a02_22.qv"))
    assert code == 0
    assert out.strip() == "A02 k=2 l=2"
    code, out = run_cli("classify", "-q", str(FIX / "a4.qv"))
    assert out.strip() == "FiniteA(4)"


def test_euler_command():
    code, out = run_cli("euler", "-q", str(FIX / "a4.qv"),
                        "--alpha", "1,1,0,0", "--beta", "0,1,1,0")
    assert code == 0
    assert out.strip() == "-1"


def test_lr_command():
    code, out = run_cli("lr", "--lambda", "1", "--mu", "1,1", "--nu", "2,1")
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("lam", ["2,0,1", "0,1"])
def test_lr_rejects_a_zero_before_a_part(capsys, lam):
    """Zeros may only trail: 2,0,1 is not read as 2,1, nor 0,1 as 1."""
    code, out = run_cli("lr", "--lambda", lam, "--mu", "1", "--nu", "3,1")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: partition parts must be weakly decreasing\n"


@pytest.mark.parametrize("flavor", ["o", "sp"])
def test_negative_dimension_exits_2(capsys, flavor):
    """A negative entry of a finite-type dimension vector is a validation
    error in both flavors, not a traceback (o) or a generator list (sp)."""
    code, out = run_cli("generators", "-q", str(FIX / "a4.qv"), "--dim=-1,2,2,-1",
                        "--flavor", flavor)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: beta must have nonnegative entries\n"


def test_pfaffian_command(tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_text("0 5\n-5 0\n")
    code, out = run_cli("pfaffian", "--matrix", str(mfile))
    assert code == 0
    assert out.strip() == "5"
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n0 1\n")
    code, _ = run_cli("pfaffian", "--matrix", str(bad))
    assert code == 4


def test_decompose_and_arcs_commands():
    code, out = run_cli("decompose", "-q", str(FIX / "d10_3.qv"),
                        "--dim", "2,2,4,2,2,4", "--mode", "sp")
    assert code == 0
    assert "x2" in out or "x1" in out
    code, out = run_cli("arcs", "-q", str(FIX / "d10_3.qv"),
                        "--dim", "2,2,4,2,2,4")
    assert code == 0
    assert out.startswith("p 2")
    assert "polygon delta" in out


def test_generators_deterministic_and_invariant():
    args = ("generators", "-q", str(FIX / "a201_00.qv"), "--dim", "2,2",
            "--flavor", "sp", "--json-lines", "--check-invariance", "3",
            "--seed", "11")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 3


@pytest.mark.parametrize("text", [
    "rep A201_0_0\nflavor sp\ndim 7=2 8=2\n",           # vertices the quiver lacks
    "rep A201_0_0\nflavor sp\ndim 1=2 2=2 1=0\n",       # a vertex given twice
    "rep A201_0_0\nflavor sp\ndim 1=2\ndim 2=2 1=2\n",
    "rep A201_0_0\nflavor sp\n",                         # no dim line
    "",
], ids=["unknown-vertex", "repeated-vertex", "repeated-across-lines", "no-dim", "empty"])
def test_evaluate_rejects_a_rep_file_that_would_be_the_zero_representation(
        text, tmp_path, capsys):
    code, gens = run_cli("generators", "-q", str(FIX / "a201_00.qv"),
                         "--dim", "2,2", "--flavor", "sp", "--json-lines")
    assert code == 0
    gen_file, rep_file = tmp_path / "gens.jsonl", tmp_path / "w.rep"
    gen_file.write_text(gens)
    rep_file.write_text(text)
    capsys.readouterr()
    code, out = run_cli("evaluate", "-q", str(FIX / "a201_00.qv"),
                        "--rep", str(rep_file), "--gen-file", str(gen_file))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "dim" in err


@pytest.mark.parametrize("text, message", [
    ("rep A201_0_0\nflavor sp\ndim 1=2 2=2\nmat a 2x2\n1 0\n0 1\nmat a 2x2\n2 0\n0 2\n",
     "mat names arrow a twice"),
    ("rep A201_0_0\nflavor sp\nflavor o\ndim 1=2 2=2\n", "flavor line repeated"),
    ("rep A201_0_0\nflavor o\ndim 1=2 2=2\nflavor o\n", "flavor line repeated"),
], ids=["repeated-mat", "repeated-flavor", "same-flavor-again"])
def test_evaluate_rejects_a_repeated_mat_or_flavor_line(text, message, tmp_path, capsys):
    code, gens = run_cli("generators", "-q", str(FIX / "a201_00.qv"),
                         "--dim", "2,2", "--flavor", "sp", "--json-lines")
    assert code == 0
    gen_file, rep_file = tmp_path / "gens.jsonl", tmp_path / "w.rep"
    gen_file.write_text(gens)
    rep_file.write_text(text)
    capsys.readouterr()
    code, out = run_cli("evaluate", "-q", str(FIX / "a201_00.qv"),
                        "--rep", str(rep_file), "--gen-file", str(gen_file))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def test_generators_and_evaluate_pipeline(tmp_path):
    code, gen_out = run_cli("generators", "-q", str(FIX / "a201_00.qv"),
                            "--dim", "2,2", "--flavor", "sp", "--json-lines")
    assert code == 0
    gen_file = tmp_path / "gens.jsonl"
    gen_file.write_text(gen_out)
    code, out = run_cli("evaluate", "-q", str(FIX / "a201_00.qv"),
                        "--rep", str(FIX / "a201_00_p2.rep"),
                        "--gen-file", str(gen_file))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    values = {l.split()[0]: l.split()[1] for l in lines}
    # the extreme pencil coefficients are the two fixed-arrow determinants
    assert {values["pencil[0]"], values["pencil[2]"]} == {"-22", "-113"}


def test_oracle_dim_command():
    code, out = run_cli("oracle-dim", "-q", str(FIX / "a201_00.qv"),
                        "--dim", "3,3", "--flavor", "sp", "--weight", "1,-1")
    assert code == 0
    assert out.strip() == "4"


def test_reflect_command():
    code, out = run_cli("reflect", "-q", str(FIX / "a4.qv"), "--at", "4",
                        "--dim", "1,2,2,1")
    assert code == 0
    assert "dim " in out


def test_exit_codes():
    code, _ = run_cli("classify", "-q", "/nonexistent/file.qv")
    assert code == 2
    # unsupported symmetric type: triple arrow
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".qv", delete=False) as fh:
        fh.write("quiver W\nvertex 1 2\narrow a 1 2\narrow b 1 2\narrow c 1 2\n"
                 "sigma v 1 2\nsigma a a a\nsigma a b b\nsigma a c c\n")
        path = fh.name
    code, _ = run_cli("classify", "-q", path)
    os.unlink(path)
    assert code == 3


def test_console_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(FIX.parent.parent / "src"), env.get("PYTHONPATH")) if p)
    code = subprocess.run([sys.executable, "-m", "symquiv.cli", "lr",
                           "--lambda", "1", "--mu", "1", "--nu", "2"],
                          capture_output=True, text=True, env=env)
    assert code.returncode == 0
    assert code.stdout.strip() == "1"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.qv"
    bad.write_text("quiver X\nvertex 1 2\narrow a 1\n")
    code, _ = run_cli("classify", "-q", str(bad))
    assert code == 2
    worse = tmp_path / "worse.qv"
    worse.write_text("nonsense line\n")
    code, _ = run_cli("classify", "-q", str(worse))
    assert code == 2


def test_oracle_dim_rejects_unsupported():
    code, _ = run_cli("oracle-dim", "-q", str(FIX / "d10_3.qv"),
                      "--dim", "2,2,4,2,2,4", "--flavor", "sp",
                      "--weight", "1,0,0,-1,0,0")
    assert code == 3


def test_oracle_dim_on_a_larger_a_tilde_quiver():
    """As many as the pencil generators of that weight."""
    code, out = run_cli("oracle-dim", "-q", str(FIX / "a201_22.qv"),
                        "--dim", "2,2,2,2,2,2", "--flavor", "sp",
                        "--weight", "1,0,0,-1,0,0")
    assert (code, out) == (0, "3\n")


@pytest.mark.parametrize("fixture, dim, weight, zeroed", [
    ("a201_22.qv", "0,0,1,0,0,1", "-3,-3,-3,1,1,-3", "0,0,-3,0,0,-3"),
    ("a4.qv", "0,1,1,0", "1/2,0,0,0", "0,0,0,0"),
], ids=["a201_22", "a4"])
def test_oracle_dim_reads_no_weight_where_the_dimension_is_zero(fixture, dim, weight, zeroed):
    answers = [run_cli("oracle-dim", "-q", str(FIX / fixture), "--dim", dim,
                       "--flavor", "sp", "--weight=" + wt) for wt in (weight, zeroed)]
    assert answers == [(0, "1\n")] * 2


A202_2_0 = ("quiver A202_2_0\nvertex 1 2 3 4\narrow a 1 3\narrow b 4 2\narrow u1 1 2\n"
            "arrow u1~ 4 3\nsigma v 1 3\nsigma v 2 4\nsigma a a a\nsigma a b b\n"
            "sigma a u1 u1~\n")


@pytest.mark.parametrize("text, relabelled, dim, weight, relabelled_weight", [
    ((FIX / "a00_2.qv").read_text(),
     "quiver A00_2\nvertex 11 12 13 14\narrow v1 11 12\narrow v1~ 14 13\n"
     "arrow v2 12 13\narrow v2~ 11 14\nsigma v 11 13\nsigma v 12 14\n"
     "sigma a v1 v1~\nsigma a v2 v2~\n",
     "1,1,1,1", "1,0,-1,0", "1,0,-1,0"),
    (A202_2_0,
     "quiver A202_2_0\nvertex 1 2 3 4\narrow a 2 3\narrow b 4 1\narrow u1 2 1\n"
     "arrow u1~ 4 3\nsigma v 1 4\nsigma v 2 3\nsigma a a a\nsigma a b b\n"
     "sigma a u1 u1~\n",
     "2,2,2,2", "1,-1,-1,1", "-1,1,-1,1"),
], ids=["a00_2 ids shifted by 10", "a202(2,0) ids 1 and 2 swapped"])
def test_oracle_dim_ignores_vertex_ids(tmp_path, text, relabelled, dim, weight,
                                       relabelled_weight):
    answers = []
    for name, body, wt in (("canonical", text, weight),
                           ("relabelled", relabelled, relabelled_weight)):
        qfile = tmp_path / (name + ".qv")
        qfile.write_text(body)
        answers.append(run_cli("oracle-dim", "-q", str(qfile), "--dim", dim,
                               "--flavor", "sp", "--weight=" + wt))
    assert answers[0][0] == 0 and answers[0][1].strip().isdigit()
    assert answers[1] == answers[0]


def test_oracle_dim_rejects_a_chain_with_two_sources(tmp_path, capsys):
    """The oracle reads the equioriented chain only; A4 with the sources 2
    and 4 is of finite type but not covered."""
    qfile = tmp_path / "a4_two_sources.qv"
    qfile.write_text("quiver A4s\nvertex 1 2 3 4\narrow a 2 1\narrow b 2 3\narrow c 4 3\n"
                     "sigma v 1 4\nsigma v 2 3\nsigma a a c\nsigma a b b\n")
    assert run_cli("classify", "-q", str(qfile)) == (0, "FiniteA(4)\n")
    code, out = run_cli("oracle-dim", "-q", str(qfile), "--dim", "1,2,2,1",
                        "--flavor", "sp", "--weight", "1,0,0,-1")
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_dim_rejects_negative_dimension(capsys):
    """As generators does; euler and reflect take lattice vectors instead."""
    code, out = run_cli("oracle-dim", "-q", str(FIX / "a4.qv"), "--dim=-1,2,2,-1",
                        "--flavor", "sp", "--weight", "1,0,0,-1")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: beta must have nonnegative entries\n"


_NEGATIVE = "error: beta must have nonnegative entries\n"
_ASYMMETRIC = "error: beta must be sigma-symmetric\n"
_ODD_SP = "error: symplectic dimension at fixed vertex %d must be even\n"


def _malformed_points():
    """(argv, exit code, stderr) of every command that takes a dimension
    vector, at each malformed point."""
    for cmd, extra in (("generators", ["--flavor", "sp"]), ("decompose", []), ("arcs", [])):
        yield [cmd, "-q", "a201_00.qv", "--dim=-1,-1"] + extra, 2, _NEGATIVE
    for qv, dim, weight in (("a201_00.qv", "1,2", "1,-1"), ("a4.qv", "1,2,2,3", "1,0,0,-1")):
        for cmd, extra in (("generators", ["--flavor", "sp"]), ("decompose", []), ("arcs", []),
                           ("oracle-dim", ["--flavor", "sp", "--weight", weight])):
            yield [cmd, "-q", qv, "--dim", dim] + extra, 4, _ASYMMETRIC
    for qv, dim, x in (("a11_02.qv", "1,1,1", 2), ("a5.qv", "1,1,1,1,1", 3)):
        for extra in ([], ["--check-invariance", "1"]):
            yield ["generators", "-q", qv, "--dim", dim, "--flavor", "sp"] + extra, 4, _ODD_SP % x
        yield ["decompose", "-q", qv, "--dim", dim, "--mode", "sp"], 4, _ODD_SP % x


@pytest.mark.parametrize("argv, code, err", [pytest.param(*case, id=" ".join(case[0]))
                                              for case in _malformed_points()])
def test_a_malformed_point_gets_one_answer_from_every_command(capsys, argv, code, err):
    """A negative, asymmetric or odd-symplectic vector gets the same exit
    code and the same single line on stderr from each command."""
    argv = [str(FIX / a) if a.endswith(".qv") else a for a in argv]
    assert run_cli(*argv) == (code, "")
    assert capsys.readouterr().err == err


def test_oracle_dim_answers_0_at_an_odd_symplectic_dimension():
    """There is no sp representation there, so every weight space is 0."""
    assert run_cli("oracle-dim", "-q", str(FIX / "a11_02.qv"), "--dim", "1,1,1",
                   "--flavor", "sp", "--weight", "0,0,0") == (0, "0\n")


@pytest.mark.parametrize("fixture, at, dim", [("a201_22.qv", "4", "2,2,2,2,2,2"),
                                              ("d10_3.qv", "4", "2,2,4,2,2,4")])
def test_generators_on_a_reflected_quiver_without_pencil_exits_3(tmp_path, capsys,
                                                                  fixture, at, dim):
    """No traceback (a201) and no false parse error (d10): the orientation
    written by reflect is unsupported."""
    code, out = run_cli("reflect", "-q", str(FIX / fixture), "--at", at)
    assert code == 0
    qfile = tmp_path / "r.qv"
    qfile.write_text(out)
    code, out = run_cli("generators", "-q", str(qfile), "--dim", dim, "--flavor", "sp")
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: no pencil for this orientation") and err.count("\n") == 1


def test_subcommands_on_randomly_reflected_fixtures_exit_cleanly(tmp_path, capsys):
    """Every subcommand that reads a quiver, on each fixture moved by a seeded
    admissible reflection word, exits 0, 2, 3 or 4: no traceback."""
    rng = random.Random(3)
    codes = set()
    for path in sorted(FIX.glob("*.qv")):
        sq = sqio.parse_quiver(path.read_text())
        for _ in range(rng.randint(1, 3)):
            sinks = admissible_sinks(sq)
            if sinks:
                sq = reflect_pair_quiver(sq, rng.choice(sinks))
        qfile = tmp_path / path.name
        qfile.write_text(sqio.serialize_quiver(sq))
        q = str(qfile)
        dim = ",".join("2" for _ in sq.base.vertices)
        for argv in (("classify", "-q", q),
                     ("euler", "-q", q, "--alpha", dim, "--beta", dim),
                     ("reflect", "-q", q, "--at", str(sq.base.vertices[-1]), "--dim", dim),
                     ("decompose", "-q", q, "--dim", dim, "--mode", "sp"),
                     ("arcs", "-q", q, "--dim", dim),
                     ("generators", "-q", q, "--dim", dim, "--flavor", "sp"),
                     ("generators", "-q", q, "--dim", dim, "--flavor", "o"),
                     ("oracle-dim", "-q", q, "--dim", dim, "--flavor", "o",
                      "--weight", ",".join("0" for _ in sq.base.vertices))):
            code, _ = run_cli(*argv)
            assert code in (0, 2, 3, 4), (path.name, argv[0])
            codes.add(code)
    assert {0, 3} <= codes
    capsys.readouterr()


def test_oracle_dim_rejects_weight_on_fixed_vertex():
    code, _ = run_cli("oracle-dim", "-q", str(FIX / "a5.qv"),
                      "--dim", "2,2,2,2,2", "--flavor", "sp",
                      "--weight", "1,0,1,0,-1")
    assert code == 4


def test_malformed_numbers_exit_2(capsys):
    for argv in (("euler", "-q", str(FIX / "a201_00.qv"), "--alpha", "x,2",
                  "--beta", "1,1"),
                 ("lr", "--mu", "a")):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_pencil_solved_once_per_point(tmp_path, monkeypatch):
    """A pencil of degree d is solved at d+1 nodes once per representation,
    however many of its coefficients are listed."""
    qfile = str(FIX / "a201_00.qv")
    sq = sqio.parse_quiver((FIX / "a201_00.qv").read_text())
    for flavor, n, kernel, degree in (("sp", 3, "_det_int", 3),
                                      ("o", 4, "_pf_int", 2)):
        dim = "%d,%d" % (n, n)
        code, out = run_cli("generators", "-q", qfile, "--dim", dim,
                            "--flavor", flavor, "--json-lines")
        assert code == 0
        gen_file = tmp_path / ("gens_%s.jsonl" % flavor)
        gen_file.write_text(out)
        gens = [sqio.descriptor_from_json(l, sq) for l in out.splitlines()]
        assert len(gens) == degree + 1
        assert all(g.kind.startswith("pencil-") for g in gens)
        rep_file = tmp_path / ("w_%s.rep" % flavor)
        d = DimensionVector({1: n, 2: n})
        rep_file.write_text(sqio.serialize_representation(
            random_structured(sq, flavor, d, seed=8)))
        calls = []
        solve = getattr(semiinvariant, kernel)
        monkeypatch.setattr(semiinvariant, kernel,
                            lambda rows: calls.append(len(rows)) or solve(rows))
        code, out = run_cli("evaluate", "-q", qfile, "--rep", str(rep_file),
                            "--gen-file", str(gen_file))
        assert code == 0 and len(out.splitlines()) == degree + 1
        assert len(calls) == degree + 1
        del calls[:]
        monkeypatch.setattr(cli, "generators_tame", lambda *a: gens)
        code, _ = run_cli("generators", "-q", qfile, "--dim", dim,
                          "--flavor", flavor, "--check-invariance", "2")
        assert code == 0
        assert len(calls) == 3 * (degree + 1)
        monkeypatch.undo()


@pytest.mark.parametrize("qfile,dim,flavor", [
    ("a4.qv", "0,1,1,0", "sp"), ("a4.qv", "0,2,2,0", "o"),
    ("a201_22.qv", "0,0,1,0,0,1", "sp"), ("a201_22.qv", "1,0,2,1,0,2", "o")])
def test_invariance_check_with_a_zero_dimensional_positive_vertex(qfile, dim, flavor):
    """A group element draws nothing for a positive vertex of dimension 0."""
    args = ("generators", "-q", str(FIX / qfile), "--dim", dim, "--flavor", flavor)
    code, plain = run_cli(*args)
    assert code == 0
    assert run_cli(*args, "--check-invariance", "1") == (0, plain)


def test_generators_tame_solves_pencil_twice(monkeypatch):
    """One enumeration solves its pencil at two points: the points of index
    discovery also decide the duplicates."""
    sq = sqio.parse_quiver((FIX / "a201_00.qv").read_text())
    for flavor, n, kernel, degree in (("sp", 5, "_det_int", 5),
                                      ("o", 6, "_pf_int", 3)):
        solves, nodes = [], []
        coefficients = semiinvariant.pencil_coefficients
        kernel_fn = getattr(semiinvariant, kernel)
        monkeypatch.setattr(semiinvariant, "pencil_coefficients",
                            lambda *a: solves.append(a) or coefficients(*a))
        monkeypatch.setattr(semiinvariant, kernel,
                            lambda rows: nodes.append(len(rows)) or kernel_fn(rows))
        gens = semiinvariant.generators_tame(sq, DimensionVector({1: n, 2: n}), flavor)
        assert len(gens) == degree + 1
        assert len(solves) == 2
        assert nodes == [n] * (2 * (degree + 1))
        monkeypatch.undo()


def test_pencil_signs_are_applied_and_checked(tmp_path, capsys):
    """A pencil record's signs give one sign, 1 or -1, per row; anything
    else is a parse error."""
    qfile = str(FIX / "a201_00.qv")
    sq = sqio.parse_quiver((FIX / "a201_00.qv").read_text())
    code, out = run_cli("generators", "-q", qfile, "--dim", "2,2", "--flavor", "o",
                        "--json-lines")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["pencil"]["signs"] == [1]
    rep = tmp_path / "w.rep"
    rep.write_text(sqio.serialize_representation(
        random_structured(sq, "o", DimensionVector({1: 2, 2: 2}), seed=5)))
    gens = tmp_path / "g.jsonl"

    def evaluate(signs):
        rec["pencil"]["signs"] = signs
        gens.write_text(json.dumps(rec) + "\n")
        code, out = run_cli("evaluate", "-q", qfile, "--rep", str(rep),
                            "--gen-file", str(gens))
        return code, out.split()
    code, plus = evaluate([1])
    assert code == 0 and plus[1] != "0"
    code, minus = evaluate([-1])
    assert code == 0 and Fraction(minus[1]) == -Fraction(plus[1])
    capsys.readouterr()
    for signs in ([1, 1], [5], ["a"], [], [True], "1", 1):
        code, out = evaluate(signs)
        assert code == 2 and out == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_pencil_index_must_be_an_int(tmp_path, capsys):
    """A pencil record's index is a JSON integer; true is not one, although
    Python counts bool as int."""
    qfile = str(FIX / "a201_00.qv")
    code, out = run_cli("generators", "-q", qfile, "--dim", "2,2", "--flavor", "sp",
                        "--json-lines")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["kind"] == "pencil-det" and rec["index"] == 0
    gens = tmp_path / "g.jsonl"
    for index, expected in ((0, 0), (True, 2), (1.0, 2), ("1", 2)):
        rec["index"] = index
        gens.write_text(json.dumps(rec) + "\n")
        code, out = run_cli("evaluate", "-q", qfile, "--rep", str(FIX / "a201_00_p2.rep"),
                            "--gen-file", str(gens))
        assert code == expected
        assert (out == "") == (expected == 2)
    err = capsys.readouterr().err
    assert err.count("error: ") == 3


@pytest.mark.parametrize("template", [{"rows": [], "cols": [1], "entries": []},
                                      {"rows": [1], "cols": [], "entries": [[]]}],
                         ids=["no-rows", "no-cols"])
def test_degenerate_template_is_not_square(tmp_path, capsys, template):
    """A template evaluates to (sum of row dims) x (sum of col dims), also
    when it has no rows or no columns: at dimension 2 that is never square."""
    sq = sqio.parse_quiver((FIX / "a4.qv").read_text())
    d = DimensionVector({v: 2 for v in sq.base.vertices})
    rep = tmp_path / "w.rep"
    rep.write_text(sqio.serialize_representation(random_structured(sq, "sp", d, seed=3)))
    gens = tmp_path / "g.jsonl"
    gens.write_text(json.dumps({"kind": "det", "provenance": "degenerate", "weight": {},
                                "template": template}) + "\n")
    code, out = run_cli("evaluate", "-q", str(FIX / "a4.qv"), "--rep", str(rep),
                        "--gen-file", str(gens))
    err = capsys.readouterr().err
    assert code == NotSquare.exit_code
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("path", sorted(FIX.glob("*.qv")), ids=lambda p: p.stem)
def test_reflect_without_a_vector_prints_the_quiver_of_the_dim_reflection(path, capsys):
    sq = sqio.parse_quiver(path.read_text())
    zero = ",".join("0" for _ in sq.base.vertices)
    for x in sq.base.vertices:
        code, out = run_cli("reflect", "-q", str(path), "--at", str(x))
        code_dim, out_dim = run_cli("reflect", "-q", str(path), "--at", str(x), "--dim", zero)
        assert code == code_dim
        if x in admissible_sinks(sq):
            assert code == 0
            assert out == out_dim[:out_dim.index("dim ")]
        else:
            assert code != 0
            assert out == out_dim == ""
            assert capsys.readouterr().err == (
                "error: vertex %r is not an admissible sink\n" % x) * 2


def test_generators_rejects_a_negative_invariance_count(capsys, monkeypatch):
    """A negative k is a usage error, not a skipped check: nothing is drawn."""
    drawn = []
    monkeypatch.setattr(cli, "random_structured", lambda *a, **k: drawn.append(a))
    code, out = run_cli("generators", "-q", str(FIX / "a201_00.qv"), "--dim", "2,2",
                        "--flavor", "sp", "--check-invariance", "-3")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --check-invariance needs a count k >= 0, not -3\n"
    assert drawn == []


def test_reflect_takes_a_dimension_vector_or_a_representation_not_both(capsys):
    args = ("reflect", "-q", str(FIX / "d10_3.qv"), "--at", "4")
    dim, rep = ("--dim", "1,1,2,1,1,2"), ("--rep", str(FIX / "d10_3_h.rep"))
    assert run_cli(*args, *dim)[0] == run_cli(*args, *rep)[0] == 0
    capsys.readouterr()
    assert run_cli(*args, *dim, *rep) == (2, "")
    assert "not allowed with argument" in capsys.readouterr().err
    # an empty --dim or --rep is read, not taken for a missing one
    assert run_cli(*args, "--dim", "") == (2, "")
    assert run_cli(*args, "--rep", "") == (2, "")


def test_commands_on_shared_quivers_do_not_depend_on_their_order(tmp_path, capsys):
    """About 20 commands over the fixture quivers in one process give the
    same exit codes and stdout in order, in reverse order (each quiver and
    its invariants kept from a later command), and from an empty quiver
    cache."""
    def q(name):
        return str(FIX / name)

    gen_files = {}
    for name, dim in (("a201_00", "2,2"), ("d10_3", "1,1,2,1,1,2")):
        code, out = run_cli("generators", "-q", q(name + ".qv"), "--dim", dim,
                            "--flavor", "sp", "--json-lines")
        assert code == 0 and out
        gen_files[name] = tmp_path / (name + ".jsonl")
        gen_files[name].write_text(out)
    d10 = ("-q", q("d10_3.qv"), "--dim", "2,2,4,2,2,4")
    commands = [
        ("classify", "-q", q("a02_22.qv")),
        ("classify", "-q", q("d10_3.qv")),
        ("euler", "-q", q("a4.qv"), "--alpha", "1,1,0,0", "--beta", "0,1,1,0"),
        ("reflect", "-q", q("d10_3.qv"), "--at", "4", "--dim", "1,1,2,1,1,2"),
        ("reflect", "-q", q("d10_3.qv"), "--at", "5", "--rep", q("d10_3_h.rep")),
        ("decompose", *d10, "--mode", "plain"),
        ("decompose", *d10, "--mode", "sp"),
        ("decompose", *d10, "--mode", "o"),
        ("arcs", *d10),
        ("generators", *d10, "--flavor", "sp"),
        ("generators", *d10, "--flavor", "o", "--json-lines"),
        ("generators", "-q", q("d10_3.qv"), "--dim", "1,1,2,1,1,2", "--flavor", "sp",
         "--check-invariance", "1"),
        ("evaluate", "-q", q("d10_3.qv"), "--rep", q("d10_3_h.rep"),
         "--gen-file", str(gen_files["d10_3"])),
        ("generators", "-q", q("a201_00.qv"), "--dim", "2,2", "--flavor", "o",
         "--json-lines", "--check-invariance", "2"),
        ("evaluate", "-q", q("a201_00.qv"), "--rep", q("a201_00_p2.rep"),
         "--gen-file", str(gen_files["a201_00"])),
        ("oracle-dim", "-q", q("a201_00.qv"), "--dim", "3,3", "--flavor", "sp",
         "--weight", "1,-1"),
        ("generators", "-q", q("a201_22.qv"), "--dim", "2,2,2,2,2,2", "--flavor", "o"),
        ("arcs", "-q", q("a02_22.qv"), "--dim", "2,2,2,2"),
        ("generators", "-q", q("a02_22.qv"), "--dim", "2,2,2,2", "--flavor", "o"),
        ("generators", "-q", q("a00_2.qv"), "--dim", "2,2,2,2", "--flavor", "o"),
        ("generators", "-q", q("d01_3.qv"), "--dim", "2,2,4,2,2", "--flavor", "sp"),
        ("generators", "-q", q("a11_02.qv"), "--dim", "1,1,1", "--flavor", "sp"),
    ]

    def run_all(order):
        return {argv: run_cli(*argv) for argv in order}

    cli._parse_quiver_text.cache_clear()
    forward = run_all(commands)
    backward = run_all(commands[::-1])
    cli._parse_quiver_text.cache_clear()
    cold = run_all(commands)
    assert forward == backward == cold
    codes = [code for code, _ in forward.values()]
    assert codes.count(0) >= 20 and 4 in codes
    capsys.readouterr()
