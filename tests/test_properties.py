"""Property tests: malformed input never escapes as anything but a
``SymquivError`` from the parsers, or an exit code in {0, 2, 3, 4} from the
command line.  Derandomized and bounded, so the suite stays deterministic."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from symquiv import families, io as sqio  # noqa: E402
from symquiv.cli import main  # noqa: E402
from symquiv.errors import SymquivError  # noqa: E402

FIX = Path(__file__).parent / "fixtures"
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
SQ = families.a11(2, 2)

# words the parsers know, mixed with arbitrary tokens, so that examples get
# past the first line of each format
WORDS = ["quiver", "vertex", "arrow", "sigma", "v", "a", "rep", "flavor", "sp", "o",
         "dim", "mat", "1x1", "2x2", "0x0", "1=2", "3=0", "1/2", "0/0", "-1", "#", "a1",
         "a2", "b"]
token = st.one_of(st.sampled_from(WORDS), st.integers(-3, 8).map(str),
                  st.text(min_size=1, max_size=4))
line = st.lists(token, min_size=0, max_size=5).map(" ".join)
document = st.one_of(st.text(max_size=200),
                     st.lists(line, max_size=8).map("\n".join))


def _only_symquiv_errors(parse, *args):
    try:
        parse(*args)
    except SymquivError:
        pass


@SETTINGS
@given(document)
def test_parse_quiver_raises_only_symquiv_errors(text):
    _only_symquiv_errors(sqio.parse_quiver, text)


@SETTINGS
@given(document)
def test_parse_representation_raises_only_symquiv_errors(text):
    _only_symquiv_errors(sqio.parse_representation, text, SQ)


@SETTINGS
@given(st.one_of(st.text(max_size=40),
                 st.lists(st.one_of(st.integers(-5, 9).map(str), token),
                          max_size=7).map(",".join)))
def test_parse_dim_vector_raises_only_symquiv_errors(text):
    _only_symquiv_errors(sqio.parse_dim_vector, text, SQ)


json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                       st.sampled_from(["1", "-1/2", "x", "a", "b", "det", "pf",
                                        "pencil-det", "pencil-pf"]))
json_value = st.recursive(json_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["1", "2", "rows", "cols", "entries"]), inner,
                    max_size=3)), max_leaves=8)
record = st.fixed_dictionaries(
    {}, optional={key: json_value for key in
                  ("kind", "provenance", "weight", "template", "pencil", "index")})


@SETTINGS
@given(st.one_of(document, record.map(json.dumps)))
def test_descriptor_from_json_raises_only_symquiv_errors(text):
    _only_symquiv_errors(sqio.descriptor_from_json, text, SQ)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files for the fuzzed command lines: valid ones, garbage, a
    missing path and a directory."""
    root = tmp_path_factory.mktemp("fuzz")
    gens = root / "a201_00.gens"
    sq = sqio.parse_quiver((FIX / "a201_00.qv").read_text())
    from symquiv.semiinvariant import generators_tame
    gens.write_text("".join(sqio.descriptor_to_json(g) + "\n" for g in
                            generators_tame(sq, sqio.parse_dim_vector("2,2", sq), "sp")))
    garbage = root / "garbage"
    garbage.write_bytes(b"\xff\xfe\x00 arrow \x9c\n{not json")
    matrix = root / "skew.mat"
    matrix.write_text("0 1 -2 3\n-1 0 4 1\n2 -4 0 1\n-3 -1 -1 0\n")
    return [str(FIX / "a201_00.qv"), str(FIX / "d10_3.qv"), str(FIX / "a4.qv"),
            str(FIX / "a201_00_p2.rep"), str(FIX / "d10_3_h.rep"), str(gens),
            str(matrix), str(garbage), str(root / "missing"), str(root)]


COMMAND_FLAGS = {
    "classify": ["-q"], "euler": ["-q", "--alpha", "--beta"],
    "reflect": ["-q", "--at", "--dim", "--rep"], "decompose": ["-q", "--dim", "--mode"],
    "arcs": ["-q", "--dim"],
    "generators": ["-q", "--dim", "--flavor", "--json-lines", "--check-invariance", "--seed"],
    "evaluate": ["-q", "--rep", "--gen-file"], "lr": ["--lambda", "--mu", "--nu"],
    "oracle-dim": ["-q", "--dim", "--flavor", "--weight"], "pfaffian": ["--matrix"],
}
ALL_FLAGS = sorted({f for flags in COMMAND_FLAGS.values() for f in flags} | {"--help", "-x"})
small_vector = st.lists(st.integers(-2, 3).map(str), min_size=0, max_size=7).map(",".join)


@SETTINGS
@given(st.data())
def test_fuzzed_command_lines_exit_cleanly(files, data):
    value = st.one_of(st.sampled_from(files), small_vector,
                      st.sampled_from(["sp", "o", "plain", "1/2", "x", "-1", ""]),
                      st.integers(-2, 3).map(str), st.text(max_size=6))
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS) + ["bogus"]))
    argv = [command]
    for flag in COMMAND_FLAGS.get(command, []):
        if data.draw(st.integers(0, 5)):        # most flags of the command are given
            argv += [flag, data.draw(value)]
    for _ in range(data.draw(st.integers(0, 2))):
        argv.append(data.draw(st.sampled_from(ALL_FLAGS)))
        if data.draw(st.booleans()):
            argv.append(data.draw(value))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv


A4 = sqio.parse_quiver((FIX / "a4.qv").read_text())
a4_vertex = st.one_of(st.sampled_from(A4.base.vertices), st.integers(-1, 6),
                      st.sampled_from(["1", None]))
a4_path = st.lists(st.sampled_from([a.name for a in A4.base.arrows] + ["b"]), max_size=3)
a4_combo = st.lists(st.tuples(st.sampled_from(["1", "-1", "2/3", "0", "x", 3]),
                              a4_path).map(list), max_size=3)
template_record = st.fixed_dictionaries({
    "kind": st.sampled_from(["det", "pf"]), "provenance": st.just("fuzz"),
    "weight": st.just({}),
    "template": st.fixed_dictionaries({
        "rows": st.lists(a4_vertex, max_size=3), "cols": st.lists(a4_vertex, max_size=3),
        "entries": st.lists(st.lists(a4_combo, max_size=3), max_size=3)})})


@pytest.fixture(scope="module")
def a4_point(tmp_path_factory):
    """A quiver file and a representation at dimension 2 on every vertex."""
    from symquiv.quiver import DimensionVector
    from symquiv.representation import random_structured
    root = tmp_path_factory.mktemp("templates")
    rep = root / "a4.rep"
    d = DimensionVector({v: 2 for v in A4.base.vertices})
    rep.write_text(sqio.serialize_representation(random_structured(A4, "sp", d, seed=3)))
    return str(FIX / "a4.qv"), str(rep), root / "gens.jsonl"


@SETTINGS
@given(st.lists(template_record, min_size=1, max_size=3))
def test_fuzzed_template_records_evaluate_cleanly(a4_point, records):
    quiver, rep, gens = a4_point
    gens.write_text("".join(json.dumps(r) + "\n" for r in records))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["evaluate", "-q", quiver, "--rep", rep, "--gen-file", str(gens)])
    assert code in (0, 2, 3, 4), records
