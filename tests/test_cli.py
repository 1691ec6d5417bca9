"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from conftest import table_text
from hypothesis import given, settings
from hypothesis import strategies as st

from twostep.algebra import NVARS
from twostep.board import puzzle_to_json
from twostep.cli import main
from twostep.mutation import enumerate_flawed, scab_positions
from twostep.search import enumerate_puzzles
from twostep.strings import all_strings, parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_product_worked_example(capsys):
    code, out, _ = run(capsys, "product", "--u", "01201", "--v", "10102")
    assert code == 0
    assert out.splitlines() == [
        "10201: 1*y1*y3 - 1*y1*y4 - 1*y3*y4 + 1*y4^2",
        "10210: -1*y1 - 1*y3 + 1*y4 + 1*y5",
        "11200: 1",
        "12001: -1*y1 + 1*y4",
        "12010: 1",
    ]


def test_product_json(capsys):
    code, out, _ = run(
        capsys, "product", "--u", "01201", "--v", "10102", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["12001"] == "-1*y1 + 1*y4"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["product", "--u", "012", "--v", "122"], "u and v have different contents",
            id="product",
        ),
        pytest.param(
            ["puzzles", "--u", "012", "--v", "021", "--w", "122"],
            "u, v, w have different contents",
            id="puzzles",
        ),
    ],
)
def test_content_mismatch_is_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "flags, wrong",
    [
        pytest.param([], None, id="none"),
        pytest.param(["--a", "1"], None, id="a"),
        pytest.param(["--a", "1", "--b", "2", "--n", "2"], None, id="all"),
        pytest.param(["--b", "5", "--n", "9"], "--b 5 --n 9", id="b-n-wrong"),
        pytest.param(["--a", "2"], "--a 2", id="a-wrong"),
        pytest.param(["--a", "1", "--n", "3"], "--n 3", id="n-wrong"),
    ],
)
def test_product_content_flags(capsys, flags, wrong):
    # every given flag must match the strings' content (a, b, n) = (1, 2, 2)
    code, out, err = run(capsys, "product", *flags, "--u", "01", "--v", "10")
    if wrong is None:
        assert (code, out, err) == (0, "10: 1\n", "")
    else:
        assert code == 2 and out == ""
        assert err == f"input error: strings have content (a, b, n) = (1, 2, 2), not {wrong}\n"


def test_product_bad_string_is_input_error(capsys):
    code, _, _ = run(capsys, "product", "--u", "01x", "--v", "012")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["product", "--u", "", "--v", ""], id="product"),
        pytest.param(["puzzles", "--u", "", "--v", "", "--w", ""], id="puzzles"),
    ],
)
def test_empty_string_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "input error: empty 012-string\n"


# one letter more than the variables y1 .. y64
LONG_U = "1" + "0" * (NVARS - 1) + "2"
LONG_W = "2" + "0" * NVARS


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["product", "--u", LONG_U, "--v", LONG_U], id="product"),
        pytest.param(["puzzles", "--u", LONG_W, "--v", LONG_W, "--w", LONG_W], id="puzzles"),
        pytest.param(
            ["quantum", "--m", "1", "--n", str(NVARS + 1), "--lambda", "1", "--mu", "1"],
            id="quantum",
        ),
    ],
)
def test_past_the_variables_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ")
    assert err.endswith(f"the variables are y1 .. y{NVARS}\n")


def test_puzzles_output(capsys):
    code, out, _ = run(capsys, "puzzles", "--u", "01201", "--v", "10102", "--w", "10210")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 2"
    assert any("weight" in l for l in lines[1:])


def test_puzzles_svg_output(capsys, tmp_path):
    out_dir = tmp_path / "svg"
    code, out, _ = run(
        capsys,
        "puzzles",
        "--u", "120", "--v", "120", "--w", "120",
        "--render", "svg", "--out", str(out_dir),
    )
    assert code == 0
    files = list(out_dir.glob("puzzle_*.svg"))
    assert len(files) == 1
    assert "<svg" in files[0].read_text()


def test_puzzles_out_is_a_file_is_input_error(capsys, tmp_path):
    out_file = tmp_path / "taken"
    out_file.write_text("")
    code, out, err = run(
        capsys,
        "puzzles",
        "--u", "120", "--v", "120", "--w", "120",
        "--render", "svg", "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot write to --out")
    assert "Traceback" not in err


def test_puzzles_unwritable_file_is_input_error(capsys, tmp_path):
    out_dir = tmp_path / "txt"
    (out_dir / "puzzle_000.txt").mkdir(parents=True)
    code, out, err = run(
        capsys,
        "puzzles",
        "--u", "120", "--v", "120", "--w", "120",
        "--out", str(out_dir),
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: cannot write to --out")


def scabbed_puzzle():
    for u, v, w in itertools.product(all_strings(1, 2, 4), repeat=3):
        for P in enumerate_puzzles(u, v, w):
            pos = scab_positions(P)
            if pos:
                return P, pos[0]
    raise AssertionError("no scabbed puzzle found")


def test_mutate_involution(capsys, tmp_path):
    P, (x, yy) = scabbed_puzzle()
    path = tmp_path / "puzzle.json"
    path.write_text(puzzle_to_json(P))
    code, out, _ = run(
        capsys, "mutate", "--puzzle", str(path), "--flaw", f"scab:{x},{yy}",
        "--steps", "2",
    )
    assert code == 0
    step1, step2 = out.splitlines()
    back = json.loads(step2)
    assert back["flaw"] == {"type": "scab", "anchor": [x, yy]}


def test_mutate_component_dot(capsys, tmp_path):
    P, (x, yy) = scabbed_puzzle()
    path = tmp_path / "puzzle.json"
    path.write_text(puzzle_to_json(P))
    code, out, _ = run(
        capsys, "mutate", "--puzzle", str(path), "--flaw", f"scab:{x},{yy}",
        "--component", "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out


def test_mutate_bad_flaw_is_semantic_error(capsys, tmp_path):
    P, _ = scabbed_puzzle()
    path = tmp_path / "puzzle.json"
    path.write_text(puzzle_to_json(P))
    bad = next(
        (x, yy)
        for x in range(P.n)
        for yy in range(x, P.n - 1)
        if (x, yy) not in scab_positions(P)
    )
    code, _, err = run(
        capsys, "mutate", "--puzzle", str(path), "--flaw", f"scab:{bad[0]},{bad[1]}"
    )
    assert code == 3
    assert "semantic error" in err


def test_mutate_bad_flaw_grammar_is_input_error(capsys, tmp_path):
    P, _ = scabbed_puzzle()
    path = tmp_path / "puzzle.json"
    path.write_text(puzzle_to_json(P))
    code, _, _ = run(capsys, "mutate", "--puzzle", str(path), "--flaw", "scab:zz")
    assert code == 2


@pytest.fixture(scope="module")
def scab_file(tmp_path_factory):
    """A puzzle file with a scab, and the flaw spec marking that scab."""
    P, (x, yy) = scabbed_puzzle()
    path = tmp_path_factory.mktemp("mutate") / "puzzle.json"
    path.write_text(puzzle_to_json(P))
    return str(path), f"scab:{x},{yy}"


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["--flaw", "scab:9,9"], 3, id="scab-off-board"),
        # the bottom row has no down-cell below it
        pytest.param(["--flaw", "scab:0,3"], 3, id="scab-bottom-row"),
        pytest.param(["--flaw", "temporary:U,0,5"], 3, id="temporary-off-board"),
        pytest.param(["--flaw", "gashpair:u,1,7,9,0"], 3, id="gashpair-off-border"),
        # a scab flaw has one resolution
        pytest.param(["--flaw", "SCAB", "--choices", "1"], 3, id="choice-too-large"),
        pytest.param(["--flaw", "SCAB", "--choices", "-1"], 2, id="choice-negative"),
        pytest.param(["--flaw", "SCAB", "--choices", "x"], 2, id="choice-not-int"),
        pytest.param(["--flaw", "SCAB", "--steps", "-2"], 2, id="steps-negative"),
        pytest.param(
            ["--puzzle", "EMPTY", "--flaw", "scab:0,0"], 3, id="no-pieces"
        ),
        # the scab puzzle with its apex triangle listed twice
        pytest.param(["--puzzle", "TWICE", "--flaw", "SCAB"], 2, id="two-pieces-one-cell"),
    ],
)
def test_mutate_bad_input_exit_codes(capsys, tmp_path, scab_file, argv, code):
    path, scab = scab_file
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"region": [4, 0, 4, 0, 4, 0], "pieces": []}))
    twice = tmp_path / "twice.json"
    data = json.loads(pathlib.Path(path).read_text())
    apex = next(p for p in data["pieces"] if p["kind"] == "triangle" and p["anchor"] == [0, 0])
    data["pieces"].append(apex)
    twice.write_text(json.dumps(data))
    subs = {"SCAB": scab, "EMPTY": str(empty), "TWICE": str(twice)}
    argv = [subs.get(a, a) for a in argv]
    if "--puzzle" not in argv:
        argv = ["--puzzle", path] + argv
    got, out, err = run(capsys, "mutate", *argv)
    assert (got, out) == (code, "")
    assert err.startswith(("input error", "semantic error"))


def mostly_unlabeled(tmp_path, side):
    """A puzzle file of the given side whose two triangles label the four
    edges of the scab at (0, 0) and leave the rest of the region unlabeled."""
    up = {"kind": "triangle", "orientation": 0, "anchor": [0, 0], "labels": [0, 1, 2]}
    down = {"kind": "triangle", "orientation": 3, "anchor": [0, 1], "labels": [1, 0, 2]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"region": [side, 0] * 3, "pieces": [up, down]}))
    return str(path)


@pytest.mark.parametrize("side, code", [(NVARS, 3), (NVARS + 1, 2)])
def test_mutate_region_past_the_variables(capsys, tmp_path, side, code):
    # a side past the variables is rejected on reading, before validation
    # lists every unlabeled edge of the region
    path = mostly_unlabeled(tmp_path, side)
    got, out, err = run(capsys, "mutate", "--puzzle", path, "--flaw", "scab:0,0")
    assert (got, out) == (code, "")
    if code == 2:
        assert err == (
            f"input error: bad puzzle JSON: region side {side}: "
            f"the variables are y1 .. y{NVARS}\n"
        )
    else:
        assert err.startswith("semantic error: unlabeled edge")


def test_mutate_shows_the_first_problems(capsys, tmp_path):
    # the side-64 region has 6,235 unlabeled edges, and the marked pair
    # is no scab: the first 20 problems are shown, then their count
    path = mostly_unlabeled(tmp_path, NVARS)
    got, out, err = run(capsys, "mutate", "--puzzle", path, "--flaw", "scab:0,0")
    assert (got, out) == (3, "")
    assert len(err.encode()) < 4096
    problems = err.removeprefix("semantic error: ").removesuffix("\n").split("; ")
    assert len(problems) == 21
    assert all(p.startswith("unlabeled edge") for p in problems[:20])
    assert problems[20] == "… and 6216 more"


_SMALL = st.integers(-2, 10)
_FLAW_SPECS = st.one_of(
    st.builds("scab:{},{}".format, _SMALL, _SMALL),
    st.builds("temporary:{},{},{}".format, st.sampled_from("UDX"), _SMALL, _SMALL),
    st.builds(
        "gashpair:{},{},{},{},{}".format,
        st.sampled_from("uvwx"), _SMALL, _SMALL, _SMALL, _SMALL,
    ),
    st.text(max_size=16),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=_FLAW_SPECS, choice=st.integers(0, 3))
def test_mutate_fuzz_never_tracebacks(scab_file, spec, choice):
    path, _ = scab_file
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(
                ["mutate", "--puzzle", path, f"--flaw={spec}", f"--choices={choice}"]
            )
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# a puzzle of boundary (0212, 0212, 0212) turned by 120 degrees: its
# one rhombus is no longer vertical
ROTATED_PUZZLE = (
    '{"region": [4, 0, 4, 0, 4, 0], "pieces": [{"kind": "rhombus", "orientation": 2, '
    '"anchor": [1, 2], "labels": [2, 1]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [0, 0], "labels": [0, 0, 0]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [0, 1], "labels": [2, 2, 2]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [1, 1], "labels": [5, 2, 0]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [0, 2], "labels": [1, 1, 1]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [2, 2], "labels": [3, 1, 0]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [0, 3], "labels": [2, 2, 2]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [1, 3], "labels": [4, 2, 1]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [2, 3], "labels": [2, 2, 2]}, {"kind": "triangle", "orientation": 0, '
    '"anchor": [3, 3], "labels": [5, 2, 0]}, {"kind": "triangle", "orientation": 3, '
    '"anchor": [0, 1], "labels": [2, 5, 0]}, {"kind": "triangle", "orientation": 3, '
    '"anchor": [1, 2], "labels": [1, 3, 0]}, {"kind": "triangle", "orientation": 3, '
    '"anchor": [0, 3], "labels": [2, 4, 1]}, {"kind": "triangle", "orientation": 3, '
    '"anchor": [1, 3], "labels": [2, 2, 2]}, {"kind": "triangle", "orientation": 3, '
    '"anchor": [2, 3], "labels": [2, 5, 0]}]}'
)


def test_mutate_rotated_puzzle_is_input_error(capsys, tmp_path):
    path = tmp_path / "rotated.json"
    path.write_text(ROTATED_PUZZLE)
    code, out, err = run(capsys, "mutate", "--puzzle", str(path), "--flaw", "scab:0,2")
    assert (code, out) == (2, "")
    assert err == "input error: bad puzzle JSON: rhombus at (1, 2) has orientation 2, not 0\n"


def test_mutate_missing_file_is_input_error(capsys, tmp_path):
    code, _, _ = run(
        capsys, "mutate", "--puzzle", str(tmp_path / "nope.json"), "--flaw", "scab:0,0"
    )
    assert code == 2


def test_quantum_worked_example(capsys):
    code, out, _ = run(
        capsys, "quantum", "--m", "2", "--n", "5", "--lambda", "2,1", "--mu", "3,1"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    # pure-q term (y5 - y3)(y2 - y1) and the q * [one-box] term y5 - y1
    assert "q^1 [0]: 1*y1*y3 - 1*y1*y5 - 1*y2*y3 + 1*y2*y5" in lines
    assert "q^1 [1]: -1*y1 + 1*y5" in lines


@pytest.mark.parametrize(
    "m, lam, message",
    [
        pytest.param(2, "9", "partition '9' does not fit in a 2 x 3 box", id="partition-too-wide"),
        pytest.param(
            2, "2,x", "bad partition '2,x': invalid literal for int() with base 10: 'x'",
            id="partition-not-int",
        ),
        pytest.param(2, "1,2", "'1,2' is not a partition", id="partition-increasing"),
        pytest.param(0, "1", "need 0 < m < n", id="m-zero"),
        pytest.param(5, "1", "need 0 < m < n", id="m-is-n"),
    ],
)
def test_quantum_bad_input_is_input_error(capsys, m, lam, message):
    code, out, err = run(
        capsys, "quantum", "--m", str(m), "--n", "5", "--lambda", lam, "--mu", "1"
    )
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_verify_pieces(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pieces")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["suite"] == "pieces"


def test_verify_pieces_reports_invalid_tables(capsys, tmp_path, monkeypatch):
    # the default tables with one rhombus changed leave a scab unresolved
    path = tmp_path / "tables.txt"
    path.write_text(
        table_text().replace("rhombus 4 3\n", "rhombus 5 5\n")
    )
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(path))
    code, out, err = run(capsys, "verify", "--suite", "pieces")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["pass"] is False
    assert data["checks"][0]["rhs"] == "scab (1, 4, 3, 6) has 0 resolutions"


# every command, `verify --suite pieces` included, reads the tables first
TABLE_COMMANDS = [
    pytest.param(["product", "--u", "01", "--v", "10"], id="product"),
    pytest.param(["puzzles", "--u", "01", "--v", "10", "--w", "10"], id="puzzles"),
    pytest.param(["mutate", "--puzzle", "p.json", "--flaw", "scab:0,0"], id="mutate"),
    pytest.param(
        ["quantum", "--m", "1", "--n", "2", "--lambda", "1", "--mu", "1"], id="quantum"
    ),
    pytest.param(["verify", "--suite", "pieces"], id="verify-pieces"),
    pytest.param(["verify", "--suite", "gashes"], id="verify-gashes"),
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS)
def test_unreadable_table_override_is_input_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(tmp_path / "missing.txt"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot read piece tables: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "line, bad",
    [
        pytest.param("triangle 0 0 0", "triangle 0 0 12", id="triangle-12"),
        pytest.param("rhombus 1 0", "rhombus 40 0", id="rhombus-40"),
    ],
)
@pytest.mark.parametrize("argv", TABLE_COMMANDS)
def test_out_of_range_label_is_input_error(capsys, tmp_path, monkeypatch, argv, line, bad):
    # a label past 7 once died in `labels.dual_label` with a KeyError
    text = table_text()
    assert f"\n{line}\n" in text
    path = tmp_path / "tables.txt"
    path.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: cannot read piece tables: piece-table label outside 0..7: {bad!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["product", "--u", "01", "--v", "10"], id="product"),
        pytest.param(["puzzles", "--u", "01", "--v", "10", "--w", "10"], id="puzzles"),
        pytest.param(["mutate", "--puzzle", "p.json", "--flaw", "scab:0,0"], id="mutate"),
        pytest.param(
            ["quantum", "--m", "1", "--n", "2", "--lambda", "1", "--mu", "1"], id="quantum"
        ),
        pytest.param(["verify", "--suite", "oracle", "--max-n", "2"], id="verify-oracle"),
    ],
)
def test_invalid_table_override_is_input_error(capsys, tmp_path, monkeypatch, argv):
    # tables that parse but fail validation; `verify --suite pieces`
    # reports them instead (test_verify_pieces_reports_invalid_tables)
    path = tmp_path / "tables.txt"
    path.write_text(
        table_text().replace("rhombus 4 3\n", "rhombus 5 5\n")
    )
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "input error: invalid piece tables: scab (1, 4, 3, 6) has 0 resolutions\n"


# sha256 of stdout, recorded from the enumerator-backed product and
# quantum product (the n = 8 ones from the dense row-transfer pass,
# which weighed every state); the live-state expansion must reproduce
# it byte for byte
@pytest.mark.parametrize(
    "argv, sha256",
    [
        pytest.param(
            ["product", "--u", "120021", "--v", "102021"],
            "b999741c7ac32532d39d1035c44deae77a3799c551df54a6e0b925b2025e543f",
            id="product-n6",
        ),
        pytest.param(
            ["product", "--u", "120021", "--v", "102021", "--format", "json"],
            "62f93ea36f40d9fb15dbc61e70a0ac531431429388cc126f87ef852af979cfd6",
            id="product-n6-json",
        ),
        pytest.param(
            ["product", "--u", "1121102", "--v", "1012112"],
            "6a8255f7561e8ac242759d14da0c36216b55b7d249822d304066fa5bfce6678e",
            id="product-n7",
        ),
        pytest.param(
            ["product", "--u", "1121102", "--v", "1012112", "--format", "json"],
            "dc6eea309c2301387b9d55fd394554682627b0b147d09b3ddfe69c6099981f73",
            id="product-n7-json",
        ),
        pytest.param(
            ["quantum", "--m", "3", "--n", "6", "--lambda", "3,1,1", "--mu", "3,1,1"],
            "d0e3ebc33a3792dc4f62db62bd3f246a05368290c6f12f32f7fe529fd270d46f",
            id="quantum-gr36",
        ),
        pytest.param(
            ["product", "--u", "10102202", "--v", "20022110"],
            "f99b46ace28c9e2d47f027b401470f1fc6ab09eab9ae194a31e136323cc06de4",
            id="product-fl358",
        ),
        pytest.param(
            ["product", "--u", "10102202", "--v", "20022110", "--format", "json"],
            "0d6183d2ffd0e041d62392e9ba57992db261ff3033a0eb5506b54714abeb37d0",
            id="product-fl358-json",
        ),
        pytest.param(
            ["quantum", "--m", "4", "--n", "8", "--lambda", "4,3,2,1", "--mu", "4,3,2,1"],
            "741138ce0f1ece1bfb5a5c961545b06d6758d8c5a6cc3a68f2404cc0c6f61890",
            id="quantum-gr48",
        ),
    ],
)
def test_product_output_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of stdout, recorded from the backtracking enumerator; the walk
# over the row states must list the same puzzles in the same order
PUZZLES_PINS = [
    pytest.param(
        "01201",
        "10102",
        "10210",
        "fc41e0dc3660a786adf5a043f949078f178a9fde0c39e070523e4dd66d95e559",
        id="2-puzzles",
    ),
    pytest.param(
        "202101",
        "201210",
        "221010",
        "1c5183d958dc3fe99897ccca902f202d291c8e9d0939bca56c7b1298c84cb10d",
        id="9-puzzles",
    ),
    pytest.param(
        "212021",
        "212210",
        "222110",
        "adc4a09c5cd70b6c08d079f3681381123a4cbfc9852e083b59c973529020f4f9",
        id="35-puzzles",
    ),
]


@pytest.mark.parametrize("u, v, w, sha256", PUZZLES_PINS)
def test_puzzles_output_pinned(capsys, u, v, w, sha256):
    code, out, _ = run(capsys, "puzzles", "--u", u, "--v", v, "--w", w)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_puzzles_output_pinned_without_asserts():
    # the listing and its invariant checks must not rest on ``assert``,
    # which ``python -O`` strips
    import twostep

    u, v, w, sha256 = PUZZLES_PINS[0].values
    src = str(pathlib.Path(twostep.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-m", "twostep.cli", "puzzles", "--u", u, "--v", v, "--w", w],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == sha256


def test_verify_oracle_output_pinned(capsys):
    # sha256 of stdout, recorded before the oracle's integer-only rewrite
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "3")
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "d738f2368caf5379c174db5ecec29effbb1681205b8561575061a360c8cdc039"
    )


# sha256 of stdout, recorded before the aura suite ran the per-flaw
# identities and the mutation suite the duality check; both pass, so
# the report is unchanged
@pytest.mark.parametrize(
    "suite, sha256",
    [
        pytest.param(
            "mutation",
            "43384b8175fa4e704add6d6258c0bc00c3b470d0015a15b25a4ad4daf3210167",
            id="mutation",
        ),
        pytest.param(
            "aura", "aab673e844dc4678d5bee2e3b03f07e777462d2b25414cb5ee11b5bb5aae33ef", id="aura"
        ),
    ],
)
def test_verify_sweep_output_pinned(capsys, suite, sha256):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "suite, name, kinds",
    [
        pytest.param("aura", "check_temporary_sum", {"temporary"}, id="temporary_sum"),
        pytest.param("aura", "check_cover_aura", {"gashpair"}, id="cover_aura"),
        pytest.param("aura", "check_scab_weight", {"scab"}, id="scab_weight"),
        pytest.param(
            "mutation", "dual_flawed", {"gashpair", "scab", "temporary"}, id="dual_flawed"
        ),
    ],
)
def test_verify_sweep_fails_when_a_check_fails(capsys, monkeypatch, suite, name, kinds):
    # the suite named like the check's module must call the check: a
    # failing report, or a dual that is a wrong puzzle, fails the suite;
    # the wrong dual has size 4, so it equals no puzzle of the suite
    other = next(enumerate_flawed(parse("0122"), parse("0122"), parse("0212")))
    seen = set()

    def broken(P):
        seen.add(P.flaw_type)
        if name == "dual_flawed":
            return other
        return {"check": name, "instance": "", "pass": False, "lhs": "1", "rhs": "0"}

    monkeypatch.setattr(f"twostep.{suite}.{name}", broken)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "3")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert seen == kinds


def test_verify_gashes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gashes")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert all(r["pass"] for r in data["checks"])


@pytest.mark.parametrize(
    "suite, max_n", [("oracle", "1"), ("mutation", "1"), ("oracle", "-5")]
)
def test_verify_rejects_max_n_below_2(capsys, suite, max_n):
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert (code, out) == (2, "")
    assert "--max-n" in err
