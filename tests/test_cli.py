import io
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from ndsys.cli import InputError, main, parse_system
from ndsys.laurent import LaurentPoly, LaurentVec, parse_vector

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = [
    (["coarsest", "hexagonal.system", "--oracle"], "hexagonal_coarsest.json"),
    (["contract", "hexagonal.system", "--lattice", "hex", "--oracle"],
     "hexagonal_contract.json"),
    (["analyze", "pair.system", "--check-transfer", "two"], "pair_analyze.json"),
    (["extend", "fibonacci.system"], "fibonacci_extend.json"),
    (["smith", "skew.system", "--lattice", "skew"], "skew_smith.json"),
    (["galois", "hexagonal.system", "--lattice", "hex", "--moduli", "2,2"],
     "hexagonal_galois.json"),
]


def run_cli(argv, capsys):
    code = main([a if i != 1 else str(GOLDEN / a) for i, a in enumerate(argv)])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv,expected", GOLDEN_RUNS, ids=[e for _, e in GOLDEN_RUNS])
def test_golden_reports(argv, expected, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / expected).read_text()


def test_reports_validate_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(resources.files("ndsys").joinpath(
        "schema/report.schema.json").read_text())
    for argv, _ in GOLDEN_RUNS:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_repeat_runs_byte_identical(capsys):
    argv = ["coarsest", "hexagonal.system", "--oracle", "--json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert first.count("\n") == 1


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.system"
    bad.write_text("n = 1\nk = 1\nP = [[s1^]]\n")
    assert main([ "gb", str(bad)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "input"

    assert main(["gb", str(tmp_path / "missing.system")]) == 2
    capsys.readouterr()

    # two lattice blocks and no --lattice selection
    assert main(["contract", str(GOLDEN / "hexagonal.system")]) == 2
    capsys.readouterr()

    assert main(["member", str(GOLDEN / "hexagonal.system")]) == 2
    capsys.readouterr()

    assert main(["simulate", str(GOLDEN / "pair.system"),
                 "--window", "5..1"]) == 2
    capsys.readouterr()


def test_exit_code_three_on_precondition(tmp_path, capsys):
    f = tmp_path / "line.system"
    f.write_text("n = 2\nk = 1\nP = [[1 + s1*s2]]\nlattice line = [[1, 1]]\n")
    assert main(["galois", str(f), "--lattice", "line"]) == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "precondition"


@pytest.mark.parametrize("command", ["simulate", "member"])
def test_window_of_wrong_dimension_exits_two(command, tmp_path, capsys):
    f = tmp_path / "plane.system"
    f.write_text("n = 2\nk = 1\nP = [[s1 - 1]]\n")
    argv = [command, str(f), "--window", "0..3"]
    if command == "member":
        argv += ["--vector", "[s1 - 1]", "--oracle"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


@pytest.mark.parametrize("text", [
    "n = 1\nk = 1\nP = [[1/0]]\n",
    "n = 0\nk = 1\nP = [[1]]\n",
    "n = 1\nk = 0\nP = []\n",
], ids=["zero-denominator", "zero-n", "zero-k"])
def test_degenerate_input_exits_two(text, tmp_path, capsys):
    f = tmp_path / "bad.system"
    f.write_text(text)
    assert main(["gb", str(f)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("n = 1\nk = 1\nP = [[s1^2 - 1]]\n"))
    assert main(["gb", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["basis"] == ["[s1^2 - 1]"]


def test_member_oracle_consistency(capsys):
    code, out, _ = run_cli(["member", "hexagonal.system",
                            "--vector", "[s2^2 + s1*s2^3 + s2^4]",
                            "--oracle"], capsys)
    assert code == 0
    r = json.loads(out)["result"]
    assert r["member"] and r["oracle"]["span_certified"] and r["oracle"]["consistent"]

    code, out, _ = run_cli(["member", "hexagonal.system",
                            "--vector", "[s1]", "--oracle"], capsys)
    r = json.loads(out)["result"]
    assert not r["member"] and not r["oracle"]["span_certified"]
    assert r["oracle"]["consistent"]


def test_simulate_basis_dump(capsys):
    code, out, _ = run_cli(["simulate", "fibonacci.system", "--basis"], capsys)
    assert code == 0
    r = json.loads(out)["result"]
    assert r["window"] == [[0, 7]] and r["points"] == 8 and r["dimension"] == 2
    assert len(r["basis"]) == 2
    for sol in r["basis"]:
        f = {t: Fraction(0) for t in range(8)}
        for e in sol:
            f[e["point"][0]] = Fraction(e["value"])
        for t in range(6):
            assert f[t + 2] == f[t + 1] + f[t]


def test_gb_order_flag(capsys):
    code, out, _ = run_cli(["gb", "hexagonal.system", "--order", "lex"], capsys)
    assert code == 0
    r = json.loads(out)["result"]
    assert r["order"] == "lex" and r["basis"]


def test_canonical_text_roundtrip():
    for name in ("hexagonal.system", "pair.system", "fibonacci.system", "skew.system"):
        sf = parse_system((GOLDEN / name).read_text())
        again = parse_system(sf.canonical_text())
        assert (again.n, again.k) == (sf.n, sf.k)
        assert again.rows == sf.rows
        assert again.lattices == sf.lattices
        assert again.windows == sf.windows


def test_analyze_image_rep_annihilates_rows(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("n = 2\nk = 2\nP = [[s1, s2]]\n"))
    assert main(["analyze", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    r = rep["result"]
    assert r["controllable"] and r["image_rep"]
    row = parse_vector("[s1, s2]", 2, 2)
    for text in r["image_rep"]:
        col = parse_vector(text, 2, 2)
        assert not col.is_zero()
        assert row.dot(col).is_zero()


@pytest.mark.parametrize("argv", [
    ["galois", "hexagonal.system", "--lattice", "hex", "--moduli", "0,2"],
    ["galois", "hexagonal.system", "--lattice", "hex", "--moduli", "2,x"],
    ["galois", "hexagonal.system", "--lattice", "hex", "--moduli", ""],
    ["coarsest", "hexagonal.system", "--audit-primes", "2,x"],
    ["coarsest", "hexagonal.system", "--audit-primes", "2,4"],
    ["coarsest", "hexagonal.system", "--audit-primes", "6"],
    ["coarsest", "hexagonal.system", "--audit-primes", "2,2"],
    ["coarsest", "hexagonal.system", "--audit-primes", "2,1000003"],
], ids=["zero-modulus", "moduli-not-integer", "moduli-empty", "audit-primes-not-integer",
        "audit-primes-not-prime", "audit-primes-six", "audit-primes-repeated",
        "audit-primes-too-large"])
def test_bad_integer_option_exits_two(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("text", [
    "n = 2\nk = 1\nP = [[s1 - 1]]\nlattice hex = [[1, 1] junk [2, 0]]\n",
    "n = 2\nk = 1\nP = [[s1 - 1]]\nlattice z = [,]\n",
    "n = 2\nk = 1\nP = [[s1 - 1]]\nwindow w = [0..3]\n",
    "n = 2\nk = 1\nn = 1\nP = [[s1 - 1]]\n",
    "n = 2\nk = 2\nk = 1\nP = [[s1 - 1]]\n",
    "n = 2\nk = 1\nP = [[s1 - 1]]\nP = [[s2 - 1]]\n",
    "n = 2\nk = 1\nP = [[s1 - 1]]\nlattice a = [[1, 0], [0, 2]]\nlattice a = [[2, 0], [0, 1]]\n",
    "n = 2\nk = 1\nP = [[s1 - 1]]\nwindow w = [0..3, 0..3]\nwindow w = [0..1, 0..1]\n",
], ids=["lattice-stray-text", "lattice-no-rows", "window-axis-count", "repeated-n",
        "repeated-k", "repeated-P", "repeated-lattice", "repeated-window"])
def test_bad_system_block_exits_two(text, tmp_path, capsys):
    with pytest.raises(InputError):
        parse_system(text)
    f = tmp_path / "bad.system"
    f.write_text(text)
    assert main(["gb", str(f)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_invariant_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(LaurentVec, "dot",
                        lambda self, other: LaurentPoly.constant(self.nvars, 1))
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("n = 2\nk = 2\nP = [[s1, s2]]\n"))
    assert main(["analyze", "-"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    err = out.err.strip()
    assert "\n" not in err and json.loads(err)["error"] == "invariant"


@pytest.mark.parametrize("vector", ["[s1,,s2]", "[s1, s2,]"])
def test_member_vector_with_empty_entry_exits_two(vector, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("n = 2\nk = 2\nP = [[s1, s2]]\n"))
    assert main(["member", "-", "--vector", vector]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_matrix_row_error_names_its_row():
    with pytest.raises(InputError, match=r"^line 3: matrix row 2: "):
        parse_system("n = 2\nk = 2\nP = [[s1, s2], [s1,,s2]]\n")


def test_galois_order_of_large_group(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "n = 2\nk = 1\nP = [[1 + s1*s2 + s2^2]]\nlattice sq = [[800, 0], [0, 800]]\n"))
    assert main(["galois", "-", "--moduli", "800,800", "--json"]) == 0
    stab = json.loads(capsys.readouterr().out)["result"]["stabilizer"]
    assert stab["order"] == 640000 and stab["roundtrip_exact"]


def test_passing_audit_entry_exits_one(monkeypatch, capsys):
    monkeypatch.setattr("ndsys.coarsest.member", lambda v, p: True)
    code, out, err = run_cli(["coarsest", "hexagonal.system"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "invariant"


def test_repeated_declaration_names_its_line():
    with pytest.raises(InputError, match=r"^line 5: lattice a is declared twice$"):
        parse_system("n = 2\nk = 1\nP = [[s1 - 1]]\n"
                     "lattice a = [[1, 0], [0, 2]]\nlattice a = [[2, 0], [0, 1]]\n")


@pytest.mark.parametrize("bound", ["0", "-3", "33", "64"])
def test_out_of_range_index_bound_exits_two(bound, capsys):
    code, out, err = run_cli(["coarsest", "hexagonal.system", "--oracle",
                              "--index-bound", bound], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_window_option_error_names_the_option(capsys):
    code, _, err = run_cli(["simulate", "hexagonal.system", "--window", "0..3,5..1"],
                          capsys)
    assert code == 2
    assert json.loads(err)["detail"] == "--window: empty window axis 5..1"


def test_closed_pipe_exits_141_quietly(monkeypatch, capsys):
    """A reader that closes the pipe early (`ndsys ... | head`) gets the
    SIGPIPE exit code and no traceback or error line."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["simulate", str(GOLDEN / "fibonacci.system"), "--basis",
                 "--window=-3..4"]) == 141
    assert capsys.readouterr().err == ""
