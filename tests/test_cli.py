import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binomhorn.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def paths(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "erd": write("erd.mat", "1 0\n-2 1\n1 -2\n0 1\n"),
        "erd_A": write("erd_A.mat", "3 2 1 0\n0 1 2 3\n"),
        "ds": write("ds.mat", "-2 -1\n3 0\n0 3\n-1 -2\n"),
        "him": write("him.mat",
                     "# non-holonomic\n1 1 1\n-1 -2 -3\n1 0 0\n0 1 0\n0 0 1\n"),
        "m3": write("m3.mat", "1 -5 0\n-1 1 -1\n0 3 1\n"),
        "gauss": write("gauss.mat", "1\n-1\n-1\n1\n"),
        "bad": write("bad.mat", "1\n0\n0\n"),
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_rank_erd(paths, capsys):
    code, rep = run(capsys, ["rank", "--B", paths["erd"]])
    assert code == 0
    assert rep["total"] == 4
    assert rep["schema"] == "1"
    assert [s["product"] for s in rep["summands"]] == [3, 1]
    assert rep["B"] == [[1, 0], [-2, 1], [1, -2], [0, 1]]


def test_rank_him_exit_3(paths, capsys):
    code, rep = run(capsys, ["rank", "--B", paths["him"]])
    assert code == 3
    assert rep["infinite"] is True


def test_subgraphs_m3(paths, capsys):
    code, rep = run(capsys, ["subgraphs", "--M", paths["m3"]])
    assert code == 0
    assert rep["mu"] == 4
    assert rep["reps"] == [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3]]
    assert rep["component_sizes"] == [1, 3, 6, 10]


def test_validate_bad_exit_2(paths, capsys):
    code, rep = run(capsys, ["validate", "--B", paths["bad"]])
    assert code == 2
    assert rep["ok"] is False
    assert rep["certificate"] == [1, 0, 0]


def test_complement(paths, capsys):
    code, rep = run(capsys, ["complement", "--B", paths["erd"]])
    assert code == 0
    A = rep["A"]
    B = [[1, 0], [-2, 1], [1, -2], [0, 1]]
    for row in A:
        for k in range(2):
            assert sum(row[j] * B[j][k] for j in range(4)) == 0


def test_decompose(paths, capsys):
    code, rep = run(capsys, ["decompose", "--B", paths["erd"],
                             "--A", paths["erd_A"]])
    assert code == 0
    assert [d["rowset"] for d in rep["decompositions"]] == [[], [2, 3]]
    assert all(d["class"] == "toral" for d in rep["decompositions"])


def test_volume(paths, capsys):
    code, rep = run(capsys, ["volume", "--A", paths["erd_A"]])
    assert code == 0
    assert rep["volume"] == 3


def test_horn_ops_gauss(paths, capsys):
    code, rep = run(capsys, ["horn-ops", "--B", paths["gauss"],
                             "--c", "1/3,1/5,2/5,3/7"])
    assert code == 0
    op = rep["operators"][0]
    q = {tuple(t["monomial"]): t["coeff"] for t in op["q_expanded"]}
    assert q == {(0,): "1/7", (1,): "16/21", (2,): "1"}


def test_solve_and_verify(paths, capsys):
    code, rep = run(capsys, ["solve", "--B", paths["erd"],
                             "--A", paths["erd_A"],
                             "--beta", "1/2,1/3", "--truncate", "4"])
    assert code == 0
    assert rep["count"] == 4
    monos = [s for s in rep["solutions"] if s["support_rank"] == 0]
    assert monos[0]["series"]["terms"] == [
        {"exponent": ["1/6", "0", "0", "1/9"],
         "coeff": {"N": 1, "coeffs": ["1"]}}]
    code, rep = run(capsys, ["verify", "--B", paths["erd"],
                             "--A", paths["erd_A"],
                             "--beta", "1/2,1/3", "--truncate", "4"])
    assert code == 0
    assert rep["ok"] is True


def test_solve_resonant_exit_4(paths, capsys):
    code, _ = run(capsys, ["solve", "--B", paths["erd"],
                           "--A", paths["erd_A"], "--beta", "1,2"])
    assert code == 4


def test_solve_him_exit_3(paths, capsys):
    code, rep = run(capsys, ["solve", "--B", paths["him"], "--beta", "1/2,1/3"])
    assert code == 3


def test_field_root_solution_count(paths, capsys):
    code, rep = run(capsys, ["solve", "--B", paths["ds"],
                             "--beta", "1/5,2/7", "--truncate", "3",
                             "--field-root", "3"])
    assert code == 0
    assert rep["count"] == 9


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("flag, value", [("--field-root", "0"),
                                         ("--field-root", "-3"),
                                         ("--truncate", "-1")])
def test_bad_truncate_or_field_root_exit_2(paths, capsys, command, flag,
                                           value):
    code = main([command, "--B", paths["ds"], "--beta", "1/5,2/7",
                 flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} must be >= " in captured.err


@pytest.mark.parametrize("argv", [
    ["subgraphs", "--M", "m3"], ["rank", "--B", "erd"],
    ["solve", "--B", "erd", "--beta", "1/2,1/3"],
    ["verify", "--B", "erd", "--beta", "1/2,1/3"]])
def test_negative_cap_exit_2(paths, capsys, argv):
    argv = [paths.get(a, a) for a in argv]
    code = main(argv + ["--cap", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--cap must be >= 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--B", "erd", "--beta", "1/2,,1/3"],
    ["verify", "--B", "erd", "--beta", "1/2,1/3,"],
    ["horn-ops", "--B", "gauss", "--c", ",1,2,3,4"]])
def test_empty_rational_entry_exit_2(paths, capsys, argv):
    # a dropped entry is an input error, not a shorter vector
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: empty entry in ")
    assert captured.err.count("\n") == 1


def test_byte_identical_output(paths, capsys):
    main(["rank", "--B", paths["erd"]])
    first = capsys.readouterr().out
    main(["rank", "--B", paths["erd"]])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, ["rank", "--B", "/nonexistent/path.mat"])
    assert code == 2


def test_undecodable_file_exit_2(tmp_path, capsys):
    # a file that is not UTF-8 is an input error: one error line, no
    # traceback, and not exit 1, which verify keeps for a failing solution
    p = tmp_path / "binary.mat"
    p.write_bytes(b"\xff1 -1\n-1 1\n")
    code = main(["validate", "--B", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: not UTF-8 text")
    assert captured.err.count("\n") == 1


def test_subgraphs_cap_exit_5(tmp_path, capsys):
    p = tmp_path / "inf.mat"
    p.write_text("1 -1\n-1 1\n")  # every antidiagonal is bounded: infinite mu
    code = main(["subgraphs", "--M", str(p), "--cap", "10"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "mu is infinite: y = [1, 1] > 0" in captured.err


def test_subgraphs_zero_columns_certified_at_the_default_cap(tmp_path, capsys):
    p = tmp_path / "zero.mat"
    p.write_text("0 0\n0 0\n0 0\n")  # no steps: every point is a component
    code = main(["subgraphs", "--M", str(p)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "mu is infinite: y = [" in captured.err


def test_subgraphs_face_certified_at_the_default_cap(tmp_path, capsys):
    p = tmp_path / "him_M.mat"
    p.write_text("1 1 1\n-1 -2 -3\n1 0 0\n")  # the himalayan block
    code = main(["subgraphs", "--M", str(p)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: mu is infinite: y = [0, 0, 1] >= 0")
    assert captured.err.count("\n") == 1


def test_subgraphs_walk_cap_exit_5(paths, capsys):
    code = main(["subgraphs", "--M", paths["m3"], "--cap", "2"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "no closure certificate within 2 levels" in captured.err


def call_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def call_fresh(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "binomhorn.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_calls_in_one_process_match_fresh_processes(paths):
    # the parser is built once per process; no option of one call may
    # reach the next
    m3 = ["subgraphs", "--M", paths["m3"]]
    calls = [m3 + ["--pretty"], m3, m3 + ["--cap", "x"], m3 + ["--cap", "2"],
             m3, ["rank", "--B", paths["erd"], "--pretty"]]
    got = [call_in_process(argv) for argv in calls]
    assert [code for code, _, _ in got] == [0, 0, 2, 5, 0, 0]
    assert got[0][1] != got[1][1] == got[4][1]
    assert got == [call_fresh(argv) for argv in calls]


@pytest.mark.parametrize("argv", [
    ["rank", "--B", "erd", "--json"],
    ["validate", "--B", "erd", "--cap", "5"],
    ["complement", "--B", "erd", "--A", "erd_A"]])
def test_options_a_command_never_reads_exit_2(paths, argv):
    # --json was never read, --cap only where an atlas runs, and
    # complement computes its own A
    code, out, err = call_in_process([paths.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_horn_ops_bad_c_length(paths, capsys):
    code, _ = run(capsys, ["horn-ops", "--B", paths["gauss"], "--c", "1,2"])
    assert code == 2


def test_volume_report_lattice(paths, capsys):
    code, rep = run(capsys, ["volume", "--A", paths["erd_A"]])
    assert code == 0
    # the column lattice of the published A has index 3 in Z^2
    basis = rep["lattice_basis"]
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == 3


def test_series_reports_match_goldens(monkeypatch):
    # solve and verify stdout, byte for byte (by sha256 and length), on
    # erdelyi with its A at T = 6, 12, 20, on ds06 over Q(zeta_3) at
    # T = 6, 12, 20, 40, and on gauss at the default T
    monkeypatch.chdir(ROOT)
    goldens = json.loads((ROOT / "tests" / "goldens" / "series_cli.json")
                         .read_text(encoding="utf-8"))
    assert len(goldens) == 16
    for args, want in goldens.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args.split())
        data = out.getvalue().encode("utf-8")
        got = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
               "bytes": len(data)}
        assert got == want, args


def test_verify_prints_interior_residual_exponents(paths, capsys,
                                                   monkeypatch):
    # a corrupted coefficient leaves interior residual; its terms print
    # at their rational exponents base + z
    import binomhorn.cli as cli
    from fractions import Fraction

    from binomhorn import (horn_system_operators, make_horn_input,
                           verify_annihilation)

    solve = cli.solution_basis

    def corrupted(*args, **kwargs):
        sols = solve(*args, **kwargs)
        s = next(sol for sol in sols if sol.support_rank == 2).series
        z = min(s.terms)
        s.terms[z] = s.terms[z] * 7
        corrupted.sols = sols
        return sols

    monkeypatch.setattr(cli, "solution_basis", corrupted)
    code, rep = run(capsys, ["verify", "--B", paths["erd"], "--A",
                             paths["erd_A"], "--beta", "1/2,1/3",
                             "--truncate", "4"])
    assert code == 1 and rep["ok"] is False
    hi = make_horn_input(cli.read_matrix(paths["erd"]),
                         cli.read_matrix(paths["erd_A"]))
    ops = horn_system_operators(hi, (Fraction(1, 2), Fraction(1, 3)))
    printed = 0
    for sol, got in zip(corrupted.sols, rep["solutions"]):
        want = verify_annihilation(ops, sol.series)
        for check, c in zip(want.checks, got["checks"]):
            assert c["interior_residual"] == [
                [str(x) for x in sol.series.exponent(z)]
                for z, _ in check.interior_residual]
            printed += len(c["interior_residual"])
    assert printed > 0
