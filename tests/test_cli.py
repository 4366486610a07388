import contextlib
import csv
import io
import json
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifract import _pool, cli, clifford_empirical_gamma, empirical_gamma, fif_from_data, fixed_point
from clifract.cli import main
from clifract.config import build_problem, load_config

CONSTANT_CONFIG = {
    "schema_version": 1,
    "n": 2,
    "grid_M": 16,
    "partition": {"interval": [0.0, 1.0], "N": 2},
    "q": [
        {"": {"const": 1.0}, "12": {"const": -2.0}},
        {"": {"const": 1.0}, "12": {"const": -2.0}},
    ],
    "s": [0.5, 0.5],
    "tol": 1e-12,
    "space": {"tag": "Lp", "p": 1.0},
}

FIF_CONFIG = {
    "schema_version": 1,
    "n": 0,
    "grid_M": 1024,
    "fif": {"x": [0.0, 0.5, 1.0], "y": [0.0, 1.0, 0.0]},
    "s": [0.3, 0.3],
    "tol": 1e-12,
    "space": {"tag": "Ck", "k": 0},
    "seed": 5,
}


def write_config(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(cell) for cell in row] for row in rows[1:]]


def test_solve_constant_config_writes_expected_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    out = tmp_path / "solution.csv"
    assert main(["solve", str(cfg), "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "", "1", "2", "12"]
    matrix = np.array(rows)
    np.testing.assert_allclose(matrix[:, 1], 2.0, atol=1e-11)   # 1/(1-0.5)
    np.testing.assert_allclose(matrix[:, 4], -4.0, atol=1e-11)  # -2/(1-0.5)
    np.testing.assert_array_equal(matrix[:, 2], 0.0)
    np.testing.assert_array_equal(matrix[:, 3], 0.0)
    report = capsys.readouterr().out
    assert "iterations:" in report and "empirical gamma:" in report


def test_solve_report_quiet(tmp_path, capsys):
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    out = tmp_path / "solution.csv"
    assert main(["solve", str(cfg), "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_solve_fif_reproduces_knots_through_cli(tmp_path):
    cfg = write_config(tmp_path, FIF_CONFIG)
    out = tmp_path / "fif.csv"
    assert main(["solve", str(cfg), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    matrix = np.array(rows)
    by_x = dict(zip(matrix[:, 0], matrix[:, 1]))
    assert abs(by_x[0.0] - 0.0) < 1e-10
    assert abs(by_x[0.5] - 1.0) < 1e-10
    assert abs(by_x[1.0] - 0.0) < 1e-10


def test_cli_matches_library_solution(tmp_path):
    cfg = write_config(tmp_path, FIF_CONFIG)
    out = tmp_path / "fif.csv"
    main(["solve", str(cfg), "--output", str(out), "--quiet"])
    _, rows = read_csv(out)
    params = fif_from_data([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.3, 0.3])
    psi = fixed_point(params, 1024, tol=1e-12, gamma=0.3).function
    np.testing.assert_array_equal(np.array(rows)[:, 1], psi.values)


def test_solve_json_format_round_trips(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    out = tmp_path / "solution.json"
    assert main(["solve", str(cfg), "--output", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 17
    assert set(rows[0]["coeffs"]) == {"", "1", "2", "12"}
    assert rows[0]["coeffs"][""] == pytest.approx(2.0, abs=1e-11)


def test_solve_gate_failure_exits_3_without_output(tmp_path, capsys):
    failing = json.loads(json.dumps(CONSTANT_CONFIG))
    failing["s"] = [1.25, 1.25]
    cfg = write_config(tmp_path, failing)
    out = tmp_path / "nope.csv"
    assert main(["solve", str(cfg), "--output", str(out)]) == 3
    assert not out.exists()
    assert "gate failed" in capsys.readouterr().err


def test_solve_non_convergence_exits_3(tmp_path, capsys):
    stubborn = json.loads(json.dumps(FIF_CONFIG))
    stubborn["max_iter"] = 2
    cfg = write_config(tmp_path, stubborn)
    out = tmp_path / "never.csv"
    assert main(["solve", str(cfg), "--output", str(out)]) == 3
    assert not out.exists()
    assert "no convergence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "partition, needle",
    [
        # Aligned: tile 0 fixes x = 0 with s = 1.2, so rho_N >= 1.2^N and no power of T contracts.
        ({"interval": [0.0, 1.0], "N": 2}, "rho_"),
        # Interpolating: the Banach rule has no sup-norm factor below 1.
        ({"interval": [0.0, 1.0], "knots": [0.0, 0.3, 1.0]}, "max|s| = 1.2 >= 1"),
    ],
)
def test_solve_without_a_sup_norm_certificate_exits_3(tmp_path, capsys, partition, needle):
    # The Lp(p=1) gate is below 1 (0.65 on uniform tiles), which certifies nothing in the
    # sup norm.  q_0(0) = 0 keeps the Banach iterates bounded, so they stop with a bound
    # that nothing certifies.
    config = {
        "schema_version": 1,
        "n": 0,
        "grid_M": 64,
        "partition": partition,
        "q": [{"poly": [0.0, 1.0]}, 1.0],
        "s": [1.2, 0.1],
        "tol": 1e-10,
        "space": {"tag": "Lp", "p": 1.0},
    }
    out = tmp_path / "uncertified.csv"
    assert main(["solve", str(write_config(tmp_path, config)), "--output", str(out)]) == 3
    assert not out.exists()
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "partition, s, max_iter, line",
    [
        # No power of the interpolating T contracts: the certificate search refuses the plan.
        ({"knots": [0.0, 0.3, 1.0]}, [1.5, 0.1], 1000, "no sup-norm certificate on an interpolating grid: "
         "max|s| = 1.5 >= 1 and rho_k >= 1 for every k <= 32 (rho_32 = 4.314e+05)"),
        # Tile 0 fixes x = 0 with s = 3.5, so rho_N = 3.5^N, which overflows at N = 1024.
        ({"N": 4}, [3.5, 0.1, 0.1, 0.1], 4096,
         "no convergence after 512 steps: rho_1024 = inf overflows (rho_512 = 3.655e+278)"),
    ],
    ids=["interpolating", "aligned"],
)
def test_a_refused_plan_names_no_component(tmp_path, capsys, partition, s, max_iter, line):
    # The refusal is a property of s, which every blade shares: it blames no blade, and
    # says "no convergence" at most once.  The Lp(p=1) gate passes.
    config = {
        "schema_version": 1,
        "n": 2,
        "grid_M": 64,
        "partition": {"interval": [0.0, 1.0], **partition},
        "q": [{"1": {"poly": [0.0, 1.0]}}] + [{"1": 1.0}] * (len(s) - 1),
        "s": s,
        "max_iter": max_iter,
        "space": {"tag": "Lp", "p": 1.0},
    }
    out = tmp_path / "refused.csv"
    assert main(["solve", str(write_config(tmp_path, config)), "--output", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == line + "\n"


def test_solve_config_error_exits_2(tmp_path, capsys):
    broken = json.loads(json.dumps(CONSTANT_CONFIG))
    del broken["s"]
    cfg = write_config(tmp_path, broken)
    assert main(["solve", str(cfg)]) == 2
    assert "s" in capsys.readouterr().err


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "ghost.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_output_dir_env_var_anchors_relative_paths(tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    monkeypatch.setenv("CLIFRACT_OUTPUT_DIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    assert main(["solve", str(cfg), "--quiet"]) == 0
    assert (outdir / "problem.out.csv").exists()


def test_check_reports_all_six_gates(tmp_path, capsys):
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    for tag in ("Ck", "CkAlpha", "Lp", "Wsp", "Bspq", "Fspq"):
        assert tag in out
    # Lp gate with p=1, Lip=1/2, s=0.5: 2 * 0.5 * 0.5
    assert "configured Lp(p=1.0): gamma = 0.5 (passes)" in out


def test_check_zero_multipliers_all_gates_vanish(tmp_path, capsys):
    payload = json.loads(json.dumps(CONSTANT_CONFIG))
    payload["s"] = [0.0, 0.0]
    cfg = write_config(tmp_path, payload)
    assert main(["check", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    gate_lines = [ln for ln in lines[1:7]]
    assert all(" 0 " in ln or ln.rstrip().endswith("yes") for ln in gate_lines)


def test_check_failing_sup_gate_exits_1(tmp_path, capsys):
    payload = json.loads(json.dumps(CONSTANT_CONFIG))
    payload["s"] = [0.6, 0.6]
    payload["space"] = {"tag": "Ck", "k": 0}
    cfg = write_config(tmp_path, payload)
    assert main(["check", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "gamma = 1.2 (FAILS)" in out


def test_eval_exact_and_interpolated(tmp_path, capsys):
    cfg = write_config(tmp_path, FIF_CONFIG)
    out = tmp_path / "fif.csv"
    main(["solve", str(cfg), "--output", str(out), "--quiet"])
    _, rows = read_csv(out)
    stored = {row[0]: row[1] for row in rows}

    grid1 = 1.0 / 1024
    midpoint = grid1 / 2.0
    assert main(["eval", str(out), "--at", f"0.5,{grid1!r},{midpoint!r}"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["x", "value", "source"]
    at_half = lines[1].split(",")
    assert at_half[2] == "grid"
    assert float(at_half[1]) == stored[0.5]  # bit-exact round trip
    at_grid1 = lines[2].split(",")
    assert at_grid1[2] == "grid"
    assert float(at_grid1[1]) == stored[grid1]
    between = lines[3].split(",")
    assert between[2] == "interpolated"
    assert float(between[1]) == pytest.approx((stored[0.0] + stored[grid1]) / 2.0, rel=1e-15)


def test_eval_first_row_at_domain_start(tmp_path, capsys):
    cfg = write_config(tmp_path, FIF_CONFIG)
    out = tmp_path / "fif.csv"
    main(["solve", str(cfg), "--output", str(out), "--quiet"])
    assert main(["eval", str(out), "--at", "0.0"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert line.endswith("grid")


def test_eval_out_of_domain_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, FIF_CONFIG)
    out = tmp_path / "fif.csv"
    main(["solve", str(cfg), "--output", str(out), "--quiet"])
    assert main(["eval", str(out), "--at", "1.5"]) == 2
    assert "outside the domain" in capsys.readouterr().err


def test_eval_at_the_end_of_a_domain_that_no_grid_step_reaches(tmp_path, capsys):
    # -2 + (3.3 / 6) * 6 rounds to 1.2999999999999998; the grid must still end at x_hi itself.
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "n": 0,
            "grid_M": 6,
            "partition": {"interval": [-2.0, 1.3], "N": 2},
            "q": [1.0, 2.0],
            "s": [0.3, 0.3],
        },
    )
    out = tmp_path / "solution.csv"
    assert main(["solve", str(cfg), "--output", str(out), "--quiet"]) == 0
    assert read_csv(out)[1][-1][0] == 1.3
    assert main(["eval", str(out), "--at", "1.3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "grid"


def test_eval_out_of_domain_prints_no_rows_and_exact_ends(tmp_path, capsys):
    solution = tmp_path / "short.csv"
    solution.write_text("x,value\r\n-2,0\r\n1.2999999999999998,1\r\n")
    assert main(["eval", str(solution), "--at", "0,1.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: x = 1.3 outside the domain [-2, 1.2999999999999998]\n"


def test_eval_reads_json_solutions(tmp_path, capsys):
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    out = tmp_path / "solution.json"
    main(["solve", str(cfg), "--output", str(out), "--format", "json", "--quiet"])
    assert main(["eval", str(out), "--at", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,,1,2,12,source"
    values = lines[1].split(",")
    assert float(values[1]) == pytest.approx(2.0, abs=1e-11)


@pytest.mark.parametrize(
    "name, content, at, message",
    [
        ("cell.csv", "x,value\r\n0,1\r\n0.5,oops\r\n1,2\r\n", "0.25", "<solution>: malformed solution file"),
        ("row.json", json.dumps([{"x": 0.0}, {"x": 1.0}]), "0.5", "<solution>: malformed solution file"),
        ("nan.csv", "x,value\r\n0,1\r\n1,2\r\n", "nan", "x = nan outside the domain"),
        ("span.csv", "x,value\r\n-1.7e308,0\r\n1.7e308,10\r\n", "0,1e308",
         "<solution>: column 'x' spans [-1.6999999999999999e+308, 1.6999999999999999e+308], past the float range"),
        ("span.json", json.dumps([{"x": -1.7e308, "value": 0.0}, {"x": 1.7e308, "value": 10.0}]), "0,1e308",
         "<solution>: column 'x' spans"),
        ("step.csv", "x,value\r\n0,0\r\n1.7e308,1\r\n-1.7e308,2\r\n1,3\r\n", "0,1e308",
         "<solution>: x must be strictly increasing"),
    ],
    ids=[
        "non-numeric-csv-cell", "json-row-without-values", "at-nan",
        "csv-span", "json-span", "decreasing-step-past-the-range",
    ],
)
def test_eval_bad_input_exits_2_with_config_error(tmp_path, capsys, name, content, at, message):
    solution = tmp_path / name
    solution.write_text(content)
    assert main(["eval", str(solution), "--at", at]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message)


@pytest.mark.parametrize(
    "at, message",
    [("0.5,oops", "--at expects comma-separated numbers"), (" , ,", "--at expects at least one x value")],
    ids=["not-a-number", "no-number"],
)
def test_eval_bad_at_exits_2_before_reading_the_solution(tmp_path, at, message):
    # The solution path does not exist: --at is refused first.
    assert _run(["eval", str(tmp_path / "missing.csv"), f"--at={at}"]) == (2, "", f"config error: {message}\n")


def test_eval_on_an_unreadable_path_exits_2(tmp_path):
    code, out, err = _run(["eval", str(tmp_path), "--at", "0.5"])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: <solution>: cannot read {tmp_path}: ")


def test_eval_skips_blank_lines_before_the_csv_header(tmp_path):
    solution = tmp_path / "solution.csv"
    solution.write_bytes(b"\r\n  \r\n\nx,value\r\n0,1\r\n1,3\r\n")
    assert _run(["eval", str(solution), "--at", "0,0.5"]) == (0, "x,value,source\r\n0,1,grid\r\n0.5,2,interpolated\r\n", "")


@pytest.mark.parametrize(
    "content, column",
    [
        ("x,,12\r\n0,1,2\r\n1,3,inf\r\n", "'12'"),
        ("x,value\r\n0,1\r\nnan,2\r\n", "'x'"),
        (json.dumps([{"x": 0.0, "coeffs": {"": 1.0, "1": None}}, {"x": 1.0, "coeffs": {"": 2.0, "1": 0.0}}]), "'1'"),
    ],
    ids=["csv-blade", "csv-x", "json-blade"],
)
def test_eval_non_finite_value_exits_2_naming_the_column(tmp_path, capsys, content, column):
    solution = tmp_path / "solution.txt"
    solution.write_text(content, newline="")
    assert main(["eval", str(solution), "--at", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: <solution>: column " + column)


@pytest.mark.parametrize("target", ["directory", "under-a-file"])
def test_solve_unwritable_output_exits_2(tmp_path, capsys, target):
    cfg = write_config(tmp_path, FIF_CONFIG)
    blocker = tmp_path / "blocker"
    if target == "directory":
        blocker.mkdir()
        out = blocker
    else:
        blocker.write_text("")
        out = blocker / "solution.csv"
    assert main(["solve", str(cfg), "--quiet", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output: cannot write") and err.count("\n") == 1


def test_solve_outputs_are_byte_identical_across_runs(tmp_path, cli_env):
    cfg = write_config(tmp_path, FIF_CONFIG)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "clifract", "solve", str(cfg), "--output", str(out), "--quiet"],
            cwd=tmp_path,
            env=cli_env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_csv_uses_crlf_line_endings(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_CONFIG)
    out = tmp_path / "solution.csv"
    main(["solve", str(cfg), "--output", str(out), "--quiet"])
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 18  # header + 17 sample rows


@pytest.mark.parametrize(
    "fif, field",
    [
        ({"x": [0.0, 1e-300, 1.0], "y": [0.0, 1.0, 0.0]}, "fif.x"),
        ({"x": [0.0, 0.5, 1.0], "y": [0.0, float("nan"), 0.0]}, "fif.y"),
    ],
    ids=["slope-rounds-to-1", "nan-ordinate"],
)
@pytest.mark.parametrize("command", ["solve", "check"])
def test_unbuildable_config_exits_2_naming_the_field(tmp_path, capsys, command, fif, field):
    payload = dict(FIF_CONFIG, fif=fif)
    cfg = tmp_path / "problem.json"
    cfg.write_text(json.dumps(payload))  # NaN is written as the JSON constant NaN
    assert main([command, str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")


@pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["report", "quiet"])
@pytest.mark.parametrize("command", ["solve", "check"])
def test_negative_seed_exits_2(tmp_path, capsys, command, quiet):
    cfg = write_config(tmp_path, dict(FIF_CONFIG, seed=-1))
    out = tmp_path / "out.csv"
    extra = ["--output", str(out)] if command == "solve" else []
    assert main([command, str(cfg), *quiet, *extra]) == 2
    assert capsys.readouterr().err.startswith("config error: seed")
    assert not out.exists()


@pytest.mark.parametrize(
    "n, partition",
    [(0, [0.0, 0.3, 1.0]), (1, [0.0, 0.3, 1.0]), (0, [0.0, 0.5, 1.0])],
    ids=["n0", "n1", "aligned"],
)
def test_an_overflowing_solve_exits_3_with_one_line(tmp_path, capsys, n, partition):
    big = 1.7976931348623157e308
    config = {
        "schema_version": 1,
        "n": n,
        "grid_M": 32,
        "partition": {"interval": [0.0, 1.0], "knots": partition},
        "q": [big, 0.5] if n == 0 else [{"": big}, {"": 0.5}],
        "s": [0.5, -0.5],
        "max_iter": 10**6,
        "space": {"tag": "Lp", "p": 2},
    }
    cfg = write_config(tmp_path, config)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("component 'scalar': no convergence: step ") and "overflows" in err
    assert err.count("no convergence") == 1
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "check"])
def test_trials_over_the_probe_bound_exit_2(tmp_path, capsys, command):
    # Unbounded, the probe of this config's report would run for months.
    cfg = write_config(tmp_path, dict(FIF_CONFIG, grid_M=4, trials=10**12))
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: trials")


def test_solve_over_the_cell_bound_exits_2(tmp_path, monkeypatch, capsys):
    def build_problem(config):
        raise AssertionError("a config over the cell bound reached the allocating builder")

    monkeypatch.setattr(cli, "build_problem", build_problem)
    cfg = write_config(tmp_path, dict(CONSTANT_CONFIG, n=9, grid_M=2**17))
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: grid_M")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "n, y, printed",
    [
        (0, [0.0, 1e-160, 0.0], "3.0000000000000003e-161"),
        (2, {"": [0.0, 1e-160, 0.0], "12": [0.0, 3e-161, 0.0]}, "3.1320919526731652e-161"),
    ],
    ids=["n0", "n2"],
)
def test_reports_print_residuals_whose_squares_underflow(tmp_path, capsys, n, y, printed):
    # The n = 0 residual is max|defect|; the n = 2 one is max_j hypot(defect[:, j]).
    config = {
        "schema_version": 1,
        "n": n,
        "grid_M": 1000,
        "fif": {"x": [0.0, 0.3, 1.0], "y": y},
        "s": [0.3, 0.3],
        "tol": 1e-12,
        "space": {"tag": "Lp", "p": 2},
    }
    cfg = write_config(tmp_path, config)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out.csv")]) == 0
    assert f"residual: {printed}\n" in capsys.readouterr().out


def _diagnostics_raise(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a quiet run computed a diagnostic it does not print")

    # The plan-level probe and residual, the only ones the commands call.
    for name in ("_probe", "_residual"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("payload", [FIF_CONFIG, CONSTANT_CONFIG], ids=["scalar", "n2"])
def test_quiet_runs_skip_the_probe_and_the_residual(tmp_path, monkeypatch, capsys, payload):
    cfg = write_config(tmp_path, payload)
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert main(["solve", str(cfg), "--output", str(before), "--quiet"]) == 0
    _diagnostics_raise(monkeypatch)
    assert main(["solve", str(cfg), "--output", str(after), "--quiet"]) == 0
    assert main(["check", str(cfg), "--quiet"]) == 0
    assert after.read_bytes() == before.read_bytes()
    assert capsys.readouterr().out.count("\n") == 1  # the verdict line of check


@pytest.mark.parametrize("payload", [FIF_CONFIG, CONSTANT_CONFIG], ids=["scalar", "n2"])
def test_each_command_builds_at_most_one_plan(tmp_path, monkeypatch, payload):
    from clifract import engine, lift

    plans = []
    original = engine._build_plan

    def counting(*args, **kwargs):
        plans.append(args)
        return original(*args, **kwargs)

    for module in (engine, lift):
        monkeypatch.setattr(module, "_build_plan", counting)
    cfg, out = write_config(tmp_path, payload), str(tmp_path / "out.csv")
    counts = {}
    for argv in (["solve", "--output", out], ["solve", "--quiet", "--output", out], ["check"], ["check", "--quiet"]):
        plans.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([argv[0], str(cfg), *argv[1:]]) == 0
        counts[" ".join(argv[:2])] = len(plans)
    assert counts == {"solve --output": 1, "solve --quiet": 1, "check": 1, "check --quiet": 0}


# scalar_fine's knots, ordinates and multipliers on a small grid.
SCALAR_FINE_CONFIG = {
    "schema_version": 1,
    "n": 0,
    "grid_M": 64,
    "fif": {
        "x": [0.0, 0.25, 0.5, 0.75, 1.0],
        "y": [0.0012301533574825742, 0.2987455375084699, -0.2741378553622176,
              -0.8905918387572742, -0.45467078517172255],
    },
    "s": [0.5, -0.4, 0.3, 0.5],
    "seed": 0,
    "space": {"tag": "Lp", "p": 2},
}


@pytest.mark.parametrize(
    "payload, printed",
    [
        (FIF_CONFIG, None),
        (CONSTANT_CONFIG, None),
        # The probe of an n = 0 config applies T with its q; without q it prints 0.5.
        (SCALAR_FINE_CONFIG, "0.50000000000000011"),
    ],
    ids=["scalar", "n2", "scalar_fine"],
)
def test_reports_print_the_library_probe(tmp_path, capsys, payload, printed):
    cfg = write_config(tmp_path, payload)
    conf = load_config(cfg)
    if conf.n == 0:  # the scalar library's probe of the same problem
        fif = conf.fif
        params = fif_from_data(fif["x"], fif["y"], conf.s)
        value = empirical_gamma(params, conf.grid_m, conf.trials, conf.seed)
    else:
        value = clifford_empirical_gamma(build_problem(conf).params, conf.grid_m, conf.trials, conf.seed)
    expected = format(value, ".17g")
    if printed is not None:
        assert expected == printed
    assert main(["solve", str(cfg), "--output", str(tmp_path / "out.csv")]) == 0
    assert f"empirical gamma: {expected}\n" in capsys.readouterr().out
    assert main(["check", str(cfg)]) == 0
    assert f"{'empirical (sup norm)':<28} {expected}\n" in capsys.readouterr().out


def _reference_csv(path, xs, names, columns):
    """The writer the block formatter replaced: csv.writer, one format() per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", *names])
        for row in zip(xs.tolist(), *(col.tolist() for col in columns)):
            writer.writerow([format(v, ".17g") for v in row])


# Cells where the writer's digit step needs care: signed zeros, subnormals and
# extremes, exact ties at 17 digits (odd multiples of 2^-20 in [0.001, 0.01)),
# and both switch points of `%g`: 1e-4 (e-05 to fixed) and 1e17 (fixed to e+17).
SPECIAL_CELLS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1 / 3,
    1049 / 2**20, 1051 / 2**20, -1053 / 2**20, 0.2861003875732421875,
    9.9999999999999999e-5, 1e-4, float(np.nextafter(1e-4, 0.0)),
    9.9999999999999998e16, 1e17, float(np.nextafter(1e17, 0.0)),
]


def _solution_columns(n_blades):
    """Two full blocks of rows under the cell cap and a partial one.

    `x` runs over multiples of 2^-20, so its cells include exact ties; every
    other column starts with `SPECIAL_CELLS`.
    """
    rng = np.random.default_rng(3)
    rows = 2 * (cli._CELL_CAP // (1 + n_blades)) + 3
    xs = np.arange(rows) / 2.0**20
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(n_blades)]
    for col in columns:
        col[: len(SPECIAL_CELLS)] = SPECIAL_CELLS
    return xs, columns


@pytest.mark.parametrize("names", [["value"], ["", "1", "2", "12"]], ids=["scalar", "n2"])
def test_csv_writer_matches_the_reference_writer_and_reads_back(tmp_path, names):
    xs, columns = _solution_columns(len(names))
    cli._write_solution(tmp_path / "fast.csv", "csv", xs, names, columns)
    _reference_csv(tmp_path / "reference.csv", xs, names, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    read_names, read_xs, data = cli._read_solution(tmp_path / "fast.csv")
    assert read_names == names
    assert np.array_equal(read_xs, xs)
    for k, col in enumerate(columns):
        assert np.array_equal(data[:, k], col)
        assert np.array_equal(np.signbit(data[:, k]), np.signbit(col))


# Cells that fill a wide slot: exponents, signs, both zeros and the Python fallback.
WIDE_CELLS = [-1.2345678901234567e-300, 9.876543210987654e300, -0.0, float("nan"), -float("inf"), -123456.78901234567]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("names", [["value"], ["", "1", "2", "12"]], ids=["scalar", "n2"])
def test_reused_writer_buffers_leave_no_stale_bytes(tmp_path, monkeypatch, names, cpus):
    """Full blocks of wide cells, then a shorter last block of plain ones: each worker
    fills the same buffers block after block, and no byte of an earlier block shows."""
    monkeypatch.setattr(cli, "_CELL_CAP", 64)
    monkeypatch.setattr(_pool, "_cpus", lambda: cpus)
    step = 64 // (1 + len(names))
    wide = 3 * cpus * step
    xs = np.concatenate([np.resize(WIDE_CELLS, wide), np.arange(step // 2) / 4])
    columns = [np.concatenate([np.resize(WIDE_CELLS[k:] + WIDE_CELLS[:k], wide), np.full(step // 2, 0.5)]) for k in range(len(names))]
    cli._write_solution(tmp_path / "fast.csv", "csv", xs, names, columns)
    _reference_csv(tmp_path / "reference.csv", xs, names, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("names", [["value"], ["", "1", "2", "12"]], ids=["scalar", "n2"])
def test_json_writer_matches_one_json_dumps(tmp_path, names):
    xs, columns = _solution_columns(len(names))
    cli._write_solution(tmp_path / "out.json", "json", xs, names, columns)
    if names == ["value"]:
        rows = [{"x": x, "value": v} for x, v in zip(xs.tolist(), columns[0].tolist())]
    else:
        lists = [col.tolist() for col in columns]
        rows = [{"x": x, "coeffs": dict(zip(names, vals))} for x, *vals in zip(xs.tolist(), *lists)]
    assert (tmp_path / "out.json").read_text() == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("cap", [1, 7, 4096])
@pytest.mark.parametrize("names", [["value"], ["", "1", "2", "12"]], ids=["scalar", "n2"])
def test_solution_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, names, cap):
    xs, columns = _solution_columns(len(names))
    rows = max(40, 3 * (cap // (1 + len(names))) + 1)
    xs, columns = xs[:rows], [col[:rows] for col in columns]
    for fmt in ("csv", "json"):
        cli._write_solution(tmp_path / f"one.{fmt}", fmt, xs, names, columns)
    monkeypatch.setattr(cli, "_CELL_CAP", cap)
    for fmt in ("csv", "json"):
        cli._write_solution(tmp_path / f"capped.{fmt}", fmt, xs, names, columns)
        assert (tmp_path / f"capped.{fmt}").read_bytes() == (tmp_path / f"one.{fmt}").read_bytes()


@pytest.mark.parametrize(
    "content",
    [
        "x,value\r\n",
        "x,value\r\n0,1\r\n0.5\r\n1,2\r\n",
        "x,value\r\n0,1\r\n0.5,oops\r\n1,2\r\n",
        "x,value\r\n0,1\r\n0.5,#2\r\n1,2\r\n",
        "x,value\r\n1,1\r\n0,2\r\n",
        b"\x89PNG\r\n\x1a\n\xff",
        "[]",
        "x,value\r\n0,1\r\n0.5,nan\r\n1,2\r\n",
        "x,value\r\n0,1\r\n0.5,-inf\r\n1,2\r\n",
        json.dumps([{"x": 0.0, "value": 1.0}, {"x": 1.0, "value": None}]),
        json.dumps([{"x": False, "value": "1e5"}, {"x": True, "value": True}]),
        json.dumps([{"x": 0.0, "value": "1e5"}, {"x": 1.0, "value": 2.0}]),
        json.dumps([{"x": 0.0, "coeffs": {"": 1.0, "1": True}}, {"x": 1.0, "coeffs": {"": 1.0, "1": 0.0}}]),
        json.dumps([{"x": 0.0, "coeffs": {"": "1", "1": 0.0}}, {"x": 1.0, "coeffs": {"": 1.0, "1": 0.0}}]),
        '[{"x": 0, "value": 1}, {"x": 1%s, "value": 2}]' % ("0" * 400),
    ],
    ids=[
        "header-only", "ragged-row", "non-numeric-cell", "hash-in-cell", "x-decreasing", "binary",
        "empty-json", "nan-cell", "inf-cell", "json-null", "json-bool-x", "json-string-value",
        "json-bool-coeff", "json-string-coeff", "json-huge-int",
    ],
)
def test_malformed_solution_exits_2_without_warnings(tmp_path, capsys, content):
    solution = tmp_path / "solution.csv"
    if isinstance(content, bytes):
        solution.write_bytes(content)
    else:
        solution.write_text(content, newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", str(solution), "--at", "0.5"]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "rows, column",
    [
        ([{"x": False, "value": "1e5"}, {"x": True, "value": True}], "x"),
        ([{"x": 0.0, "value": 1.0}, {"x": 1.0, "value": "2"}], "value"),
        ([{"x": 0.0, "coeffs": {"": 1.0, "12": False}}, {"x": 1.0, "coeffs": {"": 1.0, "12": 0.0}}], "12"),
    ],
    ids=["bool-x", "string-value", "bool-coeff"],
)
def test_json_solution_cells_must_be_numbers(tmp_path, capsys, rows, column):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(rows))
    assert main(["eval", str(solution), "--at", "0.5"]) == 2
    assert f"column {column!r} holds a value that is not a number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the CSV reader: chunks, the loadtxt fallback and the worker threads
# ---------------------------------------------------------------------------

def _run(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _loadtxt_run(monkeypatch, argv):
    """main(argv) with every CSV body read by np.loadtxt, as when the numpy parser returns None."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_csv_body", lambda *args: None)
        return _run(argv)


def _solved(tmp_path, payload):
    solution = tmp_path / "solution.csv"
    assert main(["solve", str(write_config(tmp_path, payload)), "--output", str(solution), "--quiet"]) == 0
    return solution


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chunk", ["few-bytes", "one-row", "cuts-cells"])
@pytest.mark.parametrize("payload", [SCALAR_FINE_CONFIG, CONSTANT_CONFIG], ids=["n0", "n2"])
def test_eval_output_does_not_depend_on_the_chunks(tmp_path, monkeypatch, payload, chunk, cpus):
    solution = _solved(tmp_path, payload)
    argv = ["eval", str(solution), "--at", "0,0.1,0.25,0.3,0.5,0.7,0.999,1"]
    expected = _loadtxt_run(monkeypatch, argv)
    assert expected[0] == 0
    first_row = solution.read_bytes().split(b"\r\n")[1]
    monkeypatch.setattr(cli, "_CHUNK_BYTES", {"few-bytes": 5, "one-row": len(first_row) + 2, "cuts-cells": 100}[chunk])
    monkeypatch.setattr(_pool, "_cpus", lambda: cpus)
    assert _run(argv) == expected


@pytest.mark.parametrize("edit", ["oops", "nan", "-inf", "1E5", "+1", "ragged"])
@pytest.mark.parametrize("row", [1, -2], ids=["first-chunk", "last-chunk"])
def test_cells_off_the_grammar_end_as_with_loadtxt(tmp_path, monkeypatch, row, edit):
    solution = _solved(tmp_path, SCALAR_FINE_CONFIG)
    lines = solution.read_bytes().split(b"\r\n")
    x = lines[row].split(b",")[0]
    lines[row] = x if edit == "ragged" else x + b"," + edit.encode()
    solution.write_bytes(b"\r\n".join(lines))
    argv = ["eval", str(solution), "--at", "0.5"]
    expected = _loadtxt_run(monkeypatch, argv)
    assert expected[0] == (0 if edit in ("1E5", "+1") else 2)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 256)
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    assert _run(argv) == expected


def test_eval_joins_its_workers_and_raises_no_warning(tmp_path, monkeypatch):
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_pool.threading, "Thread", Recording)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 4)  # one row a chunk
    monkeypatch.setattr(_pool, "_cpus", lambda: 4)
    pools = []
    rows = {
        "three-rows": ["0,1", "0.5,2", "1,3"],
        "ten-rows": [f"{k / 9!r},{k}" for k in range(10)],
        "loadtxt-fallback": ["0,1", "0.5,1E5", "1,3"],
        "loadtxt-error": ["0,1", "0.5,oops", "1,3"],
        # The cast of 1.797693134862316e308 to float64 overflows in the worker.
        "overflow": ["0,1", "0.5,1.797693134862316e+308", "1,3e-320"],
    }
    codes = {}
    for name, body in rows.items():
        solution = tmp_path / f"{name}.csv"
        solution.write_bytes("".join(f"{row}\r\n" for row in ["x,value", *body]).encode())
        before, threads = threading.active_count(), len(started)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes[name] = _run(["eval", str(solution), "--at", "0.5"])[0]
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in started)
        pools.append(len(started) - threads)
    assert codes == {"three-rows": 0, "ten-rows": 0, "loadtxt-fallback": 0, "loadtxt-error": 2, "overflow": 2}
    assert pools == [3, 4, 3, 3, 3]  # min(CPUs, chunks)

    # One CPU parses in the calling thread, whose numpy errstate the parser overrides.
    monkeypatch.setattr(_pool, "_cpus", lambda: 1)
    with np.errstate(all="raise"):
        assert _run(["eval", str(tmp_path / "overflow.csv"), "--at", "0.5"])[0] == 2
    assert len(started) == 16


@pytest.mark.parametrize("fast", [True, False], ids=["numpy-parser", "loadtxt"])
def test_eval_refuses_a_body_past_the_cell_bound(tmp_path, monkeypatch, fast):
    solution = tmp_path / "solution.csv"
    solution.write_bytes(b"x,value\r\n" + b"".join(f"{k / 49!r},{k}\r\n".encode() for k in range(50)))
    loadtxt, read = np.loadtxt, []

    def recording(*args, **kwargs):
        assert not fast, "the numpy parser reads this body"
        read.append(loadtxt(*args, **kwargs))
        return read[-1]

    if not fast:
        monkeypatch.setattr(cli, "_read_csv_body", lambda *args: None)
    monkeypatch.setattr(np, "loadtxt", recording)
    monkeypatch.setattr(cli, "_MAX_BODY_CELLS", 100)
    assert _run(["eval", str(solution), "--at", "0.5"])[:2] == (0, "x,value,source\r\n0.5,24.5,interpolated\r\n")
    monkeypatch.setattr(cli, "_MAX_BODY_CELLS", 99)
    assert _run(["eval", str(solution), "--at", "0.5"]) == (
        2, "", "config error: <solution>: more than 99 cells, the most a solve output holds\n"
    )
    assert [len(matrix) for matrix in read] == ([] if fast else [50, 50])
    # np.loadtxt stops one row past the bound of 10 rows, not at the end of the file.
    monkeypatch.setattr(cli, "_MAX_BODY_CELLS", 20)
    assert _run(["eval", str(solution), "--at", "0.5"])[0] == 2
    assert [len(matrix) for matrix in read] == ([] if fast else [50, 50, 11])


def test_eval_refuses_a_json_body_past_the_cell_bound_before_reading_it(tmp_path, monkeypatch):
    # The widest rows solve writes: the two blades of n = 1, every float 24 bytes long.
    candidates = (-1.2345678901234567e-300 + np.arange(12) * 1.2345678901234567e-310).tolist()
    xs = np.array([x for x in candidates if len(repr(x)) == 24][:6])
    solution = tmp_path / "solution.json"
    cli._write_solution(solution, "json", xs, ["", "1"], [xs, xs])
    cells = 3 * len(xs)
    assert solution.stat().st_size == cli._JSON_CELL_BYTES * cells + 3
    at = f"--at={float(xs[0])!r}"
    monkeypatch.setattr(cli, "_MAX_BODY_CELLS", cells)
    assert _run(["eval", str(solution), at])[0] == 0

    def unread(*args, **kwargs):
        raise AssertionError("the body was parsed")

    monkeypatch.setattr(json, "loads", unread)
    monkeypatch.setattr(cli, "_MAX_BODY_CELLS", cells - 1)
    assert _run(["eval", str(solution), at]) == (
        2, "", f"config error: <solution>: more than {cells - 1} cells, the most a solve output holds\n"
    )


def test_eval_bounds_the_rows_it_reads_by_the_wider_of_header_and_body(tmp_path, monkeypatch):
    # np.loadtxt sizes its rows by the first body row: six cells under an x,value header
    # must bound the read at one row past 4 cells, not at 4 // 2 + 1 rows of six.
    solution = tmp_path / "solution.csv"
    solution.write_bytes(b"x,value\r\n\r\n" + b"".join(b"%d,1,2,3,4,5\r\n" % k for k in range(10)))
    loadtxt, read = np.loadtxt, []

    def recording(*args, **kwargs):
        read.append(loadtxt(*args, **kwargs))
        return read[-1]

    monkeypatch.setattr(cli, "_read_csv_body", lambda *args: None)  # the numpy parser counts cells before it reads
    monkeypatch.setattr(np, "loadtxt", recording)
    monkeypatch.setattr(cli, "_MAX_BODY_CELLS", 4)
    assert _run(["eval", str(solution), "--at", "0.5"]) == (
        2, "", "config error: <solution>: more than 4 cells, the most a solve output holds\n"
    )
    assert [matrix.shape for matrix in read] == [(1, 6)]


# ---------------------------------------------------------------------------
# the config boundary
# ---------------------------------------------------------------------------

FUZZ_BASES = [
    {
        "schema_version": 1,
        "n": 0,
        "grid_M": 32,
        "partition": {"interval": [0.0, 1.0], "N": 2},
        "q": [{"poly": [0.0, 1.0]}, {"samples": [0.5] * 33}],
        "s": [0.5, {"samples": [-0.25] * 33}],
        "space": {"tag": "Lp", "p": 2.0},
    },
    SCALAR_FINE_CONFIG,
    CONSTANT_CONFIG,
    {
        "schema_version": 1,
        "n": 2,
        "grid_M": 40,
        "fif": {"x": [0.0, 0.3, 1.0], "y": {"": [0.0, 1.0, -0.5], "12": [2.0, -1.0, 0.5]}},
        "s": [0.9, -0.9],
        "trials": 4,
        "space": {"tag": "Bspq", "s": 0.5, "p": 2.0, "q": 2.0},
    },
]
# Huge, tiny and non-finite numbers, booleans, strings, nulls and wrong shapes.
FUZZ_VALUES = [
    1.7976931348623157e308, -1e308, 1e20, 5e-324, -1e-300, 0.0, -0.0, 0.999, -1, 0, 1, 2, 3,
    2**26, 2**63, 10**30, float("nan"), float("inf"), True, False, None, "", "1", "Lp",
    [], [1.0], [[0.5]], [1e308, -1e308, 1e308], {}, {"const": 1e308}, {"poly": [1e308, 1e308]},
    {"samples": [1.0, 2.0]}, {"": 1.0}, {"12": {"const": -1e308}}, {"tag": "Lp", "p": 1e20},
]


def _paths(node, prefix=()):
    """Every place in a JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _exit_code(tmp_dir, config, command, quiet):
    cfg = tmp_dir / "problem.json"
    cfg.write_text(json.dumps(config))
    args = [command, str(cfg)] + (["--output", str(tmp_dir / "out.csv")] if command == "solve" else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args + (["--quiet"] if quiet else []))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_configs_end_in_an_exit_code(tmp_path_factory, data):
    config = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(config))[1:]))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_VALUES))))
    command = data.draw(st.sampled_from(["check", "solve"]))
    quiet = data.draw(st.booleans())
    assert _exit_code(tmp_path_factory.mktemp("fuzz"), config, command, quiet) in (0, 1, 2, 3)


# Solution cells: non-finite and non-numeric tokens, an integer past the float range,
# floats at its ends, the smallest subnormal and a negative zero.
SOLUTION_CELLS = [
    "nan", "NaN", "inf", "-Infinity", "true", "false", "null", "", '"1"', "1" + "0" * 400,
    "1e400", "-1.7e308", "1.7e308", "5e-324", "-0.0",
]
NON_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\x00"]


def _solution_text(fmt, names, rows):
    """A solution file with the cell texts written as they are."""
    if fmt == "csv":
        return "".join(",".join(row) + "\r\n" for row in [["x", *names], *rows])
    if names == ["value"]:
        items = ['{"x": %s, "value": %s}' % tuple(row) for row in rows]
    else:
        coeffs = ", ".join(f'"{name}": %s' for name in names)
        items = [('{"x": %s, "coeffs": {' + coeffs + "}}") % tuple(row) for row in rows]
    return "[\n" + ",\n".join(items) + "\n]\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_solution_files_end_in_an_exit_code(tmp_path_factory, data):
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    names = data.draw(st.sampled_from([["value"], ["", "1", "2", "12"]]))
    xs = np.linspace(0.0, 1.0, data.draw(st.integers(1, 5))).tolist()
    rows = [[repr(x)] + [repr(x - k / 8) for k in range(len(names))] for x in xs]
    if data.draw(st.booleans()):  # an x span past the float range
        rows[0][0], rows[-1][0] = "-1.7e308", "1.7e308"
    for _ in range(data.draw(st.integers(0, 2))):
        row, col = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(names)))
        rows[row][col] = data.draw(st.sampled_from(SOLUTION_CELLS))
    content = _solution_text(fmt, names, rows).encode()
    edit = data.draw(st.sampled_from(["none", "truncate", "insert"]))
    if edit != "none":
        cut = data.draw(st.integers(0, len(content)))
        rest = data.draw(st.sampled_from(NON_UTF8)) + content[cut:] if edit == "insert" else b""
        content = content[:cut] + rest
    path = tmp_path_factory.mktemp("fuzz") / f"solution.{fmt}"
    path.write_bytes(content)
    at = data.draw(st.sampled_from(["0.5", "0,1e308", "0.1,0.9", "-1e308", "1"]))
    # pyproject turns a RuntimeWarning into an error, which would escape main() here.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["eval", str(path), f"--at={at}"])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize(
    "base, changes, command, code",
    [
        # The probe and the gate overflow: their inf is printed, not warned about.
        (CONSTANT_CONFIG, {"s": [1.7976931348623157e308, 0.5]}, "check", 1),
        (CONSTANT_CONFIG, {"space": {"tag": "Lp", "p": 1e20}}, "check", 0),
        # Four interpolation tiles need four grid intervals.
        (SCALAR_FINE_CONFIG, {"grid_M": 3}, "solve", 2),
    ],
    ids=["probe-overflow", "gate-overflow", "fif-grid-below-N"],
)
def test_overflows_and_short_grids_end_in_their_exit_code(tmp_path, base, changes, command, code):
    assert _exit_code(tmp_path, dict(base, **changes), command, quiet=False) == code



# ---------------------------------------------------------------------------
# grids finer than the floats
# ---------------------------------------------------------------------------

def _grid_argv(tmp_dir, config, command, quiet):
    cfg = write_config(tmp_dir, config)
    argv = [command, str(cfg)] + (["--output", str(tmp_dir / "out.csv")] if command == "solve" else [])
    return argv + (["--quiet"] if quiet else [])


@pytest.mark.parametrize(
    "x, grid_m",
    [
        ([0, 5e-324, 1e-323], 8),
        ([1, 1.000000000000001, 1.000000000000002], 1024),
        ([1e6, 1000000.0000001, 1000000.0000002], 4096),
    ],
    ids=["subnormal-step", "near-one", "near-1e6"],
)
@pytest.mark.parametrize("command, quiet", [("solve", True), ("solve", False), ("check", True), ("check", False)])
def test_a_grid_finer_than_the_floats_exits_2_naming_grid_m(tmp_path, x, grid_m, command, quiet):
    config = {
        "schema_version": 1, "n": 0, "grid_M": grid_m, "fif": {"x": x, "y": [0, 1, 2]},
        "s": [0.5, 0.5], "space": {"tag": "Lp", "p": 2},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(_grid_argv(tmp_path, config, command, quiet))
    assert (code, out) == (2, "")
    assert err.startswith("config error: grid_M: grid step (x_hi - x_lo) / M = ")
    assert not (tmp_path / "out.csv").exists()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_solved_grid_reads_back_at_its_own_points(tmp_path_factory, data):
    """Knots from 1e-320 to 1e308 in magnitude: solve exits 0, 2 or 3 without a warning,
    and eval returns each written row at its own x, from the grid, with the same bits."""
    draw = data.draw
    start = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-320, 308))
    tiles = draw(st.sampled_from([2, 4]))
    if draw(st.booleans()):  # aligned: equal tiles and a multiple of N grid intervals
        fractions, grid_m = [k / tiles for k in range(tiles + 1)], tiles * draw(st.integers(1, 4096 // tiles))
    else:
        fractions, grid_m = {2: [0, 0.3, 1], 4: [0, 0.3, 0.7, 0.9, 1]}[tiles], draw(st.integers(tiles, 4096))
    if draw(st.booleans()):  # a grid step of 1/4 to 16 float spacings at the start
        width = float(np.spacing(abs(start))) * grid_m * 2.0 ** draw(st.floats(-2, 4))
    else:
        width = 10.0 ** draw(st.floats(-320, 308))
    x = [start + width * f for f in fractions]
    config = {
        "schema_version": 1, "n": 0, "grid_M": grid_m, "fif": {"x": x, "y": [(-1) ** k * k for k in range(len(x))]},
        "s": [0.5, -0.25, 0.5, -0.25][: len(x) - 1], "trials": 2, "space": {"tag": "Lp", "p": 2},
    }
    tmp_dir = tmp_path_factory.mktemp("grid")
    solution = tmp_dir / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(_grid_argv(tmp_dir, config, "solve", draw(st.booleans())))
        assert code in (0, 2, 3), err
        if code != 0:
            return
        header, rows = read_csv(solution)
        with open(solution, newline="") as fh:
            at = ",".join(row[0] for row in list(csv.reader(fh))[1:])
        code, out, err = _run(["eval", str(solution), f"--at={at}"])
    assert code == 0, err
    lines = list(csv.reader(io.StringIO(out)))
    assert lines[0] == [*header, "source"]
    assert [line[-1] for line in lines[1:]] == ["grid"] * len(rows)
    got = np.array([[float(cell) for cell in line[:-1]] for line in lines[1:]])
    np.testing.assert_array_equal(got.view(np.uint64), np.array(rows).view(np.uint64))
