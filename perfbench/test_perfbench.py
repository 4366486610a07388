"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import clifract  # noqa: E402
from clifract import cli  # noqa: E402

import oracle  # noqa: E402
from gen import blade_keys  # noqa: E402
import spans  # noqa: E402
from run import Tally  # noqa: E402

KNOTS = [0.0, 0.25, 0.5, 0.75, 1.0]
S = [0.5, -0.4, 0.3, 0.5]


def tiny_config(n: int, grid_m: int = 64) -> dict:
    rng = np.random.default_rng(5)
    y = rng.standard_normal(len(KNOTS)).tolist() if n == 0 else {
        key: rng.standard_normal(len(KNOTS)).tolist() for key in blade_keys(n)
    }
    return {
        "schema_version": 1, "n": n, "grid_M": grid_m, "fif": {"x": KNOTS, "y": y},
        "s": S, "space": {"tag": "Lp", "p": 2},
    }


def test_address_oracle_agrees_with_library_solve():
    config = tiny_config(2)
    params = clifract.clifford_fif_from_data(2, KNOTS, config["fif"]["y"], S)
    psi = clifract.clifford_fixed_point(params, 64, tol=1e-13, gamma=0.5).function
    knots, y, s = oracle.problem_arrays(config)
    want = oracle.fif_values(knots, y, s, np.linspace(0.0, 1.0, 65))
    got = np.array([psi.component(mask).values for mask in range(4)])
    assert np.max(np.abs(got - want)) < 1e-12


def test_sign_oracle_agrees_with_library_products():
    n = 3
    for a in range(1 << n):
        for b in range(1 << n):
            product = clifract.Multivector.basis(a, n) * clifract.Multivector.basis(b, n)
            assert product.coeffs[a ^ b] == oracle.blade_sign(a, b)
        assert clifract.Multivector.basis(a, n).conj().coeffs[a] == oracle.conj_sign(a)


def test_pointwise_and_mv_mul_checks_accept_library_results():
    config = tiny_config(3)
    params = clifract.clifford_fif_from_data(3, KNOTS, config["fif"]["y"], S)
    psi = clifract.clifford_fixed_point(params, 64, tol=1e-12, gamma=0.5).function
    product = clifract.pointwise_product(psi, clifract.pointwise_conj(psi))
    rows = [0, 17, 40, 64]
    rng = np.random.default_rng(1)
    x = clifract.Multivector(4, rng.standard_normal(16))
    y = clifract.Multivector(4, rng.standard_normal(16))
    samples = {
        "psi": np.array([psi.value_at(j).coeffs for j in rows]),
        "product": np.array([product.value_at(j).coeffs for j in rows]),
        "product_targets": np.arange(8),
        "mv_n4_x": x.coeffs, "mv_n4_y": y.coeffs, "mv_n4_z": (x * y).coeffs,
        "mv_n4_targets": np.arange(16),
    }
    assert oracle.check_library_solve(samples, config, rows) <= 1e-10
    assert oracle.check_pointwise(samples) < 1e-12
    assert oracle.check_mv_mul(samples, 4) < 1e-12
    samples["mv_n4_z"] = samples["mv_n4_z"] * -1.0
    with pytest.raises(oracle.OutputError):
        oracle.check_mv_mul(samples, 4)


def span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_covered_child_time():
    trace = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("c", 5.0, 6.0, parent=2),
        span("d", 7.5, 9.0, parent=2),  # runs past its parent: only 7.5..8 counts
    ]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 2.5, 1.0, 1.5])


def test_layer_metrics_leave_out_missing_spans_instead_of_zero():
    trace = [span("cli.main", 0.0, 2.0), span("engine.rb_apply", 0.5, 1.0, parent=0)]
    metrics = spans.layer_metrics(trace, ["lift.residual"], {})
    assert metrics["cli.self_s"]["value"] == pytest.approx(1.5)
    assert metrics["engine.rb_apply_calls"]["value"] == 1
    assert metrics["lift.pointwise_conj_s"]["value"] == 0.0
    assert "lift.residual_s" not in metrics


def test_tracer_reports_a_vanished_function_as_missing():
    tracer = spans.Tracer()
    original = clifract.engine.gamma_gate
    targets = spans.TARGETS + (("clifract.engine", "no_such_function", "engine.gone", None),)
    missing = tracer.install(targets)
    try:
        assert missing == ["engine.gone"]
        assert clifract.cli.gamma_gate is not original
        clifract.gamma_gate(clifract.SpaceSpec.lp(2.0), clifract.fif_from_data(KNOTS, [0, 1, 0, 1, 0], S))
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["engine.gate"]
    assert clifract.cli.gamma_gate is original


def solve_tiny(tmp_path: Path, n: int) -> tuple[dict, Path]:
    config = tiny_config(n)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", str(cfg_path), "--quiet", "--output", str(out)]) == 0
    return config, out


@pytest.mark.parametrize("n", [0, 2])
def test_corrupted_solution_counts_as_failed(tmp_path, n):
    config, out = solve_tiny(tmp_path, n)
    rows = list(range(0, 65, 4))
    tally = Tally()
    tally.check("solve", 0, lambda: oracle.check_solution_csv(out, config, rows))
    assert (tally.attempted, tally.failed) == (1, 0)

    lines = out.read_text().splitlines()
    cells = lines[9].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[9] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    tally.check("solve", 0, lambda: oracle.check_solution_csv(out, config, rows))
    out.write_text("x,value\n1,2\n")
    tally.check("solve", 0, lambda: oracle.check_solution_csv(out, config, rows))
    tally.check("solve", 0, lambda: oracle.check_solution_csv(tmp_path / "absent.csv", config, rows))
    tally.check("solve", 3, lambda: 0.0)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert len(tally.failures) == 4


def test_eval_and_gate_checks_accept_cli_output(tmp_path):
    config, out = solve_tiny(tmp_path, 2)
    points = [0.0, 0.25, 0.3, 0.61, 1.0]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(["eval", str(out), "--at", ",".join(map(repr, points))])
    assert oracle.check_eval_output(buffer.getvalue(), config, points) <= 1e-10
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.main(["check", str(tmp_path / "cfg.json"), "--quiet"])
    assert oracle.check_gate_output(buffer.getvalue(), config) <= oracle.GATE_RTOL
