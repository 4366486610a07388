"""Run one workload's operations inside this interpreter, optionally traced.

CLI workloads call `clifract.cli.main` for solve, check and eval; the
library workload solves an n = 9 problem, forms psi * conj(psi) and
multiplies dense multivectors.  Outputs go to the work directory for the
oracle; op wall times, and spans when traced, go to the --out JSON file.

    python3 perfbench/session.py --manifest M --workload W --work DIR --trace 1 --out F
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

from oracle import sample_targets
from spans import Tracer

CLI_OPS = ("solve", "check", "eval")
# Sampled output coefficients the oracle recomputes per product.
PRODUCT_TARGETS = 8
MV_MUL_DIMS = (10, 11)


def cli_args(op: str, entry: dict, work: Path) -> list[str]:
    """Arguments of `clifract <op>` for a CLI workload."""
    out = str(work / "solution.csv")
    if op == "solve":
        return ["solve", entry["config_path"], "--quiet", "--output", out]
    if op == "check":
        return ["check", entry["config_path"], "--quiet"]
    points = ",".join(format(x, ".17g") for x in entry["eval_points"])
    return ["eval", out, "--at", points]


def run_cli(entry: dict, work: Path, tracer: Tracer | None) -> dict:
    from clifract import cli

    walls = {}
    for run, op in enumerate(CLI_OPS):
        buffer = io.StringIO()
        if tracer is not None:
            tracer.run = run
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(cli_args(op, entry, work))
        walls[op] = time.perf_counter() - start
        (work / f"{op}.out").write_text(buffer.getvalue())
        (work / f"{op}.code").write_text(str(code))
    return walls


def run_library(entry: dict, work: Path, tracer: Tracer | None) -> dict:
    """The README's library session, with the solve on an n = 9 problem."""
    import clifract
    from clifract.config import build_problem, load_config

    setup = build_problem(load_config(entry["config_path"]))
    cfg = setup.config
    gamma = max(abs(v) for v in cfg.s)
    idx = np.asarray(entry["oracle_indices"])
    walls, samples = {}, {}

    def timed(run, op, fn):
        if tracer is not None:
            tracer.run = run
        start = time.perf_counter()
        result = fn()
        walls[op] = time.perf_counter() - start
        return result

    psi = timed(0, "solve", lambda: clifract.clifford_fixed_point(
        setup.params, cfg.grid_m, tol=cfg.tol, gamma=gamma, max_iter=cfg.max_iter
    ).function)
    product = timed(1, "pointwise", lambda: clifract.pointwise_product(psi, clifract.pointwise_conj(psi)))
    size = 1 << psi.n
    samples["psi"] = np.array([psi.value_at(int(j)).coeffs for j in idx])
    samples["product"] = np.array([product.value_at(int(j)).coeffs for j in idx])
    samples["product_targets"] = sample_targets(size, PRODUCT_TARGETS, entry["mv_seed"])

    rng = np.random.default_rng(entry["mv_seed"])
    for run, n in enumerate(MV_MUL_DIMS, start=2):
        x = clifract.Multivector(n, rng.standard_normal(1 << n))
        y = clifract.Multivector(n, rng.standard_normal(1 << n))
        z = timed(run, f"mv_mul_n{n}", lambda: clifract.mv_mul(x, y))
        samples.update({f"mv_n{n}_x": x.coeffs, f"mv_n{n}_y": y.coeffs, f"mv_n{n}_z": z.coeffs})
        samples[f"mv_n{n}_targets"] = sample_targets(1 << n, PRODUCT_TARGETS, [*entry["mv_seed"], n])
    np.savez(work / "library.npz", **samples)
    return walls


def run_session(entry: dict, work: Path, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    missing = tracer.install() if tracer is not None else []
    try:
        start = time.perf_counter()
        runner = run_cli if entry["kind"] == "cli" else run_library
        walls = runner(entry, work, tracer)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "runs": list(walls),
        "walls": walls,
        "wall_s": wall,
        "missing": missing,
        "spans": tracer.to_json() if tracer is not None else [],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    entry = json.loads(args.manifest.read_text())["workloads"][args.workload]
    result = run_session(entry, args.work, bool(args.trace))
    args.out.write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
