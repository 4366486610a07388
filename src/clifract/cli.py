"""Command line front end: solve problems, check contraction gates, read solutions.

Commands:
  solve <config>            iterate to the fixed point and export samples
  check <config>            print the gate constants and the observed factor
  eval <solution> --at ...  look up solution values, interpolating off-grid

Exit codes: 0 success (for check: configured gate < 1), 1 failed gate check,
2 configuration errors, 3 gate >= 1 on solve, no sup-norm certificate, or
non-convergence.  CSV output
follows RFC 4180 with floats at 17 significant digits; identical configs and
seeds produce byte-identical files.  CLIFRACT_OUTPUT_DIR, when set, anchors
relative output paths.  With --quiet, solve and check skip the random
contraction probe and the residual, which only their reports print.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .algebra import blade_key
from .config import ConfigError, ProblemSetup, build_problem, load_config
from .engine import (
    ConvergenceError,
    SpaceSpec,
    _grid_points,
    _sup_factor,
    empirical_gamma,
    field_sup,
    fixed_point,
    gamma_gate,
    rb_apply,
)
from .lift import clifford_empirical_gamma, clifford_fixed_point, residual

__all__ = ["main"]

OUTPUT_DIR_ENV = "CLIFRACT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

_BLOCK_ROWS = 4096


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifract",
        description="Clifford-valued fractal interpolation solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem config and export the fixed point")
    solve.add_argument("config", help="path to a JSON problem config")
    solve.add_argument("--output", help="output file path (default: <config stem>.out.<format>)")
    solve.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    solve.add_argument("--quiet", action="store_true", help="suppress the solve report")
    solve.set_defaults(handler=_cmd_solve)

    check = sub.add_parser("check", help="evaluate the contraction gates for a config")
    check.add_argument("config", help="path to a JSON problem config")
    check.add_argument("--quiet", action="store_true", help="print only the verdict line")
    check.set_defaults(handler=_cmd_check)

    ev = sub.add_parser("eval", help="evaluate an exported solution at given points")
    ev.add_argument("solution", help="solution file written by solve (csv or json)")
    ev.add_argument("--at", required=True, help="comma-separated x values")
    ev.set_defaults(handler=_cmd_eval)
    return parser


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _resolve_output(args, setup: ProblemSetup, fmt: str) -> Path:
    out_cfg = setup.config.output or {}
    raw = args.output or out_cfg.get("path") or f"{Path(args.config).stem}.out.{fmt}"
    path = Path(raw)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _probe(setup: ProblemSetup) -> float:
    """The seeded random contraction probe of the problem's operator."""
    cfg = setup.config
    probe = empirical_gamma if setup.scalar_mode else clifford_empirical_gamma
    return probe(setup.params, cfg.grid_m, cfg.trials, cfg.seed)


def _cmd_solve(args) -> int:
    setup = build_problem(load_config(args.config))
    cfg = setup.config
    params = setup.params
    gate = gamma_gate(cfg.space, params)
    sup_factor = max(field_sup(entry, setup.partition) for entry in params.s)

    if not gate < 1.0:
        print(
            f"gate failed: gamma[{cfg.space.tag}] = {_fmt(gate)} >= 1; no output written",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE

    # Aligned grids certify their stop by rho_N and do not read gamma.  The
    # Banach rule of an interpolating grid needs its sup-norm factor below 1:
    # sup_factor bounds the plan's exact max|s_vals| from above.
    gamma = sup_factor
    if not sup_factor < 1.0:
        aligned, factor = _sup_factor(params, cfg.grid_m)
        if not (aligned or factor < 1.0):
            print(
                f"no certificate: the sup-norm factor max|s| = {_fmt(factor)} >= 1 "
                "on an interpolating grid; no output written",
                file=sys.stderr,
            )
            return EXIT_NO_CONVERGENCE
        gamma = 0.0 if aligned else factor
    fmt = args.format or (cfg.output or {}).get("format") or "csv"
    out_path = _resolve_output(args, setup, fmt)

    solver = fixed_point if setup.scalar_mode else clifford_fixed_point
    try:
        result = solver(params, cfg.grid_m, tol=cfg.tol, gamma=gamma, max_iter=cfg.max_iter)
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    psi = result.function

    out_path.parent.mkdir(parents=True, exist_ok=True)
    if setup.scalar_mode:
        names, columns = ["value"], [psi.values]
    else:
        # One column per blade: stack rows, and one shared zero row for absent blades.
        names = [blade_key(mask) for mask in range(1 << psi.n)]
        rows, zero = dict(zip(psi.masks, psi.values)), np.zeros(psi.grid_m + 1)
        columns = [rows.get(mask, zero) for mask in range(1 << psi.n)]
    _write_solution(out_path, fmt, _grid_points(psi.partition, psi.grid_m), names, columns)

    if not args.quiet:
        if setup.scalar_mode:
            iterations = result.iterations
            resid = float(np.max(np.abs(rb_apply(params, psi).values - psi.values)))
        else:
            iterations = max(result.iterations.values(), default=1)
            resid = residual(params, psi)
        print(f"iterations: {iterations}")
        print(f"gamma[{cfg.space.tag}]: {_fmt(gate)}")
        print(f"empirical gamma: {_fmt(_probe(setup))}")
        print(f"residual: {_fmt(resid)}")
        print(f"output: {out_path}")
    return EXIT_OK


def _write_solution(
    path: Path, fmt: str, xs: np.ndarray, names: list[str], columns: list[np.ndarray]
) -> None:
    """Write one row per grid point; a lone `value` column is scalar mode.

    Blocks of rows bound the memory; each block is one row template applied
    with `%`.  The bytes are those of `csv.writer` with `format(v, ".17g")`
    cells, or of `json.dumps(rows, indent=2) + "\n"`, whose floats are
    `float.__repr__`, the `%r` of a Python float.
    """
    if fmt == "csv":
        row, sep = ",".join(["%.17g"] * (1 + len(columns))) + "\r\n", ""
    elif names == ["value"]:
        row, sep = '  {\n    "x": %r,\n    "value": %r\n  }', ",\n"
    else:
        coeffs = ",\n".join(f"      {json.dumps(name)}: %r" for name in names)
        row, sep = '  {\n    "x": %r,\n    "coeffs": {\n' + coeffs + "\n    }\n  }", ",\n"
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            csv.writer(fh).writerow(["x", *names])
        else:
            fh.write("[\n")
        for lo in range(0, len(xs), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            cells = np.column_stack([xs[block], *(col[block] for col in columns)])
            fh.write((sep if lo else "") + sep.join([row] * len(cells)) % tuple(cells.ravel().tolist()))
        if fmt == "json":
            fh.write("\n]\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _report_spaces(space: SpaceSpec) -> list[SpaceSpec]:
    """All six gates with the configured indices, defaulting the absent ones."""
    k = space.k if space.k is not None else 0
    alpha = space.alpha if space.alpha is not None else 1.0
    p = space.p if space.p is not None else 2.0
    q = space.q if space.q is not None else p
    s = space.s if space.s is not None else 1.0
    return [
        SpaceSpec.ck(k),
        SpaceSpec.ck_alpha(k, alpha),
        SpaceSpec.lp(p),
        SpaceSpec.sobolev(s, p),
        SpaceSpec.besov(s, p, q),
        SpaceSpec.triebel_lizorkin(s, p, q),
    ]


def _space_label(space: SpaceSpec) -> str:
    parts = [
        f"{name}={getattr(space, name)}"
        for name in ("k", "alpha", "p", "q", "s")
        if getattr(space, name) is not None
    ]
    return f"{space.tag}({', '.join(parts)})"


def _cmd_check(args) -> int:
    setup = build_problem(load_config(args.config))
    cfg = setup.config
    params = setup.params
    configured = gamma_gate(cfg.space, params)

    if not args.quiet:
        print(f"{'space':<28} {'gamma':<24} contraction")
        for spec in _report_spaces(cfg.space):
            value = gamma_gate(spec, params)
            print(f"{_space_label(spec):<28} {_fmt(value):<24} {'yes' if value < 1 else 'NO'}")
        print(f"{'empirical (sup norm)':<28} {_fmt(_probe(setup))}")
    verdict = "passes" if configured < 1.0 else "FAILS"
    print(f"configured {_space_label(cfg.space)}: gamma = {_fmt(configured)} ({verdict})")
    return EXIT_OK if configured < 1.0 else EXIT_GATE_FAILED


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _read_solution(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Returns (column names, x grid, value matrix of shape (len(xs), cols))."""
    try:
        with open(path, newline="") as fh:
            first = fh.readline()
            while first.isspace():
                first = fh.readline()
            if first.lstrip().startswith("["):
                rows = json.loads(first + fh.read())
                xs = np.array([row["x"] for row in rows], dtype=float)
                if "value" in rows[0]:
                    return ["value"], xs, np.array([[row["value"]] for row in rows], dtype=float)
                keys = list(rows[0]["coeffs"])
                data = [[row["coeffs"][key] for key in keys] for row in rows]
                return keys, xs, np.array(data, dtype=float)
            header = next(csv.reader([first]), None)
            if not header or header[0] != "x":
                raise ConfigError("<solution>", "expected a CSV header starting with 'x'")
            with warnings.catch_warnings():
                # A header-only file warns "input contained no data"; its shape says so.
                warnings.simplefilter("ignore")
                matrix = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError("<solution>", f"cannot read {path}: {exc}") from exc
    except (IndexError, KeyError, TypeError, ValueError, csv.Error) as exc:
        raise ConfigError("<solution>", f"malformed solution file: {exc!r}") from exc
    if matrix.shape[0] == 0 or matrix.shape[1] != len(header):
        raise ConfigError("<solution>", "malformed CSV body")
    return header[1:], matrix[:, 0], matrix[:, 1:]


def _cmd_eval(args) -> int:
    try:
        points = [float(tok) for tok in args.at.split(",") if tok.strip()]
    except ValueError:
        print("config error: --at expects comma-separated numbers", file=sys.stderr)
        return EXIT_CONFIG
    if not points:
        print("config error: --at expects at least one x value", file=sys.stderr)
        return EXIT_CONFIG
    names, xs, data = _read_solution(Path(args.solution))
    if not np.all(np.diff(xs) > 0):
        raise ConfigError("<solution>", "x must be strictly increasing")
    lo, hi = float(xs[0]), float(xs[-1])

    writer = csv.writer(sys.stdout)
    writer.writerow(["x"] + names + ["source"])
    for x in points:
        if not lo <= x <= hi:
            print(f"config error: x = {x:g} outside the domain [{lo:g}, {hi:g}]", file=sys.stderr)
            return EXIT_CONFIG
        # xs[right - 1] < x <= xs[right], since xs increases and lo <= x <= hi.
        right = int(np.searchsorted(xs, x))
        if x == xs[right]:
            row, source = data[right], "grid"
        else:
            left = right - 1
            w = (x - xs[left]) / (xs[right] - xs[left])
            row, source = (1.0 - w) * data[left] + w * data[right], "interpolated"
        writer.writerow([_fmt(x)] + [_fmt(v) for v in row] + [source])
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
