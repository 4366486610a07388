"""Seeded input generator for the clifract benchmark.

Writes one JSON problem config per CLI workload plus `manifest.json`, which
records the seed, why each workload exists, and the seeded points the
oracle and `clifract eval` use.  The same seed always gives the same files.

    python3 perfbench/gen.py --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# Shared multipliers, truncated to the tile count; their Lp(p=2) gate is < 1.
S = (0.5, -0.4, 0.3, 0.5)
UNIFORM_5 = (0.0, 0.25, 0.5, 0.75, 1.0)
# Knots whose tile widths do not divide the grid, so the solver interpolates.
SKEWED_4 = (0.0, 0.3, 0.7, 1.0)
ORACLE_POINTS = 32
EVAL_POINTS = 64

# name -> (kind, n, knots, grid_M, why).
WORKLOADS = {
    "scalar_fine": (
        "cli", 0, UNIFORM_5, 2**20,
        "scalar n=0 on 2^20 intervals, aligned: 8 MB arrays; the CSV writer and the probe dominate, lift and algebra do no work",
    ),
    "interp_n4": (
        "cli", 4, SKEWED_4, 2**16,
        "16 blades on 2^16 intervals with knots [0,0.3,0.7,1] that miss the grid: the interpolating path an aligned-only change bypasses",
    ),
    "algebra_n9": (
        "library", 9, UNIFORM_5, 4096,
        "library use: solve an n=9 problem (512 blades, 4096 intervals), psi*conj(psi) pointwise at 4096 points, dense mv_mul at n=10 and n=11; no CLI command touches algebra",
    ),
}


def blade_keys(n: int) -> list[str]:
    """Blade keys in mask order: '' for the scalar, then '1', '2', '12', ..."""
    return ["".join(str(i + 1) for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def _problem_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, list(WORKLOADS).index(workload)])


def make_workload(seed: int, workload: str) -> dict:
    """Config plus the seeded oracle grid indices and eval points of one workload."""
    kind, n, knots, grid_m, why = WORKLOADS[workload]
    rng = _problem_rng(seed, workload)
    n_tiles = len(knots) - 1
    if n == 0:
        y = rng.standard_normal(len(knots)).tolist()
    else:
        y = {key: rng.standard_normal(len(knots)).tolist() for key in blade_keys(n)}
    config = {
        "schema_version": 1,
        "n": n,
        "grid_M": grid_m,
        "fif": {"x": list(knots), "y": y},
        "s": list(S[:n_tiles]),
        "space": {"tag": "Lp", "p": 2},
    }
    indices = np.sort(rng.choice(grid_m + 1, size=ORACLE_POINTS, replace=False))
    on_grid = np.sort(rng.choice(grid_m + 1, size=EVAL_POINTS // 2, replace=False)) / grid_m
    off_grid = rng.uniform(knots[0], knots[-1], size=EVAL_POINTS - EVAL_POINTS // 2)
    points = np.concatenate([on_grid * (knots[-1] - knots[0]) + knots[0], off_grid])
    return {
        "kind": kind,
        "why": why,
        "config": config,
        "oracle_indices": indices.tolist(),
        "eval_points": points.tolist(),
        "mv_seed": [seed, 99],
    }


def write_inputs(seed: int, out_dir: Path) -> dict:
    """Write every workload's config and the manifest; return the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": seed, "workloads": {}}
    for name in WORKLOADS:
        entry = make_workload(seed, name)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(entry.pop("config"), indent=1) + "\n")
        entry["config_path"] = str(path)
        manifest["workloads"][name] = entry
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
