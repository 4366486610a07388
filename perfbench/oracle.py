"""Independent oracles for checking clifract's outputs.

Nothing here imports clifract or reuses its plans and sign tables.  Fixed
points come from unrolling psi(L_i x) = q_i(x) + s_i psi(x) along each
point's address; blade product signs come from sorting explicit index
lists; the Lp gate comes from its formula over the tile widths.
"""

from __future__ import annotations

import csv
import io
import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from gen import blade_keys

# max|s| = 0.5, so 64 levels leave a truncation error below 2^-64 * sup|psi|.
DEPTH = 64
# Stated bound on the documented O(grid_M^-2)-order interpolation bias of the
# non-aligned path on interp_n4 (knots [0, 0.3, 0.7, 1], grid_M = 2^16,
# standard-normal data), measured near 4e-4 when this bound was set.
INTERP_BIAS_BOUND = 2e-3
GATE_RTOL = 1e-12


class OutputError(Exception):
    """An output that is missing, unparsable or outside the oracle tolerance."""


def _tile(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    # A junction belongs to the tile on its left; the fixed point is
    # continuous there, so the choice only fixes which address is unrolled.
    return np.searchsorted(knots[1:-1], x, side="left")


def fif_values(knots, y, s, x) -> np.ndarray:
    """The interpolation fixed point at points `x`, one row per dataset.

    `y` has shape (datasets, len(knots)).  q_i is the affine function with
    q_i(x_0) = y_{i} - s_i y_0 and q_i(x_N) = y_{i+1} - s_i y_N.
    """
    knots = np.asarray(knots, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    s = np.asarray(s, dtype=float)
    left = y[:, :-1] - s * y[:, :1]
    right = y[:, 1:] - s * y[:, -1:]
    span = knots[-1] - knots[0]
    pos = np.asarray(x, dtype=float).copy()
    weight = np.ones_like(pos)
    total = np.zeros((y.shape[0], pos.size))
    for _ in range(DEPTH):
        i = _tile(knots, pos)
        t = (pos - knots[i]) / (knots[i + 1] - knots[i])
        total += weight * (left[:, i] + (right[:, i] - left[:, i]) * t)
        weight = weight * s[i]
        pos = knots[0] + t * span
    return total


def lp_gate(knots, s, p: float) -> float:
    knots = np.asarray(knots, dtype=float)
    widths = np.diff(knots) / (knots[-1] - knots[0])
    return float(np.sum(widths * np.abs(np.asarray(s, dtype=float)) ** p))


# ---------------------------------------------------------------------------
# Blade signs by index sorting
# ---------------------------------------------------------------------------


def indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@lru_cache(maxsize=None)
def blade_sign(a: int, b: int) -> int:
    """Sign of e_a e_b: sort the concatenated index list by adjacent swaps,
    then cancel each adjacent equal pair at -1 (every e_i squares to -1)."""
    seq = indices(a) + indices(b)
    swaps = 0
    for end in range(len(seq) - 1, 0, -1):
        for j in range(end):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    cancelled = sum(1 for j in range(len(seq) - 1) if seq[j] == seq[j + 1])
    return -1 if (swaps + cancelled) % 2 else 1


def conj_sign(mask: int) -> int:
    """Reverse the g factors (g(g-1)/2 swaps), then negate each of them."""
    g = len(indices(mask))
    return -1 if (g * (g - 1) // 2 + g) % 2 else 1


def product_coeff(x: np.ndarray, y: np.ndarray, target: int) -> np.ndarray:
    """Blade `target` of x*y for coefficient arrays with blades on the last axis."""
    total = np.zeros(x.shape[:-1])
    for a in range(x.shape[-1]):
        total = total + blade_sign(a, a ^ target) * x[..., a] * y[..., a ^ target]
    return total


def sample_targets(size: int, count: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


# ---------------------------------------------------------------------------
# Checks of CLI outputs against the oracle
# ---------------------------------------------------------------------------


def problem_arrays(config: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(knots, y as datasets x knots in blade-mask order, s) of a fif config."""
    knots = np.asarray(config["fif"]["x"], dtype=float)
    y = config["fif"]["y"]
    rows = [y] if config["n"] == 0 else [y[key] for key in blade_keys(config["n"])]
    return knots, np.asarray(rows, dtype=float), np.asarray(config["s"], dtype=float)


def tolerance(config: dict) -> float:
    """Allowed sup error: tol on aligned grids, the stated bias bound otherwise."""
    knots = np.asarray(config["fif"]["x"], dtype=float)
    cells = (knots - knots[0]) / (knots[-1] - knots[0]) * config["grid_M"]
    aligned = np.allclose(cells, np.rint(cells), rtol=0.0, atol=1e-9)
    return config.get("tol", 1e-10) if aligned else INTERP_BIAS_BOUND


def _columns(config: dict) -> list[str]:
    return ["value"] if config["n"] == 0 else blade_keys(config["n"])


def _compare(got: np.ndarray, want: np.ndarray, limit: float, what: str) -> float:
    if got.shape != want.shape:
        raise OutputError(f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= limit:
        raise OutputError(f"{what}: error {err:.3e} exceeds {limit:.3e}")
    return err


def check_solution_csv(path: Path, config: dict, grid_indices) -> float:
    """Check sampled rows of a solve output; return the largest error seen."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OutputError(f"solution unreadable: {exc}") from exc
    grid_m = config["grid_M"]
    header = ["x"] + _columns(config)
    if not lines or next(csv.reader([lines[0]])) != header:
        raise OutputError("solution header does not list x and every blade")
    if len(lines) != grid_m + 2:
        raise OutputError(f"solution has {len(lines) - 1} rows, expected {grid_m + 1}")
    knots, y, s = problem_arrays(config)
    idx = np.asarray(grid_indices)
    try:
        rows = np.array([[float(c) for c in lines[j + 1].split(",")] for j in idx])
    except ValueError as exc:
        raise OutputError(f"solution row unparsable: {exc}") from exc
    xs = knots[0] + (knots[-1] - knots[0]) / grid_m * idx
    _compare(rows[:, 0], xs, 1e-15, "solution x column")
    want = fif_values(knots, y, s, xs).T
    return _compare(rows[:, 1:], want, tolerance(config), "solution values")


def _grid_oracle(config: dict, x: np.ndarray) -> np.ndarray:
    """What `eval` should print: the fixed point at grid points, and linear
    interpolation between neighbouring grid values in between."""
    knots, y, s = problem_arrays(config)
    grid_m = config["grid_M"]
    lo, span = knots[0], knots[-1] - knots[0]
    u = (x - lo) / span * grid_m
    left = np.clip(np.floor(u), 0, grid_m - 1)
    w = u - left
    x_left = lo + span / grid_m * left
    x_right = lo + span / grid_m * (left + 1)
    at_left = fif_values(knots, y, s, x_left)
    at_right = fif_values(knots, y, s, x_right)
    return ((1.0 - w) * at_left + w * at_right).T


def check_eval_output(text: str, config: dict, points) -> float:
    """Check `clifract eval` stdout at the seeded points; return the largest error."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["x"] + _columns(config) + ["source"]
    if not rows or rows[0] != header:
        raise OutputError("eval header does not list x, every blade and source")
    body = rows[1:]
    points = np.asarray(points, dtype=float)
    if len(body) != len(points):
        raise OutputError(f"eval printed {len(body)} rows for {len(points)} points")
    try:
        values = np.array([[float(c) for c in row[:-1]] for row in body])
    except ValueError as exc:
        raise OutputError(f"eval row unparsable: {exc}") from exc
    _compare(values[:, 0], points, 0.0, "eval x column")
    grid_m = config["grid_M"]
    knots = config["fif"]["x"]
    u = (points - knots[0]) / (knots[-1] - knots[0]) * grid_m
    expected = np.where(u == np.rint(u), "grid", "interpolated")
    if [row[-1] for row in body] != expected.tolist():
        raise OutputError("eval source column mislabels grid and interpolated points")
    want = _grid_oracle(config, points)
    return _compare(values[:, 1:], want, tolerance(config), "eval values")


_GATE_LINE = re.compile(r"gamma = (\S+) \((passes|FAILS)\)")


def check_gate_output(text: str, config: dict) -> float:
    """Check the verdict line of `clifract check --quiet`; return the relative error."""
    match = _GATE_LINE.search(text)
    if not match:
        raise OutputError("check printed no verdict line")
    try:
        got = float(match.group(1))
    except ValueError as exc:
        raise OutputError(f"check verdict unparsable: {exc}") from exc
    want = lp_gate(config["fif"]["x"], config["s"], config["space"]["p"])
    err = abs(got - want) / want
    if not err <= GATE_RTOL or match.group(2) != ("passes" if want < 1 else "FAILS"):
        raise OutputError(f"check gamma {got!r} ({match.group(2)}), oracle {want!r}")
    return err


def check_library_solve(samples: dict, config: dict, grid_indices) -> float:
    """Check the library solve's rows at `grid_indices` (blades on the last axis)."""
    knots, y, s = problem_arrays(config)
    idx = np.asarray(grid_indices)
    xs = knots[0] + (knots[-1] - knots[0]) / config["grid_M"] * idx
    return _compare(np.asarray(samples["psi"]), fif_values(knots, y, s, xs).T, tolerance(config), "psi")


def check_pointwise(samples: dict) -> float:
    """Check sampled coefficients of psi * conj(psi) at the saved grid rows."""
    psi = np.asarray(samples["psi"])
    size = psi.shape[-1]
    conj = psi * np.array([conj_sign(m) for m in range(size)])
    product = np.asarray(samples["product"])
    limit = 1e-12 * size * float(np.max(np.abs(psi))) ** 2
    worst = 0.0
    for target in np.asarray(samples["product_targets"]):
        want = product_coeff(psi, conj, int(target))
        worst = max(worst, _compare(product[:, int(target)], want, limit, "pointwise product"))
    return worst


def check_mv_mul(samples: dict, n: int) -> float:
    """Check sampled coefficients of one dense mv_mul product."""
    x, y, z = (np.asarray(samples[f"mv_n{n}_{part}"]) for part in ("x", "y", "z"))
    limit = 1e-12 * float(np.sum(np.abs(x)) * np.max(np.abs(y)))
    worst = 0.0
    for target in np.asarray(samples[f"mv_n{n}_targets"]):
        worst = max(worst, _compare(z[int(target)], product_coeff(x, y, int(target)), limit, f"mv_mul n={n}"))
    return worst
