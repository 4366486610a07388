"""Read-Bajraktarevic operators on grid-sampled functions.

The operator acts piecewise through T f = q_i o L_i^-1 + s_i o L_i^-1 * f o L_i^-1
on the i-th tile, and its fixed point is the self-referential function with
psi(L_i(x)) = q_i(x) + s_i(x) psi(x).  Functions are carried on a uniform grid
of M intervals.  When every pre-image of a grid point is itself a grid point
("aligned") the pullbacks are exact table lookups; otherwise they interpolate
linearly, with O(M^-2) bias, through indices and weights the plan computes
once and np.interp's own formula, so every bit is np.interp's.

The grid also chooses the solver, and both stop on a sup-norm certificate
rho_k < 1 for the linear part A of T^k.  On an aligned grid T^N v = A + B *
v[P] has the shape of T, so pointer doubling reaches T^(2^k) in k steps, and
a row stops at the first N with rho_N * ||T^N 0||_inf / (1 - rho_N) <= tol,
rho_N = max|B| being exact.  On an interpolating grid Banach
iteration stops once step * (rho_1 + ... + rho_k) / (1 - rho_k) <= tol,
with rho_1 = max|s_vals| and, only when that is >= 1, the least k <= _K_MAX
with rho_k = max(|A|^k 1) < 1; none raises.  Either bound is the error
bound.  Iteration counts are Banach steps, powers of two on an aligned
grid.  The per-space contraction constants of gamma_gate are separate
certificates; the solvers do not read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from ._pool import ordered_map
from .partition import AffinePartition

__all__ = [
    "ConvergenceError",
    "Field",
    "FixedPointResult",
    "GridFunction",
    "Poly",
    "RBParams",
    "SPACE_TAGS",
    "SpaceSpec",
    "empirical_gamma",
    "fif_from_data",
    "field_sup",
    "fixed_point",
    "gamma_gate",
    "norm",
    "rb_apply",
]

# Pre-images further than this from the nearest grid index (in index units)
# mark a non-aligned configuration.
_ALIGN_ATOL = 1e-7
# Rows per block of the doubling solver's gather scratch.
_DOUBLING_BLOCK_ROWS = 32
# The largest power k of an interpolating T whose rho_k may certify a solve.
_K_MAX = 32


class ConvergenceError(RuntimeError):
    """The solve found no certified stop within max_iter steps; carries the
    step count reached, the last step size, and the first plan row without a
    stop (0 for a scalar solve, a blade's row for a lifted one)."""

    def __init__(self, message: str, *, iterations: int, residual: float, row: int = 0):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.row = row


@dataclass(frozen=True)
class Poly:
    """Polynomial with coefficients in increasing degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in cs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, x):
        # Horner from the top coefficient, the steps numpy.polynomial.polyval takes.
        return np.polyval(self.coeffs[::-1], x)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real function sampled on partition.grid(M) = linspace(x_lo, x_hi, M + 1), ending at x_hi."""

    partition: AffinePartition
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError("values must be a one-dimensional array of length M+1 >= 2")
        self.partition._check_grid(len(arr) - 1)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def grid_m(self) -> int:
        return len(self.values) - 1

    @property
    def xs(self) -> np.ndarray:
        return self.partition.grid(self.grid_m)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.partition == other.partition and np.array_equal(self.values, other.values)

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, factor: float) -> "GridFunction":
        return GridFunction(self.partition, self.values * float(factor))

    __rmul__ = __mul__

    @classmethod
    def zeros(cls, partition: AffinePartition, grid_m: int) -> "GridFunction":
        return cls(partition, np.zeros(grid_m + 1))

    @classmethod
    def sample(
        cls, partition: AffinePartition, grid_m: int, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "GridFunction":
        return cls(partition, np.asarray(fn(partition.grid(grid_m)), dtype=float))


# A q_i or s_i entry: a constant, a polynomial, or samples on the carrier grid.
Field = Union[float, int, Poly, GridFunction]


def _field_values(field: Field, points: np.ndarray, at: np.ndarray | _Interp) -> np.ndarray:
    """A constant or sampled field at one tile's pre-images `points`; samples are
    read at grid indices `at`, or pulled back by `at`, the tile's own stored
    weights.  Polynomials go through `_horner`."""
    if isinstance(field, GridFunction):
        return at(field.values) if isinstance(at, _Interp) else field.values[at]
    return np.full(len(points), float(field))


def field_sup(field: Field) -> float:
    """Sup norm of a multiplier: |c| for constants, the grid maximum for samples."""
    if isinstance(field, (int, float)):
        return abs(float(field))
    if isinstance(field, GridFunction):
        return field.sup_norm()
    raise TypeError(f"unsupported field type {type(field).__name__}")


def _check_problem(partition: AffinePartition, q: tuple, s: tuple, lifted: bool = False) -> None:
    """One q_i and one s_i per map, each s_i a constant or a GridFunction, and
    every q field a constant, a Poly or a GridFunction.  A lifted q_i maps
    blade keys to fields, and an error names the blade by its key."""
    n_maps = partition.size
    if len(q) != n_maps or len(s) != n_maps:
        raise ValueError(
            f"q and s must both have one entry per map: N={n_maps}, "
            f"len(q)={len(q)}, len(s)={len(s)}"
        )
    for i, entry in enumerate(s):
        if not isinstance(entry, (int, float, GridFunction)):
            raise ValueError(f"s[{i}] must be a constant or a GridFunction")
    for i, entry in enumerate(q):
        if lifted and not isinstance(entry, Mapping):
            raise ValueError(f"q[{i}] must map blade keys to fields")
        for key, field in entry.items() if lifted else [(None, entry)]:
            if not isinstance(field, (int, float, Poly, GridFunction)):
                where = f"q[{i}]" if key is None else f"q[{i}] blade {key!r}"
                raise ValueError(f"{where} must be a constant, Poly, or GridFunction")


@dataclass(frozen=True, eq=False)
class RBParams:
    """Problem data: the partition, one q_i and one bounded multiplier s_i per
    tile; the one-row case of `CliffordRBParams`."""

    partition: AffinePartition
    q: tuple[Field, ...]
    s: tuple[Field, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "s", tuple(self.s))
        _check_problem(self.partition, self.q, self.s)


@dataclass(frozen=True)
class FixedPointResult:
    function: GridFunction
    iterations: int
    error_bound: float


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Interp:
    """np.interp(x, xs, v) at fixed points x, searched once: point i gets np.interp's
    own slope * offset[i] + v[left[i]] with slope = (v[left[i] + 1] - v[left[i]]) /
    width[i], so every bit matches.  The points `copy_at`, on a grid point or at
    or past either end, copy v[copy_from] instead."""

    left: np.ndarray
    offset: np.ndarray
    width: np.ndarray
    copy_at: np.ndarray
    copy_from: np.ndarray

    @classmethod
    def at(cls, x: np.ndarray, xs: np.ndarray) -> "_Interp":
        j = np.searchsorted(xs, x, side="right") - 1
        src = np.clip(j, 0, len(xs) - 1)
        copy = (j != src) | (src == len(xs) - 1) | (xs[src] == x)
        left = np.minimum(src, len(xs) - 2)
        return cls(left, x - xs[left], xs[left + 1] - xs[left], np.flatnonzero(copy), src[copy])

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """A fresh array: every row of `values` (one row or a stack) at the points."""
        low = values.take(self.left, axis=-1)
        pulled = values[..., 1:].take(self.left, axis=-1)
        pulled -= low
        pulled /= self.width
        pulled *= self.offset
        pulled += low
        pulled[..., self.copy_at] = values[..., self.copy_from]
        return pulled

    def tile(self, rows: slice) -> "_Interp":
        """The points in `rows` alone, numbered from rows.start."""
        lo, hi = np.searchsorted(self.copy_at, [rows.start, rows.stop])
        copies = self.copy_at[lo:hi] - rows.start, self.copy_from[lo:hi]
        return _Interp(self.left[rows], self.offset[rows], self.width[rows], *copies)


@dataclass(frozen=True)
class _Plan:
    """The operator on one grid for K problems that differ only in q.

    Grid point j receives q_vals[k, j] + s_vals[j] * f(y_j), where y_j is the
    pre-image of x_j under its tile's map: the grid value at pre_idx[j] when
    every pre-image is a grid point, else f interpolated at y_j by `interp`.
    Row k of q_vals is the k-th q (one per blade).
    """

    pre_idx: np.ndarray | None
    interp: _Interp | None
    s_vals: np.ndarray  # shape (grid_m + 1,)
    q_vals: np.ndarray  # shape (K, grid_m + 1)

    def apply(self, values: np.ndarray, row: int = 0) -> np.ndarray:
        """T on one function with q row `row`, or on a (K, M+1) stack with q row k on row k."""
        if self.pre_idx is not None:
            pulled = values.take(self.pre_idx, axis=-1)
        else:
            pulled = self.interp(values)
        # Both branches give a fresh array, so finish in it: s * f + q has the bits of q + s * f.
        pulled *= self.s_vals
        pulled += self.q_vals[row] if values.ndim == 1 else self.q_vals
        return pulled


def _build_plan(params, grid_m: int, q_rows: Sequence[Sequence[Field]]) -> _Plan:
    """Plan for `params` (anything exposing `partition` and `s`) with one row per q.

    Each entry of `q_rows` holds one q field per tile; scalar problems pass
    `(params.q,)`, lifted ones one tuple per blade.  The pullback gathers
    when every pre-image lands on the grid and interpolates otherwise.
    """
    partition = params.partition
    xs = partition.grid(grid_m)
    h = partition.span / grid_m
    ranges = partition.tile_ranges(xs)

    pre_x = np.concatenate([amap.inverse(xs[rows]) for amap, rows in zip(partition.maps, ranges)])
    t = (pre_x - partition.x_lo) / h
    idx = np.rint(t).astype(np.int64)
    aligned = np.max(np.abs(t - idx)) < _ALIGN_ATOL and idx.min() >= 0 and idx.max() <= grid_m
    interp = None if aligned else _Interp.at(pre_x, xs)
    points = xs[idx] if aligned else pre_x

    s_vals = np.empty(grid_m + 1)
    q_vals = np.empty((len(q_rows), grid_m + 1))
    # Huge fields may overflow to inf or nan here; the solve and the probe meet those
    # as they meet their own overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rows in enumerate(ranges):
            for name, entry in [("q", q[i]) for q in q_rows] + [("s", params.s[i])]:
                if isinstance(entry, GridFunction) and (
                    entry.partition != partition or entry.grid_m != grid_m
                ):
                    raise ValueError(f"sampled {name} entries must live on the carrier grid")
            at = idx[rows] if aligned else interp.tile(rows)
            coeffs = [q[i].coeffs if isinstance(q[i], Poly) else () for q in q_rows]
            _horner(coeffs, points[rows], q_vals[:, rows])
            for k, q in enumerate(q_rows):
                if not isinstance(q[i], Poly):
                    q_vals[k, rows] = _field_values(q[i], points[rows], at)
            s_vals[rows] = _field_values(params.s[i], points[rows], at)
    return _Plan(idx if aligned else None, interp, s_vals, q_vals)


def _horner(coeffs: Sequence[tuple[float, ...]], x: np.ndarray, out: np.ndarray) -> None:
    """Row k of `out` becomes the polynomial coeffs[k] at x, bit for bit `Poly(coeffs[k])(x)`.

    Horner over a block of rows at a time, with the coefficients padded by
    leading zeros to a common degree: np.polyval's steps y = y * x + c from
    y = +0, where a padded step gives +0 * x + 0 = +0 again.  An empty
    coefficient tuple gives a row of zeros.
    """
    table = np.zeros((len(coeffs), max(map(len, coeffs), default=0)))
    for row, cs in zip(table, coeffs):
        row[len(row) - len(cs) :] = cs[::-1]
    # Blocks of 2^15 values stay in cache: at 512 rows of 1,024 points one block
    # of all rows ran 20% slower, and Horner in place in `out` 2.3x slower.
    block = max(1, (1 << 15) // max(len(x), 1))
    for lo in range(0, len(coeffs), block):
        rows = table[lo : lo + block]
        y = np.zeros((len(rows), len(x)))
        for column in rows.T:
            y *= x
            y += column[:, None]
        out[lo : lo + block] = y


def rb_apply(params: RBParams, f: GridFunction) -> GridFunction:
    """One application of the operator on f's grid.

    Every grid point y in tile i receives q_i(x) + s_i(x) f(x) with
    x = L_i^-1(y); junction points follow the junction rule of `AffinePartition.locate`.
    """
    if f.partition != params.partition:
        raise ValueError("f is sampled on a different partition")
    plan = _build_plan(params, f.grid_m, (params.q,))
    return GridFunction(params.partition, plan.apply(f.values))


def _check_settings(tol: float, gamma: float | None, max_iter: int) -> None:
    """Validate the iteration settings; gamma is checked but never read."""
    if gamma is not None and not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _iterate_row(
    plan: _Plan, row: int, lead: float, rho: float, tol: float, max_iter: int
) -> tuple[np.ndarray, int, float]:
    """Banach iteration of one plan row from zero until lead * step / (1 - rho) <= tol:
    (values, iterations, error bound)."""
    values, diff = np.zeros(plan.q_vals.shape[1]), math.inf
    # One step buffer for the whole loop: with apply finishing in place, a fresh
    # step array per iteration made this loop 5-15% slower at M = 2^16.
    step = np.empty(values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, max_iter + 1):
            new_values = plan.apply(values, row)
            diff = float(np.max(np.abs(np.subtract(new_values, values, out=step), out=step)))
            if not math.isfinite(diff):
                raise ConvergenceError(
                    f"no convergence: step {iteration} = {diff} overflows (rho = {rho:.3e})",
                    iterations=iteration,
                    residual=diff,
                    row=row,
                )
            values = new_values
            bound = lead * diff / (1.0 - rho)
            if bound <= tol:
                return values, iteration, bound
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (rho = {rho:.3e}, "
        f"last step {diff:.3e}, tol {tol:.3e})",
        iterations=max_iter,
        residual=diff,
        row=row,
    )


def _power_rho(plan: _Plan, rho_1: float) -> tuple[float, float]:
    """(rho_1 + ... + rho_k, rho_k) for the least k <= _K_MAX with rho_k < 1.

    rho_k = max(|A|^k 1) bounds the sup norm of A^k, the linear part of T^k,
    because |A| is |s_vals| times the nonnegative interpolation weights.
    """
    power, total = np.ones(len(plan.s_vals)), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_K_MAX):
            power = plan.interp(power) * np.abs(plan.s_vals)
            rho_k = float(np.max(power))
            total += rho_k
            if rho_k < 1.0:
                return total, rho_k
    raise ConvergenceError(
        f"no sup-norm certificate on an interpolating grid: max|s| = {rho_1:.17g} >= 1 "
        f"and rho_k >= 1 for every k <= {_K_MAX} (rho_{_K_MAX} = {rho_k:.3e})",
        iterations=0,
        residual=math.inf,
    )


def _solve(plan: _Plan, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed points of every q row of `plan`, each iterated from zero and
    certified within tol.

    Returns (values (K, M+1), iterations per row, error bound per row).  A
    gather plan is doubled; an interpolating one runs Banach iteration per
    row under rho_1 = max|s_vals|, or under _power_rho when that is >= 1, the
    rows on one thread per CPU (`ordered_map`); a ConvergenceError names the
    lowest failing row.  Consumes the plan.
    """
    if plan.pre_idx is not None:
        return _double_rows(plan, tol, max_iter)
    values = np.empty(plan.q_vals.shape)
    lead = rho = float(np.max(np.abs(plan.s_vals)))
    if len(values) and not rho < 1.0:
        lead, rho = _power_rho(plan, rho)
    iterations = np.zeros(len(values), dtype=np.int64)
    bounds = np.zeros(len(values))
    solved = ordered_map(
        lambda row: _iterate_row(plan, row, lead, rho, tol, max_iter), range(len(values)), len(values)
    )
    for row, solution in enumerate(solved):
        values[row], iterations[row], bounds[row] = solution
    return values, iterations, bounds


def _double_rows(plan: _Plan, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed points of every row of a gather plan by pointer doubling from zero.

    T^N v = A + B * v[P], with A = T^N 0 (one row per q row) and B, P shared
    by all rows; T^2N is then A + B * A[:, P], B * B[P] and P[P].  rho_N =
    max|B| is the sup norm of the linear part of T^N, so while rho_N < 1 the
    iterate A = T^N 0 lies within rho_N * max|A| / (1 - rho_N) of the fixed
    point.  A row stops at the first N = 2^k where that bound is <= tol, and
    is not written again.

    Consumes the plan: A, B and P are its q_vals, s_vals and pre_idx,
    updated in place, and A ends up holding the result.  Returns (values,
    iterations per row, error bound per row), with iterations in Banach
    steps N.
    """
    stack, mult, index = plan.q_vals, plan.s_vals, plan.pre_idx
    next_mult, next_index = np.empty_like(mult), np.empty_like(index)
    # Rows go in blocks, so the gather scratch stays small and in cache.
    scratch = np.empty((min(len(stack), _DOUBLING_BLOCK_ROWS), stack.shape[1]))
    blocks = [slice(lo, lo + len(scratch)) for lo in range(0, len(stack), _DOUBLING_BLOCK_ROWS)]
    iterations = np.zeros(len(stack), dtype=np.int64)
    bounds = np.zeros(len(stack))

    def certify(rows: slice, n: int, rho: float) -> float:
        """Stop the active rows of a block whose bound for T^n is within tol.

        Returns the block's largest step max|T^n 0| over its active rows.
        """
        block = stack[rows]
        work, active = scratch[: len(block)], iterations[rows] == 0
        np.abs(block, out=work)
        step = work.max(axis=1)
        overflowed = np.flatnonzero(active & ~np.isfinite(step))
        if overflowed.size:
            raise ConvergenceError(
                f"no convergence: step {n} = {step[overflowed[0]]} overflows (rho_{n} = {rho:.3e})",
                iterations=n,
                residual=float(step[overflowed[0]]),
                row=rows.start + int(overflowed[0]),
            )
        if rho < 1.0:
            bound = rho * step / (1.0 - rho)
            done = active & (bound <= tol)
            iterations[rows][done] = n
            bounds[rows][done] = bound[done]
        return float(np.max(step[active], initial=0.0))

    n, rho = 1, float(np.max(np.abs(mult)))
    with np.errstate(over="ignore", invalid="ignore"):
        last_step = max((certify(rows, n, rho) for rows in blocks), default=0.0)
        while not np.all(iterations):
            if 2 * n > max_iter:
                raise ConvergenceError(
                    f"no convergence after {n} steps (rho_{n} = {rho:.3e}, "
                    f"last step {last_step:.3e}, tol {tol:.3e})",
                    iterations=n,
                    residual=last_step,
                    row=int(np.argmin(iterations)),
                )
            np.take(mult, index, out=next_mult, mode="wrap")
            next_mult *= mult
            next_rho = float(np.max(np.abs(next_mult)))
            if not math.isfinite(next_rho):
                raise ConvergenceError(
                    f"no convergence after {n} steps: rho_{2 * n} = {next_rho} "
                    f"overflows (rho_{n} = {rho:.3e})",
                    iterations=n,
                    residual=last_step,
                    row=int(np.argmin(iterations)),
                )
            np.take(index, index, out=next_index, mode="wrap")
            last_step = 0.0
            for rows in blocks:
                active = iterations[rows] == 0
                if not active.any():
                    continue
                block = stack[rows]
                work = scratch[: len(block)]
                # Indices are in range: mode="raise" would buffer `out` and double the cost.
                np.take(block, index, axis=1, out=work, mode="wrap")
                work *= mult
                if active.all():
                    block += work
                else:
                    np.add(block, work, out=block, where=active[:, None])
                last_step = max(last_step, certify(rows, 2 * n, next_rho))
            mult, next_mult = next_mult, mult
            index, next_index = next_index, index
            n, rho = 2 * n, next_rho
    return stack, iterations, bounds


def fixed_point(
    params: RBParams,
    grid_m: int,
    *,
    tol: float,
    gamma: float | None = None,
    max_iter: int = 1000,
    initial: GridFunction | None = None,
) -> FixedPointResult:
    """The fixed point of T from f_0 = 0 (or `initial`), within tol in the sup norm.

    The error bound is the certificate the solve stopped on (see the module
    docstring).  Pointer doubling on an aligned grid computes f_N = T^N 0 for
    N = 1, 2, 4, ... and steps by f_N; Banach iteration on an interpolating
    grid steps by f_{k+1} - f_k and raises ConvergenceError when no rho_k with
    k <= _K_MAX is below 1.  A warm start from v is the change of variables
    f = v + g: g is the fixed point, from zero, of the same operator with q
    replaced by T v - v, so s, the pullback and the certificate are unchanged.
    T v - v rounds by about eps * max|v|, which the solve carries into f, so v
    is used only when max|T v - v| < max|T 0|; that keeps max|v - f| within
    the resolvent's norm times max|T 0|.  Any other start is dropped, and the
    result is the cold solve's, bit for bit.  `iterations` counts Banach
    steps and never exceeds max_iter.  gamma is checked to lie in [0, 1) when
    given and is not read.
    """
    _check_settings(tol, gamma, max_iter)
    if initial is not None and (initial.partition != params.partition or initial.grid_m != grid_m):
        raise ValueError("initial iterate must live on the carrier grid")
    plan = _build_plan(params, grid_m, (params.q,))
    start = None
    if initial is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = plan.apply(initial.values) - initial.values
        if np.max(np.abs(shifted)) < np.max(np.abs(plan.q_vals[0])):
            plan.q_vals[0], start = shifted, initial.values
    values, iterations, bounds = _solve(plan, tol, max_iter)
    if start is not None:
        values[0] += start
    return FixedPointResult(
        GridFunction(params.partition, values[0]), int(iterations[0]), float(bounds[0])
    )


def empirical_gamma(params: RBParams, grid_m: int, trials: int, seed: int) -> float:
    """Observed sup-norm contraction factor over seeded random pairs.

    Returns max ||Tf - Tg||_inf / ||f - g||_inf over `trials` pairs of
    standard-normal grid functions; deterministic for a given seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    plan = _build_plan(params, grid_m, (params.q,))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(grid_m + 1)
        g = rng.standard_normal(grid_m + 1)
        denom = float(np.max(np.abs(f - g)))
        if denom == 0.0:
            continue
        # Huge q or s overflow T f; the ratio is then the formula's own inf or nan,
        # and np.maximum keeps a nan that max() would drop.
        with np.errstate(over="ignore", invalid="ignore"):
            numer = float(np.max(np.abs(plan.apply(f) - plan.apply(g))))
        worst = np.maximum(worst, numer / denom)
    return float(worst)


# ---------------------------------------------------------------------------
# Interpolation problems
# ---------------------------------------------------------------------------


def fif_from_data(
    x: Sequence[float], y: Sequence[float], s: Sequence[float]
) -> RBParams:
    """Interpolation problem through the points (x_j, y_j) with multipliers s.

    The fixed point is continuous and passes through every data point; with
    all s_i = 0 it degenerates to the piecewise-linear interpolant.  This is
    the one-row case of `clifford_fif_from_data` over Cl(0,0) = R.
    """
    from .lift import clifford_fif_from_data

    return clifford_fif_from_data(0, x, {0: y}, s).component_params(0)


# ---------------------------------------------------------------------------
# Function-space gates and norms
# ---------------------------------------------------------------------------


def _sup_norm(space: "SpaceSpec", f: GridFunction) -> float:
    if space.k != 0:
        raise NotImplementedError("only the k = 0 sup norm is evaluated numerically")
    return f.sup_norm()


def _lp_norm(space: "SpaceSpec", f: GridFunction) -> float:
    integral = float(np.trapezoid(np.abs(f.values) ** space.p, dx=f.partition.span / f.grid_m))
    return integral ** (1.0 / space.p)


def _sobolev_gate(sp: "SpaceSpec", lip: np.ndarray, sup: np.ndarray) -> float:
    return np.sum(lip ** (1.0 - sp.s * sp.p) * sup ** sp.p)


# The function spaces by tag: the indices the gate reads, in the order SpaceSpec checks them;
# the gate, from the slopes |a_i| and the sup-norms of s_i; the grid norm, where one is evaluated.
_SPACES = {
    "Ck": (("k",), lambda sp, lip, sup: np.max(lip ** -(sp.k + 1) * sup), _sup_norm),
    "CkAlpha": (("k", "alpha"), lambda sp, lip, sup: np.max(lip ** -(sp.k + sp.alpha) * sup), None),
    "Lp": (("p",), lambda sp, lip, sup: np.sum(lip * sup ** sp.p), _lp_norm),
    "Wsp": (("s", "p"), _sobolev_gate, None),
    "Bspq": (("s", "p", "q"), lambda sp, lip, sup: np.sum(lip ** ((1.0 / sp.p - sp.s) * sp.q) * sup ** sp.q), None),
    "Fspq": (("s", "p", "q"), _sobolev_gate, None),
}
SPACE_TAGS = tuple(_SPACES)


@dataclass(frozen=True)
class SpaceSpec:
    """Function-space selector with the indices its gate formula needs."""

    tag: str
    k: int | None = None
    alpha: float | None = None
    p: float | None = None
    q: float | None = None
    s: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in SPACE_TAGS:
            raise ValueError(f"unknown space tag {self.tag!r}; expected one of {SPACE_TAGS}")
        need = _SPACES[self.tag][0]
        for name in need:
            if getattr(self, name) is None:
                raise ValueError(f"space {self.tag} requires parameter {name!r}")
        if "k" in need and (not isinstance(self.k, int) or self.k < 0):
            raise ValueError(f"k must be a nonnegative integer, got {self.k!r}")
        if "alpha" in need and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        for name in ("p", "q"):
            if name in need and not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must satisfy 1 <= {name} < inf, got {getattr(self, name)}")
        if "s" in need and not self.s > 0.0:
            raise ValueError(f"s must be positive, got {self.s}")

    @classmethod
    def ck(cls, k: int = 0) -> "SpaceSpec":
        return cls("Ck", k=k)

    @classmethod
    def ck_alpha(cls, k: int, alpha: float) -> "SpaceSpec":
        return cls("CkAlpha", k=k, alpha=alpha)

    @classmethod
    def lp(cls, p: float) -> "SpaceSpec":
        return cls("Lp", p=p)

    @classmethod
    def sobolev(cls, s: float, p: float) -> "SpaceSpec":
        return cls("Wsp", s=s, p=p)

    @classmethod
    def besov(cls, s: float, p: float, q: float) -> "SpaceSpec":
        return cls("Bspq", s=s, p=p, q=q)

    @classmethod
    def triebel_lizorkin(cls, s: float, p: float, q: float) -> "SpaceSpec":
        return cls("Fspq", s=s, p=p, q=q)

    def indices(self) -> dict[str, float]:
        """The indices this space sets, by name, in field order."""
        values = {name: getattr(self, name) for name in SPACE_INDICES}
        return {name: value for name, value in values.items() if value is not None}


# The index fields of SpaceSpec, the names its config object uses beside "tag".
SPACE_INDICES = tuple(f.name for f in fields(SpaceSpec) if f.name != "tag")


def gamma_gate(space: SpaceSpec, params) -> float:
    """Contraction constant for the requested space; < 1 certifies a unique fixed point.

    Accepts scalar or Clifford problem parameters (anything exposing
    `partition` and `s`).  The C^k and Holder gates carry a negative power of
    the contraction ratios, so they sit at or above max ||s_i||; `check`
    surfaces them next to the observed sup-norm factor rather than adjusting.
    """
    lips = np.array([m.lip for m in params.partition.maps])
    sups = np.array([field_sup(entry) for entry in params.s])
    # A power that overflows gives the formula's own inf (or nan for 0 * inf).
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_SPACES[space.tag][1](space, lips, sups))


def norm(space: SpaceSpec, f: GridFunction) -> float:
    """Numerically realized norms: C^0 (grid sup) and L^p (trapezoidal quadrature)."""
    realized = _SPACES[space.tag][2]
    if realized is None:
        raise NotImplementedError(
            f"the {space.tag} norm is not evaluated numerically; only its gate formula is"
        )
    return realized(space, f)
