"""Componentwise lift of the scalar operator to algebra-valued functions.

An algebra-valued grid function f = sum_A f_A e_A is stored as the sorted
blade masks A of its support plus one read-only (K, M+1) array whose row k
holds the samples of f_A for the k-th mask; absent blades are identically
zero.  The lifted operator applies one scalar operator per blade direction
with shared maps and shared real multipliers; no mixing happens between
directions.  Pullbacks and s values are therefore the same for every blade:
one operator plan serves the whole problem, each blade's q is one row of it,
and one plan application acts on the whole stack.  The contraction factor
is the scalar one.  The public solve, residual and probe each build a plan;
their private forms read one the caller built, and write none.

Pointwise algebra (products, conjugation, paravector restriction) acts on
the stacked rows grid point by grid point; products run the algebra module's
kernel on the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    Multivector,
    _as_mask,
    _check_dimension,
    _conj_signs,
    _scaled,
    _stack_product,
    blade_grade,
    blade_key,
)
from .engine import (
    ConvergenceError,
    Field,
    GridFunction,
    Poly,
    RBParams,
    SpaceSpec,
    _build_plan,
    _check_problem,
    _check_settings,
    _Plan,
    _probe,
    _solve,
    norm,
)
from .partition import AffinePartition, from_knots

__all__ = [
    "CliffordFixedPointResult",
    "CliffordGridFunction",
    "CliffordRBParams",
    "clifford_empirical_gamma",
    "clifford_fif_from_data",
    "clifford_fixed_point",
    "clifford_norm_F",
    "clifford_rb_apply",
    "pointwise_conj",
    "pointwise_product",
    "pv_restrict",
    "residual",
]


@dataclass(frozen=True, eq=False, init=False)
class CliffordGridFunction:
    """Algebra-valued grid function; absent components are identically zero.

    `masks` is the sorted support, and row k of the read-only array `values`,
    of shape (len(masks), M+1), holds the samples of the component masks[k].
    """

    n: int
    partition: AffinePartition
    grid_m: int
    masks: tuple[int, ...]
    values: np.ndarray

    def __init__(
        self,
        n: int,
        partition: AffinePartition,
        grid_m: int,
        components: Mapping[int | str, GridFunction],
    ) -> None:
        _check_dimension(n)
        rows: dict[int, np.ndarray] = {}
        for key, comp in components.items():
            mask = _as_mask(key, n)
            if not isinstance(comp, GridFunction):
                raise ValueError(f"component {mask} must be a GridFunction")
            if comp.partition != partition or comp.grid_m != grid_m:
                raise ValueError(f"component {mask} is sampled on a different grid")
            rows[mask] = comp.values
        masks = sorted(rows)
        stack = np.array([rows[m] for m in masks]).reshape(len(masks), grid_m + 1)
        vars(self).update(vars(self._from_stack(n, partition, grid_m, masks, stack)))

    @classmethod
    def _from_stack(
        cls, n: int, partition: AffinePartition, grid_m: int, masks: Sequence[int], values: np.ndarray
    ) -> "CliffordGridFunction":
        """The function whose component masks[k] is row k of `values`; takes `values` over."""
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values.flags.writeable = False
        f = object.__new__(cls)
        vars(f).update(n=n, partition=partition, grid_m=grid_m, masks=tuple(masks), values=values)
        return f

    @classmethod
    def zero(cls, n: int, partition: AffinePartition, grid_m: int) -> "CliffordGridFunction":
        return cls(n, partition, grid_m, {})

    @property
    def support(self) -> tuple[int, ...]:
        return self.masks

    @property
    def components(self) -> Mapping[int, GridFunction]:
        """The rows of the stack as read-only GridFunctions, keyed by mask."""
        return MappingProxyType(
            {mask: GridFunction(self.partition, row) for mask, row in zip(self.masks, self.values)}
        )

    def component(self, mask: int | str) -> GridFunction:
        mask = _as_mask(mask, self.n)
        if mask not in self.masks:
            return GridFunction.zeros(self.partition, self.grid_m)
        return GridFunction(self.partition, self.values[self.masks.index(mask)])

    def value_at(self, index: int) -> Multivector:
        """The multivector stored at grid index `index`."""
        if not 0 <= index <= self.grid_m:
            raise ValueError(f"grid index {index} out of range 0..{self.grid_m}")
        coeffs = np.zeros(1 << self.n)
        coeffs[list(self.masks)] = self.values[:, index]
        return Multivector(self.n, coeffs)

    def _rows(self, masks: Sequence[int]) -> np.ndarray:
        """The stack over `masks`, a sorted superset of the support; absent blades are zero rows."""
        out = np.zeros((len(masks), self.grid_m + 1))
        out[np.searchsorted(masks, self.masks)] = self.values
        return out

    def _check_compatible(self, other: "CliffordGridFunction") -> None:
        if (
            self.n != other.n
            or self.partition != other.partition
            or self.grid_m != other.grid_m
        ):
            raise ValueError("algebra-valued functions live on different grids or algebras")

    def _combine(self, other: "CliffordGridFunction", op) -> "CliffordGridFunction":
        self._check_compatible(other)
        masks = sorted(set(self.masks) | set(other.masks))
        values = op(self._rows(masks), other._rows(masks))
        return self._from_stack(self.n, self.partition, self.grid_m, masks, values)

    def __sub__(self, other: "CliffordGridFunction") -> "CliffordGridFunction":
        return self._combine(other, np.subtract)

    def __add__(self, other: "CliffordGridFunction") -> "CliffordGridFunction":
        return self._combine(other, np.add)


@dataclass(frozen=True, eq=False)
class CliffordRBParams:
    """Lifted problem data: algebra-valued q_i, shared real multipliers s_i.

    Each q_i maps blade masks (or text keys) to scalar fields; missing blades
    mean a zero component.  Keeping s_i real-valued is what reuses the scalar
    contraction certificate unchanged.
    """

    n: int
    partition: AffinePartition
    q: tuple[Mapping[int, Field], ...]
    s: tuple[Field, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        q, s = tuple(self.q), tuple(self.s)
        _check_problem(self.partition, q, s, lifted=True)
        frozen_q = []
        for blades in q:
            normalized = {_as_mask(key, self.n): entry for key, entry in blades.items()}
            frozen_q.append(MappingProxyType(dict(sorted(normalized.items()))))
        object.__setattr__(self, "q", tuple(frozen_q))
        object.__setattr__(self, "s", s)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.q)))

    def component_params(self, mask: int | str) -> RBParams:
        return RBParams(self.partition, self._q_row(_as_mask(mask, self.n)), self.s)

    def _q_row(self, mask: int) -> tuple[Field, ...]:
        return tuple(blades.get(mask, 0.0) for blades in self.q)

    def _plan(self, grid_m: int, masks: Sequence[int]) -> _Plan:
        return _build_plan(self, grid_m, [self._q_row(mask) for mask in masks])


@dataclass(frozen=True)
class CliffordFixedPointResult:
    function: CliffordGridFunction
    iterations: Mapping[int, int]
    error_bound: float


def clifford_rb_apply(
    params: CliffordRBParams, f: CliffordGridFunction
) -> CliffordGridFunction:
    """Apply the scalar operator to every blade component independently."""
    if f.n != params.n or f.partition != params.partition:
        raise ValueError("function and parameters disagree on algebra or partition")
    masks = sorted(set(params.support) | set(f.masks))
    plan = params._plan(f.grid_m, masks)
    return f._from_stack(f.n, f.partition, f.grid_m, masks, plan.apply(f._rows(masks)))


def clifford_fixed_point(
    params: CliffordRBParams,
    grid_m: int,
    *,
    tol: float,
    gamma: float | None = None,
    max_iter: int = 1000,
) -> CliffordFixedPointResult:
    """Solve each supported blade component with the scalar solver.

    Blades with no q data stay identically zero and are skipped; they are
    still materialized on export.  Every blade is its own row of the shared
    plan under the scalar stopping rule and certificate: on an aligned grid
    the doubling solver works the whole stack and freezes each row at its own
    stop, else each row runs the scalar Banach loop.  Either way a component
    is bit for bit its scalar solve, and a ConvergenceError names the first
    component without a stop.  `tol` is per blade: the error bound is the
    Euclidean aggregate sqrt(sum_A bound_A^2) of the row bounds, each <= tol,
    so it can reach sqrt(K) * tol for K blades (22.6 tol at n = 9).  gamma is
    checked to lie in [0, 1) when given and is not read.  A refusal of the
    plan itself (no certificate, an overflowing rho_2N) names no component.
    """
    _check_settings(tol, gamma, max_iter)
    return _clifford_fixed_point(params, params._plan(grid_m, params.support), tol, max_iter)


def _clifford_fixed_point(
    params: CliffordRBParams, plan: _Plan, tol: float, max_iter: int
) -> CliffordFixedPointResult:
    """`clifford_fixed_point` on `plan`, whose q rows are those of params.support."""
    masks = params.support
    try:
        values, steps, bounds = _solve(plan, tol, max_iter)
    except ConvergenceError as exc:
        if exc.row is not None:
            exc.args = (f"component '{blade_key(masks[exc.row]) or 'scalar'}': {exc}",)
        raise
    function = CliffordGridFunction._from_stack(params.n, params.partition, len(plan.s_vals) - 1, masks, values)
    iterations = MappingProxyType({mask: int(step) for mask, step in zip(masks, steps)})
    return CliffordFixedPointResult(function, iterations, float(_euclidean(bounds)))


def _euclidean(rows: np.ndarray) -> np.ndarray:
    """sqrt(sum_k rows[k]^2) over the first axis, the largest norms without
    underflow or overflow.

    The squares are of the `_scaled` rows, and the result is scaled back: a sum
    whose squares stay normal unscaled keeps its bits, and one row gives
    |rows[0]| bit for bit.  The squares are summed row after row.
    """
    scaled, exp = _scaled(rows)
    total = 0.0
    for row in scaled:
        total += row * row
    return np.ldexp(np.sqrt(total), exp)


def clifford_norm_F(f: CliffordGridFunction, space: SpaceSpec) -> float:
    """Euclidean aggregation sqrt(sum_A ||f_A||^2) of the component norms."""
    return float(_euclidean(np.array([norm(space, comp) for comp in f.components.values()])))


def residual(params: CliffordRBParams, psi: CliffordGridFunction) -> float:
    """Worst defect of the self-referential equation over tiles and grid points.

    Per blade, the defect array is psi_A - T_A psi_A; the returned value is
    the maximum over the grid of the pointwise multivector norm.
    """
    if psi.n != params.n or psi.partition != params.partition:
        raise ValueError("function and parameters disagree on algebra or partition")
    masks = sorted(set(params.support) | set(psi.masks))
    return _residual(params._plan(psi.grid_m, masks), psi._rows(masks))


def _residual(plan: _Plan, values: np.ndarray) -> float:
    """`residual` of the stack `values`, whose row k is the blade of q row k of `plan`."""
    return float(np.max(_euclidean(values - plan.apply(values))))


def clifford_empirical_gamma(
    params: CliffordRBParams, grid_m: int, trials: int, seed: int
) -> float:
    """Observed contraction factor of the lift in the norm sqrt(sum_A sup^2).

    Per blade, T f_A - T g_A = s * (f_A - g_A) o L^-1 with the same s and
    pullback for every blade, so the lift's factor in this norm is the
    scalar one: this is the scalar probe of the operator's linear part, on a
    plan without q rows.
    """
    return _probe(params._plan(grid_m, ()), trials, seed, row=None)


# ---------------------------------------------------------------------------
# Pointwise algebra on assembled functions
# ---------------------------------------------------------------------------


def pointwise_product(
    f: CliffordGridFunction, g: CliffordGridFunction
) -> CliffordGridFunction:
    """Grid-pointwise algebra product; the result is again algebra-valued.

    The stored rows of f and g are multiplied at every grid point by the
    kernel behind mv_mul, so small supports are exact and large ones agree
    with the exact pair loop to within 1e-12 * 2^n * max|f| * max|g|.
    """
    f._check_compatible(g)
    masks, values = _stack_product(f.n, (f.masks, f.values), (g.masks, g.values))
    return f._from_stack(f.n, f.partition, f.grid_m, masks.tolist(), values)


def pointwise_conj(f: CliffordGridFunction) -> CliffordGridFunction:
    """Grid-pointwise conjugation: per-blade sign flips."""
    signs = _conj_signs(f.n)[list(f.masks)]
    return f._from_stack(f.n, f.partition, f.grid_m, f.masks, f.values * signs[:, None])


def pv_restrict(f: CliffordGridFunction) -> CliffordGridFunction:
    """Drop every component of grade >= 2; idempotent."""
    keep = [blade_grade(mask) <= 1 for mask in f.masks]
    masks = [mask for mask, kept in zip(f.masks, keep) if kept]
    return f._from_stack(f.n, f.partition, f.grid_m, masks, f.values[keep])


# ---------------------------------------------------------------------------
# Interpolation problems with one dataset per blade
# ---------------------------------------------------------------------------


def _interpolation_polys(x: np.ndarray, y: np.ndarray, s: Sequence[float]) -> tuple[Poly, ...]:
    """Affine q_i pinning the fixed point to the data: q_i(x_0) + s_i y_0 = y_i-1
    and q_i(x_N) + s_i y_N = y_i."""
    x0, xn = float(x[0]), float(x[-1])
    y0, yn = float(y[0]), float(y[-1])
    polys = []
    for i, s_i in enumerate(s):
        left = float(y[i]) - s_i * y0
        right = float(y[i + 1]) - s_i * yn
        slope = (right - left) / (xn - x0)
        polys.append(Poly((left - slope * x0, slope)))
    return tuple(polys)


def clifford_fif_from_data(
    n: int,
    x: Sequence[float],
    y_by_blade: Mapping[int | str, Sequence[float]],
    s: Sequence[float],
) -> CliffordRBParams:
    """Per-blade interpolation data over shared knots and shared multipliers.

    Component A of the fixed point passes through (x_j, y_A_j).  The scalar
    `fif_from_data` is the one-row case, n = 0, so a component solve matches
    the scalar solve of its data bit for bit.
    """
    _check_dimension(n)
    return _fif_on(n, from_knots(x), y_by_blade, s)  # the knots are checked before the multipliers


def _fif_on(n: int, partition: AffinePartition, y_by_blade: Mapping, s: Sequence[float]) -> CliffordRBParams:
    """`clifford_fif_from_data` on `partition`, the partition of its knots x."""
    xs = np.asarray(partition.knots)
    scalars = tuple(float(v) for v in s)
    if len(scalars) != partition.size:
        raise ValueError(f"need one multiplier per subinterval: {partition.size}, got {len(scalars)}")
    if any(abs(v) >= 1.0 for v in scalars):
        raise ValueError("interpolation multipliers must satisfy |s_i| < 1")
    per_blade: dict[int, tuple] = {}
    for key, data in y_by_blade.items():
        mask = _as_mask(key, n)
        ys = np.asarray(data, dtype=float)
        if ys.shape != xs.shape:
            raise ValueError(f"blade {key!r}: expected {len(xs)} ordinates, got shape {ys.shape}")
        per_blade[mask] = _interpolation_polys(xs, ys, scalars)
    q = tuple({mask: polys[i] for mask, polys in per_blade.items()} for i in range(len(scalars)))
    return CliffordRBParams(n, partition, q, scalars)
