"""Componentwise lift of the scalar operator to algebra-valued functions.

An algebra-valued grid function is a family of scalar components f_A indexed
by blade masks, f = sum_A f_A e_A.  The lifted operator applies one scalar
operator per blade direction with shared maps and shared real multipliers;
no mixing happens between directions.  Pullbacks and s values are therefore
the same for every blade: one operator plan serves the whole problem, each
blade's q is one row of it, and the contraction factor is the scalar one.

Pointwise algebra (products, conjugation, paravector restriction) acts on
the assembled functions grid point by grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    Multivector,
    _check_dimension,
    _check_mask,
    _conj_signs,
    _sign_table,
    blade_grade,
    blade_key,
    parse_blade_key,
)
from .engine import (
    ConvergenceError,
    Field,
    GridFunction,
    RBParams,
    SpaceSpec,
    _build_plan,
    _fif_knots,
    _interpolation_polys,
    _iterate_row,
    _stop_threshold,
    empirical_gamma,
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


def _as_mask(key: int | str, n: int) -> int:
    mask = parse_blade_key(key, n) if isinstance(key, str) else int(key)
    _check_mask(mask, n)
    return mask


@dataclass(frozen=True, eq=False)
class CliffordGridFunction:
    """Algebra-valued grid function; absent components are identically zero."""

    n: int
    partition: AffinePartition
    grid_m: int
    components: Mapping[int, GridFunction]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        comps: dict[int, GridFunction] = {}
        for key, comp in self.components.items():
            mask = _as_mask(key, self.n)
            if not isinstance(comp, GridFunction):
                raise ValueError(f"component {mask} must be a GridFunction")
            if comp.partition != self.partition or comp.grid_m != self.grid_m:
                raise ValueError(f"component {mask} is sampled on a different grid")
            comps[mask] = comp
        object.__setattr__(self, "components", MappingProxyType(dict(sorted(comps.items()))))

    @classmethod
    def zero(cls, n: int, partition: AffinePartition, grid_m: int) -> "CliffordGridFunction":
        return cls(n, partition, grid_m, {})

    @classmethod
    def from_scalar_function(cls, n: int, mask: int | str, f: GridFunction) -> "CliffordGridFunction":
        return cls(n, f.partition, f.grid_m, {mask: f})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.components)

    def component(self, mask: int | str) -> GridFunction:
        mask = _as_mask(mask, self.n)
        comp = self.components.get(mask)
        return comp if comp is not None else GridFunction.zeros(self.partition, self.grid_m)

    def value_at(self, index: int) -> Multivector:
        """The multivector stored at grid index `index`."""
        if not 0 <= index <= self.grid_m:
            raise ValueError(f"grid index {index} out of range 0..{self.grid_m}")
        coeffs = np.zeros(1 << self.n)
        for mask, comp in self.components.items():
            coeffs[mask] = comp.values[index]
        return Multivector(self.n, coeffs)

    def _check_compatible(self, other: "CliffordGridFunction") -> None:
        if (
            self.n != other.n
            or self.partition != other.partition
            or self.grid_m != other.grid_m
        ):
            raise ValueError("algebra-valued functions live on different grids or algebras")

    def __sub__(self, other: "CliffordGridFunction") -> "CliffordGridFunction":
        self._check_compatible(other)
        masks = set(self.components) | set(other.components)
        comps = {m: self.component(m) - other.component(m) for m in masks}
        return CliffordGridFunction(self.n, self.partition, self.grid_m, comps)

    def __add__(self, other: "CliffordGridFunction") -> "CliffordGridFunction":
        self._check_compatible(other)
        masks = set(self.components) | set(other.components)
        comps = {m: self.component(m) + other.component(m) for m in masks}
        return CliffordGridFunction(self.n, self.partition, self.grid_m, comps)


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
        n_maps = self.partition.size
        q = tuple(self.q)
        s = tuple(self.s)
        if len(q) != n_maps or len(s) != n_maps:
            raise ValueError(
                f"q and s must both have one entry per map: N={n_maps}, "
                f"len(q)={len(q)}, len(s)={len(s)}"
            )
        frozen_q = []
        for i, blades in enumerate(q):
            normalized: dict[int, Field] = {}
            for key, entry in blades.items():
                normalized[_as_mask(key, self.n)] = entry
            frozen_q.append(MappingProxyType(dict(sorted(normalized.items()))))
        object.__setattr__(self, "q", tuple(frozen_q))
        object.__setattr__(self, "s", s)
        # Validate field types and s boundedness through the scalar container.
        self.component_params(0)

    @property
    def support(self) -> tuple[int, ...]:
        masks: set[int] = set()
        for blades in self.q:
            masks.update(blades)
        return tuple(sorted(masks))

    def component_params(self, mask: int | str) -> RBParams:
        return RBParams(self.partition, self._q_row(_as_mask(mask, self.n)), self.s)

    def _q_row(self, mask: int) -> tuple[Field, ...]:
        return tuple(blades.get(mask, 0.0) for blades in self.q)

    def _plan(self, grid_m: int, masks: Sequence[int]):
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
    masks = sorted(set(params.support) | set(f.components))
    plan = params._plan(f.grid_m, masks)
    comps = {
        mask: GridFunction(params.partition, plan.apply(f.component(mask).values, row))
        for row, mask in enumerate(masks)
    }
    return CliffordGridFunction(params.n, params.partition, f.grid_m, comps)


def clifford_fixed_point(
    params: CliffordRBParams,
    grid_m: int,
    *,
    tol: float,
    gamma: float,
    max_iter: int = 1000,
) -> CliffordFixedPointResult:
    """Solve each supported blade component with the scalar iteration.

    Blades with no q data stay identically zero and are skipped; they are
    still materialized on export.  Every blade iterates its own row of the
    shared plan under the scalar stopping rule.  The error bound aggregates
    the component bounds in the Euclidean blade norm.
    """
    threshold = _stop_threshold(tol, gamma, max_iter)
    masks = params.support
    plan = params._plan(grid_m, masks)
    comps: dict[int, GridFunction] = {}
    iterations: dict[int, int] = {}
    bound_sq = 0.0
    for row, mask in enumerate(masks):
        try:
            values, count, bound = _iterate_row(
                plan, row, np.zeros(grid_m + 1), gamma, threshold, max_iter
            )
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"component '{_mask_label(mask)}': {exc}",
                iterations=exc.iterations,
                residual=exc.residual,
            ) from exc
        comps[mask] = GridFunction(params.partition, values)
        iterations[mask] = count
        bound_sq += bound**2
    function = CliffordGridFunction(params.n, params.partition, grid_m, comps)
    return CliffordFixedPointResult(function, MappingProxyType(iterations), math.sqrt(bound_sq))


def _mask_label(mask: int) -> str:
    return blade_key(mask) or "scalar"


def clifford_norm_F(f: CliffordGridFunction, space: SpaceSpec) -> float:
    """Euclidean aggregation sqrt(sum_A ||f_A||^2) of the component norms."""
    return math.sqrt(sum(norm(space, comp) ** 2 for comp in f.components.values()))


def residual(params: CliffordRBParams, psi: CliffordGridFunction) -> float:
    """Worst defect of the self-referential equation over tiles and grid points.

    Per blade, the defect array is psi_A - T_A psi_A; the returned value is
    the maximum over the grid of the pointwise multivector norm.
    """
    if psi.n != params.n or psi.partition != params.partition:
        raise ValueError("function and parameters disagree on algebra or partition")
    masks = sorted(set(params.support) | set(psi.components))
    plan = params._plan(psi.grid_m, masks)
    total = np.zeros(psi.grid_m + 1)
    for row, mask in enumerate(masks):
        values = psi.component(mask).values
        defect = values - plan.apply(values, row)
        total += defect**2
    return float(np.sqrt(np.max(total)))


def clifford_empirical_gamma(
    params: CliffordRBParams, grid_m: int, trials: int, seed: int
) -> float:
    """Observed contraction factor of the lift in the norm sqrt(sum_A sup^2).

    Per blade, T f_A - T g_A = s * (f_A - g_A) o L^-1 with the same s and
    pullback for every blade, so the lift's factor in this norm is the
    scalar one: this is the scalar probe on the shared-s operator (q = 0).
    """
    linear = RBParams(params.partition, (0.0,) * params.partition.size, params.s)
    return empirical_gamma(linear, grid_m, trials, seed)


# ---------------------------------------------------------------------------
# Pointwise algebra on assembled functions
# ---------------------------------------------------------------------------


def pointwise_product(
    f: CliffordGridFunction, g: CliffordGridFunction
) -> CliffordGridFunction:
    """Grid-pointwise algebra product; the result is again algebra-valued."""
    f._check_compatible(g)
    signs = _sign_table(f.n)
    out: dict[int, np.ndarray] = {}
    for a, fa in f.components.items():
        for b, gb in g.components.items():
            target = a ^ b
            contribution = signs[a, b] * fa.values * gb.values
            if target in out:
                out[target] = out[target] + contribution
            else:
                out[target] = contribution
    comps = {mask: GridFunction(f.partition, arr) for mask, arr in out.items()}
    return CliffordGridFunction(f.n, f.partition, f.grid_m, comps)


def pointwise_conj(f: CliffordGridFunction) -> CliffordGridFunction:
    """Grid-pointwise conjugation: per-blade sign flips."""
    signs = _conj_signs(f.n)
    comps = {
        mask: GridFunction(f.partition, comp.values * signs[mask])
        for mask, comp in f.components.items()
    }
    return CliffordGridFunction(f.n, f.partition, f.grid_m, comps)


def pv_restrict(f: CliffordGridFunction) -> CliffordGridFunction:
    """Drop every component of grade >= 2; idempotent."""
    comps = {
        mask: comp for mask, comp in f.components.items() if blade_grade(mask) <= 1
    }
    return CliffordGridFunction(f.n, f.partition, f.grid_m, comps)


# ---------------------------------------------------------------------------
# Interpolation problems with one dataset per blade
# ---------------------------------------------------------------------------


def clifford_fif_from_data(
    n: int,
    x: Sequence[float],
    y_by_blade: Mapping[int | str, Sequence[float]],
    s: Sequence[float],
) -> CliffordRBParams:
    """Per-blade interpolation data over shared knots and shared multipliers.

    Component A of the fixed point passes through (x_j, y_A_j); the scalar
    and lifted constructions use identical coefficient arithmetic, so a
    component solve matches the corresponding scalar solve bit for bit.
    """
    _check_dimension(n)
    xs, scalars = _fif_knots(x, s)
    partition = from_knots(xs)
    per_blade: dict[int, tuple] = {}
    for key, data in y_by_blade.items():
        mask = _as_mask(key, n)
        ys = np.asarray(data, dtype=float)
        if ys.shape != xs.shape:
            raise ValueError(f"blade {key!r}: expected {len(xs)} ordinates, got {len(ys)}")
        per_blade[mask] = _interpolation_polys(xs, ys, scalars)
    q = tuple(
        {mask: polys[i] for mask, polys in per_blade.items()}
        for i in range(len(scalars))
    )
    return CliffordRBParams(n, partition, q, scalars)
