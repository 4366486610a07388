"""Componentwise lift of the scalar operator to algebra-valued functions.

An algebra-valued grid function f = sum_A f_A e_A is stored as the sorted
blade masks A of its support plus one read-only (K, M+1) array whose row k
holds the samples of f_A for the k-th mask; absent blades are identically
zero.  The lifted operator applies one scalar operator per blade direction
with shared maps and shared real multipliers; no mixing happens between
directions.  Pullbacks and s values are therefore the same for every blade:
one operator plan serves the whole problem, each blade's q is one row of it,
and one plan application acts on the whole stack.  The contraction factor
is the scalar one.

Pointwise algebra (products, conjugation, paravector restriction) acts on
the stacked rows grid point by grid point.  Products of large supports go
through a faithful representation of the algebra by complex d x d matrices,
d = 2^((n-1)/2) at n = 1 mod 4, where Cl(0,n) = M_d(C), and 2^ceil(n/2) else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import (
    _POPCOUNT,
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
    Poly,
    RBParams,
    SpaceSpec,
    _build_plan,
    _check_problem,
    _check_settings,
    _solve,
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
    checked to lie in [0, 1) when given and is not read.
    """
    _check_settings(tol, gamma, max_iter)
    masks = params.support
    try:
        values, steps, bounds = _solve(params._plan(grid_m, masks), tol, max_iter)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"component '{_mask_label(masks[exc.row])}': {exc}",
            iterations=exc.iterations,
            residual=exc.residual,
            row=exc.row,
        ) from exc
    function = CliffordGridFunction._from_stack(params.n, params.partition, grid_m, masks, values)
    iterations = MappingProxyType({mask: int(step) for mask, step in zip(masks, steps)})
    return CliffordFixedPointResult(function, iterations, float(_euclidean(bounds)))


def _euclidean(rows: np.ndarray) -> np.ndarray:
    """sqrt(sum_k rows[k]^2) over the first axis, the largest norms without
    underflow or overflow.

    The rows are scaled by 2^-e, with 2^e just above the largest |entry|, before
    squaring, and the result by 2^e after: power-of-two scaling is exact, so a
    sum whose squares stay normal unscaled keeps its bits, and one row gives
    |rows[0]| bit for bit.  The squares are summed row after row.
    """
    top = float(np.max(np.abs(rows), initial=0.0))
    exp = math.frexp(top)[1] if math.isfinite(top) else 0
    total = 0.0
    for row in np.ldexp(rows, -exp):
        total += row * row
    return np.ldexp(np.sqrt(total), exp)


def _mask_label(mask: int) -> str:
    return blade_key(mask) or "scalar"


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
    plan = params._plan(psi.grid_m, masks)
    values = psi._rows(masks)
    return float(np.max(_euclidean(values - plan.apply(values))))


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
    """Grid-pointwise algebra product; the result is again algebra-valued.

    Small supports multiply pairs of rows: exact, in a fixed order, and a
    -0.0 first term stays -0.0.  Large ones go through the matrix
    representation, which agrees with the pair loop to within
    1e-12 * 2^n * max|f| * max|g| and does not keep the sign of a zero.
    """
    f._check_compatible(g)
    g_masks = np.array(g.masks, dtype=np.intp)
    present = np.zeros(1 << f.n, dtype=bool)
    for a in f.masks:
        present[a ^ g_masks] = True
    masks = np.flatnonzero(present)
    # At M = 4096 and n = 5..9 a pair of rows costs 10-13 us, and the matrix path, whose
    # work per point is its 2 d^2 slots, as much as about 450 pairs at n = 5 (d = 4), 950
    # at n = 6 (d = 8) and 3,700-4,100 at n = 7..9 (d = 16), at or below 8 pairs a slot
    # plus 512 (768, 1,536, 4,608).  The matrix path never runs at n <= 4.
    if len(f.masks) * len(g.masks) >= 16 * _rep_dim(f.n) ** 2 + 512:
        out = _matrix_product(f, g, masks)
    else:
        out = _pair_product(f, g, masks)
    return f._from_stack(f.n, f.partition, f.grid_m, masks.tolist(), out)


def _pair_product(
    f: CliffordGridFunction, g: CliffordGridFunction, masks: np.ndarray
) -> np.ndarray:
    """The product's rows over `masks`, summed one pair of rows at a time."""
    signs = _sign_table(f.n)
    row_of = {mask: row for row, mask in enumerate(masks.tolist())}
    # -0.0 + x is x for every x, so each row starts as its first term, sign bit included.
    out = np.full((len(masks), f.grid_m + 1), -0.0)
    # One pair of rows at a time: at n = 9 and M = 4096, scattering each row of f
    # against all of g at once gave the same bits in 13.5 s against 4.1 s.
    for a, fa in zip(f.masks, f.values):
        for b, gb in zip(g.masks, g.values):
            out[row_of[a ^ b]] += signs[a, b] * fa * gb
    return out


def _rep_dim(n: int) -> int:
    """The matrix size d: 2^((n-1)/2) at n = 1 mod 4, else 2^ceil(n/2)."""
    return 1 << (n // 2 if n % 4 == 1 else (n + 1) // 2)


@lru_cache(maxsize=None)
def _rep_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A faithful representation of Cl(0,n) by complex d x d matrices, in factored form.

    d = _rep_dim(n).  The Jordan-Wigner generators are e_(2k+1) = i Z..Z X I..I
    and e_(2k+2) = i Z..Z Y I..I, with X or Y on qubit k (bit k of a row index).
    At n = 1 mod 4, omega = e1...en is central with omega^2 = -1, so Cl(0,n) is
    M_d(C) (P. Lounesto, Clifford Algebras and Spinors, 2001): there e_n is
    i Gamma_(1...n-1), and Gamma_omega = i I.  Gamma_A is the ascending product
    of A's generators, so that Gamma_A Gamma_B = _sign_table(n)[A, B] Gamma_(A^B).
    Each Gamma_A is a phased Pauli string, with one entry per row:
    Gamma_A[r, r ^ x_A] = i^c_A (-1)^|r & z_A|, and the triples compose as
    (x, z, c)(x', z', c') = (x ^ x', z ^ z', c + c' + 2 |x & z'|).

    So F = sum_A f_A Gamma_A has F[r, r ^ x] = sum_z (-1)^|r & z| v[z, x], with
    v[z_A, x_A] = i^c_A f_A: blade A fills one real slot of a (z, x, re/im)
    layout of 2 d^2 slots, slot[A] = 2 (d z_A + x_A) + (c_A & 1), with
    sign[A] = -1 where c_A >= 2, and no two blades share a slot.  `had` is the
    d x d Sylvester-Hadamard matrix (-1)^|r & z|, which takes v over z to the
    (r, x, re/im) layout.  `relayout[k]` is the (r, x, re/im) slot that slot
    k = 2 (d r + c) + re/im of a complex matrix reads, x = r ^ c; since c = r ^ x,
    it is its own inverse and also takes a matrix to the (r, x, re/im) layout.
    Back, tr(Gamma_C^H H) = i^-c_C (had H')[z_C, x_C] for H' = H in that layout,
    so h_C = Re tr(Gamma_C^H H) / d is sign[C] / d times slot[C] of had H'.
    """
    d = _rep_dim(n)
    x, z, c = (np.zeros(1 << n, dtype=np.intp) for _ in range(3))
    for j in range(n):
        qubit = 1 << (j // 2)
        if qubit == d:  # the last generator at n = 1 mod 4: i Gamma_(1...n-1)
            top = (1 << j) - 1
            gen_x, gen_z, gen_c = x[top], z[top], c[top] + 1
        elif j & 1:  # i Z..Z Y = Z..Z on the qubits below, Z X on this one
            gen_x, gen_z, gen_c = qubit, 2 * qubit - 1, 0
        else:
            gen_x, gen_z, gen_c = qubit, qubit - 1, 1
        # Gamma_(A + e_j) = Gamma_A e_j for every A below bit j.
        below = slice(0, 1 << j)
        x[1 << j : 2 << j] = x[below] ^ gen_x
        z[1 << j : 2 << j] = z[below] ^ gen_z
        c[1 << j : 2 << j] = c[below] + gen_c + 2 * _POPCOUNT[x[below] & gen_z]
    slot = 2 * (d * z + x) + (c & 1)
    sign = np.where(c & 2, -1.0, 1.0)
    rows = np.arange(d)
    had = np.where(_POPCOUNT[rows[:, None] & rows] & 1, -1.0, 1.0)
    r, col, part = np.unravel_index(np.arange(2 * d * d), (d, d, 2))
    relayout = 2 * (d * r + (r ^ col)) + part
    for table in (slot, sign, had, relayout):
        table.flags.writeable = False
    return slot, sign, had, relayout


def _forward_map(h: CliffordGridFunction) -> Callable[[int, int], np.ndarray]:
    """lo, hi -> F = sum_A h_A Gamma_A at grid points lo..hi-1, as (hi - lo, d, d) complex matrices.

    Per call: one copy of the block's rows, signed, with a zero row below them for
    the slots no blade of h fills; one gather of that copy into the (z, x, re/im)
    slots, one Hadamard matmul over z and one permutation into the matrices.
    """
    slot, sign, had, relayout = _rep_tables(h.n)
    d, masks = len(had), list(h.masks)
    source = np.full(2 * d * d, len(masks))
    source[slot[masks]] = np.arange(len(masks))
    row_signs = sign[masks][:, None]

    def matrices(lo: int, hi: int) -> np.ndarray:
        rows = np.zeros((len(masks) + 1, hi - lo))
        np.multiply(h.values[:, lo:hi], row_signs, out=rows[:-1])
        mixed = had @ rows.take(source, axis=0).reshape(d, -1)
        return mixed.reshape(-1, hi - lo).T.take(relayout, axis=1).view(np.complex128).reshape(-1, d, d)

    return matrices


def _matrix_product(
    f: CliffordGridFunction, g: CliffordGridFunction, masks: np.ndarray
) -> np.ndarray:
    """The product's rows over `masks`, through d x d matrices at each grid point.

    Per block of points: F and G by `_forward_map`, one batched matmul, then H
    permuted to the (r, x, re/im) layout, one Hadamard matmul over r and one
    gather scaled by +-1/d straight into the output.  No (2^n, d, d) array is
    ever formed.
    """
    slot, sign, had, relayout = _rep_tables(f.n)
    d = len(had)
    back, scale = slot[masks], (sign[masks] / d)[:, None]
    total = f.grid_m + 1
    forward_f, forward_g = _forward_map(f), _forward_map(g)
    # 2^14 matrix entries a block was fastest at n = 9; each transient stays under 1 MB.
    block = max(1, (1 << 14) // (d * d))
    out = np.empty((len(masks), total))
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        prod = np.matmul(forward_f(lo, hi), forward_g(lo, hi))
        mixed = had @ prod.reshape(hi - lo, -1).view(np.float64).T.take(relayout, axis=0).reshape(d, -1)
        np.multiply(mixed.reshape(-1, hi - lo)[back], scale, out=out[:, lo:hi])
    return out


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


def _fif_knots(x: Sequence[float], s: Sequence[float]) -> tuple[np.ndarray, tuple[float, ...]]:
    """Checked knots and multipliers of an interpolation problem."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1 or len(xs) < 3:
        raise ValueError("need at least 3 knots (N >= 2)")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("knots must be strictly increasing")
    scalars = tuple(float(v) for v in s)
    if len(scalars) != len(xs) - 1:
        raise ValueError(f"need one multiplier per subinterval: {len(xs) - 1}, got {len(scalars)}")
    if any(abs(v) >= 1.0 for v in scalars):
        raise ValueError("interpolation multipliers must satisfy |s_i| < 1")
    return xs, scalars


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
    xs, scalars = _fif_knots(x, s)
    partition = from_knots(xs)
    per_blade: dict[int, tuple] = {}
    for key, data in y_by_blade.items():
        mask = _as_mask(key, n)
        ys = np.asarray(data, dtype=float)
        if ys.shape != xs.shape:
            raise ValueError(f"blade {key!r}: expected {len(xs)} ordinates, got shape {ys.shape}")
        per_blade[mask] = _interpolation_polys(xs, ys, scalars)
    q = tuple({mask: polys[i] for mask, polys in per_blade.items()} for i in range(len(scalars)))
    return CliffordRBParams(n, partition, q, scalars)
