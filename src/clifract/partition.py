"""Families of contractive affine injections that tile an interval.

A partition consists of maps L_i(x) = a_i x + b_i with 0 < |a_i| < 1 whose
images have pairwise disjoint interiors and whose closures cover the whole
interval X.  The partition also owns the carrier grid and the one junction
rule, stated at `locate`, for points and grid points alike, so piecewise
definitions over the tiles are single-valued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["AffineMap", "AffinePartition", "from_knots", "uniform_partition"]

# Relative slack for the tiling checks; images computed from float (a, b)
# pairs can miss exact junctions by a few ulps.
_TILE_RTOL = 1e-9


@dataclass(frozen=True)
class AffineMap:
    """x -> a*x + b with 0 < |a| < 1 (an injective nontrivial contraction)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.a) or not np.isfinite(self.b):
            raise ValueError("affine map coefficients must be finite")
        if not 0.0 < abs(self.a) < 1.0:
            raise ValueError(f"slope must satisfy 0 < |a| < 1, got a={self.a}")

    def __call__(self, x):
        return self.a * np.asarray(x, dtype=float) + self.b if np.ndim(x) else self.a * x + self.b

    def inverse(self, y):
        """Pre-image (y - b)/a; exact round trip up to float rounding."""
        return (np.asarray(y, dtype=float) - self.b) / self.a if np.ndim(y) else (y - self.b) / self.a

    @property
    def lip(self) -> float:
        return abs(self.a)

    def image(self, x_lo: float, x_hi: float) -> tuple[float, float]:
        lo, hi = self(x_lo), self(x_hi)
        return (lo, hi) if lo <= hi else (hi, lo)


@dataclass(frozen=True)
class AffinePartition:
    """Interval [x_lo, x_hi] tiled by the images of N >= 2 affine contractions.

    Maps must be listed in spatial order of their images; `knots` holds the
    resulting junction points x_lo = k_0 < k_1 < ... < k_N = x_hi.
    """

    x_lo: float
    x_hi: float
    maps: tuple[AffineMap, ...]
    knots: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_lo", float(self.x_lo))
        object.__setattr__(self, "x_hi", float(self.x_hi))
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.x_lo < self.x_hi:
            raise ValueError(f"empty interval: [{self.x_lo}, {self.x_hi}]")
        if len(self.maps) < 2:
            raise ValueError(f"a partition needs N >= 2 maps, got {len(self.maps)}")
        if not all(isinstance(m, AffineMap) for m in self.maps):
            raise ValueError("maps must be AffineMap instances")
        derived = self._validate_tiling()
        if self.knots:
            knots = tuple(float(k) for k in self.knots)
            if len(knots) != len(self.maps) + 1 or not np.allclose(
                knots, derived, rtol=0.0, atol=_TILE_RTOL * self.span
            ):
                raise ValueError("explicit knots do not match the map images")
        else:
            knots = derived
        object.__setattr__(self, "knots", knots)

    def _validate_tiling(self) -> tuple[float, ...]:
        tol = _TILE_RTOL * self.span
        images = [m.image(self.x_lo, self.x_hi) for m in self.maps]
        if any(lo < self.x_lo - tol or hi > self.x_hi + tol for lo, hi in images):
            raise ValueError("map images must stay inside the interval")
        if any(images[i + 1][0] < images[i][0] for i in range(len(images) - 1)):
            raise ValueError("maps must be listed in spatial order of their images")
        if abs(images[0][0] - self.x_lo) > tol or abs(images[-1][1] - self.x_hi) > tol:
            raise ValueError("images must cover the interval endpoints")
        for (_, hi), (lo, _) in zip(images, images[1:]):
            if abs(hi - lo) > tol:
                raise ValueError(
                    "consecutive images must share exactly one endpoint "
                    f"(gap or overlap of size {abs(hi - lo):g})"
                )
        return (self.x_lo, *(hi for _, hi in images[:-1]), self.x_hi)

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def span(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def max_lip(self) -> float:
        return max(m.lip for m in self.maps)

    def _junction_ends(self) -> np.ndarray:
        """Interior junctions plus the tiling slack: the last points their left tiles own."""
        return np.asarray(self.knots[1:-1]) + _TILE_RTOL * self.span

    def locate(self, x):
        """0-based index of the subinterval owning x: a junction, and any point past
        it by at most the tiling slack 1e-9 * (x_hi - x_lo), belongs to the left one,
        and x_hi to the last.  Accepts scalars or arrays; raises outside [x_lo, x_hi]."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < self.x_lo) or np.any(arr > self.x_hi):
            raise ValueError(f"point outside the interval [{self.x_lo}, {self.x_hi}]")
        idx = np.searchsorted(self._junction_ends(), arr, side="left")
        return int(idx) if np.ndim(x) == 0 else idx

    def _check_grid(self, grid_m: int) -> None:
        """M >= N intervals, each wider than 4 float spacings at the larger |x_lo|, |x_hi|:
        the rounding in `grid` then keeps its points strictly increasing."""
        if grid_m < self.size:
            raise ValueError(f"grid must have M >= N intervals: M={grid_m} < N={self.size}")
        step, spacing = self.span / grid_m, np.spacing(max(abs(self.x_lo), abs(self.x_hi)))
        if not step > 4 * spacing:
            raise ValueError(
                f"grid step (x_hi - x_lo) / M = {step:g} is not above 4 float spacings "
                f"({4 * spacing:g}) at the interval ends, so the grid points would coincide"
            )

    def grid(self, grid_m: int) -> np.ndarray:
        """The carrier grid linspace(x_lo, x_hi, M + 1), M >= N, bit for bit: point
        j < M is x_lo + j * ((x_hi - x_lo) / M), and the last point is x_hi itself."""
        self._check_grid(grid_m)
        # linspace's steps, out of place: after np.linspace, which frees no temporary, the first
        # interpolating solve at 2^16 ran 10% slower (glibc's mmap threshold stayed low).
        xs = self.x_lo + (self.span / grid_m) * np.arange(grid_m + 1)
        xs[-1] = self.x_hi
        return xs

    def tile_ranges(self, xs: np.ndarray) -> list[slice]:
        """Per tile, the slice of increasing points `xs` (a grid) that it owns under
        `locate`'s rule; searches the N - 1 junctions in `xs`, with no per-point array."""
        bounds = [0, *np.searchsorted(xs, self._junction_ends(), side="right").tolist(), len(xs)]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def subinterval(self, i: int) -> tuple[float, float]:
        return self.knots[i], self.knots[i + 1]


def uniform_partition(x_lo: float, x_hi: float, n_maps: int) -> AffinePartition:
    """N equal tiles: L_i(x) = (x - x_lo)/N + x_lo + i*(x_hi - x_lo)/N."""
    if n_maps < 2:
        raise ValueError(f"a partition needs N >= 2 maps, got {n_maps}")
    if not x_lo < x_hi:
        raise ValueError(f"empty interval: [{x_lo}, {x_hi}]")
    width = (x_hi - x_lo) / n_maps
    a = 1.0 / n_maps
    maps = tuple(AffineMap(a, x_lo + i * width - a * x_lo) for i in range(n_maps))
    knots = tuple(x_lo + i * width for i in range(n_maps)) + (x_hi,)
    return AffinePartition(x_lo, x_hi, maps, knots)


def from_knots(knots: Sequence[float]) -> AffinePartition:
    """Tiles [k_0, k_N] so that L_i maps the whole interval onto [k_i, k_i+1]."""
    ks = np.asarray(knots, dtype=float)
    if ks.ndim != 1 or len(ks) < 3:
        raise ValueError(f"need a sequence of at least 3 knots (N >= 2), got shape {ks.shape}")
    ks = ks.tolist()
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("knots must be strictly increasing")
    x_lo, x_hi = ks[0], ks[-1]
    span = x_hi - x_lo
    maps = tuple(
        AffineMap((hi - lo) / span, lo - (hi - lo) / span * x_lo)
        for lo, hi in zip(ks, ks[1:])
    )
    return AffinePartition(x_lo, x_hi, maps, tuple(ks))
