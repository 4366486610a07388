"""Real Clifford algebra arithmetic with all generators squaring to -1.

The algebra over generators e_1, ..., e_n satisfies
e_i e_j + e_j e_i = -2 delta_ij.  Basis blades e_A are indexed by bitmasks:
bit i-1 of the mask is set exactly when i belongs to A, and mask 0 is the
scalar unit e_0 = 1, so a multivector is a dense vector of 2**n blade
coefficients.  The grade <= 1 elements x_0 + sum x_i e_i (paravectors) get
closed-form exp/sin/inverse and a dedicated type.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

MAX_DIMENSION = 12

# Concatenated-digit blade keys ("12" = {1,2}) are ambiguous once indices
# reach 10, so the text form is limited to single-digit generators.
TEXT_FORM_MAX = 9

# Below this vector norm, sin(r)/r and sinh(r)/r switch to series to avoid
# the removable 0/0 in the unit direction.
_SMALL_VECTOR = 1e-8

__all__ = [
    "MAX_DIMENSION",
    "TEXT_FORM_MAX",
    "Multivector",
    "Paravector",
    "ParavectorMatrix",
    "blade_grade",
    "blade_key",
    "blade_mul",
    "clifford_norm",
    "conj",
    "mv_mul",
    "omega",
    "parse_blade_key",
    "pv_project",
    "quaternion_mul",
    "right_linear_apply",
]


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension n must be an integer in [1, {MAX_DIMENSION}], got {n!r}")


def _check_mask(mask: int, n: int) -> None:
    if not isinstance(mask, (int, np.integer)) or not 0 <= mask < (1 << n):
        raise ValueError(f"blade mask {mask!r} out of range for dimension n={n}")


def blade_grade(mask: int) -> int:
    """Number of generators in the blade, i.e. |A|."""
    return int(mask).bit_count()


def blade_mul(a: int, b: int, n: int) -> tuple[int, int]:
    """Product of basis blades: e_a e_b = sign * e_(a XOR b).

    The sign is -1 to the number of generator transpositions needed to
    interleave the two index sequences into canonical order, times one
    extra -1 per annihilated common index (e_i^2 = -1).
    """
    _check_dimension(n)
    _check_mask(a, n)
    _check_mask(b, n)
    return _blade_sign(int(a), int(b)), int(a) ^ int(b)


def _blade_sign(a: int, b: int) -> int:
    swaps = (a & b).bit_count()  # annihilated pairs, one -1 each
    shifted = a >> 1
    while shifted:
        swaps += (shifted & b).bit_count()
        shifted >>= 1
    return -1 if swaps & 1 else 1


_MASKS = np.arange(1 << MAX_DIMENSION, dtype=np.int64)
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << MAX_DIMENSION)], dtype=np.int64)
_PARITY_SIGN = np.where(_POPCOUNT & 1, -1, 1).astype(np.int8)


@lru_cache(maxsize=None)
def _sign_table(n: int) -> np.ndarray:
    """2^n x 2^n int8 table of blade product signs, filled row by row.

    _blade_sign counts |a & b| plus, for each j in b, the generators of a
    above j.  The parity of that count is the parity of |b & r| with
    r = a ^ c, where bit j of c is the parity of |a >> (j+1)|.
    """
    masks = _MASKS[: 1 << n]
    c = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        c |= (_POPCOUNT[masks >> (j + 1)] & 1) << j
    table = np.empty((1 << n, 1 << n), dtype=np.int8)
    for a, r in enumerate(masks ^ c):
        table[a] = _PARITY_SIGN[masks & r]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _conj_signs(n: int) -> np.ndarray:
    """Per-blade sign of conjugation: (-1)^(g(g+1)/2) for grade g."""
    grades = _POPCOUNT[: 1 << n]
    signs = np.where((grades * (grades + 1) // 2) & 1, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _product_coeffs(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of x y: row a of the sign table scatters x[a] * y to a ^ b."""
    masks = _MASKS[: 1 << n]
    signs = _sign_table(n)
    out = np.zeros(1 << n)
    for a in np.flatnonzero(x):
        out[a ^ masks] += signs[a] * (x[a] * y)
    return out


@dataclass(frozen=True, eq=False)
class Multivector:
    """Element of the 2^n-dimensional algebra, coeffs[mask] = x_A."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != (1 << self.n,):
            raise ValueError(
                f"coefficient array must have length {1 << self.n} for n={self.n}, "
                f"got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        _check_dimension(n)
        return cls(n, np.zeros(1 << n))

    @classmethod
    def scalar(cls, value: float, n: int) -> "Multivector":
        _check_dimension(n)
        coeffs = np.zeros(1 << n)
        coeffs[0] = value
        return cls(n, coeffs)

    @classmethod
    def basis(cls, mask: int, n: int) -> "Multivector":
        _check_dimension(n)
        _check_mask(mask, n)
        coeffs = np.zeros(1 << n)
        coeffs[mask] = 1.0
        return cls(n, coeffs)

    @classmethod
    def from_blades(cls, blades: Mapping[int | str, float], n: int) -> "Multivector":
        _check_dimension(n)
        coeffs = np.zeros(1 << n)
        for key, value in blades.items():
            mask = parse_blade_key(key, n) if isinstance(key, str) else key
            _check_mask(mask, n)
            coeffs[mask] = value
        return cls(n, coeffs)

    # -- vector-space structure -------------------------------------------

    def _check_same_algebra(self, other: "Multivector") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same_algebra(other)
        return Multivector(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same_algebra(other)
        return Multivector(self.n, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.n, -self.coeffs)

    def __mul__(self, other: "Multivector | float | int") -> "Multivector":
        if isinstance(other, Multivector):
            self._check_same_algebra(other)
            return Multivector(self.n, _product_coeffs(self.n, self.coeffs, other.coeffs))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.n, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other: "float | int") -> "Multivector":
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.n, float(other) * self.coeffs)
        return NotImplemented

    def __truediv__(self, other: "float | int") -> "Multivector":
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.n, self.coeffs / float(other))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    # -- algebra operations -------------------------------------------------

    def conj(self) -> "Multivector":
        """Conjugation: reverse the blade factors, then negate each e_i."""
        return Multivector(self.n, self.coeffs * _conj_signs(self.n))

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    __abs__ = norm

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    # -- text form ----------------------------------------------------------

    def to_coeff_dict(self) -> dict[str, float]:
        """Sparse blade-key mapping, keys in ascending mask order."""
        if self.n > TEXT_FORM_MAX:
            raise ValueError(
                f"text form supports n <= {TEXT_FORM_MAX}; blade keys with "
                f"two-digit generators would be ambiguous (n={self.n})"
            )
        return {
            blade_key(int(mask)): float(self.coeffs[mask])
            for mask in np.flatnonzero(self.coeffs)
        }

    def to_json_dict(self) -> dict:
        return {"n": self.n, "coeffs": self.to_coeff_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Multivector":
        try:
            n = data["n"]
            blades = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"multivector JSON needs 'n' and 'coeffs': {exc}") from exc
        if not isinstance(n, int) or n > TEXT_FORM_MAX:
            raise ValueError(f"text form supports integer n <= {TEXT_FORM_MAX}, got {n!r}")
        return cls.from_blades(blades, n)

    def __repr__(self) -> str:
        parts = []
        for mask in np.flatnonzero(self.coeffs):
            value = self.coeffs[mask]
            name = "1" if mask == 0 else "e" + "".join(str(i + 1) for i in range(self.n) if mask >> i & 1)
            parts.append(f"{value:g}*{name}" if mask else f"{value:g}")
        body = " + ".join(parts) if parts else "0"
        return f"Multivector(n={self.n}: {body})"


def mv_mul(x: Multivector, y: Multivector) -> Multivector:
    """Bilinear, associative, in general noncommutative product."""
    return x * y


def conj(x: Multivector) -> Multivector:
    return x.conj()


def clifford_norm(x: Multivector) -> float:
    return x.norm()


def blade_key(mask: int) -> str:
    """Blade name as concatenated ascending generator indices; '' is scalar."""
    return "".join(str(i + 1) for i in range(MAX_DIMENSION) if mask >> i & 1)


def parse_blade_key(key: str, n: int) -> int:
    """Inverse of blade_key for single-digit generators (n <= 9)."""
    _check_dimension(n)
    if n > TEXT_FORM_MAX:
        raise ValueError(f"blade keys are only defined for n <= {TEXT_FORM_MAX}")
    mask = 0
    last = 0
    for ch in key:
        if not ch.isdigit() or ch == "0":
            raise ValueError(f"invalid blade key {key!r}: indices are digits 1-9")
        idx = int(ch)
        if idx <= last:
            raise ValueError(f"invalid blade key {key!r}: indices must strictly increase")
        if idx > n:
            raise ValueError(f"invalid blade key {key!r}: index {idx} exceeds n={n}")
        mask |= 1 << (idx - 1)
        last = idx
    return mask


# ---------------------------------------------------------------------------
# Paravectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Paravector:
    """Grade <= 1 element x_0 + sum x_i e_i."""

    scalar: float
    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=float)
        if vec.ndim != 1:
            raise ValueError("vector part must be one-dimensional")
        _check_dimension(len(vec))
        vec.flags.writeable = False
        object.__setattr__(self, "scalar", float(self.scalar))
        object.__setattr__(self, "vector", vec)

    @property
    def n(self) -> int:
        return len(self.vector)

    @classmethod
    def zero(cls, n: int) -> "Paravector":
        return cls(0.0, np.zeros(n))

    @classmethod
    def from_scalar(cls, value: float, n: int) -> "Paravector":
        return cls(value, np.zeros(n))

    def _check_same(self, other: "Paravector") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other: "Paravector") -> "Paravector":
        if not isinstance(other, Paravector):
            return NotImplemented
        self._check_same(other)
        return Paravector(self.scalar + other.scalar, self.vector + other.vector)

    def __sub__(self, other: "Paravector") -> "Paravector":
        if not isinstance(other, Paravector):
            return NotImplemented
        self._check_same(other)
        return Paravector(self.scalar - other.scalar, self.vector - other.vector)

    def __neg__(self) -> "Paravector":
        return Paravector(-self.scalar, -self.vector)

    def __mul__(self, other: "float | int") -> "Paravector":
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Paravector(self.scalar * other, self.vector * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Paravector):
            return NotImplemented
        return self.scalar == other.scalar and np.array_equal(self.vector, other.vector)

    __hash__ = None  # type: ignore[assignment]

    def vector_norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def norm(self) -> float:
        return math.hypot(self.scalar, self.vector_norm())

    __abs__ = norm

    def conj(self) -> "Paravector":
        return Paravector(self.scalar, -self.vector)

    def embed(self) -> Multivector:
        coeffs = np.zeros(1 << self.n)
        coeffs[0] = self.scalar
        for i, v in enumerate(self.vector):
            coeffs[1 << i] = v
        return Multivector(self.n, coeffs)

    def exp(self) -> "Paravector":
        """exp(x) = exp(x_0)(cos|v| + omega(v) sin|v|), with v the vector part."""
        r = self.vector_norm()
        amp = math.exp(self.scalar)
        if r < _SMALL_VECTOR:
            sinc = 1.0 - r * r / 6.0
        else:
            sinc = math.sin(r) / r
        return Paravector(amp * math.cos(r), (amp * sinc) * self.vector)

    def sin(self) -> "Paravector":
        """sin(x) = sin(x_0)cosh|v| + omega(v) cos(x_0)sinh|v|.

        The cos(x_0) factor on the vector part is what the power series
        sum (-1)^k x^(2k+1)/(2k+1)! requires (v^2 = -|v|^2 makes x behave
        like the complex number x_0 + i|v|).
        """
        r = self.vector_norm()
        if r < _SMALL_VECTOR:
            shc = 1.0 + r * r / 6.0
        else:
            shc = math.sinh(r) / r
        return Paravector(
            math.sin(self.scalar) * math.cosh(r),
            (math.cos(self.scalar) * shc) * self.vector,
        )

    def inverse(self) -> "Paravector":
        """conj(x) / |x|^2; the two-sided inverse since x conj(x) = |x|^2."""
        nsq = self.scalar * self.scalar + float(self.vector @ self.vector)
        if nsq == 0.0:
            raise ZeroDivisionError("the zero paravector has no inverse")
        return Paravector(self.scalar / nsq, -self.vector / nsq)

    def __repr__(self) -> str:
        return f"Paravector({self.scalar:g}, {np.array2string(self.vector, precision=6)})"


def pv_project(x: Multivector) -> Paravector:
    """Keep the grade 0 and grade 1 coefficients, drop everything else."""
    vec = np.array([x.coeffs[1 << i] for i in range(x.n)])
    return Paravector(float(x.coeffs[0]), vec)


def omega(vector: Sequence[float]) -> Multivector:
    """Unit direction v/|v| embedded as a grade-1 multivector; omega^2 = -1."""
    vec = np.asarray(vector, dtype=float)
    if vec.ndim != 1:
        raise ValueError("omega expects a one-dimensional vector")
    _check_dimension(len(vec))
    r = float(np.linalg.norm(vec))
    if r == 0.0:
        raise ValueError("omega is undefined for the zero vector")
    unit = vec / r
    coeffs = np.zeros(1 << len(vec))
    for i, v in enumerate(unit):
        coeffs[1 << i] = v
    return Multivector(len(vec), coeffs)


def quaternion_mul(x: Paravector, y: Paravector) -> Paravector:
    """Hamilton product on the n=3 paravector space with the table e1 e2 = e3 cyclic.

    This is an explicitly defined table product, distinct from mv_mul: under
    mv_mul, e1 e2 = e12 leaves the paravector span, so the span is not closed
    without such a table.
    """
    if x.n != 3 or y.n != 3:
        raise ValueError("the quaternion table is defined on n=3 paravectors")
    a, u = x.scalar, x.vector
    b, v = y.scalar, y.vector
    return Paravector(a * b - float(u @ v), a * v + b * u + np.cross(u, v))


# ---------------------------------------------------------------------------
# Right-linear transformations induced by paravector matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParavectorMatrix:
    """Square matrix of paravectors acting by (Hx)_i = sum_j H_ij x_j."""

    entries: tuple[tuple[Paravector, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("entries must form a nonempty square matrix")
        n = rows[0][0].n
        for row in rows:
            for entry in row:
                if not isinstance(entry, Paravector) or entry.n != n:
                    raise ValueError("all entries must be paravectors of the same dimension")
        object.__setattr__(self, "entries", rows)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return self.entries[0][0].n

    @classmethod
    def identity(cls, k: int, n: int) -> "ParavectorMatrix":
        one = Paravector.from_scalar(1.0, n)
        zero = Paravector.zero(n)
        return cls(tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k)))

    def apply(self, x: Sequence[Paravector]) -> list[Paravector]:
        """Row sums of full products, projected back to paravectors.

        Each H_ij x_j is computed in the full algebra (it may pick up grade-2
        terms) and the result is projected entrywise; the composite map is
        right-linear over real scalars.
        """
        if len(x) != self.k:
            raise ValueError(f"expected {self.k} paravectors, got {len(x)}")
        for entry in x:
            if not isinstance(entry, Paravector) or entry.n != self.n:
                raise ValueError("input paravectors must match the matrix dimension")
        out = []
        for row in self.entries:
            acc = Multivector.zero(self.n)
            for h, xj in zip(row, x):
                acc = acc + h.embed() * xj.embed()
            out.append(pv_project(acc))
        return out


def right_linear_apply(matrix: ParavectorMatrix, x: Sequence[Paravector]) -> list[Paravector]:
    return matrix.apply(x)
