"""Real Clifford algebra arithmetic with all generators squaring to -1.

The algebra over generators e_1, ..., e_n satisfies
e_i e_j + e_j e_i = -2 delta_ij.  Basis blades e_A are indexed by bitmasks:
bit i-1 of the mask is set exactly when i belongs to A, and mask 0 is the
scalar unit e_0 = 1, so a multivector is a dense vector of 2**n blade
coefficients.  The grade <= 1 elements x_0 + sum x_i e_i (paravectors) get
closed-form exp/sin/inverse and a dedicated type.

One kernel multiplies stacks of blade rows over any number of points: a
Multivector product is its one-point case, a grid-pointwise product the rest.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._pool import ordered_map

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
    """n = 0 is Cl(0,0) = R: one coefficient, the scalar blade."""
    if not isinstance(n, int) or not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension n must be an integer in [0, {MAX_DIMENSION}], got {n!r}")


def _check_mask(mask: int, n: int) -> None:
    if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)) or not 0 <= mask < (1 << n):
        raise ValueError(f"blade mask {mask!r} is not an integer in 0..{(1 << n) - 1} for dimension n={n}")


def _as_mask(key: int | str, n: int) -> int:
    """The blade a key names: a text key (see `parse_blade_key`), or an int or numpy
    integer mask in range.  A bool or a float is no key."""
    if isinstance(key, str):
        return parse_blade_key(key, n)
    _check_mask(key, n)
    return int(key)


def _scaled(values) -> tuple[np.ndarray, int]:
    """(values * 2^-e, e), with 2^e just above the largest |value| (e = 0 when that is
    0 or not finite).

    The squares of the scaled values neither overflow nor, for the largest,
    underflow.  Power-of-two scaling is exact, so a result computed from the
    scaled values and scaled back keeps its bits wherever no square overflows
    or underflows unscaled.
    """
    values = np.asarray(values, dtype=float)
    top = float(np.max(np.abs(values), initial=0.0))
    exp = math.frexp(top)[1] if math.isfinite(top) else 0
    return np.ldexp(values, -exp), exp


def _norm(values) -> float:
    """Euclidean norm of a vector, computed on its `_scaled` values."""
    unit, exp = _scaled(values)
    return float(np.ldexp(math.sqrt(unit @ unit), exp))


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
    return int(_PARITY_SIGN[int(b) & _sign_masks(n)[a]]), int(a) ^ int(b)


_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << MAX_DIMENSION)], dtype=np.int64)
_PARITY_SIGN = np.where(_POPCOUNT & 1, -1, 1).astype(np.int8)


@lru_cache(maxsize=None)
def _sign_masks(n: int) -> np.ndarray:
    """r with e_a e_b = _PARITY_SIGN[b & r[a]] e_(a^b) for all blades a, b of Cl(0,n).

    The sign counts |a & b|, one -1 per annihilated pair, plus, for each j in b,
    the generators of a above j.  The parity of that count is the parity of
    |b & r| with r = a ^ c, where bit j of c is the parity of |a >> (j+1)|.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    c = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        c |= (_POPCOUNT[masks >> (j + 1)] & 1) << j
    r = masks ^ c
    r.flags.writeable = False
    return r


def _sign_table(n: int) -> np.ndarray:
    """The 2^n x 2^n int8 table of blade product signs; the products read _sign_masks."""
    return _PARITY_SIGN[_sign_masks(n)[:, None] & np.arange(1 << n)]


@lru_cache(maxsize=None)
def _conj_signs(n: int) -> np.ndarray:
    """Per-blade sign of conjugation: (-1)^(g(g+1)/2) for grade g."""
    grades = _POPCOUNT[: 1 << n]
    signs = np.where((grades * (grades + 1) // 2) & 1, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


# A stack of blade rows: sorted masks, and an array whose row k holds blade masks[k]
# at the points along its trailing axes (none for one point).
Stack = tuple[Sequence[int], np.ndarray]


def _stack_product(n: int, f: Stack, g: Stack) -> tuple[np.ndarray, np.ndarray]:
    """The product f g at every point: the sorted masks of its support and its rows.

    Small supports multiply pairs of rows, exactly and in a fixed order; large
    ones go through matrices, within 1e-12 * 2^n * max|f| * max|g| of the pairs.
    """
    f_masks, g_masks = np.asarray(f[0], dtype=np.intp), np.asarray(g[0], dtype=np.intp)
    # At M = 4096 and n = 5..9 a pair of rows costs 10-13 us, and the matrix path, whose
    # work per point is its 2 d^2 slots, as much as about 450 pairs at n = 5 (d = 4), 950
    # at n = 6 (d = 8) and 3,700-4,100 at n = 7..9 (d = 16), at or below 8 pairs a slot
    # plus 512 (768, 1,536, 4,608).  The matrix path never runs at n <= 4.  At one point a
    # pair costs about 10 ns in one add.at and the matrix path 0.06-0.5 ms at n = 8..12, so
    # there too the rule is within about 1.5x of the crossover.
    on_matrices = len(f_masks) * len(g_masks) >= 16 * _rep_dim(n) ** 2 + 512
    if f[1].ndim == 1 and not on_matrices:
        return _pair_product(n, f, g, None)
    # The support is symmetric in f and g, so one step per mask of the shorter list.
    short, long = (f_masks, g_masks) if len(f_masks) <= len(g_masks) else (g_masks, f_masks)
    present = np.zeros(1 << n, dtype=bool)
    for a in short:
        present[a ^ long] = True
        if present.all():
            break
    masks = present.nonzero()[0]
    return masks, (_matrix_product if on_matrices else _pair_product)(n, f, g, masks)


def _pair_product(
    n: int, f: Stack, g: Stack, masks: np.ndarray | None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The product's rows over `masks`, each blade's terms summed in ascending a.

    At one point `masks` is None: the support is the blades the pairs land on,
    and the result is (support, rows).
    """
    sign_masks = _sign_masks(n)
    f_masks, g_masks = np.asarray(f[0], dtype=np.intp), np.asarray(g[0], dtype=np.intp)
    if f[1].ndim == 1:
        # One point: every pair at once.  add.at adds in index order, so each blade
        # still sums its terms in ascending a, as the loop below does.
        terms = _PARITY_SIGN[sign_masks[f_masks][:, None] & g_masks] * f[1][:, None] * g[1]
        landing = (f_masks[:, None] ^ g_masks).ravel()
        out = np.full(1 << n, -0.0)
        np.add.at(out, landing, terms.ravel())
        present = np.zeros(1 << n, dtype=bool)
        present[landing] = True
        masks = present.nonzero()[0]
        return masks, out[masks]
    row_of = {mask: row for row, mask in enumerate(masks.tolist())}
    # -0.0 + x is x for every x, so each row starts as its first term, sign bit included.
    out = np.full((len(masks), *f[1].shape[1:]), -0.0)
    # One pair of rows at a time: at n = 9 and M = 4096, scattering each row of f
    # against all of g at once gave the same bits in 13.5 s against 4.1 s.
    for a, fa in zip(*f):
        for b, sign, gb in zip(g[0], _PARITY_SIGN[sign_masks[a] & g_masks], g[1]):
            out[row_of[a ^ b]] += sign * fa * gb
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


def _forward_map(n: int, h: Stack) -> Callable[[int, int], np.ndarray]:
    """lo, hi -> F = sum_A h_A Gamma_A at points lo..hi-1 of a stack of (rows, points),
    as (hi - lo, d, d) complex matrices.

    Per call: one copy of the block's rows, signed, with a zero row below them for
    the slots no blade of h fills; one gather of that copy into the (z, x, re/im)
    slots, one Hadamard matmul over z and one permutation into the matrices.
    """
    slot, sign, had, relayout = _rep_tables(n)
    d, (masks, values) = len(had), (np.asarray(h[0], dtype=np.intp), h[1])
    source = np.full(2 * d * d, len(masks))
    source[slot[masks]] = np.arange(len(masks))
    row_signs = sign[masks][:, None]

    def matrices(lo: int, hi: int) -> np.ndarray:
        rows = np.zeros((len(masks) + 1, hi - lo))
        np.multiply(values[:, lo:hi], row_signs, out=rows[:-1])
        mixed = had @ rows.take(source, axis=0).reshape(d, -1)
        return mixed.reshape(-1, hi - lo).T.take(relayout, axis=1).view(np.complex128).reshape(-1, d, d)

    return matrices


def _matrix_product(n: int, f: Stack, g: Stack, masks: np.ndarray) -> np.ndarray:
    """The product's rows over `masks`, through d x d matrices at each point.

    Per block of points: F and G by `_forward_map`, one batched matmul, then H
    permuted to the (r, x, re/im) layout, one Hadamard matmul over r and one
    gather scaled by +-1/d straight into the output.  No (2^n, d, d) array is
    ever formed.  Up to d = 16 (n <= 9) the blocks run on one thread per CPU
    (`ordered_map`); from d = 32 on, the matmuls bring OpenBLAS's own threads,
    and pooled blocks ran 2.4-3.6x slower there, so the blocks run in turn.
    """
    slot, sign, had, relayout = _rep_tables(n)
    d = len(had)
    back, scale = slot[masks], (sign[masks] / d)[:, None]
    points = f[1].shape[1:]
    f, g = ((h[0], h[1].reshape(len(h[0]), -1)) for h in (f, g))
    total = f[1].shape[1]
    forward_f, forward_g = _forward_map(n, f), _forward_map(n, g)
    # 2^14 matrix entries a block was fastest at n = 9; each transient stays under 1 MB.
    block = max(1, (1 << 14) // (d * d))
    out = np.empty((len(masks), total))

    def multiply(starts: Iterable[int]) -> None:
        for lo in starts:
            hi = min(lo + block, total)
            prod = np.matmul(forward_f(lo, hi), forward_g(lo, hi))
            mixed = had @ prod.reshape(hi - lo, -1).view(np.float64).T.take(relayout, axis=0).reshape(d, -1)
            np.multiply(mixed.reshape(-1, hi - lo)[back], scale, out=out[:, lo:hi])

    starts = range(0, total, block)
    if d <= 16:
        for _ in ordered_map(lambda lo: multiply([lo]), starts, len(starts)):
            pass
    else:
        # One loop keeps a block's arrays until the next block has made its own; a call per
        # block freed them all on return, and glibc's heap trimming made n = 11 15% slower.
        multiply(starts)
    return out.reshape(len(masks), *points)


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
        return cls.from_blades({0: value}, n)

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
            coeffs[_as_mask(key, n)] = value
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
            x, y = self.coeffs.nonzero()[0], other.coeffs.nonzero()[0]
            masks, values = _stack_product(self.n, (x, self.coeffs[x]), (y, other.coeffs[y]))
            coeffs = np.zeros(1 << self.n)
            coeffs[masks] = values
            return Multivector(self.n, coeffs)
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
        return _norm(self.coeffs)

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
        masks = np.flatnonzero(self.coeffs)
        parts = [f"{self.coeffs[m]:g}" + (f"*e{blade_key(m)}" if m else "") for m in masks]
        return f"Multivector(n={self.n}: {' + '.join(parts) or '0'})"


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

# ln 2 in two parts: the first has 32 significant bits, so k * _LN2_HI is exact for |k| < 2^21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _exp(x: float) -> tuple[float, int]:
    """(m, k) with e^x = m 2^k: (math.exp(x), 0) wherever that is finite, else
    m = e^f with f = x - k ln 2 in [-ln 2 / 2, ln 2 / 2].

    An x above 4,000 counts as 4,000: e^x then overflows in any product with up
    to three nonzero float factors, and k * _LN2_HI stays exact.
    """
    try:
        return math.exp(x), 0
    except OverflowError:
        x = min(x, 4000.0)
        k = round(x / math.log(2))
        return math.exp((x - k * _LN2_HI) - k * _LN2_LO), k


def _times_pow2(factor: float, x, k: int):
    """factor * x * 2^k: with k = 0 the plain product, else the exponent of x is
    moved into the ldexp, so that no intermediate loses bits to underflow; inf
    only where the true product overflows."""
    if not k:
        return factor * x
    frac, exp = np.frexp(x)
    with np.errstate(over="ignore"):
        return np.ldexp(factor * frac, exp + k)


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
        return _norm(self.vector)

    def norm(self) -> float:
        return math.hypot(self.scalar, self.vector_norm())

    __abs__ = norm

    def conj(self) -> "Paravector":
        return Paravector(self.scalar, -self.vector)

    def embed(self) -> Multivector:
        coeffs = np.zeros(1 << self.n)
        coeffs[0] = self.scalar
        coeffs[1 << np.arange(self.n)] = self.vector
        return Multivector(self.n, coeffs)

    def exp(self) -> "Paravector":
        """exp(x) = exp(x_0)(cos|v| + omega(v) sin|v|), with v the vector part.

        Past exp's float range, exp(x_0) is carried as m 2^k (see `_exp`).
        """
        r = self.vector_norm()
        amp, k = _exp(self.scalar)
        if r < _SMALL_VECTOR:
            sinc = 1.0 - r * r / 6.0
        else:
            sinc = math.sin(r) / r
        return Paravector(_times_pow2(amp, math.cos(r), k), _times_pow2(amp * sinc, self.vector, k))

    def sin(self) -> "Paravector":
        """sin(x) = sin(x_0)cosh|v| + omega(v) cos(x_0)sinh|v|.

        The cos(x_0) factor on the vector part is what the power series
        sum (-1)^k x^(2k+1)/(2k+1)! requires (v^2 = -|v|^2 makes x behave
        like the complex number x_0 + i|v|).  Past cosh's float range,
        cosh|v| = sinh|v| = e^|v| / 2 to within e^(-2|v|), carried as m 2^k.
        """
        r = self.vector_norm()
        try:
            cosh, sinh, k = math.cosh(r), math.sinh(r), 0
        except OverflowError:
            cosh, k = _exp(r)
            sinh, k = cosh, k - 1
        if r < _SMALL_VECTOR:
            shc = 1.0 + r * r / 6.0
        else:
            shc = sinh / r
        return Paravector(
            _times_pow2(cosh, math.sin(self.scalar), k),
            _times_pow2(math.cos(self.scalar) * shc, self.vector, k),
        )

    def inverse(self) -> "Paravector":
        """conj(x) / |x|^2; the two-sided inverse since x conj(x) = |x|^2.

        It is conj(y) / |y|^2 * 2^-e for the `_scaled` y = x * 2^-e, so |y|^2
        neither overflows nor underflows.
        """
        unit, exp = _scaled([self.scalar, *self.vector])
        scalar, vector = float(unit[0]), unit[1:]
        nsq = scalar * scalar + float(vector @ vector)
        if nsq == 0.0:
            raise ZeroDivisionError("the zero paravector has no inverse")
        return Paravector(np.ldexp(scalar / nsq, -exp), np.ldexp(-vector / nsq, -exp))

    def __repr__(self) -> str:
        return f"Paravector({self.scalar:g}, {np.array2string(self.vector, precision=6)})"


def pv_project(x: Multivector) -> Paravector:
    """Keep the grade 0 and grade 1 coefficients, drop everything else."""
    return Paravector(float(x.coeffs[0]), x.coeffs[1 << np.arange(x.n)])


def omega(vector: Sequence[float]) -> Multivector:
    """Unit direction v/|v| embedded as a grade-1 multivector; omega^2 = -1."""
    vec = np.asarray(vector, dtype=float)
    if vec.ndim != 1:
        raise ValueError("omega expects a one-dimensional vector")
    _check_dimension(len(vec))
    r = _norm(vec)
    if r == 0.0:
        raise ValueError("omega is undefined for the zero vector")
    return Paravector(0.0, vec / r).embed()


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
