"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the library's sign tables or solver plans: blade signs
come from sorting explicit index lists, the transcendental functions from
truncated power series, and fixed-point values from depth-limited recursion
through the self-referential equation.
"""

from __future__ import annotations


import numpy as np

from clifract import GridFunction, Multivector, Poly, RBParams


def mask_to_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def blade_mul_oracle(a_mask: int, b_mask: int) -> tuple[int, int]:
    """Sort the concatenated index list counting transpositions, then
    annihilate adjacent equal pairs at -1 apiece (each generator squares to -1)."""
    seq = mask_to_indices(a_mask) + mask_to_indices(b_mask)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    sign = -1 if swaps % 2 else 1
    result: list[int] = []
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign = -sign
            k += 2
        else:
            result.append(seq[k])
            k += 1
    mask = 0
    for idx in result:
        mask |= 1 << (idx - 1)
    return sign, mask


def conj_oracle_sign(mask: int) -> int:
    """Reverse the factors (counting transpositions), then negate each e_i."""
    indices = mask_to_indices(mask)
    grade = len(indices)
    reversal_swaps = grade * (grade - 1) // 2
    negations = grade
    return -1 if (reversal_swaps + negations) % 2 else 1


def series_exp(x: Multivector, terms: int = 30) -> Multivector:
    total = Multivector.scalar(1.0, x.n)
    term = Multivector.scalar(1.0, x.n)
    for k in range(1, terms):
        term = term * x / k
        total = total + term
    return total


def series_sin(x: Multivector, terms: int = 30) -> Multivector:
    x_sq = x * x
    term = x
    total = x
    for k in range(1, terms):
        term = term * x_sq / ((2 * k) * (2 * k + 1))
        total = total + (term if k % 2 == 0 else -term)
    return total


def eval_field(field, x: float) -> float:
    if isinstance(field, (int, float)):
        return float(field)
    if isinstance(field, Poly):
        return float(field(x))
    if isinstance(field, GridFunction):
        return float(np.interp(x, field.xs, field.values))
    raise TypeError(type(field))


def address_psi(params: RBParams, x: float, depth: int) -> float:
    """Evaluate the fixed point by unrolling psi(L_i(x)) = q_i(x) + s_i(x) psi(x)
    down `depth` levels; truncation error is at most max|s|^depth * sup|psi|."""
    if depth == 0:
        return 0.0
    part = params.partition
    i = part.locate(x)
    pre = min(max(part.maps[i].inverse(x), part.x_lo), part.x_hi)
    return eval_field(params.q[i], pre) + eval_field(params.s[i], pre) * address_psi(
        params, pre, depth - 1
    )


def dense_operator(params: RBParams, grid_m: int) -> tuple[np.ndarray, np.ndarray]:
    """The operator T f = A f + q on an aligned grid as a dense matrix A and vector q.

    Grid point x_j belongs to the tile that `locate` names; with x = L_i^-1(x_j)
    on the grid at index k, row j of A holds s_i(x) in column k and q_j = q_i(x).
    """
    part = params.partition
    xs = np.linspace(part.x_lo, part.x_hi, grid_m + 1)
    matrix = np.zeros((grid_m + 1, grid_m + 1))
    rhs = np.empty(grid_m + 1)
    for j, x in enumerate(xs):
        i = part.locate(x)
        pre = part.maps[i].inverse(x)
        k = int(np.argmin(np.abs(xs - pre)))
        if abs(xs[k] - pre) > 1e-9 * part.span:
            raise ValueError(f"the pre-image of x_{j} is off the grid")
        matrix[j, k] = eval_field(params.s[i], xs[k])
        rhs[j] = eval_field(params.q[i], xs[k])
    return matrix, rhs


def trapezoid_lp(values: np.ndarray, h: float, p: float) -> float:
    weights = np.full(len(values), h)
    weights[0] = weights[-1] = h / 2.0
    return float(np.sum(weights * np.abs(values) ** p) ** (1.0 / p))


def random_multivector(rng: np.random.Generator, n: int, scale: float = 1.0) -> Multivector:
    return Multivector(n, scale * rng.standard_normal(1 << n))


def random_paravector_embedding(rng: np.random.Generator, n: int, scale: float = 1.0):
    from clifract import Paravector

    pv = Paravector(scale * rng.standard_normal(), scale * rng.standard_normal(n))
    return pv


def hamilton_table_oracle(x, y):
    """Quaternion product via the explicit 4x4 sign/index table."""
    # basis order: 1, e1, e2, e3 with e1 e2 = e3 cyclic
    coeffs_x = [x.scalar, *x.vector]
    coeffs_y = [y.scalar, *y.vector]
    table = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    out = [0.0, 0.0, 0.0, 0.0]
    for a in range(4):
        for b in range(4):
            sign, target = table[(a, b)]
            out[target] += sign * coeffs_x[a] * coeffs_y[b]
    from clifract import Paravector

    return Paravector(out[0], out[1:])
