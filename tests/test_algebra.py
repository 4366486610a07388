import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifract import (
    Multivector,
    Paravector,
    ParavectorMatrix,
    blade_key,
    blade_mul,
    clifford_norm,
    conj,
    mv_mul,
    omega,
    parse_blade_key,
    pv_project,
    quaternion_mul,
    right_linear_apply,
)

from oracles import (
    blade_mul_oracle,
    conj_oracle_sign,
    hamilton_table_oracle,
    series_exp,
    series_sin,
)


def basis(mask, n):
    return Multivector.basis(mask, n)


# ---------------------------------------------------------------------------
# blade products
# ---------------------------------------------------------------------------


def test_blade_mul_generator_squares_to_minus_one():
    assert blade_mul(0b1, 0b1, 1) == (-1, 0)


def test_blade_mul_scalar_unit_is_neutral():
    for mask in range(8):
        assert blade_mul(0, mask, 3) == (1, mask)
        assert blade_mul(mask, 0, 3) == (1, mask)


def test_blade_mul_e12_times_e1_gives_plus_e2():
    # frozen from the transposition-sort oracle: e1 e2 e1 = -e1 e1 e2 = +e2
    assert blade_mul(0b11, 0b01, 2) == (1, 0b10)
    assert blade_mul_oracle(0b11, 0b01) == (1, 0b10)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=200, deadline=None)
def test_blade_mul_matches_oracle(n, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert blade_mul(a, b, n) == blade_mul_oracle(a, b)


def test_blade_mul_rejects_out_of_range_masks():
    with pytest.raises(ValueError):
        blade_mul(0b100, 0b1, 2)


# ---------------------------------------------------------------------------
# multivector products
# ---------------------------------------------------------------------------


def test_mv_mul_identity():
    one = Multivector.scalar(1.0, 3)
    x = Multivector.from_blades({"": 0.5, "2": -1.5, "13": 2.0}, 3)
    assert mv_mul(one, x) == x
    assert mv_mul(x, one) == x


def test_mv_mul_single_blades():
    assert mv_mul(basis(0b01, 2), basis(0b10, 2)) == basis(0b11, 2)


def test_mv_mul_conjugate_pair_collapses_to_scalar():
    one = Multivector.scalar(1.0, 1)
    e1 = basis(1, 1)
    assert mv_mul(one + e1, one - e1) == Multivector.scalar(2.0, 1)


def test_anticommutation_of_generators():
    n = 4
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = basis(1 << i, n), basis(1 << j, n)
            assert mv_mul(ei, ej) == -mv_mul(ej, ei)
        assert mv_mul(basis(1 << i, n), basis(1 << i, n)) == Multivector.scalar(-1.0, n)


def test_mv_mul_multiplies_only_the_nonzero_coefficients():
    # A blade where y is zero adds no inf * 0 = nan term.
    product = mv_mul(Multivector.scalar(math.inf, 2), basis(0b01, 2))
    assert np.array_equal(product.coeffs, [0.0, math.inf, 0.0, 0.0])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        mv_mul(Multivector.scalar(1.0, 2), Multivector.scalar(1.0, 3))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_mv_mul_dense_and_sparse_match_oracle(n, rng):
    size = 1 << n
    x, y = rng.standard_normal(size), rng.standard_normal(size)
    product = mv_mul(Multivector(n, x), Multivector(n, y)).coeffs
    for target in rng.choice(size, 4, replace=False):
        want = 0.0
        for a in range(size):
            sign, mask = blade_mul_oracle(a, a ^ int(target))
            assert mask == target
            want += sign * x[a] * y[a ^ target]
        assert product[target] == pytest.approx(want, rel=1e-12, abs=1e-12)

    x, y = np.zeros(size), np.zeros(size)
    x[rng.choice(size, 5, replace=False)] = rng.standard_normal(5)
    y[rng.choice(size, 5, replace=False)] = rng.standard_normal(5)
    want = np.zeros(size)
    for a in np.flatnonzero(x):
        for b in np.flatnonzero(y):
            sign, mask = blade_mul_oracle(int(a), int(b))
            want[mask] += sign * x[a] * y[b]
    product = mv_mul(Multivector(n, x), Multivector(n, y)).coeffs
    np.testing.assert_allclose(product, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_associativity_random(n, rng):
    for _ in range(40):
        x, y, z = (Multivector(n, rng.standard_normal(1 << n)) for _ in range(3))
        left = mv_mul(mv_mul(x, y), z)
        right = mv_mul(x, mv_mul(y, z))
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_conj_is_anti_automorphism(n, rng):
    for _ in range(40):
        x = Multivector(n, rng.standard_normal(1 << n))
        y = Multivector(n, rng.standard_normal(1 << n))
        left = mv_mul(x, y).conj()
        right = mv_mul(y.conj(), x.conj())
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12


def test_conj_examples():
    assert basis(0b1, 3).conj() == -basis(0b1, 3)
    assert Multivector.scalar(1.0, 3).conj() == Multivector.scalar(1.0, 3)
    # frozen from the reversal-and-negation oracle
    assert basis(0b011, 3).conj() == -basis(0b011, 3)
    assert basis(0b111, 3).conj() == basis(0b111, 3)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=100, deadline=None)
def test_conj_sign_matches_reversal_oracle(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    mv = basis(mask, n).conj()
    assert mv.coeffs[mask] == conj_oracle_sign(mask)


def test_conj_is_involutive(rng):
    x = Multivector(4, rng.standard_normal(16))
    assert x.conj().conj() == x


def test_norm_examples():
    assert Multivector.zero(3).norm() == 0.0
    assert basis(0b101, 3).norm() == 1.0
    assert math.isclose((Multivector.scalar(1.0, 1) + basis(1, 1)).norm(), math.sqrt(2))


# ---------------------------------------------------------------------------
# paravectors
# ---------------------------------------------------------------------------


def test_pv_project_examples():
    assert pv_project(basis(0b11, 2)) == Paravector.zero(2)
    x = Multivector.from_blades({"": 3.0, "2": 1.0}, 2)
    assert pv_project(x) == Paravector(3.0, [0.0, 1.0])
    y = Multivector.from_blades({"": 1.0, "1": 1.0, "12": 5.0}, 2)
    assert pv_project(y) == Paravector(1.0, [1.0, 0.0])


def test_pv_project_is_idempotent(rng):
    x = Multivector(3, rng.standard_normal(8))
    once = pv_project(x)
    assert pv_project(once.embed()) == once


def test_omega_examples():
    assert omega([2.0]) == Multivector.basis(1, 1)
    w = omega([3.0, 4.0])
    assert np.allclose(w.coeffs, [0.0, 0.6, 0.8, 0.0])
    assert mv_mul(w, w) == Multivector.scalar(-1.0, 2)


def test_omega_rejects_zero_vector():
    with pytest.raises(ValueError):
        omega([0.0, 0.0])


def test_paravector_times_conjugate_is_norm_squared(rng):
    for n in (1, 2, 4, 6):
        pv = Paravector(rng.standard_normal(), rng.standard_normal(n))
        product = mv_mul(pv.embed(), pv.conj().embed())
        expected = Multivector.scalar(pv.norm() ** 2, n)
        assert np.max(np.abs(product.coeffs - expected.coeffs)) < 1e-12


def test_paravector_square_stays_paravector(rng):
    for n in (2, 3, 5):
        pv = Paravector(rng.standard_normal(), rng.standard_normal(n))
        square = mv_mul(pv.embed(), pv.embed())
        high = [c for mask, c in enumerate(square.coeffs) if bin(mask).count("1") >= 2]
        assert np.max(np.abs(high)) < 1e-12


def test_exp_examples():
    assert Paravector.zero(2).exp() == Paravector(1.0, [0.0, 0.0])
    flipped = Paravector(0.0, [math.pi]).exp()
    assert abs(flipped.scalar + 1.0) < 1e-15
    assert abs(flipped.vector[0]) < 1e-15


def test_exp_matches_series():
    pv = Paravector(1.0, [1.0])
    expected = series_exp(pv.embed(), terms=30)
    assert np.max(np.abs(pv.exp().embed().coeffs - expected.coeffs)) < 1e-12


def test_sin_examples():
    assert Paravector.zero(1).sin() == Paravector.zero(1)
    assert abs(Paravector(math.pi / 2, [0.0]).sin().scalar - 1.0) < 1e-15
    hyperbolic = Paravector(0.0, [1.0]).sin()
    assert abs(hyperbolic.vector[0] - math.sinh(1.0)) < 1e-14
    assert abs(hyperbolic.vector[0] - 1.1752011936438014) < 1e-13


@pytest.mark.parametrize("n", [1, 3])
def test_exp_and_sin_match_series_on_random_inputs(n, rng):
    for _ in range(50):
        raw = Paravector(rng.standard_normal(), rng.standard_normal(n))
        pv = raw * (rng.uniform(0.1, 3.0) / max(raw.norm(), 1e-9))
        assert np.max(np.abs(pv.exp().embed().coeffs - series_exp(pv.embed()).coeffs)) < 1e-10
        assert np.max(np.abs(pv.sin().embed().coeffs - series_sin(pv.embed()).coeffs)) < 1e-10


def test_small_vector_branch_is_smooth():
    tiny = Paravector(0.7, [1e-12, 0.0])
    assert abs(tiny.exp().scalar - math.exp(0.7)) < 1e-12
    assert abs(tiny.sin().scalar - math.sin(0.7)) < 1e-12


def test_inverse_examples():
    assert Paravector(1.0, [0.0]).inverse() == Paravector(1.0, [0.0])
    assert Paravector(0.0, [2.0]).inverse() == Paravector(0.0, [-0.5])
    inv = Paravector(1.0, [1.0]).inverse()
    assert inv == Paravector(0.5, [-0.5])


def test_inverse_is_two_sided(rng):
    for n in (1, 2, 6):
        pv = Paravector(rng.standard_normal() + 0.5, rng.standard_normal(n))
        inv = pv.inverse()
        one = Multivector.scalar(1.0, n)
        assert np.max(np.abs(mv_mul(pv.embed(), inv.embed()).coeffs - one.coeffs)) < 1e-12
        assert np.max(np.abs(mv_mul(inv.embed(), pv.embed()).coeffs - one.coeffs)) < 1e-12


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Paravector.zero(3).inverse()


def _exact_norm(*values):
    return sum(Decimal(v) ** 2 for v in values).sqrt()


def _parts(pv):
    return [pv.scalar, *pv.vector.tolist()]


# Squares past the float range either way: each result within 2 ulp of the exact one.
SCALED_CASES = {
    "mv-norm-huge": (lambda: [Multivector(2, [3e200, 4e200, 0, 0]).norm()], lambda: [_exact_norm(3e200, 4e200)]),
    "mv-norm-tiny": (
        lambda: [clifford_norm(Multivector(2, [3e-200, 4e-200, 0, 0]))], lambda: [_exact_norm(3e-200, 4e-200)]
    ),
    "pv-norm-huge": (lambda: [Paravector(3e200, [4e200]).norm()], lambda: [_exact_norm(3e200, 4e200)]),
    "pv-inverse-tiny": (lambda: _parts(Paravector(1e-170, [0, 0]).inverse()), lambda: [1 / Decimal(1e-170), 0, 0]),
    "pv-inverse-huge": (lambda: _parts(Paravector(1e170, [0, 0]).inverse()), lambda: [1 / Decimal(1e170), 0, 0]),
    "omega-huge": (
        lambda: omega([3e200, 4e200]).coeffs.tolist(),
        lambda: [0, Decimal(3e200) / _exact_norm(3e200, 4e200), Decimal(4e200) / _exact_norm(3e200, 4e200), 0],
    ),
    "omega-tiny": (
        lambda: omega([3e-200, 4e-200]).coeffs.tolist(),
        lambda: [0, Decimal(3e-200) / _exact_norm(3e-200, 4e-200), Decimal(4e-200) / _exact_norm(3e-200, 4e-200), 0],
    ),
}


@pytest.mark.parametrize("case", SCALED_CASES)
def test_norms_and_inverses_neither_overflow_nor_underflow(case):
    computed, exact = SCALED_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = computed()
    with localcontext() as ctx:
        ctx.prec = 60
        want = exact()
        assert len(got) == len(want)
        for value, target in zip(got, want):
            assert math.isfinite(value)
            assert abs(Decimal(value) - target) <= 2 * Decimal(math.ulp(float(target)))


def test_scaled_norms_keep_the_unscaled_bits_at_ordinary_magnitudes(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        values = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-30, 30, n + 1)
        pv = Paravector(values[0], values[1:])
        assert pv.vector_norm() == float(np.linalg.norm(pv.vector))
        assert Multivector(n, np.resize(values, 1 << n)).norm() == float(np.linalg.norm(np.resize(values, 1 << n)))
        nsq = pv.scalar * pv.scalar + float(pv.vector @ pv.vector)
        assert pv.inverse() == Paravector(pv.scalar / nsq, -pv.vector / nsq)
        assert omega(pv.vector) == Paravector(0.0, pv.vector / float(np.linalg.norm(pv.vector))).embed()


def test_scalar_multiples_of_a_multivector(rng):
    x = Multivector(3, rng.standard_normal(8))
    for factor in (2, -0.5, np.float64(3.25), np.int64(-4)):
        expected = Multivector(3, x.coeffs * float(factor))
        assert x * factor == expected
        assert factor * x == expected
    assert x / 4 == Multivector(3, x.coeffs / 4.0)
    with pytest.raises(TypeError):
        x * "2"
    with pytest.raises(TypeError):
        "2" * x


def test_paravector_sums_match_their_multivector_embeddings(rng):
    for n in (1, 3, 5):
        a = Paravector(rng.standard_normal(), rng.standard_normal(n))
        b = Paravector(rng.standard_normal(), rng.standard_normal(n))
        assert (a + b).embed() == a.embed() + b.embed()
        assert (a - b).embed() == a.embed() - b.embed()
        assert (-a).embed() == -a.embed()
    with pytest.raises(ValueError, match="dimension mismatch: n=2 vs n=3"):
        Paravector.zero(2) + Paravector.zero(3)
    with pytest.raises(ValueError, match="dimension mismatch: n=3 vs n=2"):
        Paravector.zero(3) - Paravector.zero(2)


def test_module_conj_and_clifford_norm_are_the_methods(rng):
    x = Multivector(4, rng.standard_normal(16))
    assert conj(x) == x.conj()
    assert clifford_norm(x) == x.norm() == float(np.linalg.norm(x.coeffs))


# ---------------------------------------------------------------------------
# quaternion table on n = 3
# ---------------------------------------------------------------------------


def test_quaternion_table_is_cyclic():
    e1 = Paravector(0.0, [1.0, 0.0, 0.0])
    e2 = Paravector(0.0, [0.0, 1.0, 0.0])
    e3 = Paravector(0.0, [0.0, 0.0, 1.0])
    assert quaternion_mul(e1, e2) == e3
    assert quaternion_mul(e2, e3) == e1
    assert quaternion_mul(e3, e1) == e2
    assert quaternion_mul(e1, e1) == Paravector(-1.0, [0.0, 0.0, 0.0])


def test_quaternion_table_differs_from_clifford_product():
    e1 = Paravector(0.0, [1.0, 0.0, 0.0])
    e2 = Paravector(0.0, [0.0, 1.0, 0.0])
    clifford = mv_mul(e1.embed(), e2.embed())
    # under the algebra product the result is the bivector e12, which the
    # paravector span does not contain
    assert clifford == Multivector.basis(0b011, 3)
    assert pv_project(clifford) == Paravector.zero(3)


def test_quaternion_mul_matches_table_oracle(rng):
    for _ in range(25):
        x = Paravector(rng.standard_normal(), rng.standard_normal(3))
        y = Paravector(rng.standard_normal(), rng.standard_normal(3))
        got = quaternion_mul(x, y)
        want = hamilton_table_oracle(x, y)
        assert abs(got.scalar - want.scalar) < 1e-12
        assert np.max(np.abs(got.vector - want.vector)) < 1e-12


def test_quaternion_norm_is_multiplicative(rng):
    x = Paravector(rng.standard_normal(), rng.standard_normal(3))
    y = Paravector(rng.standard_normal(), rng.standard_normal(3))
    assert math.isclose(quaternion_mul(x, y).norm(), x.norm() * y.norm(), rel_tol=1e-12)


def test_quaternion_inverse_agrees_with_paravector_inverse(rng):
    x = Paravector(rng.standard_normal() + 1.0, rng.standard_normal(3))
    product = quaternion_mul(x, x.inverse())
    assert abs(product.scalar - 1.0) < 1e-12
    assert np.max(np.abs(product.vector)) < 1e-12


def test_quaternion_mul_requires_n3():
    with pytest.raises(ValueError):
        quaternion_mul(Paravector.zero(2), Paravector.zero(2))


# ---------------------------------------------------------------------------
# right-linear matrix transformations
# ---------------------------------------------------------------------------


def test_identity_matrix_is_neutral(rng):
    h = ParavectorMatrix.identity(3, 2)
    xs = [Paravector(rng.standard_normal(), rng.standard_normal(2)) for _ in range(3)]
    out = right_linear_apply(h, xs)
    assert out == xs


def test_bivector_part_is_projected_away():
    h = ParavectorMatrix(((Paravector(0.0, [1.0, 0.0]),),))
    x = [Paravector(0.0, [0.0, 1.0])]
    assert right_linear_apply(h, x) == [Paravector.zero(2)]


def test_right_linearity_over_reals(rng):
    entries = tuple(
        tuple(Paravector(rng.standard_normal(), rng.standard_normal(2)) for _ in range(2))
        for _ in range(2)
    )
    h = ParavectorMatrix(entries)
    xs = [Paravector(rng.standard_normal(), rng.standard_normal(2)) for _ in range(2)]
    lam = 1.7
    scaled = right_linear_apply(h, [x * lam for x in xs])
    plain = right_linear_apply(h, xs)
    for a, b in zip(scaled, plain):
        assert abs(a.scalar - b.scalar * lam) < 1e-12
        assert np.max(np.abs(a.vector - b.vector * lam)) < 1e-12


def test_matrix_shape_mismatch():
    h = ParavectorMatrix.identity(2, 2)
    with pytest.raises(ValueError):
        right_linear_apply(h, [Paravector.zero(2)])


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def test_blade_key_round_trip():
    for mask in range(16):
        assert parse_blade_key(blade_key(mask), 4) == mask


def test_json_dict_round_trip_is_bit_exact(rng):
    mv = Multivector(2, np.array([1.0, 0.5, 0.0, -0.25]))
    data = mv.to_json_dict()
    assert data == {"n": 2, "coeffs": {"": 1.0, "1": 0.5, "12": -0.25}}
    assert Multivector.from_json_dict(data) == mv

    noisy = Multivector(3, rng.standard_normal(8))
    through_json = json.loads(json.dumps(noisy.to_json_dict()))
    assert Multivector.from_json_dict(through_json) == noisy


def test_parse_blade_key_rejects_bad_keys():
    for bad in ("21", "11", "0", "a", "14"):
        with pytest.raises(ValueError):
            parse_blade_key(bad, 3)


def test_text_form_caps_dimension():
    with pytest.raises(ValueError):
        Multivector.zero(10).to_coeff_dict()
