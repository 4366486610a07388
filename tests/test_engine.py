import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clifract import (
    ConvergenceError,
    GridFunction,
    Poly,
    RBParams,
    SpaceSpec,
    empirical_gamma,
    fif_from_data,
    fixed_point,
    from_knots,
    gamma_gate,
    norm,
    rb_apply,
    uniform_partition,
)
from clifract.engine import _Interp, _build_plan

from oracles import address_psi, dense_operator, exact_fixed_point, trapezoid_lp


def constant_params(partition, c, s):
    n = partition.size
    return RBParams(partition, (float(c),) * n, (float(s),) * n)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


def test_grid_function_requires_enough_points():
    part = uniform_partition(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="M >= N"):
        GridFunction(part, np.zeros(3))  # M = 2 < N = 4
    GridFunction(part, np.zeros(5))


def test_grid_function_rejects_non_finite():
    part = uniform_partition(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        GridFunction(part, np.array([0.0, np.nan, 0.0]))


def test_sample_and_grid_points():
    part = uniform_partition(0.0, 2.0, 2)
    f = GridFunction.sample(part, 4, lambda x: x**2)
    np.testing.assert_allclose(f.xs, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(f.values, [0.0, 0.25, 1.0, 2.25, 4.0])
    assert f.sup_norm() == 4.0


def test_poly_matches_numpy_polynomial_bit_for_bit(rng):
    from numpy.polynomial import polynomial as P

    x = np.concatenate([rng.uniform(-3.0, 3.0, 64), [-0.0, 0.0, -1.0, 1.0]])
    for degree in range(6):
        for _ in range(40):
            coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-3, 4, degree + 1)
            coeffs[rng.random(degree + 1) < 0.2] = -0.0
            coeffs[rng.random(degree + 1) < 0.2] = 0.0
            poly = Poly(tuple(coeffs))
            assert np.array_equal(poly(x).view(np.uint64), P.polyval(x, coeffs).view(np.uint64))
            assert np.float64(poly(-1.5)).view(np.uint64) == np.float64(P.polyval(-1.5, coeffs)).view(np.uint64)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


def test_rb_apply_with_zero_multipliers_ignores_f():
    part = uniform_partition(0.0, 1.0, 2)
    params = RBParams(part, (Poly((0.0, 1.0)), Poly((1.0, -1.0))), (0.0, 0.0))
    f = GridFunction.sample(part, 8, lambda x: np.sin(10 * x))
    g = GridFunction.zeros(part, 8)
    assert rb_apply(params, f) == rb_apply(params, g)


def test_rb_apply_constants():
    part = uniform_partition(0.0, 1.0, 4)
    params = constant_params(part, 2.0, 0.25)
    f = GridFunction(part, np.full(9, 3.0))
    out = rb_apply(params, f)
    np.testing.assert_allclose(out.values, 2.75)


def test_rb_apply_step_follows_left_ownership():
    # q1 = 0, q2 = 1, s = 0: piecewise constant output; the junction grid
    # point takes the left tile's value under the global tie-break.
    part = uniform_partition(0.0, 1.0, 2)
    params = RBParams(part, (0.0, 1.0), (0.0, 0.0))
    f = GridFunction.sample(part, 8, lambda x: np.cos(x))
    out = rb_apply(params, f)
    np.testing.assert_array_equal(out.values[:5], np.zeros(5))  # includes x = 0.5
    np.testing.assert_array_equal(out.values[5:], np.ones(4))


def test_rb_apply_rejects_foreign_partition():
    params = constant_params(uniform_partition(0.0, 1.0, 2), 1.0, 0.5)
    f = GridFunction.zeros(uniform_partition(0.0, 2.0, 2), 8)
    with pytest.raises(ValueError):
        rb_apply(params, f)


def test_rb_apply_pullback_is_exact_when_aligned():
    part = uniform_partition(0.0, 1.0, 2)
    params = RBParams(part, (0.0, 0.0), (1.0 - 1e-9, 1.0 - 1e-9))
    f = GridFunction(part, np.arange(9.0))
    out = rb_apply(params, f)
    # tile 0 pulls back even indices 0, 2, ..., 8
    np.testing.assert_allclose(out.values[:5], (1.0 - 1e-9) * np.arange(0.0, 9.0, 2.0))


def test_incompatible_grid_interpolates():
    part = from_knots([0.0, 0.25, 1.0])  # slope 3/4 cannot map the grid to itself
    params = constant_params(part, 1.0, 0.5)
    assert _build_plan(params, 8, (params.q,)).pre_idx is None
    rb_apply(params, GridFunction.zeros(part, 8))


def test_uniform_three_tiles_align_on_power_of_two_grid():
    # knots at thirds are off-grid, yet every pre-image is a grid point
    part = uniform_partition(0.0, 1.0, 3)
    params = RBParams(part, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert _build_plan(params, 1024, (params.q,)).pre_idx is not None
    f = GridFunction(part, np.arange(1025.0))
    out = rb_apply(params, f)
    np.testing.assert_array_equal(out.values[:342], np.arange(0, 1024.5, 3.0))


def _per_tile_apply(params, f, aligned):
    """Reference operator, tile by tile: pull f back through L_i^-1 (a grid
    lookup when aligned, linear interpolation otherwise), then q_i + s_i f."""
    part, xs = params.partition, f.xs
    h = part.span / f.grid_m
    owner = part.locate(xs)
    out = np.empty(f.grid_m + 1)
    for i, amap in enumerate(part.maps):
        rows = owner == i
        pre = amap.inverse(xs[rows])
        idx = np.rint((pre - part.x_lo) / h).astype(np.int64)

        def at(entry):
            if isinstance(entry, GridFunction):
                return entry.values[idx] if aligned else np.interp(pre, xs, entry.values)
            if isinstance(entry, Poly):
                return entry(xs[idx] if aligned else pre)
            return np.full(len(pre), float(entry))

        out[rows] = at(params.q[i]) + at(params.s[i]) * at(f)
    return out


@pytest.mark.parametrize("sampled", [False, True], ids=["fields", "sampled-q-s"])
@pytest.mark.parametrize(
    "part, m, aligned",
    [
        (uniform_partition(0.0, 1.0, 2), 64, True),
        (uniform_partition(0.0, 1.0, 3), 1024, True),
        (from_knots([0.0, 0.25, 1.0]), 256, False),
    ],
    ids=["aligned-uniform", "three-tiles-1024", "knots-0.25"],
)
def test_rb_apply_matches_a_per_tile_operator(part, m, aligned, sampled):
    q = [Poly((0.3 * i, 1.0 - i)) if i % 2 == 0 else float(i) for i in range(part.size)]
    s = [0.5 - 0.4 * i for i in range(part.size)]
    if sampled:
        q[0] = GridFunction.sample(part, m, lambda x: np.cos(5.0 * x))
        s[-1] = GridFunction.sample(part, m, lambda x: 0.5 * np.sin(3.0 * x))
    params = RBParams(part, tuple(q), tuple(s))
    f = GridFunction.sample(part, m, lambda x: np.sin(7.0 * x) + x**2)
    assert (_build_plan(params, m, (params.q,)).pre_idx is not None) == aligned
    assert np.array_equal(rb_apply(params, f).values, _per_tile_apply(params, f, aligned))


@pytest.mark.parametrize(
    "part, m, aligned",
    [(uniform_partition(-2.0, 1.0, 3), 96, True), (from_knots([-1.5, -0.2, 0.4, 1.0]), 100, False)],
    ids=["aligned", "interpolating"],
)
def test_plan_evaluates_each_poly_bitwise_as_its_own_call(part, m, aligned, rng):
    # The plan evaluates a tile's polynomials in one padded Horner pass; each row must
    # keep the bits of Poly.__call__, signed zeros included, at negative x too.
    def random_poly():
        cs = rng.standard_normal(rng.integers(1, 7))  # degrees 0-5
        cs[rng.random(len(cs)) < 0.25] = 0.0
        cs[rng.random(len(cs)) < 0.25] = -0.0
        return Poly(tuple(cs))

    fixed = [Poly((-0.0,)), Poly((-0.0, -0.0, 0.0)), Poly((-0.0,) * 6), Poly((0.0,) * 5 + (1.0,))]
    q_rows = [(poly,) * part.size for poly in fixed] + [
        tuple(random_poly() if rng.random() < 0.8 else -0.5 for _ in range(part.size)) for _ in range(40)
    ]
    params = RBParams(part, q_rows[0], (0.25,) * part.size)
    plan = _build_plan(params, m, q_rows)
    assert (plan.pre_idx is not None) == aligned
    xs = GridFunction.zeros(part, m).xs
    h = part.span / m
    negative_zeros = 0
    # The partition's ownership: a grid point within the tiling slack of a knot belongs to the left tile.
    for i, (amap, rows) in enumerate(zip(part.maps, part.tile_ranges(xs))):
        pre = amap.inverse(xs[rows])
        points = xs[np.rint((pre - part.x_lo) / h).astype(np.int64)] if aligned else pre
        for k, q in enumerate(q_rows):
            got = plan.q_vals[k, rows]
            want = q[i](points) if isinstance(q[i], Poly) else np.full(len(points), q[i])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (i, k)
            negative_zeros += int(np.sum((got == 0) & np.signbit(got)))
    assert negative_zeros > 0 and np.any(xs < 0)


def test_interpolation_mode_bias_is_second_order():
    part = from_knots([0.0, 0.25, 1.0])
    params = RBParams(part, (0.0, 0.0), (1.0 - 1e-12, 1.0 - 1e-12))
    exact = lambda x: np.sin(2 * np.pi * x)
    errors = []
    for m in (64, 256):
        f = GridFunction.sample(part, m, exact)
        out = rb_apply(params, f)
        pulled = np.concatenate(
            [exact(amap.inverse(f.xs[part.locate(f.xs) == i])) for i, amap in enumerate(part.maps)]
        )
        errors.append(np.max(np.abs(out.values - (1.0 - 1e-12) * pulled)))
    assert errors[1] < errors[0] / 8  # O(M^-2) decay


@st.composite
def _pullback_cases(draw):
    """Breakpoints (a uniform grid or random knots), pre-images that hit them, sit at or
    just outside either end or fall in between, and a stack of rows (maybe none)."""
    m = draw(st.integers(1, 40))
    lo = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        xs = lo + (draw(st.floats(0.01, 10.0)) / m) * np.arange(m + 1)
    else:
        gaps = draw(hnp.arrays(np.float64, m, elements=st.floats(1e-3, 2.0)))
        xs = lo + np.concatenate([[0.0], np.cumsum(gaps)])
    ends = [xs[0], xs[-1], xs[0] - 1.0, xs[-1] + 1.0]
    ends += [np.nextafter(xs[0], -np.inf), np.nextafter(xs[-1], np.inf)]
    ends += [np.nextafter(xs[0], np.inf), np.nextafter(xs[-1], -np.inf)]
    picks = st.one_of(
        st.sampled_from(ends), st.sampled_from(list(xs)), st.floats(float(xs[0]), float(xs[-1]))
    )
    x = np.array(draw(st.lists(picks, min_size=1, max_size=30)))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    stack = draw(hnp.arrays(np.float64, (draw(st.integers(0, 3)), m + 1), elements=entries))
    zeros = np.where(draw(hnp.arrays(bool, m + 1)), -0.0, 0.0)
    return xs, x, np.vstack([stack, zeros])


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=100, deadline=None)
@given(_pullback_cases())
def test_stored_weight_pullback_is_np_interp_bit_for_bit(case):
    # One row, a stack and an empty stack, against np.interp row by row.
    xs, x, stack = case
    assert np.all(np.diff(xs) > 0)
    interp = _Interp.at(x, xs)
    expected = np.array([np.interp(x, xs, row) for row in stack])
    assert _same_bits(interp(stack), expected)
    assert _same_bits(interp(stack[:0]), expected[:0])
    for row, want in zip(stack, expected):
        assert _same_bits(interp(row), want)
    # A tile's own weights: the points of a slice alone, as sampled fields are read.
    cuts = [0, len(x) // 3, 2 * len(x) // 3, len(x)]
    for lo, hi in zip(cuts, cuts[1:]):
        assert _same_bits(interp.tile(slice(lo, hi))(stack), expected[:, lo:hi])


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def test_fixed_point_constant_problem():
    part = uniform_partition(0.0, 1.0, 2)
    params = constant_params(part, 1.0, 0.5)
    result = fixed_point(params, 64, tol=1e-12, gamma=0.5)
    np.testing.assert_allclose(result.function.values, 2.0, atol=1e-12)
    assert result.error_bound <= 1e-12


def test_fixed_point_zero_multipliers_stops_after_one_step():
    part = uniform_partition(0.0, 1.0, 2)
    params = RBParams(part, (Poly((0.0, 1.0)), Poly((1.0, 1.0))), (0.0, 0.0))
    result = fixed_point(params, 16, tol=1e-12, gamma=0.0)
    assert result.iterations == 1
    assert rb_apply(params, result.function) == result.function


def test_fixed_point_uniqueness_across_initial_iterates(rng):
    params = fif_from_data([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.4, -0.35])
    tol = 1e-12
    cold = fixed_point(params, 512, tol=tol, gamma=0.4)
    warm_start = GridFunction(params.partition, rng.standard_normal(513))
    warm = fixed_point(params, 512, tol=tol, gamma=0.4, initial=warm_start)
    assert np.max(np.abs(cold.function.values - warm.function.values)) <= 2 * tol


def test_fixed_point_refuses_an_initial_iterate_on_another_grid():
    params = fif_from_data([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.4, -0.35])
    other = fif_from_data([0.0, 0.25, 1.0], [0.0, 1.0, 0.0], [0.4, -0.35]).partition
    for initial in (GridFunction(params.partition, np.zeros(257)), GridFunction(other, np.zeros(513))):
        with pytest.raises(ValueError, match="initial iterate must live on the carrier grid"):
            fixed_point(params, 512, tol=1e-12, initial=initial)


def _band_multiplier_problem(grid_m):
    # s is 1.05 on (0.4, 0.6) and 0.9 elsewhere.  The tile maps double x (mod 1/2), and
    # no pre-image in that band has its own pre-image there, so rho_2 = 1.05 * 0.9 < 1.
    part = uniform_partition(0.0, 1.0, 2)
    s = GridFunction.sample(part, grid_m, lambda x: np.where((x > 0.4) & (x < 0.6), 1.05, 0.9))
    return RBParams(part, (Poly((0.0, 1.0)), Poly((1.0, -2.0, 1.0))), (s, s))


def _peaked_multiplier_problem(grid_m):
    # The problem of the power-of-T certificate test below: s peaks at 1.2 near x = 0.15,
    # far from its pre-images, so max|s| > 1 while rho_2 = max(|A|^2 1) < 1.
    part = from_knots([0.0, 0.3, 1.0])
    s = GridFunction.sample(part, grid_m, lambda x: 0.3 + 0.9 * np.exp(-(((x - 0.15) / 0.03) ** 2)))
    return RBParams(part, (Poly((0.0, 1.0)), Poly((1.0, -2.0, 1.0))), (s, s))


@pytest.mark.parametrize("start", ["near", "far"])
@pytest.mark.parametrize(
    "params, grid_m, tol",
    [
        (fif_from_data([0.0, 0.5, 1.0], [0.0, 1.0, -0.5], [0.6, -0.45]), 64, 1e-10),
        (_band_multiplier_problem(32), 32, 1e-10),
        (fif_from_data([0.0, 0.3, 1.0], [0.0, 1.0, -0.5], [0.9, -0.9]), 128, 1e-10),
        (constant_params(uniform_partition(0.0, 1.0, 2), 3.7, 0.6), 256, 1e-12),
    ],
    ids=["aligned", "aligned-rho2", "interp", "constant"],
)
def test_warm_starts_keep_their_certificate_against_a_dense_solve(params, grid_m, tol, start, rng):
    matrix, rhs = dense_operator(params, grid_m)
    resolvent = np.linalg.inv(np.eye(grid_m + 1) - matrix)
    exact = resolvent @ rhs
    noise = rng.standard_normal(grid_m + 1)
    initial = exact + 1e-3 * noise if start == "near" else 1e4 * noise
    warm = fixed_point(params, grid_m, tol=tol, initial=GridFunction(params.partition, initial))
    # The bound treats the iterates as exact.  It equals the error of a constant problem,
    # and of "interp" at x = 0, which its tile map fixes with |s| = rho, so rounding the
    # iterates can put the error above it by about eps * max|f| times the resolvent's sup
    # norm, cold solves included.  Allow that much, and nothing that grows with the start.
    amplification = np.max(np.sum(np.abs(resolvent), axis=1))
    rounding = 2 * np.finfo(float).eps * np.max(np.abs(exact)) * amplification
    assert np.max(np.abs(warm.function.values - exact)) <= warm.error_bound + rounding
    assert warm.error_bound <= tol
    if start == "far":  # its first step is longer than zero's, so it is dropped
        cold = fixed_point(params, grid_m, tol=tol)
        assert warm.function == cold.function
        assert (warm.iterations, warm.error_bound) == (cold.iterations, cold.error_bound)


def test_fixed_point_validates_arguments():
    params = constant_params(uniform_partition(0.0, 1.0, 2), 1.0, 0.5)
    with pytest.raises(ValueError):
        fixed_point(params, 16, tol=1e-10, gamma=1.0)
    with pytest.raises(ValueError):
        fixed_point(params, 16, tol=-1.0, gamma=0.5)


def test_fixed_point_reports_non_convergence():
    params = constant_params(uniform_partition(0.0, 1.0, 2), 1.0, 0.99)
    with pytest.raises(ConvergenceError) as excinfo:
        fixed_point(params, 16, tol=1e-14, gamma=0.99, max_iter=3)
    # Aligned grids double, so the count is the largest power of two <= max_iter.
    assert excinfo.value.iterations == 2
    assert excinfo.value.residual > 0


def test_banach_iteration_reports_non_convergence():
    params = fif_from_data([0.0, 0.3, 1.0], [0.0, 1.0, 0.0], [0.9, 0.9])
    with pytest.raises(ConvergenceError, match="no convergence after 3 steps") as excinfo:
        fixed_point(params, 64, tol=1e-14, max_iter=3)
    assert excinfo.value.iterations == 3
    assert excinfo.value.residual > 0


def test_sampled_q_on_another_grid_is_rejected():
    part = uniform_partition(0.0, 1.0, 2)
    q = GridFunction.sample(part, 16, np.sin)
    with pytest.raises(ValueError, match="sampled q entries must live on the carrier grid"):
        fixed_point(RBParams(part, (q, 0.0), (0.5, 0.5)), 32, tol=1e-10)


@pytest.mark.filterwarnings("error")
def test_non_contracting_aligned_problem_raises_naming_rho():
    # Tile 0 fixes x = 0 with s = 1.2, so rho_(2^k) = 1.2^(2^k) is infinite at k = 12.
    params = RBParams(uniform_partition(0.0, 1.0, 2), (Poly((0.0, 1.0)), 1.0), (1.2, 0.1))
    with pytest.raises(ConvergenceError, match="rho_4096 = inf") as excinfo:
        fixed_point(params, 64, tol=1e-10, gamma=0.5, max_iter=10**6)
    assert excinfo.value.iterations == 2048


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "partition", [from_knots([0.0, 0.3, 1.0]), uniform_partition(0.0, 1.0, 2)], ids=["banach", "doubling"]
)
def test_a_step_that_overflows_stops_the_solve(partition):
    # T^2 0 overflows where tile 1 pulls back the largest float, and no later step is finite.
    params = RBParams(partition, (1.7976931348623157e308, 0.5), (0.5, -0.5))
    with pytest.raises(ConvergenceError, match="step 2 = inf overflows") as excinfo:
        fixed_point(params, 32, tol=1e-10, max_iter=10**6)
    assert excinfo.value.iterations == 2


def test_doubling_certificate_holds_against_a_dense_solve():
    # rho_N decays slowly from rho_2 < 1, which keeps the bound far above rounding.
    grid_m, tol = 32, 1e-10
    params = _band_multiplier_problem(grid_m)
    matrix, rhs = dense_operator(params, grid_m)
    assert np.max(np.sum(np.abs(matrix), axis=1)) == 1.05
    assert np.max(np.sum(np.abs(matrix @ matrix), axis=1)) < 0.95
    exact = np.linalg.solve(np.eye(grid_m + 1) - matrix, rhs)
    result = fixed_point(params, grid_m, tol=tol, gamma=0.5)
    assert np.max(np.abs(result.function.values - exact)) <= result.error_bound <= tol


@pytest.mark.parametrize(
    "params, grid_m",
    [(fif_from_data([0.0, 0.3, 1.0], [0.0, 1.0, -0.5], [0.9, -0.9]), 256), (_peaked_multiplier_problem(128), 128)],
    ids=["rho1", "rho2"],
)
def test_banach_iteration_stops_at_the_first_certified_step(params, grid_m):
    # Replay the iteration one operator application at a time, with rho_k and
    # lead = rho_1 + ... + rho_k from the dense |A|: the solve must stop at the same
    # step, on the same bound lead * step / (1 - rho_k).
    tol = 1e-10
    matrix, _ = dense_operator(params, grid_m)
    power, lead = np.ones(grid_m + 1), 0.0
    while True:
        power = np.abs(matrix) @ power
        rho = np.max(power)
        lead += rho
        if rho < 1.0:
            break
    f, steps = GridFunction.zeros(params.partition, grid_m), 0
    while True:
        g = rb_apply(params, f)
        steps += 1
        bound = lead * np.max(np.abs(g.values - f.values)) / (1.0 - rho)
        f = g
        if bound <= tol:
            break
    result = fixed_point(params, grid_m, tol=tol)
    assert result.function == f
    assert result.iterations == steps
    assert result.error_bound == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize(
    "params, grid_m",
    [(fif_from_data([0.0, 0.5, 1.0], [0.0, 1.0, -0.5], [0.6, -0.45]), 64), (_band_multiplier_problem(32), 32)],
    ids=["aligned", "aligned-rho2"],
)
def test_the_exact_oracle_agrees_with_a_dense_solve(params, grid_m):
    plan = _build_plan(params, grid_m, (params.q,))
    exact = exact_fixed_point(plan)
    # Every equation of the plan holds exactly, the cycles' closing ones included.
    for f_j, succ, s_j, q_j in zip(exact, plan.pre_idx, plan.s_vals, plan.q_vals[0]):
        assert f_j == Fraction(q_j) + Fraction(s_j) * exact[succ]
    matrix, rhs = dense_operator(params, grid_m)
    dense = np.linalg.solve(np.eye(grid_m + 1) - matrix, rhs)
    np.testing.assert_allclose([float(v) for v in exact], dense, rtol=0.0, atol=1e-13)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the bound treats the iterates as exact, and rounding puts the error far above it (ROADMAP item 9)",
)
def test_the_error_bound_covers_the_rounding_of_a_slow_contraction():
    # s = +-0.999 at |q| up to 2e4: the rounding floor u * max|f| / (1 - rho) is far above
    # tol, while the solve stops after 65,536 steps on a bound of 3.3e-22.  The error is 9.1e-8.
    part = uniform_partition(0.0, 1.0, 2)
    params = RBParams(part, (Poly((1e4, -3e4, 2e4)), Poly((-2e4, 1e4, 5e3))), (0.999, -0.999))
    grid_m = 32
    result = fixed_point(params, grid_m, tol=1e-9, max_iter=2**20)
    exact = exact_fixed_point(_build_plan(params, grid_m, (params.q,)))
    error = max(abs(float(Fraction(v) - e)) for v, e in zip(result.function.values, exact))
    assert error <= result.error_bound


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.9])
def test_interpolating_certificate_holds_against_a_dense_solve_whatever_gamma(gamma):
    # The knot 0.3 misses the grid, so the pullback interpolates; rho = max|s| = 0.9.
    params = fif_from_data([0.0, 0.3, 1.0], [0.0, 1.0, -0.5], [0.9, -0.9])
    grid_m, tol = 256, 1e-10
    matrix, rhs = dense_operator(params, grid_m)
    assert np.count_nonzero(matrix, axis=1).max() == 2
    assert np.max(np.sum(np.abs(matrix), axis=1)) == pytest.approx(0.9, abs=1e-15)
    exact = np.linalg.solve(np.eye(grid_m + 1) - matrix, rhs)
    result = fixed_point(params, grid_m, tol=tol, gamma=gamma)
    assert np.max(np.abs(result.function.values - exact)) <= result.error_bound <= tol
    default = fixed_point(params, grid_m, tol=tol)
    assert result.function == default.function
    assert (result.iterations, result.error_bound) == (default.iterations, default.error_bound)


def test_interpolating_solve_without_a_certificate_raises_naming_max_s():
    # Tile 0 fixes x = 0 with s = 1.2, so rho_k >= 1.2^k and no power of T contracts.
    params = RBParams(from_knots([0.0, 0.3, 1.0]), (Poly((0.0, 1.0)), 1.0), (1.2, 0.1))
    with pytest.raises(ConvergenceError, match=r"max\|s\| = 1.2 >= 1 .*rho_32 = "):
        fixed_point(params, 64, tol=1e-10, gamma=0.5)


def test_interpolating_certificate_from_a_power_of_t_holds_against_a_dense_solve():
    # s peaks at 1.2 near x = 0.15.  The peak's pre-images, x / 0.3 in about [0.33, 0.67],
    # are far from it, where s = 0.3, so max|s| > 1 while rho_2 = max(|A|^2 1) < 1.
    part = from_knots([0.0, 0.3, 1.0])
    grid_m, tol = 128, 1e-10
    s = GridFunction.sample(part, grid_m, lambda x: 0.3 + 0.9 * np.exp(-(((x - 0.15) / 0.03) ** 2)))
    params = RBParams(part, (Poly((0.0, 1.0)), Poly((1.0, -2.0, 1.0))), (s, s))
    matrix, rhs = dense_operator(params, grid_m)
    assert _build_plan(params, grid_m, (params.q,)).pre_idx is None
    assert np.max(np.sum(np.abs(matrix), axis=1)) > 1.15
    assert np.max(np.sum(np.abs(matrix) @ np.abs(matrix), axis=1)) < 0.4
    exact = np.linalg.solve(np.eye(grid_m + 1) - matrix, rhs)
    result = fixed_point(params, grid_m, tol=tol)
    assert np.max(np.abs(result.function.values - exact)) <= result.error_bound <= tol


@pytest.mark.parametrize(
    "part, grid_m",
    [
        (uniform_partition(0.0, 1.0, 3), 99),
        (from_knots([-1.5, -0.2, 0.4, 1.0]), 100),
        (uniform_partition(-2.0, 1.3, 5), 55),
    ],
    ids=["thirds-99", "knots-100", "fifths-55"],
)
def test_discontinuous_solve_matches_the_dense_operator(part, grid_m):
    # q_i = i jumps at every junction, so a grid point that the solver and `locate`
    # give to different tiles moves psi there by at least 1.
    n = part.size
    params = RBParams(part, tuple(float(i) for i in range(n)), (0.5,) * n)
    matrix, rhs = dense_operator(params, grid_m)
    assert np.array_equal(_build_plan(params, grid_m, (params.q,)).q_vals[0], rhs)
    exact = np.linalg.solve(np.eye(grid_m + 1) - matrix, rhs)
    result = fixed_point(params, grid_m, tol=1e-13)
    assert np.max(np.abs(result.function.values - exact)) <= 1e-12


def _sweep_grids():
    for lo, hi in [(0.0, 1.0), (-2.0, 1.3)]:
        for n in (2, 3, 5, 7):
            for k in (3, 7, 11, 33, 99, 1000):
                yield pytest.param(uniform_partition(lo, hi, n), n * k, id=f"[{lo},{hi}]/{n}-M{n * k}")
    for knots in ([0, 0.3, 0.7, 1], [0, 0.1, 0.2, 0.6, 1], [-1, -0.35, 0.15, 2.2], [-1.5, -0.2, 0.4, 1]):
        for m in (10, 20, 30, 100, 1000, 4096, 65536):
            yield pytest.param(from_knots(knots), m, id=f"knots{knots}-M{m}")


@pytest.mark.parametrize("part, grid_m", list(_sweep_grids()))
def test_plan_grid_and_tiles_follow_the_partition(part, grid_m):
    xs = part.grid(grid_m)
    tiles = part.locate(xs)
    # With q_i = i, the plan's q row names the tile it gave each grid index.
    params = RBParams(part, tuple(float(i) for i in range(part.size)), (0.5,) * part.size)
    assert np.array_equal(_build_plan(params, grid_m, (params.q,)).q_vals[0], tiles)
    ranges = part.tile_ranges(xs)
    assert np.array_equal(np.repeat(np.arange(part.size), [r.stop - r.start for r in ranges]), tiles)
    # The plain step formula x_lo + j * h is the referee for the interior of the grid.
    h = part.span / grid_m
    assert (part.x_lo + h * np.arange(grid_m + 1))[:-1].tobytes() == xs[:-1].tobytes()
    assert xs[-1] == part.x_hi
    assert np.linspace(part.x_lo, part.x_hi, grid_m + 1).tobytes() == xs.tobytes()


def test_fixed_point_satisfies_equation_and_matches_recursion_oracle():
    params = fif_from_data([0.0, 0.5, 1.0], [0.0, 0.5, 0.0], [0.5, 0.5])
    tol = 1e-12
    result = fixed_point(params, 1024, tol=tol, gamma=0.5)
    psi = result.function
    assert np.max(np.abs(rb_apply(params, psi).values - psi.values)) <= 2 * tol
    # depth-30 unrolling of the functional equation, truncation < 2^-30
    assert abs(psi.values[512] - address_psi(params, 0.5, depth=30)) < 1e-8
    for x_idx in (0, 256, 768, 1024):
        x = psi.xs[x_idx]
        assert abs(psi.values[x_idx] - address_psi(params, x, depth=40)) < 1e-9


def test_self_referential_equation_on_grid():
    params = fif_from_data([0.0, 0.25, 0.5, 1.0], [0.0, 1.0, -1.0, 0.5], [0.3, 0.2, -0.4])
    tol = 1e-12
    psi = fixed_point(params, 512, tol=tol, gamma=0.4).function
    part = params.partition
    for i, amap in enumerate(part.maps):
        xs = psi.xs
        inside = xs[(xs >= part.knots[i]) & (xs <= part.knots[i + 1])]
        pre = amap.inverse(inside)
        idx = np.rint((pre - part.x_lo) / (part.span / 512)).astype(int)
        on_grid = np.abs(pre - psi.xs[np.clip(idx, 0, 512)]) < 1e-9
        lhs = np.interp(inside[on_grid], psi.xs, psi.values)
        gridded = idx[on_grid]
        q_i = params.q[i]
        rhs = q_i(psi.xs[gridded]) + params.s[i] * psi.values[gridded]
        assert np.max(np.abs(lhs - rhs)) <= 2 * tol


# ---------------------------------------------------------------------------
# interpolation problems
# ---------------------------------------------------------------------------


def test_fif_with_zero_data_is_zero():
    params = fif_from_data([0.0, 0.3, 1.0], [0.0, 0.0, 0.0], [0.5, -0.5])
    assert all(poly.coeffs == (0.0, 0.0) for poly in params.q)
    psi = fixed_point(params, 128, tol=1e-12, gamma=0.5).function
    np.testing.assert_array_equal(psi.values, np.zeros(129))


def test_fif_reproduces_knot_values():
    params = fif_from_data([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.3, 0.3])
    psi = fixed_point(params, 1024, tol=1e-12, gamma=0.3).function
    assert abs(psi.values[0] - 0.0) < 1e-10
    assert abs(psi.values[512] - 1.0) < 1e-10
    assert abs(psi.values[1024] - 0.0) < 1e-10


def test_fif_with_zero_multipliers_is_piecewise_linear():
    x = [0.0, 0.25, 0.75, 1.0]
    y = [1.0, -2.0, 0.5, 3.0]
    params = fif_from_data(x, y, [0.0, 0.0, 0.0])
    psi = fixed_point(params, 256, tol=1e-12, gamma=0.0).function
    np.testing.assert_allclose(psi.values, np.interp(psi.xs, x, y), atol=1e-13)


def test_fif_validates_input():
    with pytest.raises(ValueError):
        fif_from_data([0.0, 0.5, 0.4], [0, 0, 0], [0.1, 0.1])
    with pytest.raises(ValueError):
        fif_from_data([0.0, 0.5, 1.0], [0, 0, 0], [1.0, 0.1])
    with pytest.raises(ValueError):
        fif_from_data([0.0, 0.5, 1.0], [0, 0, 0], [0.1])
    with pytest.raises(ValueError, match="expected 3 ordinates"):
        fif_from_data([0.0, 0.5, 1.0], [0, 0], [0.1, 0.1])


# ---------------------------------------------------------------------------
# contraction probes
# ---------------------------------------------------------------------------


def test_empirical_gamma_zero_multipliers():
    params = constant_params(uniform_partition(0.0, 1.0, 2), 1.0, 0.0)
    assert empirical_gamma(params, 64, trials=5, seed=1) == 0.0


def test_empirical_gamma_constant_multiplier_is_exact():
    part = uniform_partition(0.0, 1.0, 2)
    # with q = 0 the difference quotient is 0.5*(f-g)/(f-g), exact in floats
    assert empirical_gamma(constant_params(part, 0.0, 0.5), 1024, trials=50, seed=3) == 0.5
    # a nonzero q cancels only up to roundoff in (q + s f) - (q + s g)
    noisy = empirical_gamma(constant_params(part, 0.7, 0.5), 1024, trials=50, seed=3)
    assert noisy == pytest.approx(0.5, abs=1e-12)


def test_empirical_gamma_bounded_by_sup_of_multipliers(rng):
    part = uniform_partition(0.0, 1.0, 4)
    s = tuple(
        GridFunction.sample(part, 256, lambda x, a=a: a * np.sin(3 * x) ** 2)
        for a in (0.3, 0.8, 0.5, 0.2)
    )
    params = RBParams(part, (0.0, 0.0, 0.0, 0.0), s)
    sup_s = max(f.sup_norm() for f in s)
    assert empirical_gamma(params, 256, trials=64, seed=11) <= sup_s + 1e-9


@pytest.mark.filterwarnings("error")
def test_empirical_gamma_keeps_an_overflowing_ratio():
    # s = 1e308 turns T f - T g into inf - inf = nan at some grid point of every trial.
    params = RBParams(uniform_partition(0.0, 1.0, 2), (1.0, 1.0), (1e308, 0.5))
    assert math.isnan(empirical_gamma(params, 4096, trials=2, seed=0))


def test_empirical_gamma_is_deterministic():
    params = constant_params(uniform_partition(0.0, 1.0, 3), 0.1, 0.6)
    a = empirical_gamma(params, 128, trials=16, seed=42)
    b = empirical_gamma(params, 128, trials=16, seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# gates and norms
# ---------------------------------------------------------------------------


def test_gamma_gate_hand_values():
    part = uniform_partition(0.0, 1.0, 2)
    half = constant_params(part, 0.0, 0.5)
    assert gamma_gate(SpaceSpec.lp(1.0), half) == 0.5
    assert gamma_gate(SpaceSpec.ck(0), constant_params(part, 0.0, 0.4)) == 0.8
    assert gamma_gate(SpaceSpec.lp(2.0), half) == 0.25
    # Lip = 1/4 makes the Holder power exact: (1/4)^(-1/2) = 2
    quarters = constant_params(uniform_partition(0.0, 1.0, 4), 0.0, 0.25)
    assert gamma_gate(SpaceSpec.ck_alpha(0, 0.5), quarters) == 0.5
    assert gamma_gate(SpaceSpec.sobolev(1.0, 1.0), half) == 1.0
    assert gamma_gate(SpaceSpec.triebel_lizorkin(1.0, 1.0, 2.0), half) == 1.0
    assert gamma_gate(SpaceSpec.besov(1.0, 1.0, 2.0), half) == 0.5


def test_gamma_gate_zero_multipliers():
    params = constant_params(uniform_partition(0.0, 1.0, 3), 1.0, 0.0)
    for space in (
        SpaceSpec.ck(2),
        SpaceSpec.ck_alpha(1, 0.3),
        SpaceSpec.lp(2.0),
        SpaceSpec.sobolev(0.5, 2.0),
        SpaceSpec.besov(0.5, 2.0, 3.0),
        SpaceSpec.triebel_lizorkin(0.5, 2.0, 3.0),
    ):
        assert gamma_gate(space, params) == 0.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.95), min_size=3, max_size=3),
    st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_gamma_gate_monotone_in_multipliers(sups, bump):
    part = uniform_partition(0.0, 1.0, 3)
    lo = RBParams(part, (0.0,) * 3, tuple(sups))
    for i in range(3):
        bigger = list(sups)
        bigger[i] = min(bigger[i] + bump, 0.999)
        hi = RBParams(part, (0.0,) * 3, tuple(bigger))
        for space in (
            SpaceSpec.ck(1),
            SpaceSpec.ck_alpha(0, 0.5),
            SpaceSpec.lp(1.5),
            SpaceSpec.sobolev(0.7, 1.5),
            SpaceSpec.besov(0.7, 1.5, 2.5),
            SpaceSpec.triebel_lizorkin(0.7, 1.5, 2.5),
        ):
            assert gamma_gate(space, hi) >= gamma_gate(space, lo)


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec("bogus")
    with pytest.raises(ValueError):
        SpaceSpec.ck(-1)
    with pytest.raises(ValueError):
        SpaceSpec.ck_alpha(0, 1.5)
    with pytest.raises(ValueError):
        SpaceSpec.lp(0.5)
    with pytest.raises(ValueError):
        SpaceSpec.sobolev(-1.0, 2.0)


def test_norm_constant_function():
    part = uniform_partition(0.0, 1.0, 2)
    ones = GridFunction(part, np.ones(65))
    for space in (SpaceSpec.ck(0), SpaceSpec.lp(1.0), SpaceSpec.lp(3.0)):
        assert norm(space, ones) == pytest.approx(1.0)
    zero = GridFunction.zeros(part, 64)
    assert norm(SpaceSpec.lp(2.0), zero) == 0.0


def test_norm_linear_function_l2():
    part = uniform_partition(0.0, 1.0, 2)
    f = GridFunction.sample(part, 1024, lambda x: x)
    got = norm(SpaceSpec.lp(2.0), f)
    assert abs(got - 1.0 / math.sqrt(3.0)) < 1e-5  # closed-form integral
    assert got == pytest.approx(trapezoid_lp(f.values, 1.0 / 1024, 2.0))


def test_norm_unsupported_spaces():
    f = GridFunction.zeros(uniform_partition(0.0, 1.0, 2), 8)
    for space in (SpaceSpec.ck(1), SpaceSpec.sobolev(0.5, 2.0), SpaceSpec.besov(0.5, 2.0, 2.0)):
        with pytest.raises(NotImplementedError):
            norm(space, f)
