import functools
import math
import operator
import threading

import numpy as np
import pytest

from clifract import (
    CliffordGridFunction,
    CliffordRBParams,
    ConvergenceError,
    GridFunction,
    Multivector,
    Poly,
    RBParams,
    SpaceSpec,
    clifford_empirical_gamma,
    clifford_fif_from_data,
    clifford_fixed_point,
    clifford_norm_F,
    clifford_rb_apply,
    empirical_gamma,
    fif_from_data,
    fixed_point,
    from_knots,
    mv_mul,
    pointwise_conj,
    pointwise_product,
    pv_restrict,
    rb_apply,
    residual,
    uniform_partition,
)
from clifract import _pool, algebra
from oracles import blade_mul_oracle, dense_operator

KNOTS = [0.0, 0.5, 1.0]
DATASETS = {
    "": [0.0, 1.0, 0.0],
    "1": [1.0, 0.0, 2.0],
    "2": [0.0, -1.0, 0.5],
    "12": [0.5, 0.25, -0.5],
}
S = [0.3, -0.4]


def lifted_problem(n=2, datasets=DATASETS):
    return clifford_fif_from_data(n, KNOTS, datasets, S)


def solved(n=2, grid_m=256, tol=1e-12):
    params = lifted_problem(n)
    return params, clifford_fixed_point(params, grid_m, tol=tol, gamma=0.4).function


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_components_must_share_the_grid():
    part = uniform_partition(0.0, 1.0, 2)
    other = uniform_partition(0.0, 2.0, 2)
    with pytest.raises(ValueError):
        CliffordGridFunction(2, part, 8, {0: GridFunction.zeros(other, 8)})
    with pytest.raises(ValueError):
        CliffordGridFunction(2, part, 8, {0: GridFunction.zeros(part, 16)})
    with pytest.raises(ValueError):
        CliffordGridFunction(1, part, 8, {"2": GridFunction.zeros(part, 8)})


def test_value_at_assembles_multivectors():
    part = uniform_partition(0.0, 1.0, 2)
    f = CliffordGridFunction(
        2,
        part,
        4,
        {
            "": GridFunction(part, np.arange(5.0)),
            "12": GridFunction(part, -np.arange(5.0)),
        },
    )
    assert f.value_at(3) == Multivector.from_blades({"": 3.0, "12": -3.0}, 2)
    assert f.component("1") == GridFunction.zeros(part, 4)
    with pytest.raises(ValueError):
        f.value_at(9)


def test_stack_is_read_only_and_holds_the_components():
    _, psi = solved(grid_m=64)
    assert psi.masks == psi.support == (0, 1, 2, 3)
    assert psi.values.shape == (4, 65)
    for row, (mask, comp) in zip(psi.values, psi.components.items()):
        assert np.array_equal(row, comp.values)
        assert np.array_equal(row, psi.component(mask).values)
    with pytest.raises(ValueError):
        psi.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        psi.components[1].values[0] = 1.0
    with pytest.raises(ValueError):
        psi.component(1).values[0] = 1.0
    for result in (psi + psi, pointwise_product(psi, psi), pv_restrict(psi)):
        assert not result.values.flags.writeable


_HALVES = uniform_partition(0.0, 1.0, 2)
_MAP_COUNT = r"one entry per map: N=2, len\(q\)=1, len\(s\)=2"
_S_FIELD = r"s\[0\] must be a constant or a GridFunction"
_Q_FIELD = "must be a constant, Poly, or GridFunction"


@pytest.mark.parametrize(
    "build, pattern",
    [
        pytest.param(lambda: RBParams(_HALVES, (1.0,), (0.5, 0.5)), _MAP_COUNT, id="RBParams-map-count"),
        pytest.param(
            lambda: CliffordRBParams(2, _HALVES, ({0: 1.0},), (0.5, 0.5)), _MAP_COUNT, id="lifted-map-count"
        ),
        pytest.param(lambda: RBParams(_HALVES, (1.0, 1.0), (Poly((0.5,)), 0.5)), _S_FIELD, id="RBParams-poly-s"),
        pytest.param(
            lambda: CliffordRBParams(2, _HALVES, ({0: 1.0}, {}), (Poly((0.5,)), 0.5)), _S_FIELD, id="lifted-poly-s"
        ),
        pytest.param(lambda: RBParams(_HALVES, ("bad", 1.0), (0.5, 0.5)), r"q\[0\] " + _Q_FIELD, id="RBParams-q"),
        pytest.param(
            lambda: CliffordRBParams(2, _HALVES, ({"": "bad"}, {}), (0.5, 0.5)),
            r"q\[0\] blade '' " + _Q_FIELD,
            id="lifted-scalar-blade-q",
        ),
        pytest.param(
            lambda: CliffordRBParams(2, _HALVES, (1.0, {}), (0.5, 0.5)),
            r"q\[0\] must map blade keys to fields",
            id="lifted-q-not-a-mapping",
        ),
        # Only the scalar blade was checked before, so this field reached the solver.
        pytest.param(
            lambda: CliffordRBParams(2, _HALVES, ({0: 1.0}, {"12": [1, 2]}), (0.5, 0.5)),
            r"q\[1\] blade '12' " + _Q_FIELD,
            id="lifted-non-scalar-blade-q",
        ),
    ],
)
def test_every_field_is_validated_at_construction(build, pattern):
    with pytest.raises(ValueError, match=pattern):
        build()


@pytest.mark.parametrize("key", [True, False, 1.0, 1.5, np.float64(1.0), np.True_], ids=repr)
def test_blade_keys_are_text_or_integer_masks(key):
    # A bool or a float named a blade before: 1.5 and True became blade 1, and from_blades
    # indexed with True, which numpy reads as a mask over the array, setting every coefficient.
    build = {
        "from_blades": lambda: Multivector.from_blades({key: 1.0}, 2),
        "CliffordGridFunction": lambda: CliffordGridFunction(2, _HALVES, 4, {key: GridFunction.zeros(_HALVES, 4)}),
        "CliffordRBParams": lambda: CliffordRBParams(2, _HALVES, ({key: 1.0}, {}), (0.5, 0.5)),
        "clifford_fif_from_data": lambda: clifford_fif_from_data(2, KNOTS, {key: [0.0, 1.0, 0.0]}, S),
    }
    for make in build.values():
        with pytest.raises(ValueError, match=r"blade mask .* is not an integer in 0\.\.3"):
            make()
    assert Multivector.from_blades({np.int64(3): 1.0, 1: 2.0, "2": 3.0}, 2).coeffs.tolist() == [0, 2, 3, 1]


@pytest.mark.parametrize(
    "knots, pattern",
    [
        ([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], r"at least 3 knots \(N >= 2\), got shape \(3, 2\)"),
        ([0.0, 0.5, 0.4], "knots must be strictly increasing"),
        ([0.0, 1e-300, 1.0], r"slope must satisfy 0 < \|a\| < 1"),
    ],
    ids=["two-dimensional", "decreasing", "slope-rounds-to-1"],
)
def test_fif_knots_are_checked_before_the_multipliers(knots, pattern):
    # The one multiplier is too few for any of these knots: the partition refuses them first.
    with pytest.raises(ValueError, match=pattern):
        clifford_fif_from_data(1, knots, {"": [0.0, 1.0, 0.0]}, [0.1])


def test_params_component_extraction():
    params = lifted_problem()
    scalar_params = params.component_params("1")
    assert isinstance(scalar_params, RBParams)
    assert scalar_params.s == params.s
    missing = params.component_params("2")
    assert missing.q[0] is not None  # zero constant for absent blades


# ---------------------------------------------------------------------------
# the lifted operator
# ---------------------------------------------------------------------------


def test_apply_zero_problem_is_zero():
    part = uniform_partition(0.0, 1.0, 2)
    params = CliffordRBParams(2, part, ({}, {}), (0.0, 0.0))
    f = CliffordGridFunction.zero(2, part, 16)
    out = clifford_rb_apply(params, f)
    assert out.support == ()


def test_single_blade_problem_matches_scalar_operator(rng):
    part = uniform_partition(0.0, 1.0, 2)
    q_poly = Poly((0.5, -1.0))
    params = CliffordRBParams(3, part, ({"13": q_poly}, {"13": 2.0}), (0.25, 0.25))
    scalar_params = RBParams(part, (q_poly, 2.0), (0.25, 0.25))
    values = rng.standard_normal(33)
    f = CliffordGridFunction(3, part, 32, {"13": GridFunction(part, values)})
    out = clifford_rb_apply(params, f)
    assert out.support == (0b101,)
    expected = rb_apply(scalar_params, GridFunction(part, values))
    assert np.array_equal(out.component("13").values, expected.values)


def test_identical_blade_data_gives_identical_components(rng):
    part = uniform_partition(0.0, 1.0, 2)
    q_poly = Poly((1.0, 2.0))
    params = CliffordRBParams(
        2, part, ({"1": q_poly, "2": q_poly}, {"1": -0.5, "2": -0.5}), (0.3, 0.3)
    )
    shared = GridFunction(part, rng.standard_normal(17))
    f = CliffordGridFunction(2, part, 16, {"1": shared, "2": shared})
    out = clifford_rb_apply(params, f)
    assert np.array_equal(out.component("1").values, out.component("2").values)


def test_diagram_commutes_componentwise(rng):
    # lifting then applying the lifted operator == applying the scalar
    # operator per component then lifting, with identical stored values
    part = uniform_partition(0.0, 1.0, 4)
    blades = ["", "1", "2", "12"]
    q = tuple({b: Poly(tuple(rng.standard_normal(2))) for b in blades} for _ in range(4))
    s = (0.2, -0.3, 0.4, 0.1)
    params = CliffordRBParams(2, part, q, s)
    comps = {b: GridFunction(part, rng.standard_normal(65)) for b in blades}
    f = CliffordGridFunction(2, part, 64, comps)

    lifted_then_applied = clifford_rb_apply(params, f)
    for blade in blades:
        scalar_out = rb_apply(params.component_params(blade), comps[blade])
        assert np.array_equal(lifted_then_applied.component(blade).values, scalar_out.values)


@pytest.mark.parametrize(
    "knots, gathers", [([0.0, 0.5, 1.0], True), ([0.0, 0.3, 0.7, 1.0], False)], ids=["gather", "interp"]
)
def test_stacked_operator_matches_scalar_rows_bitwise(rng, knots, gathers):
    # The whole-stack apply and residual against one scalar operator per blade,
    # for a function whose support differs from the problem's.
    part = from_knots(knots)
    q = tuple({b: Poly(tuple(rng.standard_normal(2))) for b in ("", "1", "12")} for _ in knots[1:])
    params = CliffordRBParams(2, part, q, tuple(0.4 - 0.2 * i for i in range(part.size)))
    comps = {"1": GridFunction(part, rng.standard_normal(65)), "2": GridFunction(part, -np.zeros(65))}
    f = CliffordGridFunction(2, part, 64, comps)
    assert (params._plan(64, range(4)).pre_idx is not None) == gathers
    out = clifford_rb_apply(params, f)
    assert out.support == (0, 1, 2, 3)
    total = np.zeros(65)
    for mask in range(4):
        scalar = rb_apply(params.component_params(mask), f.component(mask)).values
        assert np.array_equal(out.component(mask).values, scalar)
        assert np.array_equal(np.signbit(out.component(mask).values), np.signbit(scalar))
        total += (f.component(mask).values - scalar) ** 2
    assert residual(params, f) == float(np.sqrt(np.max(total)))


def test_each_lifted_operator_call_builds_one_plan(monkeypatch):
    from clifract import engine, lift

    params, psi = solved(grid_m=64)
    assert len(params.support) == 4
    plans = []
    original = engine._build_plan

    def counting(*args, **kwargs):
        plans.append(args)
        return original(*args, **kwargs)

    for module in (engine, lift):
        monkeypatch.setattr(module, "_build_plan", counting)
    for call in (
        lambda: clifford_fixed_point(params, 64, tol=1e-12, gamma=0.4),
        lambda: clifford_rb_apply(params, psi),
        lambda: residual(params, psi),
        lambda: clifford_empirical_gamma(params, 64, trials=8, seed=1),
    ):
        plans.clear()
        call()
        assert len(plans) == 1


# ---------------------------------------------------------------------------
# lifted fixed points
# ---------------------------------------------------------------------------


def test_constant_components_converge_to_geometric_sums():
    part = uniform_partition(0.0, 1.0, 2)
    params = CliffordRBParams(2, part, ({"": 1.0, "12": -2.0},) * 2, (0.5, 0.5))
    result = clifford_fixed_point(params, 32, tol=1e-12, gamma=0.5)
    np.testing.assert_allclose(result.function.component("").values, 2.0, atol=1e-11)
    np.testing.assert_allclose(result.function.component("12").values, -4.0, atol=1e-11)
    assert result.function.component("1").sup_norm() == 0.0


def test_components_equal_scalar_solves_bitwise():
    # The 1e6-scaled blade needs more doublings, so the rows stop at different 2^k.
    datasets = {**DATASETS, "3": [1e6 * y for y in DATASETS["12"]]}
    result = clifford_fixed_point(lifted_problem(3, datasets), 512, tol=1e-12, gamma=0.4)
    assert len(set(result.iterations.values())) > 1
    for blade, data in datasets.items():
        scalar = fixed_point(fif_from_data(KNOTS, data, S), 512, tol=1e-12, gamma=0.4)
        assert np.array_equal(result.function.component(blade).values, scalar.function.values)


def test_a_doubling_block_whose_rows_all_stopped_is_skipped(rng):
    # 64 blades fill two blocks of 32 rows.  Block 0 (masks below 32) holds q of
    # about 1e-12 and stops at N = 1; block 1 holds q of about 1 and doubles on to N = 64.
    part = uniform_partition(0.0, 1.0, 2)
    scales = np.where(np.arange(64) < 32, 1e-12, 1.0)
    q = tuple(
        {mask: Poly(tuple(scale * rng.uniform(-1.0, 1.0, 2))) for mask, scale in enumerate(scales)}
        for _ in range(2)
    )
    params = CliffordRBParams(6, part, q, (0.5, -0.5))
    result = clifford_fixed_point(params, 64, tol=1e-10)
    assert {result.iterations[mask] for mask in range(32)} == {1}
    assert {result.iterations[mask] for mask in range(32, 64)} == {64}
    for mask in range(64):
        scalar = fixed_point(params.component_params(mask), 64, tol=1e-10)
        assert np.array_equal(result.function.component(mask).values, scalar.function.values)
        assert result.iterations[mask] == scalar.iterations


@pytest.mark.parametrize("scale", [1.0, 1e-160])
@pytest.mark.parametrize("knots", [[0.0, 0.5, 1.0], [0.0, 0.3, 1.0]], ids=["aligned", "interp"])
def test_n0_solve_is_the_scalar_solve_bitwise(knots, scale):
    # Cl(0,0) = R: the lifted problem over n = 0 has one row, the scalar problem.
    ys = [scale * y for y in DATASETS["12"]]
    scalar_params = fif_from_data(knots, ys, S)
    params = clifford_fif_from_data(0, knots, {"": ys}, S)
    scalar = fixed_point(scalar_params, 512, tol=1e-12)
    result = clifford_fixed_point(params, 512, tol=1e-12)
    assert np.array_equal(result.function.values, scalar.function.values[None])
    assert result.iterations == {0: scalar.iterations}
    assert result.error_bound == scalar.error_bound
    psi = scalar.function
    worst = float(np.max(np.abs(rb_apply(scalar_params, psi).values - psi.values)))
    assert residual(params, result.function) == worst
    if scale != 1.0:  # the square of the defect is subnormal
        assert math.sqrt(worst**2) != worst


@pytest.mark.parametrize("scale, tol", [(1e-160, 1e-12), (1e160, 1e300)], ids=["tiny", "huge"])
def test_euclidean_aggregates_neither_underflow_nor_overflow(scale, tol):
    # Squared, every defect and row bound here is subnormal (tiny) or infinite (huge).
    datasets = {"": [0.0, scale, 0.0], "12": [0.0, 0.3 * scale, 0.0]}
    knots, s = [0.0, 0.3, 1.0], [0.3, 0.3]
    params = clifford_fif_from_data(2, knots, datasets, s)
    result = clifford_fixed_point(params, 1000, tol=tol)
    psi = result.function
    defect = (clifford_rb_apply(params, psi) - psi).values
    worst = max(math.hypot(*column) for column in defect.T.tolist())
    assert residual(params, psi) == pytest.approx(worst, rel=1e-15, abs=0.0)
    bounds = [
        fixed_point(fif_from_data(knots, data, s), 1000, tol=tol).error_bound
        for data in datasets.values()
    ]
    assert result.error_bound == pytest.approx(math.hypot(*bounds), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.9])
def test_lifted_interpolating_certificate_holds_against_dense_solves(gamma):
    datasets = {"": [0.0, 1.0, -0.5], "12": [2.0, -1.0, 0.5]}
    params = clifford_fif_from_data(2, [0.0, 0.3, 1.0], datasets, [0.9, -0.9])
    grid_m, tol = 256, 1e-10
    result = clifford_fixed_point(params, grid_m, tol=tol, gamma=gamma)
    errors = []
    for mask in params.support:
        matrix, rhs = dense_operator(params.component_params(mask), grid_m)
        exact = np.linalg.solve(np.eye(grid_m + 1) - matrix, rhs)
        errors.append(np.max(np.abs(result.function.component(mask).values - exact)))
    # Each row stops within tol; the lifted bound is their Euclidean aggregate.
    assert max(errors) <= tol
    assert math.hypot(*errors) <= result.error_bound <= math.sqrt(len(errors)) * tol
    default = clifford_fixed_point(params, grid_m, tol=tol)
    assert np.array_equal(result.function.values, default.function.values)
    assert result.iterations == default.iterations
    assert result.error_bound == default.error_bound


def test_lifted_interpolating_solve_without_a_certificate_names_the_component():
    part = from_knots([0.0, 0.3, 1.0])
    params = CliffordRBParams(2, part, ({"12": Poly((0.0, 1.0))}, {"12": 1.0}), (1.2, 0.1))
    with pytest.raises(ConvergenceError, match=r"component '12': .*max\|s\| = 1.2 >= 1"):
        clifford_fixed_point(params, 64, tol=1e-10, gamma=0.5)
    # With no blade to solve there is no row to certify, as on an aligned grid.
    empty = CliffordRBParams(2, part, ({}, {}), (1.2, 0.1))
    assert clifford_fixed_point(empty, 64, tol=1e-10).function.support == ()


def test_unsupported_blades_stay_zero():
    params = lifted_problem(datasets={"1": [0.0, 1.0, 0.0]})
    result = clifford_fixed_point(params, 64, tol=1e-10, gamma=0.3)
    assert result.function.support == (0b01,)
    assert set(result.iterations) == {0b01}


def test_paravector_supported_data_stays_paravector_supported():
    params = lifted_problem(datasets={k: v for k, v in DATASETS.items() if k != "12"})
    psi = clifford_fixed_point(params, 128, tol=1e-12, gamma=0.4).function
    assert all(bin(mask).count("1") <= 1 for mask in psi.support)
    assert pv_restrict(psi).support == psi.support


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residual_of_converged_solution():
    tol = 1e-12
    params, psi = solved(grid_m=512, tol=tol)
    assert residual(params, psi) <= 2 * tol * 2 ** (2 / 2)


def test_residual_of_zero_guess_is_peak_q():
    params = lifted_problem()
    zero = CliffordGridFunction.zero(2, params.partition, 128)
    value = residual(params, zero)
    assert value > 0.5  # the datasets force a nonzero q somewhere
    # matches a direct evaluation of max |q_i| over pulled-back grid points
    worst = 0.0
    part = params.partition
    xs = GridFunction.zeros(part, 128).xs
    for i, amap in enumerate(part.maps):
        pre = amap.inverse(xs[part.locate(xs) == i])
        per_point = np.zeros(len(pre))
        for field in params.q[i].values():
            per_point += np.asarray(field(pre)) ** 2
        worst = max(worst, float(np.sqrt(per_point.max())))
    assert value == pytest.approx(worst, rel=1e-12)


def test_residual_growth_under_single_blade_perturbation():
    tol = 1e-12
    params, psi = solved(grid_m=256, tol=tol)
    eps = 1e-6
    bumped_component = GridFunction(
        psi.partition, psi.component("2").values + eps
    )
    comps = dict(psi.components)
    comps[0b10] = bumped_component
    bumped = CliffordGridFunction(2, psi.partition, 256, comps)
    base = residual(params, psi)
    max_s = max(abs(v) for v in S)
    assert residual(params, bumped) <= base + (1.0 + max_s) * eps + 1e-15


# ---------------------------------------------------------------------------
# norms and contraction
# ---------------------------------------------------------------------------


def test_clifford_norm_aggregates_components():
    part = uniform_partition(0.0, 1.0, 2)
    zero = CliffordGridFunction.zero(2, part, 16)
    assert clifford_norm_F(zero, SpaceSpec.ck(0)) == 0.0
    ones = GridFunction(part, np.ones(17))
    single = CliffordGridFunction(2, part, 16, {"12": ones})
    assert clifford_norm_F(single, SpaceSpec.ck(0)) == 1.0
    double = CliffordGridFunction(2, part, 16, {"": ones, "1": ones})
    assert clifford_norm_F(double, SpaceSpec.ck(0)) == pytest.approx(math.sqrt(2.0))
    # Squared, these norms are subnormal.
    tiny = CliffordGridFunction(2, part, 16, {"": ones * 1e-160, "12": ones * 3e-161})
    assert clifford_norm_F(tiny, SpaceSpec.ck(0)) == pytest.approx(math.hypot(1e-160, 3e-161), rel=1e-15, abs=0.0)
    with pytest.raises(NotImplementedError):
        clifford_norm_F(single, SpaceSpec.sobolev(0.5, 2.0))


def test_lifted_empirical_gamma_matches_scalar_probe():
    part = uniform_partition(0.0, 1.0, 2)
    params = CliffordRBParams(2, part, ({}, {}), (0.45, -0.3))
    scalar = empirical_gamma(params.component_params(0), 1024, trials=64, seed=9)
    lifted = clifford_empirical_gamma(params, 1024, trials=64, seed=9)
    assert abs(lifted - scalar) <= 1e-9
    assert lifted <= 0.45 + 1e-9


def test_lifted_contraction_bound_on_fully_random_pairs(rng):
    # direct check with dense random multivector functions, all blades active
    part = uniform_partition(0.0, 1.0, 2)
    s = (0.6, 0.25)
    params = CliffordRBParams(2, part, ({}, {}), s)
    worst = 0.0
    for _ in range(25):
        f = CliffordGridFunction(
            2, part, 128, {m: GridFunction(part, rng.standard_normal(129)) for m in range(4)}
        )
        g = CliffordGridFunction(
            2, part, 128, {m: GridFunction(part, rng.standard_normal(129)) for m in range(4)}
        )
        diff = f - g
        denom = math.sqrt(sum(c.sup_norm() ** 2 for c in diff.components.values()))
        out = clifford_rb_apply(params, f) - clifford_rb_apply(params, g)
        numer = math.sqrt(sum(c.sup_norm() ** 2 for c in out.components.values()))
        worst = max(worst, numer / denom)
    assert worst <= max(s) + 1e-9


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------


def test_product_with_scalar_one_is_identity():
    _, psi = solved()
    part = psi.partition
    one = CliffordGridFunction(2, part, 256, {"": GridFunction(part, np.ones(257))})
    assert all(
        np.array_equal(pointwise_product(psi, one).component(m).values, psi.component(m).values)
        for m in range(4)
    )
    assert all(
        np.array_equal(pointwise_product(one, psi).component(m).values, psi.component(m).values)
        for m in range(4)
    )


def test_product_of_e1_supported_functions():
    part = uniform_partition(0.0, 1.0, 2)
    f1 = GridFunction(part, np.linspace(0.0, 1.0, 17))
    g1 = GridFunction(part, np.linspace(2.0, 3.0, 17))
    f = CliffordGridFunction(2, part, 16, {"1": f1})
    g = CliffordGridFunction(2, part, 16, {"1": g1})
    product = pointwise_product(f, g)
    assert product.support == (0,)
    np.testing.assert_array_equal(product.component("").values, -f1.values * g1.values)


def test_conjugate_product_recovers_pointwise_norms():
    _, psi = solved()
    pv = pv_restrict(psi)
    product = pointwise_product(pv, pointwise_conj(pv))
    for mask in (1, 2, 3):
        assert np.max(np.abs(product.component(mask).values)) < 1e-12
    for j in (0, 77, 200, 256):
        value = pv.value_at(j)
        direct = mv_mul(value, value.conj())
        assert abs(product.component(0).values[j] - direct.scalar_part()) < 1e-12
        assert abs(product.component(0).values[j] - value.norm() ** 2) < 1e-12


def test_pointwise_product_is_associative(rng):
    part = uniform_partition(0.0, 1.0, 2)
    def random_function():
        return CliffordGridFunction(
            2, part, 32, {m: GridFunction(part, rng.standard_normal(33)) for m in range(4)}
        )
    f, g, h = random_function(), random_function(), random_function()
    left = pointwise_product(pointwise_product(f, g), h)
    right = pointwise_product(f, pointwise_product(g, h))
    for mask in range(4):
        assert np.max(np.abs(left.component(mask).values - right.component(mask).values)) < 1e-12


def test_product_keeps_the_sign_of_negative_zero():
    # The first term of a product blade is stored as it is: 0 * -2 stays -0.0.
    part = uniform_partition(0.0, 1.0, 2)
    f = CliffordGridFunction(2, part, 8, {"1": GridFunction.zeros(part, 8)})
    g = CliffordGridFunction(2, part, 8, {"": GridFunction(part, np.full(9, -2.0))})
    product = pointwise_product(f, g)
    assert product.support == (0b01,)
    values = product.component("1").values
    assert np.all(values == 0.0) and np.all(np.signbit(values))


@pytest.mark.parametrize(
    "op, big",
    [(pointwise_product, 1e200), (pointwise_product, 1.7e308), (operator.add, 1.7e308)],
    ids=["product-1e200", "product-1.7e308", "sum-1.7e308"],
)
def test_overflowing_pointwise_results_raise(op, big):
    part = uniform_partition(0.0, 1.0, 2)
    comps = {"": GridFunction(part, np.full(9, big)), "1": GridFunction(part, np.ones(9))}
    f = CliffordGridFunction(2, part, 8, comps)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        op(f, f)


def test_pv_restrict_examples():
    part = uniform_partition(0.0, 1.0, 2)
    ones = GridFunction(part, np.ones(9))
    mixed = CliffordGridFunction(2, part, 8, {"": ones, "2": 2.0 * ones, "12": 3.0 * ones})
    restricted = pv_restrict(mixed)
    assert restricted.support == (0, 2)
    assert np.array_equal(restricted.component("2").values, 2.0 * ones.values)
    only_bivector = CliffordGridFunction(2, part, 8, {"12": ones})
    assert pv_restrict(only_bivector).support == ()
    assert pv_restrict(restricted).support == restricted.support


def test_product_requires_matching_grids():
    part = uniform_partition(0.0, 1.0, 2)
    f = CliffordGridFunction.zero(2, part, 8)
    g = CliffordGridFunction.zero(3, part, 8)
    with pytest.raises(ValueError):
        pointwise_product(f, g)


# ---------------------------------------------------------------------------
# the matrix representation behind large products
# ---------------------------------------------------------------------------


def gamma_matrix(n, mask):
    """Gamma_mask as a dense complex matrix, read from its slot and sign: the entry in
    row r sits in column r ^ x and is sign * (1 or i) * (-1)^|r & z|."""
    slot, sign, had, _ = algebra._rep_tables(n)
    d = len(had)
    z, rest = divmod(int(slot[mask]), 2 * d)
    x, imaginary = divmod(rest, 2)
    assert 0 <= z < d and 0 <= x < d  # one entry per row
    rows = np.arange(d)
    parity = np.array([bin(r & z).count("1") % 2 for r in range(d)])
    matrix = np.zeros((d, d), dtype=complex)
    matrix[rows, rows ^ x] = sign[mask] * (1j if imaginary else 1) * np.where(parity, -1, 1)
    return matrix


def mask_pairs(n, rng):
    size = 1 << n
    if n <= 5:
        return [(a, b) for a in range(size) for b in range(size)]
    return [tuple(int(m) for m in rng.integers(0, size, 2)) for _ in range(500)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 9, 12])
def test_representation_matches_the_sign_oracle(n, rng):
    gamma = functools.cache(lambda mask: gamma_matrix(n, mask))
    pairs = mask_pairs(n, rng)
    d = len(algebra._rep_tables(n)[2])
    omega = (1 << n) - 1
    assert np.array_equal(gamma(0), np.eye(d))
    for a, b in pairs:
        sign, c = blade_mul_oracle(a, b)
        assert np.array_equal(gamma(a) @ gamma(b), sign * gamma(c)), (a, b)
    # h_C = Re tr(Gamma_C^H H) / d reads every blade back because Re tr(Gamma_A) = 0 for
    # A != 0; only the central omega of n = 1 mod 4 has a nonzero (imaginary) trace.
    for mask in {m for pair in pairs for m in pair} - {0}:
        trace = np.trace(gamma(mask))
        assert trace.real == 0, mask
        assert trace == 0 or (n % 4 == 1 and mask == omega), mask
    if n % 4 == 1:
        assert d == 1 << (n // 2)
        assert any(np.array_equal(gamma(omega), phase * np.eye(d)) for phase in (1j, -1j))


def random_function(n, grid_m, masks, rng):
    part = uniform_partition(0.0, 1.0, 2)
    values = rng.standard_normal((len(masks), grid_m + 1)) * rng.uniform(0.5, 20.0)
    return CliffordGridFunction(
        n, part, grid_m, {int(m): GridFunction(part, row) for m, row in zip(masks, values)}
    )


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 9, 12])
def test_factored_forward_map_is_the_dense_sum(n, rng):
    slot, sign, had, relayout = algebra._rep_tables(n)
    size, d = 1 << n, len(had)
    assert len(set(slot.tolist())) == size  # no two blades share a slot
    assert np.array_equal(relayout[relayout], np.arange(2 * d * d))  # there and back
    masks = np.arange(size) if n <= 9 else np.unique(rng.choice(size, 300).tolist() + [0, size - 1])
    f = random_function(n, 4, masks, rng)
    gammas = [gamma_matrix(n, mask) for mask in masks]
    # Points 1..3 of the grid, so that the block offset is read too.
    factored = algebra._forward_map(n, (f.masks, f.values))(1, 4)
    assert factored.shape == (3, d, d)
    bound = 1e-13 * len(masks) * np.max(np.abs(f.values))
    for point, matrix in zip(range(1, 4), factored):
        dense = sum(value * gamma for value, gamma in zip(f.values[:, point], gammas))
        assert np.max(np.abs(matrix - dense)) <= bound, point


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("support", ["full", "sparse"])
def test_matrix_path_agrees_with_the_pair_loop(n, support, rng):
    size = 1 << n
    if support == "full":
        f_masks = g_masks = np.arange(size)
    else:
        f_masks = np.sort(rng.choice(size, size // 3 + 1, replace=False))
        g_masks = np.sort(rng.choice(size, size // 5 + 2, replace=False))
    f = random_function(n, 12, f_masks, rng)
    g = random_function(n, 12, g_masks, rng)
    masks = np.unique(np.bitwise_xor.outer(f_masks, g_masks))
    stacks = (n, (f.masks, f.values), (g.masks, g.values), masks)
    exact = algebra._pair_product(*stacks)
    via_matrices = algebra._matrix_product(*stacks)
    bound = 1e-12 * size * np.max(np.abs(f.values)) * np.max(np.abs(g.values))
    assert np.max(np.abs(via_matrices - exact)) <= bound


@pytest.fixture
def product_paths(monkeypatch):
    """Record which kernel each pointwise_product or mv_mul call runs."""
    taken = []
    for name in ("_pair_product", "_matrix_product"):
        kernel = getattr(algebra, name)
        def spy(*args, kernel=kernel, name=name):
            taken.append(name)
            return kernel(*args)
        monkeypatch.setattr(algebra, name, spy)
    return taken


def test_small_products_stay_on_the_pair_loop_and_large_ones_use_matrices(product_paths, rng):
    products = []
    for n in (1, 2):
        full = np.arange(1 << n)
        f, g = random_function(n, 16, full, rng), random_function(n, 16, full, rng)
        products.append((f, g, pointwise_product(f, g)))
    assert product_paths == ["_pair_product"] * 2
    # mv_mul is the one-point case of the same pair loop, so the values agree.
    for f, g, product in products:
        for j in range(17):
            assert np.array_equal(product.value_at(j).coeffs, mv_mul(f.value_at(j), g.value_at(j)).coeffs)
    product_paths.clear()
    full = np.arange(1 << 9)
    pointwise_product(random_function(9, 2, full, rng), random_function(9, 2, full, rng))
    assert product_paths == ["_matrix_product"]


def test_dense_mv_mul_takes_the_pair_loop_at_n2_and_matrices_at_n10(product_paths, rng):
    for n in (2, 10):
        mv_mul(Multivector(n, rng.standard_normal(1 << n)), Multivector(n, rng.standard_normal(1 << n)))
    assert product_paths == ["_pair_product", "_matrix_product"]


def test_lopsided_mv_mul_takes_the_pair_loop_and_sums_in_ascending_a(product_paths, rng):
    n = 10
    size = 1 << n
    dense = rng.standard_normal(size)
    blade = np.zeros(size)
    blade[rng.integers(size)] = rng.standard_normal()
    paravector = np.zeros(size)
    paravector[[0, *(1 << np.arange(n))]] = rng.standard_normal(n + 1)
    for x, y in [(blade, dense), (dense, blade), (paravector, dense), (dense, paravector)]:
        want = np.full(size, -0.0)
        for a in np.flatnonzero(x):
            for b in np.flatnonzero(y):
                sign, mask = blade_mul_oracle(int(a), int(b))
                want[mask] += sign * x[a] * y[b]
        product = mv_mul(Multivector(n, x), Multivector(n, y)).coeffs
        assert np.array_equal(product.view(np.uint64), want.view(np.uint64))
    assert product_paths == ["_pair_product"] * 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("support", ["full", "sparse"])
def test_pointwise_product_is_mv_mul_bit_for_bit_at_every_grid_point(n, support, rng):
    size, grid_m = 1 << n, 99
    part = uniform_partition(0.0, 1.0, 2)

    def draw():
        masks = range(size) if support == "full" else rng.choice(size, size // 2 + 1, replace=False)
        normal = rng.standard_normal((len(masks), grid_m + 1))
        signed = rng.choice([0.0, -0.0, 1.0, -1.0], normal.shape)
        values = np.where(rng.random(normal.shape) < 0.4, normal, signed)
        return CliffordGridFunction(n, part, grid_m, {int(m): GridFunction(part, row) for m, row in zip(masks, values)})

    f, g = draw(), draw()
    product = pointwise_product(f, g)
    signs = {(a, b): blade_mul_oracle(a, b)[0] for a in f.masks for b in g.masks}
    for j in range(grid_m + 1):
        fj, gj = f.value_at(j).coeffs, g.value_at(j).coeffs
        want = mv_mul(f.value_at(j), g.value_at(j)).coeffs.copy()
        # mv_mul multiplies the nonzero coefficients only, so a blade whose every term is a
        # zero is +0.0 there, while the stored rows add those zero terms to -0.0, and the
        # sum stays -0.0 when each of them is -0.0.
        for c in product.masks:
            terms = [signs[a, a ^ c] * fj[a] * gj[a ^ c] for a in f.masks if a ^ c in g.masks]
            if all(term == 0 and np.signbit(term) for term in terms):
                want[c] = -0.0
        assert np.array_equal(product.value_at(j).coeffs.view(np.uint64), want.view(np.uint64)), j


def test_overflow_on_the_matrix_path_raises(product_paths, monkeypatch):
    # 129 points are three blocks of the matrix path at n = 9, on two workers.
    monkeypatch.setattr(_pool, "_cpus", lambda: 2)
    part = uniform_partition(0.0, 1.0, 2)
    f = CliffordGridFunction(9, part, 128, {m: GridFunction(part, np.full(129, 1e200)) for m in range(512)})
    before = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        pointwise_product(f, f)
    assert threading.active_count() == before
    assert product_paths == ["_matrix_product"]
