import contextlib
import copy
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clifract import CliffordRBParams, GridFunction, Poly, SpaceSpec
from clifract.cli import main
from clifract.config import ConfigError, ProblemConfig, build_problem, load_config

SCALAR_CONFIG = {
    "schema_version": 1,
    "n": 0,
    "grid_M": 64,
    "partition": {"interval": [0.0, 1.0], "N": 2},
    "q": [{"poly": [0.0, 1.0]}, {"const": 1.0}],
    "s": [0.5, 0.5],
    "tol": 1e-10,
    "max_iter": 500,
    "seed": 7,
    "space": {"tag": "Lp", "p": 2.0},
}

CLIFFORD_CONFIG = {
    "schema_version": 1,
    "n": 2,
    "grid_M": 32,
    "partition": {"interval": [0.0, 1.0], "knots": [0.0, 0.25, 1.0]},
    "q": [
        {"": {"poly": [1.0]}, "12": {"const": -1.0}},
        {"1": {"samples": [0.0] * 33}},
    ],
    "s": [0.25, {"samples": [0.1] * 33}],
    "space": {"tag": "Ck", "k": 0},
}

FIF_CONFIG = {
    "schema_version": 1,
    "n": 2,
    "grid_M": 128,
    "fif": {"x": [0.0, 0.5, 1.0], "y": {"": [0.0, 1.0, 0.0], "1": [1.0, 0.0, 2.0]}},
    "s": [0.3, 0.3],
    "tol": 1e-12,
}


def test_parse_scalar_config():
    cfg = ProblemConfig.from_dict(SCALAR_CONFIG)
    assert cfg.n == 0
    assert cfg.grid_m == 64
    assert cfg.space == SpaceSpec.lp(2.0)
    setup = build_problem(cfg)
    # n = 0 is Cl(0,0) = R: a lifted problem whose one blade is the scalar.
    assert isinstance(setup.params, CliffordRBParams)
    assert setup.params.support == (0,)
    assert setup.params.q[0] == {0: Poly((0.0, 1.0))}
    assert setup.params.q[1] == {0: 1.0}
    assert setup.partition.size == 2


def test_parse_clifford_config():
    cfg = ProblemConfig.from_dict(CLIFFORD_CONFIG)
    setup = build_problem(cfg)
    assert isinstance(setup.params, CliffordRBParams)
    assert setup.params.n == 2
    assert setup.params.support == (0, 1, 3)
    assert isinstance(setup.params.s[1], GridFunction)
    assert setup.partition.knots == (0.0, 0.25, 1.0)


def test_parse_fif_config():
    cfg = ProblemConfig.from_dict(FIF_CONFIG)
    setup = build_problem(cfg)
    assert isinstance(setup.params, CliffordRBParams)
    assert setup.params.support == (0, 1)
    assert setup.partition.knots == (0.0, 0.5, 1.0)


def test_round_trip_is_identity():
    for raw in (SCALAR_CONFIG, CLIFFORD_CONFIG, FIF_CONFIG):
        cfg = ProblemConfig.from_dict(raw)
        again = ProblemConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg
        assert again.to_json() == cfg.to_json()


def test_defaults_are_filled():
    cfg = ProblemConfig.from_dict(FIF_CONFIG)
    assert cfg.max_iter == 1000
    assert cfg.seed == 0
    assert cfg.trials == 32
    assert cfg.space == SpaceSpec.ck(0)


@pytest.mark.parametrize(
    "mutation, field",
    [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.pop("n"), "n"),
        (lambda d: d.update(n=15), "n"),
        (lambda d: d.update(grid_M=1), "grid_M"),
        (lambda d: d.pop("s"), "s"),
        (lambda d: d.update(s=[0.5]), "s"),
        (lambda d: d.update(tol=0.0), "tol"),
        (lambda d: d.update(max_iter=0), "max_iter"),
        (lambda d: d.update(seed=-1), "seed"),
        pytest.param(lambda d: d.update(trials=10**12), "trials", id="probe-samples-over-bound"),
        (lambda d: d.update(space={"tag": "Zp"}), "space"),
        (lambda d: d.update(space={"tag": "Lp"}), "space"),
        (lambda d: d.update(space={"tag": "Lp", "p": True}), "space.p"),
        (lambda d: d.update(partition={"interval": [1.0, 0.0], "N": 2}), "partition.interval"),
        (lambda d: d.update(partition={"interval": [0.0, 1.0]}), "partition"),
        (
            lambda d: d.update(partition={"interval": [0.0, 1.0], "N": 2, "knots": [0, 1]}),
            "partition",
        ),
        (lambda d: d.update(q=[{"poly": [1.0]}]), "q"),
        (lambda d: d.update(q=[{"poly": [1.0], "const": 2.0}, {"const": 0.0}]), "q[0]"),
        pytest.param(lambda d: d.update(q=[{"poly": [float("nan")]}, 1.0]), "q[0].poly[0]", id="nan-poly"),
        pytest.param(lambda d: d.update(q=[float("nan"), 1.0]), "q[0]", id="nan-bare-q"),
        pytest.param(lambda d: d.update(s=[float("inf"), 0.5]), "s[0]", id="inf-s"),
        pytest.param(lambda d: d.update(tol=10**400), "tol", id="int-past-float-range"),
        pytest.param(lambda d: d.update(n=9, grid_M=2**17), "grid_M", id="cells-over-bound-n9"),
        pytest.param(lambda d: d.update(grid_M=2**26), "grid_M", id="cells-over-bound-scalar"),
        pytest.param(
            lambda d: d.update(grid_M=2, partition={"interval": [0, 1], "N": 3}, q=[1.0] * 3, s=[0.5] * 3),
            "grid_M",
            id="grid-below-N",
        ),
        pytest.param(
            lambda d: (_as_fif(d, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0] * 5, s=[0.1] * 4), d.update(grid_M=3)),
            "grid_M",
            id="fif-grid-below-N",
        ),
        # The last four parse; building the partition or the interpolation data fails.
        pytest.param(
            lambda d: d.update(partition={"interval": [0.0, 1.0], "knots": [0.0, 1e-300, 1.0]}),
            "partition",
            id="knot-slope-rounds-to-1",
        ),
        pytest.param(
            lambda d: _as_fif(d, [0.0, 1e-300, 1.0], [0.0, 1.0, 0.0]), "fif.x", id="fif-slope-rounds-to-1"
        ),
        pytest.param(
            lambda d: _as_fif(d, [0.0, 0.5, 1.0], [0.0, float("nan"), 0.0]), "fif.y", id="nan-fif-y"
        ),
        pytest.param(
            lambda d: _as_fif(d, [0.0, 0.5, 1.0], [1e308, -1e308, 1e308], s=[0.9, 0.9]),
            "fif.y",
            id="fif-coefficients-overflow",
        ),
    ],
)
def test_errors_name_the_offending_field(mutation, field):
    raw = json.loads(json.dumps(SCALAR_CONFIG))
    mutation(raw)
    with pytest.raises(ConfigError) as excinfo:
        build_problem(ProblemConfig.from_dict(raw))
    assert excinfo.value.field.startswith(field)


def test_grid_cell_bound_admits_its_limit():
    raw = dict(SCALAR_CONFIG, grid_M=2**26 - 1)  # exactly 2^26 cells; parsing allocates none
    assert ProblemConfig.from_dict(raw).grid_m == 2**26 - 1


def test_probe_bound_admits_its_limit():
    raw = dict(SCALAR_CONFIG, grid_M=2**26 - 1, trials=32)  # exactly 32 * 2^26 probe samples
    assert ProblemConfig.from_dict(raw).trials == 32
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(dict(raw, trials=33))
    assert excinfo.value.field == "trials"


def _as_fif(raw, x, y, s=(0.5, 0.5)):
    """Turn the scalar partition/q config into an interpolation problem, in place; returns it."""
    del raw["partition"], raw["q"]
    raw.update(fif={"x": x, "y": y}, s=list(s))
    return raw


# (field, config): each config is SCALAR_CONFIG, CLIFFORD_CONFIG or an interpolation
# problem with one field broken.
CHECK_ERRORS = {
    "root-not-an-object": ("<root>", [SCALAR_CONFIG]),
    "n-past-blade-keys": ("n", dict(SCALAR_CONFIG, n=10)),
    "trials-below-1": ("trials", dict(SCALAR_CONFIG, trials=0)),
    "partition-not-an-object": ("partition", dict(SCALAR_CONFIG, partition=[0.0, 1.0])),
    "partition-unknown-key": ("partition.M", dict(SCALAR_CONFIG, partition={"interval": [0, 1], "N": 2, "M": 4})),
    "partition-N-below-2": ("partition.N", dict(SCALAR_CONFIG, partition={"interval": [0, 1], "N": 1})),
    "knots-decreasing": ("partition.knots", dict(SCALAR_CONFIG, partition={"interval": [0, 1], "knots": [0, 1, 0.5]})),
    "knots-miss-an-end": (
        "partition.knots", dict(SCALAR_CONFIG, partition={"interval": [0, 1], "knots": [0, 0.5, 1.1]})
    ),
    "q-not-a-list": ("q", dict(SCALAR_CONFIG, q={"poly": [1.0]})),
    "bare-q-not-a-field": ("q[1]", dict(SCALAR_CONFIG, q=[1.0, "x"])),
    "lifted-q-not-an-object": ("q[0]", dict(CLIFFORD_CONFIG, q=[1.0, {"1": 0.5}])),
    "poly-s": ("s[0]", dict(SCALAR_CONFIG, s=[{"poly": [0.5]}, 0.5])),
    "fif-not-an-object": ("fif", dict(_as_fif(dict(SCALAR_CONFIG), [0, 0.5, 1], [0, 1, 0]), fif=[0, 0.5, 1])),
    "fif-x-empty": ("fif.x", _as_fif(dict(SCALAR_CONFIG), [], [0, 1, 0])),
    "fif-y-length-n0": ("fif.y", _as_fif(dict(SCALAR_CONFIG), [0, 0.5, 1], [0, 1])),
    "fif-s-at-1": ("s", _as_fif(dict(SCALAR_CONFIG), [0, 0.5, 1], [0, 1, 0], s=[1.0, 0.5])),
    "space-unknown-key": ("space.r", dict(SCALAR_CONFIG, space={"tag": "Lp", "p": 2, "r": 1})),
    "output-not-an-object": ("output", dict(SCALAR_CONFIG, output="out.csv")),
    "output-unknown-key": ("output.name", dict(SCALAR_CONFIG, output={"name": "out.csv"})),
}


@pytest.mark.parametrize("field, raw", CHECK_ERRORS.values(), ids=CHECK_ERRORS.keys())
def test_check_names_the_field_of_every_config_error(tmp_path, capsys, field, raw):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {field}: ")


def test_configs_built_in_python_are_checked_too():
    # JSON object keys are strings, and parsing matches q and s to the partition;
    # a dict or a ProblemConfig built in Python skips both.
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(dict(CLIFFORD_CONFIG, q=[{1: 0.5}, {}]))
    assert excinfo.value.field == "q[0]"
    cfg = ProblemConfig(n=0, grid_m=64, s=(0.5,), partition={"interval": [0.0, 1.0], "N": 2}, q=(1.0, 1.0))
    with pytest.raises(ConfigError) as excinfo:
        build_problem(cfg)
    assert excinfo.value.field == "q"


def test_fif_conflicts_with_partition():
    raw = json.loads(json.dumps(SCALAR_CONFIG))
    raw["fif"] = {"x": [0.0, 0.5, 1.0], "y": [0.0, 1.0, 0.0]}
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(raw)
    assert excinfo.value.field == "fif"


def test_fif_requires_constant_multipliers():
    raw = json.loads(json.dumps(FIF_CONFIG))
    raw["s"] = [0.3, {"samples": [0.1] * 129}]
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(raw)
    assert excinfo.value.field == "s[1]"


def test_clifford_q_rejects_bad_blade_keys():
    raw = json.loads(json.dumps(CLIFFORD_CONFIG))
    raw["q"][0]["21"] = {"const": 1.0}
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(raw)
    assert excinfo.value.field.startswith("q[0]")
    raw = json.loads(json.dumps(CLIFFORD_CONFIG))
    raw["q"][0]["3"] = {"const": 1.0}
    with pytest.raises(ConfigError):
        ProblemConfig.from_dict(raw)


def test_sample_length_checked_at_build_time():
    raw = json.loads(json.dumps(CLIFFORD_CONFIG))
    raw["q"][1]["1"]["samples"] = [0.0] * 10
    cfg = ProblemConfig.from_dict(raw)
    with pytest.raises(ConfigError) as excinfo:
        build_problem(cfg)
    assert excinfo.value.field == "q[1].1"


def test_fif_ordinate_length_mismatch():
    raw = json.loads(json.dumps(FIF_CONFIG))
    raw["fif"]["y"][""] = [0.0, 1.0]
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(raw)
    assert excinfo.value.field == "fif.y.<scalar>"


def test_load_config_io_and_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SCALAR_CONFIG))
    assert ProblemConfig.from_dict(SCALAR_CONFIG) == load_config(good)


def test_output_section_validation():
    raw = json.loads(json.dumps(SCALAR_CONFIG))
    raw["output"] = {"path": "out.csv", "format": "csv"}
    cfg = ProblemConfig.from_dict(raw)
    assert cfg.output == {"path": "out.csv", "format": "csv"}
    raw["output"] = {"format": "xml"}
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(raw)
    assert excinfo.value.field == "output.format"


# ---------------------------------------------------------------------------
# Mutated configs: one or two paths of a valid config replaced or renamed
# ---------------------------------------------------------------------------

N0_FIF_CONFIG = {
    "schema_version": 1,
    "n": 0,
    "grid_M": 64,
    "fif": {"x": [0.0, 0.5, 1.0], "y": [0.0, 1.0, 0.0]},
    "s": [0.3, -0.3],
}
# Small enough that every mutant's check and solve take milliseconds.
MUTANT_BASES = [
    dict(raw, grid_M=min(raw["grid_M"], 64), max_iter=200)
    for raw in (SCALAR_CONFIG, CLIFFORD_CONFIG, FIF_CONFIG, N0_FIF_CONFIG)
]
MUTANT_VALUES = [
    None, True, -1, 1.5, 1e308, -1e308, 5e-324, math.nan, math.inf, "", "x", "12", [], [1], {},
    {"": 1}, {"poly": []}, {"poly": [1e308, 1e308]}, {"samples": [1]}, 10**400,
]
MUTANT_KEYS = [1, None, 2.5, "", "3"]


def _config_paths(node, prefix=()):
    """Every place in a config, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _config_paths(child, prefix + (key,))


def _mutant(base, path, value, *, rename=False):
    """A copy of `base` with the entry at `path` set to `value`, or renamed to `value`."""
    raw = copy.deepcopy(base)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if rename:
        parent[value] = parent.pop(path[-1])
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return raw


@st.composite
def mutated_configs(draw):
    raw = draw(st.sampled_from(MUTANT_BASES))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_config_paths(raw))))
        if not path:
            raw = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))
            continue
        rename = isinstance(path[-1], str) and draw(st.booleans())  # only mapping entries have text keys
        raw = _mutant(raw, path, draw(st.sampled_from(MUTANT_KEYS if rename else MUTANT_VALUES)), rename=rename)
    return raw


_CLIFFORD, _FIF = MUTANT_BASES[1], MUTANT_BASES[2]
# Blade tables with a key that is no string, and the table an error names: sorting
# such keys, or reading one as text, raised a TypeError.
KEY_MUTANTS = {
    "q-int": (_mutant(_CLIFFORD, ("q", 0, "12"), 1, rename=True), "q[0]"),
    "q-none": (_mutant(_CLIFFORD, ("q", 0, "12"), None, rename=True), "q[0]"),
    "q-float": (_mutant(_CLIFFORD, ("q", 0, "12"), 2.5, rename=True), "q[0]"),
    "fif-y-int": (_mutant(_FIF, ("fif", "y", "1"), 1, rename=True), "fif.y"),
    "fif-y-none": (_mutant(_FIF, ("fif", "y", "1"), None, rename=True), "fif.y"),
    "fif-y-float": (_mutant(_FIF, ("fif", "y", "1"), 2.5, rename=True), "fif.y"),
    "fif-y-int-alone": (_mutant(_FIF, ("fif", "y"), {1: [0.0, 1.0, 0.0]}), "fif.y"),
}
# Fields that overflow while the plan is built: a RuntimeWarning, so a traceback
# where warnings are errors.
POLY_OVERFLOW = _mutant(MUTANT_BASES[0], ("q", 0), {"poly": [1e308, 1e308]})
SAMPLES_OVERFLOW = _mutant(_CLIFFORD, ("s", 1, "samples", 15), -1e308)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(raw=mutated_configs())
@example(raw=KEY_MUTANTS["q-int"][0])
@example(raw=KEY_MUTANTS["q-none"][0])
@example(raw=KEY_MUTANTS["q-float"][0])
@example(raw=KEY_MUTANTS["fif-y-int"][0])
@example(raw=KEY_MUTANTS["fif-y-none"][0])
@example(raw=KEY_MUTANTS["fif-y-float"][0])
@example(raw=KEY_MUTANTS["fif-y-int-alone"][0])
@example(raw=POLY_OVERFLOW)
@example(raw=SAMPLES_OVERFLOW)
def test_mutated_configs_end_in_a_config_error_or_an_exit_code(tmp_path_factory, raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build_problem(ProblemConfig.from_dict(raw))
        except ConfigError:
            pass
        if isinstance(raw, dict) and isinstance(raw.get("max_iter"), int) and raw["max_iter"] > 200:
            return  # a config that may iterate without end is checked as a dict alone
        path = tmp_path_factory.mktemp("mutant") / "problem.json"
        path.write_text(json.dumps(raw))  # keys that are not strings become strings
        for argv in (["check", str(path)], ["solve", str(path), "--output", str(path.with_suffix(".csv"))]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2, 3)


def test_overflowing_fields_end_in_exits_without_warnings(tmp_path, capsys):
    # The q polynomial overflows on the grid: no gate reads q, so check passes and prints
    # the probe's nan, and solve stops on the first step.  The sampled multiplier's
    # pullback overflows on the interpolating grid.
    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, raw in (("poly", POLY_OVERFLOW), ("samples", SAMPLES_OVERFLOW)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(raw))
            runs[name, "check"] = main(["check", str(config)]), capsys.readouterr()
            solve = ["solve", str(config), "--quiet", "--output", str(tmp_path / "out.csv")]
            runs[name, "solve"] = main(solve), capsys.readouterr()
    code, captured = runs["poly", "check"]
    assert code == 0 and "empirical (sup norm)         nan\n" in captured.out
    code, captured = runs["poly", "solve"]
    assert code == 3
    assert captured.err == (
        "no convergence: component 'scalar': no convergence: step 1 = inf overflows (rho_1 = 5.000e-01)\n"
    )
    code, captured = runs["samples", "check"]
    assert code == 1 and "configured Ck(k=0): gamma = 1.3333333333333333e+308 (FAILS)" in captured.out
    assert runs["samples", "solve"][0] == 3


@pytest.mark.parametrize("raw, field", KEY_MUTANTS.values(), ids=KEY_MUTANTS.keys())
def test_blade_keys_are_text_in_a_config(raw, field):
    with pytest.raises(ConfigError) as excinfo:
        ProblemConfig.from_dict(raw)
    assert excinfo.value.field == field
    assert "blade keys must be strings" in str(excinfo.value)
