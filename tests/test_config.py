import json

import numpy as np
import pytest

from clifract import CliffordRBParams, GridFunction, Poly, SpaceSpec
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
    """Turn the scalar partition/q config into an interpolation problem."""
    del raw["partition"], raw["q"]
    raw.update(fif={"x": x, "y": y}, s=list(s))


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
