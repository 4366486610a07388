"""JSON problem configurations for the command line front end.

A config describes one solve: the algebra dimension, the partition, per-tile
q and s data, the carrier grid, tolerances, the function space whose gate
certifies the solve, and the probe seed.  Interpolation problems can be
stated directly as data points under "fif".  At n = 0 the algebra is
Cl(0,0) = R: q entries and fif.y are given bare, without blade keys, and
the problem is the one-row lifted problem of the scalar blade.

Parsing is strict: unknown keys, wrong types, and inconsistent sizes are
rejected with the offending field named, and parse -> serialize -> parse is
the identity.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .algebra import MAX_DIMENSION, TEXT_FORM_MAX, parse_blade_key
from .engine import SPACE_INDICES, Field, GridFunction, Poly, SpaceSpec
from .lift import CliffordRBParams, _fif_on
from .partition import AffinePartition, from_knots, uniform_partition

__all__ = ["ConfigError", "ProblemConfig", "ProblemSetup", "build_problem", "load_config"]

SCHEMA_VERSION = 1

# The solver allocates several float64 arrays of (grid_M + 1) * 2^n cells
# (one row per blade); this bound keeps each one at 512 MiB.
MAX_GRID_CELLS = 1 << 26
# The contraction probe draws trials * (grid_M + 1) samples twice over, one
# trial at a time; this bound admits the default 32 trials on the largest grid.
MAX_PROBE_SAMPLES = 32 * MAX_GRID_CELLS

_TOP_LEVEL_KEYS = {
    "schema_version",
    "n",
    "grid_M",
    "partition",
    "q",
    "fif",
    "s",
    "tol",
    "max_iter",
    "seed",
    "trials",
    "space",
    "output",
}

# Optional numeric fields: key, type, the test a value must pass, and the message if it fails.
_OPTIONAL_NUMBERS = (
    ("tol", float, lambda v: v > 0, "must be positive"),
    ("max_iter", int, lambda v: v >= 1, "must be at least 1"),
    ("seed", int, lambda v: v >= 0, "must be non-negative"),
    ("trials", int, lambda v: v >= 1, "must be at least 1"),
)


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@contextmanager
def _naming(label: str):
    """Re-raise the library's ValueErrors as ConfigErrors that name `label`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(label, str(exc)) from exc


def _refuse_unknown(spec: Mapping, known, where: str = "") -> None:
    """Name the first key of `spec` outside `known`; keys compare as text, whatever their type."""
    unknown = sorted(map(str, set(spec) - set(known)))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}" if where else unknown[0], "unknown field")


def _require(data: Mapping, key: str, kind, where: str = ""):
    label = f"{where}.{key}" if where else key
    if key not in data:
        raise ConfigError(label, "missing required field")
    value = data[key]
    if kind is float:
        return _number(value, label)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(label, f"expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(label, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number(value: Any, label: str) -> float:
    """A finite JSON number as a float; booleans, NaN and Infinity are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(label, f"expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(label, "expected a finite number")
    return float(value)


def _number_list(value: Any, label: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(label, "expected a nonempty list of numbers")
    return [_number(item, f"{label}[{i}]") for i, item in enumerate(value)]


@dataclass(frozen=True)
class ProblemConfig:
    """Validated problem description; `to_dict` emits the canonical JSON form."""

    n: int
    grid_m: int
    s: tuple
    partition: dict | None = None
    q: tuple | None = None
    fif: dict | None = None
    tol: float = 1e-10
    max_iter: int = 1000
    seed: int = 0
    trials: int = 32
    space: SpaceSpec = field(default_factory=lambda: SpaceSpec.ck(0))
    output: dict | None = None

    def to_dict(self) -> dict:
        data: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "grid_M": self.grid_m,
        }
        if self.partition is not None:
            data["partition"] = self.partition
        if self.q is not None:
            data["q"] = list(self.q)
        if self.fif is not None:
            data["fif"] = self.fif
        data["s"] = list(self.s)
        data.update(
            tol=self.tol,
            max_iter=self.max_iter,
            seed=self.seed,
            trials=self.trials,
            space={"tag": self.space.tag, **self.space.indices()},
        )
        if self.output is not None:
            data["output"] = self.output
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProblemConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("<root>", "config must be a JSON object")
        _refuse_unknown(data, _TOP_LEVEL_KEYS)
        version = _require(data, "schema_version", int)
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")

        n = _require(data, "n", int)
        if not 0 <= n <= MAX_DIMENSION:
            raise ConfigError("n", f"must lie in 0..{MAX_DIMENSION} (0 is the real line, Cl(0,0) = R)")
        if n > TEXT_FORM_MAX:
            raise ConfigError("n", f"blade keys limit configs to n <= {TEXT_FORM_MAX}")
        grid_m = _require(data, "grid_M", int)
        if (grid_m + 1) << n > MAX_GRID_CELLS:
            raise ConfigError(
                "grid_M",
                f"(grid_M + 1) * 2^n = {(grid_m + 1) << n} grid cells exceed the bound "
                f"{MAX_GRID_CELLS} (512 MiB per float64 array)",
            )

        has_fif = "fif" in data
        has_pq = "partition" in data or "q" in data
        if has_fif and has_pq:
            raise ConfigError("fif", "cannot combine 'fif' with 'partition'/'q'")
        if not has_fif and not ("partition" in data and "q" in data):
            raise ConfigError("partition", "need either 'partition' plus 'q', or 'fif'")

        partition_spec = _parse_partition_spec(data["partition"]) if "partition" in data else None
        n_maps = None
        if partition_spec is not None:
            n_maps = partition_spec.get("N") or len(partition_spec["knots"]) - 1

        fif_spec = _parse_fif_spec(data["fif"], n) if has_fif else None
        if fif_spec is not None:
            n_maps = len(fif_spec["x"]) - 1

        q_spec = None
        if "q" in data:
            q_spec = _parse_q_spec(data["q"], n, n_maps)

        s_spec = _parse_s_spec(_require(data, "s", list), n_maps, fif=has_fif)

        # Optional fields pass only when given, so the dataclass states each default once.
        given: dict[str, Any] = {}
        for key, kind, ok, rule in _OPTIONAL_NUMBERS:
            if key in data:
                given[key] = _require(data, key, kind)
                if not ok(given[key]):
                    raise ConfigError(key, rule)
        trials = given.get("trials", cls.trials)
        if trials * (grid_m + 1) > MAX_PROBE_SAMPLES:
            raise ConfigError(
                "trials",
                f"trials * (grid_M + 1) = {trials * (grid_m + 1)} probe samples exceed "
                f"the bound {MAX_PROBE_SAMPLES}",
            )
        for key, parse in (("space", _parse_space), ("output", _parse_output)):
            if key in data:
                given[key] = parse(data[key])

        return cls(
            n=n,
            grid_m=grid_m,
            s=tuple(s_spec),
            partition=partition_spec,
            q=tuple(q_spec) if q_spec is not None else None,
            fif=fif_spec,
            **given,
        )


def load_config(path: str | Path) -> ProblemConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return ProblemConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Section parsers
# ---------------------------------------------------------------------------


def _parse_partition_spec(spec: Any) -> dict:
    if not isinstance(spec, Mapping):
        raise ConfigError("partition", "expected an object")
    _refuse_unknown(spec, {"interval", "N", "knots"}, "partition")
    interval = _number_list(_require(spec, "interval", list, "partition"), "partition.interval")
    if len(interval) != 2 or not interval[0] < interval[1]:
        raise ConfigError("partition.interval", "expected [x_lo, x_hi] with x_lo < x_hi")
    if ("N" in spec) == ("knots" in spec):
        raise ConfigError("partition", "give exactly one of 'N' or 'knots'")
    out: dict[str, Any] = {"interval": interval}
    if "N" in spec:
        n_maps = _require(spec, "N", int, "partition")
        if n_maps < 2:
            raise ConfigError("partition.N", "must be at least 2")
        out["N"] = n_maps
    else:
        knots = _number_list(spec["knots"], "partition.knots")
        if len(knots) < 3 or any(b <= a for a, b in zip(knots, knots[1:])):
            raise ConfigError("partition.knots", "expected >= 3 strictly increasing knots")
        if knots[0] != interval[0] or knots[-1] != interval[1]:
            raise ConfigError("partition.knots", "knots must start and end at the interval endpoints")
        out["knots"] = knots
    return out


def _parse_field_spec(spec: Any, label: str) -> Any:
    if isinstance(spec, (int, float)):  # booleans included, which _number refuses
        return _number(spec, label)
    if isinstance(spec, Mapping):
        keys = set(spec)
        if keys == {"const"}:
            return {"const": _require(spec, "const", float, label.rstrip("."))}
        if keys == {"poly"}:
            return {"poly": _number_list(spec["poly"], f"{label}.poly")}
        if keys == {"samples"}:
            return {"samples": _number_list(spec["samples"], f"{label}.samples")}
        raise ConfigError(label, "expected exactly one of 'const', 'poly' or 'samples'")
    raise ConfigError(label, "expected a number or an object")


def _parse_q_spec(spec: Any, n: int, n_maps: int | None) -> list:
    if not isinstance(spec, list):
        raise ConfigError("q", "expected a list with one entry per map")
    if n_maps is not None and len(spec) != n_maps:
        raise ConfigError("q", f"expected {n_maps} entries, got {len(spec)}")
    out = []
    for i, entry in enumerate(spec):
        blades = {key: _parse_field_spec(value, label) for key, value, label in _blades(n, entry, f"q[{i}]")}
        out.append(blades[""] if n == 0 else blades)
    return out


def _blades(n: int, entry: Any, label: str) -> list[tuple[str, Any, str]]:
    """(blade key, value, label) per blade of a blade table: a q entry or fif.y.

    At n = 0 the entry is the one blade of Cl(0,0) = R, under the table's own
    label.  Otherwise it is an object whose keys are text blade keys, each
    checked, in key order, under the label `<table>.<key or '<scalar>'>`.
    """
    if n == 0:
        return [("", entry, label)]
    if not isinstance(entry, Mapping):
        raise ConfigError(label, "expected an object mapping blade keys to values")
    for key in entry:
        if not isinstance(key, str):
            raise ConfigError(label, f"blade keys must be strings, got {key!r}")
    out = []
    for key in sorted(entry):
        where = f"{label}.{key or '<scalar>'}"
        with _naming(where):
            parse_blade_key(key, n)
        out.append((key, entry[key], where))
    return out


def _parse_s_spec(spec: list, n_maps: int | None, fif: bool) -> list:
    if n_maps is not None and len(spec) != n_maps:
        raise ConfigError("s", f"expected {n_maps} entries, got {len(spec)}")
    out = []
    for i, entry in enumerate(spec):
        parsed = _parse_field_spec(entry, f"s[{i}]")
        if isinstance(parsed, Mapping) and "poly" in parsed:
            raise ConfigError(f"s[{i}]", "multipliers must be constants or samples")
        if fif and not isinstance(parsed, float):
            raise ConfigError(f"s[{i}]", "interpolation multipliers must be constants")
        out.append(parsed)
    return out


def _parse_fif_spec(spec: Any, n: int) -> dict:
    if not isinstance(spec, Mapping):
        raise ConfigError("fif", "expected an object")
    _refuse_unknown(spec, {"x", "y"}, "fif")
    xs = _number_list(_require(spec, "x", list, "fif"), "fif.x")
    if len(xs) < 3 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigError("fif.x", "expected >= 3 strictly increasing abscissae")
    if "y" not in spec:
        raise ConfigError("fif.y", "missing required field")
    table = {}
    for key, data, label in _blades(n, spec["y"], "fif.y"):
        table[key] = _number_list(data, label)
        if len(table[key]) != len(xs):
            raise ConfigError(label, f"expected {len(xs)} ordinates, got {len(table[key])}")
    if not table:
        raise ConfigError("fif.y", "expected a nonempty object mapping blade keys to ordinates")
    return {"x": xs, "y": table[""] if n == 0 else table}


def _parse_space(spec: Any) -> SpaceSpec:
    if not isinstance(spec, Mapping):
        raise ConfigError("space", "expected an object with a 'tag'")
    tag = _require(spec, "tag", str, "space")
    kwargs = {}
    for name in SPACE_INDICES:
        if name in spec:
            _number(spec[name], f"space.{name}")
            kwargs[name] = spec[name]  # as given, so an integer index prints as one
    _refuse_unknown(spec, {"tag", *SPACE_INDICES}, "space")
    with _naming("space"):
        return SpaceSpec(tag, **kwargs)


def _parse_output(spec: Any) -> dict:
    if not isinstance(spec, Mapping):
        raise ConfigError("output", "expected an object")
    _refuse_unknown(spec, {"path", "format"}, "output")
    out: dict[str, Any] = {}
    if "path" in spec:
        out["path"] = _require(spec, "path", str, "output")
    if "format" in spec:
        fmt = _require(spec, "format", str, "output")
        if fmt not in ("csv", "json"):
            raise ConfigError("output.format", f"expected 'csv' or 'json', got {fmt!r}")
        out["format"] = fmt
    return out


# ---------------------------------------------------------------------------
# Building runnable problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSetup:
    """A config resolved into solver-ready objects."""

    config: ProblemConfig
    partition: AffinePartition
    params: CliffordRBParams


def _build_field(spec: Any, partition: AffinePartition, grid_m: int, label: str) -> Field:
    if isinstance(spec, float):
        return spec
    if "const" in spec:
        return spec["const"]
    if "poly" in spec:
        return Poly(tuple(spec["poly"]))
    samples = spec["samples"]
    if len(samples) != grid_m + 1:
        raise ConfigError(label, f"expected grid_M+1 = {grid_m + 1} samples, got {len(samples)}")
    return GridFunction(partition, np.asarray(samples))


def build_problem(config: ProblemConfig) -> ProblemSetup:
    """Resolve a parsed config into partition and parameters, rechecking sizes.

    Knots that give no valid partition (a slope that rounds to 1) are errors
    of `fif.x` or `partition`; overflowing interpolation data, of `fif.y`.
    """
    fif, layout = config.fif, config.partition
    if fif is not None:
        s = [float(v) for v in config.s]
        if any(abs(v) >= 1.0 for v in s):
            raise ConfigError("s", "interpolation multipliers must satisfy |s_i| < 1")
        with _naming("fif.x"):
            partition = from_knots(fif["x"])
    else:
        with _naming("partition"):
            if "N" in layout:
                partition = uniform_partition(*layout["interval"], layout["N"])
            else:
                partition = from_knots(layout["knots"])
    with _naming("grid_M"):
        partition._check_grid(config.grid_m)
    if fif is not None:
        ys = {key: data for key, data, _ in _blades(config.n, fif["y"], "fif.y")}
        with _naming("fif.y"):
            params = _fif_on(config.n, partition, ys, s)
        return ProblemSetup(config, partition, params)

    s_fields = tuple(
        _build_field(entry, partition, config.grid_m, f"s[{i}]")
        for i, entry in enumerate(config.s)
    )
    q_blades = tuple(
        {
            key: _build_field(spec, partition, config.grid_m, label)
            for key, spec, label in _blades(config.n, entry, f"q[{i}]")
        }
        for i, entry in enumerate(config.q)
    )
    with _naming("q"):  # one q and one s per map: parsing checks this for JSON configs
        params = CliffordRBParams(config.n, partition, q_blades, s_fields)
    return ProblemSetup(config, partition, params)
