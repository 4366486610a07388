"""Spans around clifract's public layer functions, recorded from outside.

`Tracer.install` wraps each target function in every loaded clifract module
that holds it, so calls made through `from .engine import fixed_point`
bindings are seen too.  Spans stay in memory; `layer_metrics` turns them
into self times and counts.  A target that no longer exists is reported as
missing, and every metric that needs it is left out rather than set to 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)


def _points(grid_m) -> int:
    return int(grid_m) + 1


# Attribute hooks get the bound call arguments and the result.
def _fixed_point_attrs(args, result) -> dict:
    return {
        "iterations": result.iterations,
        "point_updates": result.iterations * _points(args["grid_m"]),
    }


def _rb_apply_attrs(args, result) -> dict:
    return {"point_updates": len(args["f"].values)}


def _empirical_gamma_attrs(args, result) -> dict:
    return {"point_updates": 2 * args["trials"] * _points(args["grid_m"])}


def _mv_mul_attrs(args, result) -> dict:
    return {"n": args["x"].n}


# (defining module, function name, span name, attribute hook)
TARGETS = (
    ("clifract.cli", "main", "cli.main", None),
    ("clifract.config", "load_config", "config.load", None),
    ("clifract.config", "build_problem", "config.build", None),
    ("clifract.engine", "gamma_gate", "engine.gate", None),
    ("clifract.engine", "fixed_point", "engine.fixed_point", _fixed_point_attrs),
    ("clifract.engine", "rb_apply", "engine.rb_apply", _rb_apply_attrs),
    ("clifract.engine", "empirical_gamma", "engine.empirical_gamma", _empirical_gamma_attrs),
    ("clifract.lift", "clifford_fixed_point", "lift.clifford_fixed_point", None),
    ("clifract.lift", "residual", "lift.residual", None),
    ("clifract.lift", "clifford_empirical_gamma", "lift.clifford_empirical_gamma", None),
    ("clifract.lift", "pointwise_conj", "lift.pointwise_conj", None),
    ("clifract.lift", "pointwise_product", "lift.pointwise_product", None),
    ("clifract.algebra", "mv_mul", "algebra.mv_mul", _mv_mul_attrs),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = None
                if hook is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = hook(bound.arguments, result)
                self.close(index, attrs)

        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the span names whose function is gone."""
        missing = []
        for module_name, attr, span_name, hook in targets:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                missing.append(span_name)
                continue
            wrapper = self._wrap(original, span_name, hook)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "") or "").startswith("clifract") and getattr(
                    module, attr, None
                ) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def select(spans: list[Span], runs) -> list[Span]:
    """The spans of the given runs, with parent links renumbered."""
    keep = [i for i, span in enumerate(spans) if span.run in runs]
    new_index = {old: new for new, old in enumerate(keep)}
    return [
        Span(spans[i].name, spans[i].start, spans[i].end, new_index.get(spans[i].parent),
             spans[i].run, spans[i].attrs)
        for i in keep
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], missing: list[str], extra: dict[str, tuple]) -> dict:
    """Per-layer metrics from the spans; metrics that need a missing span are left out.

    `extra` maps further metric names to (value, unit) pairs measured elsewhere.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, []))

    def mv_mul_s(n):
        return sum(selfs[i] for i in by_name.get("algebra.mv_mul", []) if spans[i].attrs.get("n") == n)

    mv_total = self_s("algebra.mv_mul")
    macs = sum(4 ** spans[i].attrs["n"] for i in by_name.get("algebra.mv_mul", []))
    blade_solves = sum(
        1
        for i in by_name.get("engine.fixed_point", [])
        if spans[i].parent is not None and spans[spans[i].parent].name == "lift.clifford_fixed_point"
    )
    updates = ("engine.fixed_point", "engine.rb_apply", "engine.empirical_gamma")
    # metric -> (span names it needs, value, unit)
    table = {
        "config.load_s": (("config.load",), self_s("config.load"), "s"),
        "config.build_s": (("config.build",), self_s("config.build"), "s"),
        "engine.gate_s": (("engine.gate",), self_s("engine.gate"), "s"),
        "engine.fixed_point_s": (("engine.fixed_point",), self_s("engine.fixed_point"), "s"),
        "engine.fixed_point_calls": (("engine.fixed_point",), calls("engine.fixed_point"), "count"),
        "engine.iterations": (("engine.fixed_point",), attr_sum("engine.fixed_point", "iterations"), "count"),
        "engine.point_updates": (updates, sum(attr_sum(n, "point_updates") for n in updates), "count"),
        "engine.empirical_gamma_s": (("engine.empirical_gamma",), self_s("engine.empirical_gamma"), "s"),
        "engine.rb_apply_s": (("engine.rb_apply",), self_s("engine.rb_apply"), "s"),
        "engine.rb_apply_calls": (("engine.rb_apply",), calls("engine.rb_apply"), "count"),
        "lift.clifford_fixed_point_s": (
            ("lift.clifford_fixed_point",), self_s("lift.clifford_fixed_point"), "s"),
        "lift.blade_solves": (("lift.clifford_fixed_point", "engine.fixed_point"), blade_solves, "count"),
        "lift.residual_s": (("lift.residual",), self_s("lift.residual"), "s"),
        "lift.clifford_empirical_gamma_s": (
            ("lift.clifford_empirical_gamma",), self_s("lift.clifford_empirical_gamma"), "s"),
        "lift.pointwise_conj_s": (("lift.pointwise_conj",), self_s("lift.pointwise_conj"), "s"),
        "lift.pointwise_product_s": (("lift.pointwise_product",), self_s("lift.pointwise_product"), "s"),
        "cli.self_s": (("cli.main",), self_s("cli.main"), "s"),
        "algebra.mv_mul_n10_s": (("algebra.mv_mul",), mv_mul_s(10), "s"),
        "algebra.mv_mul_n11_s": (("algebra.mv_mul",), mv_mul_s(11), "s"),
        "algebra.mv_mul_macs_per_s": (("algebra.mv_mul",), macs / mv_total if mv_total else 0.0, "1/s"),
    }
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (needs, value, unit) in table.items()
        if not set(needs) & set(missing)
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics
