"""clifract benchmark: end-to-end timings of solve/check/eval and the library,
plus a separate traced run for per-layer self times and counts.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

With --trace 0 it runs one untimed warm-up child, then repeats rounds of the
workload's operations as child processes while a round of the median length
still fits in --seconds, and reports medians.  With --trace 1 it runs the
operations once untraced and once traced inside a fresh interpreter each.
Every output is checked against the oracle in oracle.py.  The last stdout
line is the JSON result; the line before it holds the full report (samples,
environment), which is also kept under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from subprocess import DEVNULL, Popen

import numpy as np

import gen
import spans
from oracle import (
    OutputError,
    check_eval_output,
    check_gate_output,
    check_library_solve,
    check_mv_mul,
    check_pointwise,
    check_solution_csv,
)
from session import CLI_OPS, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUPS_PER_ROUND = 3
CHILD_TIMEOUT_S = 170
SETUP_CODE = (
    "import sys, clifract\n"
    "from clifract.config import build_problem, load_config\n"
    "setup = build_problem(load_config(sys.argv[1]))\n"
    "print(setup.partition.size, setup.config.n)\n"
)
MB = 1 << 20
# One point update reads the gathered value, q and s and writes the result.
BYTES_PER_POINT_UPDATE = 4 * 8


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


def run_child(argv: list[str], work: Path, name: str) -> Child:
    """Run one child to completion; wall time from spawn to reap, peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CLIFRACT_OUTPUT_DIR", None)
    out_path = work / f"{name}.out"
    with open(out_path, "w") as out, open(work / f"{name}.err", "w") as err:
        start = time.perf_counter()
        proc = Popen(argv, stdout=out, stderr=err, stdin=DEVNULL, env=env, cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss * 1024 / MB, proc.returncode, out_path.read_text())


class Tally:
    """Operations attempted and failed; a failure is never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, float] = {}
        self.failures: list[str] = []

    def check(self, op: str, code: int, verify) -> None:
        self.attempted += 1
        try:
            if code != 0:
                raise OutputError(f"exit code {code}")
            err = verify()
        except (OutputError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.failures.append(f"{op}: {exc}")
            return
        if err is not None:
            self.errors[op] = max(self.errors.get(op, 0.0), err)


def _load_config(entry: dict) -> dict:
    return json.loads(Path(entry["config_path"]).read_text())


def setup_samples(entry: dict, work: Path, tally: Tally, count: int = SETUPS_PER_ROUND) -> list[float]:
    config = _load_config(entry)
    expected = f"{len(config['fif']['x']) - 1} {config['n']}"
    walls = []
    for k in range(count):
        child = run_child([sys.executable, "-c", SETUP_CODE, entry["config_path"]], work, f"setup{k}")

        def verify(child=child):
            if child.stdout.split() != expected.split():
                raise OutputError(f"setup printed {child.stdout.strip()!r}, expected {expected!r}")

        tally.check("setup", child.code, verify)
        walls.append(child.wall_s)
    return walls


def clear_outputs(work: Path) -> None:
    """Remove earlier outputs so a failed operation cannot pass on stale files."""
    for name in ("solution.csv", "library.npz", *(f"{op}.{ext}" for op in CLI_OPS for ext in ("out", "code"))):
        (work / name).unlink(missing_ok=True)


def cli_round(entry: dict, work: Path, tally: Tally) -> dict:
    clear_outputs(work)
    # One set-up sample before each operation spreads them over the round,
    # since the machine's speed changes within a round.
    setup, children = [], {}
    for op in CLI_OPS:
        setup += setup_samples(entry, work, tally, count=1)
        children[op] = run_child([sys.executable, "-m", "clifract", *cli_args(op, entry, work)], work, op)
    check_cli(entry, work, {op: child.code for op, child in children.items()}, tally)
    walls = {f"{op}_s": [child.wall_s] for op, child in children.items()}
    return {
        "setup_s": setup,
        "pipeline_s": [sum(child.wall_s for child in children.values())],
        "peak_rss_mb": [max(child.rss_mb for child in children.values())],
        **walls,
    }


def check_cli(entry: dict, work: Path, codes: dict[str, int], tally: Tally) -> None:
    """Check the solution file and the stdout (`<op>.out`) of solve, check and eval."""
    config = _load_config(entry)

    def out(op):
        return (work / f"{op}.out").read_text()

    tally.check("solve", codes["solve"],
                lambda: check_solution_csv(work / "solution.csv", config, entry["oracle_indices"]))
    tally.check("check", codes["check"], lambda: check_gate_output(out("check"), config))
    tally.check("eval", codes["eval"], lambda: check_eval_output(out("eval"), config, entry["eval_points"]))


def session_child(entry_name: str, manifest: Path, work: Path, traced: bool) -> tuple[Child, dict]:
    out = work / f"session{int(traced)}.json"
    out.unlink(missing_ok=True)
    clear_outputs(work)
    argv = [
        sys.executable, str(HERE / "session.py"), "--manifest", str(manifest),
        "--workload", entry_name, "--work", str(work), "--trace", str(int(traced)), "--out", str(out),
    ]
    child = run_child(argv, work, f"session{int(traced)}")
    result = json.loads(out.read_text()) if child.code == 0 and out.exists() else {}
    return child, result


def check_session(entry: dict, work: Path, child: Child, tally: Tally) -> None:
    """Check the outputs an in-process session left in the work directory."""
    config = _load_config(entry)
    if entry["kind"] == "library":
        try:
            with np.load(work / "library.npz") as data:
                samples = dict(data)
        except (OSError, ValueError):
            samples = {}  # every check below then fails on its missing key
        tally.check("solve", child.code,
                    lambda: check_library_solve(samples, config, entry["oracle_indices"]))
        tally.check("pointwise", child.code, lambda: check_pointwise(samples))
        for n in (10, 11):
            tally.check(f"mv_mul_n{n}", child.code, lambda n=n: check_mv_mul(samples, n))
        return

    def code(op):
        path = work / f"{op}.code"
        return int(path.read_text()) if child.code == 0 and path.exists() else 1

    check_cli(entry, work, {op: code(op) for op in CLI_OPS}, tally)


def library_round(name: str, entry: dict, manifest: Path, work: Path, tally: Tally) -> dict:
    setup = setup_samples(entry, work, tally)
    child, result = session_child(name, manifest, work, traced=False)
    check_session(entry, work, child, tally)
    walls = result.get("walls", {})
    if not walls:
        return {"setup_s": setup}
    return {
        "setup_s": setup,
        "pipeline_s": [sum(walls.values())],
        "peak_rss_mb": [child.rss_mb],
        **{f"{op}_s": [wall] for op, wall in walls.items()},
    }


# The end-to-end metrics; the per-operation times stay in the report.
UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def end_to_end(name: str, entry: dict, manifest: Path, work: Path, seconds: float, tally: Tally):
    # Warm-up, untimed and unchecked: writes the bytecode caches and fills the page cache.
    run_child([sys.executable, "-c", SETUP_CODE, entry["config_path"]], work, "warmup")
    samples: dict[str, list[float]] = {}
    round_walls: list[float] = []
    start = time.perf_counter()
    # Another round starts only if a round of the median length still fits in
    # --seconds, so a run ends near the deadline however long its rounds are.
    while not round_walls or time.perf_counter() - start + statistics.median(round_walls) <= seconds:
        round_start = time.perf_counter()
        if entry["kind"] == "cli":
            got = cli_round(entry, work, tally)
        else:
            got = library_round(name, entry, manifest, work, tally)
        round_walls.append(time.perf_counter() - round_start)
        for metric, values in got.items():
            samples.setdefault(metric, []).extend(values)
    rounds = len(round_walls)
    metrics = {
        metric: {"value": statistics.median(samples[metric]), "unit": unit}
        for metric, unit in UNITS.items()
        if metric in samples
    }
    summary = {
        metric: {"median": statistics.median(v), "max": max(v), "n": len(v), "samples": v}
        for metric, v in samples.items()
    }
    return metrics, {"rounds": rounds, "measured_s": time.perf_counter() - start, "metrics": summary}


def traced(name: str, entry: dict, manifest: Path, work: Path, tally: Tally):
    plain_child, plain = session_child(name, manifest, work, traced=False)
    check_session(entry, work, plain_child, tally)
    traced_child, result = session_child(name, manifest, work, traced=True)
    check_session(entry, work, traced_child, tally)
    span_list = [spans.Span(**s) for s in result.get("spans", [])]
    solution = work / "solution.csv"
    extra = {
        "cli.output_bytes": (solution.stat().st_size if solution.exists() else 0, "bytes"),
    }
    if plain.get("wall_s") and result.get("wall_s"):
        extra["trace.overhead_frac"] = (result["wall_s"] / plain["wall_s"] - 1.0, "fraction")
    missing = result.get("missing", [])
    # For CLI workloads the metrics describe the traced solve, the whole
    # pipeline; check and eval are broken out by command in the report.
    runs = result.get("runs", [])
    metric_runs = [0] if entry["kind"] == "cli" else range(len(runs))
    metrics = spans.layer_metrics(spans.select(span_list, metric_runs), missing, extra)
    by_command = {
        op: {
            metric: value["value"]
            for metric, value in spans.layer_metrics(spans.select(span_list, [run]), missing, {}).items()
            if value["value"]
        }
        for run, op in enumerate(runs)
    }
    updates = metrics.get("engine.point_updates", {}).get("value")
    detail = {
        "missing": missing,
        "computed_bytes_moved": None if updates is None else updates * BYTES_PER_POINT_UPDATE,
        "by_command": by_command,
        "untraced_walls": plain.get("walls", {}),
        "traced_walls": result.get("walls", {}),
        "spans": result.get("spans", []),
    }
    return metrics, detail


def _cache_bytes() -> dict[str, int]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def environment(entry: dict) -> dict:
    config = _load_config(entry)
    caches = _cache_bytes()
    components = 1 if config["n"] == 0 else 1 << config["n"]
    array_bytes = (config["grid_M"] + 1) * 8
    working_set = components * array_bytes
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cache_bytes": caches,
        "array_bytes": array_bytes,
        "working_set_bytes": working_set,
        "array_over_cache": {level: array_bytes / size for level, size in caches.items()},
        "working_set_over_cache": {level: working_set / size for level, size in caches.items()},
        "src.lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "notes": [
            "engine.point_updates is computed, not measured: operator applications x (grid_M+1),"
            " with applications read from the iteration counts and the call arguments",
            "computed_bytes_moved (traced runs) is computed, not measured:"
            f" {BYTES_PER_POINT_UPDATE} bytes per point update, ignoring cache misses",
            "load is one process at a time; children inherit the environment, with"
            " PYTHONPATH pointing at this checkout's src",
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "clifract" / "__init__.py").is_file():
        print(f"error: no clifract sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        manifest = gen.write_inputs(args.seed, work / "inputs")
        manifest_path = work / "inputs" / "manifest.json"
        entry = manifest["workloads"][args.workload]
        tally = Tally()
        if args.trace:
            metrics, detail = traced(args.workload, entry, manifest_path, work, tally)
        else:
            metrics, detail = end_to_end(args.workload, entry, manifest_path, work, args.seconds, tally)
        report = {
            "workload": args.workload,
            "why": entry["why"],
            "seed": args.seed,
            "trace": args.trace,
            "fail_frac": tally.failed / max(tally.attempted, 1),
            "failures": tally.failures,
            "oracle_max_error": tally.errors,
            "environment": environment(entry),
            **detail,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    report.pop("spans", None)
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
