"""The worker pool: same bits and bytes on any CPU count, joined threads, errors in block order."""

import contextlib
import io
import json
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from clifract import (
    CliffordGridFunction,
    CliffordRBParams,
    ConvergenceError,
    GridFunction,
    clifford_fixed_point,
    from_knots,
    pointwise_product,
    uniform_partition,
)
from clifract import _pool, algebra, cli
from clifract.cli import main

CPUS = [1, 2, 3, 4]
# Knots whose tiles miss every grid, so the lifted solve runs one Banach loop per row.
SKEWED = [0.0, 0.3, 0.7, 1.0]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(_pool, "_cpus", lambda: count)


@contextlib.contextmanager
def _no_thread_left():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def _full_function(n, points, rng):
    part = uniform_partition(0.0, 1.0, 2)
    rows = rng.standard_normal((1 << n, points))
    return CliffordGridFunction(n, part, points - 1, {m: GridFunction(part, row) for m, row in enumerate(rows)})


def _interpolating_problem(n, q_of_mask):
    """CliffordRBParams on SKEWED with a constant q per blade (q_of_mask(mask) on every tile)."""
    q = {mask: q_of_mask(mask) for mask in range(1 << n)}
    return CliffordRBParams(n, from_knots(SKEWED), (q,) * 3, (0.5, -0.4, 0.3))


# ---------------------------------------------------------------------------
# the helper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", CPUS)
def test_the_map_keeps_block_order_and_its_window(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    taken, consumed = [], []

    class Blocks:
        """Blocks 0..22, a sized sequence that records each block taken."""

        def __len__(self):
            return 23

        def __iter__(self):
            for k in range(23):
                # At most 2 * workers blocks are taken and not yet consumed.
                assert k + 1 - len(consumed) <= 2 * cpus
                taken.append(k)
                yield k

    with _no_thread_left():
        for result in _pool.ordered_map(lambda k: k * k, Blocks()):
            consumed.append(result)
    assert consumed == [k * k for k in range(23)]
    assert taken == list(range(23))


def test_one_worker_runs_in_the_calling_thread(monkeypatch):
    _cpus(monkeypatch, 4)
    threads = []
    with _no_thread_left():
        list(_pool.ordered_map(lambda k: threads.append(threading.current_thread()), range(1)))
    _cpus(monkeypatch, 1)
    list(_pool.ordered_map(lambda k: threads.append(threading.current_thread()), range(5)))
    assert threads == [threading.current_thread()] * 6


@pytest.mark.parametrize("cpus", [2, 4])
def test_the_first_failure_in_block_order_is_raised_and_every_thread_joined(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    late_failure = threading.Event()

    def work(k):
        if k == 5:
            late_failure.set()
            raise KeyError(k)
        if k == 2:
            # Block 5 fails first in time; block 2 is still the one raised.
            late_failure.wait(timeout=10)
            raise ValueError(k)
        return k

    with _no_thread_left(), pytest.raises(ValueError, match="2"):
        list(_pool.ordered_map(work, range(9)))


def test_a_map_closed_early_joins_its_threads(monkeypatch):
    _cpus(monkeypatch, 3)
    with _no_thread_left():
        results = _pool.ordered_map(lambda k: k, range(100))
        assert [next(results) for _ in range(4)] == [0, 1, 2, 3]
        results.close()


def test_the_map_survives_more_threads_than_cores_and_fast_switching(monkeypatch):
    _cpus(monkeypatch, 3 * (os.cpu_count() or 1) + 1)
    interval = sys.getswitchinterval()
    got = []
    runner = threading.Thread(target=lambda: got.extend(_pool.ordered_map(lambda k: (k, k * k), range(400))))
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [(k, k * k) for k in range(400)]


class _Buffers:
    """A scratch maker that records, per thread, the set it made and the blocks it ran,
    and fails a call whose set another running call holds.  Blocks 5 and 7 fail;
    with `threads`, block 7 fails first in time."""

    def __init__(self, threads=False):
        self.lock, self.late_failure = threading.Lock(), threading.Event()
        self.made, self.ran, self.busy, self.threads = {}, {}, set(), threads

    def make(self, block):
        thread = threading.current_thread()
        with self.lock:
            assert thread not in self.made
            self.made[thread] = block
        return [thread]

    def fn(self, block, buffers):
        with self.lock:
            assert buffers[0] is threading.current_thread() and id(buffers) not in self.busy
            self.busy.add(id(buffers))
            self.ran.setdefault(buffers[0], []).append(block)
        time.sleep(1e-4)  # so that the calls of different threads overlap
        with self.lock:
            self.busy.remove(id(buffers))
        if block == 7:
            self.late_failure.set()
            raise KeyError(block)
        if block == 5:
            if self.threads:
                self.late_failure.wait(timeout=10)
            raise ValueError(block)
        return block * block


@pytest.mark.parametrize("cpus", CPUS)
def test_each_thread_makes_one_set_of_buffers_from_its_first_block(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    buffers = _Buffers()
    with _no_thread_left():
        results = list(_pool.ordered_map(buffers.fn, range(5), buffers.make))
    assert results == [k * k for k in range(5)]
    assert buffers.made == {thread: blocks[0] for thread, blocks in buffers.ran.items()}
    assert sorted(k for blocks in buffers.ran.values() for k in blocks) == list(range(5))
    if cpus == 1:
        assert list(buffers.made) == [threading.current_thread()]
    else:
        assert threading.current_thread() not in buffers.made and len(buffers.made) <= cpus

    buffers = _Buffers(threads=cpus > 1)
    with _no_thread_left(), pytest.raises(ValueError, match="5"):
        list(_pool.ordered_map(buffers.fn, range(40), buffers.make))
    assert buffers.made == {thread: blocks[0] for thread, blocks in buffers.ran.items()}

    buffers = _Buffers()
    with _no_thread_left():
        results = _pool.ordered_map(buffers.fn, range(40), buffers.make)
        assert [next(results) for _ in range(3)] == [0, 1, 4]
        results.close()
    assert buffers.made == {thread: blocks[0] for thread, blocks in buffers.ran.items()}
    assert len(buffers.made) <= cpus


# ---------------------------------------------------------------------------
# the layers: bits and bytes on any CPU count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_pooled_products_are_bit_equal_on_any_cpu_count(monkeypatch, n, rng):
    d = algebra._rep_dim(n)
    points = 3 * ((1 << 14) // (d * d)) + 1  # three full blocks of the matrix path and one point
    f, g = _full_function(n, points, rng), _full_function(n, points, rng)
    products = []
    for cpus in CPUS:
        _cpus(monkeypatch, cpus)
        with _no_thread_left():
            products.append(pointwise_product(f, g))
    assert (1 << n) ** 2 >= 16 * d * d + 512  # the matrix path
    for product in products[1:]:
        assert product.masks == products[0].masks
        assert np.array_equal(product.values.view(np.uint64), products[0].values.view(np.uint64))


def test_interpolating_rows_are_bit_equal_on_any_cpu_count(monkeypatch):
    params = _interpolating_problem(2, lambda mask: (-1.0) ** mask * (mask + 0.5))
    results = []
    for cpus in CPUS:
        _cpus(monkeypatch, cpus)
        with _no_thread_left():
            results.append(clifford_fixed_point(params, 1000, tol=1e-12))
    first = results[0]
    assert len(first.function.masks) == 4
    for result in results[1:]:
        assert np.array_equal(result.function.values.view(np.uint64), first.function.values.view(np.uint64))
        assert dict(result.iterations) == dict(first.iterations)
        assert result.error_bound == first.error_bound


def _cli_config(tmp_path, n):
    rng = np.random.default_rng(n)
    keys = ["value"] if n == 0 else [algebra.blade_key(mask) for mask in range(1 << n)]
    y = rng.standard_normal(len(SKEWED)).tolist() if n == 0 else {key: rng.standard_normal(4).tolist() for key in keys}
    payload = {
        "schema_version": 1,
        "n": n,
        "grid_M": 600,
        "fif": {"x": SKEWED, "y": y},
        "s": [0.5, -0.4, 0.3],
        "space": {"tag": "Lp", "p": 2},
    }
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps(payload))
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("n", [0, 4])
def test_solve_and_eval_bytes_do_not_depend_on_the_cpus(tmp_path, monkeypatch, n):
    config = _cli_config(tmp_path, n)
    monkeypatch.setattr(cli, "_CELL_CAP", 256)  # several writer blocks on every CPU count
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 1 << 12)  # several reader chunks
    files, evals = [], []
    for cpus in CPUS:
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}.csv"
        with _no_thread_left():
            assert _run(["solve", str(config), "--output", str(out)])[0] == 0
            evals.append(_run(["eval", str(out), "--at", "0,0.1,0.3,0.45,0.7,0.999,1"]))
        files.append(out.read_bytes())
    assert files[0].count(b"\r\n") == 602
    assert evals[0][0] == 0
    assert files == [files[0]] * len(CPUS)
    assert evals == [evals[0]] * len(CPUS)


# ---------------------------------------------------------------------------
# errors, errstate and warnings in the workers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", CPUS)
def test_the_lowest_failing_row_is_named(monkeypatch, cpus):
    # Rows 2 and 5 start 1e12 times further from their fixed points than the rest.
    params = _interpolating_problem(3, lambda mask: 1e12 if mask in (2, 5) else 1.0)
    _cpus(monkeypatch, cpus)
    with warnings.catch_warnings(), _no_thread_left():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="component '2': no convergence after 60") as excinfo:
            clifford_fixed_point(params, 200, tol=1e-10, max_iter=60)
    assert excinfo.value.row == 2
    # Every other row converges within that budget.
    clifford_fixed_point(_interpolating_problem(3, lambda mask: 1.0), 200, tol=1e-10, max_iter=60)


@pytest.mark.parametrize("cpus", [2, 4])
def test_an_overflowing_row_raises_in_its_worker_without_a_warning(monkeypatch, cpus):
    params = _interpolating_problem(2, lambda mask: 1.7976931348623157e308 if mask == 3 else 1.0)
    _cpus(monkeypatch, cpus)
    with warnings.catch_warnings(), _no_thread_left():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="component '12'.*overflows"):
            clifford_fixed_point(params, 200, tol=1e-10, max_iter=10**6)


@pytest.mark.parametrize("cpus", [2, 4])
def test_the_callers_errstate_holds_in_the_product_workers(monkeypatch, cpus):
    # 129 points of n = 9 are three blocks of the matrix path.
    part = uniform_partition(0.0, 1.0, 2)
    f = CliffordGridFunction(9, part, 128, {m: GridFunction(part, np.full(129, 1e200)) for m in range(512)})
    _cpus(monkeypatch, cpus)
    with _no_thread_left(), np.errstate(all="raise"), pytest.raises(FloatingPointError):
        pointwise_product(f, f)
    # Ignored in the caller, ignored in the workers: no RuntimeWarning, only the check of the result.
    with warnings.catch_warnings(), _no_thread_left():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            pointwise_product(f, f)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_failed_write_exits_2_and_joins_the_writer(tmp_path, monkeypatch, cpus):
    config = _cli_config(tmp_path, 4)
    monkeypatch.setattr(cli, "_CELL_CAP", 256)
    _cpus(monkeypatch, cpus)
    with _no_thread_left():
        code, _, err = _run(["solve", str(config), "--output", "/dev/full", "--quiet"])
    assert code == 2
    assert err.startswith("config error: output: cannot write /dev/full")


# ---------------------------------------------------------------------------
# the writer's memory
# ---------------------------------------------------------------------------


def _writer_output(n, blocks):
    """x, names and 2^n columns for `blocks` full writer blocks and a one-row block."""
    rng = np.random.default_rng(n)
    rows = blocks * (cli._CELL_CAP // (1 + (1 << n))) + 1
    columns = [rng.standard_normal(rows) for _ in range(1 << n)]
    names = ["value"] if n == 0 else [algebra.blade_key(mask) for mask in range(1 << n)]
    return np.linspace(0.0, 1.0, rows), names, columns


@pytest.mark.parametrize("n", [0, 4])
def test_the_writer_cuts_the_same_blocks_on_any_cpu_count(tmp_path, monkeypatch, n):
    xs, names, columns = _writer_output(n, 3)
    assert xs.size * (1 + len(columns)) > 1 << 16
    formatted, blocks, shapes = cli._csv_block, [], {}

    def recording(cells, sc):
        blocks.append((float(cells[0, 0]), cells.shape))  # (its first x, its shape)
        return formatted(cells, sc)

    monkeypatch.setattr(cli, "_csv_block", recording)
    for cpus in CPUS:
        _cpus(monkeypatch, cpus)
        blocks.clear()
        cli._write_solution(tmp_path / "out.csv", "csv", xs, names, columns)
        shapes[cpus] = sorted(blocks)
    step = cli._CELL_CAP // (1 + len(columns))
    assert shapes[1] == [(float(xs[lo]), (min(step, xs.size - lo), 1 + len(columns))) for lo in range(0, xs.size, step)]
    assert all(shapes[cpus] == shapes[1] for cpus in CPUS)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 4])
def test_the_writer_peaks_at_a_block_per_worker(tmp_path, monkeypatch, n, cpus):
    """The CSV writer's traced peak is at most 200 bytes a cell of `_CELL_CAP` a worker, on
    outputs of 8 and 32 blocks: no temporary grows with the output.

    Each worker holds one set of scratch arrays, 116 bytes a cell of its block
    (`_CsvScratch`), and the block's bytes; the results waiting to be written add a
    few blocks' bytes, 137-166 bytes a cell a worker in all (measured here).  Like the
    reader test, this sees numpy's buffers only, not what the malloc arenas keep.
    """
    _cpus(monkeypatch, cpus)
    for blocks in (8, 32):
        xs, names, columns = _writer_output(n, blocks)
        tracemalloc.start()
        try:
            cli._write_solution(tmp_path / "out.csv", "csv", xs, names, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * cpus * cli._CELL_CAP


# ---------------------------------------------------------------------------
# the reader's memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_reader_peaks_at_its_matrix_and_a_few_chunks_per_worker(tmp_path, monkeypatch, cpus):
    """The CSV reader's traced peak is its matrix plus 20 `_CHUNK_BYTES` per worker,
    at two body lengths: no temporary grows with the body.

    Each worker holds one set of scratch arrays sized for the largest chunk, its
    chunk buffer included, 11.5-13.4 chunk sizes with the reader's fixed tables
    (measured here on n = 0 solve output).  tracemalloc sees numpy's buffers
    only, not the pages each worker's malloc arena keeps once they are freed,
    which RSS counts.
    """
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 1 << 14)
    monkeypatch.setattr(_pool, "_cpus", lambda: cpus)
    rng = np.random.default_rng(0)
    for rows in (1 << 14, 1 << 16):
        path = tmp_path / f"{rows}.csv"
        cli._write_solution(path, "csv", np.arange(rows) / rows, ["value"], [rng.standard_normal(rows)])
        assert path.stat().st_size > 32 * cli._CHUNK_BYTES
        tracemalloc.start()
        try:
            matrix = cli._read_csv_body(path, len(b"x,value\r\n"), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (rows, 2)
        assert peak <= matrix.nbytes + 20 * cpus * cli._CHUNK_BYTES
