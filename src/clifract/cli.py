"""Command line front end: solve problems, check contraction gates, read solutions.

Commands:
  solve <config>            iterate to the fixed point and export samples
  check <config>            print the gate constants and the observed factor
  eval <solution> --at ...  look up solution values, interpolating off-grid

Exit codes: 0 success (for check: configured gate < 1), 1 failed gate check,
2 configuration errors (an unwritable solve output included), 3 gate >= 1
on solve, no sup-norm certificate, or non-convergence.  CSV output follows
RFC 4180 with floats at 17 significant digits; identical configs and
seeds produce byte-identical files.  Every CSV cell is the bytes of
`'%.17g' % v`, as in earlier versions, made in numpy blocks from one
np.longdouble product per cell; the few cells that product cannot settle
go through Python's `%.17g` (see `_csv_block`).  eval reads such a body
back exactly, each value `float(cell)`, with a numpy parser, and any other
CSV with np.loadtxt (see `_read_csv_body`).  The CSV writer's blocks and the
parser's chunks run on one thread per CPU (`_pool.ordered_map`), with the
same bytes on any CPU count; each thread fills one set of buffers, which
the pool has it make once per command, for the first block it takes or for
the largest chunk (`_CsvScratch`, `_ParseScratch`), and each thread reads
its chunks into its own buffer.
CLIFRACT_OUTPUT_DIR, when set, anchors relative output paths.  With
--quiet, solve and check skip the random contraction probe and the
residual, which only their reports print; check --quiet reads the gate
alone and builds no plan.  A command builds at most one operator plan, and
its solve, probe and residual all read it; a plan whose q or s values are
not finite on the grid is a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import threading
import warnings
from contextlib import closing
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import _pool
from .algebra import blade_key
from .config import MAX_GRID_CELLS, ConfigError, ProblemSetup, build_problem, load_config
from .engine import _SPACES, ConvergenceError, SpaceSpec, _probe, gamma_gate
from .lift import _clifford_fixed_point, _residual

__all__ = ["main"]

OUTPUT_DIR_ENV = "CLIFRACT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

# Cells per block of the solution writers, on any CPU count.  A CSV worker's buffers hold
# 116 bytes a cell (`_CsvScratch`); 2^15 cells was the fastest block on one CPU and on two.
_CELL_CAP = 1 << 15
# The CSV digit step needs np.longdouble to carry at least a 64-bit significand.
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
# For 0 <= k <= 27, 10^k is exact in 64 bits, and so is m * 10^k for an odd m <= this bound.
_EXACT_LIMIT = np.array([(2**64 - 1) // 5**k for k in range(28)], dtype=np.uint64)
# The most cells a solution body may hold: (grid_M + 1) rows of 1 + 2^n cells,
# with (grid_M + 1) * 2^n <= MAX_GRID_CELLS, so eval allocates no more.
_MAX_BODY_CELLS = 2 * MAX_GRID_CELLS
# A JSON solution takes at most this many bytes a cell, plus 3 for its brackets: a row
# of x and the two blades of n = 1, all 24-byte floats, is 138 bytes; other n take fewer.
_JSON_CELL_BYTES = 46
# The CSV reader takes the body in reads of this many bytes, cut back to the last row end.
# A worker's buffers take about 12x the largest chunk's bytes, so this bounds the reader's memory.
_CHUNK_BYTES = 1 << 18
# Cells per gather of their mantissa bytes: the gather's 24-byte-a-cell result, 96 KiB,
# stays below glibc's usual 128 KiB mmap threshold, so it reuses freed heap memory.
_GATHER = 1 << 12
# Bytes before each chunk: '0's, then an LF that starts its first row, so that
# the three 8-byte loads ending at a mantissa's last digit stay in the buffer.
_PAD = 24
# The most tokens a cell of `_GRAMMAR` holds: sign, dot, `e`, exponent sign and its end.
_MAX_TOKENS = 5
# Token classes of the bytes that are not digits: any other byte is _BAD.
_SEP, _CR, _LF, _NEG, _DOT, _EXP, _SIGN, _BAD = range(8)
_TOKEN = np.full(256, _BAD, np.uint8)
_TOKEN[[44, 13, 10, 45, 46, 101, 43]] = _SEP, _CR, _LF, _NEG, _DOT, _EXP, _SIGN
# Masks of the three 8-digit groups of a mantissa with min(d, 24) digits, in address order
# (group 2 first), as one 24-byte row: group g keeps its bytes t >= 8g + 8 - d.
_KEEP = np.array(
    [[0x0F0F0F0F0F0F0F0F << 8 * min(max(8 * g + 8 - d, 0), 8) & 2**64 - 1 for g in (2, 1, 0)] for d in range(25)],
    dtype="<u8",
).view("V24").ravel()
# r * _INNER and r * _OUTER bracket every value within 2^-63 relative of r (see _parse_chunk).
_INNER = 1 - np.ldexp(np.longdouble(1), -62)
_OUTER = 1 + np.ldexp(np.longdouble(1), -62)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifract",
        description="Clifford-valued fractal interpolation solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem config and export the fixed point")
    solve.add_argument("config", help="path to a JSON problem config")
    solve.add_argument("--output", help="output file path (default: <config stem>.out.<format>)")
    solve.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    solve.add_argument("--quiet", action="store_true", help="suppress the solve report")
    solve.set_defaults(handler=_cmd_solve)

    check = sub.add_parser("check", help="evaluate the contraction gates for a config")
    check.add_argument("config", help="path to a JSON problem config")
    check.add_argument("--quiet", action="store_true", help="print only the verdict line")
    check.set_defaults(handler=_cmd_check)

    ev = sub.add_parser("eval", help="evaluate an exported solution at given points")
    ev.add_argument("solution", help="solution file written by solve (csv or json)")
    ev.add_argument("--at", required=True, help="comma-separated x values")
    ev.set_defaults(handler=_cmd_eval)
    return parser


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _resolve_output(args, setup: ProblemSetup, fmt: str) -> Path:
    out_cfg = setup.config.output or {}
    raw = args.output or out_cfg.get("path") or f"{Path(args.config).stem}.out.{fmt}"
    path = Path(raw)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _finite_plan(setup: ProblemSetup):
    """The command's one operator plan, with the support's q rows; ConfigError, naming
    q[i] or s[i] for the tile i that `locate` gives the first grid point whose q or s values are not finite.

    No gate reads q, and a field may overflow on the grid: such values would
    reach the solve or the probe as inf or nan.
    """
    params, grid_m = setup.params, setup.config.grid_m
    plan = params._plan(grid_m, params.support)
    finite = np.isfinite(plan.s_vals)
    finite &= np.isfinite(plan.q_vals).all(axis=0)
    if not finite.all():
        j = int(np.argmin(finite))  # the first grid point with a value that is not finite
        i = params.partition.locate(params.partition.grid(grid_m)[j])
        name = "s" if not math.isfinite(plan.s_vals[j]) else "q"
        raise ConfigError(f"{name}[{i}]", "values not finite on the grid")
    return plan


def _config_probe(plan, cfg) -> float:
    """The seeded random contraction probe of the problem's operator, on its plan.

    At n = 0 the probe applies the operator with its q, row 0 of the plan, as
    the scalar probe always has; the lifted probe applies the linear part
    alone, which the factor allows.  The two round differently in the last
    bit, either way round depending on the problem, so each kind of config
    keeps the probe it has always printed.
    """
    return _probe(plan, cfg.trials, cfg.seed, row=0 if cfg.n == 0 else None)


def _cmd_solve(args) -> int:
    setup = build_problem(load_config(args.config))
    cfg = setup.config
    params = setup.params
    gate = gamma_gate(cfg.space, params)

    if not gate < 1.0:
        print(
            f"gate failed: gamma[{cfg.space.tag}] = {_fmt(gate)} >= 1; no output written",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    fmt = args.format or (cfg.output or {}).get("format") or "csv"
    out_path = _resolve_output(args, setup, fmt)

    plan = _finite_plan(setup)
    try:
        result = _clifford_fixed_point(params, plan, cfg.tol, cfg.max_iter)
    except ConvergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    psi = result.function
    if args.quiet:
        del plan  # only the report reads the plan; the write runs without it

    # One column per blade: stack rows, and one shared zero row for absent blades.
    # The one blade of an n = 0 solution keeps the column name `value`.
    names = [blade_key(mask) for mask in range(1 << psi.n)] if psi.n else ["value"]
    rows, zero = dict(zip(psi.masks, psi.values)), np.zeros(psi.grid_m + 1)
    columns = [rows.get(mask, zero) for mask in range(1 << psi.n)]
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_solution(out_path, fmt, psi.partition.grid(psi.grid_m), names, columns)
    except OSError as exc:
        raise ConfigError("output", f"cannot write {out_path}: {exc}") from exc

    if not args.quiet:
        print(f"iterations: {max(result.iterations.values(), default=1)}")
        print(f"gamma[{cfg.space.tag}]: {_fmt(gate)}")
        print(f"empirical gamma: {_fmt(_config_probe(plan, cfg))}")
        print(f"residual: {_fmt(_residual(plan, psi.values))}")
        print(f"output: {out_path}")
    return EXIT_OK


def _write_solution(
    path: Path, fmt: str, xs: np.ndarray, names: list[str], columns: list[np.ndarray]
) -> None:
    """Write one row per grid point; a lone `value` column is an n = 0 solution.

    Blocks of at most `_CELL_CAP` cells, on any CPU count, bound the memory:
    CSV blocks run on one thread per CPU (`_pool.ordered_map`), each in its
    thread's buffers, so the writer holds about a block a worker.  The CSV bytes are
    those of `csv.writer` with `format(v, ".17g")` cells (see `_csv_block`).
    The JSON bytes are those of `json.dumps(rows, indent=2) + "\n"`, whose
    floats are `float.__repr__`, the `%r` of a Python float; each block is one
    row template applied with `%`.
    """
    ncol = 1 + len(columns)
    step = max(1, min(_CELL_CAP // ncol, len(xs)))
    starts = range(0, len(xs), step)

    def block(lo: int, out: np.ndarray | None = None) -> np.ndarray:
        return np.stack([xs[lo : lo + step], *(col[lo : lo + step] for col in columns)], axis=1, out=out)

    if fmt == "csv":
        header = io.StringIO()
        csv.writer(header).writerow(["x", *names])

        def write(lo: int, scratch: _CsvScratch) -> bytes:
            rows = min(step, len(xs) - lo)
            return _csv_block(block(lo, scratch.cells[: rows * ncol].reshape(rows, ncol)), scratch)

        # Every block but the last has `step` rows, so a set made for the last serves no other.
        blocks = _pool.ordered_map(write, starts, lambda lo: _CsvScratch(min(step, len(xs) - lo) * ncol))
        with open(path, "wb") as fh:
            fh.write(header.getvalue().encode())
            fh.writelines(blocks)
        return
    if names == ["value"]:
        row = '  {\n    "x": %r,\n    "value": %r\n  }'
    else:
        coeffs = ",\n".join(f"      {json.dumps(name)}: %r" for name in names)
        row = '  {\n    "x": %r,\n    "coeffs": {\n' + coeffs + "\n    }\n  }"
    with open(path, "w", newline="") as fh:
        fh.write("[\n")
        for i, cells in enumerate(map(block, starts)):
            fh.write((",\n" if i else "") + ",\n".join([row] * len(cells)) % tuple(cells.ravel().tolist()))
        fh.write("\n]\n")


@lru_cache(maxsize=1)
def _pow10() -> np.ndarray:
    """10^k at index k + 360 for k = -360..360, rounded to nearest at 64 significant bits."""
    table = np.empty(721, dtype=np.longdouble)
    for k in range(-360, 361):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        # Scale by 2^shift so that the quotient q lands in [2^63, 2^64).
        shift = 63 - num.bit_length() + den.bit_length()
        num, den = num << max(shift, 0), den << max(-shift, 0)
        if num < den << 63:
            num, shift = num << 1, shift + 1
        q, r = divmod(num, den)
        q += 2 * r > den or (2 * r == den and q & 1)
        # Both halves and the sum are exact, even for q = 2^64.
        table[k + 360] = np.ldexp(np.longdouble(q >> 32) * 2**32 + (q & 0xFFFFFFFF), -shift)
    table.flags.writeable = False
    return table


class _CsvScratch:
    """One worker's arrays for CSV blocks of up to `cells` cells (see `_csv_block`), 116 bytes a cell.

    `cells` holds a block's cells for `_write_solution`; the others are the
    kernel's, each reused for more than one purpose as its steps go on.
    """

    def __init__(self, cells: int):
        self.cells = np.empty(cells)
        self.exp = np.empty(cells, np.intp)
        self.prod = np.empty(16 * cells, np.uint8)
        self.work = np.empty(2 * cells, np.uint64)
        self.flags = np.empty((4, cells), bool)
        self.slots = np.empty((cells, 4), "<u8")
        self.keep = np.empty(32 * cells, bool)


def _layout_masks() -> np.ndarray:
    """Per layout class (a column each, see `_csv_block`), words that lay out a cell's slot.

    Rows: the `0.000` prefix in word 0; for digit words 1 and 2 in turn, the
    bytes before the point (kept in place), the bytes after it (moved one
    on), the 0x80 flag of the point's byte and the 0x80 flags of the integer
    digits; last, 0xFF where the point moves digit 16 into word 3.
    """
    ones, flags = 2**64 - 1, 0x8080808080808080

    def before(t):  # the bytes of a word before byte t
        return (1 << 8 * min(max(t, 0), 8)) - 1

    table = np.zeros((10, 23), np.uint64)
    for cls in range(23):
        # The digit the point follows, where the digits hold the point.
        point = 0 if cls in (0, 22) else cls - 5 if 5 <= cls <= 20 else None
        if 1 <= cls <= 4:
            table[0, cls] = int.from_bytes(b"\0" + b"0.000"[: 6 - cls], "little")
        for word in range(2):
            kept, moved, dot = ones, 0, 0
            if point is not None:
                t = point - 8 * word
                kept, moved, dot = before(t), ones ^ before(t + 1), 0x80 << 8 * t if 0 <= t < 8 else 0
            table[[1 + word, 3 + word, 5 + word, 7 + word], cls] = kept, moved, dot, 0 if 1 <= cls <= 4 else kept & flags
        table[9, cls] = 0 if point is None else 0xFF
    table.flags.writeable = False
    return table


_LAYOUT = _layout_masks()
# Word 3's separator bytes: `,` after a cell, CRLF after a row's last.
_CELL_END, _ROW_END = np.uint64(0x2C << 48), np.uint64(0x0A0D << 48)


def _csv_block(cells: np.ndarray, sc: _CsvScratch) -> bytes:
    """CSV rows of a (rows, cols) block: `'%.17g'` cells, `,` between, CRLF after each row.

    Digits: with e = floor(log10|v|), stepped until 10^16 <= s < 10^17, the
    product s = |v| * 10^(16-e) in np.longdouble holds the 17 significant
    digits.  The table entry and the product each round by at most 2^-64
    relative, so s is within s * 2^-63 (< 0.011) of the exact product, and
    rounding to the nearest integer is settled unless frac(s) lies within
    that band of 1/2.  In the band, an exact product (10^(16-e) exact, and the
    significand's odd part times 5^(16-e) below 2^64) breaks ties to even;
    every other cell in the band goes through Python's `%.17g` in one batch,
    as do non-finite cells.  Without a 64-bit np.longdouble every cell does.

    Layout follows `%g` on the rounded exponent: fixed notation for
    exponents -4..16, else `e+XX`/`e-XX`, trailing zeros and a bare point
    dropped, `-0` kept.  Each cell is a slot of four little-endian words:
    the sign, the `0.000` prefix and the leading digit; digits 1-8 and 9-16,
    one byte each, made from their integers by a SWAR step (the reverse of
    the reader's); the exponent and the separator.  Where the digits hold the
    point, the digits after it move one byte on, digit 16 into word 3.  Zero
    bytes are padding, dropped at the end.  Every block-sized array is one of
    `sc`'s, which must hold the block.
    """
    rows, ncol = cells.shape
    v = cells.ravel()
    if not _EXTENDED:
        return ("".join([",".join(["%.17g"] * ncol) + "\r\n"] * rows) % tuple(v.tolist())).encode()
    n = v.size
    work = sc.work[: 2 * n].reshape(2, n)
    d, a = work[0], work[1].view(np.float64)
    e = sc.exp[:n]
    s = sc.prod[: n * np.dtype(np.longdouble).itemsize].view(np.longdouble)
    ok, nonzero, up, flag = sc.flags[:, :n]
    slots, keep = sc.slots[:n], sc.keep[: 32 * n]
    frac, index = keep[: 4 * n].view(np.float32), keep[8 * n : 16 * n].view(np.intp)

    np.abs(v, out=a)
    np.isfinite(a, out=ok)
    np.not_equal(a, 0, out=nonzero)
    nonzero &= ok
    np.logical_not(nonzero, out=flag)
    np.copyto(a, 1.0, where=flag)
    np.log10(a, out=d.view(np.float64))
    np.floor(d.view(np.float64), out=d.view(np.float64))
    np.copyto(e, d.view(np.float64), casting="unsafe")
    pow10 = _pow10()
    np.subtract(376, e, out=index)
    np.take(pow10, index, out=s, mode="clip")
    s *= a
    np.copyto(d, s, casting="unsafe")
    fix = np.flatnonzero((d < 10**16) | (d >= 10**17))
    e[fix] += np.where(d[fix] < 10**16, -1, 1)
    s[fix] = a[fix].astype(np.longdouble) * pow10[376 - e[fix]]
    d[fix] = s[fix].astype(np.uint64)
    np.subtract(s, d, out=s)
    np.copyto(frac, s, casting="unsafe")
    np.greater(frac, 0.5, out=up)
    frac -= 0.5  # from here on |frac - 1/2|
    np.abs(frac, out=frac)
    np.less_equal(frac, 0.011, out=flag)
    near = np.flatnonzero(flag)
    near = near[frac[near] <= d[near] * 1.1e-19]
    k = 16 - e[near]
    odd = a[near].view(np.uint64) & np.uint64(2**52 - 1) | np.uint64(2**52)
    odd >>= np.bitwise_count((odd & (~odd + np.uint64(1))) - np.uint64(1))
    exact = (k >= 0) & (k <= 27) & (odd <= _EXACT_LIMIT[np.clip(k, 0, 27)])
    up[near] |= exact & (frac[near] == 0) & (d[near] % 2 == 1)
    ok[near[~exact]] = False
    d += up
    np.equal(d, 10**17, out=flag)
    np.copyto(d, 10**16, where=flag)
    e += flag
    np.logical_not(nonzero, out=flag)
    np.copyto(d, 0, where=flag)
    np.copyto(e, 0, where=flag)

    # The exponent bytes of the cells in scientific notation.
    sci = np.flatnonzero((e < -4) | (e > 16))
    x = abs(e[sci])
    exponent = np.where(e[sci] < 0, 0x2D6500, 0x2B6500) + np.where(x >= 100, 48 + x // 100 << 24, 0)
    exponent += (48 + x // 10 % 10 << 32) + (48 + x % 10 << 40)
    # Layout class: exponent -5 or below, -4..16 (fixed), 17 or above.
    cls = e
    np.clip(cls, -5, 17, out=cls)
    cls += 5

    # Word 0; then digits 1-8 and 9-16 as two integers below 10^8.
    w = s.view(np.uint64)[: 2 * n].reshape(2, n)
    t, u = keep.view(np.uint64).reshape(2, 2, n)
    np.floor_divide(d, 10**8, out=w[0])
    np.multiply(w[0], 10**8, out=w[1])
    np.subtract(d, w[1], out=w[1])
    np.floor_divide(w[0], 10**8, out=d)
    np.multiply(d, 10**8, out=t[0])
    w[0] -= t[0]
    d += 48
    d <<= 56
    np.signbit(v, out=flag)
    np.bitwise_or(d, 45, out=d, where=flag)
    np.take(_LAYOUT[0], cls, out=t[0], mode="clip")
    np.bitwise_or(d, t[0], out=slots[:, 0])
    # Each integer to 8 digit bytes, the first in the lowest: into 4-digit
    # halves, then in each half's lane into 2-digit quarters, then into digits.
    np.floor_divide(w, 10**4, out=t)
    np.multiply(t, 10**4, out=u)
    w -= u
    w <<= 32
    w |= t
    for scale, magic, shift, lanes, width in ((100, 5243, 19, 0x0000007F0000007F, 16), (10, 103, 10, 0x000F000F000F000F, 8)):
        # (x * magic) >> shift is x // scale for every x in a lane.
        np.multiply(w, magic, out=t)
        t >>= shift
        t &= lanes
        np.multiply(t, scale, out=u)
        w -= u
        w <<= width
        w |= t
    # Live digits, flagged 0x80: up to the last nonzero digit, and those before the point.
    np.add(w, 0x7F7F7F7F7F7F7F7F, out=t)
    t &= 0x8080808080808080
    np.not_equal(w[1], 0, out=flag)
    np.bitwise_or(t[0], 1 << 63, out=t[0], where=flag)
    for shift in (8, 16, 32):
        np.right_shift(t, shift, out=u)
        t |= u
    np.take(_LAYOUT[7:9], cls, axis=1, out=work, mode="clip")
    t |= work
    # The point, where the digit after it is live; then the live digits in ASCII.
    np.take(_LAYOUT[5:7], cls, axis=1, out=u, mode="clip")
    u &= t
    u >>= 7
    u *= 0x2E
    t >>= 7
    t *= 0x30
    w += t
    # Words 1 and 2: the bytes before the point, the point, the bytes after it moved one on.
    np.take(_LAYOUT[1:3], cls, axis=1, out=work, mode="clip")
    work &= w
    u |= work
    np.left_shift(w, 8, out=t)
    np.right_shift(w[0], 56, out=work[0])
    t[1] |= work[0]
    np.right_shift(w[1], 56, out=work[0])
    np.take(_LAYOUT[9], cls, out=work[1], mode="clip")
    work[0] &= work[1]
    np.bitwise_or(work[0], _CELL_END, out=slots[:, 3])
    slots[ncol - 1 :: ncol, 3] ^= _CELL_END ^ _ROW_END
    slots[sci, 3] |= exponent.astype(np.uint64)
    np.take(_LAYOUT[3:5], cls, axis=1, out=work, mode="clip")
    t &= work
    np.bitwise_or(u, t, out=slots[:, 1:3].T)

    bad = np.flatnonzero(~ok)
    text = np.array([b"%.17g" % x for x in v[bad].tolist()], dtype="S24")
    slots[bad, :3] = text.view("<u8").reshape(-1, 3)
    slots[bad, 3] &= np.uint64(0xFFFF << 48)
    raw = slots.view(np.uint8).reshape(-1)
    np.not_equal(raw, 0, out=keep)
    return raw[keep].tobytes()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# The index each `check` row takes where the configured space sets none; q defaults to p.
_DEFAULT_INDICES = {"k": 0, "alpha": 1.0, "p": 2.0, "s": 1.0}


def _report_spaces(space: SpaceSpec) -> list[SpaceSpec]:
    """All six gates with the configured indices, defaulting the absent ones."""
    given = {**_DEFAULT_INDICES, **space.indices()}
    given.setdefault("q", given["p"])
    return [SpaceSpec(tag, **{name: given[name] for name in need}) for tag, (need, *_) in _SPACES.items()]


def _space_label(space: SpaceSpec) -> str:
    parts = [f"{name}={value}" for name, value in space.indices().items()]
    return f"{space.tag}({', '.join(parts)})"


def _cmd_check(args) -> int:
    setup = build_problem(load_config(args.config))
    cfg = setup.config
    params = setup.params
    configured = gamma_gate(cfg.space, params)

    if not args.quiet:
        plan = _finite_plan(setup)
        print(f"{'space':<28} {'gamma':<24} contraction")
        for spec in _report_spaces(cfg.space):
            value = gamma_gate(spec, params)
            print(f"{_space_label(spec):<28} {_fmt(value):<24} {'yes' if value < 1 else 'NO'}")
        print(f"{'empirical (sup norm)':<28} {_fmt(_config_probe(plan, cfg))}")
    verdict = "passes" if configured < 1.0 else "FAILS"
    print(f"configured {_space_label(cfg.space)}: gamma = {_fmt(configured)} ({verdict})")
    return EXIT_OK if configured < 1.0 else EXIT_GATE_FAILED


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _read_solution(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Returns (column names, x grid, value matrix of shape (len(xs), cols))."""
    try:
        with open(path, newline="") as fh:
            first = head = fh.readline()
            while first.isspace():
                first = fh.readline()
                head += first
            if first.lstrip().startswith("["):
                # The file size bounds the cells of a solve output, before the body is read.
                _check_body_cells(math.ceil((os.fstat(fh.fileno()).st_size - 3) / _JSON_CELL_BYTES), 1)
                rows = json.loads(first + fh.read())
                xs = _json_numbers("x", [row["x"] for row in rows])
                if "value" in rows[0]:
                    return ["value"], xs, _json_numbers("value", [row["value"] for row in rows])[:, None]
                keys = list(rows[0]["coeffs"])
                data = [_json_numbers(key, [row["coeffs"][key] for row in rows]) for key in keys]
                return keys, xs, np.array(data).reshape(len(keys), len(rows)).T
            header = next(csv.reader([first]), None)
            if not header or header[0] != "x":
                raise ConfigError("<solution>", "expected a CSV header starting with 'x'")
            matrix = None
            if _EXTENDED and head.isascii():
                matrix = _read_csv_body(path, len(head), len(header))
            if matrix is None:
                # np.loadtxt takes the row width from the first body row (it skips empty
                # lines), which may be wider than the header: the row bound takes the wider.
                start, row = fh.tell(), fh.readline()
                while row and not row.rstrip("\r\n"):
                    row = fh.readline()
                width = max(len(header), len(next(csv.reader([row]), [])))
                fh.seek(start)
                with warnings.catch_warnings():
                    # A header-only file warns "input contained no data"; its shape says so.
                    warnings.simplefilter("ignore")
                    # One row past the bound, so that a longer body is refused before it is read.
                    limit = _MAX_BODY_CELLS // width + 1
                    matrix = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2, max_rows=limit)
                _check_body_cells(*matrix.shape)
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError("<solution>", f"cannot read {path}: {exc}") from exc
    except (IndexError, KeyError, OverflowError, TypeError, ValueError, csv.Error) as exc:
        raise ConfigError("<solution>", f"malformed solution file: {exc!r}") from exc
    if matrix.shape[0] == 0 or matrix.shape[1] != len(header):
        raise ConfigError("<solution>", "malformed CSV body")
    return header[1:], matrix[:, 0], matrix[:, 1:]


def _check_body_cells(rows: int, ncol: int) -> None:
    if rows * ncol > _MAX_BODY_CELLS:
        raise ConfigError("<solution>", f"more than {_MAX_BODY_CELLS} cells, the most a solve output holds")


def _cell_grammar() -> np.ndarray:
    """Whether token b may follow token a after r digits, at (min(r + 1, 5) * 8 + a) * 8 + b.

    This is the language of the bodies `solve` writes: cells
    `-?D+(.D+)?(e[+-]DD D?)?` with `,` between them and CRLF after each row.
    A `-` right after `e` is an exponent _SIGN.
    """
    ok = np.zeros((6, 8, 8), bool)
    cell_end = [_SEP, _CR]
    ok[1, [_SEP, _LF], _NEG] = True
    for token in (_SEP, _LF, _NEG):  # the integer digits
        ok[2:, token, [_DOT, _EXP, *cell_end]] = True
    ok[2:, _DOT, [_EXP, *cell_end]] = True  # the fraction digits
    ok[1, _EXP, _SIGN] = True
    ok[3:5, _SIGN, cell_end] = True  # two or three exponent digits
    ok[1, _CR, _LF] = True
    return ok.ravel()


_GRAMMAR = _cell_grammar()


def _read_csv_body(path: Path, offset: int, ncol: int) -> np.ndarray | None:
    """The CSV body from byte `offset` on as a (rows, ncol) float64 matrix, each cell `float(cell)`.

    A first pass counts the rows and cuts the body into chunks of about
    `_CHUNK_BYTES` that end at a row end; the second parses the chunks into
    one preallocated matrix, on one thread per CPU (`_pool.ordered_map`).  Each
    worker reads a chunk into its own buffer, under a lock that keeps the
    seek and the read together, and parses it in place in its own scratch
    arrays; the pool has each worker make them once, for the largest chunk.
    Returns None, for np.loadtxt to read the file, when the body is empty,
    does not end in a row end, runs on for 1 MiB past the last row end read
    (so no chunk passes `_CHUNK_BYTES` + 1 MiB), or holds a byte, a cell or
    a row outside `_GRAMMAR` or the column count.  Raises ConfigError, before it
    allocates the matrix, on a body of more than `_MAX_BODY_CELLS` cells.
    """
    pow10 = _pow10()
    signed_pow10 = np.stack([pow10, -pow10], axis=1).ravel()  # +-10^k at 2 * (k + 360) + sign
    with open(path, "rb") as fh:
        fh.seek(offset)
        block = bytearray(_CHUNK_BYTES)
        cuts, rows, at = [offset], [0], offset
        while size := fh.readinto(block):
            last = block.rfind(b"\n", 0, size)
            if last >= 0:
                cuts.append(at + last + 1)
                rows.append(rows[-1] + int(np.count_nonzero(np.frombuffer(block, np.uint8, size) == 10)))
            at += size
            if at - cuts[-1] > 1 << 20:  # solve writes rows of at most 513 cells
                return None
        if rows[-1] == 0 or cuts[-1] != at:
            return None
        _check_body_cells(rows[-1], ncol)
        out = np.empty((rows[-1], ncol))
        count = len(cuts) - 1
        size = _PAD + int(np.diff(cuts).max())
        most = int(np.diff(rows).max())  # rows in a chunk
        lock = threading.Lock()

        def parse(i: int, scratch: _ParseScratch) -> bool:
            buf = scratch.buf[: _PAD + cuts[i + 1] - cuts[i]]
            with lock:
                fh.seek(cuts[i])
                read = fh.readinto(buf[_PAD:])
            # A file that shrank since the count leaves _BAD zero bytes, which fail the parse.
            buf[_PAD + read :] = 0
            return _parse_chunk(buf, out[rows[i] : rows[i + 1]], signed_pow10, scratch)

        # Closed before the file: every worker is joined, on every path.
        with closing(_pool.ordered_map(parse, range(count), lambda _: _ParseScratch(size, most, ncol))) as parsed:
            return out if all(parsed) else None


class _ParseScratch:
    """One worker's arrays for chunks of up to `size` bytes, pad included, and `rows` rows of `ncol` cells.

    Two bytes a byte of chunk (the chunk, read after its pad, and its flags),
    a byte a token (its class) for the most tokens such rows may hold (see
    `_parse_chunk`), and 111 bytes a cell; the tokens' grammar codes take the
    cells' integers.
    """

    def __init__(self, size: int, rows: int, ncol: int):
        cells = rows * ncol
        self.buf = np.empty(size, np.uint8)
        self.buf[: _PAD - 1] = 48  # the pad, which the parse leaves as it is
        self.buf[_PAD - 1] = 10
        self.flags = np.empty(size, bool)
        self.tok = np.empty(_MAX_TOKENS * cells + rows + 1, np.uint8)
        # Seven integers a cell; with rows <= cells, also room for a code a token.
        self.ints = np.empty((7, cells), np.intp)
        self.bits = np.empty((6, cells), bool)
        self.small = np.empty(cells, np.uint8)
        self.groups = np.empty(cells, "V24")
        self.wide = np.empty(max(np.dtype(np.longdouble).itemsize, 24) * cells, np.uint8)


def _parse_chunk(buf: np.ndarray, dest: np.ndarray, signed_pow10: np.ndarray, sc: _ParseScratch) -> bool:
    """Parse the rows in buf[_PAD:] into dest; False, with dest partly written, off the grammar.

    Tokens are the bytes that are not digits, from the LF at buf[_PAD - 1] on;
    `_GRAMMAR` checks each against the one before it and the digits between.
    A cell's mantissa `m` is its digits without the dot: the integer digits
    move one byte right, over the dot, in `buf`, and three
    unaligned little-endian uint64 loads ending at the last digit take 24
    bytes, masked to the digits by `_KEEP`.  Lemire's SWAR step turns each
    load's 8 digit bytes into their value.  With k = exponent - fraction
    digits, r = m * 10^k in np.longdouble, from `_pow10`'s table, is within
    2^-63 relative of the exact value (two roundings of 2^-64).  If r *
    _INNER and r * _OUTER, which bracket that interval, round to the same
    float64, so does the exact value: that float64 is the cell, subnormal and
    overflowing results included.  Cells whose bracket straddles a rounding
    midpoint, mantissas past 19 significant digits or 24 digits, and |k| past
    the table's 360 go through `float(cell)`, with the dot put back.  The
    arrays the size of the chunk or of its cells are `sc`'s, which must hold them.
    """
    # Numpy keeps errstate per thread: a pool thread does not see the caller's.
    with np.errstate(all="ignore"):
        text = buf[_PAD - 1 :]
        flag = sc.flags[: text.size]
        np.subtract(text, 48, out=flag.view(np.uint8))
        np.greater(flag.view(np.uint8), 9, out=flag)
        pos = np.flatnonzero(flag)
        if pos.size > sc.tok.size:  # more tokens than the grammar allows rows of this chunk's size
            return False
        tok, code = sc.tok[: pos.size], sc.ints.reshape(-1)[: pos.size]
        np.take(text, pos, out=tok, mode="clip")
        np.copyto(code, tok)
        np.take(_TOKEN, code, out=tok, mode="clip")
        exp = np.flatnonzero(np.equal(tok, _EXP, out=flag[: tok.size]))
        tok[exp[tok[exp + 1] == _NEG] + 1] = _SIGN  # 'e' is never last: a chunk ends with LF
        code = code[:-1]
        np.subtract(pos[1:], pos[:-1], out=code)  # digits between two tokens, plus one
        np.minimum(code, 5, out=code)
        code *= 8
        code += tok[:-1]
        code *= 8
        code += tok[1:]
        if not np.take(_GRAMMAR, code, out=flag[: code.size], mode="clip").all():
            return False
        ends = np.flatnonzero(np.less_equal(tok, _CR, out=flag[: tok.size]))
        rows, ncol = dest.shape
        n = ends.size
        if n != dest.size:
            return False
        lead, tmp, mant, mant_end, dot, ndig, index = sc.ints[:, :n]
        is_cr, neg, has_exp, has_dot, moved, slow = sc.bits[:, :n]
        small = sc.small[:n]
        np.equal(np.take(tok, ends, out=small, mode="clip"), _CR, out=is_cr)
        if np.count_nonzero(is_cr) != rows or not is_cr[ncol - 1 :: ncol].all():
            return False

        # Per cell: the token before it (`,` or LF), its sign, where its mantissa
        # ends, its dot, its digit and fraction digit counts and its table index 360 + k.
        lead[0] = 0
        np.add(ends[:-1], is_cr[:-1], out=lead[1:])
        np.add(lead, 1, out=tmp)
        np.equal(np.take(tok, tmp, out=small, mode="clip"), _NEG, out=neg)
        np.subtract(ends, 1, out=tmp)
        np.equal(np.take(tok, tmp, out=small, mode="clip"), _SIGN, out=has_exp)
        np.subtract(ends, has_exp, out=mant)
        mant -= has_exp
        np.take(pos, mant, out=mant_end, mode="clip")
        np.subtract(mant, 1, out=tmp)
        np.equal(np.take(tok, tmp, out=small, mode="clip"), _DOT, out=has_dot)
        np.take(pos, tmp, out=dot, mode="clip")
        np.take(pos, lead, out=ndig, mode="clip")
        np.subtract(mant_end, ndig, out=ndig)
        ndig -= 1
        ndig -= neg
        ndig -= has_dot
        # The fraction digits, those after the dot, as -(their count); then the integer digits.
        np.subtract(dot, mant_end, out=index)
        index += 1
        index *= has_dot
        np.add(ndig, index, out=mant)
        index += 360
        at = pos[ends[has_exp] - 2]
        d = text[at[:, None] + [2, 3, 4]].astype(np.int64) - 48
        value = np.where(pos[ends[has_exp]] - at == 4, d[:, 0] * 10 + d[:, 1], (d[:, 0] * 10 + d[:, 1]) * 10 + d[:, 2])
        index[has_exp] += np.where(text[at + 1] == 45, -value, value)

        # Move each integer part one byte right, over its dot: `moved` marks the
        # cells moved, `mant` counts their digits left to move, and `tmp` is the
        # byte a digit moves to, or 1, in the pad, where the move changes nothing.
        np.less_equal(ndig, 24, out=moved)
        moved &= has_dot
        mant *= moved
        np.add(dot, _PAD - 1, out=tmp)
        while True:
            np.greater(mant, 0, out=slow)
            if not slow.any():
                break
            np.copyto(tmp, 1, where=np.logical_not(slow, out=is_cr))
            tmp -= 1
            np.take(buf, tmp, out=small, mode="clip")
            tmp += 1
            np.put(buf, tmp, small, mode="clip")
            tmp -= 1
            mant -= 1

        # The 24 bytes ending at the last digit, as groups 2, 1, 0 of 8 digits;
        # byte t of group g is digit 8g+7-t from the right.
        rows24 = np.ndarray((buf.size - 23,), "V24", buf, 0, (1,))
        np.add(mant_end, _PAD - 25, out=tmp)
        groups = sc.groups[:n]
        for lo in range(0, n, _GATHER):
            groups[lo : lo + _GATHER] = rows24[tmp[lo : lo + _GATHER]]
        groups = groups.view("<u8").reshape(-1, 3)
        np.minimum(ndig, 24, out=tmp)
        keep = sc.wide[: 24 * n].view("V24")
        groups &= np.take(_KEEP, tmp, out=keep, mode="clip").view("<u8").reshape(-1, 3)
        groups *= 2561
        groups >>= 8
        groups &= 0x00FF00FF00FF00FF
        groups *= 6553601
        groups >>= 16
        groups &= 0x0000FFFF0000FFFF
        groups *= 42949672960001
        groups >>= 32
        np.greater(ndig, 24, out=slow)
        slow |= groups[:, 0] >= 1000
        slow |= index.view(np.uint64) > 720
        m = groups[:, 2]
        groups[:, 1] *= 10**8
        m += groups[:, 1]
        groups[:, 0] *= 10**16
        m += groups[:, 0]

        r = sc.wide[: n * np.dtype(np.longdouble).itemsize].view(np.longdouble)
        np.copyto(r, m)
        p = sc.groups[:n].view(np.uint8)[: r.nbytes].view(np.longdouble)  # the groups are read
        np.clip(index, 0, 720, out=index)
        index *= 2
        index += neg
        r *= np.take(signed_pow10, index, out=p, mode="clip")
        flat = dest.reshape(-1)
        np.copyto(flat, np.multiply(r, _INNER, out=p), casting="unsafe")
        r *= _OUTER
        np.copyto(tmp.view(np.float64), r, casting="unsafe")
        slow |= np.not_equal(flat, tmp.view(np.float64), out=is_cr)
        for i in np.flatnonzero(slow).tolist():
            a, b = pos[lead[i]] + 1, pos[ends[i]]
            cell = text[a:b].tobytes()
            if moved[i]:  # the integer digits go back before the dot
                first, at = int(neg[i]), dot[i] - a
                cell = cell[:first] + cell[first + 1 : at + 1] + b"." + cell[at + 1 :]
            flat[i] = float(cell)
    return True


def _json_numbers(name: str, cells: list) -> np.ndarray:
    """One JSON column as floats; booleans, strings and nulls are not numbers."""
    if not all(type(cell) in (int, float) for cell in cells):
        raise ConfigError("<solution>", f"column {name!r} holds a value that is not a number")
    return np.array(cells, dtype=float)


def _cmd_eval(args) -> int:
    try:
        points = [float(tok) for tok in args.at.split(",") if tok.strip()]
    except ValueError:
        print("config error: --at expects comma-separated numbers", file=sys.stderr)
        return EXIT_CONFIG
    if not points:
        print("config error: --at expects at least one x value", file=sys.stderr)
        return EXIT_CONFIG
    names, xs, data = _read_solution(Path(args.solution))
    finite = [np.isfinite(xs).all(), *np.isfinite(data).all(axis=0)]
    for name, ok in zip(["x", *names], finite):
        if not ok:
            raise ConfigError("<solution>", f"column {name!r} holds a non-finite value")
    if not np.all(xs[1:] > xs[:-1]):
        raise ConfigError("<solution>", "x must be strictly increasing")
    lo, hi = float(xs[0]), float(xs[-1])
    # Past this, the widths and offsets of the interpolation overflow.
    if not math.isfinite(hi - lo):
        raise ConfigError("<solution>", f"column 'x' spans [{_fmt(lo)}, {_fmt(hi)}], past the float range")

    for x in points:
        if not lo <= x <= hi:
            domain = f"[{_fmt(lo)}, {_fmt(hi)}]"
            print(f"config error: x = {_fmt(x)} outside the domain {domain}", file=sys.stderr)
            return EXIT_CONFIG

    writer = csv.writer(sys.stdout)
    writer.writerow(["x"] + names + ["source"])
    for x in points:
        # xs[right - 1] < x <= xs[right], since xs increases and lo <= x <= hi.
        right = int(np.searchsorted(xs, x))
        if x == xs[right]:
            row, source = data[right], "grid"
        else:
            left = right - 1
            w = (x - xs[left]) / (xs[right] - xs[left])
            row, source = (1.0 - w) * data[left] + w * data[right], "interpolated"
        writer.writerow([_fmt(x)] + [_fmt(v) for v in row] + [source])
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
