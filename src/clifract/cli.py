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
back exactly, each value `float(cell)`, with a numpy parser on one thread
per CPU, and any other CSV with np.loadtxt (see `_read_csv_body`).
CLIFRACT_OUTPUT_DIR, when set, anchors relative output paths.  With
--quiet, solve and check skip the random contraction probe and the
residual, which only their reports print.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import blade_key
from .config import MAX_GRID_CELLS, ConfigError, ProblemSetup, build_problem, load_config
from .engine import ConvergenceError, SpaceSpec, _grid_points, empirical_gamma, gamma_gate
from .lift import clifford_empirical_gamma, clifford_fixed_point, residual

__all__ = ["main"]

OUTPUT_DIR_ENV = "CLIFRACT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

# Cells per block of the solution writers; a CSV block's byte matrix holds up to 31 bytes a cell.
_CELL_CAP = 1 << 16
# The CSV digit step needs np.longdouble to carry at least a 64-bit significand.
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
# For 0 <= k <= 27, 10^k is exact in 64 bits, and so is m * 10^k for an odd m <= this bound.
_EXACT_LIMIT = np.array([(2**64 - 1) // 5**k for k in range(28)], dtype=np.uint64)
# Per layout class (exponent clipped to -5..17, plus 5): the digit the point follows
# (17: none), and the `0.000` prefix bytes of the fixed notation below 1.
_POINT = np.array([0, 17, 17, 17, 17, *range(17), 0], dtype=np.uint8)
_PREFIX = np.zeros((5, 23), dtype=np.uint8)
_PREFIX[:, 1:5] = np.frombuffer(b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", np.uint8).reshape(4, 5).T
# The most cells a solution body may hold: (grid_M + 1) rows of 1 + 2^n cells,
# with (grid_M + 1) * 2^n <= MAX_GRID_CELLS, so eval allocates no more.
_MAX_BODY_CELLS = 2 * MAX_GRID_CELLS
# The CSV reader takes the body in reads of this many bytes, cut back to the last row end.
# A worker's arrays for one chunk take about 12x its bytes, so this bounds the reader's memory.
_CHUNK_BYTES = 1 << 18
# Bytes before each chunk: '0's, then an LF that starts its first row, so that
# the three 8-byte loads ending at a mantissa's last digit stay in the buffer.
_PAD = 24
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


def _probe(setup: ProblemSetup) -> float:
    """The seeded random contraction probe of the problem's operator.

    At n = 0 the probe applies the operator with its q, as the scalar probe
    always has; the lifted probe drops q, which the linear factor allows.  The
    two round differently in the last bit, either way round depending on the
    problem, so each kind of config keeps the probe it has always printed.
    """
    cfg, params = setup.config, setup.params
    if cfg.n == 0:
        return empirical_gamma(params.component_params(0), cfg.grid_m, cfg.trials, cfg.seed)
    return clifford_empirical_gamma(params, cfg.grid_m, cfg.trials, cfg.seed)


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

    try:
        result = clifford_fixed_point(params, cfg.grid_m, tol=cfg.tol, max_iter=cfg.max_iter)
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    psi = result.function

    # One column per blade: stack rows, and one shared zero row for absent blades.
    # The one blade of an n = 0 solution keeps the column name `value`.
    names = [blade_key(mask) for mask in range(1 << psi.n)] if psi.n else ["value"]
    rows, zero = dict(zip(psi.masks, psi.values)), np.zeros(psi.grid_m + 1)
    columns = [rows.get(mask, zero) for mask in range(1 << psi.n)]
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_solution(out_path, fmt, _grid_points(psi.partition, psi.grid_m), names, columns)
    except OSError as exc:
        raise ConfigError("output", f"cannot write {out_path}: {exc}") from exc

    if not args.quiet:
        print(f"iterations: {max(result.iterations.values(), default=1)}")
        print(f"gamma[{cfg.space.tag}]: {_fmt(gate)}")
        print(f"empirical gamma: {_fmt(_probe(setup))}")
        print(f"residual: {_fmt(residual(params, psi))}")
        print(f"output: {out_path}")
    return EXIT_OK


def _write_solution(
    path: Path, fmt: str, xs: np.ndarray, names: list[str], columns: list[np.ndarray]
) -> None:
    """Write one row per grid point; a lone `value` column is an n = 0 solution.

    Blocks of at most `_CELL_CAP` cells bound the memory.  The CSV bytes are
    those of `csv.writer` with `format(v, ".17g")` cells (see `_csv_block`).
    The JSON bytes are those of `json.dumps(rows, indent=2) + "\n"`, whose
    floats are `float.__repr__`, the `%r` of a Python float; each block is one
    row template applied with `%`.
    """
    step = max(1, _CELL_CAP // (1 + len(columns)))
    blocks = (
        np.column_stack([xs[lo : lo + step], *(col[lo : lo + step] for col in columns)])
        for lo in range(0, len(xs), step)
    )
    if fmt == "csv":
        header = io.StringIO()
        csv.writer(header).writerow(["x", *names])
        with open(path, "wb") as fh:
            fh.write(header.getvalue().encode())
            fh.writelines(map(_csv_block, blocks))
        return
    if names == ["value"]:
        row = '  {\n    "x": %r,\n    "value": %r\n  }'
    else:
        coeffs = ",\n".join(f"      {json.dumps(name)}: %r" for name in names)
        row = '  {\n    "x": %r,\n    "coeffs": {\n' + coeffs + "\n    }\n  }"
    with open(path, "w", newline="") as fh:
        fh.write("[\n")
        for i, cells in enumerate(blocks):
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


def _csv_block(cells: np.ndarray) -> bytes:
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
    dropped, `-0` kept.  The rows of one byte matrix are the byte positions
    of every cell: sign, the `0.000` prefix, 17 digit slots with one point
    slot, exponent, separators.  Zero bytes are padding, removed at the end.
    """
    rows, ncol = cells.shape
    v = cells.ravel()
    if not _EXTENDED:
        return ("".join([",".join(["%.17g"] * ncol) + "\r\n"] * rows) % tuple(v.tolist())).encode()
    n = v.size
    a = np.abs(v)
    ok = np.isfinite(a)
    nonzero = ok & (a != 0)
    a[~nonzero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int16)
    pow10 = _pow10()
    s = a.astype(np.longdouble) * pow10[376 - e]
    d = s.astype(np.uint64)
    fix = np.flatnonzero((d < 10**16) | (d >= 10**17))
    e[fix] += np.where(d[fix] < 10**16, -1, 1)
    s[fix] = a[fix].astype(np.longdouble) * pow10[376 - e[fix]]
    d[fix] = s[fix].astype(np.uint64)
    frac = np.subtract(s, d, out=s).astype(np.float32)
    up = frac > 0.5
    near = np.flatnonzero(np.abs(frac - 0.5) <= 0.011)
    near = near[np.abs(frac[near] - 0.5) <= d[near] * 1.1e-19]
    k = 16 - e[near]
    odd = a[near].view(np.uint64) & np.uint64(2**52 - 1) | np.uint64(2**52)
    odd >>= np.bitwise_count((odd & (~odd + np.uint64(1))) - np.uint64(1))
    exact = (k >= 0) & (k <= 27) & (odd <= _EXACT_LIMIT[np.clip(k, 0, 27)])
    up[near] |= exact & (frac[near] == 0.5) & (d[near] % 2 == 1)
    ok[near[~exact]] = False
    d += up
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[~nonzero] = 0
    e[~nonzero] = 0

    # Row 0 is the leading digit; rows 1-16 come from two eight-digit halves,
    # split into four-digit groups, then into pairs of digits.
    digits = np.empty((17, n), np.uint8)
    head = d // 10**8
    halves = np.empty((2, n), np.uint32)
    halves[1] = d - head * 10**8
    digits[0] = head // 10**8
    halves[0] = head - digits[0] * np.uint64(10**8)
    groups = np.empty((4, n), np.uint16)
    q = halves // 10**4
    groups[0::2] = q
    groups[1::2] = halves - q * 10**4
    pairs = np.empty((8, n), np.uint8)
    q = groups // 100
    pairs[0::2] = q
    pairs[1::2] = groups - q * 100
    q = pairs // 10
    digits[1::2] = q
    digits[2::2] = pairs - q * 10
    # Layout class: exponent -5 or below, -4..16 (fixed), 17 or above.
    cls = np.clip(e, -5, 17) + 5
    point = _POINT[cls]
    # Trailing zeros after the point become padding; `last` is the last digit kept.
    whole = np.where(point < 17, point, 0)
    live = np.zeros(n, bool)
    last = np.zeros(n, np.uint8)
    for p in range(16, 0, -1):
        live |= (digits[p] != 0) | (whole >= p)
        last += live
        digits[p] += 48 * live.view(np.uint8)
    digits[0] += 48
    sci = np.flatnonzero((cls == 0) | (cls == 22))
    # Rows: sign, prefix, 18 digit and point slots, exponent (if any cell needs one), separators.
    matrix = np.empty((26 + 5 * bool(sci.size), n), np.uint8)
    matrix[0] = np.signbit(v) * np.uint8(45)
    matrix[1:6] = np.take(_PREFIX, cls, axis=1)
    # Digit p sits in slot p up to the point, in slot p + 1 after it.
    before = np.negative((point >= np.arange(1, 18, dtype=np.uint8)[:, None]).view(np.uint8))
    matrix[6] = digits[0]
    matrix[7:23] = digits[:16] ^ (digits[:16] ^ digits[1:]) & before[:16]
    matrix[23] = digits[16] & ~before[16]
    matrix[24:-2] = 0
    matrix.reshape(-1)[(7 + point.astype(np.intp)) * n + np.arange(n)] = (last > point) * np.uint8(46)
    if sci.size:
        x = e[sci]
        matrix[24, sci] = 101
        matrix[25, sci] = np.where(x < 0, 45, 43)
        matrix[26, sci] = np.where(abs(x) >= 100, 48 + abs(x) // 100, 0)
        matrix[27, sci] = 48 + abs(x) // 10 % 10
        matrix[28, sci] = 48 + abs(x) % 10
    sep = np.zeros((2, ncol), np.uint8)
    sep[0] = 44
    sep[:, -1] = 13, 10
    matrix[-2:] = np.tile(sep, rows)
    bad = np.flatnonzero(~ok)
    text = np.array([b"%.17g" % x for x in v[bad].tolist()], dtype="S24")
    matrix[:24, bad] = text.view(np.uint8).reshape(-1, 24).T
    matrix[24:-2, bad] = 0
    return matrix.tobytes("F").translate(None, b"\0")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _report_spaces(space: SpaceSpec) -> list[SpaceSpec]:
    """All six gates with the configured indices, defaulting the absent ones."""
    k = space.k if space.k is not None else 0
    alpha = space.alpha if space.alpha is not None else 1.0
    p = space.p if space.p is not None else 2.0
    q = space.q if space.q is not None else p
    s = space.s if space.s is not None else 1.0
    return [
        SpaceSpec.ck(k),
        SpaceSpec.ck_alpha(k, alpha),
        SpaceSpec.lp(p),
        SpaceSpec.sobolev(s, p),
        SpaceSpec.besov(s, p, q),
        SpaceSpec.triebel_lizorkin(s, p, q),
    ]


def _space_label(space: SpaceSpec) -> str:
    parts = [
        f"{name}={getattr(space, name)}"
        for name in ("k", "alpha", "p", "q", "s")
        if getattr(space, name) is not None
    ]
    return f"{space.tag}({', '.join(parts)})"


def _cmd_check(args) -> int:
    setup = build_problem(load_config(args.config))
    cfg = setup.config
    params = setup.params
    configured = gamma_gate(cfg.space, params)

    if not args.quiet:
        print(f"{'space':<28} {'gamma':<24} contraction")
        for spec in _report_spaces(cfg.space):
            value = gamma_gate(spec, params)
            print(f"{_space_label(spec):<28} {_fmt(value):<24} {'yes' if value < 1 else 'NO'}")
        print(f"{'empirical (sup norm)':<28} {_fmt(_probe(setup))}")
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


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_csv_body(path: Path, offset: int, ncol: int) -> np.ndarray | None:
    """The CSV body from byte `offset` on as a (rows, ncol) float64 matrix, each cell `float(cell)`.

    A first pass counts the rows and cuts the body into chunks of about
    `_CHUNK_BYTES` that end at a row end; the second parses the chunks into
    one preallocated matrix, on a thread pool when the process may use more
    than one CPU, with at most two chunks per worker read and not yet parsed.
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

        def chunks():
            fh.seek(offset)
            for i in range(len(cuts) - 1):
                buf = np.empty(_PAD + cuts[i + 1] - cuts[i], np.uint8)
                buf[: _PAD - 1] = 48
                buf[_PAD - 1] = 10
                # A file that shrank since the count leaves _BAD zero bytes, which fail the parse.
                buf[_PAD + fh.readinto(buf[_PAD:]) :] = 0
                yield buf, out[rows[i] : rows[i + 1]]

        workers = min(_cpus(), len(cuts) - 1)
        if workers == 1:
            return out if all(_parse_chunk(buf, dest, signed_pow10) for buf, dest in chunks()) else None
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            pending, ok = [], True
            for buf, dest in chunks():
                if len(pending) == 2 * workers:
                    ok = pending.pop(0).result()
                    if not ok:
                        break
                pending.append(pool.submit(_parse_chunk, buf, dest, signed_pow10))
            ok = all([future.result() for future in pending]) and ok
    return out if ok else None


def _parse_chunk(buf: np.ndarray, dest: np.ndarray, signed_pow10: np.ndarray) -> bool:
    """Parse the rows in buf[_PAD:] into dest; False, with dest partly written, off the grammar.

    Tokens are the bytes that are not digits, from the LF at buf[_PAD - 1] on;
    `_GRAMMAR` checks each against the one before it and the digits between.
    A cell's mantissa `m` is its digits without the dot: a copy of the chunk
    moves the integer digits one byte right, over the dot, and three
    unaligned little-endian uint64 loads ending at the last digit take 24
    bytes, masked to the digits by `_KEEP`.  Lemire's SWAR step turns each
    load's 8 digit bytes into their value.  With k = exponent - fraction
    digits, r = m * 10^k in np.longdouble, from `_pow10`'s table, is within
    2^-63 relative of the exact value (two roundings of 2^-64).  If r *
    _INNER and r * _OUTER, which bracket that interval, round to the same
    float64, so does the exact value: that float64 is the cell, subnormal and
    overflowing results included.  Cells whose bracket straddles a rounding
    midpoint, mantissas past 19 significant digits or 24 digits, and |k| past
    the table's 360 go through `float(cell)`.
    """
    # Numpy keeps errstate per thread: a pool thread does not see the caller's.
    with np.errstate(all="ignore"):
        text = buf[_PAD - 1 :]
        pos = np.flatnonzero(text - np.uint8(48) > 9)
        tok = _TOKEN[text[pos]]
        exp = np.flatnonzero(tok == _EXP)
        tok[exp[tok[exp + 1] == _NEG] + 1] = _SIGN  # 'e' is never last: a chunk ends with LF
        code = np.diff(pos)  # digits between two tokens, plus one
        np.minimum(code, 5, out=code)
        code *= 8
        code += tok[:-1]
        code *= 8
        code += tok[1:]
        if not _GRAMMAR[code].all():
            return False
        ends = np.flatnonzero(tok <= _CR)
        rows, ncol = dest.shape
        is_cr = tok[ends] == _CR
        if ends.size != dest.size or np.count_nonzero(is_cr) != rows or not is_cr[ncol - 1 :: ncol].all():
            return False

        # Per cell: the token before it (`,` or LF), its sign, where its mantissa
        # ends, its dot, its digit and fraction digit counts and its table index 360 + k.
        lead = np.empty_like(ends)
        lead[0] = 0
        np.add(ends[:-1], is_cr[:-1], out=lead[1:])
        neg = tok[lead + 1] == _NEG
        has_exp = tok[ends - 1] == _SIGN
        mant = ends - 2 * has_exp
        mant_end = pos[mant]
        has_dot = tok[mant - 1] == _DOT
        dot = pos[mant - 1]
        ndig = mant_end - pos[lead] - 1
        ndig -= neg
        ndig -= has_dot
        frac = (mant_end - dot - 1) * has_dot
        index = 360 - frac
        at = pos[ends[has_exp] - 2]
        d = text[at[:, None] + [2, 3, 4]].astype(np.int64) - 48
        value = np.where(pos[ends[has_exp]] - at == 4, d[:, 0] * 10 + d[:, 1], (d[:, 0] * 10 + d[:, 1]) * 10 + d[:, 2])
        index[has_exp] += np.where(text[at + 1] == 45, -value, value)

        # Move each integer part one byte right, over its dot, in a copy.
        digits = buf.copy()
        moved = np.flatnonzero(has_dot & (ndig <= 24))
        src = dot[moved] + (_PAD - 1)
        width = (ndig - frac)[moved]  # integer digits
        while src.size:
            digits[src] = digits[src - 1]
            more = width > 1
            src, width = src[more] - 1, width[more] - 1

        # The 24 bytes ending at the last digit, as groups 2, 1, 0 of 8 digits;
        # byte t of group g is digit 8g+7-t from the right.
        rows24 = np.ndarray((digits.size - 23,), "V24", digits, 0, (1,))
        groups = rows24[mant_end + (_PAD - 25)].view("<u8").reshape(-1, 3)
        groups &= _KEEP[np.minimum(ndig, 24)].view("<u8").reshape(-1, 3)
        groups *= 2561
        groups >>= 8
        groups &= 0x00FF00FF00FF00FF
        groups *= 6553601
        groups >>= 16
        groups &= 0x0000FFFF0000FFFF
        groups *= 42949672960001
        groups >>= 32
        slow = (ndig > 24) | (groups[:, 0] >= 1000) | (index.view(np.uint64) > 720)
        m = groups[:, 2] + groups[:, 1] * 10**8 + groups[:, 0] * 10**16

        r = m.astype(np.longdouble)
        np.clip(index, 0, 720, out=index)
        index *= 2
        index += neg
        r *= signed_pow10[index]
        flat = dest.reshape(-1)
        flat[...] = r * _INNER
        r *= _OUTER
        slow |= flat != r.astype(np.float64)
        for i in np.flatnonzero(slow).tolist():
            flat[i] = float(text[pos[lead[i]] + 1 : pos[ends[i]]].tobytes())
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
        raise ConfigError("<solution>", f"column 'x' spans [{lo:g}, {hi:g}], past the float range")

    writer = csv.writer(sys.stdout)
    writer.writerow(["x"] + names + ["source"])
    for x in points:
        if not lo <= x <= hi:
            print(f"config error: x = {x:g} outside the domain [{lo:g}, {hi:g}]", file=sys.stderr)
            return EXIT_CONFIG
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
