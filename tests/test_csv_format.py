"""The CSV cell formatter against Python's own `'%.17g'`, byte for byte, and the reader against `float()`."""

import contextlib
import io
import math
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifract import _pool, cli

def _expected(values) -> bytes:
    return b"".join(b"%.17g\r\n" % v for v in np.asarray(values, dtype=float).tolist())


def _formatted(values) -> bytes:
    cells = np.asarray(values, dtype=float).reshape(-1, 1)
    return cli._csv_block(cells, cli._CsvScratch(cells.size))


def _powers_of_ten():
    """10^k for k = -323..308 as the nearest float, with both float neighbours."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def _ties():
    """Multiples of 2^-20 whose exact decimal expansion has 18 significant digits, the last a 5."""
    digits = ((v, Decimal(v).as_tuple().digits) for v in (np.arange(1, 1 << 17) / 2.0**20).tolist())
    return [v for v, d in digits if len(d) == 18 and d[-1] == 5]


EDGES = [
    0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308, -1.7976931348623157e308,
    9.9999999999999999e-5, 9.9999999999999998e16,
    0.2861003875732421875,
    float("nan"), float("inf"), float("-inf"),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_arbitrary_bit_patterns_match_percent_g(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _formatted(values) == _expected(values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e17, max_value=1e17), max_size=64))
def test_fixed_notation_range_matches_percent_g(values):
    values = [*values, 1.0]
    assert _formatted(values) == _expected(values)


def test_many_random_cells_match_percent_g():
    # Enough cells that some land within the guard band around a half.
    rng = np.random.default_rng(11)
    values = rng.standard_normal(1 << 16) * 10.0 ** rng.uniform(-300, 300, 1 << 16)
    assert _formatted(values) == _expected(values)


def test_edges_match_percent_g():
    values = EDGES + [-v for v in EDGES]
    assert _formatted(values) == _expected(values)
    assert _formatted([9.9999999999999999e-5, 9.9999999999999998e16, -0.0]) == b"0.0001\r\n1e+17\r\n-0\r\n"
    values = np.concatenate([_powers_of_ten(), EDGES, _ties()[:500]])
    cells = values[: values.size // 2 * 2].reshape(-1, 2)
    assert cli._csv_block(cells, cli._CsvScratch(cells.size)) == b"".join(
        b"%.17g,%.17g\r\n" % (x, v) for x, v in cells.tolist()
    )


def test_powers_of_ten_and_their_neighbours_match_percent_g():
    values = _powers_of_ten()
    assert _formatted(values) == _expected(values)
    # Some neighbours below a power of ten round up to it at 17 digits, so
    # their printed exponent is one more than their own.
    carries = [v for v in values.tolist() if Fraction(v) < Fraction(10) ** int(("%.16e" % v).split("e")[1])]
    assert carries


def test_exact_ties_round_half_to_even():
    ties = _ties()
    assert len(ties) > 1000
    assert _formatted(ties) == _expected(ties)
    assert _formatted([1049 / 2**20, 1051 / 2**20]) == b"0.0010004043579101562\r\n0.0010023117065429688\r\n"


def test_power_table_pairs_are_within_2_to_the_minus_106_of_the_powers():
    hi, hh, hl, lo, b = cli._pow10()
    assert hi.shape == hh.shape == hl.shape == lo.shape == b.shape == (721,)
    for k in range(-360, 361):
        i = k + 360
        scaled = Fraction(10) ** k / Fraction(2) ** int(b[i])
        assert 1 <= hi[i] < 2, k
        assert hi[i] == float(scaled) and lo[i] == float(scaled - Fraction(hi[i])), k
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - scaled) <= Fraction(1, 2**106), k
        # The halves are exact and 26 bits wide: Dekker's products of two halves are exact.
        assert Fraction(hh[i]) + Fraction(hl[i]) == Fraction(hi[i]), k
        for half in (hh[i], hl[i]):
            assert half == 0 or abs(Fraction(half) / Fraction(2) ** (math.frexp(half)[1] - 26)).denominator == 1, k


# Cells in the grammar `solve` writes: 17 digits, then digits 18-25 (or their first few) within
# 10^-8 of a half, at exponents -330..308; exact ties j / 2^20 and j / 2^52 (and odd * 2^-(k+1),
# a tie of 10^k's 17th digit); subnormals; the largest finite values.
_NEAR_HALF = st.builds(
    lambda sign, digits, tail, width, exp: b"%s%d.%s%se%+03d" % (sign, digits // 10**16, b"%016d" % (digits % 10**16), tail[:width], exp),
    st.sampled_from([b"", b"-"]),
    st.integers(10**16, 10**17 - 1),
    st.sampled_from([b"49999999", b"50000000", b"50000001"]),
    st.integers(1, 8),
    st.integers(-330, 308),
)
_TIES = st.one_of(
    st.builds(lambda j, bits: math.ldexp(j, -bits), st.integers(1, 2**53), st.sampled_from([20, 52])),
    st.integers(0, 24).flatmap(lambda k: st.integers(2 * 10**16 // 5**k, 2 * 10**17 // 5**k).map(lambda o: math.ldexp(o | 1, -k - 1))),
    st.integers(1, 2**52 - 1).map(lambda j: j * 5e-324),
    st.sampled_from([5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
).map(lambda v: b"%.17g" % v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_NEAR_HALF, _TIES), min_size=1, max_size=32))
def test_both_kernels_near_midpoints_and_on_ties(tmp_path_factory, texts):
    values = np.array([float(text) for text in texts])
    written = _formatted(values)
    assert written == _expected(values)
    # The reader: the cells above and the cells written, each as float(cell).
    cells = [cell for cell in texts + written.split(b"\r\n")[:-1] if math.isfinite(float(cell))]
    if cells:
        _assert_read_as_float(tmp_path_factory.mktemp("cells"), cells)


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------


def _read(tmp_dir, cells, ncol=1):
    """The CSV reader's matrix of text cells laid out `ncol` to a row under a header."""
    header = b"x" + b",c" * (ncol - 1) + b"\r\n"
    body = b"".join(b",".join(cells[i : i + ncol]) + b"\r\n" for i in range(0, len(cells), ncol))
    path = tmp_dir / "body.csv"
    path.write_bytes(header + body)
    return cli._read_csv_body(path, len(header), ncol)


def _assert_read_as_float(tmp_dir, cells):
    got = _read(tmp_dir, cells)
    assert got is not None
    want = np.array([float(cell) for cell in cells])
    assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))


def _midpoint_cells(count, digits):
    """Float64 rounding midpoints of random normal floats, as `digits`-digit `%e` strings,
    each with its distance to the midpoint in units of the float's last place."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    cells = []
    with localcontext() as ctx:
        ctx.prec = 40
        for v in values.tolist():
            up = float(np.nextafter(v, np.inf))
            mid = (Fraction(v) + Fraction(up)) / 2
            mantissa, exp = format(Decimal(mid.numerator) / mid.denominator, f".{digits - 1}e").split("e")
            cell = f"{mantissa}e{int(exp):+03d}"
            cells.append((cell.encode(), abs(Fraction(cell) - mid) / abs(Fraction(up) - Fraction(v))))
    return cells


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 17))
def test_reader_gives_float_of_percent_g_cells(tmp_path_factory, bits, precision):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    cells = [b"%.*g" % (precision, v) for v in values[np.isfinite(values)].tolist()]
    if cells:
        _assert_read_as_float(tmp_path_factory.mktemp("cells"), cells)


def test_reader_gives_float_near_rounding_midpoints(tmp_path, monkeypatch):
    # 17-19 digits go through the pair product; 20 and more through float().
    cells = {digits: _midpoint_cells(400, digits) for digits in (17, 18, 19, 20, 21, 25)}
    _assert_read_as_float(tmp_path, [cell for found in cells.values() for cell, _ in found])
    # Within 2^-13 of a midpoint the pair product still settles the rounding of 17-19 digits,
    # unless the cell is the midpoint.
    settled_by_float = []
    monkeypatch.setattr(cli, "float", lambda text: settled_by_float.append(text) or float(text), raising=False)
    hard = {digits: [cell for cell, distance in found if distance <= Fraction(1, 8192)] for digits, found in cells.items()}
    assert len(hard[18] + hard[19]) > 50 and len(hard[20] + hard[21] + hard[25]) > 1000
    _read(tmp_path, [cell for found in hard.values() for cell in found])
    on_midpoint = [cell for digits in (17, 18, 19) for cell, distance in cells[digits] if distance == 0]
    assert sorted(settled_by_float) == sorted(hard[20] + hard[21] + hard[25] + on_midpoint)


def test_reader_gives_float_on_edges(tmp_path):
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf), EDGES[:-3]])
    cells = [b"%.17g" % v for v in np.concatenate([values, -values]).tolist()]
    cells += [repr(v).encode() for v in values.tolist()]
    cells += [
        b"5e-324", b"2e-324", b"0", b"-0", b"0.0", b"-0.000", b"0e+00", b"-0e-999",
        b"1.7976931348623157e+308", b"1.797693134862316e+308", b"-1.797693134862316e+308", b"1e+400", b"1e-400",
        b"1234567890123456789", b"9999999999999999999", b"12345678901234567890", b"18446744073709551616",
        b"0.1234567890123456789", b"1.2345678901234567890", b"0.000000000000000000000001",
        b"1e+100", b"1e-100", b"9.99e+299", b"1.5e-310", b"123456789012345678e-320", b"7e+360", b"7e-360",
    ]
    _assert_read_as_float(tmp_path, cells)
    assert np.signbit(_read(tmp_path, [b"-0", b"0", b"-0.0"]).ravel()).tolist() == [True, False, True]
    assert _read(tmp_path, [b"1.7976931348623157e+308", b"1.797693134862316e+308"]).ravel().tolist() == [
        1.7976931348623157e308, float("inf"),
    ]


@pytest.mark.parametrize("ncol", [2, 17])
def test_reader_matches_loadtxt_on_whole_files(tmp_path, ncol):
    rng = np.random.default_rng(ncol)
    xs = np.arange(5000) / 2.0**12
    columns = [rng.standard_normal(xs.size) * 10.0 ** rng.integers(-30, 30, xs.size) for _ in range(ncol - 1)]
    columns[0][: len(EDGES) - 3] = EDGES[:-3]
    path = tmp_path / "solution.csv"
    cli._write_solution(path, "csv", xs, [f"c{k}" for k in range(ncol - 1)], columns)
    header = path.read_bytes().index(b"\n") + 1
    got = cli._read_csv_body(path, header, ncol)
    want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert got.shape == want.shape == (xs.size, ncol)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("off_grammar", [False, True], ids=["falling", "falling-off-grammar"])
@pytest.mark.parametrize("ncol", [2, 17])
def test_reader_reuses_its_buffers_on_chunks_of_falling_size(tmp_path, monkeypatch, ncol, off_grammar, cpus):
    """A chunk is a row or two, and the cells lose digits down the file, so the
    chunks get shorter: the workers' read buffers and scratch arrays hold a
    longer chunk's bytes past a shorter one's end.  The matrix is still
    bit-equal to np.loadtxt's; with a cell off the grammar in a chunk in the
    middle, the reader leaves the file to np.loadtxt.
    """
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(_pool, "_cpus", lambda: cpus)
    rng = np.random.default_rng(ncol)
    xs = np.arange(600) / 2.0**12
    # Under the edge cells at the top, multiples of 2^-52 first and of 2^-1 last.
    scale = 2.0 ** np.linspace(52, 1, xs.size).round()
    columns = [np.round(rng.standard_normal(xs.size) * scale) / scale for _ in range(ncol - 1)]
    columns[0][: len(EDGES) - 3] = EDGES[:-3]
    path = tmp_path / "solution.csv"
    cli._write_solution(path, "csv", xs, [f"c{k}" for k in range(ncol - 1)], columns)
    if off_grammar:
        text = path.read_bytes()
        middle = text.index(b"\n", len(text) // 2) + 1
        path.write_bytes(text[:middle] + b"1E5" + text[text.index(b",", middle) :])
    header = path.read_bytes().index(b"\n") + 1
    got = cli._read_csv_body(path, header, ncol)
    want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert want.shape == (xs.size, ncol)
    if off_grammar:
        assert got is None
        got = np.column_stack(cli._read_solution(path)[1:])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "body",
    [b"", b"0,1\r\n1,2", b"0,1\n1,2\n", b"0,1\r\n1,2,3\r\n", b"0,+1\r\n", b"0,1E5\r\n", b"0, 1\r\n",
     b"0,.5\r\n", b"0,5.\r\n", b"0,1e5\r\n", b"0,1e+5\r\n", b"0,1e+0005\r\n", b"0,1.2.3\r\n", b"0,--1\r\n",
     b"0,nan\r\n", b"0,\r\n", b"0,1\r\n\r\n", b"0,1e+05.5\r\n", b'0,"1"\r\n', b"0,\xff\r\n"],
)
def test_reader_leaves_files_off_its_grammar_to_loadtxt(tmp_path, body):
    path = tmp_path / "solution.csv"
    path.write_bytes(b"x,value\r\n" + body)
    assert cli._read_csv_body(path, 9, 2) is None


def test_reader_leaves_rows_of_mebibytes_to_loadtxt(tmp_path):
    path = tmp_path / "solution.csv"
    path.write_bytes(b"x,value\r\n0,1\r\n1," + b"1" * (1 << 21) + b"\r\n")
    assert cli._read_csv_body(path, 9, 2) is None
    path.write_bytes(b"x,value\r\n0,1\r\n1," + b"1" * ((1 << 20) - 8) + b"\r\n")
    assert cli._read_csv_body(path, 9, 2)[1, 1] == float("1" * ((1 << 20) - 8))


def _n0_solution(path, rows):
    """A `solve`-written n = 0 body of `rows` rows; returns its (x, value) columns."""
    rng = np.random.default_rng(rows)
    columns = np.arange(rows) / rows, rng.standard_normal(rows)
    cli._write_solution(path, "csv", columns[0], ["value"], [columns[1]])
    return np.column_stack(columns)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("chunk_bytes", [64, 1 << 10, 1 << 14])
def test_reader_does_not_depend_on_how_far_ahead_the_map_takes_chunks(tmp_path, monkeypatch, chunk_bytes, cpus):
    """A map that takes every chunk before its first call still gives the written columns."""
    pooled = _pool.ordered_map

    def greedy(fn, blocks, *scratch):
        return pooled(fn, list(blocks), *scratch)

    monkeypatch.setattr(_pool, "ordered_map", greedy)
    monkeypatch.setattr(_pool, "_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "solution.csv"
    want = _n0_solution(path, 1 << 12)
    got = cli._read_csv_body(path, len(b"x,value\r\n"), 2)
    assert got is not None
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _eval(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", str(path), "--at", "0.5"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_body_that_shrinks_between_the_count_and_the_parse_goes_to_loadtxt(tmp_path, monkeypatch, cpus):
    """The file loses about half its body, within the x cell of a row, after the
    first pass counted it: the workers' short reads fail the parse, every worker
    is joined, and `eval` ends as np.loadtxt ends on the shortened file, whose
    last row has one column."""
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 1 << 10)
    monkeypatch.setattr(_pool, "_cpus", lambda: cpus)
    path = tmp_path / "solution.csv"
    _n0_solution(path, 1 << 10)
    size = path.stat().st_size
    cut = path.read_bytes().rindex(b"\n", 0, size // 2) + 3
    counted = cli._check_body_cells
    shrunk = []

    def shrink(rows, ncol):
        if not shrunk:
            shrunk.append(rows)
            with open(path, "r+b") as fh:
                fh.truncate(cut)
        counted(rows, ncol)

    monkeypatch.setattr(cli, "_check_body_cells", shrink)
    before = threading.active_count()
    assert cli._read_csv_body(path, len(b"x,value\r\n"), 2) is None
    assert shrunk == [1 << 10] and path.stat().st_size == cut
    assert threading.active_count() == before

    _n0_solution(path, 1 << 10)
    shrunk.clear()
    during = _eval(path)
    assert shrunk and path.stat().st_size == cut
    assert threading.active_count() == before
    monkeypatch.setattr(cli, "_check_body_cells", counted)
    assert during == _eval(path)
    assert during[0] == 2 and "malformed solution file" in during[2]
