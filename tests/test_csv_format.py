"""The CSV cell formatter against Python's own `'%.17g'`, byte for byte."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifract import cli

EXTENDED = pytest.mark.skipif(not cli._EXTENDED, reason="np.longdouble has no 64-bit significand")


def _expected(values) -> bytes:
    return b"".join(b"%.17g\r\n" % v for v in np.asarray(values, dtype=float).tolist())


def _formatted(values) -> bytes:
    return cli._csv_block(np.asarray(values, dtype=float).reshape(-1, 1))


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


@EXTENDED
def test_power_table_is_rounded_to_nearest_at_64_bits():
    table = cli._pow10()
    assert table.shape == (721,)
    for k in range(-360, 361):
        exact = Fraction(10) ** k
        top = exact.numerator.bit_length() - exact.denominator.bit_length()
        if Fraction(2) ** top > exact:
            top -= 1
        half_ulp = Fraction(2) ** (top - 64)
        assert abs(Fraction(*table[k + 360].as_integer_ratio()) - exact) <= half_ulp, k


def test_writer_without_extended_precision_gives_the_same_bytes(monkeypatch):
    values = np.concatenate([_powers_of_ten(), EDGES, _ties()[:500]])
    cells = values[: values.size // 2 * 2].reshape(-1, 2)
    fast = cli._csv_block(cells)
    monkeypatch.setattr(cli, "_EXTENDED", False)
    assert cli._csv_block(cells) == fast
    assert fast == b"".join(b"%.17g,%.17g\r\n" % (x, v) for x, v in cells.tolist())
