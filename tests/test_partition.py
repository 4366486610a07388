import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifract import AffineMap, AffinePartition, from_knots, uniform_partition


def test_affine_map_validates_slope():
    AffineMap(0.5, 2.0)
    for slope in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            AffineMap(slope, 0.0)


def test_uniform_partition_halves():
    part = uniform_partition(0.0, 1.0, 2)
    l1, l2 = part.maps
    assert (l1.a, l1.b) == (0.5, 0.0)
    assert (l2.a, l2.b) == (0.5, 0.5)
    assert l1(1.0) == 0.5 == l2(0.0)
    assert part.knots == (0.0, 0.5, 1.0)


def test_uniform_partition_thirds():
    part = uniform_partition(0.0, 3.0, 3)
    assert all(m.a == pytest.approx(1 / 3) for m in part.maps)
    for i, m in enumerate(part.maps):
        assert m(0.0) == pytest.approx(float(i))
        assert m(3.0) == pytest.approx(float(i + 1))


def test_uniform_partition_rejects_small_n():
    with pytest.raises(ValueError):
        uniform_partition(0.0, 1.0, 1)


def test_from_knots_matches_uniform():
    a = from_knots([0.0, 0.5, 1.0])
    b = uniform_partition(0.0, 1.0, 2)
    assert a.knots == b.knots
    assert [(m.a, m.b) for m in a.maps] == [(m.a, m.b) for m in b.maps]


def test_from_knots_slopes():
    part = from_knots([0.0, 0.25, 1.0])
    assert [m.a for m in part.maps] == [0.25, 0.75]


def test_from_knots_rejects_non_monotone():
    with pytest.raises(ValueError):
        from_knots([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        from_knots([0.0, 1.0])


def test_tiling_validation_rejects_gaps_and_overlaps():
    # images [0, 0.4] and [0.5, 1.0] leave a gap
    with pytest.raises(ValueError):
        AffinePartition(0.0, 1.0, (AffineMap(0.4, 0.0), AffineMap(0.5, 0.5)))
    # images [0, 0.6] and [0.5, 1.0] overlap in the interior
    with pytest.raises(ValueError):
        AffinePartition(0.0, 1.0, (AffineMap(0.6, 0.0), AffineMap(0.5, 0.5)))
    # maps out of spatial order
    with pytest.raises(ValueError):
        AffinePartition(0.0, 1.0, (AffineMap(0.5, 0.5), AffineMap(0.5, 0.0)))


def test_validator_accepts_orientation_reversing_maps():
    # second tile covered by a decreasing map: image [0.5, 1.0]
    part = AffinePartition(0.0, 1.0, (AffineMap(0.5, 0.0), AffineMap(-0.5, 1.0)))
    assert part.knots == (0.0, 0.5, 1.0)
    assert part.maps[1].lip == 0.5


def test_locate_examples():
    part = uniform_partition(0.0, 1.0, 2)
    assert part.locate(0.25) == 0
    assert part.locate(0.5) == 0  # junctions belong to the left tile
    assert part.locate(1.0) == 1
    assert part.locate(0.75) == 1


def test_locate_array_and_domain_check():
    part = uniform_partition(0.0, 1.0, 4)
    np.testing.assert_array_equal(part.locate([0.0, 0.25, 0.26, 1.0]), [0, 0, 1, 3])
    with pytest.raises(ValueError):
        part.locate(1.5)
    with pytest.raises(ValueError):
        part.locate(-0.1)


def test_locate_gives_points_within_the_slack_past_a_junction_to_the_left():
    part = uniform_partition(0.0, 2.0, 4)  # slack 2e-9
    np.testing.assert_array_equal(part.locate([0.5, 0.5 + 1e-9, 0.5 + 1e-8, 2.0]), [0, 0, 1, 3])


def test_grid_ends_at_x_hi_and_tile_ranges_follow_locate():
    part = from_knots([-2.0, -1.0, 1.3])
    xs = part.grid(6)
    assert xs[0] == -2.0 and xs[-1] == 1.3 and len(xs) == 7
    assert part.tile_ranges(xs) == [slice(0, 2), slice(2, 7)]
    np.testing.assert_array_equal(part.locate(xs), [0, 0, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError, match="M >= N"):
        part.grid(1)


def test_locate_after_applying_map_returns_its_index():
    part = from_knots([0.0, 0.3, 0.7, 1.0])
    for i, m in enumerate(part.maps):
        for x in np.linspace(0.05, 0.95, 7):
            assert part.locate(m(x)) == i


@given(
    st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=3,
        max_size=10,
        unique=True,
    )
)
@settings(max_examples=100, deadline=None)
def test_from_knots_properties(raw):
    knots = sorted(raw)
    if min(b - a for a, b in zip(knots, knots[1:])) < 1e-6:
        return  # nearly coincident knots are numerically degenerate
    part = from_knots(knots)
    widths = [m.image(part.x_lo, part.x_hi) for m in part.maps]
    total = sum(hi - lo for lo, hi in widths)
    assert abs(total - part.span) < 1e-12 * max(1.0, part.span)
    for (_, hi), (lo, _) in zip(widths, widths[1:]):
        assert abs(hi - lo) < 1e-9 * part.span
    assert all(0.0 < m.lip < 1.0 for m in part.maps)
    assert part.max_lip < 1.0


@given(
    st.floats(min_value=-0.99, max_value=0.99).filter(lambda a: abs(a) > 1e-6),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_inverse_round_trip(a, b, x):
    m = AffineMap(a, b)
    # rounding of a*x + b is amplified by 1/|a| on the way back
    conditioning = (abs(b) + abs(a * x) + abs(x)) / abs(a)
    assert m.inverse(m(x)) == pytest.approx(x, abs=1e-14 * max(1.0, conditioning))


def test_inverse_examples():
    m = AffineMap(0.5, 0.5)
    assert m.inverse(0.75) == 0.5
    assert AffineMap(0.25, 0.0).inverse(0.125) == 0.5


def test_inverse_round_trip_bulk(rng):
    m = AffineMap(0.37, -1.2)
    xs = rng.uniform(-5, 5, size=1000)
    assert np.max(np.abs(m.inverse(m(xs)) - xs)) < 1e-14 * 5
