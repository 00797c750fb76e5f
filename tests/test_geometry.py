import math
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtdirac.geometry import (
    REGIONS,
    Configuration,
    Region,
    classify,
    region_masks,
    regions,
    sample_spacelike,
    spacelike_margin,
)

coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def test_classify_each_region():
    assert classify(Configuration(0.0, 0.0, 0.0, 1.0)) is Region.OMEGA1
    assert classify(Configuration(0.0, 1.0, 0.0, 0.0)) is Region.OMEGA2
    assert classify(Configuration(0.3, 0.5, 0.3, 0.5)) is Region.COINCIDENCE
    assert classify(Configuration(0.0, 0.0, 1.0, 1.0)) is Region.LIGHTLIKE
    assert classify(Configuration(0.0, 0.0, 2.0, 1.0)) is Region.TIMELIKE
    # a tiny separation far from the origin is still exact: no tolerance
    almost = Configuration(100.0, 100.0 + 1e-9, 100.0, 100.0)
    assert classify(almost) is Region.OMEGA2


def test_regions_on_exact_edge_rows():
    rows = [
        ((0.3, 0.5, 0.3, 0.5), Region.COINCIDENCE),
        ((0.0, -0.0, -0.0, 0.0), Region.COINCIDENCE),  # -0.0 equals 0.0
        ((-0.0, 1.5, 0.0, 1.5), Region.COINCIDENCE),
        ((0.25, 0.5, -0.5, -0.25), Region.LIGHTLIKE),  # dz = dt, dyadic
        ((0.25, -1.0, -0.5, -0.25), Region.LIGHTLIKE),  # dz = -dt
        ((0.75, 0.125, 0.0, 0.875), Region.LIGHTLIKE),
        ((1.0, 0.0, 0.0, 0.5), Region.TIMELIKE),
        ((0.0, -0.0, 0.0, 0.5), Region.OMEGA1),
        ((0.0, 0.5, -0.0, 0.0), Region.OMEGA2),
    ]
    pts = np.array([p for p, _ in rows]).T
    got = [REGIONS[k] for k in regions(*pts)]
    assert got == [r for _, r in rows]
    assert [classify(Configuration(*p)) for p, _ in rows] == got


def test_regions_flags_nonfinite_coordinates():
    nan, inf = math.nan, math.inf
    t1 = np.array([nan, 0.0, 0.0, -inf, 0.0, 1e200, 0.0])
    z1 = np.array([0.0, inf, 0.0, 0.0, 0.0, 1e200, 1.5e308])
    t2 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1e200, 0.0])
    z2 = np.array([1.0, 0.0, nan, 2.0, 1.0, -1e200, -1.5e308])
    labels = [REGIONS[k] for k in regions(t1, z1, t2, z2)]
    # row 6 is finite and exactly light-like, though its squares overflow;
    # row 7 has finite coordinates whose difference overflows
    expected = [Region.NONFINITE] * 4 + [Region.OMEGA1, Region.LIGHTLIKE, Region.NONFINITE]
    assert labels == expected


def exact_region(t1, z1, t2, z2) -> Region:
    """The region from the exact interval of the rounded coordinate differences."""
    dt, dz = t1 - t2, z1 - z2
    if not (math.isfinite(dt) and math.isfinite(dz)):
        return Region.NONFINITE
    if dt == 0.0 and dz == 0.0:
        return Region.COINCIDENCE
    interval = Fraction(dt) ** 2 - Fraction(dz) ** 2
    if interval == 0:
        return Region.LIGHTLIKE
    if interval > 0:
        return Region.TIMELIKE
    return Region.OMEGA1 if dz < 0.0 else Region.OMEGA2


# every finite magnitude: subnormal, around 1, and beyond 1e154, where squares overflow
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(any_finite, any_finite, any_finite, any_finite)
@example(0.25, 1e300, 0.5, -1.0)  # squaring dz overflowed
@example(0.0, 0.0, 1e-200, 2e-200)  # squares underflowed to a tie: Omega1
@example(0.0, 0.0, 2e-200, 1e-200)  # likewise: time-like
@example(0.0, 0.0, 1e200, 1e250)  # inf - inf of the squares: Omega1
@example(5e-324, 0.0, 0.0, 5e-324)  # light-like at the smallest subnormal
@example(1e308, 0.0, -1e308, 0.0)  # dt overflows
def test_regions_match_exact_interval_at_every_magnitude(t1, z1, t2, z2):
    expected = exact_region(t1, z1, t2, z2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        label = REGIONS[regions(t1, z1, t2, z2)]
        assert label is expected
        if expected is not Region.NONFINITE:
            m1, m2, bad = region_masks(t1, z1, t2, z2)
            assert bool(m1) == (expected is Region.OMEGA1)
            assert bool(m2) == (expected is Region.OMEGA2)
            assert bool(bad) == (expected not in (Region.OMEGA1, Region.OMEGA2))


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        Configuration(math.nan, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Configuration(0.0, math.inf, 0.0, 1.0)


@given(coord, coord, coord, coord)
def test_region_masks_agree_with_classify(t1, z1, t2, z2):
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    label = regions(t1, z1, t2, z2)
    reg = classify(Configuration(t1, z1, t2, z2))
    assert label.shape == () and REGIONS[label] is reg
    assert bool(m1) == (reg is Region.OMEGA1)
    assert bool(m2) == (reg is Region.OMEGA2)
    assert bool(bad) == (reg not in (Region.OMEGA1, Region.OMEGA2))
    # the array form gives the same label in a batch
    batch = regions(*(np.array([v, 0.0]) for v in (t1, z1, t2, z2)))
    assert batch[0] == label


def test_margin_bounds_perturbations():
    # moving any single coordinate by less than the margin cannot change
    # the region or cross a characteristic seam
    rng = np.random.default_rng(3)
    t1, z1, t2, z2 = sample_spacelike(rng, 200, (-2, 2), (-3, 3), margin=1e-3)
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    assert not bad.any()
    for k in range(t1.size):
        c = Configuration(t1[k], z1[k], t2[k], z2[k])
        m = spacelike_margin(*astuple(c))
        assert isinstance(m, float) and m > 1e-3
        step = 0.9 * m
        for dt1, dz1 in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            moved = Configuration(c.t1 + dt1, c.z1 + dz1, c.t2, c.z2)
            assert classify(moved) is classify(c)


def test_margin_is_zero_on_the_light_cone():
    assert spacelike_margin(0.0, 0.0, 1.0, 1.0) == 0.0
    assert spacelike_margin(0.5, 0.0, 0.0, 0.5) == 0.0


def test_sample_spacelike_respects_region_and_margin():
    rng = np.random.default_rng(11)
    draw = sample_spacelike(rng, 1000, (-1, 1), (-2, 2), margin=0.05)
    m1, _, bad = region_masks(*draw)
    assert draw[0].shape == (1000,) and not bad.any()
    assert 400 < m1.sum() < 600  # both halves are drawn
    t1, z1, t2, z2 = (a[m1] for a in draw)  # a caller keeps one half by its mask
    assert (spacelike_margin(t1, z1, t2, z2) > 0.05).all()
    for k in range(0, t1.size, 17):
        c = Configuration(t1[k], z1[k], t2[k], z2[k])
        assert spacelike_margin(*astuple(c)) == spacelike_margin(t1, z1, t2, z2)[k]


def test_sample_spacelike_gives_up_on_impossible_box():
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError):
        sample_spacelike(rng, 10, (-1, 1), (-1, 1), margin=10.0)
