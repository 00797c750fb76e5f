import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
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
    t1 = np.array([nan, 0.0, 0.0, -inf, 0.0, 1e200])
    z1 = np.array([0.0, inf, 0.0, 0.0, 0.0, 1e200])
    t2 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1e200])
    z2 = np.array([1.0, 0.0, nan, 2.0, 1.0, -1e200])
    labels = [REGIONS[k] for k in regions(t1, z1, t2, z2)]
    # the last row is finite, but its interval is inf - inf
    assert labels == [Region.NONFINITE] * 4 + [Region.OMEGA1, Region.NONFINITE]


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
    t1, z1, t2, z2 = sample_spacelike(
        rng, 500, (-1, 1), (-2, 2), margin=0.05, region=Region.OMEGA1
    )
    assert t1.shape == (500,)
    m1, _, _ = region_masks(t1, z1, t2, z2)
    assert m1.all()
    assert (spacelike_margin(t1, z1, t2, z2) > 0.05).all()
    for k in range(0, 500, 17):
        c = Configuration(t1[k], z1[k], t2[k], z2[k])
        assert spacelike_margin(*astuple(c)) == spacelike_margin(t1, z1, t2, z2)[k]


def test_sample_spacelike_rejects_bad_region():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_spacelike(rng, 10, (-1, 1), (-1, 1), region=Region.TIMELIKE)


def test_sample_spacelike_gives_up_on_impossible_box():
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError):
        sample_spacelike(rng, 10, (-1, 1), (-1, 1), margin=10.0)
