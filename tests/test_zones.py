"""Zone division: the closed-form equal-width partition, checked zone by
zone against virtual_interval and against widths frozen from the bisection
that preceded it."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widebeam import SystemConfig, divide_zones, prop3_upper_bound
from widebeam.zones import (PartitionLimitError, ZonePartition, virtual_interval,
                            zone_intervals)

# frozen by running the bisection once and keeping 15 digits; the L=1 value
# has a closed form 2*(1 + B/(2*f_c)) = 2.0714285714285716
DELTA_OMEGA = {
    (1, 10e9): 2.07142857142864,
    (4, 10e9): 0.536352040816543,
    (32, 10e9): 0.104849512618884,
    (48, 10e9): 0.087103870860816,
    (64, 10e9): 0.0795066479754944,
    (128, 10e9): 0.0721736251015171,
    (200, 10e9): 0.0714849080747575,
    (200, 18e9): 0.128571757914358,
    (200, 2e9): 0.0187882216920842,
}


def make(L, B=10e9, N=16):
    return SystemConfig(f_c=140e9, B=B, N=N, L=L)


@pytest.mark.parametrize("key", sorted(DELTA_OMEGA))
def test_frozen_widths(key):
    L, B = key
    part = divide_zones(make(L, B))
    assert part.delta_omega == pytest.approx(DELTA_OMEGA[key], abs=1e-11)


def test_single_zone_closed_form():
    part = divide_zones(make(1))
    assert part.delta_omega == pytest.approx(2 * (1 + 10e9 / 280e9), abs=1e-11)


@pytest.mark.parametrize("L", [1, 4, 32, 200])
@pytest.mark.parametrize("B", [0.0, 10e9])
def test_partition_invariants(L, B):
    cfg = make(L, B)
    part = divide_zones(cfg)
    b = part.boundaries
    assert b.shape == (L + 1,)
    assert b[0] == -np.pi / 2
    assert abs(b[-1] - np.pi / 2) <= 1e-12
    assert np.all(np.diff(b) > 0)
    # every zone has the common virtual width
    for l in range(L):
        lo, hi = virtual_interval(cfg, b[l], b[l + 1])
        assert hi - lo == pytest.approx(part.delta_omega, abs=1e-9)
        assert part.intervals[l] == pytest.approx((lo, hi), abs=1e-12)
    # the construction sweeps left to right but the geometry is mirror
    # symmetric, so boundaries must come out (nearly) antisymmetric
    assert np.abs(b + b[::-1]).max() <= 1e-6


def test_zero_band_is_exact_arcsine():
    cfg = make(200, 0.0)
    part = divide_zones(cfg)
    exact = np.arcsin(-1 + 2 * np.arange(201) / 200)
    exact[0], exact[-1] = -np.pi / 2, np.pi / 2
    assert np.abs(part.boundaries - exact).max() <= 1e-12


def test_virtual_interval_three_cases():
    cfg = make(32)
    b2 = 10e9 / 280e9
    lo, hi = virtual_interval(cfg, 0.2, 0.5)           # entirely positive
    assert lo == pytest.approx((1 - b2) * np.sin(0.2), abs=1e-15)
    assert hi == pytest.approx((1 + b2) * np.sin(0.5), abs=1e-15)
    lo, hi = virtual_interval(cfg, -0.5, -0.2)         # entirely negative
    assert lo == pytest.approx((1 + b2) * np.sin(-0.5), abs=1e-15)
    assert hi == pytest.approx((1 - b2) * np.sin(-0.2), abs=1e-15)
    lo, hi = virtual_interval(cfg, -0.3, 0.4)          # straddles broadside
    assert lo == pytest.approx((1 + b2) * np.sin(-0.3), abs=1e-15)
    assert hi == pytest.approx((1 + b2) * np.sin(0.4), abs=1e-15)


@given(st.integers(1, 60), st.floats(0.0, 20e9))
# bands near double resolution of f_c, a denormal B/(2 f_c), and one that
# underflows to 0 and takes the b -> 0 limit
@example(L=30, B=1e-9)
@example(L=55, B=1.3788828136375911e-303)
@example(L=45, B=1e-6)
@example(L=1, B=5e-324)
@settings(max_examples=60, deadline=None)
def test_division_closes_for_any_shape(L, B):
    part = divide_zones(make(L, B, N=8))
    assert abs(part.boundaries[-1] - np.pi / 2) <= 1e-12
    widths = part.intervals[:, 1] - part.intervals[:, 0]
    assert np.abs(widths - part.delta_omega).max() <= 1e-12 * part.delta_omega


@pytest.mark.parametrize("L,B", [(1, 10e9), (32, 10e9), (33, 2e9), (200, 18e9)])
def test_banded_intervals_match_the_zone_by_zone_loop(L, B):
    cfg = make(L, B)
    rng = np.random.default_rng(L)
    # a partition's own boundaries, and random ones with an edge exactly at 0
    for b in (divide_zones(cfg).boundaries,
              np.unique(np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, L),
                                        [-np.pi / 2, 0.0, np.pi / 2]]))):
        loop = np.array([virtual_interval(cfg, b[l], b[l + 1]) for l in range(b.size - 1)])
        assert np.array_equal(zone_intervals(cfg, b, "banded"), loop)
    with pytest.raises(ValueError, match="degenerate zone"):
        zone_intervals(cfg, np.array([-1.0, 0.2, 0.2, 1.0]), "banded")


def test_centers_are_virtual_midpoints():
    part = divide_zones(make(32))
    c = part.centers()
    assert np.allclose(c, part.intervals.mean(axis=1), atol=0)
    assert np.all(np.diff(c) > 0)
    assert part.n_zones == 32


def test_upper_bound_is_two_over_width():
    part = divide_zones(make(32))
    assert prop3_upper_bound(part) == pytest.approx(2.0 / part.delta_omega, rel=1e-15)


def test_single_zone_wider_than_a_period_caps_the_bound_at_one():
    # the one zone's image, 2 + B/f_c wide, holds a whole period of the
    # pattern, whose mean is 1
    assert prop3_upper_bound(divide_zones(make(1))) == 1.0
    assert prop3_upper_bound(divide_zones(make(1, 0.0))) == 1.0


@pytest.mark.parametrize("L, B", [(1024, 10e9), (544, 18e9), (22, 270e9)])
def test_partition_beyond_double_precision_is_named(L, B):
    with pytest.raises(PartitionLimitError,
                       match=re.escape(f"L={L} zones at B={B:g} Hz") + ".*double precision"):
        divide_zones(make(L, B))


@pytest.mark.parametrize("L, B", [(520, 18e9), (20, 270e9)])
def test_partitions_just_inside_double_precision_have_equal_widths(L, B):
    # the last zones here are a few ulps of sin(phi) wide, but the closed
    # form still resolves them
    cfg = make(L, B)
    part = divide_zones(cfg)
    assert np.all(np.diff(part.boundaries) > 0)
    widths = [np.diff(virtual_interval(cfg, lo, hi))[0]
              for lo, hi in zip(part.boundaries[:-1], part.boundaries[1:])]
    assert np.abs(np.array(widths) - part.delta_omega).max() <= 1e-14 * part.delta_omega


@pytest.mark.parametrize("L", [17, 512])
@pytest.mark.parametrize("B", [10e9, 18e9])
def test_banded_boundaries_are_exactly_antisymmetric(L, B):
    b = divide_zones(make(L, B)).boundaries
    assert np.array_equal(np.sin(b) + np.sin(b[::-1]), np.zeros(L + 1))


@pytest.mark.parametrize("B", [10e9, 18e9])
def test_large_partitions_still_close(B):
    part = divide_zones(make(512, B))
    assert part.boundaries[-1] == np.pi / 2
    assert np.all(np.diff(part.boundaries) > 0)


def test_wider_band_needs_wider_zones():
    assert (divide_zones(make(200, 18e9)).delta_omega
            > divide_zones(make(200, 10e9)).delta_omega
            > divide_zones(make(200, 2e9)).delta_omega
            > divide_zones(make(200, 0.0)).delta_omega)


def test_partition_names_its_interval_mapping():
    banded, sine = divide_zones(make(16)), divide_zones(make(16, B=0.0))
    assert (banded.mapping, sine.mapping) == ("banded", "sine")
    assert np.array_equal(banded.intervals,
                          zone_intervals(make(16), banded.boundaries, "banded"))
    assert np.array_equal(sine.intervals,
                          zone_intervals(make(16), sine.boundaries, "sine"))
    with pytest.raises(ValueError, match="mapping"):
        ZonePartition(banded.boundaries, banded.delta_omega, banded.intervals, "cosine")
