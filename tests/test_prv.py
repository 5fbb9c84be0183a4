"""Phased sub-array initializer: split choice, phasing, coverage."""

import numpy as np
import pytest

from widebeam import SystemConfig, divide_zones
from widebeam.array_model import composite_gain, gain_floor
from widebeam.prv import COVERAGE_GRID, prv_beam, prv_plan


def block_responses(plan, w, t):
    """Response of each length-N_s block of w at composite point t, with the
    inter-block propagation phase carried by the global element index."""
    k = np.arange(plan.n)
    phased = w * np.exp(-1j * np.pi * k * t)
    return phased.reshape(plan.Z, plan.N_s).sum(axis=1)


class TestPlan:
    def test_hand_worked_split(self):
        # N=16 over a width-0.5 window: sqrt(0.5*16/2) = 2 sub-arrays of 8,
        # second block phased by 7*pi/8
        plan = prv_plan(16, 0.5)
        assert (plan.Z, plan.N_s) == (2, 8)
        assert plan.thetas[0] == 0.0
        assert plan.thetas[1] == pytest.approx(7 * np.pi / 8, abs=1e-15)
        assert plan.pointing == pytest.approx([-0.125, 0.125], abs=1e-15)
        assert plan.intersections[0] == pytest.approx(0.0, abs=1e-15)

    def test_narrow_window_keeps_single_block(self):
        assert prv_plan(16, 2.0 / 16).Z == 1
        assert prv_plan(16, 0.0).Z == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16, 49, 64, 97, 100, 128, 381,
                                   1000, 1024, 2048, 4093, 4095, 4096])
    def test_divisor_search_keeps_single_block_up_to_two_over_n(self, n):
        # no shortcut for delta_omega <= 2/n: the divisor search itself
        # gives Z = 1 there, since fl(fl(2/n)*n) <= 2, and past 2/n it gives
        # the split that a Z = 1 shortcut up to 2/n followed by the search
        # would give
        def split(delta):
            if delta <= 2.0 / n:
                return 1
            z_min = np.sqrt(delta * n / 2.0)
            return next((z for z in range(1, n + 1) if n % z == 0 and z >= z_min), n)

        edge = 2.0 / n
        below = [0.0, edge, np.nextafter(edge, 0.0), edge / 2]
        assert all(prv_plan(n, delta).Z == 1 for delta in below)
        others = [np.nextafter(edge, np.inf), *np.random.default_rng(n).uniform(0.0, 4.0 / n, 8)]
        for delta in below + others:
            assert prv_plan(n, delta).Z == split(delta), delta

    @pytest.mark.parametrize("n,width", [(16, 0.3), (16, 0.9), (32, 0.5),
                                         (24, 0.7), (64, 1.4), (12, 1.9)])
    def test_split_rules(self, n, width):
        plan = prv_plan(n, width)
        assert n % plan.Z == 0
        if plan.Z > 1:
            assert plan.Z >= np.sqrt(width * n / 2.0)
            # smallest qualifying divisor
            smaller = [z for z in range(1, plan.Z) if n % z == 0]
            assert all(z < np.sqrt(width * n / 2.0) for z in smaller)
        assert plan.pointing.shape == (plan.Z,)
        spacing = np.diff(plan.pointing)
        assert np.allclose(spacing, width / plan.Z, atol=1e-12)

    def test_window_wider_than_two_n_takes_single_elements(self):
        # no divisor of n reaches sqrt(width*n/2) once width > 2n
        plan = prv_plan(1, 2.0 + 10e9 / 140e9)
        assert (plan.Z, plan.N_s) == (1, 1)
        assert prv_plan(2, 4.5).Z == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prv_plan(0, 0.5)
        with pytest.raises(ValueError):
            prv_plan(16, -0.1)

    def test_arrays_read_only(self):
        plan = prv_plan(16, 0.5)
        with pytest.raises(ValueError):
            plan.thetas[0] = 1.0


class TestBeam:
    def test_constant_modulus(self):
        w = prv_beam(prv_plan(16, 0.5)).weights
        assert np.abs(np.abs(w) - 1 / 4).max() < 1e-15

    def test_window_coverage_positive(self):
        for n, width in [(16, 0.5), (32, 0.8), (64, 1.2)]:
            w = prv_beam(prv_plan(n, width)).weights
            grid = np.linspace(-width / 2, width / 2, 801)
            assert composite_gain(w, grid).min() > 0

    def test_null_computed_to_rounding_is_a_null(self):
        # N=16, one zone at B=10 GHz: the plan's pattern is zero at the
        # window's end, which the coverage grid computes as about 1e-30
        with pytest.raises(RuntimeError, match="null inside its window"):
            prv_beam(prv_plan(16, 2.0714285714))

    @pytest.mark.parametrize("seed", range(8))
    def test_coverage_floor_is_the_exp_oracle_floor(self, seed):
        # the doubled steering table against composite_gain's per-entry exp,
        # on windows narrower than one period of the pattern: the centred
        # coverage window, and asymmetric windows inside it, as the per-zone
        # minima take them
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.choice([4, 8, 12, 16, 32, 64, 128, 256]))
            plan = prv_plan(n, rng.uniform(0.0, 1.9))
            w = prv_beam(plan).weights
            half = min(plan.intersections[-1], 1.0)
            lo, hi = np.sort(rng.uniform(-half, half, 2))
            for a, b in [(-half, half), (lo, hi), (half / 3, half), (-half, 0.0)]:
                expect = composite_gain(w, np.linspace(a, b, COVERAGE_GRID)).min()
                assert gain_floor(w, a, b, COVERAGE_GRID) == pytest.approx(
                    expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 64, 256])
    def test_one_zone_null_at_even_n(self, n):
        # one zone at B=10 GHz: the even-N stack has a null in its window,
        # which the table floor must still see (CLI exit 3); odd N has none
        cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=1)
        plan = prv_plan(n, divide_zones(cfg).delta_omega)
        if n % 2:
            assert prv_beam(plan).n == n
        else:
            with pytest.raises(RuntimeError, match="null inside its window"):
                prv_beam(plan)

    def test_in_phase_at_intersections(self):
        # adjacent block responses must add coherently where their patterns
        # cross; the pattern is mirror symmetric so check both signs
        for n, width in [(16, 0.5), (16, 0.9), (32, 0.8), (64, 1.2)]:
            plan = prv_plan(n, width)
            assert plan.Z >= 2
            w = prv_beam(plan).weights
            for t in plan.intersections[:-1]:
                for point in (t, -t):
                    resp = block_responses(plan, w, point)
                    top = np.argsort(np.abs(resp))[-2:]
                    dphi = np.angle(resp[top[0]] * np.conj(resp[top[1]]))
                    dphi = min(abs(dphi), 2 * np.pi - abs(dphi))
                    assert dphi <= 1e-9

    def test_phasing_beats_unphased_stack(self):
        # zeroing the offsets leaves trenches at the crossings
        plan = prv_plan(16, 0.5)
        w = prv_beam(plan).weights
        k = np.arange(plan.N_s)
        flat = np.concatenate([np.exp(-1j * np.pi * k * p) for p in plan.pointing])
        w0 = np.conj(flat) / np.sqrt(plan.n)
        for t in plan.intersections[:-1]:
            assert (composite_gain(w, np.array([t]))[0]
                    > composite_gain(w0, np.array([t]))[0])

    def test_matched_when_single_block(self):
        plan = prv_plan(16, 0.1)
        w = prv_beam(plan).weights
        k = np.arange(16)
        expect = np.exp(1j * np.pi * k * plan.pointing[0]) / 4.0
        assert np.abs(w - expect).max() < 1e-15
