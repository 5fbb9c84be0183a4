"""Uniform-sine codebook and its closed-form wideband analysis."""

import warnings

import numpy as np
import pytest

from widebeam import SystemConfig, narrowband_codebook, prop1_worst_case, prop2_optimal_N
from widebeam import narrowband
from widebeam.array_model import composite_gain, dirichlet_power, steering_composite
from widebeam.narrowband import (N_STAR_COEFF, X_STAR, aligned_beam_wideband_gain,
                                 prop1_zero_limit)


def cfg(n=16, l=32, b=10e9):
    return SystemConfig(f_c=140e9, B=b, N=n, L=l)


class TestCodebook:
    def test_two_beam_centers(self):
        book = narrowband_codebook(cfg(n=2, l=2))
        for w, s in zip(book.weights, (-0.5, 0.5)):
            expect = steering_composite(2, s) / np.sqrt(2)
            assert np.abs(w - expect).max() < 1e-15

    def test_beams_are_matched_response_vectors(self):
        book = narrowband_codebook(cfg())
        for l, w in enumerate(book.weights, start=1):
            s = (2 * l - 1) / 32 - 1
            expect = steering_composite(16, s) / 4.0
            assert np.abs(w - expect).max() < 1e-12

    def test_partition_ignores_bandwidth(self):
        # beam placement is uniform in sine regardless of B; only the
        # wideband evaluation sees the squint
        book = narrowband_codebook(cfg(b=18e9))
        exact = np.arcsin(-1 + 2 * np.arange(33) / 32)
        exact[0], exact[-1] = -np.pi / 2, np.pi / 2
        assert np.abs(book.partition.boundaries - exact).max() <= 1e-12


class TestZeroBandWorstCase:
    def test_is_the_edge_of_a_beam(self):
        c = cfg(n=16, l=200, b=0.0)
        assert prop1_worst_case(c).worst_case_gain == pytest.approx(
            dirichlet_power(1.0 / 200, 16) / 16, rel=1e-15)

    def test_frozen_value(self):
        got = prop1_worst_case(cfg(n=16, l=200, b=0.0)).worst_case_gain
        assert got == pytest.approx(15.9162837665142, abs=1e-10)

    def test_agrees_with_dense_sweep(self):
        c = cfg(n=16, l=64, b=0.0)
        book = narrowband_codebook(c)
        W = book.weights
        sines = np.linspace(-1, 1, 8193)
        gains = np.abs(W @ np.exp(-1j * np.pi * np.outer(np.arange(16), sines))) ** 2
        sweep_worst = gains.max(axis=0).min()
        assert sweep_worst == pytest.approx(prop1_worst_case(c).worst_case_gain, rel=1e-2)


class TestWorstCaseWithSquint:
    def test_frozen_values(self):
        got = prop1_worst_case(cfg(n=16, l=200))
        assert got.worst_case_gain == pytest.approx(11.1548000347714, abs=1e-10)
        assert prop1_worst_case(cfg(n=16, l=32)).worst_case_gain == pytest.approx(
            5.59857312575272, abs=1e-10)

    def test_too_many_antennas_gives_zero(self):
        # past N = 4 f_c L / (2 f_c + B L) the edge beam's band minimum
        # crosses its first null
        assert prop1_worst_case(cfg(n=30, l=200, b=18e9)).worst_case_gain == 0.0
        assert prop1_zero_limit(140e9, 18e9, 200) < 30

    def test_matches_grid_sweep(self):
        from widebeam import evaluate
        c = SystemConfig(f_c=140e9, B=10e9, N=16, L=64, n_angle=4096, n_freq=513)
        worst = evaluate(c, narrowband_codebook(c)).worst_case
        closed = prop1_worst_case(c).worst_case_gain
        assert worst == pytest.approx(closed, rel=0.02)

    def test_warns_fewer_beams_than_antennas(self):
        # the closed form warns, not the config: L < N designs run silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = cfg(n=16, l=8)
        with pytest.warns(UserWarning, match="fewer beams"):
            prop1_worst_case(c)

    def test_more_bandwidth_never_helps(self):
        vals = [prop1_worst_case(cfg(n=16, l=200, b=b)).worst_case_gain
                for b in (0.0, 2e9, 10e9, 18e9)]
        assert np.all(np.diff(vals) < 0)


class TestAlignedBeamGain:
    def test_matches_band_edge_evaluation(self):
        c = cfg(n=8, l=16)
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi_m = float(rng.uniform(-1.2, 1.2))
            phi = float(rng.uniform(-1.2, 1.2))
            u = c.f_c * abs(np.sin(phi_m) - np.sin(phi)) + c.B / 2 * abs(np.sin(phi))
            if u > 2 * c.f_c / c.N:
                continue
            w = steering_composite(8, np.sin(phi_m)) / np.sqrt(8)
            brute = min(
                composite_gain(w, np.array([(1 + f / c.f_c) * np.sin(phi)]))[0]
                for f in c.frequency_grid())
            assert aligned_beam_wideband_gain(c, phi_m, phi) == pytest.approx(
                brute, rel=1e-6)

    def test_beam_aimed_at_endfire(self):
        assert aligned_beam_wideband_gain(cfg(), np.pi / 2, np.pi / 2) == pytest.approx(
            12.1517348822053, abs=1e-10)


class TestOptimalN:
    def test_frozen_candidates(self):
        (lo, hi), best = prop2_optimal_N(140e9, 10e9, 200)
        assert (lo, hi) == (18, 19)
        assert best in (18, 19)

    def test_candidates_bracket_the_exhaustive_argmax(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            f_c = float(rng.uniform(70e9, 300e9))
            b = float(rng.uniform(1e9, 20e9))
            l = int(rng.integers(20, 300))
            (lo, hi), best = prop2_optimal_N(f_c, b, l)
            n_max = int(np.ceil(4 * f_c * l / (2 * f_c + b * l)))
            gains = [narrowband._prop1_gain(f_c, b, n, l) for n in range(1, n_max)]
            argmax = 1 + int(np.argmax(gains))
            assert argmax in (lo, hi)
            assert best == argmax

    def test_coefficient_is_load_bearing(self, monkeypatch):
        # nudging the sizing coefficient must break the argmax bracket,
        # otherwise the tests above prove nothing about it
        monkeypatch.setattr(narrowband, "N_STAR_COEFF", 1.3)
        (lo, hi), _ = prop2_optimal_N(140e9, 10e9, 200)
        gains = [narrowband._prop1_gain(140e9, 10e9, n, 200) for n in range(1, 200)]
        argmax = 1 + int(np.argmax(gains))
        assert argmax not in (lo, hi)

    def test_degenerate_small_arrays_clamp_to_one(self):
        (lo, hi), best = prop2_optimal_N(1e9, 20e9, 300)
        assert lo >= 1 and best >= 1


def test_sizing_constants():
    # X_STAR rounds the positive root of tan x = 2x; N_STAR_COEFF is
    # 4 X_STAR / pi rounded once more, both pinned to three decimals
    lo, hi = 1.1, 1.4
    for _ in range(80):
        mid = (lo + hi) / 2
        if np.tan(mid) - 2 * mid < 0:
            lo = mid
        else:
            hi = mid
    assert hi - lo < 1e-9
    assert round(lo, 3) == X_STAR == 1.166
    assert round(4 * X_STAR / np.pi, 3) == N_STAR_COEFF == 1.485
