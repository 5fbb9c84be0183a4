"""Core types, steering, and the Dirichlet gain kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widebeam.array_model import (
    BeamVector,
    SystemConfig,
    beam_gain,
    codebook_gain,
    composite_gain,
    delay_spread,
    dirichlet_power,
    min_cp,
    path_loss,
    steering,
    steering_composite,
    wideband_beam_gain,
)


def matched(n, u=0.0):
    return BeamVector(steering_composite(n, u) / np.sqrt(n))


class TestSystemConfig:
    def test_defaults_and_grid(self, cfg16):
        f = cfg16.frequency_grid()
        assert f.size == cfg16.n_freq == 257
        assert f[0] == -5e9 and f[-1] == 5e9
        assert cfg16.solver_grid_size == 2 * cfg16.N

    def test_explicit_m_wins(self):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=16, L=32, M=77)
        assert cfg.solver_grid_size == 77

    @pytest.mark.parametrize("kw", [
        dict(f_c=0.0), dict(B=-1.0), dict(N=0), dict(L=0), dict(M=1),
        dict(n_freq=0), dict(n_angle=0), dict(B=300e9),  # band must fit under f_c
    ])
    def test_rejects_bad_values(self, kw):
        base = dict(f_c=140e9, B=10e9, N=16, L=32)
        base.update(kw)
        with pytest.raises(ValueError):
            SystemConfig(**base)

    def test_warns_fewer_beams_than_antennas(self):
        with pytest.warns(UserWarning, match="fewer beams"):
            SystemConfig(f_c=140e9, B=10e9, N=16, L=8)


class TestBeamVector:
    def test_accepts_constant_modulus(self):
        w = matched(8)
        assert w.n == 8
        assert not w.weights.flags.writeable

    def test_rejects_modulus_violation(self):
        bad = steering_composite(8, 0.0) / np.sqrt(8)
        bad[3] *= 1.0 + 1e-6
        with pytest.raises(ValueError):
            BeamVector(bad)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            BeamVector(np.ones((2, 2), dtype=complex) / np.sqrt(2))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(1, np.nan),
                                     complex(np.inf, 0)])
    def test_rejects_non_finite_weight(self, bad):
        # a NaN deviation compares False against the tolerance either way
        with pytest.raises(ValueError, match="constant-modulus"):
            BeamVector(np.array([bad]))


class TestSteering:
    def test_first_entry_is_one(self, cfg16):
        sv = steering(cfg16, 5e9, 0.3)
        assert sv.entries[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(sv.entries), 1.0)

    def test_composite_value(self, cfg16):
        sv = steering(cfg16, 5e9, 0.3)
        assert sv.composite == pytest.approx((1 + 5e9 / 140e9) * np.sin(0.3), abs=1e-15)

    def test_phase_progression(self, cfg16):
        sv = steering(cfg16, -5e9, -0.2)
        k = np.arange(cfg16.N)
        assert np.allclose(sv.entries, np.exp(1j * np.pi * k * sv.composite), atol=1e-12)

    def test_rejects_out_of_band(self, cfg16):
        with pytest.raises(ValueError):
            steering(cfg16, 6e9, 0.0)
        with pytest.raises(ValueError):
            steering(cfg16, 0.0, 2.0)


class TestDirichletPower:
    @given(st.integers(1, 32), st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_sum(self, n, u):
        direct = np.abs(np.exp(1j * np.pi * np.arange(n) * u).sum()) ** 2
        assert dirichlet_power(u, n) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @given(st.integers(1, 32), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_even_and_periodic(self, n, u):
        assert dirichlet_power(-u, n) == pytest.approx(dirichlet_power(u, n), rel=1e-12, abs=1e-12)
        assert dirichlet_power(u + 2.0, n) == pytest.approx(dirichlet_power(u, n), rel=1e-9, abs=1e-9)

    def test_peak_and_null(self):
        assert dirichlet_power(0.0, 16) == pytest.approx(256.0, abs=1e-9)
        assert dirichlet_power(2.0 / 16, 16) == pytest.approx(0.0, abs=1e-18)

    def test_removable_singularity_at_period(self):
        # u = 2 wraps onto the main peak, not a 0/0
        assert dirichlet_power(2.0, 7) == pytest.approx(49.0, abs=1e-9)


class TestGains:
    def test_matched_beam_peak_gain_is_n(self):
        # single matched beam, no band spread, evaluated at its own center
        cfg = SystemConfig(f_c=140e9, B=0.0, N=16, L=16)
        w = matched(16, 0.25)
        assert wideband_beam_gain(cfg, np.arcsin(0.25), w) == pytest.approx(16.0, abs=1e-9)

    def test_single_frequency_gain_closed_form(self):
        # matched beam off its center: the Dirichlet kernel gives the exact value
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=8)
        w = matched(8, np.sin(np.radians(30)))
        f = 5e9
        u = (1 + f / cfg.f_c) * np.sin(np.radians(35))
        expect = dirichlet_power(u - np.sin(np.radians(30)), 8) / 8
        assert beam_gain(cfg, f, np.radians(35), w) == pytest.approx(expect, abs=1e-9)

    def test_wideband_gain_is_band_minimum(self, cfg16):
        w = matched(16, 0.1)
        phi = 0.4
        per_f = [beam_gain(cfg16, f, phi, w) for f in cfg16.frequency_grid()]
        assert wideband_beam_gain(cfg16, phi, w) == pytest.approx(min(per_f), rel=1e-12)

    @given(st.integers(2, 24), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_gain_bounded_by_n(self, n, u):
        rng = np.random.default_rng(131 * n + int(abs(u) * 1e6) % 9973)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
        g = composite_gain(w, np.array([u]))[0]
        assert -1e-12 <= g <= n * (1 + 1e-12)

    def test_codebook_gain_first_max_one_based(self, cfg16):
        beams = [matched(16, (2 * l - 1) / 4 - 1) for l in range(1, 5)]
        g, idx = codebook_gain(cfg16, np.arcsin(-0.75), beams)
        assert idx == 1
        g2, idx2 = codebook_gain(cfg16, np.arcsin(0.75), beams)
        assert idx2 == 4
        assert g == pytest.approx(g2, rel=1e-9)  # mirror symmetric layout


class TestLinkBudget:
    def test_path_loss_value(self):
        # frozen: c/(4*pi*140e9*10) at kappa=0
        assert path_loss(140e9, 10.0) == pytest.approx(1.70405184258462e-05, rel=1e-12)
        assert path_loss(140e9, 10.0, kappa=0.1) == pytest.approx(
            1.70405184258462e-05 * np.exp(-0.5), rel=1e-12)

    def test_path_loss_validation(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 10.0)
        with pytest.raises(ValueError):
            path_loss(140e9, 10.0, kappa=-1.0)

    def test_delay_spread_and_cp(self, cfg16):
        assert delay_spread(cfg16, np.pi / 2) == pytest.approx(15 / 280e9, rel=1e-12)
        assert delay_spread(cfg16, 0.0) == 0.0
        assert min_cp(cfg16) == pytest.approx(15 / 280e9, rel=1e-12)
