"""Core types, steering, and the Dirichlet gain kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widebeam.array_model import (
    BeamVector,
    SystemConfig,
    composite_gain,
    dirichlet_power,
    phase_powers,
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

    def test_array_protocol(self):
        w = matched(8)
        view = np.asarray(w)
        assert np.shares_memory(view, w.weights) and not view.flags.writeable
        copy = np.array(w, copy=True)
        assert not np.shares_memory(copy, w.weights) and copy.flags.writeable
        assert np.array_equal(copy, w.weights)
        assert np.asarray(w, dtype=np.complex64).dtype == np.complex64
        with pytest.raises(ValueError):
            np.asarray(w, dtype=np.complex64, copy=False)
        assert np.asarray((w, matched(8, 0.5))).shape == (2, 8)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(1, np.nan),
                                     complex(np.inf, 0)])
    def test_rejects_non_finite_weight(self, bad):
        # a NaN deviation compares False against the tolerance either way
        with pytest.raises(ValueError, match="constant-modulus"):
            BeamVector(np.array([bad]))


class TestSteering:
    def test_first_entry_is_one(self):
        h = steering_composite(16, (1 + 5e9 / 140e9) * np.sin(0.3))
        assert h[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(h), 1.0)

    def test_phase_progression(self):
        u = np.array([-0.7, (1 - 5e9 / 140e9) * np.sin(-0.2), 1.3])
        k = np.arange(16)
        assert np.allclose(steering_composite(16, u), np.exp(1j * np.pi * np.outer(u, k)),
                           atol=1e-12)


class TestPhasePowers:
    @staticmethod
    def reference(n, u):
        # exp with the phase k*u reduced mod 2 exactly: split u into two
        # halves of at most 26 significant bits, so that k*hi and k*lo are
        # exact for k < 2**11 and only the final sum rounds
        c = u * (2.0 ** 27 + 1.0)
        hi = c - (c - u)
        k = np.arange(n)[:, None]
        phase = np.fmod(k * hi, 2.0) + k * (u - hi)
        return np.exp(-1j * np.pi * phase)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 1024),
           u=st.lists(st.floats(-2, 2), min_size=1, max_size=40))
    @example(n=1024, u=list(np.linspace(-2, 2, 101)))
    def test_matches_exp(self, n, u):
        u = np.array(u + [-2.0, 2.0, -1.0, 1.0, 0.0])
        E = phase_powers(n, u)
        assert np.array_equal(E[0], np.ones(u.size))
        assert np.abs(E - self.reference(n, u)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 255, 256])
    def test_matches_per_entry_exp(self, n):
        # |u| <= 2 spans the zone-center differences the codebook reader
        # shifts by.  The per-entry exp rounds its own argument pi*k*u, so
        # the two differ by a bound that grows with log2(n), 0 at n = 1
        rng = np.random.default_rng(n)
        u = np.concatenate([rng.uniform(-2, 2, 500), [-2.0, -1.0, 0.0, 1.0, 2.0]])
        expect = np.exp(-1j * np.pi * np.outer(np.arange(n), u))
        assert np.abs(phase_powers(n, u) - expect).max() <= 1e-13 * np.log2(n)


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

    @staticmethod
    def sinc_form(u, n):
        # the kernel through np.mod and np.sinc, whose floats dirichlet_power keeps
        uw = np.mod(np.asarray(u, dtype=float) + 1.0, 2.0) - 1.0
        return (n * np.sinc(n * uw / 2.0) / np.sinc(uw / 2.0)) ** 2

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1e300, -1e300, 1.7976931348623157e308,
             -1.7976931348623157e308, 2.0 ** 53, -(2.0 ** 53) - 2.0]

    @staticmethod
    def near_integer(k, ulps):
        # k moved by a few ulps either way: u + 1 lands next to an even
        # integer for odd k, and u itself for even k
        x = float(k)
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.sign(ulps) * np.inf)
        return x

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(1, 4096),
           u=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                      | st.floats(-4.0, 4.0)
                      | st.builds(near_integer.__func__, st.integers(-40, 40),
                                  st.integers(-3, 3)),
                      min_size=1, max_size=60))
    @example(n=16, u=[np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)])
    def test_bit_equal_to_the_sinc_form(self, n, u):
        u = np.array(u + self.EDGES)
        assert dirichlet_power(u, n).tobytes() == self.sinc_form(u, n).tobytes()
        grid = np.stack([u, -u])
        assert dirichlet_power(grid, n).tobytes() == self.sinc_form(grid, n).tobytes()
        for x in np.concatenate([u[:4], u[-6:]]):
            got, want = dirichlet_power(x, n), self.sinc_form(x, n)
            assert type(got) is type(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
        assert composite_gain(w.weights, u) == pytest.approx(expect, abs=1e-9)

    def test_wideband_gain_is_band_minimum(self, cfg16):
        w = matched(16, 0.1)
        phi = 0.4
        per_f = [composite_gain(w.weights, (1 + f / cfg16.f_c) * np.sin(phi))
                 for f in cfg16.frequency_grid()]
        assert wideband_beam_gain(cfg16, phi, w) == pytest.approx(min(per_f), rel=1e-12)

    @given(st.integers(2, 24), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_gain_bounded_by_n(self, n, u):
        rng = np.random.default_rng(131 * n + int(abs(u) * 1e6) % 9973)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
        g = composite_gain(w, np.array([u]))[0]
        assert -1e-12 <= g <= n * (1 + 1e-12)

