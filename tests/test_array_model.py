"""Core types, steering, and the Dirichlet gain kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widebeam import array_model
from widebeam.array_model import (
    BeamVector,
    SystemConfig,
    composite_gain,
    dirichlet_power,
    least_gain,
    pair_coefficients,
    phase_powers,
    phase_table,
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


class TestPhaseTable:
    """The evaluation kernel's real table: cos(pi*m*u) rows, then sin rows,
    over the centred offsets m = 1/2, 3/2, ... of mirrored element pairs of
    the even twin (an odd beam with one zero element appended), built from
    ceil(n/2) complex rows with one exp per column: a base block by
    doubling, then the block times powers of z^R."""

    @staticmethod
    def oracle(n, u):
        # cos and sin in extended precision, of the phase pi*m*u with the
        # double pi every table is built from; m*u is exact in a long double
        m = np.arange((n + 1) // 2, dtype=np.longdouble) + 0.5
        phase = np.multiply.outer(m, np.asarray(u, dtype=np.longdouble)) * np.longdouble(np.pi)
        return np.concatenate([np.cos(phase), np.sin(phase)])

    @staticmethod
    def rows(n):
        return 2 * ((n + 1) // 2)

    @staticmethod
    def bound(n):
        # row i's error grows like its offset m_i <= (n-1)/2; never looser
        # than the 1e-12 the complex table over k = 0..n-1 was held to
        return min(1e-15 * n, 1e-12)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 1024),
           u=st.lists(st.floats(-2, 2), min_size=1, max_size=40))
    @example(n=1024, u=list(np.linspace(-2, 2, 101)))
    @example(n=1023, u=list(np.linspace(-2, 2, 101)))
    @example(n=513, u=[1.0 - 2.0 ** -52, -2.0 ** -1074])
    @example(n=1, u=[0.5])
    @example(n=2, u=[0.5])
    @example(n=3, u=[0.5])
    def test_matches_exp(self, n, u):
        u = np.array(u + [-2.0, 2.0, -1.0, 1.0, 0.0])
        E = phase_table(n, u)
        assert E.shape == (self.rows(n), u.size)
        assert np.abs(E - self.oracle(n, u)).max() <= self.bound(n)

    # 37, 99 and 1000: the last block of complex rows is a partial one
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 37, 99, 255, 256, 1000])
    def test_rows_at_small_and_odd_n(self, n):
        rng = np.random.default_rng(n)
        u = np.concatenate([rng.uniform(-2, 2, 500), [-2.0, -1.0, 0.0, 1.0, 2.0]])
        E = phase_table(n, u)
        assert E.shape == (self.rows(n), u.size)
        assert np.abs(E - self.oracle(n, u)).max() <= self.bound(n)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 301])
    def test_writes_into_given_buffers(self, n):
        u = np.linspace(-2, 2, 50)
        T = np.empty((self.rows(n), 80))
        E = phase_table(n, u, T[:, :50])
        assert np.shares_memory(E, T)
        assert E.tobytes() == phase_table(n, u).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64, 301, 1024])
    def test_work_rows_stay_few(self, n):
        # the complex rows are made a block at a time, never held whole:
        # 2R work rows, R*R <= ceil(n/2), and a few single rows, where the
        # whole complex half-table would be ceil(n/2) rows
        u = np.linspace(-2, 2, 4096)
        out = np.empty((self.rows(n), u.size))
        h = (n + 1) // 2
        tracemalloc.start()
        try:
            E = phase_table(n, u, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert E is out
        assert peak <= (2 * math.isqrt(h) + 6) * 16 * u.size
        assert E.tobytes() == phase_table(n, u).tobytes()

    def test_calls_exp_once_per_column(self, monkeypatch):
        sizes = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(array_model.np, "exp", counting_exp)
        u = np.linspace(-2, 2, 77)
        tables = {n: phase_table(n, u) for n in (300, 301)}
        monkeypatch.undo()
        assert sizes == [u.size, u.size]
        for n, E in tables.items():
            assert np.abs(E - self.oracle(n, u)).max() <= self.bound(n)


class TestLeastGain:
    """The paired real reduction reproduces the complex field's gains for
    any rows, not only shift books or symmetric beams."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64, 65, 256])
    def test_matches_per_entry_exp(self, n):
        rng = np.random.default_rng(n)
        w = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
        self.check(w, rng.uniform(-2, 2, (9, 13)))

    @staticmethod
    def check(w, u):
        # least gains over the F rows of an (F, A) u against the per-entry
        # exp oracle
        n = w.shape[1]
        (F, A), T = u.shape, phase_table(n, u.ravel())
        got = least_gain(pair_coefficients(w), T.reshape(T.shape[0], F, A))
        field = w @ np.exp(-1j * np.pi * np.multiply.outer(np.arange(n), u.ravel()))
        expect = (np.abs(field) ** 2).reshape(len(w), F, A).min(axis=1)
        assert got.shape == (len(w), A)
        # the scale of a row's gains is |w|_1^2, their value where every
        # term aligns; the two differ by under 1e-15 of it
        scale = (np.abs(w).sum(axis=1) ** 2)[:, None]
        assert np.all(np.abs(got - expect) <= 1e-14 * scale)

    @settings(deadline=None, max_examples=40)
    @given(h=st.integers(1, 513), seed=st.integers(0, 2 ** 32 - 1))
    @example(h=513, seed=0)
    @example(h=1, seed=0)
    def test_odd_n_matches_per_entry_exp(self, h, seed):
        # an odd beam is read as its even twin, one zero element appended
        rng = np.random.default_rng(seed)
        n = 2 * h - 1
        w = np.exp(2j * np.pi * rng.uniform(size=(3, n))) / np.sqrt(n)
        self.check(w, rng.uniform(-2, 2, (5, 7)))

    def test_coefficients_pair_mirrored_elements(self):
        # P_m = w_k + w_k' on the cos rows, Q_m = j(w_k - w_k') on the sin
        # rows, k < k' = 2h-1-k; an odd n is its even twin, one zero
        # element appended
        w = np.array([[1 + 2j, 3 - 1j, 5 + 0.5j, -2 + 4j, 7j]])
        coef = pair_coefficients(w)[0]
        assert np.array_equal(coef, pair_coefficients(np.append(w, [[0]], axis=1))[0])
        C = coef[0] + 1j * coef[1]
        assert np.array_equal(C, [(5 + 0.5j) + (-2 + 4j), (3 - 1j) + 7j, 1 + 2j,
                                  1j * ((5 + 0.5j) - (-2 + 4j)), 1j * ((3 - 1j) - 7j),
                                  1j * (1 + 2j)])
        coef = pair_coefficients(w[:, :4])[0]
        C = coef[0] + 1j * coef[1]
        assert np.array_equal(C, [(3 - 1j) + (5 + 0.5j), (1 + 2j) + (-2 + 4j),
                                  1j * ((3 - 1j) - (5 + 0.5j)), 1j * ((1 + 2j) - (-2 + 4j))])


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
        # the kernel through np.mod and np.sinc, whose floats dirichlet_power
        # keeps, squared by a multiplication: on a numpy scalar, ** 2 goes
        # through pow, which can round differently from r * r
        uw = np.mod(np.asarray(u, dtype=float) + 1.0, 2.0) - 1.0
        r = n * np.sinc(n * uw / 2.0) / np.sinc(uw / 2.0)
        return r * r

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
    # the EDGES at u = +-1 are nulls at even n, computed to rounding noise,
    # where pow and a multiplication round the scalar square differently
    @example(n=1012, u=[1.0])
    @example(n=2024, u=[1.0])
    @example(n=4048, u=[1.0])
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

