"""Codebook assembly, shifting, and the evaluation harness."""

import logging
import re

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st

from widebeam import (
    SystemConfig,
    build_codebook,
    design_beam_for_aod,
    evaluate,
    narrowband_codebook,
    prop1_worst_case,
    sweep,
)
from widebeam.array_model import BeamVector, composite_gain, dirichlet_power, steering_composite
from widebeam.codebook import (
    GUARD_FLOOR,
    PROBE_TOL,
    ZONE_GRID,
    Codebook,
    _cut_range,
    _envelope_bound,
    _general_sweep,
    _matched_codebook_sweep,
    _per_zone_worst,
    _phase_powers,
    _two_sample_bound,
    _windowed_min,
    shift_beam,
)
from widebeam.zones import divide_zones, prop3_upper_bound, virtual_interval


def random_cm_beam(n, seed=0):
    rng = np.random.default_rng(seed)
    return BeamVector(np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n))


# beam 141 of an N=116, L=174 narrowband book seen from sin phi 7e-9 off
# its centre, over a 42-sample band of relative half-width 3.3e-12
_FLAT_C = (2.0 * 141 - 1.0) / 174 - 1.0
FLAT_LO = _FLAT_C - (1 + 3.3201179946349743e-12) * 0.6149425353144793
FLAT_HI = _FLAT_C - (1 - 3.3201179946349743e-12) * 0.6149425353144793


def all_beams_band_minima(weights, sines, scale):
    """Reference sweep: one exp phase matrix, every beam over the full band.

    Returns the L x angles matrix of band-minimum gains; its column max and
    first argmax are what the general sweep must reproduce.
    """
    L, n = weights.shape
    u = np.multiply.outer(scale, sines)
    E = np.exp(-1j * np.pi * np.multiply.outer(np.arange(n), u.ravel()))
    return (np.abs(weights @ E) ** 2).reshape(L, scale.size, sines.size).min(axis=1)


def random_book(kind, n, l, rng):
    """Constant-modulus weights: random, one prototype shifted, or with repeats."""
    if kind == "shifted":
        proto = random_cm_beam(n, seed=int(rng.integers(1 << 30))).weights
        centers = (2.0 * np.arange(1, l + 1) - 1.0) / l - 1.0
        return proto * steering_composite(n, centers)
    w = np.exp(1j * rng.uniform(0, 2 * np.pi, (l, n))) / np.sqrt(n)
    if kind == "duplicated":
        w = w[rng.integers(0, max(1, l // 3), l)]
    return w


def padded_windowed_min(n, lo, hi, n_samp, ncut=None):
    """Reference _windowed_min: every window padded to ncut cut slots.

    Both window ends, then for each slot the two samples either side of
    the cut point 2(m_lo + slot)/n; a slot past the window's last cut
    holds its first two samples instead.  All of them go through one
    dirichlet_power call and a min over the slot axis.
    """
    if n_samp <= 1:
        return dirichlet_power(lo, n)
    m_lo, m_hi, most = _cut_range(n, lo, hi)
    if ncut is None:
        ncut = most
    h = (hi - lo) / (n_samp - 1)
    out = np.empty((2 + 2 * ncut,) + lo.shape)
    out[0] = lo
    out[1] = hi
    for slot in range(ncut):
        m = m_lo + slot
        t = 2.0 * m / n
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            idx = np.floor((t - lo) / h)
        idx = np.where(np.isfinite(idx), idx, 0.0)
        idx = np.clip(idx, 0, n_samp - 2).astype(np.int64)
        idx = np.where(m <= m_hi, idx, 0)
        np.add(lo, idx * h, out=out[2 + 2 * slot])
        np.add(out[2 + 2 * slot], h, out=out[3 + 2 * slot])
    return dirichlet_power(out, n).min(axis=0)


def unpruned_matched_sweep(n, centers, sines, scale):
    """Reference matched sweep: every candidate in the radius goes through
    _windowed_min in one batch, and the radius doubles until the skipped
    beams are certified, by the same two rules as the library.
    """
    L, F = centers.size, scale.size
    spacing = 2.0 / L
    b2 = float(scale[-1] - 1.0)
    win_lo = np.minimum(scale[0] * sines, scale[-1] * sines)
    win_hi = np.maximum(scale[0] * sines, scale[-1] * sines)
    rows = np.arange(sines.size)
    j0 = np.clip(np.floor((sines + 1.0) / spacing).astype(int), 0, L - 1)
    radius = int(np.ceil((b2 + 2.0 / n + 1.0 / L) / spacing)) + 1
    while True:
        full = 2 * radius + 1 >= L
        offsets = np.arange(L) if full else np.arange(-radius, radius + 1)
        j = (j0[:, None] + offsets[None, :]) % L
        c = centers[j]
        g = _windowed_min(n, c - win_hi[:, None], c - win_lo[:, None], F) / n
        pick = np.argmax(g, axis=1)
        best, winner = g[rows, pick], j[rows, pick]
        if full:
            return best, winner
        raw = (radius + 1) * spacing - np.abs(sines - centers[j0]) - b2 * np.abs(sines)
        envelope = 1.0 / (n * np.sin(np.pi * np.clip(raw, 1e-9, 1.0) / 2.0) ** 2)
        cap = np.maximum(best, GUARD_FLOOR)
        window = 2.0 * b2 * np.abs(sines)
        step = window / max(F - 1, 1)
        residue = envelope * (n * np.pi * step / 4.0) ** 2
        ok = (envelope <= cap) | ((window >= 2.0 / n) & (raw >= 2.0 / n) & (residue <= cap))
        if np.all(ok):
            return best, winner
        radius *= 2


class TestShiftBeam:
    def test_translates_the_pattern(self):
        w = random_cm_beam(16, seed=3)
        u = np.linspace(-2, 2, 401)
        for t in (0.3, -0.85, 1.2):
            shifted = shift_beam(w, t)
            assert composite_gain(shifted.weights, u) == pytest.approx(
                composite_gain(w.weights, u - t), rel=1e-12, abs=1e-12)

    def test_composes_additively(self):
        w = random_cm_beam(8, seed=4)
        ab = shift_beam(shift_beam(w, 0.4), -0.7)
        once = shift_beam(w, 0.4 - 0.7)
        assert np.abs(ab.weights - once.weights).max() < 1e-14

    def test_preserves_modulus(self):
        w = random_cm_beam(32, seed=5)
        assert np.abs(np.abs(shift_beam(w, 0.9).weights) - 1 / np.sqrt(32)).max() < 1e-15


class TestAssembly:
    def test_zone_count_must_match(self):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        part = divide_zones(cfg)
        beams = tuple(random_cm_beam(8, seed=i) for i in range(15))
        with pytest.raises(ValueError):
            Codebook(beams=beams, partition=part, provenance={})

    def test_designed_codebook_worst_case(self, cfg16):
        report = evaluate(cfg16, build_codebook(cfg16))
        assert report.worst_case == pytest.approx(8.6576449182099, abs=1e-8)
        assert report.worst_case <= prop3_upper_bound(divide_zones(cfg16)) * 1.02
        assert report.worst_case > prop1_worst_case(cfg16).worst_case_gain

    def test_every_zone_inherits_the_prototype_worst_case(self, cfg16):
        # shifting is exact translation, so the local minima agree to float noise
        report = evaluate(cfg16, build_codebook(cfg16))
        assert report.per_zone.shape == (32,)
        assert np.ptp(report.per_zone) < 1e-6 * 16

    def test_deterministic_rebuild(self, cfg16):
        a = build_codebook(cfg16)
        b = build_codebook(cfg16)
        for wa, wb in zip(a.beams, b.beams):
            assert np.array_equal(wa.weights, wb.weights)
        assert a.provenance == b.provenance

    def test_provenance_record(self, cfg16):
        prov = build_codebook(cfg16).provenance
        assert prov["kind"] == "wideband"
        assert prov["config"] == {"f_c": 140e9, "B": 10e9, "N": 16, "L": 32, "M": 32}
        assert prov["solver"]["n_ite"] == 50
        assert len(prov["input_sha256"]) == 64
        other = build_codebook(replace(cfg16, B=8e9))
        assert other.provenance["input_sha256"] != prov["input_sha256"]

    def test_zero_bandwidth_reduces_to_narrowband(self, cfg16):
        cfg = replace(cfg16, B=0.0)
        designed = build_codebook(cfg)
        baseline = narrowband_codebook(cfg)
        for wd, wb in zip(designed.beams, baseline.beams):
            assert np.abs(wd.weights - wb.weights).max() < 1e-12
        assert np.array_equal(designed.partition.boundaries,
                              baseline.partition.boundaries)


class TestBeamForAod:
    def test_endfire_holds_the_aligned_closed_form(self, cfg16):
        w = design_beam_for_aod(cfg16, None, np.pi / 2)
        half = (cfg16.B / cfg16.f_c) / 2.0
        window = np.linspace(1.0 - half, 1.0 + half, 513)
        floor = composite_gain(w.weights, window).min()
        assert floor >= 12.1517348822053 * (1 - 1e-6)

    def test_broadside_is_the_matched_beam(self, cfg16):
        w = design_beam_for_aod(cfg16, None, 0.0)
        assert np.abs(w.weights - 0.25).max() < 1e-12

    def test_rejects_out_of_range_angle(self, cfg16):
        with pytest.raises(ValueError):
            design_beam_for_aod(cfg16, None, 2.0)


class TestEvaluate:
    def test_report_is_internally_consistent(self, cfg16):
        report = evaluate(cfg16, narrowband_codebook(cfg16))
        k = int(np.argmin(report.gains))
        assert report.worst_case == report.gains[k]
        assert report.worst_angle == report.angles[k]
        assert report.angles[0] == -np.pi / 2 and report.angles[-1] == np.pi / 2
        assert np.all(np.diff(report.angles) > 0)
        # every zone boundary is a sample point
        for b in narrowband_codebook(cfg16).partition.boundaries:
            assert np.abs(report.angles - b).min() < 1e-9

    def test_best_indices_are_one_based_zone_labels(self):
        cfg = SystemConfig(f_c=140e9, B=0.0, N=2, L=2)
        report = evaluate(cfg, narrowband_codebook(cfg))
        left = report.angles < -0.1
        right = report.angles > 0.1
        assert np.all(report.best_indices[left] == 1)
        assert np.all(report.best_indices[right] == 2)
        assert report.best_indices.min() >= 1

    def test_monte_carlo_is_seeded(self, cfg16):
        cb = build_codebook(cfg16)
        a = evaluate(cfg16, cb, mode="monte_carlo", seed=7)
        b = evaluate(cfg16, cb, mode="monte_carlo", seed=7)
        c = evaluate(cfg16, cb, mode="monte_carlo", seed=8)
        assert np.array_equal(a.gains, b.gains)
        assert not np.array_equal(a.gains, c.gains)
        grid = evaluate(cfg16, cb)
        assert a.worst_case == pytest.approx(grid.worst_case, rel=0.05)

    def test_unknown_mode(self, cfg16):
        with pytest.raises(ValueError):
            evaluate(cfg16, narrowband_codebook(cfg16), mode="dense")

    def test_beam_length_mismatch(self, cfg16):
        small = narrowband_codebook(SystemConfig(f_c=140e9, B=10e9, N=8, L=16))
        with pytest.raises(ValueError):
            evaluate(cfg16, small)


class TestWindowedMin:
    def test_single_sample_window(self):
        lo = np.array([0.37])
        assert _windowed_min(16, lo, lo + 0.5, 1) == pytest.approx(
            dirichlet_power(lo, 16), rel=1e-15)

    def test_small_case_against_direct_scan(self):
        lo = np.array([0.03, -0.4, 1.7])
        hi = lo + np.array([0.3, 0.0, 0.26])
        F = 17
        samples = lo[:, None] + np.arange(F) * ((hi - lo) / (F - 1))[:, None]
        brute = dirichlet_power(samples, 12).min(axis=1)
        assert _windowed_min(12, lo, hi, F) == pytest.approx(brute, rel=1e-9)

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(1, 32), lo=st.floats(-3, 3), width=st.floats(0, 1.5),
           f=st.integers(2, 40))
    def test_matches_direct_scan(self, n, lo, width, f):
        lo_a = np.array([lo])
        hi_a = np.array([lo + width])
        samples = lo_a + np.arange(f) * (hi_a - lo_a) / (f - 1)
        brute = dirichlet_power(samples, n).min()
        fast = float(_windowed_min(n, lo_a, hi_a, f)[0])
        assert fast == pytest.approx(brute, rel=1e-9, abs=1e-12)

    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(1, 200), f=st.integers(2, 600), extra=st.integers(0, 3),
           windows=st.lists(st.tuples(st.floats(-3, 3),
                                      st.one_of(st.just(0.0), st.floats(0, 0.2),
                                                st.floats(0, 1.5))),
                            min_size=1, max_size=12))
    # the near-flat window of the N=116, L=174 sweep example, 7e-9 off a
    # beam centre: the pad sample lo + h moves its minimum by rounding
    @example(n=116, f=42, extra=1, windows=[(FLAT_LO, FLAT_HI - FLAT_LO)])
    def test_bitwise_equal_to_the_padded_oracle(self, n, f, extra, windows):
        lo = np.array([w[0] for w in windows])
        hi = lo + np.array([w[1] for w in windows])
        ncut = _cut_range(n, lo, hi)[2] + extra
        assert np.array_equal(_windowed_min(n, lo, hi, f, ncut),
                              padded_windowed_min(n, lo, hi, f, ncut))
        assert np.array_equal(_windowed_min(n, lo, hi, f),
                              padded_windowed_min(n, lo, hi, f))

    def test_flat_window_pad_sample_moves_the_minimum(self):
        # the example above stays a test of the pad only while the pad
        # sample changes the minimum of this cut-free window
        lo, hi = np.array([FLAT_LO]), np.array([FLAT_LO + (FLAT_HI - FLAT_LO)])
        assert _cut_range(116, lo, hi)[2] == 0
        bare, padded = _windowed_min(116, lo, hi, 42, 0), _windowed_min(116, lo, hi, 42, 1)
        assert padded[0] < bare[0] == pytest.approx(padded[0], rel=1e-15)


def window_near(n, anchor, k, frac, width, nudge):
    """A window of the given width over an anchor point: a peak (an even
    integer), a null (2m/n, m not a multiple of n), the wrap point |u| = 1
    between two peaks, or a free point.  frac places the anchor inside the
    window; nudge moves the window by up to 1.9e-9/n, inside the cut slack."""
    if anchor == "peak":
        a = 2.0 * k
    elif anchor == "null":
        m = k * n + (k % max(n - 1, 1)) + 1
        a = 2.0 * m / n
    elif anchor == "wrap":
        a = 1.0 if k >= 0 else -1.0
    else:
        a = k / 7.0
    lo = a - frac * width + nudge / n
    return np.array([lo]), np.array([lo + width])


class TestMatchedBounds:
    window = dict(n=st.integers(1, 160), f=st.integers(2, 400),
                  anchor=st.sampled_from(["peak", "null", "wrap", "free"]),
                  k=st.integers(-15, 15), frac=st.floats(0, 1),
                  width=st.one_of(st.just(0.0), st.floats(0, 0.05), st.floats(0, 0.5),
                                  st.floats(0, 2.5)),
                  nudge=st.sampled_from([0.0, 1.9e-9, -1.9e-9]))

    @settings(deadline=None, max_examples=400)
    @given(**window)
    # a window on a peak that also holds the first nulls either side
    @example(n=16, f=257, anchor="peak", k=1, frac=0.5, width=0.3, nudge=0.0)
    # a zero-width window (h = 0) on a null, and one just outside it
    @example(n=140, f=513, anchor="null", k=0, frac=0.0, width=0.0, nudge=0.0)
    @example(n=140, f=513, anchor="null", k=0, frac=0.0, width=0.0, nudge=1.9e-9)
    def test_envelope_bound_holds_on_a_dense_scan(self, n, f, anchor, k, frac, width, nudge):
        lo, hi = window_near(n, anchor, k, frac, width, nudge)
        h = (hi - lo) / (f - 1)
        dense = dirichlet_power(np.append(lo + np.arange(f) * h, hi), n) / n
        m_lo, m_hi, _ = _cut_range(n, lo, hi)
        slack = lambda b: b + PROBE_TOL * max(b, 1.0)
        # without the residue factor the capped envelope bounds every sample
        envelope = float(_envelope_bound(n, lo, hi, np.inf, m_lo, m_hi)[0])
        assert dense.max() <= slack(envelope)
        # with it, the sample nearest a null, so the sampled minimum
        bound = float(_envelope_bound(n, lo, hi, h, m_lo, m_hi)[0])
        assert bound <= envelope
        assert dense.min() <= slack(bound)
        assert float(_windowed_min(n, lo, hi, f)[0]) / n <= slack(bound)

    @settings(deadline=None, max_examples=300)
    @given(extra=st.integers(0, 2), **window)
    def test_two_sample_bound_is_never_below_the_windowed_min(self, n, f, anchor, k, frac,
                                                             width, nudge, extra):
        # the two samples are among the floats _windowed_min evaluates, so
        # the bound holds with no slack at all, padded or not
        lo, hi = window_near(n, anchor, k, frac, width, nudge)
        m_lo, m_hi, most = _cut_range(n, lo, hi)
        bound = _two_sample_bound(n, lo, hi, f, m_lo, m_hi)
        assert bound[0] >= _windowed_min(n, lo, hi, f, most + extra)[0]


class TestSweepPaths:
    def test_fast_path_matches_dense_path(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            n = int(rng.integers(2, 33))
            l = int(rng.integers(n, 4 * n + 1))
            f = int(rng.integers(2, 40))
            b2 = float(rng.uniform(0.0, 0.08))
            centers = (2.0 * np.arange(1, l + 1) - 1.0) / l - 1.0
            weights = np.stack([steering_composite(n, c) / np.sqrt(n)
                                for c in centers])
            sines = np.sort(rng.uniform(-1, 1, 300))
            scale = np.linspace(1 - b2, 1 + b2, f)
            fast, _ = _matched_codebook_sweep(n, centers, sines, scale)
            dense, _ = _general_sweep(weights, sines, scale)
            assert np.abs(fast - dense).max() <= 2e-3

    def test_fast_path_is_used_for_narrowband_books(self, cfg16):
        # a recognizable codebook and a phase-perturbed copy land on the two
        # paths but describe nearly the same beams
        book = narrowband_codebook(cfg16)
        bent = Codebook(
            beams=tuple(BeamVector(w.weights * np.exp(1j * 1e-6)) for w in book.beams),
            partition=book.partition,
            provenance=book.provenance,
        )
        a = evaluate(cfg16, book)
        b = evaluate(cfg16, bent)
        assert a.worst_case == pytest.approx(b.worst_case, rel=1e-6)


class TestMatchedSweepExactness:
    @settings(deadline=None, max_examples=120)
    @given(n=st.integers(1, 160), l=st.integers(1, 260), f=st.integers(2, 60),
           b2=st.one_of(st.just(0.0), st.floats(0.0, 0.01), st.floats(0.0, 0.2)),
           n_sines=st.integers(0, 200), n_edges=st.integers(0, 20),
           n_near=st.integers(0, 20), seed=st.integers(0, 2 ** 32 - 1),
           extra=st.lists(st.floats(-1, 1), max_size=4))
    # the Prop. 1 zero regime: N=140, L=200, B=18 GHz at f_c=140 GHz
    @example(n=140, l=200, f=257, b2=9e9 / 140e9, n_sines=400, n_edges=20,
             n_near=20, seed=1, extra=[])
    # fewer beams than antennas
    @example(n=64, l=20, f=33, b2=5e9 / 140e9, n_sines=200, n_edges=20,
             n_near=20, seed=2, extra=[])
    # a near-flat window 7e-9 off a beam center: its minimum is decided by
    # rounding, and differs by one ulp unless the pruned call evaluates it
    # on the same samples as the whole batch
    @example(n=116, l=174, f=42, b2=3.3201179946349743e-12, n_sines=0,
             n_edges=0, n_near=0, seed=0, extra=[0.6149425353144793])
    def test_bitwise_equal_to_the_unpruned_sweep(self, n, l, f, b2, n_sines,
                                                 n_edges, n_near, seed, extra):
        rng = np.random.default_rng(seed)
        centers = (2.0 * np.arange(1, l + 1) - 1.0) / l - 1.0
        # zone edges sit halfway between two beams, where winners tie
        edges = -1.0 + 2.0 * rng.integers(0, l + 1, n_edges) / l
        # angles just off a beam center see a nearly flat pattern
        near = centers[rng.integers(0, l, n_near)] + rng.choice([-1, 1], n_near) * 10 ** rng.uniform(-9, -5, n_near)
        sines = np.unique(np.clip(np.concatenate([rng.uniform(-1, 1, n_sines), edges, near,
                                                  extra, [-1.0, 0.0, 1.0]]), -1, 1))
        scale = np.linspace(1 - b2, 1 + b2, f)
        gains, winner = _matched_codebook_sweep(n, centers, sines, scale)
        ref_gains, ref_winner = unpruned_matched_sweep(n, centers, sines, scale)
        assert np.array_equal(gains, ref_gains)
        assert np.array_equal(winner, ref_winner)

    def test_narrowband_weights_are_the_response_vectors(self, cfg16):
        book = narrowband_codebook(cfg16)
        centers = (2.0 * np.arange(1, 33) - 1.0) / 32 - 1.0
        for w, c in zip(book.beams, centers):
            assert np.array_equal(w.weights, steering_composite(16, c) / np.sqrt(16))


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
        E = _phase_powers(n, u)
        assert np.array_equal(E[0], np.ones(u.size))
        assert np.abs(E - self.reference(n, u)).max() <= 1e-12


class TestGeneralSweepExactness:
    @settings(deadline=None, max_examples=150)
    @given(kind=st.sampled_from(["random", "shifted", "duplicated"]),
           n=st.integers(1, 40), l=st.integers(1, 50), f=st.integers(2, 40),
           b2=st.floats(0.0, 0.2), n_sines=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_all_beams_sweep(self, kind, n, l, f, b2, n_sines, seed):
        rng = np.random.default_rng(seed)
        weights = random_book(kind, n, l, rng)
        sines = np.sort(np.concatenate([rng.uniform(-1, 1, n_sines), [-1.0, 1.0]]))
        scale = np.linspace(1 - b2, 1 + b2, f)
        G = all_beams_band_minima(weights, sines, scale)
        best = G.max(axis=0)
        gains, winner = _general_sweep(weights, sines, scale)
        assert gains == pytest.approx(best, rel=1e-10, abs=1e-12)
        assert G[winner, np.arange(sines.size)] == pytest.approx(best, rel=1e-10, abs=1e-12)
        if l > 1:
            # the winner is unique wherever the top two gains are separated
            top2 = np.sort(G, axis=0)[-2:]
            clear = top2[1] - top2[0] > 1e-10 * np.maximum(top2[1], 1.0)
            assert np.array_equal(winner[clear], G.argmax(axis=0)[clear])
        # exact copies of a beam tie exactly: the lowest index wins
        first = [int(np.flatnonzero((weights == weights[w]).all(axis=1))[0]) for w in winner]
        assert np.array_equal(winner, first)

    def test_designed_book_winners(self, cfg16):
        book = build_codebook(cfg16)
        weights = np.stack([w.weights for w in book.beams])
        sines = np.linspace(-1, 1, 400)
        scale = 1.0 + cfg16.frequency_grid() / cfg16.f_c
        G = all_beams_band_minima(weights, sines, scale)
        gains, winner = _general_sweep(weights, sines, scale)
        assert gains == pytest.approx(G.max(axis=0), rel=1e-12)
        top2 = np.sort(G, axis=0)[-2:]
        clear = top2[1] - top2[0] > 1e-10 * top2[1]
        assert clear.mean() > 0.9
        assert np.array_equal(winner[clear], G.argmax(axis=0)[clear])


class TestPerZoneWorst:
    @staticmethod
    def per_beam_loop(cfg, book, centers):
        out = []
        for l, w in enumerate(book.beams):
            lo, hi = virtual_interval(cfg, *book.partition.boundaries[l:l + 2])
            grid = np.linspace(lo, hi, ZONE_GRID)
            if centers is None:
                out.append(composite_gain(w.weights, grid).min())
            else:
                out.append((dirichlet_power(grid - centers[l], cfg.N) / cfg.N).min())
        return np.array(out)

    def test_designed_book(self, cfg16):
        book = build_codebook(cfg16)
        assert _per_zone_worst(cfg16, book, None) == pytest.approx(
            self.per_beam_loop(cfg16, book, None), rel=1e-10)

    @pytest.mark.parametrize("n,l", [(1, 3), (7, 9), (33, 40)])
    def test_random_book(self, n, l):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=l)
        part = divide_zones(cfg)
        book = Codebook(beams=tuple(random_cm_beam(n, seed=i) for i in range(l)),
                        partition=part, provenance={})
        assert _per_zone_worst(cfg, book, None) == pytest.approx(
            self.per_beam_loop(cfg, book, None), rel=1e-10)

    def test_matched_book(self, cfg16):
        book = narrowband_codebook(cfg16)
        centers = (2.0 * np.arange(1, 33) - 1.0) / 32 - 1.0
        assert _per_zone_worst(cfg16, book, centers) == pytest.approx(
            self.per_beam_loop(cfg16, book, centers), rel=1e-10)


class TestEvaluateLog:
    def records(self, caplog, cfg, book):
        with caplog.at_level(logging.DEBUG, logger="widebeam.codebook"):
            evaluate(cfg, book)
        return [r for r in caplog.records if r.name == "widebeam.codebook"]

    def test_matched_path(self, caplog, cfg16):
        (rec,) = self.records(caplog, cfg16, narrowband_codebook(cfg16))
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage().startswith("matched path (response-vector codebook recognised)")

    def test_matched_path_counts_evaluated_pairs(self, caplog, cfg16):
        book = narrowband_codebook(cfg16)
        (rec,) = self.records(caplog, cfg16, book)
        msg = rec.getMessage()
        assert msg.startswith("matched path (response-vector codebook recognised)")
        n_sines = evaluate(cfg16, book).angles.size
        assert f": 32 beams x {n_sines} angles, " in msg
        full, pairs = map(int, msg.split(", ")[1].split(" candidate")[0].split(" of "))
        assert n_sines <= full <= pairs

    def matched_counts(self, caplog, cfg):
        (rec,) = self.records(caplog, cfg, narrowband_codebook(cfg))
        tail = rec.getMessage().split(" angles, ")[1]
        assert re.fullmatch(r"\d+ of \d+ candidate pairs given the full band minimum, "
                            r"\d+ pruned by the analytic bound, \d+ given the two-sample "
                            r"bound, \d+ reused across a doubling", tail)
        return dict(zip(["full", "pairs", "pruned", "bounded", "reused"],
                        map(int, re.findall(r"\d+", tail))))

    def first_radius_width(self, cfg):
        b2 = float(1.0 + cfg.frequency_grid()[-1] / cfg.f_c - 1.0)
        radius = int(np.ceil((b2 + 2.0 / cfg.N + 1.0 / cfg.L) / (2.0 / cfg.L))) + 1
        return 2 * radius + 1

    def test_doubled_radius_bounds_no_pair_twice(self, caplog):
        # the Prop. 1 zero regime: some angles' best minimum lies under
        # GUARD_FLOOR, so the first radius is not certified and doubles once
        cfg = SystemConfig(f_c=140e9, B=18e9, N=140, L=200)
        got = self.matched_counts(caplog, cfg)
        n_sines = evaluate(cfg, narrowband_codebook(cfg)).angles.size
        w0 = self.first_radius_width(cfg)
        assert got["reused"] == n_sines * w0
        assert got["pairs"] == n_sines * (2 * w0 - 1)
        # every pair but the home beams' meets the analytic bound once
        assert got["pruned"] + got["bounded"] + n_sines == got["pairs"]
        assert n_sines <= got["full"] <= n_sines + got["bounded"]

    def test_growing_cut_count_starts_the_sweep_over(self, caplog):
        # here the doubled batch holds a window with one more cut point, so
        # the kept minima would miss their pad sample: nothing is reused
        cfg = SystemConfig(f_c=140e9, B=18e9, N=48, L=100, n_angle=64, n_freq=33)
        got = self.matched_counts(caplog, cfg)
        book = narrowband_codebook(cfg)
        report = evaluate(cfg, book)
        n_sines = report.angles.size
        w0 = self.first_radius_width(cfg)
        assert got["reused"] == 0
        assert got["pairs"] == n_sines * (w0 + 2 * w0 - 1)
        # the grid evaluate sweeps, rebuilt
        sines = np.unique(np.concatenate([np.linspace(-1.0, 1.0, cfg.n_angle),
                                          np.sin(book.partition.boundaries), [-1.0, 1.0]]))
        centers = (2.0 * np.arange(1, cfg.L + 1) - 1.0) / cfg.L - 1.0
        scale = 1.0 + cfg.frequency_grid() / cfg.f_c
        ref_gains, ref_winner = unpruned_matched_sweep(cfg.N, centers, sines, scale)
        assert np.array_equal(report.gains, ref_gains)
        assert np.array_equal(report.best_indices - 1, ref_winner)

    def test_general_path_counts_swept_pairs(self, caplog, cfg16):
        book = build_codebook(cfg16)
        (rec,) = self.records(caplog, cfg16, book)
        assert rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        assert msg.startswith("general path (not a response-vector codebook)")
        swept, total = map(int, msg.split(": ")[1].split(" beam")[0].split(" of "))
        n_sines = evaluate(cfg16, book).angles.size
        assert total == 32 * n_sines
        assert n_sines <= swept < total


class TestParameterSweep:
    def test_narrowband_rows(self, cfg16):
        rows = sweep(cfg16, "narrowband", [8, 16], [0.0, 10e9])
        assert len(rows) == 4
        for n, b_ghz, worst, bound in rows:
            cell = replace(cfg16, N=n, B=b_ghz * 1e9)
            assert worst == pytest.approx(prop1_worst_case(cell).worst_case_gain,
                                          rel=1e-12)
            assert bound == pytest.approx(prop3_upper_bound(divide_zones(cell)),
                                          rel=1e-12)
        assert rows[0][3] == pytest.approx(32.0, rel=1e-12)     # B=0: bound is L

    def test_bound_rows_have_no_worst_column(self, cfg16):
        rows = sweep(cfg16, "bound", [16], [0.0, 5e9, 10e9])
        assert all(r[2] is None for r in rows)
        assert [r[1] for r in rows] == [0.0, 5.0, 10.0]

    def test_wideband_rows_track_bandwidth(self):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        rows = sweep(cfg, "wideband", [8], [2e9, 10e9, 18e9])
        worsts = [r[2] for r in rows]
        assert all(np.diff(worsts) <= 1e-9)
        for _, _, worst, bound in rows:
            assert worst <= bound * 1.02

    def test_unknown_kind(self, cfg16):
        with pytest.raises(ValueError):
            sweep(cfg16, "both", [16], [10e9])
