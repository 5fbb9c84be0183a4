"""Codebook assembly, shifting, and the evaluation harness."""

import logging
import re
import sys
from pathlib import Path

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
from widebeam import array_model, codebook
from widebeam.alm import SolverConfig, solve
from widebeam.array_model import (BeamVector, composite_gain, dirichlet_power, gain_floor,
                                  phase_powers, steering_composite)
from widebeam.codebook import (
    GUARD_FLOOR,
    PROBE_TOL,
    ZONE_GRID,
    Codebook,
    _envelope_reach,
    _general_sweep,
    _lobe_reach,
    _matched_codebook_sweep,
    _null_residue,
    _per_zone_worst,
    _two_sample_bound,
    _windowed_min,
    shift_beam,
    shift_rows,
)
from widebeam.prv import prv_beam, prv_plan
from widebeam.storage import read_codebook
from widebeam.zones import (ZonePartition, divide_zones, prop3_upper_bound, virtual_interval,
                            zone_intervals)

DATA = Path(__file__).resolve().parent / "data"


def random_cm_beam(n, seed=0):
    rng = np.random.default_rng(seed)
    return BeamVector(np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n))


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


def unpruned_matched_sweep(n, centers, sines, scale):
    """Reference matched sweep: every beam goes through _windowed_min, in the
    ring of offsets -floor((L-1)/2)..floor(L/2) around each angle's home
    beam; ties go to the lowest offset."""
    L, F = centers.size, scale.size
    win_lo = np.minimum(scale[0] * sines, scale[-1] * sines)
    win_hi = np.maximum(scale[0] * sines, scale[-1] * sines)
    j0 = np.clip(np.floor((sines + 1.0) / (2.0 / L)).astype(int), 0, L - 1)
    j = (j0[:, None] + np.arange(-((L - 1) // 2), L // 2 + 1)) % L
    g = _windowed_min(n, centers[j] - win_hi[:, None], centers[j] - win_lo[:, None], F) / n
    pick = np.argmax(g, axis=1)
    rows = np.arange(sines.size)
    return g[rows, pick], j[rows, pick]


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
            Codebook(weights=beams, partition=part, provenance={})
        with pytest.raises(ValueError):
            Codebook(weights=beams + beams[:2], partition=part, provenance={})

    def test_weights_are_one_checked_read_only_block(self):
        part = divide_zones(SystemConfig(f_c=140e9, B=10e9, N=8, L=5))
        block = steering_composite(8, np.linspace(-1, 1, 5)) / np.sqrt(8)
        book = Codebook(weights=block, partition=part, provenance={})
        assert len(book) == 5
        for beam, row in zip(book.beams, block, strict=True):
            assert np.array_equal(beam.weights, BeamVector(row).weights)
        assert not book.weights.flags.writeable
        # the block is copied: the caller's array stays its own
        assert block.flags.writeable
        assert not np.shares_memory(book.weights, block)
        for bad in (1.0 + 1e-6, np.nan):
            block[3, 2] *= bad
            with pytest.raises(ValueError, match="constant-modulus"):
                Codebook(weights=block, partition=part, provenance={})
        for empty in (np.empty((5, 0), dtype=complex), np.empty(0, dtype=complex)):
            with pytest.raises(ValueError, match="shape"):
                Codebook(weights=empty, partition=part, provenance={})
        # one row is row 0 of a shift book: the book shifts it to every center
        row = block[0]
        book = Codebook(weights=row, partition=part, provenance={})
        assert book.shifted
        assert book.weights.tobytes() == shift_rows(row, part.centers()).tobytes()
        assert not book.weights.flags.writeable
        assert not np.shares_memory(book.weights, row)
        with pytest.raises(ValueError, match="constant-modulus"):
            Codebook(weights=block[3], partition=part, provenance={})

    def test_ragged_beams_are_rejected(self):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=2)
        part = divide_zones(cfg)
        ragged = (random_cm_beam(8, seed=0), random_cm_beam(7, seed=1))
        with pytest.raises(ValueError):
            Codebook(weights=ragged, partition=part, provenance={})
        with pytest.raises(ValueError):
            Codebook.assemble(ragged, part, cfg, None, kind="wideband")

    def test_assemble_needs_the_config_shape(self):
        # an N=8 book under an N=16 config would be written with "n": 16 and
        # 8 weights per beam, a file the reader rejects
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        book = narrowband_codebook(cfg)
        assert np.array_equal(
            Codebook.assemble(book.beams, book.partition, cfg, None, kind="narrowband").weights,
            book.weights)
        for other in (replace(cfg, N=16), replace(cfg, L=15)):
            with pytest.raises(ValueError, match="expected"):
                Codebook.assemble(book.beams, book.partition, other, None, kind="narrowband")
        # row 0 alone gives the book back, bit for bit; it too needs cfg's N
        row = Codebook.assemble(book.weights[0], book.partition, cfg, None, kind="narrowband")
        assert row.weights.tobytes() == book.weights.tobytes()
        with pytest.raises(ValueError, match="expected"):
            Codebook.assemble(book.weights[0], book.partition, replace(cfg, N=16), None,
                              kind="narrowband")
        # and cfg's L: a 5-zone row under L=32 would be written as a 5-row
        # book with "l": 32, a file the reader rejects
        wide = SystemConfig(f_c=140e9, B=10e9, N=8, L=5)
        designed = build_codebook(wide)
        for other in (replace(wide, L=32), replace(wide, L=4)):
            with pytest.raises(ValueError, match="expected"):
                Codebook.assemble(designed.weights[0], designed.partition, other, None,
                                  kind="wideband")

    def test_assemble_needs_the_config_intervals(self):
        # a banded partition divided at 10 GHz under an 8 GHz config would be
        # written with B = 8 GHz and the 10 GHz centres, which the reader
        # rejects: it rebuilds the intervals from the stored band
        cfg = SystemConfig(f_c=140e9, B=8e9, N=8, L=16)
        part = divide_zones(replace(cfg, B=10e9))
        weights = steering_composite(8, part.centers()) / np.sqrt(8)
        with pytest.raises(ValueError, match="partition intervals"):
            Codebook.assemble(weights, part, cfg, None, kind="wideband")
        book = Codebook.assemble(weights, part, replace(cfg, B=10e9), None, kind="wideband")
        assert np.array_equal(book.weights, weights)
        # a "sine" partition's intervals do not depend on the band
        narrow = narrowband_codebook(cfg)
        for b in (0.0, 10e9):
            Codebook.assemble(narrow.weights, narrow.partition, replace(cfg, B=b), None,
                              kind="narrowband")

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

    def test_beams_are_the_prototype_shifted_to_each_center(self, cfg16):
        # row 0 is shift_beam's, bit for bit; shift_rows takes it to every
        # center, which is the file reader's rule, and each row lies within
        # rounding of the per-center shift_beam
        partition = divide_zones(cfg16)
        init = prv_beam(prv_plan(16, partition.delta_omega))
        prototype, _ = solve(cfg16, SolverConfig(), partition.delta_omega, init)
        book = build_codebook(cfg16)
        centers = partition.centers()
        row0 = shift_beam(prototype, centers[0]).weights
        assert book.weights[0].tobytes() == row0.tobytes()
        assert book.weights.tobytes() == shift_rows(row0, centers).tobytes()
        for w, c in zip(book.weights, centers, strict=True):
            assert np.abs(w - shift_beam(prototype, c).weights).max() <= 1e-13

    def test_deterministic_rebuild(self, cfg16):
        a = build_codebook(cfg16)
        b = build_codebook(cfg16)
        assert np.array_equal(a.weights, b.weights)
        assert a.provenance == b.provenance

    def test_provenance_record(self, cfg16):
        prov = build_codebook(cfg16).provenance
        assert prov["kind"] == "wideband"
        assert prov["config"] == {"f_c": 140e9, "B": 10e9, "N": 16, "L": 32, "M": 32}
        assert prov["solver"]["n_ite"] == 50
        assert set(prov) == {"kind", "config", "solver"}

    def test_zero_bandwidth_reduces_to_narrowband(self, cfg16):
        cfg = replace(cfg16, B=0.0)
        designed = build_codebook(cfg)
        baseline = narrowband_codebook(cfg)
        assert np.abs(designed.weights - baseline.weights).max() < 1e-12
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
    @given(n=st.integers(1, 200), f=st.integers(2, 600),
           windows=st.lists(st.tuples(st.floats(-3, 3),
                                      st.one_of(st.just(0.0), st.floats(0, 0.2),
                                                st.floats(0, 1.5))),
                            min_size=1, max_size=12))
    def test_many_windows_match_direct_scan(self, n, f, windows):
        lo = np.array([w[0] for w in windows])
        hi = lo + np.array([w[1] for w in windows])
        samples = lo[:, None] + np.arange(f) * ((hi - lo) / (f - 1))[:, None]
        brute = dirichlet_power(samples, n).min(axis=1)
        assert _windowed_min(n, lo, hi, f) == pytest.approx(brute, rel=1e-9, abs=1e-12)


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
    @given(**window, t=st.floats(0, 1))
    # the far end of a window on a peak, inside the main lobe
    @example(n=10, f=513, anchor="peak", k=0, frac=0.3, width=0.1, nudge=0.0, t=0.8)
    @example(n=140, f=257, anchor="peak", k=1, frac=0.0, width=0.01, nudge=1.9e-9, t=0.5)
    # no lobe value at or below the level (n=1 has no main lobe): nothing dropped
    @example(n=1, f=2, anchor="peak", k=0, frac=0.0, width=2.0, nudge=0.0, t=0.0)
    # a window wider than 2/n inside the plain sidelobe reach, whose samples
    # reach above the level, but beyond the reach over the residue factor
    @example(n=16, f=33, anchor="free", k=3, frac=0.5, width=0.3, nudge=0.0, t=0.01)
    # a window over the peak, reaching far past the reach: its far null drops it
    @example(n=16, f=33, anchor="peak", k=0, frac=0.0, width=0.9, nudge=0.0, t=0.05)
    def test_reaches_drop_only_windows_below_the_level(self, n, f, anchor, k, frac, width,
                                                       nudge, t):
        lo, hi = window_near(n, anchor, k, frac, width, nudge)
        h = (hi - lo) / (f - 1)
        dense = dirichlet_power(np.append(lo + np.arange(f) * h, hi), n) / n
        slack = lambda b: b + PROBE_TOL * max(b, 1.0)
        level = np.array([t * n])
        # the peak nearest the window, the window's distance from it and
        # its far end's
        peak = 2.0 * np.floor(hi[0] / 2.0)
        if lo[0] - peak > peak + 2.0 - hi[0]:
            peak += 2.0
        d = max(lo[0] - peak, peak - hi[0], 0.0)
        far = max(peak - lo[0], hi[0] - peak)
        if d > _envelope_reach(n, level)[0]:
            assert dense.max() <= slack(level[0])
        # a window at least 2/n wide and at d > 0 holds a null, so the reach
        # at the level over the residue factor drops it as well
        if n > 1 and width >= 2.0 / n and d > _envelope_reach(n, level / _null_residue(n, h))[0]:
            assert dense[:-1].min() <= slack(level[0])
            assert float(_windowed_min(n, lo, hi, f)[0]) / n <= slack(level[0])
        # such a window holds a null within 2/n of its far end, whose nearest
        # sample lies within h/2 of it: the same reach measured from there
        # drops it, if no other peak is nearer
        if (n > 1 and width >= 2.0 / n and peak - 1.0 < lo[0] and hi[0] < peak + 1.0
                and far - 2.0 / n - h[0] / 2.0 - 1e-9
                > _envelope_reach(n, level / _null_residue(n, h))[0]):
            assert dense[:-1].min() <= slack(level[0])
            assert float(_windowed_min(n, lo, hi, f)[0]) / n <= slack(level[0])
        if _lobe_reach(n, level)[0] <= far <= 2.0 / n:
            assert dense.min() <= slack(level[0])
            assert float(_windowed_min(n, lo, hi, f)[0]) / n <= slack(level[0])

    @settings(deadline=None, max_examples=300)
    @given(**window)
    def test_two_sample_bound_is_never_below_the_windowed_min(self, n, f, anchor, k, frac,
                                                             width, nudge):
        # the two samples are among the floats _windowed_min evaluates, so
        # the bound holds with no slack at all
        lo, hi = window_near(n, anchor, k, frac, width, nudge)
        bound = _two_sample_bound(n, lo, hi, f)
        assert bound[0] >= _windowed_min(n, lo, hi, f)[0]


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
            weights=book.weights * np.exp(1j * 1e-6),
            partition=book.partition,
            provenance=book.provenance,
        )
        a = evaluate(cfg16, book)
        b = evaluate(cfg16, bent)
        assert a.worst_case == pytest.approx(b.worst_case, rel=1e-6)

    def test_narrowband_book_is_recognised_without_a_steering_table(self, cfg16,
                                                                    monkeypatch):
        # recognition reads the book's shift structure, row 0 and the
        # centers: no steering vector is built for more than one direction
        book = narrowband_codebook(cfg16)
        directions = []

        def counted(fn):
            def wrapper(n, u):
                directions.append(np.size(u))
                return fn(n, u)
            return wrapper

        monkeypatch.setattr("widebeam.codebook.phase_powers", counted(phase_powers))
        monkeypatch.setattr("widebeam.codebook.steering_composite", counted(steering_composite))
        report = evaluate(cfg16, book)
        assert report.worst_case == pytest.approx(prop1_worst_case(cfg16).worst_case_gain,
                                                  rel=1e-6)
        assert max(directions, default=0) <= 1

    def test_moved_boundaries_are_not_matched(self, caplog):
        # interior boundary sines 1e-10 off the uniform ones pass the 1e-9
        # boundary test, and the rows, response vectors at the partition's
        # own centers, form a shift book; but the centers' drift, times
        # 2 pi (N-1)/sqrt(N), exceeds 1e-9, so the book is swept as any other
        cfg = SystemConfig(f_c=140e9, B=10e9, N=64, L=128, n_angle=256, n_freq=9)
        sines = np.linspace(-1.0, 1.0, cfg.L + 1)
        sines[1:-1] += 1e-10
        bounds = np.arcsin(sines)
        bounds[0], bounds[-1] = -np.pi / 2, np.pi / 2
        part = ZonePartition(bounds, 2.0 / cfg.L, zone_intervals(cfg, bounds, "sine"), "sine")
        weights = steering_composite(cfg.N, part.centers()) / np.sqrt(cfg.N)
        book = Codebook.assemble(weights, part, cfg, None, kind="narrowband")
        assert book.shifted
        assert np.abs(np.sin(bounds) - np.linspace(-1.0, 1.0, cfg.L + 1)).max() <= 1e-9
        with caplog.at_level(logging.DEBUG, logger="widebeam.codebook"):
            evaluate(cfg, book)
        assert [r.getMessage().split(" (")[0] for r in caplog.records
                if r.name == "widebeam.codebook"] == ["general path"]


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
    # the main-lobe reach drops most candidates: N=10, L=200, B=18 GHz
    @example(n=10, l=200, f=257, b2=9e9 / 140e9, n_sines=400, n_edges=20,
             n_near=20, seed=1, extra=[])
    # fewer beams than antennas
    @example(n=64, l=20, f=33, b2=5e9 / 140e9, n_sines=200, n_edges=20,
             n_near=20, seed=2, extra=[])
    # a near-flat window 7e-9 off a beam center: its minimum is decided by
    # rounding
    @example(n=116, l=174, f=42, b2=3.3201179946349743e-12, n_sines=0,
             n_edges=0, n_near=0, seed=0, extra=[0.6149425353144793])
    # N=48, L=100, B=18 GHz with 33 frequencies: windows spanning several
    # cut points
    @example(n=48, l=100, f=33, b2=9e9 / 140e9, n_sines=64, n_edges=20,
             n_near=20, seed=3, extra=[])
    # the zero regime at a few angles: the full minima run in several
    # chunks of A windows
    @example(n=140, l=200, f=257, b2=9e9 / 140e9, n_sines=3, n_edges=0,
             n_near=0, seed=1, extra=[0.97])
    # windows wider than 2/n at N=140, L=200, B=18 GHz: each of the two
    # mirrored far-null reaches, taken from the far end instead, drops the
    # winner at one angle of each sign
    @example(n=140, l=200, f=257, b2=9e9 / 140e9, n_sines=0, n_edges=0,
             n_near=0, seed=1, extra=[-0.53625, -0.45125, 0.45125, 0.53625])
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
        high = ref_gains >= GUARD_FLOOR
        assert np.array_equal(gains[high], ref_gains[high])
        assert np.array_equal(winner[high], ref_winner[high])
        # below the floor, a minimum some beam attains
        assert np.all(gains[~high] <= ref_gains[~high])

    def test_guard_floor_hides_only_gains_below_it(self, monkeypatch):
        # a narrowband_grid cell: at a few angles the best band minimum lies
        # near a pattern null, and the sweep stops at a beam whose minimum is
        # below GUARD_FLOOR while another beam does better
        cfg = SystemConfig(f_c=140e9, B=14e9, N=90, L=200, n_angle=4096, n_freq=513)
        book = narrowband_codebook(cfg)
        report = evaluate(cfg, book)
        monkeypatch.setattr("widebeam.codebook.GUARD_FLOOR", 0.0)
        exact = evaluate(cfg, book)
        assert np.all(report.gains <= exact.gains)
        high = exact.gains >= GUARD_FLOOR
        assert np.array_equal(report.gains[high], exact.gains[high])
        assert np.array_equal(report.best_indices[high], exact.best_indices[high])
        assert report.worst_case <= exact.worst_case < GUARD_FLOOR
        # the cell still shows the exception, or this test checks nothing
        assert np.any(report.gains < exact.gains)

    def test_narrowband_weights_are_the_response_vectors(self, cfg16):
        # row 0 is the response vector at the first center, bit for bit; the
        # shift rule builds the others, each within rounding of its own
        book = narrowband_codebook(cfg16)
        centers = (2.0 * np.arange(1, 33) - 1.0) / 32 - 1.0
        row0 = steering_composite(16, centers[0]) / np.sqrt(16)
        assert book.weights[0].tobytes() == row0.tobytes()
        assert book.weights.tobytes() == shift_rows(row0, book.partition.centers()).tobytes()
        for w, c in zip(book.weights, centers, strict=True):
            assert np.abs(w - steering_composite(16, c) / np.sqrt(16)).max() <= 1e-13


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
        weights = book.weights
        sines = np.linspace(-1, 1, 400)
        scale = 1.0 + cfg16.frequency_grid() / cfg16.f_c
        G = all_beams_band_minima(weights, sines, scale)
        gains, winner = _general_sweep(weights, sines, scale)
        assert gains == pytest.approx(G.max(axis=0), rel=1e-12)
        top2 = np.sort(G, axis=0)[-2:]
        clear = top2[1] - top2[0] > 1e-10 * top2[1]
        assert clear.mean() > 0.9
        assert np.array_equal(winner[clear], G.argmax(axis=0)[clear])


class TestGeneralSweepSweepsEachRowOnce:
    """Within an angle block, each kept row is swept over the full band in
    one product: the candidates' band minima from the `lower` product are
    kept, and only the other kept rows are swept after it."""

    def sweep_calls(self, monkeypatch, caplog, weights, sines, scale):
        # the probe bound goes through the same reduction, on a table of
        # three frequencies: only full-band products are recorded
        calls = []
        real = codebook.least_gain

        def recording(w, E):
            if E.shape[1] == scale.size:
                calls.append((E, [row.tobytes() for row in w]))
            return real(w, E)

        monkeypatch.setattr(codebook, "least_gain", recording)
        with caplog.at_level(logging.DEBUG, logger="widebeam.codebook"):
            out = _general_sweep(weights, sines, scale)
        (rec,) = [r for r in caplog.records if r.name == "widebeam.codebook"]
        return out, calls, rec.getMessage()

    @pytest.mark.parametrize("kind", ["designed", "random", "duplicated", "negated"])
    def test_no_row_is_swept_twice_in_a_block(self, kind, monkeypatch, caplog, cfg16):
        rng = np.random.default_rng(11)
        if kind == "designed":
            weights = build_codebook(cfg16).weights
        elif kind == "negated":
            # -w has w's gains bit for bit, so it ties its twin's bound and
            # is kept, but loses the candidate pick to the lower index
            w = random_book("random", 16, 16, rng)
            weights = np.concatenate([w, -w])
        else:
            weights = random_book(kind, 16, 32, rng)
        sines = np.sort(np.concatenate([rng.uniform(-1, 1, 700), [-1.0, 1.0]]))
        scale = 1.0 + cfg16.frequency_grid() / cfg16.f_c
        (gains, winner), calls, msg = self.sweep_calls(monkeypatch, caplog, weights, sines,
                                                       scale)
        tables = []
        for E, rows in calls:
            if not tables or tables[-1][0] is not E:
                tables.append((E, []))
            tables[-1][1].extend(rows)
        n_rows = len({row.tobytes() for row in weights})
        block = max(1, int(codebook.SWEEP_CELLS / (scale.size * max(n_rows, 16))))
        # two products per block at most, the candidates then the rest, on
        # one phase table
        assert len(tables) == -(-sines.size // block) > 1
        assert len(calls) <= 2 * len(tables)
        assert [E.shape[2] for E, _ in tables[:-1]] == [block] * (len(tables) - 1)
        assert sum(E.shape[2] for E, _ in tables) == sines.size
        swept = 0
        for E, rows in tables:
            assert len(rows) == len(set(rows))
            swept += len(rows)
        # the record counts the same row sweeps, split into candidates and
        # the other kept rows
        counts = re.search(r"in (\d+) row sweeps \((\d+) candidate rows, (\d+) other kept "
                           r"rows\)$", msg)
        total, candidates, others = map(int, counts.groups())
        assert total == swept == candidates + others
        assert candidates >= len(tables)
        if kind == "negated":
            assert others >= candidates
        # and the result is still that of every beam
        G = all_beams_band_minima(weights, sines, scale)
        assert gains == pytest.approx(G.max(axis=0), rel=1e-10, abs=1e-12)


class TestTablePathsStayApart:
    """phase_powers builds the design path's tables and phase_table the
    evaluation kernel's: neither path calls the other's builder, so a
    change to the evaluation kernel cannot move a designed file."""

    @staticmethod
    def counted(monkeypatch, name):
        """Calls of array_model's `name`, through every widebeam module that
        binds it; one entry per call, its table's row count."""
        calls = []
        real = getattr(array_model, name)

        def counting(n, u):
            calls.append(n)
            return real(n, u)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "widebeam" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
        return calls

    def test_design_path_builds_no_evaluation_table(self, monkeypatch):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=32, L=64)
        partition = divide_zones(cfg)
        init = prv_beam(prv_plan(cfg.N, partition.delta_omega))
        tables = self.counted(monkeypatch, "phase_table")
        powers = self.counted(monkeypatch, "phase_powers")
        prototype, _ = solve(cfg, SolverConfig(), partition.delta_omega, init)
        centers = partition.centers()
        shift_rows(shift_beam(prototype, centers[0]).weights, centers)
        assert tables == []
        assert powers == [cfg.N, cfg.N]

    @pytest.mark.parametrize("kind", ["designed", "narrowband", "random"])
    def test_evaluation_builds_no_design_table(self, kind, monkeypatch, cfg16):
        if kind == "designed":
            book = build_codebook(cfg16)
        elif kind == "narrowband":
            book = narrowband_codebook(cfg16)
        else:
            weights = random_book("random", cfg16.N, cfg16.L, np.random.default_rng(5))
            book = Codebook.assemble(weights, divide_zones(cfg16), cfg16, None, kind="random")
        tables = self.counted(monkeypatch, "phase_table")
        powers = self.counted(monkeypatch, "phase_powers")
        report = evaluate(cfg16, book)
        assert powers == []
        # the general sweep and the per-zone minima read the evaluation
        # kernel; the matched path reads Dirichlet lookups only
        assert (len(tables) > 0) == (kind != "narrowband")
        assert report.per_zone.size == cfg16.L


class TestPerZoneWorst:
    @staticmethod
    def per_beam_loop(cfg, book, centers):
        out = []
        for l, w in enumerate(book.weights):
            lo, hi = virtual_interval(cfg, *book.partition.boundaries[l:l + 2])
            grid = np.linspace(lo, hi, ZONE_GRID)
            if centers is None:
                out.append(composite_gain(w, grid).min())
            else:
                out.append((dirichlet_power(grid - centers[l], cfg.N) / cfg.N).min())
        return np.array(out)

    @staticmethod
    def floor_rows(monkeypatch):
        """The rows that gain_floor is called on, one entry per call."""
        rows = []

        def counted(w, *args):
            rows.append(w)
            return gain_floor(w, *args)

        monkeypatch.setattr("widebeam.codebook.gain_floor", counted)
        return rows

    def test_designed_book(self, cfg16):
        book = build_codebook(cfg16)
        assert _per_zone_worst(cfg16, book, None) == pytest.approx(
            self.per_beam_loop(cfg16, book, None), rel=1e-10)

    def test_shift_book_reads_row_zero_once_per_window(self, monkeypatch):
        # every zone of a shift book is row 0 over a translated window, and
        # the designed book's 256 windows take at most 16 distinct values
        cfg = SystemConfig(f_c=140e9, B=10e9, N=128, L=256)
        book = build_codebook(cfg)
        rows = self.floor_rows(monkeypatch)
        got = _per_zone_worst(cfg, book, None)
        assert 1 <= len(rows) <= 16
        assert all(np.array_equal(w, book.weights[0]) for w in rows)
        assert got == pytest.approx(self.per_beam_loop(cfg, book, None), rel=1e-10)

    def test_version1_designed_fixture(self, monkeypatch):
        # a shift book decided from a given block: its rows are row 0's
        # shifts only to rounding, and its minima still match row by row
        book, cfg = read_codebook(DATA / "designed_v1.json")
        assert book.shifted
        rows = self.floor_rows(monkeypatch)
        assert _per_zone_worst(cfg, book, None) == pytest.approx(
            self.per_beam_loop(cfg, book, None), rel=1e-10)
        assert 1 <= len(rows) < len(book)

    @pytest.mark.parametrize("n,l", [(1, 3), (7, 9), (33, 40)])
    def test_random_book(self, n, l, monkeypatch):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=l)
        part = divide_zones(cfg)
        book = Codebook(weights=tuple(random_cm_beam(n, seed=i) for i in range(l)),
                        partition=part, provenance={})
        assert not book.shifted
        rows = self.floor_rows(monkeypatch)
        assert _per_zone_worst(cfg, book, None) == pytest.approx(
            self.per_beam_loop(cfg, book, None), rel=1e-10)
        assert len(rows) == l

    def test_matched_book(self, cfg16, monkeypatch):
        book = narrowband_codebook(cfg16)
        centers = (2.0 * np.arange(1, 33) - 1.0) / 32 - 1.0
        rows = self.floor_rows(monkeypatch)
        assert _per_zone_worst(cfg16, book, centers) == pytest.approx(
            self.per_beam_loop(cfg16, book, centers), rel=1e-10)
        assert rows == []


class TestEvaluateLog:
    def records(self, caplog, cfg, book):
        with caplog.at_level(logging.DEBUG, logger="widebeam.codebook"):
            evaluate(cfg, book)
        return [r for r in caplog.records if r.name == "widebeam.codebook"]

    def test_matched_path(self, caplog, cfg16):
        (rec,) = self.records(caplog, cfg16, narrowband_codebook(cfg16))
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage().startswith("matched path (response-vector codebook recognised)")

    def matched_counts(self, caplog, cfg):
        (rec,) = self.records(caplog, cfg, narrowband_codebook(cfg))
        msg = rec.getMessage()
        assert re.fullmatch(r"matched path \(response-vector codebook recognised\): \d+ beams "
                            r"x \d+ angles, \d+ of \d+ candidate pairs given the full band "
                            r"minimum, \d+ pruned by the analytic bound, \d+ given the "
                            r"two-sample bound", msg)
        return dict(zip(["beams", "angles", "full", "pairs", "pruned", "bounded"],
                        map(int, re.findall(r"\d+", msg))))

    def test_matched_path_counts_evaluated_pairs(self, caplog, cfg16):
        got = self.matched_counts(caplog, cfg16)
        n_sines = evaluate(cfg16, narrowband_codebook(cfg16)).angles.size
        assert (got["beams"], got["angles"]) == (32, n_sines)
        # one pass over every beam: each pair but the home beams' meets the
        # analytic bound once
        assert got["pairs"] == n_sines * 32
        assert got["pruned"] + got["bounded"] + n_sines == got["pairs"]
        assert n_sines <= got["full"] <= n_sines + got["bounded"]

    def test_doubled_radius_bounds_no_pair_twice(self, caplog):
        # the Prop. 1 zero regime: some angles' best minimum lies under
        # GUARD_FLOOR, where a sweep that grows its radius would revisit the
        # inner pairs; the one pass meets each pair once
        cfg = SystemConfig(f_c=140e9, B=18e9, N=140, L=200)
        got = self.matched_counts(caplog, cfg)
        n_sines = evaluate(cfg, narrowband_codebook(cfg)).angles.size
        assert got["pairs"] == n_sines * cfg.L
        # every pair but the home beams' meets the analytic bound once
        assert got["pruned"] + got["bounded"] + n_sines == got["pairs"]
        assert n_sines <= got["full"] <= n_sines + got["bounded"]

    def test_doubled_radius_with_more_cut_points_matches_the_unpruned_sweep(self, caplog):
        # windows far from the home beam hold more cut points than those
        # near it; their minima match the unpruned sweep all the same
        cfg = SystemConfig(f_c=140e9, B=18e9, N=48, L=100, n_angle=64, n_freq=33)
        got = self.matched_counts(caplog, cfg)
        book = narrowband_codebook(cfg)
        report = evaluate(cfg, book)
        assert got["pairs"] == report.angles.size * cfg.L
        # the grid evaluate sweeps, rebuilt
        sines = np.unique(np.concatenate([np.linspace(-1.0, 1.0, cfg.n_angle),
                                          np.sin(book.partition.boundaries), [-1.0, 1.0]]))
        centers = (2.0 * np.arange(1, cfg.L + 1) - 1.0) / cfg.L - 1.0
        scale = 1.0 + cfg.frequency_grid() / cfg.f_c
        ref_gains, ref_winner = unpruned_matched_sweep(cfg.N, centers, sines, scale)
        high = ref_gains >= GUARD_FLOOR
        assert np.array_equal(report.gains[high], ref_gains[high])
        assert np.array_equal(report.best_indices[high] - 1, ref_winner[high])
        assert np.all(report.gains[~high] <= ref_gains[~high])

    def test_far_null_halves_the_two_sample_bounds(self, caplog):
        # the Prop. 1 zero regime: most windows are wider than 2/n, and the
        # sidelobe reach taken from each window's far null, not its near
        # end, leaves at most half of the 21 765 pairs the near end left
        cfg = SystemConfig(f_c=140e9, B=18e9, N=140, L=200)
        got = self.matched_counts(caplog, cfg)
        assert got["bounded"] <= 21765 // 2

    def test_null_neighbours_bound_drops_most_bounded_pairs(self, caplog):
        # the Prop. 1 zero regime: the two samples beside each window's first
        # null cut leave at most 0.6 of the bounded pairs to the full minimum
        # (about half); bounding at the two window ends leaves nearly all
        cfg = SystemConfig(f_c=140e9, B=18e9, N=140, L=200)
        got = self.matched_counts(caplog, cfg)
        assert got["full"] - got["angles"] <= 0.6 * got["bounded"]

    def test_main_lobe_reach_drops_the_flank_before_any_bound(self, caplog):
        # at N=10 most candidates lie on the main lobe's flank below the
        # level: the reach drops them without the two-sample bound
        cfg = SystemConfig(f_c=140e9, B=18e9, N=10, L=200)
        got = self.matched_counts(caplog, cfg)
        assert got["bounded"] < 0.01 * got["pairs"]

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
