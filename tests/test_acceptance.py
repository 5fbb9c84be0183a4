"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line on the real terminal so the whole
gate is readable from the pytest log, then asserts.  Stated runtime
budgets are part of the pass condition.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from widebeam import (
    SystemConfig,
    build_codebook,
    evaluate,
    narrowband_codebook,
    prop1_worst_case,
    prop2_optimal_N,
)
from widebeam import narrowband
from widebeam.array_model import composite_gain, steering_composite
from widebeam.cli import main
from widebeam.codebook import shift_beam
from widebeam.prv import prv_beam, prv_plan
from widebeam.zones import divide_zones, prop3_upper_bound, virtual_interval


@pytest.fixture
def report(capsys):
    """Print one criterion line past the capture machinery, then assert."""
    def _report(k: int, ok: bool, detail: str) -> None:
        line = f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@lru_cache(maxsize=None)
def _designed(n: int, l: int):
    cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=l)
    book = build_codebook(cfg)
    return cfg, book, evaluate(cfg, book)


def test_criterion_01_narrowband_closed_form_consistency(report):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for n in range(10, 141, 10):
        for b in (2e9, 6e9, 10e9, 14e9, 18e9):
            cell = SystemConfig(f_c=140e9, B=b, N=n, L=200,
                                n_angle=4096, n_freq=513)
            grid = evaluate(cell, narrowband_codebook(cell)).worst_case
            closed = prop1_worst_case(cell).worst_case_gain
            tol = max(0.02 * closed, 1e-3)
            worst_ratio = max(worst_ratio, abs(grid - closed) / tol)
    dt = time.perf_counter() - t0
    report(1, worst_ratio <= 1.0 and dt < 60.0,
            f"70 cells, max err/tol {worst_ratio:.3f}, {dt:.1f}s")


def test_criterion_02_optimal_antenna_count_bracket(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    misses = 0
    for _ in range(10):
        f_c = float(rng.uniform(70e9, 300e9))
        b = float(rng.uniform(1e9, 20e9))
        l = int(rng.integers(20, 300))
        (lo, hi), best = prop2_optimal_N(f_c, b, l)
        n_max = int(np.ceil(4.0 * f_c * l / (2.0 * f_c + b * l)))
        gains = [narrowband._prop1_gain(f_c, b, n, l) for n in range(1, n_max)]
        argmax = 1 + int(np.argmax(gains))
        if argmax not in (lo, hi) or best != argmax:
            misses += 1
    dt = time.perf_counter() - t0
    report(2, misses == 0 and dt < 5.0,
            f"10 triples, {misses} outside the candidate set, {dt:.2f}s")


def test_criterion_03_zone_division_invariants(report):
    t0 = time.perf_counter()
    worst = {"closure": 0.0, "widths": 0.0, "mirror": 0.0, "mirror_b0": 0.0,
             "pointwise": 0.0}
    for l in (1, 4, 32, 200):
        for b in (0.0, 10e9):
            cfg = SystemConfig(f_c=140e9, B=b, N=min(l, 16), L=l)
            part = divide_zones(cfg)
            bd = part.boundaries
            worst["closure"] = max(worst["closure"], abs(bd[-1] - np.pi / 2))
            widths = np.array([np.diff(virtual_interval(cfg, bd[i], bd[i + 1]))[0]
                               for i in range(l)])
            worst["widths"] = max(worst["widths"],
                                  np.abs(widths - part.delta_omega).max())
            # the banded partition mirrors its positive half exactly; the
            # B = 0 arcsines are off by rounding
            key = "mirror" if b > 0 else "mirror_b0"
            worst[key] = max(worst[key], np.abs(bd + bd[::-1]).max())
            if b == 0.0:
                exact = np.arcsin(-1.0 + 2.0 * np.arange(l + 1) / l)
                worst["pointwise"] = max(worst["pointwise"],
                                         np.abs(bd - exact).max())
    dt = time.perf_counter() - t0
    ok = (worst["closure"] <= 1e-12 and worst["widths"] <= 1e-9
          and worst["mirror"] == 0.0 and worst["mirror_b0"] <= 1e-6
          and worst["pointwise"] <= 1e-12
          and dt < 1.0)
    report(3, ok, "closure {closure:.1e}, widths {widths:.1e}, mirror {mirror:.1e}, "
                   "B=0 mirror {mirror_b0:.1e}, B=0 {pointwise:.1e}".format(**worst)
            + f", {dt:.2f}s")


def test_criterion_04_aligned_gain_oracle(report):
    t0 = time.perf_counter()
    cfg = SystemConfig(f_c=140e9, B=10e9, N=16, L=32, n_freq=513)
    rng = np.random.default_rng(4)
    checked = 0
    worst_rel = 0.0
    while checked < 100:
        phi_m = float(rng.uniform(-np.pi / 2, np.pi / 2))
        phi = float(rng.uniform(-np.pi / 2, np.pi / 2))
        u = (cfg.f_c * abs(np.sin(phi_m) - np.sin(phi))
             + cfg.B / 2 * abs(np.sin(phi)))
        if u > 2.0 * cfg.f_c / cfg.N:
            continue
        w = steering_composite(cfg.N, np.sin(phi_m)) / np.sqrt(cfg.N)
        hats = (1.0 + cfg.frequency_grid() / cfg.f_c) * np.sin(phi)
        brute = composite_gain(w, hats).min()
        closed = narrowband.aligned_beam_wideband_gain(cfg, phi_m, phi)
        worst_rel = max(worst_rel, abs(closed - brute) / max(brute, 1e-300))
        checked += 1
    dt = time.perf_counter() - t0
    report(4, worst_rel <= 1e-6 and dt < 5.0,
            f"100 pairs, max rel err {worst_rel:.2e}, {dt:.2f}s")


def test_criterion_05_headline_worst_cases(report):
    ok = True
    details = []
    for n, l, floor in ((16, 32, 4.0), (32, 64, 8.0)):
        t0 = time.perf_counter()
        cfg, _, rep = _designed(n, l)
        nb = evaluate(cfg, narrowband_codebook(cfg)).worst_case
        dt = time.perf_counter() - t0
        ok &= rep.worst_case >= floor and rep.worst_case > nb and dt < 60.0
        details.append(f"N={n}: {rep.worst_case:.3f} vs nb {nb:.3f}, {dt:.1f}s")
    report(5, ok, "; ".join(details))


def test_criterion_06_width_bound(tmp_path, capsys, report):
    ok = True
    details = []
    for n, l in ((16, 32), (32, 64)):
        _, book, rep = _designed(n, l)
        bound = prop3_upper_bound(book.partition)
        ok &= rep.worst_case <= bound * 1.02
        details.append(f"N={n}: {rep.worst_case:.3f} <= {bound:.3f}*1.02")
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text("{}", encoding="utf-8")
    rc = main(["validate", str(cfg_path)])
    out = capsys.readouterr().out
    ok &= rc == 0 and "prop3-bound: pass" in out
    details.append(f"cmd_validate rc={rc}")
    report(6, ok, "; ".join(details))


def test_criterion_07_shift_translation(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    grid = np.linspace(-1.0, 1.0, 512)
    worst = 0.0
    from widebeam.array_model import BeamVector
    for _ in range(100):
        w = BeamVector(np.exp(1j * rng.uniform(0, 2 * np.pi, 16)) / 4.0)
        t = float(rng.uniform(-1.0, 1.0))
        err = np.abs(composite_gain(shift_beam(w, t).weights, grid)
                     - composite_gain(w.weights, grid - t)).max()
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    report(7, worst <= 1e-10 and dt < 2.0,
            f"100 pairs, max err {worst:.2e}, {dt:.2f}s")


def test_criterion_08_prv_in_phase(report):
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (16, 32, 64):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=2 * n)
        plan = prv_plan(n, divide_zones(cfg).delta_omega)
        if plan.Z == 1:
            details.append(f"N={n}: single block")
            continue
        w = prv_beam(plan).weights
        k = np.arange(n)
        k_local = np.arange(plan.N_s)
        plain = np.concatenate([np.exp(-1j * np.pi * k_local * p)
                                for p in plan.pointing])
        w0 = np.conj(plain) / np.sqrt(n)
        phase_err = 0.0
        margin = np.inf
        for t in plan.intersections[:-1]:
            r = (w * np.exp(-1j * np.pi * k * t)).reshape(plan.Z, plan.N_s).sum(axis=1)
            top = np.argsort(np.abs(r))[-2:]
            ok &= abs(int(top[0]) - int(top[1])) == 1
            diff = np.angle(r[top[0]] * np.conj(r[top[1]]))
            phase_err = max(phase_err, abs(diff))
            margin = min(margin, float(composite_gain(w, np.array([t]))[0]
                                       - composite_gain(w0, np.array([t]))[0]))
        ok &= phase_err <= 1e-9 and margin > 0.0
        details.append(f"N={n}: Z={plan.Z} phase {phase_err:.1e} margin {margin:.2f}")
    dt = time.perf_counter() - t0
    ok &= dt < 2.0
    report(8, ok, "; ".join(details) + f", {dt:.2f}s")


def test_criterion_09_bandwidth_and_zone_count_trends(report):
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (8, 12, 16, 24, 32):
        worsts = []
        for b in (2e9, 6e9, 10e9, 14e9, 18e9):
            cfg = SystemConfig(f_c=140e9, B=b, N=n, L=2 * n)
            worsts.append(evaluate(cfg, build_codebook(cfg)).worst_case)
        ok &= bool(np.all(np.diff(worsts) <= 1e-9))
    details.append("worst non-increasing in B on 5x5 grid")
    saturation = []
    for l in (96, 128):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=32, L=l)
        saturation.append(evaluate(cfg, build_codebook(cfg)).worst_case)
    rel = (saturation[1] - saturation[0]) / saturation[0]
    ok &= rel < 0.05
    details.append(f"L=96->128 gain {rel * 100:+.2f}%")
    dt = time.perf_counter() - t0
    ok &= dt < 180.0
    report(9, ok, "; ".join(details) + f", {dt:.0f}s")


def test_criterion_10_byte_identical_artifacts(tmp_path, capsys, report):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"n": 8, "l": 16, "n_angle": 512, "n_freq": 65}',
                        encoding="utf-8")
    blobs = {}
    for tag in ("one", "two"):
        cb = tmp_path / f"cb_{tag}.json"
        ev = tmp_path / f"ev_{tag}.csv"
        sw = tmp_path / f"sw_{tag}.csv"
        assert main(["design", str(cfg_path), "--out", str(cb)]) == 0
        assert main(["eval", str(cb), "--config", str(cfg_path),
                     "--csv", str(ev)]) == 0
        assert main(["sweep", str(cfg_path), "--n-range", "8,16",
                     "--b-range", "0,10", "--csv", str(sw)]) == 0
        blobs[tag] = (cb.read_bytes(), ev.read_bytes(), sw.read_bytes())
    capsys.readouterr()
    ok = blobs["one"] == blobs["two"]
    sizes = ", ".join(str(len(b)) for b in blobs["one"])
    report(10, ok, f"codebook/eval/sweep bytes equal ({sizes})")
