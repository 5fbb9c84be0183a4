"""The benchmark's workloads: inputs, one pass, output checks.

Each workload has a fixed problem size.  With the tracer off, a pass calls
the library the way a user does (build_codebook, design_beam_for_aod,
evaluate, the storage functions).  With it on, the same pass puts a span
around each call into a layer, and calls the build steps one stage at a
time, the way build_codebook and design_beam_for_aod do, so that the
stages can be timed; `agree` then checks that the traced results match the
untraced ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from widebeam import alm, storage
from widebeam.array_model import (SystemConfig, composite_gain, steering_composite,
                                  wideband_beam_gain)
from widebeam.codebook import (Codebook, build_codebook, design_beam_for_aod,
                               evaluate, shift_beam)
from widebeam.narrowband import narrowband_codebook, prop1_worst_case
from widebeam.prv import prv_beam, prv_plan
from widebeam.zones import divide_zones, prop3_upper_bound

F_C = 140e9
B_REF = 10e9
PIN_TOL = 1e-8      # pinned reference values
AGREE_TOL = 1e-9    # traced against untraced results


class Checks:
    """Counts output checks; a failure is recorded and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _prototype(tr, cfg, solver_cfg, width, **attrs):
    """prv initializer then the ALM solve, as build_codebook runs them."""
    with tr.span("prv", **attrs):
        init = prv_beam(prv_plan(cfg.N, width))
    with tr.span("alm", **attrs) as span:
        prototype, history = alm.solve(cfg, solver_cfg, width, init)
    # solve keeps the first iterate that strictly beats every earlier one,
    # the initializer included; what follows it is wasted work
    _, grid = alm.build_grid(cfg.N, width, cfg.solver_grid_size)
    start = float(composite_gain(init.weights, grid).min())
    gains = [g for _, g in history]
    best = int(np.argmax(gains))
    improved = gains[best] > start
    span.attrs.update(iters=len(history), improved=improved,
                      after_best=len(history) - best - 1 if improved else len(history))
    return prototype


def design(cfg: SystemConfig, tr) -> Codebook:
    """build_codebook, or its stages under spans when tracing."""
    if not tr.enabled:
        return build_codebook(cfg)
    solver_cfg = alm.SolverConfig()
    with tr.span("zones", N=cfg.N):
        partition = divide_zones(cfg)
    prototype = _prototype(tr, cfg, solver_cfg, partition.delta_omega, N=cfg.N)
    with tr.span("codebook.shift", N=cfg.N):
        beams = tuple(shift_beam(prototype, c) for c in partition.centers())
        return Codebook.assemble(beams, partition, cfg, solver_cfg, kind="wideband")


def aod_beam(cfg: SystemConfig, phi: float, tr):
    """design_beam_for_aod, or its stages under spans when tracing."""
    if not tr.enabled:
        return design_beam_for_aod(cfg, None, phi)
    s = float(np.sin(phi))
    width = (cfg.B / cfg.f_c) * abs(s)
    prototype = _prototype(tr, cfg, alm.SolverConfig(), width, phi=phi)
    with tr.span("codebook.shift", phi=phi):
        return shift_beam(prototype, s)


def grid_evaluate(cfg: SystemConfig, book: Codebook, tr):
    with tr.span("codebook.evaluate", N=cfg.N) as span:
        report = evaluate(cfg, book)
    span.attrs.update(cells=report.angles.size * cfg.n_freq * len(book),
                      per_zone_spread=float(np.ptp(report.per_zone)))
    return report


def prototype_gain(cfg: SystemConfig, book: Codebook) -> float:
    """Minimum gain of a designed book's prototype over the solver's window grid.

    Beam 0 is the prototype shifted to the first zone center; shifting it
    back recovers the prototype to rounding error.
    """
    p = book.partition
    proto = book.beams[0].weights * steering_composite(cfg.N, -p.centers()[0])
    _, grid = alm.build_grid(cfg.N, p.delta_omega, cfg.solver_grid_size)
    return float(composite_gain(proto, grid).min())


def _beams_agree(a, b) -> bool:
    return len(a) == len(b) and all(
        np.abs(x.weights - y.weights).max() <= AGREE_TOL for x, y in zip(a, b))


@dataclass(frozen=True)
class DesignedEval:
    """build_codebook then grid evaluate, what `widebeam design`/`eval` users pay for.

    Deterministic: the seed is recorded and picks nothing.
    """

    name: str = "designed_eval"
    cases: tuple = ((16, 32), (32, 64), (128, 256))
    pins: tuple = ((16, 8.6576449182099), (32, 9.19629529924266))

    def inputs(self, seed: int):
        return [SystemConfig(f_c=F_C, B=B_REF, N=n, L=l) for n, l in self.cases]

    def run(self, cfgs, tr):
        out = []
        for cfg in cfgs:
            with tr.span("case", N=cfg.N):
                book = design(cfg, tr)
                out.append((book, grid_evaluate(cfg, book, tr)))
        return out

    def check(self, cfgs, out, checks: Checks) -> None:
        pins = dict(self.pins)
        for cfg, (book, report) in zip(cfgs, out):
            w = report.worst_case
            if cfg.N in pins:
                checks.check(abs(w - pins[cfg.N]) <= PIN_TOL,
                             f"N={cfg.N}: worst case {w!r} is not the pinned {pins[cfg.N]!r}")
            checks.check(0.0 < w <= 1.02 * prop3_upper_bound(book.partition),
                         f"N={cfg.N}: worst case {w!r} outside (0, 1.02 * 2/delta_omega]")

    def agree(self, cfgs, ref, got, checks: Checks) -> None:
        for cfg, (b0, r0), (b1, r1) in zip(cfgs, ref, got):
            checks.check(_beams_agree(b0.beams, b1.beams)
                         and abs(r0.worst_case - r1.worst_case) <= AGREE_TOL,
                         f"N={cfg.N}: traced codebook or worst case differs")

    def quality(self, cfgs, out) -> tuple[float, float]:
        book, report = out[-1]
        return report.worst_case, prototype_gain(cfgs[-1], book)


@dataclass(frozen=True)
class DesignRoundtrip:
    """Design at L = 2N and a JSON write/read/write of each book, plus AoD beams.

    Never calls evaluate.  The AoD angles are drawn uniformly in sine from
    the seed; each window is (B/f_c)|sin phi| wide, so the PRV split varies.
    """

    name: str = "design_roundtrip"
    sizes: tuple = (16, 32, 64, 128, 256)
    aod_n: int = 128
    aod_beams: int = 16

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        phis = np.arcsin(rng.uniform(-1.0, 1.0, self.aod_beams))
        cfgs = [SystemConfig(f_c=F_C, B=B_REF, N=n, L=2 * n) for n in self.sizes]
        aod_cfg = SystemConfig(f_c=F_C, B=B_REF, N=self.aod_n, L=2 * self.aod_n)
        return cfgs, aod_cfg, [float(p) for p in phis]

    def run(self, inputs, tr):
        cfgs, aod_cfg, phis = inputs
        books = []
        for cfg in cfgs:
            with tr.span("book", N=cfg.N):
                book = design(cfg, tr)
                with tr.span("storage.write", N=cfg.N) as span:
                    text = storage.codebook_json(book)
                # the JSON text is ASCII, so its length is its size in bytes
                span.attrs["bytes"] = len(text)
                with tr.span("storage.read", N=cfg.N) as span:
                    loaded, _ = storage.parse_codebook(text)
                span.attrs["bytes"] = len(text)
                with tr.span("storage.write", N=cfg.N) as span:
                    again = storage.codebook_json(loaded)
                span.attrs["bytes"] = len(again)
            books.append((book, text, again))
        beams = []
        for phi in phis:
            with tr.span("aod_beam", phi=phi):
                beams.append(aod_beam(aod_cfg, phi, tr))
        return books, beams

    def check(self, inputs, out, checks: Checks) -> None:
        cfgs, aod_cfg, phis = inputs
        books, beams = out
        for cfg, (_, text, again) in zip(cfgs, books):
            checks.check(text == again, f"N={cfg.N}: JSON write-read-write is not byte-identical")
        for phi, beam in zip(phis, beams):
            g = wideband_beam_gain(aod_cfg, phi, beam)
            checks.check(g > 0.0, f"AoD beam at phi={phi!r}: band-minimum gain {g!r} at its AoD")

    def agree(self, inputs, ref, got, checks: Checks) -> None:
        cfgs, _, phis = inputs
        for cfg, (b0, t0, _), (b1, t1, _) in zip(cfgs, ref[0], got[0]):
            checks.check(_beams_agree(b0.beams, b1.beams) and t0 == t1,
                         f"N={cfg.N}: traced codebook differs")
        for phi, w0, w1 in zip(phis, ref[1], got[1]):
            checks.check(_beams_agree([w0], [w1]), f"AoD beam at phi={phi!r}: traced beam differs")

    def quality(self, inputs, out) -> tuple[float, float]:
        # no grid evaluation here: every zone of a designed book inherits its
        # prototype's window minimum, which stands in for the book's worst case
        cfgs, _, _ = inputs
        gains = [prototype_gain(cfg, book) for cfg, (book, _, _) in zip(cfgs, out[0])]
        return min(gains), gains[-1]


def closed_form_tol(closed: float) -> float:
    return max(0.02 * closed, 1e-3)


@dataclass(frozen=True)
class NarrowbandGrid:
    """Narrowband books on an N x B grid, grid evaluate against the Prop. 1 closed form.

    Exercises evaluate on the matched response-vector path and never
    touches the solver.  Deterministic: the seed is recorded and picks nothing.
    """

    name: str = "narrowband_grid"
    sizes: tuple = tuple(range(10, 141, 10))
    bands: tuple = (2e9, 6e9, 10e9, 14e9, 18e9)
    L: int = 200
    n_angle: int = 4096
    n_freq: int = 513

    def inputs(self, seed: int):
        return [SystemConfig(f_c=F_C, B=b, N=n, L=self.L, n_angle=self.n_angle,
                             n_freq=self.n_freq)
                for n in self.sizes for b in self.bands]

    def run(self, cells, tr):
        out = []
        for cfg in cells:
            with tr.span("cell", N=cfg.N, B=cfg.B):
                with tr.span("narrowband.codebook", N=cfg.N):
                    book = narrowband_codebook(cfg)
                report = grid_evaluate(cfg, book, tr)
                with tr.span("narrowband.closed_form", N=cfg.N) as span:
                    closed = prop1_worst_case(cfg).worst_case_gain
                span.attrs["err_over_tol"] = abs(report.worst_case - closed) / closed_form_tol(closed)
            out.append((report.worst_case, float(report.per_zone.min()), closed))
        return out

    def check(self, cells, out, checks: Checks) -> None:
        for cfg, (worst, _, closed) in zip(cells, out):
            checks.check(abs(worst - closed) <= closed_form_tol(closed),
                         f"N={cfg.N} B={cfg.B:g}: grid {worst!r} vs closed form {closed!r}")

    def agree(self, cells, ref, got, checks: Checks) -> None:
        for cfg, r, g in zip(cells, ref, got):
            checks.check(abs(r[0] - g[0]) <= AGREE_TOL,
                         f"N={cfg.N} B={cfg.B:g}: traced worst case differs")

    def quality(self, cells, out) -> tuple[float, float]:
        # the best cell of the table
        return max(w for w, _, _ in out), max(z for _, z, _ in out)


WORKLOADS = {w.name: w for w in (DesignedEval(), DesignRoundtrip(), NarrowbandGrid())}
