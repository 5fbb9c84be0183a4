"""Codebook assembly and the worst-case evaluation harness.

One prototype beam is optimized over a centered virtual window and then
shifted to every zone center by an element-wise steering product; the shift
translates the whole gain pattern, so all zones inherit the same local
worst case.  Evaluation sweeps angle x frequency grids.  Both sweep paths
prune exactly by one rule: a beam's gain at any one frequency bounds its
band minimum from above, so a beam whose bound falls below a band minimum
that another beam attains can neither win nor tie, and is never swept
over the full band.  For codebooks made of plain response vectors the
sweep collapses to Dirichlet-kernel lookups over the candidate beams near
each angle (an envelope bound certifies that the beams outside that
radius cannot change the outcome).  Each angle is seeded with its home
beam's minimum; every other candidate is bounded first in closed form by
the kernel's sidelobe envelope, with no kernel call, then by the kernel
at two of its frequency samples, and only candidates whose bound reaches
the best minimum found so far get the full sampled minimum.  Any other
codebook goes through the general sweep, which bounds every beam by its
minimum over three probe frequencies.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from . import alm
from .array_model import (BeamVector, SystemConfig, dirichlet_power,
                          steering_composite)
from .prv import prv_beam, prv_plan
from .zones import ZonePartition, divide_zones, virtual_interval

ZONE_GRID = 1025        # per-zone virtual grid for local worst cases
GUARD_FLOOR = 5e-4      # absolute gain below which pruned beams are irrelevant
SWEEP_CELLS = 1e6       # phase-matrix cells per angle block of the general sweep
PROBE_TOL = 1e-9        # relative slack that keeps near-ties in the pruned sweeps
HORNER_ROWS = 32        # beams per Horner pass of the per-zone minima

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Codebook:
    """L beams, the partition that generated them, and a provenance record."""

    beams: tuple[BeamVector, ...]
    partition: ZonePartition
    provenance: dict

    def __post_init__(self):
        if len(self.beams) != self.partition.n_zones:
            raise ValueError(
                f"{len(self.beams)} beams for {self.partition.n_zones} zones"
            )
        object.__setattr__(self, "beams", tuple(self.beams))

    def __len__(self) -> int:
        return len(self.beams)

    @classmethod
    def assemble(cls, beams, partition: ZonePartition, cfg: SystemConfig,
                 solver_cfg, kind: str) -> "Codebook":
        prov = {
            "kind": kind,
            "config": {"f_c": cfg.f_c, "B": cfg.B, "N": cfg.N, "L": cfg.L,
                       "M": cfg.solver_grid_size},
            "solver": None if solver_cfg is None else {
                "rho1": solver_cfg.rho1, "rho2": solver_cfg.rho2,
                "beta1": solver_cfg.beta1, "beta2": solver_cfg.beta2,
                "n_ite": solver_cfg.n_ite, "eps": solver_cfg.eps,
            },
        }
        digest = hashlib.sha256(repr(sorted(prov.items(), key=str)).encode())
        prov["input_sha256"] = digest.hexdigest()
        return cls(beams=tuple(beams), partition=partition, provenance=prov)


@dataclass(frozen=True)
class EvaluationReport:
    """Per-angle best gains, the global worst case, and per-zone local minima."""

    angles: np.ndarray          # radians, sorted
    gains: np.ndarray           # best wideband gain per angle
    best_indices: np.ndarray    # 1-based winning beam per angle
    worst_case: float
    worst_angle: float
    per_zone: np.ndarray        # local worst case of each zone's own beam


def shift_beam(w: BeamVector, t: float) -> BeamVector:
    """Translate a beam's gain pattern by t in composite space.

    The element-wise product with the steering phases at t maps the pattern
    g(u) to g(u - t) exactly and preserves the modulus of every weight.
    """
    return BeamVector(w.weights * steering_composite(w.n, float(t)))


def build_codebook(cfg: SystemConfig, solver_cfg: alm.SolverConfig | None = None) -> Codebook:
    """Full pipeline: partition, wide-beam initializer, solver, zone shifts."""
    if solver_cfg is None:
        solver_cfg = alm.SolverConfig()
    partition = divide_zones(cfg)
    init = prv_beam(prv_plan(cfg.N, partition.delta_omega))
    prototype, _ = alm.solve(cfg, solver_cfg, partition.delta_omega, init)
    beams = tuple(shift_beam(prototype, c) for c in partition.centers())
    return Codebook.assemble(beams, partition, cfg, solver_cfg, kind="wideband")


def design_beam_for_aod(cfg: SystemConfig, solver_cfg: alm.SolverConfig | None,
                        phi: float) -> BeamVector:
    """One wide beam holding gain toward a known AoD across the whole band.

    The band smears sin(phi) over a window of width (B/f_c)|sin phi|
    centered on sin(phi); the prototype is solved on the centered window
    and shifted there.  B = 0 or phi = 0 degenerates to the plain matched
    beam.
    """
    if not abs(phi) <= np.pi / 2:
        raise ValueError(f"phi={phi} outside [-pi/2, pi/2]")
    if solver_cfg is None:
        solver_cfg = alm.SolverConfig()
    s = float(np.sin(phi))
    width = (cfg.B / cfg.f_c) * abs(s)
    prototype, _ = alm.solve(cfg, solver_cfg, width, prv_beam(prv_plan(cfg.N, width)))
    return shift_beam(prototype, s)


def _matched_centers(cfg: SystemConfig, cb: Codebook) -> np.ndarray | None:
    """Sine-space centers if cb is a plain response-vector codebook, else None.

    Recognized: uniform sine zone boundaries and every beam equal to the
    response vector at its zone's sine center, both within 1e-9.  This is
    what the narrowband constructor emits and what its JSON round-trip
    produces.
    """
    L = len(cb)
    expected_bounds = -1.0 + 2.0 * np.arange(L + 1) / L
    if np.abs(np.sin(cb.partition.boundaries) - expected_bounds).max() > 1e-9:
        return None
    centers = (2.0 * np.arange(1, L + 1) - 1.0) / L - 1.0
    weights = np.stack([w.weights for w in cb.beams])
    if np.abs(weights - steering_composite(cfg.N, centers) / np.sqrt(cfg.N)).max() > 1e-9:
        return None
    return centers


def _cut_range(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """First and last m with the cut point 2m/n inside [lo, hi] (1e-9
    slack), and the most cut points any one window holds."""
    m_lo = np.ceil(lo * (n / 2.0) - 1e-9).astype(np.int64)
    m_hi = np.floor(hi * (n / 2.0) + 1e-9).astype(np.int64)
    return m_lo, m_hi, int(np.max(m_hi - m_lo + 1, initial=0))


def _cut_samples(n: int, lo: np.ndarray, h: np.ndarray, m: np.ndarray,
                 n_samp: int) -> tuple[np.ndarray, np.ndarray]:
    """The two samples lo + i*h, lo + (i+1)*h either side of the cut point
    2m/n, clipped to the window's n_samp samples."""
    t = 2.0 * m / n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        idx = np.floor((t - lo) / h)
    idx = np.where(np.isfinite(idx), idx, 0.0)
    x = lo + np.clip(idx, 0, n_samp - 2).astype(np.int64) * h
    return x, x + h


def _first_null(n: int, m_lo: np.ndarray, m_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first cut of each window that is a null, skipping a peak cut
    (m a multiple of n) at m_lo, and whether the window holds it."""
    m = m_lo + (m_lo % n == 0)
    return m, (m <= m_hi) & (n > 1)


def _windowed_min(n: int, lo: np.ndarray, hi: np.ndarray, n_samp: int,
                  ncut: int | None = None) -> np.ndarray:
    """Minimum of dirichlet_power over n_samp uniform samples of [lo, hi].

    Exact, but far cheaper than evaluating every sample: the pattern is
    unimodal between consecutive multiples of 2/n (its nulls and peaks),
    so the sampled minimum is attained at a window end or at a sample
    adjacent to one of those cut points.  Only those samples are
    evaluated, a handful per window instead of n_samp.  A window with
    fewer cut points than ncut (by default the most any window of the
    batch holds) also looks at its second sample lo + h, as a batch that
    pads every window to ncut cut slots would; a caller that evaluates
    part of a batch passes the batch's count, so each window is evaluated
    on the same samples as in the whole batch.
    """
    if n_samp <= 1:
        return dirichlet_power(lo, n)
    shape = np.shape(lo)
    lo = np.ravel(lo)
    hi = np.ravel(hi)
    m_lo, m_hi, most = _cut_range(n, lo, hi)
    if ncut is None:
        ncut = most
    h = (hi - lo) / (n_samp - 1)
    count = np.maximum(m_hi - m_lo + 1, 0)
    pad = np.flatnonzero(count < ncut)
    # the cut slots of all windows, window by window
    first = np.cumsum(count) - count
    w = np.repeat(np.arange(lo.size), count)
    x1, x2 = _cut_samples(n, lo[w], h[w], m_lo[w] + (np.arange(w.size) - first[w]), n_samp)
    v = dirichlet_power(np.concatenate([lo, hi, lo[pad] + h[pad], x1, x2]), n)
    out = np.minimum(v[:lo.size], v[lo.size:2 * lo.size])
    v = v[2 * lo.size:]
    out[pad] = np.minimum(out[pad], v[:pad.size])
    v = v[pad.size:]
    has = np.flatnonzero(count)
    if has.size:
        cut = np.minimum(v[:w.size], v[w.size:])
        out[has] = np.minimum(out[has], np.minimum.reduceat(cut, first[has]))
    return out.reshape(shape)


def _envelope_bound(n: int, lo: np.ndarray, hi: np.ndarray, h: np.ndarray,
                    m_lo: np.ndarray, m_hi: np.ndarray) -> np.ndarray:
    """Upper bound on the sampled minimum of dirichlet_power/n over [lo, hi],
    with no kernel call.

    h is the sample step; m_lo and m_hi are the window's cut range
    (_cut_range).  The pattern never exceeds n and lies under the sidelobe
    envelope 1/(n sin^2(pi d/2)), d the distance to the nearest peak (an
    even integer), so the capped envelope at the window's own distance d
    bounds every sample.  When the window holds a null cut, the sample
    nearest that null lies within h/2 of it, where sin^2(n pi u/2) is at
    most (n pi h/4)^2; that sample, hence the minimum, is at most the
    capped envelope times the residue factor min(1, (n pi h/4)^2).  The
    1e-8 added inside the square covers the 1e-9 cut slack and rounding.
    The bound holds up to rounding far below PROBE_TOL*max(bound, 1).
    """
    peak = 2.0 * np.floor(hi / 2.0)         # the last peak at or below hi
    d = np.maximum(np.minimum(lo - peak, peak + 2.0 - hi), 0.0)
    bound = n / np.maximum(1.0, n * n * np.sin(np.pi / 2.0 * d) ** 2)
    residue = np.minimum(1.0, (n * np.pi / 4.0 * h + 1e-8) ** 2)
    return np.where(_first_null(n, m_lo, m_hi)[1], bound * residue, bound)


def _two_sample_bound(n: int, lo: np.ndarray, hi: np.ndarray, n_samp: int,
                      m_lo: np.ndarray, m_hi: np.ndarray) -> np.ndarray:
    """dirichlet_power at two samples of [lo, hi] that _windowed_min also
    evaluates, the smaller of the two: either side of the first null cut,
    or both window ends when the window holds no null.  The same floats,
    so never below _windowed_min, and at a null's neighbours often close
    to it."""
    m, null = _first_null(n, m_lo, m_hi)
    x1, x2 = _cut_samples(n, lo, (hi - lo) / (n_samp - 1), m, n_samp)
    v = dirichlet_power(np.concatenate([np.where(null, x1, lo), np.where(null, x2, hi)]), n)
    return np.minimum(v[:lo.size], v[lo.size:])


def _matched_codebook_sweep(n: int, centers: np.ndarray, sines: np.ndarray,
                            scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-angle best wideband gain for a response-vector codebook.

    Only beams within a candidate radius of each angle are evaluated
    (indices wrap: the pattern is 2-periodic in composite space, so the
    far-edge beams matter at |sin phi| near 1).  Pruning is certified per
    angle by either of two facts about the skipped beams, and the radius
    doubles until one holds everywhere:

    * their pattern over the angle's frequency window stays under the
      1/(n sin^2) sidelobe envelope, which is below the achieved gain or
      below the floor under which no beam can matter, or
    * the frequency window spans a full null spacing (2/n) and, by the
      radius construction, lies entirely outside the skipped beam's main
      lobe, so it straddles an exact null of that beam's pattern; the
      beam's sampled band minimum is then at most a slope-bounded
      residue at the sample nearest that null.

    Within the radius, candidates are branch-and-bound pruned.  Any upper
    bound on a pair's sampled band minimum that lies below best - PROBE_TOL
    * max(best, 1), best being a minimum another candidate attains, rules
    the pair out: it can neither win nor tie.  The tolerance covers the
    rounding between a bound and the minimum.  Each angle's best starts at
    its home beam's (offset 0) full minimum; every other (angle, candidate)
    pair then meets at most three tiers:

    0. the analytic bound of _envelope_bound, with no kernel call;
    1. for its survivors, _two_sample_bound, two kernel samples;
    2. for theirs, visited per angle in decreasing tier-1 bound while that
       bound still reaches best, the full sampled minimum (_windowed_min).

    When the radius doubles, the inner pairs keep their minima and best,
    and only the new offsets are bounded.  If the wider batch holds more
    cut points per window (ncut), the kept minima lack the pad sample
    _windowed_min now adds, so the sweep starts over at the new radius.
    The argmax runs in offset order over the evaluated pairs, each on the
    samples the unpruned batch would use, so gains and winners are those
    of evaluating every candidate.
    """
    L = centers.size
    F = scale.size
    A = sines.size
    spacing = 2.0 / L
    b2 = float(scale[-1] - 1.0)
    p0 = scale[0] * sines
    p1 = scale[-1] * sines
    win_lo = np.minimum(p0, p1)
    win_hi = np.maximum(p0, p1)
    j0 = np.clip(np.floor((sines + 1.0) / spacing).astype(int), 0, L - 1)
    radius = int(np.ceil((b2 + 2.0 / n + 1.0 / L) / spacing)) + 1
    h = (win_hi - win_lo) / (F - 1)
    ring = np.tile(centers, 3)              # centers[(j0 + offset) % L] at L + j0 + offset
    offsets = np.zeros(0, dtype=int)        # the offsets whose pairs are done
    g = np.zeros((A, 0))                    # their minima, -inf where pruned
    best = np.full(A, -np.inf)
    ncut = 0
    swept = pairs = pruned = bounded = reused = 0
    while True:
        batch = np.arange(L) if 2 * radius + 1 >= L else np.arange(-radius, radius + 1)
        slot = np.empty(L, dtype=int)
        slot[batch % L] = np.arange(batch.size)
        kept = slot[offsets % L]
        fresh = np.ones(batch.size, dtype=bool)
        fresh[kept] = False
        cols = np.flatnonzero(fresh)
        c = ring[L + j0[:, None] + batch[cols]]
        lo = c - win_hi[:, None]
        hi = c - win_lo[:, None]
        m_lo, m_hi, most = _cut_range(n, lo, hi)
        if kept.size and most > ncut:
            # the kept minima lack the pad sample this batch gives them
            offsets = offsets[:0]
            g = g[:, :0]
            continue
        ncut = max(ncut, most)
        grown = np.full((A, batch.size), -np.inf)
        grown[:, kept] = g
        g = grown
        offsets = batch
        reused += A * kept.size
        pairs += lo.size
        live = np.ones(lo.shape, dtype=bool)
        if not kept.size:
            home = np.flatnonzero(batch[cols] == 0)[0]
            best = _windowed_min(n, lo[:, home], hi[:, home], F, ncut) / n
            g[:, cols[home]] = best
            swept += A
            live[:, home] = False
        floor = best - PROBE_TOL * np.maximum(best, 1.0)
        live &= _envelope_bound(n, lo, hi, h[:, None], m_lo, m_hi) >= floor[:, None]
        idx = np.flatnonzero(live)
        pruned += lo.size - idx.size - A * (not kept.size)
        bounded += idx.size
        r, k = np.divmod(idx, cols.size)
        lo, hi = lo.ravel()[idx], hi.ravel()[idx]
        u = _two_sample_bound(n, lo, hi, F, m_lo.ravel()[idx], m_hi.ravel()[idx]) / n
        # survivors grouped by angle, each group in decreasing u
        order = np.flatnonzero(u >= floor[r])
        order = order[np.argsort(-u[order])]
        order = order[np.argsort(r[order], kind="stable")]
        r, k, u, lo, hi = r[order], k[order], u[order], lo[order], hi[order]
        count = np.bincount(r, minlength=A)
        start = np.cumsum(count) - count
        rows = np.flatnonzero(count)
        visit = 0
        while rows.size:
            i = start[rows] + visit
            ok = u[i] >= best[rows] - PROBE_TOL * np.maximum(best[rows], 1.0)
            rows, i = rows[ok], i[ok]
            v = _windowed_min(n, lo[i], hi[i], F, ncut) / n
            g[rows, cols[k[i]]] = v
            best[rows] = np.maximum(best[rows], v)
            swept += rows.size
            visit += 1
            rows = rows[count[rows] > visit]
        if 2 * radius + 1 >= L:
            break
        # skipped beams sit at least (radius+1) spacings away on the circle;
        # every window point is `raw` or more from their centers
        raw = (radius + 1) * spacing - np.abs(sines - centers[j0]) - b2 * np.abs(sines)
        clipped = np.clip(raw, 1e-9, 1.0)
        envelope = 1.0 / (n * np.sin(np.pi * clipped / 2.0) ** 2)
        cap = np.maximum(best, GUARD_FLOOR)
        ok = envelope <= cap
        window = 2.0 * b2 * np.abs(sines)
        step = window / max(F - 1, 1)
        residue = envelope * (n * np.pi * step / 4.0) ** 2
        ok |= (window >= 2.0 / n) & (raw >= 2.0 / n) & (residue <= cap)
        if np.all(ok):
            break
        radius *= 2
    log.debug("matched path (response-vector codebook recognised): %d beams x %d "
              "angles, %d of %d candidate pairs given the full band minimum, "
              "%d pruned by the analytic bound, %d given the two-sample bound, "
              "%d reused across a doubling", L, A, swept, pairs, pruned, bounded, reused)
    return best, (j0 + offsets[np.argmax(g, axis=1)]) % L


def _phase_powers(n: int, u: np.ndarray) -> np.ndarray:
    """E[k, m] = exp(-j*pi*k*u[m]) for k = 0..n-1, built by doubling.

    Only the rows k = 1, 2, 4, ... call exp; every other block is one
    product E[h:2h] = E[:h] * exp(-j*pi*h*u).  Row k is then a product of
    popcount(k) exponentials, so the rounding error grows with log2(n),
    not with n as it would along the plain recurrence E[k] = E[k-1]*E[1].
    """
    E = np.empty((n, u.size), dtype=complex)
    E[0] = 1.0
    h = 1
    while h < n:
        m = min(h, n - h)
        np.multiply(E[:m], np.exp(-1j * np.pi * h * u), out=E[h:h + m])
        h *= 2
    return E


def _general_sweep(weights: np.ndarray, sines: np.ndarray,
                   scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-angle max over beams of the band-minimum gain, for any codebook.

    The angle axis is cut into blocks of about SWEEP_CELLS / (F*max(L, N))
    angles.  In each block, beam l's gain at any single frequency bounds
    its band minimum from above, so the minimum over three probes (both
    band edges and the centre) is an upper bound U[l, a].  The beam with
    the largest U at angle a is swept over the full band; its band minimum
    lower[a] is a gain that some beam reaches.  Beam l is kept at a only
    if U[l, a] >= lower[a] - PROBE_TOL*max(lower[a], 1), and only the rows
    kept somewhere in the block are swept over the full band.

    This is exact: a dropped beam's band minimum is at most its U, which
    lies strictly below a band minimum another beam attains, so it can
    neither win nor tie.  The same holds for a swept row at the angles
    where it was not kept, so the argmax needs no mask.  The tolerance only
    adds survivors, covering the rounding gap between products of
    different shapes.  Survivors keep their index order, so ties still go
    to the lowest index; winners can differ from an all-beams sweep only
    between gains equal to rounding.
    """
    L, n = weights.shape
    F = scale.size
    probes = np.unique([0, F // 2, F - 1])
    gains = np.empty(sines.size)
    winner = np.empty(sines.size, dtype=int)
    swept = 0
    block = max(1, int(SWEEP_CELLS / (F * max(L, n))))
    for a0 in range(0, sines.size, block):
        s = sines[a0:a0 + block]
        cols = np.arange(s.size)
        E = _phase_powers(n, np.multiply.outer(scale, s).ravel()).reshape(n, F, s.size)
        P = np.abs(weights @ E[:, probes].reshape(n, -1)) ** 2
        U = P.reshape(L, probes.size, s.size).min(axis=1)
        cand = U.argmax(axis=0)
        picked, slot = np.unique(cand, return_inverse=True)
        C = np.abs(weights[picked] @ E.reshape(n, -1)) ** 2
        lower = C.reshape(picked.size, F, s.size).min(axis=1)[slot, cols]
        keep = U >= lower - PROBE_TOL * np.maximum(lower, 1.0)
        keep[cand, cols] = True
        rows = np.flatnonzero(keep.any(axis=1))
        G = np.abs(weights[rows] @ E.reshape(n, -1)) ** 2
        G = G.reshape(rows.size, F, s.size).min(axis=1)
        w = G.argmax(axis=0)
        gains[a0:a0 + s.size] = G[w, cols]
        winner[a0:a0 + s.size] = rows[w]
        swept += rows.size * s.size
    log.debug("general path (not a response-vector codebook): %d of %d "
              "beam x angle pairs swept over the full band", swept, L * sines.size)
    return gains, winner


def _per_zone_worst(cfg: SystemConfig, cb: Codebook,
                    centers: np.ndarray | None) -> np.ndarray:
    """Local worst case of each zone's assigned beam over the zone's image.

    The band sweep of an angular zone covers exactly the zone's virtual
    interval, so a single composite sweep over that interval is the band
    minimum taken over the whole zone.  For matched books that minimum is
    _windowed_min over the zone's ZONE_GRID samples, a handful of
    Dirichlet lookups per zone.  Otherwise row l is evaluated on its own
    ZONE_GRID points by Horner's rule in z = exp(-j*pi*u) over the beam
    weights, HORNER_ROWS rows at a time so the accumulator stays in cache;
    no N x M matrix is formed.
    """
    bounds = cb.partition.boundaries
    lo, hi = np.array([virtual_interval(cfg, bounds[l], bounds[l + 1])
                       for l in range(len(cb))]).T
    if centers is not None:
        return _windowed_min(cfg.N, lo - centers, hi - centers, ZONE_GRID) / cfg.N
    grid = np.ascontiguousarray(np.linspace(lo, hi, ZONE_GRID, axis=1))
    weights = np.stack([w.weights for w in cb.beams])
    out = np.empty(len(cb))
    for r in range(0, len(cb), HORNER_ROWS):
        z = np.exp(-1j * np.pi * grid[r:r + HORNER_ROWS])
        w = weights[r:r + HORNER_ROWS]
        acc = np.repeat(w[:, -1:], ZONE_GRID, axis=1)
        for k in range(cfg.N - 2, -1, -1):
            acc *= z
            acc += w[:, k:k + 1]
        out[r:r + HORNER_ROWS] = (np.abs(acc) ** 2).min(axis=1)
    return out


def evaluate(cfg: SystemConfig, cb: Codebook, mode: str = "grid",
             seed: int = 0) -> EvaluationReport:
    """Worst-case sweep of a codebook under the given system parameters.

    grid mode: n_angle sine-uniform points plus every zone boundary and
    both endpoints.  monte_carlo mode: n_angle seeded uniform-in-sine
    draws.  Gains are band minima over the n_freq frequency grid.
    """
    if mode == "grid":
        sines = np.unique(np.concatenate([
            np.linspace(-1.0, 1.0, cfg.n_angle),
            np.sin(cb.partition.boundaries),
            [-1.0, 1.0],
        ]))
    elif mode == "monte_carlo":
        rng = np.random.default_rng(seed)
        sines = np.sort(rng.uniform(-1.0, 1.0, cfg.n_angle))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if any(w.n != cfg.N for w in cb.beams):
        raise ValueError("codebook beam length does not match cfg.N")
    scale = 1.0 + cfg.frequency_grid() / cfg.f_c
    centers = _matched_centers(cfg, cb)
    if centers is not None:
        gains, winner = _matched_codebook_sweep(cfg.N, centers, sines, scale)
    else:
        weights = np.stack([w.weights for w in cb.beams])
        gains, winner = _general_sweep(weights, sines, scale)
    worst = int(np.argmin(gains))
    angles = np.arcsin(sines)
    return EvaluationReport(
        angles=angles,
        gains=gains,
        best_indices=winner + 1,
        worst_case=float(gains[worst]),
        worst_angle=float(angles[worst]),
        per_zone=_per_zone_worst(cfg, cb, centers),
    )

