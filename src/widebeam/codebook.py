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
radius cannot change the outcome); each candidate is bounded by the
kernel at four of its frequency samples, and only candidates whose bound
reaches the best minimum found so far get the full sampled minimum.  Any
other codebook goes through the general sweep, which bounds every beam by
its minimum over three probe frequencies.
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


def _window_samples(n: int, lo: np.ndarray, hi: np.ndarray, n_samp: int,
                    m_lo: np.ndarray, m_hi: np.ndarray, ncut: int) -> np.ndarray:
    """The samples of [lo, hi] that _windowed_min looks at, on a new first axis.

    Both window ends, then for each of ncut slots the two samples either
    side of the cut point 2(m_lo + slot)/n.  A slot past m_hi holds the
    first two samples instead, so every entry is a sample of the window.
    """
    h = (hi - lo) / (n_samp - 1)
    out = np.empty((2 + 2 * ncut,) + lo.shape)
    out[0] = lo
    out[1] = hi
    for slot in range(ncut):
        m = m_lo + slot
        t = 2.0 * m / n
        with np.errstate(divide="ignore", invalid="ignore"):
            idx = np.floor((t - lo) / h)
        idx = np.where(np.isfinite(idx), idx, 0.0)
        idx = np.clip(idx, 0, n_samp - 2).astype(np.int64)
        idx = np.where(m <= m_hi, idx, 0)
        np.add(lo, idx * h, out=out[2 + 2 * slot])
        np.add(out[2 + 2 * slot], h, out=out[3 + 2 * slot])
    return out


def _windowed_min(n: int, lo: np.ndarray, hi: np.ndarray, n_samp: int,
                  ncut: int | None = None) -> np.ndarray:
    """Minimum of dirichlet_power over n_samp uniform samples of [lo, hi].

    Exact, but far cheaper than evaluating every sample: the pattern is
    unimodal between consecutive multiples of 2/n (its nulls and peaks),
    so the sampled minimum is attained at a window end or at a sample
    adjacent to one of those cut points.  Only the candidate samples are
    evaluated, a handful per window instead of n_samp.  Every window gets
    ncut cut slots, by default as many as the most crowded window needs;
    a caller that evaluates part of a batch passes the batch's count, so
    each window is evaluated on the same samples as in the whole batch.
    """
    if n_samp <= 1:
        return dirichlet_power(lo, n)
    m_lo, m_hi, most = _cut_range(n, lo, hi)
    if ncut is None:
        ncut = most
    return dirichlet_power(_window_samples(n, lo, hi, n_samp, m_lo, m_hi, ncut), n).min(axis=0)


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

    Within the radius, candidates are branch-and-bound pruned.  The kernel
    at any frequency sample bounds the sampled band minimum from above, so
    the kernel at both window ends and at the two samples either side of
    the first cut point in the window gives a bound U per (angle,
    candidate) pair.  Each angle visits its candidates in decreasing U
    and takes the full sampled minimum (_windowed_min) only while U is at
    least the best minimum found so far, less PROBE_TOL*max(best, 1).
    This is exact: a skipped candidate's minimum is at most its U, below a
    minimum another candidate attains, so it can neither win nor tie.  The
    tolerance covers the rounding between the bound and the minimum.  The
    argmax then runs in offset order over the evaluated pairs, each on the
    samples the unpruned batch would use, so gains and winners are those
    of evaluating every candidate.
    """
    L = centers.size
    F = scale.size
    spacing = 2.0 / L
    b2 = float(scale[-1] - 1.0)
    p0 = scale[0] * sines
    p1 = scale[-1] * sines
    win_lo = np.minimum(p0, p1)
    win_hi = np.maximum(p0, p1)
    rows = np.arange(sines.size)
    j0 = np.clip(np.floor((sines + 1.0) / spacing).astype(int), 0, L - 1)
    radius = int(np.ceil((b2 + 2.0 / n + 1.0 / L) / spacing)) + 1
    swept = pairs = 0
    while True:
        offsets = np.arange(L) if 2 * radius + 1 >= L else np.arange(-radius, radius + 1)
        j = (j0[:, None] + offsets[None, :]) % L
        c = centers[j]
        lo = c - win_hi[:, None]
        hi = c - win_lo[:, None]
        m_lo, m_hi, ncut = _cut_range(n, lo, hi)
        # one sample plane at a time keeps the kernel's temporaries small
        bound = np.full(j.shape, np.inf)
        for x in _window_samples(n, lo, hi, F, m_lo, m_hi, 1):
            np.minimum(bound, dirichlet_power(x, n) / n, out=bound)
        order = np.argsort(-bound, axis=1, kind="stable")
        bound = np.take_along_axis(bound, order, axis=1)
        g = np.full(j.shape, -np.inf)
        best = np.full(sines.size, -np.inf)
        for k in range(offsets.size):
            act = np.flatnonzero(bound[:, k] >= best - PROBE_TOL * np.maximum(best, 1.0))
            if act.size == 0:
                break
            col = order[act, k]
            v = _windowed_min(n, lo[act, col], hi[act, col], F, ncut) / n
            g[act, col] = v
            best[act] = np.maximum(best[act], v)
            swept += act.size
        pairs += j.size
        pick = np.argmax(g, axis=1)
        winner = j[rows, pick]
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
              "angles, %d of %d candidate pairs given the full band minimum",
              L, sines.size, swept, pairs)
    return best, winner


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

