"""Codebook assembly and the worst-case evaluation harness.

One prototype beam is optimized over a centered virtual window and then
shifted to every zone center by an element-wise steering product; the shift
translates the whole gain pattern, so all zones inherit the same local
worst case.  A book holds its L beams as one read-only (L, N) block,
`book.weights`.  Given its row 0 alone, a book is a shift book
(`book.shifted`): shift_rows builds the block from that row once.
build_codebook, narrowband_codebook and the file reader all hand over
row 0, so every shift book the library builds reads back bit for bit.
Given a whole block, a book decides once whether every row is row 0
shifted to its zone's center.  Evaluation sweeps angle x frequency grids.
This module builds no steering table and takes no least gain of its own:
the general sweep and the per-zone minima read array_model's evaluation
kernel (phase_table, least_gain, and gain_floor, its window call), and
phase_powers serves only the design path, here shift_rows.  A shift
book's per-zone minima read row 0 alone, over each zone's window moved
back to zone 0, one gain_floor per distinct window.
Both sweep paths prune by one rule: a beam's gain at any one frequency
bounds its band minimum from above, so a beam whose bound falls below a
band minimum that another beam attains can neither win nor tie, and is
never swept over the full band.  For codebooks made of plain response vectors the sweep
collapses to Dirichlet-kernel lookups in three steps.  Each angle's
candidate beams come as runs of offsets read off in closed form, where the
kernel's sidelobe envelope, less the main lobe's flank, can reach the level
max(home, GUARD_FLOOR), home being the home beam's minimum; a window at
least 2/n wide holds a null within 2/n of its far end, so its reach is
measured from that null, not from its near end.  Each candidate
is bounded by the kernel at two of its frequency samples, those whose bound
reaches the level get the full sampled minimum, and one pick per angle
takes the best.  Gains at or above GUARD_FLOOR are exact, and ties go to
the lowest offset in the centred ring around the home beam; below
GUARD_FLOOR a gain is a minimum some beam attains, at most the exact one.
Any other codebook goes through the general sweep, which bounds every beam
by its minimum over three probe frequencies and is exact.  Each of its angle
blocks builds one phase_table, with one exp per column, and sweeps each
kept row over the full band once: the candidates' band minima, which set
the keep level, are kept, and only the other kept rows are swept after.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import alm
from .array_model import (MODULUS_TOL, BeamVector, SystemConfig, check_modulus,
                          dirichlet_power, gain_floor, least_gain, phase_powers,
                          phase_table, steering_composite)
from .prv import prv_beam, prv_plan
from .zones import (ZonePartition, divide_zones, sine_boundaries, sine_centers,
                    zone_intervals)

ZONE_GRID = 1025        # per-zone virtual grid for local worst cases
GUARD_FLOOR = 5e-4      # matched-sweep gains below this may miss a better beam
SWEEP_CELLS = 1e6       # phase-matrix cells per angle block of the general sweep
PROBE_TOL = 1e-9        # relative slack that keeps near-ties in the pruned sweeps
LOBE_TABLE = 1024       # main-lobe intervals behind the matched sweep's lobe reach

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Codebook:
    """L beams as a read-only (L, N) complex block `weights`, row l the beam
    of zone l + 1; the partition that generated them; a provenance record;
    and `shifted`, whether each row is row 0 shifted by shift_rows to the
    partition's centers.  No caller sets `shifted`.  Given one (N,) row,
    the book is the shift book that row starts: the row's constant modulus
    is checked, shift_rows builds the block from it once, and `shifted` is
    True.  Given an (L, N) block (replace included), the block is copied,
    its shape and constant modulus are checked, and `shifted` is decided to
    MODULUS_TOL against one shift table of its row 0."""

    weights: np.ndarray
    partition: ZonePartition
    provenance: dict
    shifted: bool = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=complex)
        if w.ndim == 1 and w.size:
            check_modulus(w)
            w = shift_rows(w, self.partition.centers())
            shifted = True
        else:
            if w.ndim != 2 or w.shape[0] != self.partition.n_zones or w.shape[1] == 0:
                raise ValueError(f"weights of shape {w.shape} for {self.partition.n_zones} zones")
            check_modulus(w)
            gap = shift_rows(w[0], self.partition.centers())
            gap -= w
            shifted = bool(np.abs(gap).max() <= MODULUS_TOL)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "shifted", shifted)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def beams(self) -> tuple[BeamVector, ...]:
        """One BeamVector per row of the block."""
        return tuple(BeamVector(row) for row in self.weights)

    @classmethod
    def assemble(cls, beams, partition: ZonePartition, cfg: SystemConfig,
                 solver_cfg, kind: str) -> "Codebook":
        """The book of an (L, N) block or a sequence of BeamVectors, or the
        shift book of one (N,) row 0; the shape must be cfg's (L, N) or
        (N,), the partition's zone count cfg's L, and its intervals those
        that cfg gives its boundaries, bit for bit, as the file reader
        rebuilds them."""
        weights = np.asarray(beams, dtype=complex)
        if weights.shape not in ((cfg.L, cfg.N), (cfg.N,)):
            raise ValueError(f"weights of shape {weights.shape} for L={cfg.L}, N={cfg.N}: "
                             f"expected ({cfg.L}, {cfg.N}) or ({cfg.N},)")
        if partition.n_zones != cfg.L:
            raise ValueError(f"partition of {partition.n_zones} zones for L={cfg.L}: "
                             f"expected {cfg.L}")
        if not np.array_equal(partition.intervals,
                              zone_intervals(cfg, partition.boundaries, partition.mapping)):
            raise ValueError(f"partition intervals are not those of its boundaries under "
                             f"f_c={cfg.f_c:g}, B={cfg.B:g} ({partition.mapping!r} mapping)")
        prov = {
            "kind": kind,
            "config": {"f_c": cfg.f_c, "B": cfg.B, "N": cfg.N, "L": cfg.L,
                       "M": cfg.solver_grid_size},
            "solver": None if solver_cfg is None else asdict(solver_cfg),
        }
        return cls(weights=weights, partition=partition, provenance=prov)


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
    One exp per entry; a book's rows come from shift_rows.
    """
    return BeamVector(w.weights * steering_composite(w.n, float(t)))


def shift_rows(reference: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Rows reference * steering(c_l - c_0), C-ordered: the beam at
    centers[0] shifted to every center.  The one rule of a shift book:
    Codebook builds every book given as row 0 by it, and tests a given
    block against it.  Row 0 is reference bit for bit.  The steering table
    is built by doubling (phase_powers)."""
    rows = np.multiply(phase_powers(reference.size, centers[0] - centers).T,
                       reference, order="C")
    rows[0] = reference  # a product with 1 + 0j can flip the sign of a zero
    return rows


def _prototype(cfg: SystemConfig, solver_cfg: alm.SolverConfig | None,
               width: float) -> BeamVector:
    """The wide beam for a centred window of the given width: the prv
    initializer, then the solver (its default settings when None)."""
    init = prv_beam(prv_plan(cfg.N, width))
    prototype, _ = alm.solve(cfg, solver_cfg or alm.SolverConfig(), width, init)
    return prototype


def build_codebook(cfg: SystemConfig, solver_cfg: alm.SolverConfig | None = None) -> Codebook:
    """Full pipeline: partition, wide-beam prototype, zone shifts.

    The book is given row 0, shift_beam(prototype, centers[0]), and builds
    the other rows from it, as the file reader's book does, so the book
    read back from its file is this book bit for bit.
    """
    solver_cfg = solver_cfg or alm.SolverConfig()
    partition = divide_zones(cfg)
    prototype = _prototype(cfg, solver_cfg, partition.delta_omega)
    row0 = shift_beam(prototype, partition.centers()[0]).weights
    return Codebook.assemble(row0, partition, cfg, solver_cfg, kind="wideband")


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
    s = float(np.sin(phi))
    return shift_beam(_prototype(cfg, solver_cfg, (cfg.B / cfg.f_c) * abs(s)), s)


def _matched_centers(cb: Codebook) -> np.ndarray | None:
    """The uniform sine centers s if cb is a plain response-vector codebook,
    else None: a shift book with uniform sine boundaries (to 1e-9) whose
    row 0 w_0 and centers c meet, a(s) being the response vector,
    |w_0 - a(s_0)/sqrt(N)|_inf + 2 pi (N-1)/sqrt(N) max_l |c_l - s_l| <= 1e-9.
    Row l is w_0 shifted by c_l - c_0, so by the triangle inequality that sum
    bounds every row's distance from a(s_l)/sqrt(N), MODULUS_TOL aside, in
    O(N + L).  The narrowband book and its file round-trip pass.
    """
    L, n = cb.weights.shape
    bounds = np.abs(np.sin(cb.partition.boundaries) - sine_boundaries(L)).max()
    if not cb.shifted or bounds > 1e-9:
        return None
    centers = sine_centers(L)
    gap = np.abs(cb.weights[0] - steering_composite(n, centers[0]) / np.sqrt(n)).max()
    drift = np.abs(cb.partition.centers() - centers).max()
    return centers if gap + 2.0 * np.pi * (n - 1) / np.sqrt(n) * drift <= 1e-9 else None


def _cut_range(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last m with the cut point 2m/n inside [lo, hi] (1e-9 slack)."""
    m_lo = np.ceil(lo * (n / 2.0) - 1e-9).astype(np.int64)
    m_hi = np.floor(hi * (n / 2.0) + 1e-9).astype(np.int64)
    return m_lo, m_hi


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


def _windowed_min(n: int, lo: np.ndarray, hi: np.ndarray, n_samp: int) -> np.ndarray:
    """Minimum of dirichlet_power over n_samp uniform samples of [lo, hi].

    Exact, but far cheaper than evaluating every sample: the pattern is
    unimodal between consecutive multiples of 2/n (its nulls and peaks),
    so the sampled minimum is attained at a window end or at a sample
    adjacent to one of those cut points.  Only those samples are
    evaluated, a handful per window instead of n_samp.
    """
    shape = np.shape(lo)
    lo = np.ravel(lo)
    hi = np.ravel(hi)
    m_lo, m_hi = _cut_range(n, lo, hi)
    h = (hi - lo) / (n_samp - 1)
    count = np.maximum(m_hi - m_lo + 1, 0)
    # the cut points of all windows, window by window
    first = np.cumsum(count) - count
    w = np.repeat(np.arange(lo.size), count)
    x1, x2 = _cut_samples(n, lo[w], h[w], m_lo[w] + (np.arange(w.size) - first[w]), n_samp)
    v = dirichlet_power(np.concatenate([lo, hi, x1, x2]), n)
    out = np.minimum(v[:lo.size], v[lo.size:2 * lo.size])
    v = v[2 * lo.size:]
    has = np.flatnonzero(count)
    if has.size:
        cut = np.minimum(v[:w.size], v[w.size:])
        out[has] = np.minimum(out[has], np.minimum.reduceat(cut, first[has]))
    return out.reshape(shape)


def _null_residue(n: int, h: np.ndarray) -> np.ndarray:
    """Residue factor min(1, (n pi h/4)^2) at sample step h.

    Where a window holds a null cut, the sample nearest that null lies
    within h/2 of it, where sin^2(n pi u/2) is at most (n pi h/4)^2; so that
    sample, hence the sampled minimum, is at most the capped sidelobe
    envelope (_envelope_reach) times this factor.  The 1e-8 added inside
    the square covers the 1e-9 cut slack and rounding.
    """
    return np.minimum(1.0, (n * np.pi / 4.0 * h + 1e-8) ** 2)


def _two_sample_bound(n: int, lo: np.ndarray, hi: np.ndarray, n_samp: int) -> np.ndarray:
    """dirichlet_power at two samples of [lo, hi] that _windowed_min also
    evaluates, the smaller of the two: either side of the first null cut,
    or both window ends when the window holds no null.  The same floats,
    so never below _windowed_min, and at a null's neighbours often close
    to it."""
    m, null = _first_null(n, *_cut_range(n, lo, hi))
    x1, x2 = _cut_samples(n, lo, (hi - lo) / (n_samp - 1), m, n_samp)
    v = dirichlet_power(np.concatenate([np.where(null, x1, lo), np.where(null, x2, hi)]), n)
    return np.minimum(v[:lo.size], v[lo.size:])


def _envelope_reach(n: int, level: np.ndarray) -> np.ndarray:
    """Distance d from the nearest peak beyond which the capped sidelobe
    envelope min(n, 1/(n sin^2(pi d/2))) lies below level: the window
    distances where it can still reach level are d <= reach.  1, every
    distance, where n*level <= 1.

    dirichlet_power/n never exceeds n and lies under 1/(n sin^2(pi d/2)),
    d the distance to the nearest peak (an even integer), so the capped
    envelope at a window's own distance from that peak bounds every sample
    of the window, up to rounding far below PROBE_TOL*max(level, 1).
    """
    return 2.0 / np.pi * np.arcsin(1.0 / np.sqrt(np.maximum(n * level, 1.0)))


def _lobe_reach(n: int, level: np.ndarray) -> np.ndarray:
    """A distance r in [0, 2/n] with dirichlet_power(d)/n <= level for every
    d in [r, 2/n], the smallest of LOBE_TABLE+1 uniform candidates; inf where
    none qualifies.  The main lobe falls monotonically from n at the peak to
    0 at the first null 2/n, so the first table point at or below level is
    such an r.  Rounding in the table is far below PROBE_TOL."""
    grid = np.append(np.linspace(0.0, 2.0 / n, LOBE_TABLE + 1), np.inf)
    lobe = dirichlet_power(grid[:-1], n) / n
    return grid[LOBE_TABLE + 1 - np.searchsorted(lobe[::-1], level, side="right")]


def _matched_codebook_sweep(n: int, centers: np.ndarray, sines: np.ndarray,
                            scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-angle best wideband gain for a response-vector codebook, in one pass.

    Every beam is a candidate: beam (j0 + k) mod L, j0 the angle's home beam
    and k in the ring -floor((L-1)/2)..floor(L/2) (indices wrap: the pattern
    is 2-periodic in composite space, so the far-edge beams matter at
    |sin phi| near 1).  Each angle's level is top - PROBE_TOL * max(top, 1),
    top = max(home, GUARD_FLOOR), home being its home beam's (k = 0) full
    minimum.  The sweep takes three steps.

    1. Closed-form runs.  Candidate k's window in the kernel's argument is
       [e_lo + k*spacing, e_hi + k*spacing], e_lo and e_hi being the home
       window's ends.  So its distance d from the peak at 0, and the
       distance d_far of its far end, are piecewise linear in k, and the
       candidates whose minimum can reach the level are read off per
       angle, with no per-pair work:

       * sidelobe reach (_envelope_reach): the capped sidelobe envelope is
         below the level once d > (2/pi) asin(1/sqrt(n*level)).  Where the
         angle's windows are at least 2/n wide, the reach is taken at the
         level divided by the angle's residue factor (_null_residue) and
         from each window's far null.  Such a window holds a cut within
         2/n of its far end, and the window sample nearest that cut lies
         within h/2 of it, h the sample step; so that sample sits at least
         d_far - 2/n - h/2 from the peak, and at least d.  Past the reach
         the cut is no peak but a null, and the sample, hence the window's
         minimum, is at most the capped envelope there times the residue
         factor, below the level.  So for a window right of the peak the
         keep test k*spacing <= reach - e_lo becomes
         k*spacing <= reach - max(e_lo, e_hi - 2/n - h/2 - 1e-9), mirrored
         on the left; the 1e-9 covers the cut slack.  Narrower windows keep
         the plain test at the level.  This applies where no window of the
         ring comes within the reach of the peaks at +-2, so that d is the
         distance to the nearest peak; elsewhere the whole ring is kept.
       * main-lobe reach (_lobe_reach): on [0, 2/n] the pattern falls
         monotonically from n at the peak to 0 at the first null.  Take r
         with dirichlet_power(r)/n <= level.  A window whose far end lies at
         d_far in [r, 2/n] has a sample there (_windowed_min evaluates both
         ends), at most dirichlet_power(r)/n <= level: it is dropped.

       What is left is three runs of k per angle, within the sidelobe
       reach: the windows whose far end is short of r, and those reaching
       past the first null on either side.
    2. Every pair in the runs gets _two_sample_bound, two kernel samples
       that _windowed_min also evaluates, so never below its minimum.
    3. Every pair whose bound reaches the level gets the full sampled
       minimum (_windowed_min), A windows at a time.  One pick per angle
       over its home beam and those pairs takes the largest minimum (equal
       minima are equal bits: the kernel is a square), ties to the lowest k.

    A pair dropped in step 1 or 2 has a minimum below the level.  Where the
    exact best gain is at or above GUARD_FLOOR the level lies below it, so
    the pair can neither win nor tie, and as a pair's minimum does not
    depend on its batch, the pick is that of every beam in the ring's order.
    Below the floor a dropped pair can beat the pick, though not the floor,
    so there the gain is a minimum some beam attains, at most the exact one.
    """
    L = centers.size
    F = scale.size
    A = sines.size
    spacing = 2.0 / L
    eps = 1e-6 * spacing                    # widens what the reach keeps, narrows what it drops
    p0 = scale[0] * sines
    p1 = scale[-1] * sines
    win_lo = np.minimum(p0, p1)
    win_hi = np.maximum(p0, p1)
    j0 = np.clip(np.floor((sines + 1.0) / spacing).astype(int), 0, L - 1)
    k_lo, k_hi = -((L - 1) // 2), L // 2    # the ring of offsets around j0
    h = (win_hi - win_lo) / (F - 1)
    e_lo = centers[j0] - win_hi             # the home window; offset k adds k*spacing
    e_hi = centers[j0] - win_lo
    # where every window holds a null cut within 2/n of its far end: the
    # residue factor, and how far short of the far end that null's nearest
    # sample may lie
    wide = (win_hi - win_lo >= 2.0 / n) & (n > 1)
    null_factor = np.where(wide, _null_residue(n, h), 1.0)
    far_gap = np.where(wide, 2.0 / n + h / 2.0 + 1e-9, np.inf)

    def krange(lo, hi):
        """The integers k with lo <= k*spacing <= hi, clipped to the ring."""
        return (np.ceil(np.clip(lo / spacing, k_lo - 1, k_hi + 1)).astype(np.int64),
                np.floor(np.clip(hi / spacing, k_lo - 1, k_hi + 1)).astype(np.int64))

    home = _windowed_min(n, e_lo, e_hi, F) / n
    top = np.maximum(home, GUARD_FLOOR)
    level = top - PROBE_TOL * np.maximum(top, 1.0)
    reach = _envelope_reach(n, level / null_factor)
    flank = _lobe_reach(n, level)
    # step 1, runs of k: the windows whose near end and far null both lie
    # within the sidelobe reach, where the peaks at +-2 are out of it, less
    # the windows inside the main lobe whose far end lies at flank or
    # beyond; then less k = 0
    near = ((e_hi + k_hi * spacing < 2.0 - reach - 1e-9)
            & (e_lo + k_lo * spacing > reach - 2.0 + 1e-9))
    in_lo, in_hi = krange(np.where(near, -reach - np.minimum(e_hi, e_lo + far_gap), -np.inf) - eps,
                          np.where(near, reach - np.maximum(e_lo, e_hi - far_gap), np.inf) + eps)
    lobe_lo, lobe_hi = krange(-2.0 / n - e_lo + eps, 2.0 / n - e_hi - eps)
    lobe_hi = np.maximum(lobe_hi, lobe_lo - 1)
    short_lo, short_hi = krange(-flank - e_lo - eps, flank - e_hi + eps)
    starts = np.stack([in_lo, np.maximum(np.maximum(in_lo, short_lo), lobe_lo),
                       np.maximum(in_lo, lobe_hi + 1)])
    ends = np.stack([np.minimum(in_hi, lobe_lo - 1),
                     np.minimum(np.minimum(in_hi, short_hi), lobe_hi), in_hi])
    # each run's part left of k = 0, then its part right of it
    starts = np.concatenate([np.maximum(starts, k_lo), np.maximum(starts, 1)]).ravel()
    ends = np.concatenate([np.minimum(ends, -1), np.minimum(ends, k_hi)]).ravel()
    count = np.maximum(ends - starts + 1, 0)
    r = np.repeat(np.tile(np.arange(A), 6), count)
    k = np.arange(r.size) + np.repeat(starts - (np.cumsum(count) - count), count)
    c = centers[(j0[r] + k) % L]
    lo = c - win_hi[r]
    hi = c - win_lo[r]
    bounded = r.size
    # step 2: the two-sample bound against the level
    keep = np.flatnonzero(_two_sample_bound(n, lo, hi, F) / n >= level[r])
    r, k, lo, hi = r[keep], k[keep], lo[keep], hi[keep]
    # step 3: full minima, A windows at a time, then one pick per angle over
    # its home beam and the kept pairs
    v = np.empty(r.size)
    for i in range(0, r.size, A):
        v[i:i + A] = _windowed_min(n, lo[i:i + A], hi[i:i + A], F) / n
    best = home.copy()
    np.maximum.at(best, r, v)
    best_k = np.where(best == home, 0, k_hi + 1)     # past the ring: a kept pair wins
    tie = v == best[r]
    np.minimum.at(best_k, r[tie], k[tie])
    log.debug("matched path (response-vector codebook recognised): %d beams x %d "
              "angles, %d of %d candidate pairs given the full band minimum, "
              "%d pruned by the analytic bound, %d given the two-sample bound",
              L, A, A + r.size, A * L, A * (L - 1) - bounded, bounded)
    return best, (j0 + best_k) % L


def _general_sweep(weights: np.ndarray, sines: np.ndarray,
                   scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-angle max over beams of the band-minimum gain, for any codebook.

    The angle axis is cut into blocks of about SWEEP_CELLS / (F*max(L, N))
    angles, each with its own phase_table, and every gain below is a
    least_gain over that table.  In each block, beam l's gain at any single
    frequency bounds its band minimum from above, so the minimum over three
    probes (both band edges and the centre) is an upper bound U[l, a].  The
    beam with the largest U at angle a is its candidate; the candidates are
    swept over the full band, and the candidate's band minimum lower[a] is
    a gain that some beam reaches.  Beam l is kept at a only if
    U[l, a] >= lower[a] - PROBE_TOL*max(lower[a], 1), and only the rows
    kept somewhere in the block that are not candidates are then swept over
    the full band: each kept row is swept once per block.

    This is exact: a dropped beam's band minimum is at most its U, which
    lies strictly below a band minimum another beam attains, so it can
    neither win nor tie.  The same holds for a swept row at the angles
    where it was not kept, so the argmax needs no mask.  The tolerance only
    adds survivors, covering the rounding gap between products of
    different shapes.  Survivors keep their index order, so ties still go
    to the lowest index; winners can differ from an all-beams sweep only
    between gains equal to rounding.

    Rows equal bit for bit are swept once, as their first copy, the lowest
    index: a BLAS kernel may round a row's products by its place in the
    block, so copies swept apart need not tie.
    """
    first = {}
    for i, row in enumerate(weights):
        first.setdefault(row.tobytes(), i)
    index = np.fromiter(first.values(), dtype=int, count=len(first))
    if index.size < len(weights):
        weights = weights[index]
    L, n = weights.shape
    F = scale.size
    probes = np.unique([0, F // 2, F - 1])
    gains = np.empty(sines.size)
    winner = np.empty(sines.size, dtype=int)
    swept = candidates = others = 0
    block = max(1, int(SWEEP_CELLS / (F * max(L, n))))
    for a0 in range(0, sines.size, block):
        s = sines[a0:a0 + block]
        cols = np.arange(s.size)
        E = phase_table(n, np.multiply.outer(scale, s).ravel()).reshape(n, F, s.size)
        U = least_gain(weights, E[:, probes])
        cand = U.argmax(axis=0)
        picked = np.unique(cand)
        G = np.empty((L, s.size))       # band minima; only swept rows are set
        G[picked] = least_gain(weights[picked], E)
        lower = G[cand, cols]
        keep = U >= lower - PROBE_TOL * np.maximum(lower, 1.0)
        keep[cand, cols] = True
        rows = np.flatnonzero(keep.any(axis=1))
        rest = np.setdiff1d(rows, picked, assume_unique=True)
        G[rest] = least_gain(weights[rest], E)
        w = G[rows].argmax(axis=0)
        gains[a0:a0 + s.size] = G[rows[w], cols]
        winner[a0:a0 + s.size] = rows[w]
        swept += rows.size * s.size
        candidates += picked.size
        others += rest.size
        # free this block's phase table before the next block builds its
        # own, so that peak memory holds one table, not two
        del E
    log.debug("general path (not a response-vector codebook): %d of %d "
              "beam x angle pairs swept over the full band, in %d row sweeps "
              "(%d candidate rows, %d other kept rows)",
              swept, L * sines.size, candidates + others, candidates, others)
    return gains, index[winner]


def _per_zone_worst(cfg: SystemConfig, cb: Codebook,
                    centers: np.ndarray | None) -> np.ndarray:
    """Local worst case of each zone's assigned beam over the zone's image.

    The band sweep of an angular zone covers exactly the zone's virtual
    interval, so a single composite sweep over that interval is the band
    minimum taken over the whole zone.  For matched books that minimum is
    _windowed_min over the zone's ZONE_GRID samples, a handful of
    Dirichlet lookups per zone.  Otherwise it is gain_floor over the same
    samples, once per distinct (row, window) pair.  Row l of a shift book
    translates row 0's pattern by c_l - c_0, so zone l reads row 0 over its
    window moved back by c_l - c_0, about ten distinct windows for a
    designed book; any other book reads row l over zone l's own window.
    """
    lo, hi = zone_intervals(cfg, cb.partition.boundaries, "banded").T
    if centers is not None:
        return _windowed_min(cfg.N, lo - centers, hi - centers, ZONE_GRID) / cfg.N
    rows = np.arange(len(cb))
    if cb.shifted:
        c = cb.partition.centers()
        rows, lo, hi = np.zeros_like(rows), lo - (c - c[0]), hi - (c - c[0])
    keys, slot = np.unique(np.column_stack([rows, lo, hi]), axis=0, return_inverse=True)
    floors = [gain_floor(cb.weights[int(r)], a, b, ZONE_GRID) for r, a, b in keys]
    return np.array(floors)[slot]


def evaluate(cfg: SystemConfig, cb: Codebook, mode: str = "grid",
             seed: int = 0) -> EvaluationReport:
    """Worst-case sweep of a codebook under the given system parameters.

    grid mode: n_angle sine-uniform points, both endpoints among them, plus
    every zone boundary.  monte_carlo mode: n_angle seeded uniform-in-sine
    draws.  Gains are band minima over the n_freq frequency grid.
    """
    if mode == "grid":
        sines = np.unique(np.concatenate([
            np.linspace(-1.0, 1.0, cfg.n_angle),
            np.sin(cb.partition.boundaries),
        ]))
    elif mode == "monte_carlo":
        rng = np.random.default_rng(seed)
        sines = np.sort(rng.uniform(-1.0, 1.0, cfg.n_angle))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if cb.weights.shape[1] != cfg.N:
        raise ValueError("codebook beam length does not match cfg.N")
    scale = 1.0 + cfg.frequency_grid() / cfg.f_c
    centers = _matched_centers(cb)
    if centers is not None:
        gains, winner = _matched_codebook_sweep(cfg.N, centers, sines, scale)
    else:
        gains, winner = _general_sweep(cb.weights, sines, scale)
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

