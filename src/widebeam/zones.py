"""Equal-width virtual zone partition of the angle range [-pi/2, pi/2].

Each angular zone maps to an interval of the composite variable
u = (1 + f/f_c) * sin(phi).  The common width delta_omega that makes the
last boundary land exactly on pi/2 is found by bisection; the terminal
boundary is monotone increasing in the trial width, which makes the root
simple.  2/delta_omega is an upper bound on any codebook's worst-case gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import SystemConfig

CLOSURE_TOL = 1e-12  # |phi_L - pi/2| target for the bisection
MAPPINGS = ("banded", "sine")  # how zone_intervals maps boundaries to intervals


@dataclass(frozen=True)
class ZonePartition:
    """Boundary angles phi_0..phi_L, the common width, per-zone intervals,
    and the mapping that built the intervals from the boundaries."""

    boundaries: np.ndarray          # shape (L+1,), radians, increasing
    delta_omega: float              # common virtual width, sine-space units
    intervals: np.ndarray           # shape (L, 2), (lower, upper) per zone
    mapping: str                    # one of MAPPINGS

    def __post_init__(self):
        b = np.array(self.boundaries, dtype=float)
        iv = np.array(self.intervals, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("boundaries must hold at least two angles")
        if np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if iv.shape != (b.size - 1, 2):
            raise ValueError("intervals shape must be (L, 2)")
        if self.mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}, got {self.mapping!r}")
        b.setflags(write=False)
        iv.setflags(write=False)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "intervals", iv)

    @property
    def n_zones(self) -> int:
        return self.boundaries.size - 1

    def centers(self) -> np.ndarray:
        """Virtual-interval midpoints; the shift targets for codebook assembly."""
        return self.intervals.mean(axis=1)


def sine_centers(L: int) -> np.ndarray:
    """Midpoints (2l-1)/L - 1, l = 1..L, of the L uniform sine zones: where
    the narrowband codebook points its beams."""
    return (2.0 * np.arange(1, L + 1) - 1.0) / L - 1.0


def virtual_interval(cfg: SystemConfig, phi_lo: float, phi_hi: float) -> tuple[float, float]:
    """Image of an angular zone under the composite variable, over the band.

    Three cases by the sign of the zone: the lower edge of a non-negative
    zone is reached at the bottom band edge and the upper edge at the top,
    mirrored for non-positive zones, both extremes at the top band edge for
    a zone straddling zero.
    """
    if not phi_lo < phi_hi:
        raise ValueError(f"degenerate zone [{phi_lo}, {phi_hi}]")
    plus = (cfg.f_c + cfg.B / 2) / cfg.f_c
    minus = (cfg.f_c - cfg.B / 2) / cfg.f_c
    s_lo, s_hi = np.sin(phi_lo), np.sin(phi_hi)
    if phi_lo >= 0:
        return minus * s_lo, plus * s_hi
    if phi_hi <= 0:
        return plus * s_lo, minus * s_hi
    return plus * s_lo, plus * s_hi


def zone_intervals(cfg: SystemConfig, boundaries: np.ndarray, mapping: str) -> np.ndarray:
    """(lower, upper) interval of every zone, shape (L, 2).

    "banded" takes each zone's image over cfg's band, as virtual_interval
    does for one zone;
    "sine" takes the sines of its edges, the image at a single frequency.
    The narrowband codebook pairs a "sine" partition with a nonzero band.
    """
    if mapping == "sine":
        return np.stack([np.sin(boundaries[:-1]), np.sin(boundaries[1:])], axis=1)
    lo, hi = boundaries[:-1], boundaries[1:]
    bad = np.flatnonzero(~(lo < hi))
    if bad.size:
        raise ValueError(f"degenerate zone [{lo[bad[0]]}, {hi[bad[0]]}]")
    # virtual_interval's three cases, zone by zone
    plus = (cfg.f_c + cfg.B / 2) / cfg.f_c
    minus = (cfg.f_c - cfg.B / 2) / cfg.f_c
    s = np.sin(boundaries)
    return np.stack([np.where(lo >= 0, minus, plus) * s[:-1],
                     np.where(hi <= 0, minus, plus) * s[1:]], axis=1)


def next_boundary(cfg: SystemConfig, phi_prev: float, delta_omega: float) -> float:
    """Next zone boundary after phi_prev for a trial width.

    Outside the principal range the function returns a saturated sentinel
    (pi/2 + excess above, -pi/2 + deficit below) instead of raising: both
    sentinels are monotone in delta_omega, which keeps the bisection on a
    single increasing branch with no special cases.  A return value of
    pi/2 or more before the chain's last step L means the trial width is too
    large: the remaining zones would be empty, so `_walk` counts it as an
    overshoot, never as a closure.
    """
    s = np.sin(phi_prev)
    fc, B = cfg.f_c, cfg.B
    if phi_prev < 0:
        num = delta_omega * fc + (fc + B / 2) * s
        # the zone ends below zero iff its upper virtual edge is still negative
        a = num / (fc - B / 2) if num <= 0 else num / (fc + B / 2)
    else:
        a = (delta_omega * fc + (fc - B / 2) * s) / (fc + B / 2)
    if a > 1.0:
        return np.pi / 2 + (a - 1.0)
    if a < -1.0:
        return -np.pi / 2 + (a + 1.0)
    return float(np.arcsin(a))


def _walk(cfg: SystemConfig, delta_omega: float) -> list[float]:
    """The chain phi_0 = -pi/2, phi_1, ... at a trial width; the bisection reads its end.

    The chain stops at a sentinel below -pi/2, or at pi/2 or more on a step
    l < L: the width is then too large, whatever the excess, and the last
    entry adds the L - l zones left empty, which keeps it clear of the
    closure tolerance and on the overshoot side of the bisection.
    """
    chain = [-np.pi / 2]
    for step in range(1, cfg.L + 1):
        phi = next_boundary(cfg, chain[-1], delta_omega)
        early = phi >= np.pi / 2 and step < cfg.L
        chain.append(phi + (cfg.L - step) if early else phi)
        if early or phi < -np.pi / 2:
            break
    return chain


class PartitionLimitError(ValueError):
    """The equal-width zones are too narrow for double precision."""


def divide_zones(cfg: SystemConfig) -> ZonePartition:
    """Find the equal-width partition whose last boundary is pi/2.

    B = 0 short-circuits to the exact uniform sine partition.  Otherwise the
    width is bisected inside a bracket built from the extreme per-step sine
    increments, doubling the bracket outward if an unusual configuration
    escapes it.  At the converged width only phi_L can leave the range, and
    it is set to pi/2.  PartitionLimitError if the boundaries then do not
    strictly increase.
    """
    L = cfg.L
    if cfg.B == 0:
        delta = 2.0 / L
        boundaries = np.arcsin(-1.0 + 2.0 * np.arange(L + 1) / L)
        boundaries[0], boundaries[-1] = -np.pi / 2, np.pi / 2
        return ZonePartition(boundaries, delta, zone_intervals(cfg, boundaries, "sine"),
                             "sine")

    ratio_lo = (cfg.f_c - cfg.B / 2) / (cfg.f_c + cfg.B / 2)
    lo = (2.0 / L) * ratio_lo
    hi = (2.0 / L) / ratio_lo + cfg.B / cfg.f_c
    target = np.pi / 2
    for _ in range(10):
        if _walk(cfg, lo)[-1] <= target <= _walk(cfg, hi)[-1]:
            break
        lo *= 0.5
        hi *= 2.0
    else:
        raise RuntimeError("zone bisection bracket failed to straddle pi/2")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        phi_L = _walk(cfg, mid)[-1]
        if abs(phi_L - target) <= CLOSURE_TOL:
            lo = hi = mid
            break
        if phi_L < target:
            lo = mid
        else:
            hi = mid
    delta = 0.5 * (lo + hi)

    boundaries = np.array(_walk(cfg, delta)[:L] + [np.pi / 2])
    if np.any(np.diff(boundaries) <= 0):
        raise PartitionLimitError(
            f"no partition into L={L} zones at B={cfg.B:g} Hz: the zones shrink "
            f"geometrically toward pi/2, and the last ones are narrower than "
            f"double precision resolves")
    return ZonePartition(boundaries, float(delta),
                         zone_intervals(cfg, boundaries, "banded"), "banded")


def prop3_upper_bound(partition: ZonePartition) -> float:
    """Worst-case gain ceiling 2/delta_omega shared by every codebook.

    A zone image wider than 2 (only L = 1 with B > 0) spans a period of the
    gain pattern, so the worst case is at most its mean, 1 by Parseval.
    """
    return 2.0 / min(partition.delta_omega, 2.0)
