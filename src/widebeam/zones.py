"""Equal-width virtual zone partition of the angle range [-pi/2, pi/2].

Each angular zone maps to an interval of the composite variable
u = (1 + f/f_c) * sin(phi).  Equal image widths make the boundary sines an
affine recursion, so the common width delta_omega that lands the last
boundary on pi/2, and every boundary with it, have a closed form that meets
the equal-width conditions to rounding and mirrors exactly about broadside.
2/delta_omega is an upper bound on any codebook's worst-case gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import SystemConfig

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


def sine_boundaries(L: int) -> np.ndarray:
    """Boundary sines 2l/L - 1, l = 0..L, of the L uniform sine zones: the
    B = 0 partition, and what the matched sweep recognizes."""
    return -1.0 + 2.0 * np.arange(L + 1) / L


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


class PartitionLimitError(ValueError):
    """The equal-width zones are too narrow for double precision."""


def divide_zones(cfg: SystemConfig) -> ZonePartition:
    """The equal-width partition whose last boundary is pi/2, in closed form.

    B = 0 short-circuits to the exact uniform sine partition.  Otherwise
    write b = B/(2 f_c) and r = (1 - b)/(1 + b).  A zone of width
    delta_omega above broadside takes the boundary sine s to
    r*s + delta_omega/(1 + b), whose fixed point is delta_omega/(2b), so
    s_l = delta_omega/(2b) * (1 - r^l (1 - t)) for l = 0..K, K = L // 2.
    The first sine s_0 is broadside for even L (t = 0), or the edge of the
    zone straddling broadside for odd L, whose image 2(1 + b)s_0 is one
    width wide (t = b/(1 + b)).  s_K = 1 fixes delta_omega.  The negative
    half is the exact mirror.  A band that underflows against f_c takes the
    b -> 0 limit.  PartitionLimitError if the boundaries do not strictly
    increase.
    """
    L, K = cfg.L, cfg.L // 2
    if cfg.B == 0:
        delta = 2.0 / L
        boundaries = np.arcsin(sine_boundaries(L))
        boundaries[0], boundaries[-1] = -np.pi / 2, np.pi / 2
        return ZonePartition(boundaries, delta, zone_intervals(cfg, boundaries, "sine"),
                             "sine")

    b = cfg.B / (2.0 * cfg.f_c)
    l = np.arange(K + 1)
    if b == 0.0:  # the band underflows against f_c: the b -> 0 limit
        s = (2.0 * l + L % 2) / L
        delta = 2.0 / L
    else:
        lc = l * (-2.0 * np.arctanh(b))  # l * log r
        t = b / (1.0 + b) if L % 2 else 0.0
        num = -np.expm1(lc) + np.exp(lc) * t  # 1 - r^l (1 - t), without cancellation
        s = num / num[-1]
        delta = 2.0 * b / num[-1]
    half = np.arcsin(s)
    half[-1] = np.pi / 2
    # mirror s_K..s_1, and s_0 too unless it is the broadside boundary 0
    boundaries = np.concatenate([-half[::-1][:L - K], half])
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
