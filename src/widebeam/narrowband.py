"""Narrowband codebook baseline and its closed-form wideband analysis.

The conventional codebook points L response vectors at the uniform sine-space
directions (2l-1)/L - 1.  Under a wide band these beams squint: the worst
user sits at phi = +-pi/2, where the composite offset accumulates both the
half-spacing misalignment and the full squint B/(2 f_c).  That worst-case
gain has a Dirichlet closed form, which in turn yields the element count
that maximizes it.  `sweep` tabulates that worst case, or the designed
codebook's, over a grid of element counts and bandwidths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .alm import SolverConfig
from .array_model import SystemConfig, dirichlet_power, steering_composite
from .codebook import Codebook, build_codebook, evaluate
from .zones import divide_zones, prop3_upper_bound, sine_centers

# argmax location of sin(Nx)^2 / (N sin(x)^2): the root of tan x = 2x in
# (0, pi], and the rounded coefficient 4x/pi used for the candidate formula
X_STAR = 1.166
N_STAR_COEFF = 1.485


@dataclass(frozen=True)
class NarrowbandAnalysis:
    """Worst-case summary of the narrowband codebook in a wideband system."""

    worst_case_gain: float


def narrowband_codebook(cfg: SystemConfig) -> Codebook:
    """Response vectors at sine-space centers (2l-1)/L - 1, uniform sine zones.

    A shift book from row 0, the response vector at the first center; every
    other row lies within rounding (1e-13 at N=16) of its own center's.
    """
    row0 = steering_composite(cfg.N, sine_centers(cfg.L)[0]) / np.sqrt(cfg.N)
    partition = divide_zones(replace(cfg, B=0.0))
    return Codebook.assemble(row0, partition, cfg, solver_cfg=None,
                             kind="narrowband")


def prop1_zero_limit(f_c: float, b: float, l: int) -> float:
    """Element count 4 f_c L / (2 f_c + B L) from which the worst case is zero."""
    return 4.0 * f_c * l / (2.0 * f_c + b * l)


def _prop1_gain(f_c: float, b: float, n: int, l: int) -> float:
    """Scalar core of the wideband worst-case closed form."""
    if n >= prop1_zero_limit(f_c, b, l):
        return 0.0
    u = (2.0 * f_c + b * l) / (2.0 * f_c * l)
    return float(dirichlet_power(u, n) / n)


def prop1_worst_case(cfg: SystemConfig) -> NarrowbandAnalysis:
    """Closed-form wideband worst case of the narrowband codebook.

    Zero when N >= prop1_zero_limit: past that element count the worst-case
    composite offset reaches the first pattern null and the edge user gets
    no gain at the band edge.  The worst user sits at +-pi/2.  Warns when
    L < N: the closed form assumes at least as many beams as antennas.
    """
    if cfg.L < cfg.N:
        warnings.warn(f"L={cfg.L} < N={cfg.N}: fewer beams than antennas; "
                      "the closed-form narrowband analysis assumes L >= N",
                      stacklevel=2)
    return NarrowbandAnalysis(worst_case_gain=_prop1_gain(cfg.f_c, cfg.B, cfg.N, cfg.L))


def aligned_beam_wideband_gain(cfg: SystemConfig, phi_m: float, phi: float) -> float:
    """Band-minimum gain of the narrowband beam centered at phi_m, seen at phi.

    Valid as the exact minimum while the combined offset
    f_c |sin phi_m - sin phi| + (B/2)|sin phi| stays within the monotone
    main-lobe range 2 f_c / N; beyond that the Dirichlet ratio re-oscillates
    and a frequency sweep, not this formula, is authoritative.
    """
    if abs(phi_m) > np.pi / 2 or abs(phi) > np.pi / 2:
        raise ValueError("angles must lie in [-pi/2, pi/2]")
    u = abs(np.sin(phi_m) - np.sin(phi)) + (cfg.B / (2.0 * cfg.f_c)) * abs(np.sin(phi))
    return float(dirichlet_power(u, cfg.N) / cfg.N)


def prop2_optimal_N(f_c: float, b: float, l: int) -> tuple[tuple[int, int], int]:
    """Element count maximizing the wideband worst case, to within rounding.

    The continuous argmax is N_STAR_COEFF * f_c * L / (2 f_c + B L); the
    discrete optimum is whichever neighbor integer scores higher.
    Returns ((floor, ceil), best).
    """
    if f_c <= 0 or l < 1 or b < 0:
        raise ValueError("need f_c > 0, L >= 1, B >= 0")
    n_real = N_STAR_COEFF * f_c * l / (2.0 * f_c + b * l)
    lo = max(int(np.floor(n_real)), 1)
    hi = max(int(np.ceil(n_real)), 1)
    best = lo if _prop1_gain(f_c, b, lo, l) >= _prop1_gain(f_c, b, hi, l) else hi
    return (lo, hi), best


class SweepCellError(ValueError):
    """A sweep cell that SystemConfig rejects, named by its N and B."""


def sweep(cfg: SystemConfig, what: str, n_values, b_values,
          solver_cfg: SolverConfig | None = None) -> list[tuple]:
    """(N, B) table of worst cases and the width bound, L fixed by cfg.

    what selects the worst-case column: "narrowband" uses the closed form,
    "wideband" runs the full design pipeline per cell, "bound" leaves the
    column empty.  The bound is 2/delta_omega of the cell's partition.
    Every cell is built before any is worked on, so a cell SystemConfig
    rejects raises SweepCellError, naming the cell, before any work.
    """
    if what not in ("narrowband", "wideband", "bound"):
        raise ValueError(f"unknown sweep kind {what!r}")
    cells = []
    for n in n_values:
        for b in b_values:
            try:
                cells.append(replace(cfg, N=int(n), B=float(b)))
            except ValueError as e:
                raise SweepCellError(f"sweep cell N={n}, B={b / 1e9:g} GHz: {e}") from e
    rows = []
    for cell in cells:
        bound = prop3_upper_bound(divide_zones(cell))
        if what == "narrowband":
            worst = prop1_worst_case(cell).worst_case_gain
        elif what == "wideband":
            worst = evaluate(cell, build_codebook(cell, solver_cfg)).worst_case
        else:
            worst = None
        rows.append((cell.N, cell.B / 1e9, worst, bound))
    return rows
