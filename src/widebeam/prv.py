"""Closed-form wide-beam initializer built from phased sub-arrays.

A beam that must cover a virtual window wider than the 2/N main lobe of a
single response vector is assembled from Z sub-arrays of N/Z elements, each
pointing at its own slice of the window.  The per-sub-array phase offsets
theta_z are chosen so adjacent sub-array responses add in phase where their
patterns intersect, which fills the trenches a naive (theta = 0) stack
leaves between the slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import BeamVector, gain_floor

COVERAGE_GRID = 512    # points for the construction-time positivity check
COVERAGE_FLOOR = 1e-9  # least gain it accepts: 1e-9 of a constant-modulus beam's mean gain, 1


@dataclass(frozen=True)
class PrvPlan:
    """Sub-array split and phasing for one coverage window of width delta_omega."""

    Z: int                      # sub-array count, divides N
    N_s: int                    # elements per sub-array
    thetas: np.ndarray          # phase offsets theta_z, radians, thetas[0] = 0
    pointing: np.ndarray        # per-sub-array pointing psi_pt_z, sine-space
    intersections: np.ndarray   # pattern crossings psi_itr_z, sine-space

    def __post_init__(self):
        for name in ("thetas", "pointing", "intersections"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.Z * self.N_s


def prv_plan(n: int, delta_omega: float) -> PrvPlan:
    """Choose the sub-array split for a window of width delta_omega.

    Z is the smallest divisor of n with Z >= sqrt(delta_omega*n/2): the
    smallest split keeps sub-arrays long and per-direction gain high, while
    the square-root floor guarantees Z slices of width delta_omega/Z fit
    the 2Z/n sub-array beamwidth.  A single response vector covers up to
    2/n, and delta_omega <= 2/n gives Z = 1, since fl(fl(2/n)*n) <= 2.  Z = n
    qualifies while delta_omega <= 2n; a wider window, which a zone
    partition gives only at n = 1 and L = 1, takes Z = n as well.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta_omega < 0:
        raise ValueError(f"delta_omega must be non-negative, got {delta_omega}")
    z_min = np.sqrt(delta_omega * n / 2.0)
    Z = next((z for z in range(1, n + 1) if n % z == 0 and z >= z_min), n)
    N_s = n // Z
    z = np.arange(1, Z + 1)
    pointing = -delta_omega / 2 + (2 * z - 1) * delta_omega / (2 * Z)
    intersections = -delta_omega / 2 + z * delta_omega / Z
    thetas = ((Z - z + 1) * N_s - 1) / (2 * Z) * (z - 1) * np.pi * delta_omega
    return PrvPlan(Z=int(Z), N_s=int(N_s), thetas=thetas,
                   pointing=pointing, intersections=intersections)


def prv_beam(plan: PrvPlan) -> BeamVector:
    """Stack the phased sub-array responses into one constant-modulus beam.

    The stacked construction is native to the opposite steering sign, so the
    block is conjugated into the library's +j convention.  Rather than trust
    that algebra, the beam pattern is checked right here: the gain must
    exceed COVERAGE_FLOOR over the whole window the plan was built for, so
    a null computed to rounding (a gain near 1e-30) is a null.  The check
    reads the gain on COVERAGE_GRID points through the evaluation kernel's
    window call (array_model.gain_floor), behind the per-zone minima too.
    """
    k = np.arange(plan.N_s)
    blocks = [
        np.exp(1j * plan.thetas[z]) * np.exp(-1j * np.pi * k * plan.pointing[z])
        for z in range(plan.Z)
    ]
    w = np.conj(np.concatenate(blocks)) / np.sqrt(plan.n)
    half = min(plan.intersections[-1], 1.0)  # window clamped into one period
    floor = gain_floor(w, -half, half, COVERAGE_GRID)
    if not floor > COVERAGE_FLOOR:
        raise RuntimeError(
            f"sub-array stack leaves a null inside its window (min gain {floor:.3e})"
        )
    return BeamVector(w)
