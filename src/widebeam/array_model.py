"""Uniform linear array model: steering vectors, beam gains, link-budget scalars.

Everything downstream works in the frequency-spatial composite variable
u = (1 + f/f_c) * sin(phi), in which the array response of a half-wavelength
ULA is a pure geometric phase progression exp(j*pi*(n-1)*u).  Beam gains are
powers |h^H w|^2 and live in [0, N] for constant-modulus weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

C_LIGHT = 299_792_458.0  # m/s

# constant-modulus tolerance on |w_i| - 1/sqrt(N)
MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Carrier, band, array and grid parameters shared by the whole pipeline.

    M is the solver's discretization count over one virtual zone; None means
    "use 2N", the default density used throughout the experiments.
    """

    f_c: float
    B: float
    N: int
    L: int
    M: int | None = None
    n_freq: int = 257
    n_angle: int = 1024

    def __post_init__(self):
        if not (np.isfinite(self.f_c) and self.f_c > 0):
            raise ValueError(f"f_c must be positive and finite, got {self.f_c}")
        if not (np.isfinite(self.B) and 0 <= self.B < 2 * self.f_c):
            # f_c +- B/2 must stay positive, the zone mapping divides by both
            raise ValueError(f"B must satisfy 0 <= B < 2*f_c, got {self.B}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.M is not None and self.M < 2:
            raise ValueError(f"M must be >= 2 when given, got {self.M}")
        if self.n_freq < 2:
            raise ValueError(f"n_freq must be >= 2, got {self.n_freq}")
        if self.n_angle < 2:
            raise ValueError(f"n_angle must be >= 2, got {self.n_angle}")
        if self.L < self.N:
            warnings.warn(
                f"L={self.L} < N={self.N}: fewer beams than antennas; "
                "the closed-form narrowband analysis assumes L >= N",
                stacklevel=2,
            )

    @property
    def solver_grid_size(self) -> int:
        return self.M if self.M is not None else 2 * self.N

    def frequency_grid(self) -> np.ndarray:
        """Uniform baseband grid over [-B/2, B/2], both edges always included."""
        return np.linspace(-self.B / 2, self.B / 2, self.n_freq)


@dataclass(frozen=True)
class BeamVector:
    """Length-N analog weight vector with per-element modulus 1/sqrt(N)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=complex)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D complex vector")
        dev = np.abs(np.abs(w) - 1.0 / np.sqrt(w.size)).max()
        if not dev <= MODULUS_TOL:      # a NaN weight fails this test too
            raise ValueError(
                f"constant-modulus violation: max deviation {dev:.3e} from 1/sqrt(N)"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SteeringVector:
    """Array response h at one composite value; entries[0] == 1 exactly."""

    entries: np.ndarray
    composite: float


def steering_composite(n: int, u) -> np.ndarray:
    """Raw steering entries exp(j*pi*k*u) for k = 0..n-1.

    `u` may be a scalar or an array; the element axis is appended last.
    This is the hot-path variant used by the solver, no validation.
    """
    k = np.arange(n)
    return np.exp(1j * np.pi * np.multiply.outer(np.asarray(u, dtype=float), k))


def steering(cfg: SystemConfig, f: float, phi: float) -> SteeringVector:
    """Array response at baseband frequency f and departure angle phi."""
    if not (np.isfinite(f) and np.isfinite(phi)):
        raise ValueError("f and phi must be finite")
    if not (-cfg.B / 2 <= f <= cfg.B / 2):
        raise ValueError(f"f={f} outside the band [-B/2, B/2]")
    if not (-np.pi / 2 <= phi <= np.pi / 2):
        raise ValueError(f"phi={phi} outside [-pi/2, pi/2]")
    u = (1.0 + f / cfg.f_c) * np.sin(phi)
    return SteeringVector(entries=steering_composite(cfg.N, float(u)), composite=float(u))


def composite_gain(weights: np.ndarray, u) -> np.ndarray:
    """|h(u)^H w|^2 evaluated at composite value(s) u; shape follows u."""
    u = np.asarray(u, dtype=float)
    k = np.arange(weights.size)
    field = np.exp(-1j * np.pi * np.multiply.outer(u.ravel(), k)) @ weights
    return (np.abs(field) ** 2).reshape(u.shape)


def beam_gain(cfg: SystemConfig, f: float, phi: float, w: BeamVector) -> float:
    """Power gain |h(f,phi)^H w|^2, in [0, N]."""
    h = steering(cfg, f, phi)
    return float(np.abs(h.entries.conj() @ w.weights) ** 2)


def wideband_beam_gain(cfg: SystemConfig, phi: float, w: BeamVector) -> float:
    """Worst gain over the whole band at a fixed angle.

    The minimum is taken on the n_freq-point uniform grid with both band
    edges present; for beams aligned at phi the exact minimizer is an edge,
    so the grid value is exact there.
    """
    u = (1.0 + cfg.frequency_grid() / cfg.f_c) * np.sin(phi)
    return float(composite_gain(w.weights, u).min())


def codebook_gain(cfg: SystemConfig, phi: float, beams) -> tuple[float, int]:
    """Best wideband gain over a beam collection and the 1-based winner index.

    `beams` is a Codebook or any sequence of BeamVector.  Ties go to the
    lowest index.  Beam numbering is 1-based to match the l = 1..L zone
    numbering used everywhere in reports and CSV output.
    """
    seq = getattr(beams, "beams", beams)
    if len(seq) == 0:
        raise ValueError("empty codebook")
    gains = [wideband_beam_gain(cfg, phi, w) for w in seq]
    best = int(np.argmax(gains))  # argmax returns the first maximizer
    return gains[best], best + 1


def dirichlet_power(u, n: int):
    """Squared Dirichlet kernel [sin(n*pi*u/2) / sin(pi*u/2)]^2.

    Computed through np.sinc after wrapping u into (-1, 1], which keeps the
    removable singularities finite: the value at u = 0 (mod 2) is exactly n^2.
    This is the gain (times N) of a matched beam at composite offset u.
    """
    u = np.asarray(u, dtype=float)
    uw = np.mod(u + 1.0, 2.0) - 1.0
    return (n * np.sinc(n * uw / 2.0) / np.sinc(uw / 2.0)) ** 2


def path_loss(f_c: float, d_c: float, kappa: float = 0.0) -> float:
    """Free-space amplitude factor with molecular absorption.

    Returns c/(4*pi*f_c*d_c) * exp(-kappa*d_c/2); amplitude, not power.
    """
    if f_c <= 0 or d_c <= 0:
        raise ValueError("f_c and d_c must be positive")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return C_LIGHT / (4.0 * np.pi * f_c * d_c) * np.exp(-kappa * d_c / 2.0)


def delay_spread(cfg: SystemConfig, phi: float) -> float:
    """Aperture delay spread (N-1)*|sin(phi)|/(2*f_c) for half-wavelength spacing."""
    return (cfg.N - 1) * abs(np.sin(phi)) / (2.0 * cfg.f_c)


def min_cp(cfg: SystemConfig) -> float:
    """Cyclic-prefix length that removes ISI at any angle: (N-1)/(2*f_c)."""
    return (cfg.N - 1) / (2.0 * cfg.f_c)
