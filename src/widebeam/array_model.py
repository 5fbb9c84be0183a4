"""Uniform linear array model: steering vectors and beam gains.

Everything downstream works in the frequency-spatial composite variable
u = (1 + f/f_c) * sin(phi), in which the array response of a half-wavelength
ULA is a pure geometric phase progression exp(j*pi*(n-1)*u).  Beam gains are
powers |h^H w|^2 and live in [0, N] for constant-modulus weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def solver_grid_size(self) -> int:
        return self.M if self.M is not None else 2 * self.N

    def frequency_grid(self) -> np.ndarray:
        """Uniform baseband grid over [-B/2, B/2], both edges always included."""
        return np.linspace(-self.B / 2, self.B / 2, self.n_freq)


def check_modulus(w: np.ndarray) -> None:
    """Raise unless every |w_i| is within MODULUS_TOL of 1/sqrt(N), N the
    length of the last axis."""
    dev = np.abs(np.abs(w) - 1.0 / np.sqrt(w.shape[-1])).max()
    if not dev <= MODULUS_TOL:      # a NaN weight fails this test too
        raise ValueError(
            f"constant-modulus violation: max deviation {dev:.3e} from 1/sqrt(N)"
        )


@dataclass(frozen=True)
class BeamVector:
    """Length-N analog weight vector with per-element modulus 1/sqrt(N)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=complex)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D complex vector")
        check_modulus(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __array__(self, dtype=None, copy=None):
        """The weights, so np.asarray stacks a sequence of beams; they are
        read-only, and copy=True gives a writeable copy."""
        return np.array(self.weights, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.weights.size


def steering_composite(n: int, u) -> np.ndarray:
    """Raw steering entries exp(j*pi*k*u) for k = 0..n-1.

    `u` may be a scalar or an array; the element axis is appended last.
    One exp per entry, no validation: shift_beam builds its beam here, and
    the narrowband book its row 0 only (Codebook shifts that row to the
    other centers with phase_powers).
    """
    k = np.arange(n)
    return np.exp(1j * np.pi * np.multiply.outer(np.asarray(u, dtype=float), k))


def phase_powers(n: int, u) -> np.ndarray:
    """E[k, m] = exp(-j*pi*k*u[m]) for k = 0..n-1 and a 1-D u, built by doubling.

    Only the rows k = 1, 2, 4, ... call exp; every other block is one
    product E[h:2h] = E[:h] * exp(-j*pi*h*u).  Row k is then a product of
    popcount(k) exponentials, so the rounding error grows with log2(n),
    not with n as it would along the plain recurrence E[k] = E[k-1]*E[1].
    The design path, every shift book's rows (codebook.shift_rows) and
    gain_floor, behind the initializer's coverage check and the per-zone
    minima, build their steering tables here; steering_composite and
    composite_gain keep one exp per entry, and the general evaluation sweep
    builds its own table with one exp per column (codebook._phase_table).
    """
    u = np.asarray(u, dtype=float)
    E = np.empty((n, u.size), dtype=complex)
    E[0] = 1.0
    h = 1
    while h < n:
        m = min(h, n - h)
        np.multiply(E[:m], np.exp(-1j * np.pi * h * u), out=E[h:h + m])
        h *= 2
    return E


def gain_floor(w: np.ndarray, lo: float, hi: float, samples: int) -> float:
    """Least gain |h(u)^H w|^2 over `samples` uniform points spanning [lo, hi],
    through one phase_powers table, whose rounding differs from
    composite_gain's per-entry exp only in the last bits."""
    u = np.linspace(lo, hi, samples)
    return float((np.abs(w @ phase_powers(w.size, u)) ** 2).min())


def composite_gain(weights: np.ndarray, u) -> np.ndarray:
    """|h(u)^H w|^2 evaluated at composite value(s) u; shape follows u."""
    u = np.asarray(u, dtype=float)
    k = np.arange(weights.size)
    field = np.exp(-1j * np.pi * np.multiply.outer(u.ravel(), k)) @ weights
    return (np.abs(field) ** 2).reshape(u.shape)


def wideband_beam_gain(cfg: SystemConfig, phi: float, w: BeamVector) -> float:
    """Worst gain over the whole band at a fixed angle.

    The minimum is taken on the n_freq-point uniform grid with both band
    edges present; for beams aligned at phi the exact minimizer is an edge,
    so the grid value is exact there.
    """
    u = (1.0 + cfg.frequency_grid() / cfg.f_c) * np.sin(phi)
    return float(composite_gain(w.weights, u).min())


def dirichlet_power(u, n: int):
    """Squared Dirichlet kernel [sin(n*pi*u/2) / sin(pi*u/2)]^2.

    Computed as n*sinc(n*x/2)/sinc(x/2) after wrapping u into x in [-1, 1),
    which keeps the removable singularities finite: the value at u = 0
    (mod 2) is exactly n^2.  This is the gain (times N) of a matched beam
    at composite offset u.  The floats are those of np.mod and np.sinc, bit
    for bit, without their temporaries: np.mod(v, 2) is the exact remainder
    v - 2*trunc(v/2), plus 2 where negative; each sinc is sin(y)/y at
    y = pi*x/2 or pi*(n*x)/2 (the halving is exact), and y = eps where
    x = 0, as np.sinc does, so that both sincs are exactly 1 there.
    """
    u = np.asarray(u, dtype=float)
    x = u + 1.0
    x -= 2.0 * np.trunc(x / 2.0)
    x += (x < 0.0) * 2.0
    x -= 1.0
    eps = (x == 0.0) * np.finfo(float).eps
    num = x * n
    num *= np.pi / 2.0
    num += eps
    x *= np.pi / 2.0
    x += eps
    out = np.sin(num)
    out /= num
    out *= n
    den = np.sin(x)
    den /= x
    out /= den
    out *= out
    return out
