"""Uniform linear array model: steering vectors and beam gains.

Everything downstream works in the frequency-spatial composite variable
u = (1 + f/f_c) * sin(phi), in which the array response of a half-wavelength
ULA is a pure geometric phase progression exp(j*pi*(n-1)*u).  Beam gains are
powers |h^H w|^2 and live in [0, N] for constant-modulus weights.

Two table builders, one per path.  phase_powers builds the design path's
steering tables (the solver's grid, a shift book's rows), whose bits the
designed files pin.  phase_table, pair_coefficients and least_gain are the
one evaluation kernel: the least gain of each beam over each set of
composite points.  It reads a beam of n elements as its even twin of
2h = 2*ceil(n/2), an odd beam padded with one element of weight 0, and
pairs element k with 2h-1-k, so that any beam's field is, up to a unit
phase, its real coefficient rows times one real table of cos and sin rows
at the half-integer offsets, one layout at every n.  Every gain comes
from one real GEMM at half the multiply-adds of a complex one.  The
general sweep calls them directly, writing every block's table into one
real table kept for the sweep, and gain_floor is their window call over
WINDOW_GRID samples, behind the initializer's coverage check and the
per-zone minima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# constant-modulus tolerance on |w_i| - 1/sqrt(N)
MODULUS_TOL = 1e-12
WINDOW_GRID = 1025      # uniform samples of every window a least gain is taken over


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
            f"constant-modulus violation (max deviation {dev:.3e})"
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
    It serves the design path only: the solver's grid (alm.build_grid) and
    every shift book's rows (codebook.shift_rows), whose bits the designed
    files pin.  Evaluation reads phase_table instead; steering_composite
    and composite_gain keep one exp per entry.
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


def _base_rows(h: int) -> int:
    """R, the largest power of two with R*R <= h: the rows of phase_table's
    base block, so that the block and each product of it stay in cache
    while there are about as many blocks as rows in one."""
    r = 1
    while 4 * r * r <= h:
        r *= 2
    return r


def phase_table(n: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The evaluation kernel's real (2h, u.size) table T, h = ceil(n/2): the
    rows cos(pi*m*u) for m = 1/2, 3/2, ..., h - 1/2, then the rows
    sin(pi*m*u) for the same m.  These are the centred offsets
    m = k' - (2h-1)/2 of the elements k' paired with k = 2h-1-k' in a beam
    of 2h elements; an odd beam is read as that even twin, its last element
    of weight 0, so pair_coefficients(w) @ T gives every row's field up to
    a unit phase at every n.

    The h complex rows H[i] = exp(-j*pi*m_i*u) come from one exp per
    column: H[0] = exp(-j*pi*u/2), and z = H[0]*H[0].  The first R rows,
    R = _base_rows, are the base block, built by doubling,
    H[k:2k] = H[:k] * z^k with z^k from squaring z in place; every later R
    rows are the base block times z^(aR), a = 1, 2, ..., each factor the
    last one times z^R.  Each block of H is split into T's cos and sin rows
    as soon as it is made, in a work buffer of 2R rows that stays in cache,
    so H is never held whole.  Row i's phase error grows like m_i*eps:
    about 3e-13 at n = 1024 and |u| <= 2, against 5e-13 for a table over
    k = 0..n-1, whose largest offset is twice as large.  The table is
    written into `out`, a (2h, u.size) float array (a column slice of one
    will do), or into a new one; the work rows are allocated here on every
    call.
    """
    h = (n + 1) // 2
    if out is None:
        out = np.empty((2 * h, u.size))
    r = _base_rows(h)
    work = np.empty((min(2 * r, h), u.size), dtype=complex)
    B = work[:r]
    np.exp(-0.5j * np.pi * u, out=B[0])
    z = B[0] * B[0]
    k = 1
    while k < r:
        np.multiply(B[:k], z, out=B[k:2 * k])
        np.multiply(z, z, out=z)
        k *= 2
    # z is now z^r; sin[i] is H[i]'s sine row
    sin = out[h:]
    out[:r] = B.real
    np.negative(B.imag, out=sin[:r])
    factor = z.copy()
    for i in range(r, h, r):
        m = min(r, h - i)
        C = np.multiply(B[:m], factor, out=work[r:r + m])
        out[i:i + m] = C.real
        np.negative(C.imag, out=sin[i:i + m])
        np.multiply(factor, z, out=factor)
    return out


def pair_coefficients(weights: np.ndarray) -> np.ndarray:
    """The real (rows, 2, 2h) coefficient block, h = ceil(n/2), of an
    (rows, n) block of weights against phase_table's rows: Re and Im of
    P_m = w_k + w_k' over the cos rows, then of Q_m = j*(w_k - w_k') over
    the sin rows, for each pair k < k' = 2h-1-k with offset
    m = k' - (2h-1)/2.  An odd n is first padded with one trailing element
    of weight 0, which adds nothing to any field; an even n is not copied.
    Any book, not only a symmetric one: row l's field at u is
    (coef[l, 0] @ T) + j*(coef[l, 1] @ T) times a unit phase.
    """
    rows, n = weights.shape
    h = (n + 1) // 2
    if n % 2:
        weights = np.pad(weights, ((0, 0), (0, 1)))
    upper, lower = weights[:, h:], weights[:, h - 1::-1]
    P = upper + lower
    d = lower - upper
    coef = np.empty((rows, 2, 2 * h))
    coef[:, 0, :h], coef[:, 1, :h] = P.real, P.imag
    coef[:, 0, h:], coef[:, 1, h:] = -d.imag, d.real
    return coef


def least_gain(coef: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Least gain of each row of a pair_coefficients block over each of the
    A sets of F points of a (2h, F, A) phase_table, F frequencies at A
    angles or one window's samples: one real product X = coef @ T, the
    gains X_re^2 + X_im^2, and their minimum over the F points.
    Shape (rows, A)."""
    K, F, A = T.shape
    X = coef.reshape(-1, K) @ T.reshape(K, F * A)
    np.square(X, out=X)
    X = X.reshape(coef.shape[0], 2, F, A)
    # the gains overwrite X_re^2, so the product is the one large array
    return np.add(X[:, 0], X[:, 1], out=X[:, 0]).min(axis=1)


def gain_floor(w: np.ndarray, lo: float, hi: float) -> float:
    """Least gain |h(u)^H w|^2 over WINDOW_GRID uniform points spanning
    [lo, hi]: one window of the evaluation kernel (phase_table,
    pair_coefficients, least_gain), whose rounding differs from
    composite_gain's per-entry exp only in the last bits.  The initializer's
    coverage check and the per-zone minima read it."""
    u = np.linspace(lo, hi, WINDOW_GRID)
    T = phase_table(w.size, u)[:, :, None]
    return float(least_gain(pair_coefficients(w[None]), T)[0, 0])


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
    at composite offset u.

    The contract, bit for bit and for a scalar u and an array alike (a
    scalar gives a numpy float64): with x = np.mod(u + 1, 2) - 1 and
    r = n * np.sinc(n*x/2) / np.sinc(x/2), the value is r * r.  The floats
    are those of np.mod and np.sinc, computed without their temporaries:
    np.mod(v, 2) is the exact remainder v - 2*trunc(v/2), plus 2 where
    negative; each sinc is sin(y)/y at y = pi*x/2 or pi*(n*x)/2 (the
    halving is exact), and y = eps where x = 0, as np.sinc does, so that
    both sincs are exactly 1 there.  The final square is a multiplication,
    not r ** 2, which on a numpy scalar goes through pow and can differ in
    the last bit.
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
