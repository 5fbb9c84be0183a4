"""Augmented-Lagrangian / ADMM solver for the constant-modulus minimax beam.

The prototype problem: maximize the minimum gain of one beam over a virtual
window [-delta_omega/2, delta_omega/2], subject to |w_i| = 1/sqrt(N).  The
window is discretized into M points (columns of S); an epigraph variable is
folded into an infinity norm over the slack y, and two splittings (x for the
modulus constraint, r for the target phases) give closed-form block updates:

    y: elementwise truncation against the threshold alpha*
    w: w = A v + B z, two fixed operators built once per solve
    x: modulus projection of w + lambda_bar
    r: phase projection of y + S^H w + u_bar
    duals: scaled ascent with small steps beta1, beta2

S is built by doubling (array_model.phase_powers), so only log2(N) of its
rows call exp.  Every phase projection is z/|z| (unit_phase), one abs and
one division per entry instead of an angle and a complex exp.

The window is symmetric about 0, so S S^H is real (entry (i, k) is the sum
over the grid of cos(pi (i - k) u_m)).  One real eigendecomposition of it
gives K = (rho1 S S^H + rho2 I)^-1, and the w-update's operators are
A = rho1 K S and B = rho2 K; S itself is dropped once A is built.

The problem is nonconvex, so iterates can leave a good feasible point and
not come back; the solver therefore returns the best feasible iterate seen
(the initializer included) by its minimum grid gain.  That score never feeds
back into the iteration, so the iterates are kept in a SCORE_ROWS-row buffer
and each full buffer is scored with one product against S^H.

`solve` keeps no state object: the iterates are local arrays, and each block
update is a pure function of the arrays it reads.  S^H w is computed once
per iteration, right after the w-update, and serves the r-update, the primal
residual and the next iteration's y-update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import BeamVector, SystemConfig, phase_powers

SCORE_ROWS = 32         # iterates scored per product against S^H


@dataclass(frozen=True)
class SolverConfig:
    """Penalties, dual step sizes and stopping controls.

    Defaults are the reference experiment settings: unit penalties, 1e-3
    dual steps, 50 iterations, eps = 0 (fixed iteration count).  n_ite is
    worth raising when exploring: 50 iterations with beta = 1e-3 barely
    moves the multipliers and quality rests mostly on the projections.
    """

    rho1: float = 1.0
    rho2: float = 1.0
    beta1: float = 1e-3
    beta2: float = 1e-3
    n_ite: int = 50
    eps: float = 0.0

    def __post_init__(self):
        # NaN passes every comparison below
        for name in ("rho1", "rho2", "beta1", "beta2", "eps"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ValueError("penalty factors must be positive")
        if self.beta1 <= 0 or self.beta2 <= 0:
            raise ValueError("dual step sizes must be positive")
        if self.n_ite < 1:
            raise ValueError("n_ite must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")


def build_grid(n: int, delta_omega: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """M uniform composite points over the window, endpoints included, plus
    S[k, m] = exp(j*pi*k*points[m]), built by doubling."""
    if m < 2:
        raise ValueError(f"M must be >= 2, got {m}")
    points = -delta_omega / 2 + np.arange(m) * (delta_omega / (m - 1))
    return phase_powers(n, -points), points


def unit_phase(z: np.ndarray) -> np.ndarray:
    """z/|z| elementwise, and 1 where z == 0 (arg(0) taken as 0).

    The same point as exp(1j*angle(z)) to rounding, without the angle and
    the complex exp.
    """
    r = np.abs(z)
    zero = r == 0
    r[zero] = 1.0
    p = z / r
    p[zero] = 1.0
    return p


def w_system(S: np.ndarray, S_h: np.ndarray, rho1: float,
             rho2: float) -> tuple[np.ndarray, np.ndarray]:
    """Operators (A, B) of the w-update w = A v + B z, from one real eigh.

    With K = (rho1 S S^H + rho2 I)^-1, A = rho1 K S and B = rho2 K, both
    complex.  S S^H is real for a window symmetric about 0; its imaginary
    part is rounding and is dropped before the eigendecomposition.
    """
    gram = (S @ S_h).real.copy()
    if not np.isfinite(gram).all():
        # eigh returns NaN eigenvalues for a non-finite matrix instead of raising
        raise RuntimeError("w-update system is not finite")
    lam, V = np.linalg.eigh(gram)
    K = (V / (rho1 * lam + rho2)) @ V.T
    del gram, V  # peak memory: freed before A is built
    # K S as one real product over S's interleaved real and imaginary parts;
    # K @ S would first copy K to complex.  Both scalings are in place
    A = (K @ np.ascontiguousarray(S).view(float)).view(complex)
    A *= rho1
    B = K.astype(complex)
    B *= rho2
    return A, B


def update_y(target: np.ndarray, s_hw: np.ndarray, u_bar: np.ndarray,
             rho1: float) -> np.ndarray:
    """Truncation step: shrink c = target - S^H w - u_bar onto the alpha* ball.

    target is the scaled phase target sqrt(N) r.
    """
    c = target - s_hw - u_bar
    ac = np.abs(c)
    alpha = max((rho1 * ac.sum() - 1.0) / (c.size * rho1), 0.0)
    return np.where(ac <= alpha, c, alpha * unit_phase(c))


def update_w(ops: tuple[np.ndarray, np.ndarray], v: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """Minimizer of rho1/2 |S^H w - v|^2 + rho2/2 |w - z|^2, given ops = w_system(...)."""
    A, B = ops
    return A @ v + B @ z


def update_x(w: np.ndarray, lambda_bar: np.ndarray) -> np.ndarray:
    """Nearest constant-modulus point to w + lambda_bar; arg(0) taken as 0."""
    return unit_phase(w + lambda_bar) / np.sqrt(w.size)


def update_r(y: np.ndarray, s_hw: np.ndarray, u_bar: np.ndarray) -> np.ndarray:
    """Unit-modulus phase targets aligned with y + S^H w + u_bar."""
    return unit_phase(y + s_hw + u_bar)


def update_duals(u_bar: np.ndarray, lambda_bar: np.ndarray, residual: np.ndarray,
                 w: np.ndarray, x: np.ndarray, beta1: float,
                 beta2: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dual ascent on both splittings: the y-split residual and w - x."""
    return u_bar + beta1 * residual, lambda_bar + beta2 * (w - x)


def solve(
    cfg: SystemConfig,
    solver_cfg: SolverConfig,
    delta_omega: float,
    init: BeamVector,
) -> tuple[BeamVector, list]:
    """Run the block updates from a feasible initializer, keep the best iterate.

    Returns the modulus-feasible beam x with the largest minimum gain over
    the window grid, along with the per-iteration history of
    (primal residual norm, min grid gain of x).  The initializer itself is
    a candidate, so the result never scores below its start; among equal
    scores the earliest candidate wins.
    """
    if init.n != cfg.N:
        raise ValueError(f"initializer length {init.n} does not match N={cfg.N}")
    S, _ = build_grid(cfg.N, delta_omega, cfg.solver_grid_size)
    S_h = np.ascontiguousarray(S.conj().T)
    rho1, rho2 = solver_cfg.rho1, solver_cfg.rho2
    ops = w_system(S, S_h, rho1, rho2)
    del S
    sqrt_n = np.sqrt(cfg.N)

    # feasible start: w = x = init, zero multipliers, targets matched to S^H w
    x = w = init.weights
    s_hw = S_h @ w
    target = sqrt_n * unit_phase(s_hw)
    u_bar = np.zeros(S_h.shape[0], dtype=complex)
    lambda_bar = np.zeros(cfg.N, dtype=complex)

    # candidates wait in rows until it is full; row 0 of the first block is
    # the initializer, so gains[0] is its score and gains[k] iterate k's
    rows = np.empty((SCORE_ROWS, cfg.N), dtype=complex)
    rows[0] = x
    filled = 1
    gains: list[float] = []
    best_gain, best_x = -np.inf, x

    def score():
        nonlocal best_gain, best_x
        g = (np.abs(rows[:filled] @ S_h.T) ** 2).min(axis=1)
        k = int(np.argmax(g))  # the first strict maximum
        if g[k] > best_gain:
            best_gain, best_x = g[k], rows[k].copy()
        gains.extend(g.tolist())

    residuals = []
    for _ in range(solver_cfg.n_ite):
        y = update_y(target, s_hw, u_bar, rho1)
        w = update_w(ops, target - u_bar - y, x - lambda_bar)
        x = update_x(w, lambda_bar)
        s_hw = S_h @ w
        target = sqrt_n * update_r(y, s_hw, u_bar)
        res = y - target + s_hw
        u_bar, lambda_bar = update_duals(u_bar, lambda_bar, res, w, x,
                                         solver_cfg.beta1, solver_cfg.beta2)
        residuals.append(float(np.sqrt(np.vdot(res, res).real)))
        rows[filled] = x
        filled += 1
        if filled == SCORE_ROWS:
            score()
            filled = 0
        if residuals[-1] <= solver_cfg.eps:
            break
    if filled:
        score()
    return BeamVector(best_x), list(zip(residuals, gains[1:]))
