"""Augmented-Lagrangian / ADMM solver for the constant-modulus minimax beam.

The prototype problem: maximize the minimum gain of one beam over a virtual
window [-delta_omega/2, delta_omega/2], subject to |w_i| = 1/sqrt(N).  The
window is discretized into M points (columns of S); an epigraph variable is
folded into an infinity norm over the slack y, and two splittings (x for the
modulus constraint, r for the target phases) give closed-form block updates:

    y: elementwise truncation against the threshold alpha*
    w: one Hermitian positive-definite solve, diagonalized once by an
       eigendecomposition of S S^H and reused for every iteration
    x: modulus projection of w + lambda_bar
    r: phase projection of y + S^H w + u_bar
    duals: scaled ascent with small steps beta1, beta2

The problem is nonconvex, so iterates can leave a good feasible point and
not come back; the solver therefore tracks the best feasible iterate seen
(the initializer included) by its minimum grid gain and returns that.

`solve` keeps no state object: the iterates are local arrays, and each block
update is a pure function of the arrays it reads.  A C-ordered S^H and the
eigendecomposition of S S^H are built once per solve.  S^H w is computed once
per iteration, right after the w-update, and serves the r-update, the primal
residual and the next iteration's y-update; one more product, |S^H x|^2,
scores the iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import BeamVector, SystemConfig, steering_composite


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
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ValueError("penalty factors must be positive")
        if self.beta1 <= 0 or self.beta2 <= 0:
            raise ValueError("dual step sizes must be positive")
        if self.n_ite < 1:
            raise ValueError("n_ite must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")


def build_grid(n: int, delta_omega: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """M uniform composite points over the window, endpoints included, plus S."""
    if m < 2:
        raise ValueError(f"M must be >= 2, got {m}")
    points = -delta_omega / 2 + np.arange(m) * (delta_omega / (m - 1))
    S = steering_composite(n, points).T.copy()
    return S, points


def w_system(S: np.ndarray, S_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh (lambda, V) of S S^H, the fixed matrix of every w-update."""
    gram = S @ S_h
    if not np.isfinite(gram).all():
        # eigh returns NaN eigenvalues for a non-finite matrix instead of raising
        raise RuntimeError("w-update system is not finite")
    return np.linalg.eigh(gram)


def update_y(target: np.ndarray, s_hw: np.ndarray, u_bar: np.ndarray,
             rho1: float) -> np.ndarray:
    """Truncation step: shrink c = target - S^H w - u_bar onto the alpha* ball.

    target is the scaled phase target sqrt(N) r.
    """
    c = target - s_hw - u_bar
    ac = np.abs(c)
    alpha = max((rho1 * ac.sum() - 1.0) / (c.size * rho1), 0.0)
    return np.where(ac <= alpha, c, alpha * np.exp(1j * np.angle(c)))


def update_w(S: np.ndarray, system: tuple[np.ndarray, np.ndarray], v: np.ndarray,
             z: np.ndarray, rho1: float, rho2: float) -> np.ndarray:
    """Minimizer of rho1/2 |S^H w - v|^2 + rho2/2 |w - z|^2, given system = eigh(S S^H)."""
    lam, V = system
    rhs = rho1 * (S @ v) + rho2 * z
    return V @ ((V.conj().T @ rhs) / (rho1 * lam + rho2))


def update_x(w: np.ndarray, lambda_bar: np.ndarray) -> np.ndarray:
    """Nearest constant-modulus point to w + lambda_bar; arg(0) taken as 0."""
    return np.exp(1j * np.angle(w + lambda_bar)) / np.sqrt(w.size)


def update_r(y: np.ndarray, s_hw: np.ndarray, u_bar: np.ndarray) -> np.ndarray:
    """Unit-modulus phase targets aligned with y + S^H w + u_bar."""
    return np.exp(1j * np.angle(y + s_hw + u_bar))


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
    a candidate, so the result never scores below its start.
    """
    if init.n != cfg.N:
        raise ValueError(f"initializer length {init.n} does not match N={cfg.N}")
    S, _ = build_grid(cfg.N, delta_omega, cfg.solver_grid_size)
    # C-ordered S^H makes |S^H x|^2 bitwise equal to composite_gain(x, grid)
    S_h = np.ascontiguousarray(S.conj().T)
    system = w_system(S, S_h)
    sqrt_n = np.sqrt(cfg.N)
    rho1, rho2 = solver_cfg.rho1, solver_cfg.rho2

    def min_gain(x):
        return float((np.abs(S_h @ x) ** 2).min())

    # feasible start: w = x = init, zero multipliers, targets matched to S^H w
    x = w = init.weights
    s_hw = S_h @ w
    target = sqrt_n * np.exp(1j * np.angle(s_hw))
    u_bar = np.zeros(S.shape[1], dtype=complex)
    lambda_bar = np.zeros(cfg.N, dtype=complex)
    best_gain, best_x = min_gain(x), x
    history = []
    for _ in range(solver_cfg.n_ite):
        y = update_y(target, s_hw, u_bar, rho1)
        w = update_w(S, system, target - u_bar - y, x - lambda_bar, rho1, rho2)
        x = update_x(w, lambda_bar)
        s_hw = S_h @ w
        target = sqrt_n * update_r(y, s_hw, u_bar)
        res = y - target + s_hw
        u_bar, lambda_bar = update_duals(u_bar, lambda_bar, res, w, x,
                                         solver_cfg.beta1, solver_cfg.beta2)
        residual = float(np.linalg.norm(res))
        g = min_gain(x)
        history.append((residual, g))
        if g > best_gain:
            best_gain, best_x = g, x
        if residual <= solver_cfg.eps:
            break
    return BeamVector(best_x), history
