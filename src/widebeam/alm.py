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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class SolverState:
    """One solve's iterate bundle; mutated in place by the block updates."""

    S: np.ndarray                   # N x M steering columns over the window
    grid: np.ndarray                # the M composite points
    w: np.ndarray                   # relaxed beam, N
    x: np.ndarray                   # modulus-feasible beam, N
    y: np.ndarray                   # infinity-norm slack, M
    r: np.ndarray                   # unit-modulus targets, M
    u_bar: np.ndarray               # scaled multiplier for the y-split, M
    lambda_bar: np.ndarray          # scaled multiplier for the x-split, N
    history: list = field(default_factory=list)  # (primal residual, min gain of x)
    system_factor: tuple | None = None           # cached eigh (lambda, V) of S S^H

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def m(self) -> int:
        return self.S.shape[1]


def build_grid(n: int, delta_omega: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """M uniform composite points over the window, endpoints included, plus S."""
    if m < 2:
        raise ValueError(f"M must be >= 2, got {m}")
    points = -delta_omega / 2 + np.arange(m) * (delta_omega / (m - 1))
    S = steering_composite(n, points).T.copy()
    return S, points


def initial_state(S: np.ndarray, grid: np.ndarray, init: BeamVector) -> SolverState:
    """Start from a feasible beam: w = x = init, zero multipliers, matched r."""
    w = init.weights.astype(complex).copy()
    m = S.shape[1]
    r = np.exp(1j * np.angle(S.conj().T @ w))
    return SolverState(
        S=S, grid=grid, w=w, x=w.copy(),
        y=np.zeros(m, dtype=complex), r=r,
        u_bar=np.zeros(m, dtype=complex),
        lambda_bar=np.zeros(S.shape[0], dtype=complex),
    )


def update_y(state: SolverState, rho1: float) -> np.ndarray:
    """Truncation step: shrink c = sqrt(N) r - S^H w - u_bar onto the alpha* ball."""
    c = np.sqrt(state.n) * state.r - state.S.conj().T @ state.w - state.u_bar
    ac = np.abs(c)
    alpha = max((rho1 * ac.sum() - 1.0) / (state.m * rho1), 0.0)
    return np.where(ac <= alpha, c, alpha * np.exp(1j * np.angle(c)))


def update_w(state: SolverState, rho1: float, rho2: float) -> np.ndarray:
    """Unconstrained quadratic minimizer; S S^H = V diag(lambda) V^H is decomposed once."""
    if state.system_factor is None:
        gram = state.S @ state.S.conj().T
        if not np.isfinite(gram).all():
            raise RuntimeError("w-update system is not finite")
        state.system_factor = np.linalg.eigh(gram)
    lam, V = state.system_factor
    rhs = rho1 * (state.S @ (np.sqrt(state.n) * state.r - state.u_bar - state.y)) \
        + rho2 * (state.x - state.lambda_bar)
    return V @ ((V.conj().T @ rhs) / (rho1 * lam + rho2))


def update_x(state: SolverState) -> np.ndarray:
    """Nearest constant-modulus point to w + lambda_bar; arg(0) taken as 0."""
    return np.exp(1j * np.angle(state.w + state.lambda_bar)) / np.sqrt(state.n)


def update_r(state: SolverState) -> np.ndarray:
    """Unit-modulus phase targets aligned with y + S^H w + u_bar."""
    return np.exp(1j * np.angle(state.y + state.S.conj().T @ state.w + state.u_bar))


def update_duals(state: SolverState, beta1: float, beta2: float,
                 residual: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dual ascent on both splittings; `residual` reuses a computed residual."""
    if residual is None:
        residual = primal_residual_vector(state)
    u_bar = state.u_bar + beta1 * residual
    lambda_bar = state.lambda_bar + beta2 * (state.w - state.x)
    return u_bar, lambda_bar


def primal_residual_vector(state: SolverState) -> np.ndarray:
    return state.y - np.sqrt(state.n) * state.r + state.S.conj().T @ state.w


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
    S, grid = build_grid(cfg.N, delta_omega, cfg.solver_grid_size)
    state = initial_state(S, grid, init)

    # C-ordered S^H makes |S^H x|^2 bitwise equal to composite_gain(x, grid)
    S_h = np.ascontiguousarray(S.conj().T)

    def min_gain(x):
        return float((np.abs(S_h @ x) ** 2).min())

    best_gain = min_gain(state.x)
    best_x = state.x.copy()
    for _ in range(solver_cfg.n_ite):
        state.y = update_y(state, solver_cfg.rho1)
        state.w = update_w(state, solver_cfg.rho1, solver_cfg.rho2)
        state.x = update_x(state)
        state.r = update_r(state)
        res = primal_residual_vector(state)
        state.u_bar, state.lambda_bar = update_duals(
            state, solver_cfg.beta1, solver_cfg.beta2, res)
        residual = float(np.linalg.norm(res))
        g = min_gain(state.x)
        state.history.append((residual, g))
        if g > best_gain:
            best_gain = g
            best_x = state.x.copy()
        if residual <= solver_cfg.eps:
            break
    return BeamVector(best_x), state.history
