"""Block-update solver: each update against its own optimality property."""

from types import SimpleNamespace

import numpy as np
import pytest

from widebeam import SolverConfig, SystemConfig, divide_zones
from widebeam.alm import (
    build_grid,
    solve,
    update_duals,
    update_r,
    update_w,
    update_x,
    update_y,
    w_system,
)
from widebeam.array_model import BeamVector, composite_gain, steering_composite
from widebeam.prv import prv_beam, prv_plan


def matched_beam(n):
    return BeamVector(steering_composite(n, 0.0) / np.sqrt(n))


def random_iterates(n=8, m=16, seed=0):
    """S over a 0.4 window, its C-ordered S^H, and random iterates."""
    rng = np.random.default_rng(seed)
    S, _ = build_grid(n, 0.4, m)
    return SimpleNamespace(
        n=n, m=m, S=S, S_h=np.ascontiguousarray(S.conj().T),
        y=rng.normal(size=m) + 1j * rng.normal(size=m),
        u_bar=0.1 * (rng.normal(size=m) + 1j * rng.normal(size=m)),
        lambda_bar=0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
        w=rng.normal(size=n) + 1j * rng.normal(size=n),
        r=np.exp(1j * rng.uniform(0, 2 * np.pi, m)),
        x=matched_beam(n).weights,
    )


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(rho1=0.0), dict(rho2=-1.0), dict(beta1=0.0), dict(beta2=-1e-3),
        dict(n_ite=0), dict(eps=-1.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_defaults(self):
        sc = SolverConfig()
        assert (sc.rho1, sc.rho2) == (1.0, 1.0)
        assert (sc.beta1, sc.beta2) == (1e-3, 1e-3)
        assert (sc.n_ite, sc.eps) == (50, 0.0)


class TestGrid:
    def test_endpoints_and_count(self):
        S, pts = build_grid(8, 0.3, 16)
        assert pts.shape == (16,) and S.shape == (8, 16)
        assert pts[0] == -0.15 and pts[-1] == pytest.approx(0.15, abs=1e-15)
        assert np.allclose(np.abs(S), 1.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            build_grid(8, 0.3, 1)


class TestUpdateY:
    def test_hand_worked_truncation(self):
        # m=2 and both residuals at modulus 2 with unit penalty: the
        # threshold is (1*4-1)/(2*1) = 3/2 and both entries shrink onto it.
        # N=4 and w=0, so the target sqrt(N) r is 2r and S^H w is 0
        r = np.array([1.0, 1.0j])
        zero = np.zeros(2, dtype=complex)
        y = update_y(np.sqrt(4) * r, zero, zero, rho1=1.0)
        assert y == pytest.approx(np.array([1.5, 1.5j]), abs=1e-15)

    def test_small_residuals_pass_through(self):
        it = random_iterates()
        c = np.sqrt(it.n) * it.r - it.S.conj().T @ it.w - it.u_bar
        alpha = max((np.abs(c).sum() - 1.0) / it.m, 0.0)
        y = update_y(np.sqrt(it.n) * it.r, it.S_h @ it.w, it.u_bar, rho1=1.0)
        passthrough = np.abs(c) <= alpha
        assert np.allclose(y[passthrough], c[passthrough], atol=0)
        assert np.all(np.abs(y) <= alpha + 1e-12)


def w_update(it, rho1, rho2):
    """update_w with the arguments the solve loop passes it."""
    v = np.sqrt(it.n) * it.r - it.u_bar - it.y
    return update_w(it.S, w_system(it.S, it.S_h), v, it.x - it.lambda_bar, rho1, rho2)


class TestUpdateW:
    def test_solves_the_normal_equations(self):
        it = random_iterates(seed=1)
        w = w_update(it, 1.0, 1.0)
        A = it.S @ it.S.conj().T + np.eye(it.n)
        rhs = it.S @ (np.sqrt(it.n) * it.r - it.u_bar - it.y) + it.x - it.lambda_bar
        assert np.abs(A @ w - rhs).max() < 1e-9

    def test_is_a_stationary_point(self):
        it = random_iterates(seed=2)
        rho1, rho2 = 1.3, 0.7
        w = w_update(it, rho1, rho2)

        def objective(v):
            t1 = it.y - np.sqrt(it.n) * it.r + it.S.conj().T @ v + it.u_bar
            t2 = v - it.x + it.lambda_bar
            return (rho1 / 2) * np.vdot(t1, t1).real + (rho2 / 2) * np.vdot(t2, t2).real

        base = objective(w)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(8):
            d = rng.normal(size=it.n) + 1j * rng.normal(size=it.n)
            d /= np.linalg.norm(d)
            slope = (objective(w + h * d) - objective(w - h * d)) / (2 * h)
            assert abs(slope) < 1e-6 * max(1.0, base)

    def test_one_eigh_per_solve(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        _, history = solve(cfg, SolverConfig(), 0.4, matched_beam(8))
        assert len(history) == 50
        assert calls == [(8, 8)]

    def test_nonfinite_system_is_a_solver_failure(self):
        it = random_iterates(seed=5)
        S = it.S.copy()
        S[0, 0] = np.nan
        with pytest.raises(RuntimeError):
            w_system(S, np.ascontiguousarray(S.conj().T))

    def test_nan_window_is_a_solver_failure(self):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        with pytest.raises(RuntimeError, match="not finite"):
            solve(cfg, SolverConfig(), float("nan"), matched_beam(8))


class TestProjections:
    def test_x_is_nearest_constant_modulus_point(self):
        it = random_iterates(seed=6)
        x = update_x(it.w, it.lambda_bar)
        assert np.abs(np.abs(x) - 1 / np.sqrt(it.n)).max() < 1e-15
        target = it.w + it.lambda_bar
        rng = np.random.default_rng(7)
        dist = np.linalg.norm(target - x)
        for _ in range(10_000):
            cand = np.exp(1j * rng.uniform(0, 2 * np.pi, it.n)) / np.sqrt(it.n)
            assert dist <= np.linalg.norm(target - cand) + 1e-12

    def test_r_aligns_with_its_argument(self):
        it = random_iterates(seed=8)
        r = update_r(it.y, it.S_h @ it.w, it.u_bar)
        v = it.y + it.S.conj().T @ it.w + it.u_bar
        assert np.allclose(np.abs(r), 1.0, atol=1e-15)
        # phase projection maximizes Re<r, v> among unit-modulus vectors
        assert np.allclose(r * np.abs(v), v, atol=1e-9)

    def test_duals_are_scaled_ascent(self):
        it = random_iterates(seed=9)
        residual = it.y - np.sqrt(it.n) * it.r + it.S.conj().T @ it.w
        u2, l2 = update_duals(it.u_bar, it.lambda_bar, residual, it.w, it.x, 1e-3, 1e-3)
        assert np.allclose(u2 - it.u_bar, 1e-3 * residual, atol=1e-15)
        assert np.allclose(l2 - it.lambda_bar, 1e-3 * (it.w - it.x), atol=1e-15)


class TestSolve:
    def cfg(self, n=16, l=32):
        return SystemConfig(f_c=140e9, B=10e9, N=n, L=l)

    def test_narrow_window_keeps_the_matched_start(self):
        # a matched beam is already optimal for windows under 2/N; the
        # best-iterate rule must hand it back untouched
        cfg = self.cfg()
        dO = divide_zones(cfg).delta_omega
        init = prv_beam(prv_plan(16, dO))
        best, history = solve(cfg, SolverConfig(), dO, init)
        assert np.abs(best.weights - init.weights).max() == 0.0
        assert len(history) == 50

    def test_wide_window_improves_on_the_start(self):
        # frozen run: N=32, L=64 leaves a window wider than 2/N where the
        # block updates genuinely help
        cfg = self.cfg(32, 64)
        dO = divide_zones(cfg).delta_omega
        assert dO == pytest.approx(0.0795066479754944, abs=1e-11)
        init = prv_beam(prv_plan(32, dO))
        _, grid = build_grid(32, dO, cfg.solver_grid_size)
        start = composite_gain(init.weights, grid).min()
        best, _ = solve(cfg, SolverConfig(), dO, init)
        got = composite_gain(best.weights, grid).min()
        assert start == pytest.approx(6.67280796753989, abs=1e-9)
        assert got == pytest.approx(9.19629529924266, abs=1e-9)

    @pytest.mark.parametrize("n, pin", [(64, 11.611552809801369),
                                        (128, 10.910906113622838),
                                        (256, 9.946374814987644)],
                             ids=["64", "128", "256"])
    def test_prototype_pin_past_n32(self, n, pin):
        # frozen runs: design quality at L=2N beyond the N=16 and N=32 pins
        cfg = self.cfg(n, 2 * n)
        dO = divide_zones(cfg).delta_omega
        _, grid = build_grid(n, dO, cfg.solver_grid_size)
        best, _ = solve(cfg, SolverConfig(), dO, prv_beam(prv_plan(n, dO)))
        got = composite_gain(best.weights, grid).min()
        assert got == pytest.approx(pin, abs=1e-8)

    @pytest.mark.parametrize("n, seed", [(16, None), (32, None), (64, None),
                                         (8, 11), (8, 12), (8, 13)])
    def test_loop_gains_agree_with_the_exp_oracle(self, n, seed):
        # the loop scores iterates by |S^H x|^2; the returned beam, rescored
        # by composite_gain, must be the best of the start and the history.
        # Random starts put window minima away from the grid edges.
        cfg = self.cfg(n, 2 * n)
        if seed is None:
            dO = divide_zones(cfg).delta_omega
            init = prv_beam(prv_plan(n, dO))
        else:
            rng = np.random.default_rng(seed)
            dO = 0.3
            init = BeamVector(np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n))
        _, grid = build_grid(n, dO, cfg.solver_grid_size)
        start = composite_gain(init.weights, grid).min()
        best, history = solve(cfg, SolverConfig(), dO, init)
        expect = max(start, max(g for _, g in history))
        got = composite_gain(best.weights, grid).min()
        assert got == pytest.approx(expect, rel=1e-12, abs=0)

    def test_never_scores_below_the_initializer(self):
        rng = np.random.default_rng(10)
        cfg = self.cfg(8, 16)
        for _ in range(5):
            w0 = BeamVector(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)) / np.sqrt(8))
            dO = 0.3
            _, grid = build_grid(8, dO, cfg.solver_grid_size)
            best, _ = solve(cfg, SolverConfig(n_ite=20), dO, w0)
            assert (composite_gain(best.weights, grid).min()
                    >= composite_gain(w0.weights, grid).min() - 1e-12)

    def test_history_and_early_stop(self):
        cfg = self.cfg(8, 16)
        best, history = solve(cfg, SolverConfig(eps=1e9), 0.3, matched_beam(8))
        assert len(history) == 1  # any residual clears a huge tolerance
        residual, gain = history[0]
        assert residual >= 0 and gain > 0

    def test_deterministic(self):
        cfg = self.cfg(8, 16)
        a, ha = solve(cfg, SolverConfig(), 0.4, matched_beam(8))
        b, hb = solve(cfg, SolverConfig(), 0.4, matched_beam(8))
        assert np.array_equal(a.weights, b.weights)
        assert ha == hb

    def test_rejects_mismatched_initializer(self):
        with pytest.raises(ValueError):
            solve(self.cfg(), SolverConfig(), 0.3, matched_beam(8))
