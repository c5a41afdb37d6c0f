"""Reference solvers the tests compare the learners against.

``ftrl_oracle`` minimizes the follow-the-regularized-leader potential over
the hull of the embedded actions; the conditional-gradient analysis bounds
the gap between CG's iterate and that minimizer.  None of this is part of
the learners themselves.
"""

from __future__ import annotations

import numpy as np

from kernelbandits.errors import ToleranceNotMetError
from kernelbandits.fullinfo import (
    CGConfig,
    CGRecord,
    CGState,
    ConvexCombination,
    cg_round,
    cg_start,
)
from kernelbandits.kernels import KernelSpec, adversary_feature, feature_matrix


def ftrl_oracle(history, eta: float, kernel: KernelSpec, actions,
                tol: float = 1e-8, max_iter: int = 100_000,
                init_weights: np.ndarray | None = None) -> ConvexCombination:
    """Minimize eta <sum w_s, X> + <X, X> over the hull of the embedded
    actions, by Frank-Wolfe with away steps over the simplex.

    ``history`` entries may be feature-space vectors or adversary actions.
    Raises when the duality gap has not reached ``tol`` within the cap.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    A = feature_matrix(kernel, actions)        # (N, D) atom features
    g = np.zeros(A.shape[1])
    for w in history:
        g = g + (adversary_feature(kernel, w) if not isinstance(w, np.ndarray)
                 else np.asarray(w, dtype=float))
    n = actions.shape[0]
    lam = (np.full(n, 1.0 / n) if init_weights is None
           else np.asarray(init_weights, dtype=float).copy())
    X = A.T @ lam
    gap = np.inf
    for _ in range(max_iter):
        grad = A @ (eta * g + 2.0 * X)
        s = int(np.argmin(grad))
        gap = float(grad @ lam - grad[s])
        if gap <= tol:
            return ConvexCombination(actions, lam)
        support = lam > 0
        v = int(np.argmax(np.where(support, grad, -np.inf)))
        fw_slope = grad[s] - float(grad @ lam)
        away_slope = float(grad @ lam) - grad[v]
        if fw_slope <= away_slope:
            direction = -lam.copy()
            direction[s] += 1.0
            step_max = 1.0
        else:
            direction = lam.copy()
            direction[v] -= 1.0
            step_max = lam[v] / (1.0 - lam[v]) if lam[v] < 1.0 else 0.0
        dX = A.T @ direction
        curv = float(dX @ dX)
        slope = float(grad @ direction)
        if curv <= 0 or step_max <= 0:
            step = step_max if slope < 0 else 0.0
        else:
            step = min(max(-slope / (2.0 * curv), 0.0), step_max)
        if step <= 0:
            break
        lam = lam + step * direction
        np.maximum(lam, 0.0, out=lam)
        lam /= lam.sum()
        X = A.T @ lam
    grad = A @ (eta * g + 2.0 * X)
    gap = float(grad @ lam - grad.min())
    if gap <= tol:
        return ConvexCombination(actions, lam)
    raise ToleranceNotMetError(gap, tol, max_iter)


def _potential(state: CGState, config: CGConfig, X: np.ndarray) -> float:
    diff = X - state.x1
    return float(config.eta * state.cum_adversary @ X + diff @ diff)


def _iterate_gap(state: CGState, config: CGConfig, kernel: KernelSpec,
                 actions, tol: float, warm):
    # F_t differs from the FTRL objective by the linear term -2 <x1, X>,
    # folded in here as a pseudo adversary action.
    history = [state.cum_adversary - 0.0, -2.0 * state.x1 / config.eta]
    star = ftrl_oracle(history, config.eta, kernel, actions, tol,
                       init_weights=warm)
    x_star = star.mean_feature(kernel)
    gap = _potential(state, config, state.mean) - _potential(state, config, x_star)
    return gap, star.weights


def run_cg_with_gaps(kernel: KernelSpec, actions, schedule, config: CGConfig,
                     rng: np.random.Generator, tol: float) -> list[tuple[CGRecord, float]]:
    """``run_cg`` on a finite action set, started at its first row, pairing
    each round's record with the gap of the iterate played that round against
    the FTRL minimizer of the same potential, solved to ``tol``."""
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    state = cg_start(kernel, actions[0])
    pairs = []
    warm = None
    for w_t in schedule:
        gap, warm = _iterate_gap(state, config, kernel, actions, tol, warm)
        state, rec = cg_round(state, config, kernel, actions, w_t, rng)
        pairs.append((rec, gap))
    return pairs
