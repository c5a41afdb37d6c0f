"""Reference solvers the tests compare the learners against.

``ftrl_oracle`` minimizes the follow-the-regularized-leader potential over
the hull of the embedded actions; the conditional-gradient analysis bounds
the gap between CG's iterate and that minimizer.  ``d_optimal_design_exact``
is the D-optimal design loop that re-forms and inverts the covariance on
every step and reads the leverages off the whole N x N matrix
F Sigma^-1 F^T, the reference for the log-barrier Newton steps of
``design.d_optimal_design``.  ``gram_basis_oracle`` is the proxy basis
from one eigh of the whole p x p sample Gram, one row per draw, the
reference for the distinct-sample basis of ``proxy.basis_from_samples``.
``ew_fold_oracle`` is exponential weights as
a plain per-round loop with scalar draws (``scalar_inverse_cdf``), the
reference for the blocked pass of ``fullinfo.full_info_ew_play``;
``bandit_fold_oracle`` is the bandit written from the paper's algorithm,
one round at a time with an explicit play covariance and a dense solve, the
reference for the block step of ``bandit._bandit_play``;
``sample_index`` is one draw per call, ``rng.sample_indices`` on one row,
the reference for the learners' blocks of raw draws, and ``FixedBits`` a
stand-in generator that repeats one raw value, such as the top patterns
where u rounds to 1.0; ``cg_fold_round`` is a self-contained
conditional-gradient round over dense weights on the atom table that
embeds everything it uses, the reference for the blocked pass of
``fullinfo.run_cg``.  ``kernel_schedules`` builds the rank-one and
explicit adversary schedules that the bit-identity tests of the loss
matrix, exponential weights and conditional gradient run on.
``fibonacci_sphere`` is the benchmark's Fibonacci lattice on the sphere,
unrotated, for tests at the benchmark's shapes.  ``listed_schedule`` is the
former list materialize of the harness adversaries, one action object per
round, the reference for the rows of their array schedules.  ``adversary_feature`` embeds one adversary action,
``mean_feature`` the feature-space mean of a convex combination, and
``min_oracle`` extends ``fullinfo.linear_min_oracle`` to finite sets by
enumeration.  ``kernel_eval`` and ``loss_eval`` are the scalar kernel and
loss, each kernel's formula written out for one pair of points, the
reference for the vectorized ``kernels.cross_gram`` and
``kernels.loss_matrix``.  None of this is part of the learners themselves.
"""

from __future__ import annotations

import math

import numpy as np

from kernelbandits import bandit, design, proxy
from kernelbandits.design import DiscreteDistribution
from kernelbandits.errors import (
    InputError,
    InvalidCombinationError,
    RankDeficiencyError,
    ToleranceNotMetError,
)
from kernelbandits.fullinfo import (
    _ATOM_PRUNE,
    CGConfig,
    CGRecord,
    CGState,
    ConvexCombination,
    UnitBall,
    cg_round,
    cg_start,
    linear_min_oracle,
)
from kernelbandits.harness import PeriodicAdversary, ScheduleAdversary
from kernelbandits.kernels import (
    ExplicitVector,
    KernelSpec,
    RankOne,
    _kernel_of_pairs,
    feature_map,
    feature_matrix,
    gram_matrix,
    has_feature_map,
    loss_matrix,
    make_explicit,
    make_rank_one,
)
from kernelbandits.proxy import SampleBasis
from kernelbandits.rng import component_rng, sample_indices

# kernels with every loss path: explicit maps (linear, quadratic, cubic) and
# the rank-one-only Gaussian
BIT_KERNELS = (KernelSpec.linear(G=1.0), KernelSpec.quadratic(G=2.0),
               KernelSpec.gaussian(0.5), KernelSpec.polynomial(3, 1.0, G=3.0))


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """K(x, y).  Symmetric in its arguments by construction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.variant == "linear":
        return float(x @ y)
    if spec.variant == "quadratic":
        s = float(x @ y)
        return s * s + s
    if spec.variant == "gaussian":
        diff = x - y
        return float(np.exp(-(diff @ diff) / (2.0 * spec.sigma**2)))
    s = float(x @ y)
    return (spec.offset + s) ** spec.degree


def loss_eval(spec: KernelSpec, a: np.ndarray, w) -> float:
    """Loss of playing a against adversary action w: <Phi(a), w>."""
    a = np.asarray(a, dtype=float)
    if isinstance(w, RankOne):
        return kernel_eval(spec, a, w.y)
    if not has_feature_map(spec):
        raise InvalidCombinationError(
            f"explicit adversary vector is invalid for the {spec.variant} kernel"
        )
    return float(feature_map(spec, a) @ w.w)


def adversary_feature(spec: KernelSpec, w) -> np.ndarray:
    """Adversary action as a vector in the explicit feature space."""
    if isinstance(w, ExplicitVector):
        return np.asarray(w.w, dtype=float)
    return feature_map(spec, w.y)


def mean_feature(kernel: KernelSpec, combo: ConvexCombination) -> np.ndarray:
    """sum_i w_i Phi(atom_i), embedding every atom afresh."""
    return feature_matrix(kernel, combo.atoms).T @ combo.weights


def min_oracle(kernel: KernelSpec, gradient: np.ndarray, action_set) -> np.ndarray:
    """Global minimizer of <gradient, Phi(a)>: ``linear_min_oracle`` on the
    unit ball, enumeration of a fresh embedding on a finite set (ties to the
    lowest index)."""
    if isinstance(action_set, UnitBall):
        return linear_min_oracle(kernel, gradient, action_set)
    actions = np.atleast_2d(np.asarray(action_set, dtype=float))
    values = feature_matrix(kernel, actions) @ np.asarray(gradient, dtype=float)
    return actions[int(np.argmin(values))]


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
    x_star = mean_feature(kernel, star)
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


def d_optimal_design_exact(features, tol: float = 1e-6) -> DiscreteDistribution:
    """``design.d_optimal_design`` with Sigma, its inverse and the whole
    leverage matrix G = F Sigma^-1 F^T re-formed from scratch on every step:
    Newton steps on log det Sigma + mu sum_i log w_i over the simplex, at
    mu = 0 from the uniform start while n <= m (m + 1) / 2, up to the first
    refused one, then on the barrier from mu = 1, divided by 5 after each
    step taken whole or refused."""
    F = np.atleast_2d(np.asarray(features, dtype=float))
    n, m = F.shape
    rank = np.linalg.matrix_rank(F)
    if rank < m:
        raise RankDeficiencyError(rank, m)

    def objective(v, mu):
        return np.linalg.slogdet(F.T @ (F * v[:, None]))[1] + mu * np.log(v).sum()

    w = np.full(n, 1.0 / n)
    mu = 0.0 if n <= m * (m + 1) // 2 else design._BARRIER_START
    for it in range(design._DESIGN_MAX_ITER + 1):
        sigma = F.T @ (F * w[:, None])
        G = F @ np.linalg.inv(sigma) @ F.T
        g = np.diag(G).copy()  # f^T S^-1 f
        gap = g.max() / m - 1.0
        if gap <= tol:
            return DiscreteDistribution(w)
        if it == design._DESIGN_MAX_ITER:
            raise ToleranceNotMetError(gap, tol, design._DESIGN_MAX_ITER)
        # maximize (g + mu/w)^T d - d^T (G o G + mu diag(w^-2)) d / 2 subject
        # to sum d = 0.  At mu = 0 keep the whole step only if every weight
        # stays positive and log det does not fall; at mu > 0 start at most
        # 0.99 of the way to the boundary and halve the step until the
        # objective rises by a quarter of its slope times the step
        grad = g + mu / w
        taken = 0.0
        try:
            a, b = np.linalg.solve(G * G + np.diag(mu / w**2),
                                   np.column_stack((grad, np.ones(n)))).T
        except np.linalg.LinAlgError:
            a = b = None
        if a is not None:
            d = a - a.sum() / b.sum() * b
            t = 1.0
            if mu and (d < 0).any():
                t = min(1.0, 0.99 * np.min(-w[d < 0] / d[d < 0]))
            slope = float(grad @ d) if mu else 0.0
            for _ in range(60 if mu else 1):
                stepped = w + t * d
                if stepped.min() > 0.0:
                    stepped /= stepped.sum()
                    after = np.linalg.slogdet(F.T @ (F * stepped[:, None]))
                    if (after[0] > 0
                            and objective(stepped, mu) - objective(w, mu) >= 0.25 * t * slope):
                        w, taken = stepped, t
                        break
                t *= 0.5
        if taken == 0.0 or (mu and taken == 1.0):
            mu = mu / design._BARRIER_SHRINK if mu else design._BARRIER_START


def gram_basis_oracle(kernel: KernelSpec, samples: np.ndarray,
                      m: int | None = None) -> SampleBasis:
    """``proxy.basis_from_samples`` by one eigh of the whole p x p scaled
    Gram, repeated samples and all, with the same eigenvalue floor (no
    warning, no error on an empty spectrum)."""
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    p = pts.shape[0]
    vals, vecs = np.linalg.eigh(gram_matrix(kernel, pts) * (1.0 / p))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    observed = int((vals > proxy._EIG_FLOOR_REL * max(vals[0], 0.0)).sum())
    k = observed if m is None else min(m, observed)
    return SampleBasis(pts, vecs[:, :k].T, vals[:k], np.sqrt(p * vals[:k]), kernel)


def fibonacci_sphere(num: int) -> np.ndarray:
    """num Fibonacci-lattice points on the unit sphere in R^3."""
    i = np.arange(num) + 0.5
    z = 1.0 - 2.0 * i / num
    r = np.sqrt(1.0 - z * z)
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def kernel_schedules(spec: KernelSpec, d: int, n: int, seed: int) -> dict:
    """Seeded schedules of n adversary actions for points in R^d, by kind:
    "rank_one" (unit points) and, when the kernel has a feature map,
    "explicit" (feature vectors of norm G / 2)."""
    rng = component_rng(seed, f"schedules-{spec.variant}")
    Y = rng.standard_normal((n, d))
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    out = {"rank_one": [make_rank_one(spec, y) for y in Y]}
    if has_feature_map(spec):
        W = rng.standard_normal((n, feature_map(spec, np.zeros(d)).size))
        W *= 0.5 * spec.norm_bound_G / np.linalg.norm(W, axis=1)[:, None]
        out["explicit"] = [make_explicit(spec, w) for w in W]
    return out


def listed_schedule(adversary, n: int, rng: np.random.Generator) -> list:
    """A harness adversary's schedule as the list of n action objects it
    materialized before schedules were arrays: the periodic adversary's
    actions in turn, the explicit adversary's first n actions, or the
    i.i.d. unit-vector adversary's one (n, d) Gaussian draw with each row
    over its norm."""
    if isinstance(adversary, PeriodicAdversary):
        return [adversary.actions[t % len(adversary.actions)] for t in range(n)]
    if isinstance(adversary, ScheduleAdversary):
        if len(adversary.schedule) < n:
            raise InputError(f"schedule has {len(adversary.schedule)} < n = {n} actions")
        return list(adversary.schedule[:n])
    V = rng.standard_normal((n, adversary.d))
    norms = np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])
    for t in np.flatnonzero(norms == 0.0):
        while norms[t] == 0.0:
            V[t] = rng.standard_normal(adversary.d)
            norms[t] = np.linalg.norm(V[t])
    return [RankOne(v) for v in V / norms[:, None]]


class FixedBits:
    """Stand-in generator whose raw stream repeats one 64-bit value."""

    def __init__(self, value):
        self.bit_generator = self
        self.value = np.uint64(value)

    def random_raw(self, size):
        return np.full(size, self.value, dtype=np.uint64)


def sample_index(weights, rng: np.random.Generator) -> int:
    """One inverse-CDF draw, taking one raw output of the stream:
    ``sample_indices`` on a single row."""
    return int(sample_indices(weights, rng))


def scalar_inverse_cdf(weights, bits) -> int:
    """The inverse-CDF rule for one draw: u = bits / 2^64 by Python's
    int -> float, then searchsorted on the running sum, capped at the last
    index of positive weight."""
    u = int(bits) / 2.0**64
    cum = np.cumsum(weights)
    last = int(np.flatnonzero(np.asarray(weights) > 0)[-1])
    return min(int(np.searchsorted(cum, u * cum[-1], side="right")), last)


def ew_fold_oracle(kernel: KernelSpec, actions, schedule, eta: float,
                   rng: np.random.Generator):
    """Exponential weights one round at a time: a scalar 64-bit draw through
    :func:`scalar_inverse_cdf` on the softmax, and a sequential add of -eta
    times the round's losses.  Returns (indices, losses, expected losses,
    final log weights)."""
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    log_weights = np.zeros(actions.shape[0])
    idx, losses, expected = [], [], []
    for w in schedule:
        ell = loss_matrix(kernel, actions, [w])[0]
        shifted = np.exp(log_weights - log_weights.max())
        probs = shifted / shifted.sum()
        i = scalar_inverse_cdf(probs, rng.integers(0, 2**64, dtype=np.uint64))
        idx.append(i)
        losses.append(ell[i])
        expected.append(float(probs @ ell))
        log_weights = log_weights + -eta * ell
    return np.array(idx, dtype=np.int64), np.array(losses), np.array(expected), log_weights


def bandit_fold_oracle(kernel: KernelSpec, actions, features: np.ndarray,
                       exploration: DiscreteDistribution, config,
                       schedule, rng: np.random.Generator):
    """The bandit of the paper, one round at a time, over the first
    ``config.n`` rows of ``schedule``: p_t = (1 - gamma) softmax(log weights)
    + gamma nu, a scalar 64-bit draw through :func:`scalar_inverse_cdf`, the
    observed loss L[t, i], the play covariance Sigma_t = sum_j p_j f_j f_j^T
    formed explicitly, the estimate l-hat_t = L[t, i] F Sigma_t^-1 f_i by
    ``np.linalg.solve`` and the step of every log weight by -eta l-hat_t.
    The run's certificate is taken first, so it refuses what a run refuses.
    Returns (indices, losses, expected losses <p_t, l_t>, ||l-hat_t||_inf,
    final log weights)."""
    bandit._certify_run(config, features, exploration)
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    log_weights = np.zeros(actions.shape[0])
    idx, losses, expected, loss_hat_max = [], [], [], []
    for _, w in zip(range(config.n), schedule):
        ell = loss_matrix(kernel, actions, [w])[0]
        shifted = np.exp(log_weights - log_weights.max())
        p = (1.0 - config.gamma) * shifted / shifted.sum() + config.gamma * exploration.weights
        i = scalar_inverse_cdf(p, rng.integers(0, 2**64, dtype=np.uint64))
        sigma = features.T @ (p[:, None] * features)
        loss_hat = ell[i] * (features @ np.linalg.solve(sigma, features[i]))
        idx.append(i)
        losses.append(ell[i])
        expected.append(float(p @ ell))
        loss_hat_max.append(float(np.abs(loss_hat).max()))
        log_weights = log_weights - config.eta * loss_hat
    return (np.array(idx, dtype=np.int64), np.array(losses), np.array(expected),
            np.array(loss_hat_max), log_weights)


def _lowest_equal_row(table: np.ndarray, point: np.ndarray) -> int:
    rows = np.flatnonzero((table == point).all(axis=1))
    if not rows.size:
        raise InputError("a start atom is not a row of the action set")
    return int(rows[0])


def cg_fold_round(state: CGState, config: CGConfig, kernel: KernelSpec,
                  action_set, w_t, rng: np.random.Generator) -> tuple[CGState, CGRecord]:
    """One conditional-gradient round as a self-contained step over dense
    weights on the atom table: a finite set's rows, each atom of the
    combination moved onto its lowest equal row, or on the unit ball the
    combination's atoms plus one appended row for the oracle's output.  A
    scalar draw over the weights up to the last positive one, a per-round
    embedding of the action set for the oracle, of the new atom and of the
    adversary action, and a validated combination."""
    t = state.t
    if isinstance(action_set, UnitBall):
        table, weights = state.combo.atoms, state.combo.weights
    else:
        table = np.atleast_2d(np.asarray(action_set, dtype=float))
        weights = np.zeros(table.shape[0])
        for atom, w in zip(state.combo.atoms, state.combo.weights):
            weights[_lowest_equal_row(table, atom)] += w
    idx = sample_index(weights[: np.flatnonzero(weights)[-1] + 1], rng)
    a_t = table[idx]
    loss = (_kernel_of_pairs(kernel, a_t[None], w_t.y[None])[0] if isinstance(w_t, RankOne)
            else loss_eval(kernel, a_t, w_t))

    gradient = config.eta * state.cum_adversary + 2.0 * (state.mean - state.x1)
    v_t = min_oracle(kernel, gradient, action_set)
    gamma_t = min(1.0, config.c / math.sqrt(t))
    if isinstance(action_set, UnitBall):
        table, weights = np.vstack([table, v_t[None, :]]), np.append(weights, 0.0)
        j = table.shape[0] - 1
    else:
        j = _lowest_equal_row(table, v_t)

    weights = (1.0 - gamma_t) * weights
    weights[j] += gamma_t
    weights[weights < _ATOM_PRUNE] = 0.0
    combo = ConvexCombination(table, weights / weights.sum())

    mean = (1.0 - gamma_t) * state.mean + gamma_t * feature_map(kernel, v_t)
    cum = state.cum_adversary + adversary_feature(kernel, w_t)
    new_state = CGState(combo, mean, cum, state.x1, t + 1)
    record = CGRecord(t, idx, float(loss), num_atoms=int(np.count_nonzero(combo.weights)))
    return new_state, record
