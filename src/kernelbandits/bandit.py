"""Exponential weights under bandit feedback with proxy features.

Each round mixes the exponential-weights distribution with a fixed
exploration design, plays one action, observes only its loss under the true
kernel, and reconstructs an estimate of the adversary's proxy-feature vector
by solving against the covariance of the mixed play distribution.  The
exploration design keeps that covariance invertible: with the D-optimal
design over whitened features its smallest eigenvalue is at least gamma / m
in exact arithmetic.  Every round certifies it above gamma / (2m), slack for
rounding, by a Cholesky factorization; the exact smallest eigenvalue is
computed only on the rounds it is recorded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import (
    DiscreteDistribution,
    action_covariance,
    check_covariance_floor,
    d_optimal_design,
    reduce_to_span,
    whiten_features,
)
from .errors import HorizonTooShortError, PreconditionError
from .kernels import AdversaryAction, KernelSpec, loss_eval
from .proxy import EigendecayProfile, SampleBasis, effective_dimension, proxy_features
from .rng import sample_index
from .weights import WeightState

__all__ = [
    "BanditConfig",
    "BanditRecord",
    "configure_bandit",
    "general_theorem_config",
    "theorem_regret_bound",
    "estimate_adversary",
    "bandit_round",
    "prepare_bandit_features",
    "run_bandit",
]

_MIN_EIG_EVERY = 50  # rounds 1, 51, 101, ... record the exact min eigenvalue


@dataclass(frozen=True)
class BanditConfig:
    """Schedule parameters: step size, mixing coefficient, proxy dimension,
    approximation level and horizon.  0 < gamma <= 1; the theorem schedules
    set gamma = 4 eta G^4 m."""

    eta: float
    gamma: float
    m: int
    eps: float
    n: int

    def __post_init__(self):
        if self.gamma > 1.0:
            raise HorizonTooShortError(
                f"mixing coefficient gamma = {self.gamma:.6g} exceeds 1; "
                f"increase the horizon n (currently {self.n})")
        if not self.gamma > 0.0:
            raise PreconditionError(f"mixing coefficient gamma = {self.gamma!r}; need > 0")


@dataclass(frozen=True)
class BanditRecord:
    """One round's play and estimate.

    The covariance floor gamma / (2m) is certified on every round.
    ``min_eig_sigma``, the exact smallest eigenvalue of that round's play
    covariance, is sampled: it is recorded on rounds 1, 51, 101, ... (every
    ``_MIN_EIG_EVERY`` = 50 rounds) and is None on the other rounds.
    """

    round: int
    action_index: int
    loss: float
    w_hat: np.ndarray
    min_eig_sigma: float | None


def _make_config(eta: float, m: int, eps: float, n: int, G: float) -> BanditConfig:
    return BanditConfig(eta=eta, gamma=4.0 * eta * G**4 * m, m=m, eps=eps, n=n)


def configure_bandit(profile: EigendecayProfile, n: int, num_actions: int,
                     G: float = 1.0) -> BanditConfig:
    """Parameter schedule from the eigendecay corollary.

    eps = log|A| / (2n), m from the decay profile, eta = sqrt(eps / (10 m)),
    gamma = 4 eta G^4 m.
    """
    if n < 2 or num_actions < 2:
        raise PreconditionError("need n >= 2 and at least 2 actions")
    eps = math.log(num_actions) / (2.0 * n)
    if eps > G * G:
        raise PreconditionError(
            f"eps = {eps:.6g} exceeds G^2 = {G * G:.6g}; increase n"
        )
    m = effective_dimension(profile, eps)
    eta = math.sqrt(eps / (10.0 * m))
    return _make_config(eta, m, eps, n, G)


def general_theorem_config(num_actions: int, n: int, G: float, m: int,
                           eps: float = 0.0) -> BanditConfig:
    """Schedule minimizing the general regret bound in eta.

    The theorem fixes gamma = 4 eta G^4 m but leaves eta free; the
    eta-dependent bound terms are
    eta * (16 G^6 + (e-2) G^4) m n + (log|A| + 2 eps n / G^2) / eta.
    """
    if n < 2 or num_actions < 2:
        raise PreconditionError("need n >= 2 and at least 2 actions")
    if eps > G * G:
        raise PreconditionError(f"eps = {eps:.6g} exceeds G^2 = {G * G:.6g}")
    numer = math.log(num_actions) + 2.0 * eps * n / (G * G)
    denom = m * n * (16.0 * G**6 + (math.e - 2.0) * G**4)
    eta = math.sqrt(numer / denom)
    return _make_config(eta, m, eps, n, G)


def theorem_regret_bound(config: BanditConfig, G: float, num_actions: int) -> float:
    """Regret guarantee evaluated at the configured parameters."""
    return (4.0 * config.gamma * G * G * config.n
            + (math.e - 2.0) * G**4 * config.eta * config.m * config.n
            + 2.0 * config.eps * config.n
            + 2.0 * config.eps * config.n / (G * G * config.eta)
            + math.log(num_actions) / config.eta)


def estimate_adversary(sigma: np.ndarray, phi_a: np.ndarray,
                       observed_loss: float) -> np.ndarray:
    """One-sample adversary estimate: observed loss times Sigma^-1 Phi(a),
    by a linear solve against the play covariance Sigma."""
    return observed_loss * np.linalg.solve(sigma, phi_a)


def bandit_round(state: WeightState, config: BanditConfig, kernel: KernelSpec,
                 actions: np.ndarray, features: np.ndarray,
                 exploration: DiscreteDistribution, w_t: AdversaryAction,
                 rng: np.random.Generator) -> tuple[WeightState, BanditRecord]:
    """One bandit round against the true kernel.

    The observed loss uses the exact kernel while the estimate lives in the
    proxy feature space; the mismatch is precisely the estimator bias the
    regret analysis charges to the approximation level.  The covariance floor
    is gamma / (2m), not the exact gamma / m, as slack for rounding; it is
    checked by Cholesky on every round, and the record carries the exact
    smallest eigenvalue on the sampled rounds only (see BanditRecord).
    """
    if state.round >= config.n:
        raise PreconditionError(f"horizon {config.n} already reached")
    q = state.probabilities()
    p = (1.0 - config.gamma) * q + config.gamma * exploration.weights
    idx = sample_index(p, rng)
    loss = loss_eval(kernel, actions[idx], w_t)

    sigma = action_covariance(p, features)
    check_covariance_floor(sigma, 0.5 * config.gamma / features.shape[1])
    min_eig = (float(np.linalg.eigvalsh(sigma)[0])
               if state.round % _MIN_EIG_EVERY == 0 else None)

    w_hat = estimate_adversary(sigma, features[idx], loss)
    new_state = state.stepped(-config.eta * (features @ w_hat))
    record = BanditRecord(state.round + 1, idx, float(loss), w_hat, min_eig)
    return new_state, record


def prepare_bandit_features(basis: SampleBasis, actions: np.ndarray):
    """Proxy features of the action set, rank-reduced and whitened.

    Rank-deficient feature sets are projected onto their span (reducing m).
    Whitening by the D-optimal design covariance changes nothing about the
    algorithm's draws (the estimated losses are invariant under invertible
    linear maps of the features) but pins the gamma/m eigenvalue floor.
    Returns (features, exploration design, centering offset diagnostic).
    """
    F = proxy_features(basis, actions)
    reduced, _ = reduce_to_span(F)
    if reduced.shape[1] < F.shape[1]:
        warnings.warn(
            f"proxy features span only {reduced.shape[1]} of {F.shape[1]} "
            "dimensions; m reduced to the actual rank",
            stacklevel=2,
        )
        F = reduced
    nu = d_optimal_design(F)
    F = whiten_features(F, nu)
    center_offset = float(np.linalg.norm(F.T @ nu.weights))
    return F, nu, center_offset


def run_bandit(kernel: KernelSpec, actions: np.ndarray, features: np.ndarray,
               exploration: DiscreteDistribution, config: BanditConfig,
               schedule: list[AdversaryAction],
               rng: np.random.Generator) -> tuple[list[BanditRecord], WeightState]:
    """Run the full horizon from uniform initial weights.

    The regret analysis telescopes from the uniform start, so q_1 is uniform
    even though exploration is mixed in from the first round.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    state = WeightState.uniform(actions.shape[0])
    records = []
    for w_t in schedule[: config.n]:
        state, rec = bandit_round(state, config, kernel, actions, features,
                                  exploration, w_t, rng)
        records.append(rec)
    return records, state

