"""Exponential weights under bandit feedback with proxy features.

Each round mixes the exponential-weights distribution with a fixed
exploration design, plays one action, observes only its loss under the true
kernel, and reconstructs an estimate of the adversary's proxy-feature vector
by solving against the covariance of the mixed play distribution.  The
exploration design keeps that covariance invertible: with the D-optimal
design over whitened features its smallest eigenvalue is at least gamma / m
in exact arithmetic.  :func:`run_bandit` certifies the floor gamma / (2m),
slack for rounding, once per run from the design alone
(:func:`certify_covariance_floor`); :func:`bandit_round`, the one-round entry,
checks its own round's covariance by a Cholesky factorization.  The exact
smallest eigenvalue is computed, and checked against the floor, only on the
rounds it is recorded.
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
from .errors import HorizonTooShortError, IllConditionedCovarianceError, PreconditionError
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
    "certify_covariance_floor",
    "prepare_bandit_features",
    "run_bandit",
]

_MIN_EIG_EVERY = 50  # rounds 1, 51, 101, ... record the exact min eigenvalue
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


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

    Every round's play covariance is above the floor gamma / (2m): certified
    for the whole run by :func:`run_bandit`, or for the one round by
    :func:`bandit_round`.  ``min_eig_sigma``, the exact smallest eigenvalue
    of that round's play covariance, is sampled: it is recorded, and checked
    against the floor, on rounds 1, 51, 101, ... (every ``_MIN_EIG_EVERY`` =
    50 rounds) and is None on the other rounds.
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


def _covariance_floor(config: BanditConfig, features: np.ndarray) -> float:
    """gamma / (2m): half the exact-arithmetic floor gamma / m, as slack for
    rounding."""
    return 0.5 * config.gamma / features.shape[1]


def certify_covariance_floor(config: BanditConfig, features: np.ndarray,
                             exploration: DiscreteDistribution) -> tuple[float, float]:
    """Certify, from the design alone, that every round's play covariance
    has its smallest eigenvalue above the floor gamma / (2m).

    Returns (floor, certified lower bound gamma lambda_min(Sigma_nu) - delta)
    with lambda_min(Sigma_nu) from one ``eigvalsh``, or raises
    IllConditionedCovarianceError carrying that bound (as ``min_eig``) and
    the floor.  See :func:`run_bandit` for the argument and for delta.
    """
    num, m = features.shape
    floor = _covariance_floor(config, features)
    lam_nu = float(np.linalg.eigvalsh(action_covariance(exploration.weights, features))[0])
    max_sq_norm = float(np.einsum("ij,ij->i", features, features).max())
    delta = 10.0 * (num + m) * _UNIT_ROUNDOFF * max_sq_norm
    bound = config.gamma * lam_nu - delta
    if not bound > floor:
        raise IllConditionedCovarianceError(bound, floor)
    return floor, bound


def _play_covariance(state: WeightState, config: BanditConfig,
                     exploration: DiscreteDistribution,
                     features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The play distribution p_t = (1 - gamma) q_t + gamma nu and its
    covariance Sigma_t."""
    p = (1.0 - config.gamma) * state.probabilities() + config.gamma * exploration.weights
    return p, action_covariance(p, features)


def _play_round(state: WeightState, config: BanditConfig, kernel: KernelSpec,
                actions: np.ndarray, features: np.ndarray, p: np.ndarray,
                sigma: np.ndarray, w_t: AdversaryAction,
                rng: np.random.Generator) -> tuple[WeightState, BanditRecord]:
    """A round whose covariance floor is certified: draw, observe, sample
    lambda_min, estimate, step and record."""
    idx = sample_index(p, rng)
    loss = loss_eval(kernel, actions[idx], w_t)
    min_eig = None
    if state.round % _MIN_EIG_EVERY == 0:
        min_eig = float(np.linalg.eigvalsh(sigma)[0])
        floor = _covariance_floor(config, features)
        if not min_eig > floor:
            raise IllConditionedCovarianceError(min_eig, floor)
    w_hat = estimate_adversary(sigma, features[idx], loss)
    new_state = state.stepped(-config.eta * (features @ w_hat))
    return new_state, BanditRecord(state.round + 1, idx, float(loss), w_hat, min_eig)


def bandit_round(state: WeightState, config: BanditConfig, kernel: KernelSpec,
                 actions: np.ndarray, features: np.ndarray,
                 exploration: DiscreteDistribution, w_t: AdversaryAction,
                 rng: np.random.Generator) -> tuple[WeightState, BanditRecord]:
    """One bandit round against the true kernel.

    The observed loss uses the exact kernel while the estimate lives in the
    proxy feature space; the mismatch is precisely the estimator bias the
    regret analysis charges to the approximation level.  This entry takes
    any features and design, so it checks its own round: the covariance
    floor gamma / (2m), not the exact gamma / m, as slack for rounding, by a
    Cholesky factorization before the draw.  The record carries the exact
    smallest eigenvalue on the sampled rounds only (see BanditRecord).
    """
    if state.round >= config.n:
        raise PreconditionError(f"horizon {config.n} already reached")
    p, sigma = _play_covariance(state, config, exploration, features)
    check_covariance_floor(sigma, _covariance_floor(config, features))
    return _play_round(state, config, kernel, actions, features, p, sigma, w_t, rng)


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

    The covariance floor is certified once, before any draw, by
    :func:`certify_covariance_floor`; the rounds then run without a
    factorization of their own.  The argument: p_t = (1 - gamma) q_t +
    gamma nu, so Sigma_t = (1 - gamma) Sigma_{q_t} + gamma Sigma_nu, and
    Sigma_{q_t} is PSD, so Weyl's inequality gives
    lambda_min(Sigma_t) >= gamma lambda_min(Sigma_nu) on every round.  With
    u the unit roundoff, M = max_i ||f_i||^2, N actions and m features, the
    rounding it has to absorb is:

    - the computed p_i >= gamma nu_i (1 - 2u), since (1 - gamma) q_i >= 0;
    - forming a covariance from weights summing to 1 moves it by at most
      (N + 3) u M in spectral norm (a product of N terms and a
      symmetrization, bounded by the trace of |F|^T diag(w) |F|), both for
      Sigma_t and for the Sigma_nu handed to ``eigvalsh``;
    - ``eigvalsh`` is backward stable, within c m u M, with c taken as 10.

    To first order in u, lambda_min(computed Sigma_t) >= gamma lambda_min -
    delta for the computed lambda_min of Sigma_nu and delta = 10 (N + m) u M,
    which covers (2N + 8 + c m) u M.  So gamma lambda_min - delta >
    gamma / (2m) certifies every round.  As a runtime cross-check the
    sampled exact lambda_min (rounds 1, 51, 101, ...) raises
    IllConditionedCovarianceError if it is not above the floor.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    certify_covariance_floor(config, features, exploration)
    state = WeightState.uniform(actions.shape[0])
    records = []
    for w_t in schedule[: config.n]:
        p, sigma = _play_covariance(state, config, exploration, features)
        state, rec = _play_round(state, config, kernel, actions, features, p, sigma,
                                 w_t, rng)
        records.append(rec)
    return records, state
