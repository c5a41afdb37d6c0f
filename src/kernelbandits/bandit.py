"""Exponential weights under bandit feedback with proxy features.

Each round mixes the exponential-weights distribution with a fixed
exploration design, plays one action, observes only its loss under the true
kernel, and estimates every action's loss through the inverse covariance of
the proxy features under the mixed play distribution.  The exploration design
keeps that covariance invertible: with the D-optimal design over whitened
features its smallest eigenvalue is at least gamma / m in exact arithmetic.
The floor gamma / (2m), slack for rounding, is certified from the design
alone, once per call of :func:`run_bandit` or of :func:`bandit_round`, its
one-round case, by one rule (:func:`_certify_run`), which also chooses the
estimator.  The exact smallest eigenvalue is computed, and checked against
the floor, only on the rounds it is recorded.

The estimate takes one of two paths, chosen once per run from the inputs
(see :func:`_bandit_play`).  On the covariance path a round costs about
one symmetric product, the covariance X^T X with X = sqrt(p_t) * F
(:func:`~kernelbandits.design.action_covariance`), and one m x m LU solve.
When the proxy rank m exceeds N / 2 and every design weight is at least
1 / (2m), the complement path replaces both by one k x k solve in the
k = N - m dimensional complement of the features' column space, and forms
the covariance only on the rounds its smallest eigenvalue is recorded.

:func:`_bandit_play` steps blocks of ``_LOSS_BLOCK_ROWS`` rounds on one array
of log weights.  A block makes one :func:`~kernelbandits.kernels.loss_matrix`
call, whose rows give the played losses, <p_t, l_t> and the loss totals,
and one call for its raw 64-bit draws, one per round; the player stream feeds
only the draws, so these are the bits of one draw per round.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .design import (
    DiscreteDistribution,
    action_covariance,
    d_optimal_design,
    reduce_to_span,
    whiten_features,
)
from .errors import (HorizonTooShortError, IllConditionedCovarianceError, InputError,
                     PreconditionError)
from .kernels import _LOSS_BLOCK_ROWS, AdversaryAction, KernelSpec, Schedule, loss_matrix
from .proxy import EigendecayProfile, SampleBasis, effective_dimension, proxy_features
from .rng import _inverse_cdf
from .weights import WeightState, _check_step_size, softmax

__all__ = [
    "BanditConfig",
    "BanditRecord",
    "configure_bandit",
    "general_theorem_config",
    "theorem_regret_bound",
    "bandit_round",
    "prepare_bandit_features",
    "run_bandit",
]

_MIN_EIG_EVERY = 50  # rounds 1, 51, 101, ... record the exact min eigenvalue
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class BanditConfig:
    """Schedule parameters: step size, mixing coefficient, proxy dimension,
    approximation level and horizon.  0 < gamma <= 1, eta finite and > 0,
    eps >= 0; the theorem schedules set gamma = 4 eta G^4 m."""

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
        _check_step_size(self.eta)
        if not self.eps >= 0.0:
            raise PreconditionError(f"approximation level eps = {self.eps!r}; need >= 0")


class BanditRecord(NamedTuple):
    """One round's play and estimate.

    ``loss_hat_max`` is ||l-hat_t||_inf, the largest estimated loss in
    absolute value: the regret analysis needs eta |l-hat_t(a)| <= 1, which
    the theorem schedule gamma = 4 eta G^4 m gives in exact arithmetic.
    Every round's play covariance is above the floor gamma / (2m), certified
    from the design once per call of :func:`run_bandit` or
    :func:`bandit_round`.  ``min_eig_sigma``, the exact smallest eigenvalue
    of that round's play covariance, is sampled: it is recorded, and checked
    against the floor, on rounds 1, 51, 101, ... (every ``_MIN_EIG_EVERY`` =
    50 rounds) and is None on the other rounds.
    """

    round: int
    action_index: int
    loss: float
    loss_hat_max: float
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


def _estimate_adversary(sigma: np.ndarray, phi_a: np.ndarray,
                        observed_loss: float) -> np.ndarray:
    """One-sample adversary estimate on the covariance path: observed loss
    times Sigma^-1 Phi(a), by an LU solve against the play covariance."""
    return observed_loss * np.linalg.solve(sigma, phi_a)


class _RunCertificate(NamedTuple):
    """What a run settles once, before its first draw (see :func:`_certify_run`)."""

    floor: float
    bound: float
    kw_ratio: float
    estimator: dict
    basis: np.ndarray | None


def _certify_run(config: BanditConfig, features: np.ndarray,
                 exploration: DiscreteDistribution) -> _RunCertificate:
    """Certify, from the design alone, that every round's play covariance
    has its smallest eigenvalue above the floor gamma / (2m), half the
    exact-arithmetic floor gamma / m as slack for rounding, and choose the
    run's estimator.  See :func:`_bandit_play` for the argument and for delta.

    Returns the floor; the certified lower bound gamma lambda_min(Sigma_nu) -
    delta, with lambda_min(Sigma_nu) from one ``eigvalsh``; the largest
    squared feature norm, for whitened features the Kiefer-Wolfowitz ratio;
    the estimator: the complement path when k = N - m < m and
    gamma min nu >= gamma / (2m), else the covariance path, with k and the
    certified lower bound gamma min nu on every play probability; and, on
    the complement path, an orthonormal basis Z (N x k) of null(F^T) from one
    complete QR factorization (None on the covariance path).  Raises
    IllConditionedCovarianceError carrying the bound (as ``min_eig``) and the
    floor when the bound is not above the floor.
    """
    num, m = features.shape
    floor = 0.5 * config.gamma / m
    lam_nu = float(np.linalg.eigvalsh(action_covariance(exploration.weights, features))[0])
    max_sq_norm = float(np.einsum("ij,ij->i", features, features).max())
    bound = config.gamma * lam_nu - 10.0 * (num + m) * _UNIT_ROUNDOFF * max_sq_norm
    if not bound > floor:
        raise IllConditionedCovarianceError(bound, floor)
    p_min, basis = config.gamma * float(exploration.weights.min()), None
    if num - m < m and p_min >= floor:
        basis = np.ascontiguousarray(np.linalg.qr(features, mode="complete")[0][:, m:])
    estimator = {"path": "covariance" if basis is None else "complement", "k": num - m,
                 "probability_lower_bound": p_min}
    return _RunCertificate(floor, bound, max_sq_norm, estimator, basis)


def _complement_estimate(basis: np.ndarray, p: np.ndarray, idx: int,
                         loss: float) -> np.ndarray:
    """The estimated loss of every action, loss * F Sigma^-1 Phi(a_idx),
    through the complement basis Z: (loss / p_i)(e_i - Y c) with Y = Z / p
    and c = (Z^T Y)^-1 Z^T e_i (see :func:`_bandit_play`)."""
    y = basis / p[:, None]
    v = -(y @ np.linalg.solve(basis.T @ y, basis[idx]))
    v[idx] += 1.0
    return (loss / p[idx]) * v


def _bandit_block(log_weights: np.ndarray, start: int, config: BanditConfig,
                  features: np.ndarray, exploration: DiscreteDistribution,
                  certificate: _RunCertificate, L: np.ndarray,
                  rng: np.random.Generator) -> tuple:
    """Rounds ``start`` + 1, ... on the rows of a block L of the loss matrix,
    under the run's ``certificate``: each plays p_t = (1 - gamma) softmax +
    gamma nu by the inverse-CDF rule on one raw draw, checks the sampled
    lambda_min against its floor, estimates every action's loss (through its
    complement basis, or by LU when that is None) and steps the log weights.
    Returns the played indices, their losses, <p_t, L[t]>, ||l-hat_t||_inf,
    the sampled lambda_min (else None), the log weights."""
    rows = L.shape[0]
    u = rng.bit_generator.random_raw(rows) / 2.0**64
    mix, gamma_nu = 1.0 - config.gamma, config.gamma * exploration.weights
    floor, basis, step = certificate.floor, certificate.basis, -config.eta
    idx, loss_hat = np.empty(rows, dtype=np.int64), np.empty((rows, features.shape[0]))
    min_eigs, expected = [None] * rows, np.empty(rows)
    for i in range(rows):
        p = mix * softmax(log_weights) + gamma_nu
        expected[i] = p @ L[i]
        j = idx[i] = _inverse_cdf(p, u[i])
        sampled = (start + i) % _MIN_EIG_EVERY == 0
        if basis is None or sampled:
            sigma = action_covariance(p, features)
        if sampled:
            min_eigs[i] = min_eig = float(np.linalg.eigvalsh(sigma)[0])
            if not min_eig > floor:
                raise IllConditionedCovarianceError(min_eig, floor)
        if basis is None:
            loss_hat[i] = features @ _estimate_adversary(sigma, features[j], L[i, j])
        else:
            loss_hat[i] = _complement_estimate(basis, p, j, L[i, j])
        log_weights = log_weights + step * loss_hat[i]
        if not np.isfinite(log_weights).all():
            raise InputError("log weights must be finite")
    return (idx, L[np.arange(rows), idx], expected, np.abs(loss_hat).max(axis=1),
            min_eigs, log_weights)


def bandit_round(state: WeightState, config: BanditConfig, kernel: KernelSpec,
                 actions: np.ndarray, features: np.ndarray,
                 exploration: DiscreteDistribution, w_t: AdversaryAction,
                 rng: np.random.Generator) -> tuple[WeightState, BanditRecord]:
    """One bandit round against the true kernel.

    The observed loss uses the exact kernel while the estimate lives in the
    proxy feature space; the mismatch is precisely the estimator bias the
    regret analysis charges to the approximation level.  It is the one-row
    case of the block step of :func:`run_bandit`, so a run is a fold of it:
    each call certifies the covariance floor gamma / (2m) from the design,
    before the draw, by the rule a run applies once (:func:`_certify_run`).
    So it refuses exactly the inputs a run refuses, and each call pays the
    run's certificate, on the complement path with its QR.  The record
    carries the exact smallest eigenvalue on the sampled rounds only (see
    BanditRecord).
    """
    if state.round >= config.n:
        raise PreconditionError(f"horizon {config.n} already reached")
    idx, losses, _, loss_hat_max, min_eig, log_weights = _bandit_block(
        state.log_weights, state.round, config, features, exploration,
        _certify_run(config, features, exploration),
        loss_matrix(kernel, actions, [w_t]), rng)
    return (WeightState(log_weights, state.round + 1),
            BanditRecord(state.round + 1, int(idx[0]), float(losses[0]),
                         float(loss_hat_max[0]), min_eig[0]))


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


def _bandit_play(kernel: KernelSpec, actions: np.ndarray, features: np.ndarray,
                 exploration: DiscreteDistribution, config: BanditConfig,
                 schedule: Schedule, rng: np.random.Generator,
                 certificate: _RunCertificate) -> tuple:
    """Run the full horizon from uniform initial weights, under the
    ``certificate`` of :func:`_certify_run` for these inputs.  Returns the
    played indices, their losses, <p_t, l_t>, the per-action loss totals,
    ||l-hat_t||_inf, the sampled lambda_min (else None) and the final state.

    The regret analysis telescopes from the uniform start, so q_1 is uniform
    even though exploration is mixed in from the first round.  The first
    ``config.n`` rows of ``schedule`` are played; a schedule shorter than
    the horizon eta and gamma were set for raises InputError before any
    draw.  The rounds run as block steps of ``_LOSS_BLOCK_ROWS`` rows (see
    the module docstring), one raw draw per round taken per block, so every
    output has the bits of a loop of :func:`bandit_round`.

    The covariance floor is certified once per run, before any draw, by
    :func:`_certify_run`; the rounds then run without a factorization of
    their own.  The argument: p_t = (1 - gamma) q_t +
    gamma nu, so Sigma_t = (1 - gamma) Sigma_{q_t} + gamma Sigma_nu, and
    Sigma_{q_t} is PSD, so Weyl's inequality gives
    lambda_min(Sigma_t) >= gamma lambda_min(Sigma_nu) on every round.  With
    u the unit roundoff, M = max_i ||f_i||^2, N actions and m features, the
    rounding it has to absorb is:

    - the computed p_i >= gamma nu_i (1 - 2u), since (1 - gamma) q_i >= 0;
    - :func:`~kernelbandits.design.action_covariance` forms X^T X with
      x_ik = fl(fl(sqrt(w_i)) f_ik).  Each product x_ik x_il carries four
      roundings (sqrt(w_i) twice, two scalings) before the inner product of
      N terms, so entry (k, l) is off by at most gamma_{N+4}
      sum_i w_i |f_ik| |f_il| (Higham 2002, section 3.1), and the error
      matrix by at most (N + 4) u M in spectral norm, to first order: that
      norm is at most the trace of |F|^T diag(w) |F|, which is
      sum_i w_i ||f_i||^2 <= M for weights summing to 1.  This holds both
      for Sigma_t and for the Sigma_nu handed to ``eigvalsh``;
    - ``eigvalsh`` is backward stable, within c m u M, with c taken as 10.

    To first order in u, lambda_min(computed Sigma_t) >= gamma lambda_min -
    delta for the computed lambda_min of Sigma_nu and delta = 10 (N + m) u M,
    which covers (2 (N + 4) + 2 + c m) u M = (2N + 10 + 10m) u M, because
    10 (N + m) - (2N + 10 + 10m) = 8N - 10 >= 0 for N >= 2.  At N = 1 the
    covariances have rank one, so only m = 1 can be certified (for m > 1 the
    computed lambda_min is within (5 + c m) u M < delta / gamma of 0), and
    ``eigvalsh`` of a 1 x 1 matrix returns its entry: c = 0, and
    12 u M <= 20 u M.  So gamma lambda_min - delta > gamma / (2m) certifies
    every round.  As a runtime cross-check the sampled exact lambda_min
    (rounds 1, 51, 101, ...) raises IllConditionedCovarianceError if it is
    not above the floor.

    The estimate.  Only the vector loss * F Sigma_t^-1 Phi(a_i) enters the
    weight update (i the played index, Phi(a_i) = F^T e_i, F of full column
    rank m).  Let D = diag(p_t) and let Z be an orthonormal basis of
    null(F^T), k = N - m columns.  When D is positive, D^(1/2) F and
    D^(-1/2) Z span orthogonal complements of R^N, since their cross product
    is F^T Z = 0, so the projector onto the first is
    I - D^(-1/2) Z M^-1 Z^T D^(-1/2) with M = Z^T D^-1 Z, and

        F Sigma_t^-1 F^T = D^-1 - D^-1 Z M^-1 Z^T D^-1.

    Column i gives the estimate (loss / p_i)(e_i - Y c), Y = D^-1 Z and
    c = M^-1 Z^T e_i (:func:`_complement_estimate`): one k x k solve in place
    of Sigma_t and its m x m LU.  The run takes this complement path when
    k < m (it then costs about N k^2 < N m^2 flops a round) and
    gamma min nu >= gamma / (2m); both are decided once, from the inputs.
    The weights step by the estimated losses themselves.  One complete QR,
    F = Q R, gives Z (the last k columns of Q).  Sigma_t is formed only on
    the sampled rounds.

    The second condition bounds every play probability below: as above,
    p_i >= gamma nu_i (1 - 2u) >= (gamma / 2m)(1 - 2u) > 0, so D^-1 is finite
    and no p_i underflows.  Since p_i <= 1 and Z^T Z = I, the spectrum of M
    lies in [1, 1 / min p] within [1, 2m / gamma], to first order in u: the
    amplification 1 / lambda_min <= 2m / gamma that the floor gives Sigma_t
    (for whitened features, whose norms are at most 1).  With c = 10 as
    above, the rounding it has to absorb, to first order, is:

    - the Householder QR gives Z with Z^T Z = I and F^T Z = 0 to within
      c N u (Higham 2002, section 19.3): a perturbation of the features of
      relative size c N u, the order of the roundings in Sigma_t itself;
    - Y = Z / p rounds once per entry and Z^T Y sums N terms, so M is off by
      at most gamma_{N+1} |Z|^T D^-1 |Z|, whose spectral norm is at most its
      trace, tr M <= k ||M||; the LU of M is backward stable within c k u ||M||.
      So c, with ||c|| <= ||M^-1|| <= 1, is off by at most
      (N + 1 + c) k u ||M|| <= (N + 1 + c) k u / min p;
    - Y c then carries that error times ||Y|| <= 1 / min p, plus
      gamma_k |Y| |c| <= k^(3/2) u / min p, and forming e_i - Y c and the scale
      loss / p_i add three roundings of size at most (1 + 1 / min p) u.

    Since 1 / min p >= N >= 2 and k < N, these sum to at most

        (N + 2 + c)(k + 1) u (1 / min p)^2 |loss| / p_i
            <= (N + 2 + c)(k + 1) u (2m / gamma)^2 |loss| / p_i

    in 2-norm.  The covariance path, with lam = lambda_min(Sigma_t) and
    M_F = max_i ||f_i||^2, is within
    ||F||_F ||f_i|| ((N + 4 + c m) M_F / lam^2 + (m + 1) / lam) u |loss|: the
    error (N + 4 + c m) u M_F of Sigma_t and of its LU, amplified by
    ||Sigma_t^-1||^2 ||f_i||, and the rounding of the product with F.  Both
    bounds grow with the amplification squared, (2m / gamma)^2 for whitened
    features.
    Without the floor on nu, min p is bounded only by gamma min nu, which
    can be 0, so 1 / p_j can be infinite; the covariance path stays for
    those designs, and for k >= m.
    """
    schedule = Schedule.of(schedule)
    if len(schedule) < config.n:
        raise InputError(f"schedule has {len(schedule)} rows, fewer than the "
                         f"horizon n = {config.n}")
    n = config.n
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    log_weights, totals = np.zeros(actions.shape[0]), np.zeros(actions.shape[0])
    idx, losses, expected = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    loss_hat_max, min_eigs = np.empty(n), [None] * n
    for start in range(0, n, _LOSS_BLOCK_ROWS):
        rows = slice(start, min(start + _LOSS_BLOCK_ROWS, n))
        L = loss_matrix(kernel, actions, schedule[rows])
        totals += L.sum(axis=0)
        (idx[rows], losses[rows], expected[rows], loss_hat_max[rows], min_eigs[rows],
         log_weights) = _bandit_block(log_weights, start, config, features,
                                      exploration, certificate, L, rng)
    return (idx, losses, expected, totals, loss_hat_max, min_eigs,
            WeightState(log_weights, n))


def run_bandit(kernel: KernelSpec, actions: np.ndarray, features: np.ndarray,
               exploration: DiscreteDistribution, config: BanditConfig,
               schedule: Schedule,
               rng: np.random.Generator) -> tuple[list[BanditRecord], WeightState]:
    """:func:`_bandit_play`, certified by :func:`_certify_run`, with its
    outputs as one record per round."""
    idx, losses, _, _, loss_hat_max, min_eigs, state = _bandit_play(
        kernel, actions, features, exploration, config, schedule, rng,
        _certify_run(config, features, exploration))
    records = list(map(partial(tuple.__new__, BanditRecord),
                       zip(range(1, len(idx) + 1), idx.tolist(), losses.tolist(),
                           loss_hat_max.tolist(), min_eigs)))
    return records, state
