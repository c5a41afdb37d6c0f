"""Exploration designs and covariance machinery.

The exploration distribution is the D-optimal design over the proxy features
(the dual of the minimum-volume enclosing ellipsoid for origin-symmetric
sets), computed by damped Newton steps on the log-barrier objective
log det Sigma(w) + mu sum_i log w_i over the simplex, one N x N solve and
O(N^3 + N^2 m) per step.  From the uniform start, while N <= m (m + 1) / 2,
mu = 0: each step is a plain Newton step on log det, taken whole or refused.
The first refusal, or N > m (m + 1) / 2 from the start, moves the call onto
the barrier at mu = 1, which is divided by 5 after each centring.  Every
step starts from the leverages f_i^T Sigma^-1 f_i recomputed from scratch at
the current weights, O(N m^2 + m^3), and the Kiefer-Wolfowitz certificate
max_i f_i^T Sigma^-1 f_i <= m (1 + tol) is checked on them before the step.
Every weight stays positive.  Whitening maps the features to
F L^-T / sqrt(m), with L the Cholesky factor of the design covariance (one
factorization and one solve, O(m^3 + N m^2); a covariance that is not
numerically positive definite raises RankDeficiencyError).  After it the
feature second-moment matrix of the design is the identity over m, which is
what gives the mixed distribution its gamma/m eigenvalue floor.
`action_covariance` (the second moment) is the one covariance path.  The
second moment of nonnegative weights w is X^T X with X = sqrt(w) * F, one
symmetric product, so it is symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, RankDeficiencyError, ToleranceNotMetError

__all__ = [
    "DiscreteDistribution",
    "d_optimal_design",
    "action_covariance",
    "whiten_features",
    "reduce_to_span",
    "design_weights_csv",
]

_SPAN_REL_TOL = 1e-10  # singular values at or below this times the largest are zero
_DESIGN_MAX_ITER = 10_000  # Newton steps before d_optimal_design gives up
_BARRIER_START = 1.0  # mu of the first centring on the barrier
_BARRIER_SHRINK = 5.0  # mu is divided by this after each centring


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability weights over the finite action set, in index order."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size and w.min() < -1e-12:
            raise InputError("distribution weights must be nonnegative")
        total = float(w.sum())
        if not math.isfinite(total) or abs(total - 1.0) > 1e-8:
            raise InputError(f"weights sum to {total!r}, not 1")
        w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", w / w.sum())


def _as_feature_array(features) -> np.ndarray:
    F = np.atleast_2d(np.asarray(features, dtype=float))
    if F.shape[0] == 0:
        raise InputError("empty feature set")
    return F


def _leverages(F: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H = F Sigma^-1 and g_i = f_i^T Sigma^-1 f_i for
    Sigma = sum_i w_i f_i f_i^T, computed from scratch."""
    H = F @ np.linalg.inv(F.T @ (F * w[:, None]))
    return H, np.einsum("ij,ij->i", H, F)


def _barrier_step(F: np.ndarray, H: np.ndarray, g: np.ndarray, w: np.ndarray,
                  mu: float) -> tuple[np.ndarray, float]:
    """One damped Newton step on log det Sigma + mu sum_i log w_i over the
    simplex: the new weights and the fraction t of the step taken, or w and
    t = 0 when the step is refused; w itself is never written.

    With H = F Sigma^-1 and g exact at w, K = (H F^T) o (H F^T) is the
    negative Hessian of log det Sigma in w and g its gradient; the step
    d = a - (sum a / sum b) b, from (K + mu diag(w^-2)) [a b] = [g + mu/w, 1],
    keeps sum w = 1.  The objective's change is read as
    log det(Sigma^-1 Sigma') = log det(H^T (w' * F)) plus the barrier's.  At
    mu = 0 the step is taken whole or refused: refused when K is singular,
    when a weight would not stay positive, or when log det Sigma would fall.
    At mu > 0, t starts at 1 or at 0.99 of the way to the simplex boundary,
    whichever is less, and is halved until the objective rises by at least a
    quarter of t times its slope along d; a step still short of that after
    59 halvings is refused.
    """
    K = H @ F.T
    K *= K
    grad = g
    if mu:
        K[np.diag_indices_from(K)] += mu / (w * w)
        grad = g + mu / w
    try:
        a, b = np.linalg.solve(K, np.column_stack((grad, np.ones_like(g)))).T
    except np.linalg.LinAlgError:
        return w, 0.0
    d = a - a.sum() / b.sum() * b
    falls = d < 0.0
    t = min(1.0, 0.99 * float((w[falls] / -d[falls]).min())) if mu and falls.any() else 1.0
    rise = 0.25 * float(grad @ d) if mu else 0.0  # the least gain per unit of t
    for _ in range(60 if mu else 1):  # at mu > 0, down to 2^-59 of the first t
        new = w + t * d
        if new.min() > 0.0:
            new /= new.sum()
            sign, gain = np.linalg.slogdet(H.T @ (F * new[:, None]))
            if sign > 0.0 and gain + mu * np.log(new / w).sum() >= t * rise:
                return new, t
        t *= 0.5
    return w, 0.0


def d_optimal_design(features, tol: float = 1e-6) -> DiscreteDistribution:
    """D-optimal design weights over the feature rows.

    Maximizes log det(sum_i w_i f_i f_i^T) by damped Newton steps on the
    log barrier (``_barrier_step``); the returned design satisfies the
    Kiefer-Wolfowitz certificate max_i f_i^T Sigma^-1 f_i <= m (1 + tol), or
    raises ToleranceNotMetError after 10 000 steps without it.  A tol that is
    not positive and finite, or a feature that is not finite, raises
    InputError before the first step.

    Every step, and the certificate, reads H = F Sigma^-1 and the leverages
    g_i = f_i^T Sigma^-1 f_i recomputed from scratch at the current weights
    (``_leverages``, O(n m^2 + m^3)); the step itself is one n x n solve,
    O(n^3 + n^2 m).  From the uniform start, while n <= m (m + 1) / 2, the
    steps are plain Newton steps on log det (mu = 0).  Above that size the
    negative Hessian K = G o G, with G = F Sigma^-1 F^T, has rank below n and
    is singular, so the call starts on the barrier; at or below it, the first
    refused step does.  On the barrier mu starts at 1 and is divided by 5
    after each centring, which ends at the first step taken whole (or
    refused).  Every weight stays positive: a weight off the optimal support
    comes out small, not zero, and nothing bounds the leverages on the
    support from below.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    F = _as_feature_array(features)
    if not np.all(np.isfinite(F)):
        raise InputError("features contain non-finite entries")
    n, m = F.shape
    rank = np.linalg.matrix_rank(F)
    if rank < m:
        raise RankDeficiencyError(rank, m)
    w = np.full(n, 1.0 / n)
    mu = 0.0 if n <= m * (m + 1) // 2 else _BARRIER_START  # rank K <= m (m + 1) / 2
    for it in range(_DESIGN_MAX_ITER + 1):
        H, g = _leverages(F, w)
        gap = float(g.max()) / m - 1.0
        if gap <= tol:
            return DiscreteDistribution(w)
        if it == _DESIGN_MAX_ITER:
            raise ToleranceNotMetError(gap, tol, _DESIGN_MAX_ITER)
        w, t = _barrier_step(F, H, g, w, mu)
        if t == 0.0 or (mu and t == 1.0):  # refused, or a centring ends
            mu = mu / _BARRIER_SHRINK if mu else _BARRIER_START


def action_covariance(weights, features) -> np.ndarray:
    """Second moment sum_i w_i f_i f_i^T of nonnegative weights, not
    renormalized; a negative (or NaN) weight raises InputError.

    The moment is X^T X with X = sqrt(w) * F row by row, which numpy hands to
    BLAS as one symmetric rank-k update: half the flops of a general product,
    and symmetric by construction, bit for bit.  Entry (k, l) is within
    gamma_{N+4} sum_i w_i |f_ik| |f_il|, about (N + 4) u times that sum, of
    the exact moment of the given weights and features: an inner product of
    N terms (Higham 2002, section 3.1) of factors that each carry the
    rounding of sqrt(w_i) and of one product.
    """
    F = _as_feature_array(features)
    w = np.asarray(weights, dtype=float)
    if w.shape != (F.shape[0],):
        raise InputError("weight and feature counts differ")
    if not w.min() >= 0.0:
        raise InputError("covariance weights must be nonnegative")
    X = F * np.sqrt(w)[:, None]
    return X.T @ X


def whiten_features(features, design: DiscreteDistribution) -> np.ndarray:
    """Linear change of feature coordinates making the design covariance I/m.

    With L the Cholesky factor of the design covariance Sigma = L L^T, the
    whitened features are F L^-T / sqrt(m), from one solve L X = F^T, so
    their design covariance is L^-1 Sigma L^-T / m = I / m.  That is
    O(m^3 + N m^2) with no eigendecomposition: at N = 150, m = 127 about
    1.4 ms against 2.4 ms for the symmetric inverse square root from
    ``eigh`` (one BLAS thread, 2-vCPU x86 host).  A Sigma that is not
    numerically positive definite fails the factorization and raises
    RankDeficiencyError; only that path counts the rank (``matrix_rank``,
    from ``eigvalsh``).

    The exponential-weights updates are invariant under any invertible linear
    map of the features, so whitening only pins down the numerical frame in
    which the gamma/m covariance floor holds.
    """
    F = _as_feature_array(features)
    m = F.shape[1]
    sigma = action_covariance(design.weights, F)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            int(np.linalg.matrix_rank(sigma, hermitian=True)), m) from None
    return np.linalg.solve(chol, F.T).T / np.sqrt(m)


def reduce_to_span(features):
    """Project features onto their span when they are rank deficient.

    Returns (reduced features, orthonormal basis of the span).  The basis has
    shape (rank, m) so original-space vectors map down via basis @ v.  The
    rank comes from the singular values alone; only a rank-deficient set pays
    for the right singular vectors.  A full-rank set is returned as it is,
    with the identity as its basis.
    """
    F = _as_feature_array(features)
    s = np.linalg.svd(F, compute_uv=False)
    rank = int((s > _SPAN_REL_TOL * s[0]).sum()) if s.size and s[0] > 0 else 0
    if rank == 0:
        raise InputError("feature set is identically zero")
    if rank == F.shape[1]:
        return F, np.eye(rank)
    basis = np.linalg.svd(F, full_matrices=False)[2][:rank]
    return F @ basis.T, basis


def design_weights_csv(design: DiscreteDistribution) -> str:
    """Design weights as CSV text: action_index, weight."""
    lines = ["action_index,weight"]
    lines += [f"{i},{w:.17g}" for i, w in enumerate(design.weights)]
    return "\n".join(lines) + "\n"
