"""Exploration designs and covariance machinery.

The exploration distribution is the D-optimal design over the proxy features
(the dual of the minimum-volume enclosing ellipsoid for origin-symmetric
sets), computed by steps on the log-det objective.  From the uniform start,
while N <= m (m + 1) / 2, each step is a Newton step on all N weights, one
N x N solve, O(N^3 + N^2 m); the first step refused (a weight would not
stay positive, or log det would fall) hands the rest of the call to
Frank-Wolfe with away steps, the only steps that can empty a support point
and the only ones taken for N > m (m + 1) / 2.  Every step of either kind
starts from the leverages f_i^T Sigma^-1 f_i recomputed from scratch at the
current weights, O(N m^2 + m^3), and the Kiefer-Wolfowitz certificate is
checked on them before the step.  After whitening by the design
covariance, the feature second-moment matrix of the design is the identity
over m, which is what gives the mixed distribution its gamma/m eigenvalue
floor.  `action_covariance` (the second moment) is the one covariance
path.  The second moment of nonnegative weights w is X^T X with
X = sqrt(w) * F, one symmetric product, so it is symmetric by construction.
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
_DESIGN_MAX_ITER = 10_000  # Newton and Frank-Wolfe steps before d_optimal_design gives up


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


def _newton_step(F: np.ndarray, H: np.ndarray, g: np.ndarray,
                 w: np.ndarray) -> np.ndarray | None:
    """Weights after one Newton step on log det Sigma over the rows of F, or
    None when the step is refused; w itself is never written.

    With H = F Sigma^-1 and g exact at w, K = (H F^T) o (H F^T) is the
    negative Hessian of log det Sigma in w and g its gradient; the step
    d = a - (sum a / sum b) b, from K [a b] = [g 1], keeps sum w = 1.  The
    step is refused when K is singular, when a weight would not stay
    positive, or when log det Sigma would decrease, measured as
    log det(Sigma^-1 Sigma') = log det(H^T (w' * F)).
    """
    K = H @ F.T
    K *= K
    try:
        a, b = np.linalg.solve(K, np.column_stack((g, np.ones_like(g)))).T
    except np.linalg.LinAlgError:
        return None
    new = w + (a - a.sum() / b.sum() * b)
    if not new.min() > 0.0:
        return None
    new /= new.sum()
    sign, gain = np.linalg.slogdet(H.T @ (F * new[:, None]))
    if not (sign > 0.0 and gain >= 0.0):
        return None
    return new


def d_optimal_design(features, tol: float = 1e-6) -> DiscreteDistribution:
    """D-optimal design weights over the feature rows.

    Maximizes log det(sum_i w_i f_i f_i^T) by Newton steps, then
    Frank-Wolfe with away steps; the returned design satisfies the
    Kiefer-Wolfowitz certificate max_i f_i^T Sigma^-1 f_i <= m (1 + tol), or
    raises ToleranceNotMetError after 10 000 steps of both kinds without it.
    A tol that is not positive and finite, or a feature that is not finite,
    raises InputError before the first step.

    Every step, and the certificate, reads H = F Sigma^-1 and the leverages
    g_i = f_i^T Sigma^-1 f_i recomputed from scratch at the current weights
    (``_leverages``, O(n m^2 + m^3)).  Newton steps come first, from the
    uniform start, and only while n <= m (m + 1) / 2: above that the
    negative Hessian K = G o G on the weights, with G = F Sigma^-1 F^T, has
    rank below n and is singular.  Each one solves K [a b] = [g 1] and steps
    by d = a - (sum a / sum b) b (``_newton_step``): O(n^3 + n^2 m) per
    attempt.  An accepted step keeps every weight positive and log det from
    falling, so the support stays all n rows.  The first refused step leaves
    w as it is, and the rest of the call takes Frank-Wolfe steps, so a
    refusal costs one solve.

    A Frank-Wolfe step w' = (1 - lam) w + lam e_j adds weight to the row of
    largest leverage, or takes it from the support row of smallest leverage
    (an away step, clipped so that no weight goes negative), whichever side
    of the certificate is violated more, with lam the exact line search of
    log det along that direction.
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
    newton = n <= m * (m + 1) // 2  # the rank of K is at most m (m + 1) / 2
    for it in range(_DESIGN_MAX_ITER + 1):
        H, g = _leverages(F, w)
        j_add = int(g.argmax())
        j_away = int(np.where(w > 0.0, g, np.inf).argmin())  # over the support
        g_add, g_away = float(g[j_add]), float(g[j_away])
        add_violation = g_add / m - 1.0
        away_violation = 1.0 - g_away / m
        if add_violation <= tol and away_violation <= tol:
            return DiscreteDistribution(w)
        if it == _DESIGN_MAX_ITER:
            raise ToleranceNotMetError(max(add_violation, away_violation), tol,
                                       _DESIGN_MAX_ITER)
        if newton:  # no Frank-Wolfe step yet
            stepped = _newton_step(F, H, g, w)
            if stepped is not None:
                w = stepped
                continue
            newton = False
        if add_violation >= away_violation:
            j, gj = j_add, g_add
            lam = (gj - m) / (m * (gj - 1.0))  # gj > m >= 1 here
        else:
            j, gj, wj = j_away, g_away, float(w[j_away])
            lam_min = -wj / (1.0 - wj) if wj < 1.0 else 0.0
            if gj > 1.0:
                # negative step removes mass from j, clipped to keep w >= 0
                lam = max((gj - m) / (m * (gj - 1.0)), lam_min)
            else:
                lam = lam_min  # log det increases all the way to dropping j
        w *= 1.0 - lam
        w[j] += lam
        np.maximum(w, 0.0, out=w)
        w /= w.sum()


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

    The exponential-weights updates are invariant under any invertible linear
    map of the features, so whitening only pins down the numerical frame in
    which the gamma/m covariance floor holds.
    """
    F = _as_feature_array(features)
    m = F.shape[1]
    sigma = action_covariance(design.weights, F)
    vals, vecs = np.linalg.eigh(sigma)
    if vals[0] <= 0:
        raise RankDeficiencyError(int((vals > 0).sum()), m)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    return F @ inv_sqrt.T / np.sqrt(m)


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
