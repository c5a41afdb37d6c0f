"""Exploration designs and covariance machinery.

The exploration distribution is the D-optimal design over the proxy features
(the dual of the minimum-volume enclosing ellipsoid for origin-symmetric
sets), computed by Frank-Wolfe with away steps on the log-det objective.
After whitening by the design covariance, the feature second-moment matrix
of the design is the identity over m, which is what gives the mixed
distribution its gamma/m eigenvalue floor.  `action_covariance` (the second
moment) and `invert_covariance` (its floor-checked inverse) are the one
covariance path; the bandit calls both every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (IllConditionedCovarianceError, InputError, RankDeficiencyError,
                     ToleranceNotMetError)

__all__ = [
    "DiscreteDistribution",
    "d_optimal_design",
    "action_covariance",
    "invert_covariance",
    "whiten_features",
    "reduce_to_span",
    "design_weights_csv",
]

_SPAN_REL_TOL = 1e-10  # singular values at or below this times the largest are zero
_DESIGN_MAX_ITER = 10_000  # Frank-Wolfe steps before d_optimal_design gives up


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability weights over the finite action set, in index order."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12):
            raise InputError("distribution weights must be nonnegative")
        total = w.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-8:
            raise InputError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", np.maximum(w, 0.0) / np.maximum(w, 0.0).sum())

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        return cls(np.full(n, 1.0 / n))


def _as_feature_array(features) -> np.ndarray:
    F = np.atleast_2d(np.asarray(features, dtype=float))
    if F.shape[0] == 0:
        raise InputError("empty feature set")
    return F


def d_optimal_design(features, tol: float = 1e-6) -> DiscreteDistribution:
    """D-optimal design weights over the feature rows.

    Maximizes log det(sum_i w_i f_i f_i^T) by Frank-Wolfe with away steps;
    the returned design satisfies the Kiefer-Wolfowitz certificate
    max_i f_i^T Sigma^-1 f_i <= m (1 + tol), or raises ToleranceNotMetError
    after 10 000 steps without it.
    """
    F = _as_feature_array(features)
    n, m = F.shape
    rank = np.linalg.matrix_rank(F)
    if rank < m:
        raise RankDeficiencyError(rank, m)
    w = np.full(n, 1.0 / n)
    for it in range(_DESIGN_MAX_ITER + 1):
        sigma = F.T @ (F * w[:, None])
        g = np.einsum("ij,jk,ik->i", F, np.linalg.inv(sigma), F)  # f^T S^-1 f
        j_add = int(np.argmax(g))
        support = w > 0
        g_support = np.where(support, g, np.inf)
        j_away = int(np.argmin(g_support))
        add_violation = g[j_add] / m - 1.0
        away_violation = 1.0 - g[j_away] / m
        if add_violation <= tol and away_violation <= tol:
            return DiscreteDistribution(w)
        if it == _DESIGN_MAX_ITER:
            raise ToleranceNotMetError(max(add_violation, away_violation), tol,
                                       _DESIGN_MAX_ITER)
        if add_violation >= away_violation:
            j, gj = j_add, g[j_add]
            lam = (gj - m) / (m * (gj - 1.0))  # gj > m >= 1 here
        else:
            j, gj = j_away, g[j_away]
            lam_min = -w[j] / (1.0 - w[j]) if w[j] < 1.0 else 0.0
            if gj > 1.0:
                # negative step removes mass from j, clipped to keep w >= 0
                lam = max((gj - m) / (m * (gj - 1.0)), lam_min)
            else:
                lam = lam_min  # log det increases all the way to dropping j
        w = (1.0 - lam) * w
        w[j] += lam
        np.maximum(w, 0.0, out=w)
        w /= w.sum()


def action_covariance(weights, features) -> np.ndarray:
    """Symmetrized second moment sum_i w_i f_i f_i^T; weights not renormalized."""
    F = _as_feature_array(features)
    w = np.asarray(weights, dtype=float)
    if w.shape != (F.shape[0],):
        raise InputError("weight and feature counts differ")
    sigma = F.T @ (F * w[:, None])
    return 0.5 * (sigma + sigma.T)


def invert_covariance(sigma: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """(inverse, smallest eigenvalue) from one eigh; refuses below ``floor``."""
    if floor <= 0:
        raise InputError("floor must be positive")
    vals, vecs = np.linalg.eigh(sigma)
    min_eig = float(vals[0])
    if min_eig < floor:
        raise IllConditionedCovarianceError(min_eig, floor)
    return (vecs / vals) @ vecs.T, min_eig


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
    shape (rank, m) so original-space vectors map down via basis @ v.
    """
    F = _as_feature_array(features)
    u, s, vt = np.linalg.svd(F, full_matrices=False)
    rank = int((s > _SPAN_REL_TOL * s[0]).sum()) if s.size and s[0] > 0 else 0
    if rank == 0:
        raise InputError("feature set is identically zero")
    basis = vt[:rank]
    return F @ basis.T, basis


def design_weights_csv(design: DiscreteDistribution) -> str:
    """Design weights as CSV text: action_index, weight."""
    lines = ["action_index,weight"]
    lines += [f"{i},{w:.17g}" for i, w in enumerate(design.weights)]
    return "\n".join(lines) + "\n"
