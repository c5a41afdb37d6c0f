"""Exploration designs and covariance machinery.

The exploration distribution is the D-optimal design over the proxy features
(the dual of the minimum-volume enclosing ellipsoid for origin-symmetric
sets), computed by Frank-Wolfe with away steps on the log-det objective.
After whitening by the design covariance, the feature second-moment matrix
of the design is the identity over m, which is what gives the mixed
distribution its gamma/m eigenvalue floor.  `action_covariance` (the second
moment) and `check_covariance_floor` (a Cholesky test that its smallest
eigenvalue is above a floor) are the one covariance path.  The second moment
of nonnegative weights w is X^T X with X = sqrt(w) * F, one symmetric
product, so it is symmetric by construction.  On its covariance path the
bandit forms the covariance every round and solves against it (its
complement path forms it only on the rounds it records lambda_min); a whole
run certifies its floor once, from the design's covariance, and the
one-round entry `bandit.bandit_round` checks its round by
`check_covariance_floor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IllConditionedCovarianceError, InputError, RankDeficiencyError,
                     ToleranceNotMetError)

__all__ = [
    "DiscreteDistribution",
    "d_optimal_design",
    "action_covariance",
    "check_covariance_floor",
    "whiten_features",
    "reduce_to_span",
    "design_weights_csv",
]

_SPAN_REL_TOL = 1e-10  # singular values at or below this times the largest are zero
_DESIGN_MAX_ITER = 10_000  # Frank-Wolfe steps before d_optimal_design gives up
_DESIGN_REFRESH = 50  # steps between from-scratch recomputations of Sigma^-1 and g
# a rank-one update whose pivot 1 - lam or 1 + r g_j is at most this (the
# m = 1 add step has lam = 1) is replaced by a from-scratch recomputation
_MIN_PIVOT = 1e-6


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


def _leverages(F: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigma^-1 and g_i = f_i^T Sigma^-1 f_i for Sigma = sum_i w_i f_i f_i^T,
    computed from scratch."""
    sigma_inv = np.linalg.inv(F.T @ (F * w[:, None]))
    return sigma_inv, np.einsum("ij,ij->i", F @ sigma_inv, F)


def d_optimal_design(features, tol: float = 1e-6) -> DiscreteDistribution:
    """D-optimal design weights over the feature rows.

    Maximizes log det(sum_i w_i f_i f_i^T) by Frank-Wolfe with away steps;
    the returned design satisfies the Kiefer-Wolfowitz certificate
    max_i f_i^T Sigma^-1 f_i <= m (1 + tol), or raises ToleranceNotMetError
    after 10 000 steps without it.  A tol that is not positive and finite
    raises InputError before the first step.

    A step w' = (1 - lam) w + lam e_j changes Sigma by a rank-one term, so
    Sigma^-1 and the leverages g follow by Sherman-Morrison in O(N m) per
    step.  They are recomputed from scratch every ``_DESIGN_REFRESH`` steps,
    after a step whose update would divide by a pivot near zero, and before
    the certificate is accepted or refused: the certificate is always
    checked on the exact leverages.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    F = _as_feature_array(features)
    n, m = F.shape
    rank = np.linalg.matrix_rank(F)
    if rank < m:
        raise RankDeficiencyError(rank, m)
    w = np.full(n, 1.0 / n)
    sigma_inv, g = _leverages(F, w)
    exact = True
    it = 0
    while True:
        j_add = int(np.argmax(g))
        j_away = int(np.argmin(np.where(w > 0, g, np.inf)))
        add_violation = g[j_add] / m - 1.0
        away_violation = 1.0 - g[j_away] / m
        converged = add_violation <= tol and away_violation <= tol
        if (converged or it == _DESIGN_MAX_ITER) and not exact:
            sigma_inv, g = _leverages(F, w)
            exact = True
            continue
        if converged:
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
        it += 1
        # Sigma' = (1 - lam)(Sigma + r f_j f_j^T) with r = lam / (1 - lam)
        shrink = 1.0 - lam
        if (it % _DESIGN_REFRESH == 0 or shrink <= _MIN_PIVOT
                or 1.0 + lam / shrink * gj <= _MIN_PIVOT):
            sigma_inv, g = _leverages(F, w)
            exact = True
        else:
            u = sigma_inv @ F[j]
            c = lam / (shrink + lam * gj)  # r / (1 + r g_j)
            sigma_inv = (sigma_inv - c * np.outer(u, u)) / shrink
            g = (g - c * (F @ u) ** 2) / shrink
            exact = False


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


def check_covariance_floor(sigma: np.ndarray, floor: float) -> None:
    """Refuse a covariance whose smallest eigenvalue is not above ``floor``.

    cholesky(sigma - floor I) succeeds iff lambda_min(sigma) > floor, so the
    check needs no spectrum.  The shift subtracts floor from the diagonal of
    a copy, which has the bits of sigma - floor * eye(m) without forming the
    identity.  On refusal the error carries the exact lambda_min from
    eigvalsh.
    """
    if floor <= 0:
        raise InputError("floor must be positive")
    shifted = np.array(sigma, dtype=float)
    shifted.flat[::shifted.shape[0] + 1] -= floor  # the diagonal
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise IllConditionedCovarianceError(float(np.linalg.eigvalsh(sigma)[0]),
                                            floor) from None


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
