"""Exploration designs and covariance machinery.

The exploration distribution is the D-optimal design over the proxy features
(the dual of the minimum-volume enclosing ellipsoid for origin-symmetric
sets), computed by steps on the log-det objective.  From the uniform start,
while N <= m (m + 1) / 2, each step is a Newton step on all N weights, one
N x N solve, O(N^3 + N^2 m); the first step refused (a weight would not
stay positive, or log det would fall) hands the rest of the call to
Frank-Wolfe with away steps, the only steps that can empty a support point
and the only ones taken for N > m (m + 1) / 2.  A Frank-Wolfe step moves
weight to or from one action j, so it needs only column j of the leverage
matrix F Sigma^-1 F^T, formed from the last exact recomputation and the r
rank-one terms added since: O(N m + N r) per step, r < ``_DESIGN_REFRESH``.
The leverages are recomputed exactly after every Newton step, every
``_DESIGN_REFRESH`` Frank-Wolfe steps, after a near-zero pivot, and before
the Kiefer-Wolfowitz certificate is accepted or refused.  After whitening by
the design covariance, the feature second-moment matrix of the design is
the identity over m, which is what gives the mixed distribution its gamma/m
eigenvalue floor.  `action_covariance` (the second moment) is the one
covariance path.  The second moment of nonnegative weights w is X^T X with
X = sqrt(w) * F, one symmetric product, so it is symmetric by construction.
On its covariance path the bandit forms the covariance every round and
solves against it (its complement path forms it only on the rounds it
records lambda_min); each run, and each one-round call, certifies its floor
once, from the design's covariance.
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
_DESIGN_REFRESH = 50  # bound on the rank-one terms since the last exact recomputation
# a rank-one update whose pivot 1 - lam or 1 + q g_j is at most this (the
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

    Newton steps come first, from the uniform start, and only while
    n <= m (m + 1) / 2: above that the negative Hessian K = G o G on the
    weights, with G = F Sigma^-1 F^T, has rank below n and is singular.
    Each one solves K [a b] = [g 1] at exact H = F Sigma^-1 and g, steps by
    d = a - (sum a / sum b) b (``_newton_step``), and recomputes H and g at
    the new weights: O(n^3 + n^2 m) per attempt.  An accepted step keeps
    every weight positive and log det from falling, so the support stays
    all n rows.  The first refused step leaves w as it is, and the rest of
    the call takes Frank-Wolfe steps, so a refusal costs one solve.

    A Frank-Wolfe step w' = (1 - lam) w + lam e_j changes Sigma by a
    rank-one term, so G changes by one too:
    G' = (G - c v v^T) / (1 - lam) with v = G e_j, its column j, and
    c = lam / (1 - lam + lam g_j).  Neither G nor Sigma^-1 is updated: G is
    held as s (H F^T - V diag(c) V^T), with H = F Sigma_0^-1 from the last
    exact recomputation and V the r N-vectors added since.  A step forms
    only column j, s (H f_j - V (c * V[j])), and updates the leverages
    g = diag(G) from it, in O(N m + N r) with no m x m temporary;
    r < ``_DESIGN_REFRESH``.  H and g are recomputed from scratch (Sigma, its
    inverse and F times that) every ``_DESIGN_REFRESH`` Frank-Wolfe steps,
    after a step whose update would divide by a pivot near zero, and before
    the certificate is accepted or refused: the certificate is always
    checked on exact leverages.
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
    H, g = _leverages(F, w)
    newton = n <= m * (m + 1) // 2  # the rank of K is at most m (m + 1) / 2
    V = np.empty((n, _DESIGN_REFRESH))  # G = s (H F^T - V[:, :r] diag(c) V[:, :r]^T)
    c = np.empty(_DESIGN_REFRESH)
    support = np.empty(n, dtype=bool)  # w > 0: the away step's candidates
    away = np.empty(n)  # g on the support, +inf off it
    term = np.empty(n)  # cj (s col)^2, the step's change to g before the shrink
    s, r = 1.0, 0
    it = 0
    while True:
        j_add = int(g.argmax())
        np.greater(w, 0.0, out=support)
        away.fill(np.inf)
        np.copyto(away, g, where=support)
        j_away = int(away.argmin())
        g_add, g_away = float(g[j_add]), float(g[j_away])
        add_violation = g_add / m - 1.0
        away_violation = 1.0 - g_away / m
        converged = add_violation <= tol and away_violation <= tol
        if (converged or it == _DESIGN_MAX_ITER) and r:
            H, g = _leverages(F, w)
            s, r = 1.0, 0
            continue
        if converged:
            return DiscreteDistribution(w)
        if it == _DESIGN_MAX_ITER:
            raise ToleranceNotMetError(max(add_violation, away_violation), tol,
                                       _DESIGN_MAX_ITER)
        if newton:  # no Frank-Wolfe step yet: H and g are exact at w
            stepped = _newton_step(F, H, g, w)
            if stepped is not None:
                w = stepped
                H, g = _leverages(F, w)
                it += 1
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
        # Sigma' = (1 - lam)(Sigma + q f_j f_j^T) with q = lam / (1 - lam)
        shrink = 1.0 - lam
        w *= shrink
        w[j] += lam
        np.maximum(w, 0.0, out=w)
        w /= w.sum()
        it += 1
        if (it % _DESIGN_REFRESH == 0 or shrink <= _MIN_PIVOT
                or 1.0 + lam / shrink * gj <= _MIN_PIVOT):
            H, g = _leverages(F, w)
            s, r = 1.0, 0
        else:
            col = H @ F[j] - V[:, :r] @ (c[:r] * V[j, :r])  # G e_j / s
            cj = lam / (shrink + lam * gj)  # q / (1 + q g_j)
            np.multiply(col, s, out=term)
            np.square(term, out=term)
            term *= cj
            g -= term
            g /= shrink
            V[:, r] = col
            c[r] = cj * s
            s /= shrink
            r += 1


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
