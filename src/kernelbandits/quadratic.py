"""Quadratic-loss solvers: the unit-ball trust-region oracle and the
exponential-weights sampler for densities exp(a^T B a + a^T b) on the ball.

The trust-region subproblem is solved exactly from the eigendecomposition of
B plus a one-dimensional secular-equation root find on the Lagrange
multiplier, with boundary completion in the hard case (linear term orthogonal
to the bottom eigenspace).  The sampler (:func:`quad_ew_sample`) runs one
hit-and-run chain over the unit ball in the eigenbasis of B; each chord's
conditional is drawn by inverse CDF on a 256-point trapezoid grid, an
approximation of the exact chord law.  Every step is followed by exact
Metropolis sign reflections of the eigen-coordinates, which carry the chain
between the symmetric modes that hit-and-run alone rarely crosses.  The
constraint set stays the unit ball, which is convex regardless of the signs
of the eigenvalues and invariant under the reflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStartError, InputError

__all__ = [
    "QuadraticObjective",
    "trs_minimize",
    "quad_ew_sample",
    "surrogate_membership",
    "chain_autocorrelation",
]

_ZERO_EIG_TOL = 1e-10  # |eigenvalues| of B below this form the null-space block
_INTERIOR_TOL = 1e-10  # slack on ||alpha||^2 <= 1 for trs_minimize's interior point


@dataclass(frozen=True)
class QuadraticObjective:
    """Objective a^T B a + b^T a with symmetric (possibly indefinite) B."""

    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] != b.size:
            raise InputError("B must be square with side len(b)")
        if np.abs(B - B.T).max() > 1e-12 * max(1.0, np.abs(B).max()):
            raise InputError("B must be symmetric")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(b))):
            raise InputError("objective coefficients must be finite")
        object.__setattr__(self, "B", 0.5 * (B + B.T))
        object.__setattr__(self, "b", b)

    def value(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=float)
        return float(a @ self.B @ a + self.b @ a)


def trs_minimize(obj: QuadraticObjective) -> tuple[np.ndarray, float]:
    """Global minimizer of a^T B a + b^T a over the unit ball.

    Returns (point, value).  The multiplier solves
    sum_i c_i^2 / (lam_i + nu)^2 = 1 on (max(0, -lam_min), inf); when the
    secular function never reaches 1 there (hard case) the boundary solution
    is completed inside the bottom eigenspace.
    """
    B, b = obj.B, obj.b
    d = b.size
    lam, V = np.linalg.eigh(B)
    c = V.T @ (-0.5 * b)
    scale = max(np.abs(lam).max(initial=0.0), np.linalg.norm(b), 1.0)
    gap_tol = 1e-12 * scale

    # interior candidate: stationary point of the convex part, zero elsewhere
    if lam[0] >= -gap_tol:
        alpha = np.zeros(d)
        pos = lam > gap_tol
        alpha[pos] = c[pos] / lam[pos]
        if np.all(np.abs(c[~pos]) <= gap_tol) and alpha @ alpha <= 1.0 + _INTERIOR_TOL:
            a = V @ alpha
            return a, obj.value(a)

    nu_lo = max(0.0, -lam[0])
    bottom = lam <= lam[0] + gap_tol

    def phi(nu: float, mask=None) -> float:
        denom = lam + nu
        use = np.ones(d, dtype=bool) if mask is None else ~mask
        return float(np.sum((c[use] / denom[use]) ** 2))

    hard = False
    if np.all(np.abs(c[bottom]) <= gap_tol) and lam[0] < -gap_tol:
        if phi(nu_lo, mask=bottom) <= 1.0:
            hard = True

    if hard:
        nu = nu_lo
        alpha = np.zeros(d)
        rest = ~bottom
        alpha[rest] = c[rest] / (lam[rest] + nu)
        residual = 1.0 - float(alpha @ alpha)
        tau = np.sqrt(max(residual, 0.0))
        alpha[np.argmax(bottom)] = tau  # any unit direction in the eigenspace
    else:
        # regular case: phi decreasing with a root right of nu_lo
        lo = nu_lo
        hi = nu_lo + scale
        while phi(hi) > 1.0:
            hi = nu_lo + 2.0 * (hi - nu_lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if phi(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        nu = hi
        alpha = c / (lam + nu)
        norm = np.linalg.norm(alpha)
        if norm > 0:
            alpha /= norm

    a = V @ alpha
    return a, obj.value(a)


def quad_ew_sample(obj: QuadraticObjective, count: int, burn_in: int | None = None,
                   *, rng: np.random.Generator) -> np.ndarray:
    """Samples approximately distributed as exp(a^T B a + a^T b) on the ball.

    Works in the eigenbasis of B, where the density separates per coordinate
    as exp(lam_i x_i^2 + gam_i x_i), and runs hit-and-run over the unit ball
    from the origin: each step draws a uniform direction, then a point on the
    ball's chord through x by inverse CDF on a 256-point grid with trapezoid
    masses and linear interpolation, an approximation of the exact chord law.
    After every step each coordinate is reflected, x_i -> -x_i, with
    probability 1/2 * min(1, exp(-2 gam_i x_i)): a Metropolis move with a
    symmetric proposal.  The ball is invariant under reflections and
    lam_i x_i^2 is even, so the move is reversible for any b and leaves the
    stationary law unchanged; with b = 0 each draw's signs are fair coins
    independent of the chain's past.  Returns the ``count`` states after
    ``burn_in`` steps.  Mixing quality is reported via
    :func:`chain_autocorrelation`, not guaranteed.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    d = obj.b.size
    if burn_in is None:
        burn_in = 1000 * d
    if burn_in < 0:
        raise InputError("burn_in must be >= 0")
    lam, V = np.linalg.eigh(obj.B)
    gam = V.T @ obj.b
    slope = -2.0 * gam  # log-density change when x_i alone flips: slope_i x_i
    grid = np.linspace(0.0, 1.0, 256)
    chain = np.empty((burn_in + count, d))
    x = np.zeros(d)
    for step in range(chain.shape[0]):
        u = rng.standard_normal(d)
        norm = math.sqrt(u @ u)
        if norm == 0.0:
            u = np.zeros(d)
            u[0] = 1.0
        else:
            u /= norm
        # chord of the ball: ||x + t u||^2 = 1
        xu = float(x @ u)
        root = np.sqrt(max(xu * xu - (float(x @ x) - 1.0), 0.0))
        t_lo, t_hi = -xu - root, -xu + root
        if not math.isfinite(t_lo) or not math.isfinite(t_hi) or t_hi - t_lo <= 1e-14:
            raise DegenerateStartError(
                f"degenerate chord of length {t_hi - t_lo!r} at step {step}"
            )
        ts = t_lo + (t_hi - t_lo) * grid
        points = x[None, :] + ts[:, None] * u[None, :]
        logd = points * points @ lam + points @ gam
        p = np.exp(logd - logd.max())
        seg = 0.5 * (p[1:] + p[:-1])  # trapezoid mass per grid cell
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        target = rng.random() * cum[-1]
        k = min(int(np.searchsorted(cum, target, side="right")) - 1, len(seg) - 1)
        k = max(k, 0)
        frac = (target - cum[k]) / seg[k] if seg[k] > 0 else 0.5
        t = ts[k] + frac * (ts[k + 1] - ts[k])
        x = x + min(max(t, t_lo), t_hi) * u
        flip = rng.random(d) < 0.5 * np.exp(np.minimum(slope * x, 0.0))
        x = np.where(flip, -x, x)
        chain[step] = x
    return chain[burn_in:] @ V.T


def surrogate_membership(obj: QuadraticObjective):
    """Membership test for the reparametrized constraint set.

    Frame: the coordinates are those of the eigenbasis of B, the eigenvalues
    with |lam_i| >= 1e-10 first, then the null-space block, each block
    in ascending eigenvalue order.  In that frame, with alpha the eigen-
    coordinates of a point of the unit ball and gamma = V^T b, a nonzero-
    eigenvalue coordinate becomes beta_i = (alpha_i + s_i)^2 with shift
    s_i = gamma_i / (2 lam_i), and a null-space coordinate stays alpha_i.
    The ball is symmetric under alpha -> -alpha, so the image of the ball is

        {beta_i >= 0 : sum_nonzero (sqrt(beta_i) - |s_i|)^2
                       + sum_zero alpha_i^2 <= 1},

    with the absolute shift |s_i|.  Each term is convex in beta_i, so the set
    is convex for every B and b.  Returns (membership callback, mask), the
    mask being True on the nonzero-eigenvalue block of the frame.
    """
    lam, V = np.linalg.eigh(obj.B)
    gam = V.T @ obj.b
    nonzero = np.abs(lam) >= _ZERO_EIG_TOL
    order = np.concatenate([np.flatnonzero(nonzero), np.flatnonzero(~nonzero)])
    lam, gam, nonzero = lam[order], gam[order], nonzero[order]
    shift = np.zeros_like(lam)
    shift[nonzero] = np.abs(gam[nonzero] / (2.0 * lam[nonzero]))

    def member(v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=float)
        if np.any(v[nonzero] < 0.0):
            return False
        radial = np.where(nonzero, np.sqrt(np.maximum(v, 0.0)) - shift, v)
        return float(radial @ radial) <= 1.0 + 1e-12

    return member, nonzero


def chain_autocorrelation(samples: np.ndarray) -> float:
    """Mean lag-1 autocorrelation across coordinates (mixing diagnostic)."""
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    if s.shape[0] <= 1:
        return float("nan")
    centered = s - s.mean(axis=0)
    num = np.sum(centered[:-1] * centered[1:], axis=0)
    den = np.sum(centered * centered, axis=0)
    den = np.where(den == 0.0, 1.0, den)
    return float(np.mean(num / den))
