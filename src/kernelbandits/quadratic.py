"""Quadratic-loss solvers: the unit-ball trust-region oracle and the
exponential-weights sampler for densities exp(a^T B a + a^T b) on the ball.

The trust-region subproblem is solved exactly from the eigendecomposition of
B plus a one-dimensional secular-equation root find on the Lagrange
multiplier, with boundary completion in the hard case (linear term orthogonal
to the bottom eigenspace).  The sampler (:func:`quad_ew_sample`) runs one
hit-and-run chain over the unit ball in the eigenbasis of B; on each chord
it takes one slice-sampling step (Neal 2003, sec. 4.2) for the chord's
conditional, a density exp(alpha t^2 + beta t) on an interval.  That step
leaves the conditional invariant, so the chain's stationary law is exact
(Lovasz & Vempala 2006), but a draw is not a fresh draw of its chord: it
shares a slice with the point it moved from.  Every step is followed by exact
Metropolis sign reflections of the eigen-coordinates, which carry the chain
between the symmetric modes that hit-and-run alone rarely crosses.  The
constraint set stays the unit ball, which is convex regardless of the signs
of the eigenvalues and invariant under the reflections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStartError, InputError

__all__ = [
    "QuadraticObjective",
    "trs_minimize",
    "quad_ew_sample",
    "chain_autocorrelation",
]

_INTERIOR_TOL = 1e-10  # slack on ||alpha||^2 <= 1 for trs_minimize's interior point
_BLOCK = 256  # sampler steps per block of random numbers, and uniforms per refill


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
        if b.size == 0:
            raise InputError("the objective needs dimension >= 1")
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


def _step_count(name: str, value, least: int) -> int:
    # bool is an int subclass, and count=True would run and return one draw
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}")
    return int(value)


def _uniforms(rng: np.random.Generator):
    """Endless stream of uniforms on [0, 1), drawn from ``rng`` in blocks,
    the next block only once the last one is used up."""
    return itertools.chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None))


def _slice_chord(alpha: float, beta: float, lo: float, hi: float, uniform) -> float:
    """One slice-sampling step from t = 0 for the density proportional to
    exp(alpha t^2 + beta t) on the chord [lo, hi], lo <= 0 <= hi (Neal 2003,
    sec. 4.2): a level y = log(1 - u) under g(0) = 0, then uniform proposals
    on a bracket that shrinks towards 0 until one lies on the slice g >= y.
    The step leaves that law invariant; 0 is on every slice, so it ends.
    """
    y = math.log1p(-uniform())
    while True:
        t = lo + (hi - lo) * uniform()
        if alpha * t * t + beta * t >= y:
            return t
        if t < 0.0:
            lo = t
        else:
            hi = t


def quad_ew_sample(obj: QuadraticObjective, count: int, burn_in: int | None = None,
                   *, rng: np.random.Generator) -> np.ndarray:
    """Hit-and-run draws whose stationary law is exp(a^T B a + a^T b) on the ball.

    Works in the eigenbasis of B, where the density separates per coordinate
    as exp(lam_i x_i^2 + gam_i x_i), and runs hit-and-run over the unit ball
    from the origin.  Each step draws a uniform direction u, then moves to a
    point x + t u on the ball's chord through x by one slice-sampling step
    from t = 0 for the conditional law, density proportional to
    exp(alpha t^2 + beta t) with alpha = sum lam_i u_i^2 and
    beta = sum (2 lam_i x_i + gam_i) u_i: a level under the current point's
    log-density, then uniform proposals on a bracket that shrinks towards
    t = 0 until one is on the level's slice.  The step leaves the chord's law
    invariant, so the stationary law is exact, but consecutive draws share a
    slice, and there is no acceptance-rate guarantee: nothing bounds the
    number of proposals a step takes.  After every step each coordinate is
    reflected, x_i -> -x_i, with probability 1/2 * min(1, exp(-2 gam_i x_i)):
    a Metropolis move with a symmetric proposal.  The ball is invariant under
    reflections and lam_i x_i^2 is even, so the move is reversible for any b
    and leaves the stationary law unchanged; with b = 0 each draw's signs are
    fair coins independent of the chain's past.

    Directions, reflection draws and slice uniforms come from ``rng`` in
    blocks of a fixed size, always whole, so the first n draws of a call do
    not depend on ``count``.  Returns the ``count`` states after ``burn_in``
    steps (default 1000 d).  Mixing is reported by the caller's diagnostics
    (:func:`chain_autocorrelation`), not guaranteed.

    Every draw is fixed to the bit by the seed.  Inside the step, float sums
    are explicit left-to-right loops, never ``sum`` or ``math.fsum``; the
    products lam_i u_i are formed in the step's loop, the same IEEE products
    as numpy's elementwise ones; alpha = (u o u)^T lam and gam^T u stay numpy
    products per block, as a loop would not reproduce the order or fusion
    of a BLAS sum.  The dot products x^T u and x^T (lam o u) of step s + 1
    are added up in step s's update loop, each x_i after its reflection, in
    the same order as a loop of their own.  A block's first step has such a
    loop: its direction is drawn after the previous step's slice uniforms.
    Those uniforms come from a lazy chain of blocks of 256, the next one
    drawn only once the last is used up.
    """
    count = _step_count("count", count, 1)
    d = obj.b.size
    burn_in = _step_count("burn_in", 1000 * d if burn_in is None else burn_in, 0)
    lam, V = np.linalg.eigh(obj.B)
    gam = V.T @ obj.b
    lam_list, twice_gam = lam.tolist(), (2.0 * gam).tolist()
    uniform = _uniforms(rng).__next__
    chain = np.empty(count * d)  # the kept states, row after row
    x, xx = [0.0] * d, 0.0
    steps = burn_in + count
    for start in range(0, steps, _BLOCK):
        u_block = rng.standard_normal((_BLOCK, d))
        norms = np.sqrt(np.einsum("ij,ij->i", u_block, u_block))
        zero = norms == 0.0  # a zero normal draw stands for the first axis
        u_block[zero, 0] = norms[zero] = 1.0
        u_block /= norms[:, None]
        # a reflection happens when e_i = Exp(1) - log 2 > max(2 gam_i x_i, 0),
        # which has probability 1/2 * min(1, exp(-2 gam_i x_i))
        e_block = rng.standard_exponential((_BLOCK, d)) - math.log(2.0)
        u_rows = u_block.tolist()
        # each step is paired with the next step's direction, the last with a
        # zero one: the next block's first dot products are its own loop's
        block = zip(u_rows, u_rows[1:] + [[0.0] * d], (u_block * u_block @ lam).tolist(),
                    (u_block @ gam).tolist(), e_block.tolist())
        # the block's first dot products; the previous step could not read
        # this direction, drawn after that step's slice uniforms
        xu = lam_xu = 0.0
        for xi, ui, li in zip(x, u_rows[0], lam_list):
            xu += xi * ui
            lam_xu += xi * (ui * li)
        rows = []  # this block's states, flat
        for u, v, alpha, gam_u, e in itertools.islice(block, steps - start):
            # chord of the ball: ||x + t u||^2 = 1; clamping 1 - ||x||^2 at 0
            # keeps t = 0 on it when rounding leaves x a hair outside the ball
            slack = 1.0 - xx
            root = math.sqrt(xu * xu + (0.0 if slack < 0.0 else slack))
            t_lo, t_hi = -xu - root, -xu + root
            # a NaN or infinite end makes the length NaN or +inf
            if not 1e-14 < t_hi - t_lo < math.inf:
                step = start + len(rows) // d
                raise DegenerateStartError(
                    f"degenerate chord of length {t_hi - t_lo!r} at step {step}")
            t = _slice_chord(alpha, 2.0 * lam_xu + gam_u, t_lo, t_hi, uniform)
            # the move, its reflection, then the next step's dot products
            new, xx, xu, lam_xu = [], 0.0, 0.0, 0.0
            for xi, ui, g2, ei, vi, li in zip(x, u, twice_gam, e, v, lam_list):
                xi += t * ui
                xx += xi * xi
                g2x = g2 * xi
                if ei > (g2x if g2x > 0.0 else 0.0):
                    xi = -xi
                new.append(xi)
                xu += xi * vi
                lam_xu += xi * (vi * li)
            x = new
            rows.extend(x)
        kept = max(burn_in - start, 0) * d
        if kept < len(rows):
            first = (start - burn_in) * d + kept
            chain[first:first + len(rows) - kept] = rows[kept:]
    return chain.reshape(count, d) @ V.T


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
