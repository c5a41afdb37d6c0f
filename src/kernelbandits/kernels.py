"""Kernels, kernel losses, explicit feature maps and adversary schedules.

This module is the one place that states a kernel fact: its formula, its
explicit feature map (which fixes the map's dimension), its constructor's
default norm bound G and the rule that bounds both players' norms by G.

A loss is the Hilbert inner product between the feature embedding of the
player's point and the adversary's element of the same space.  Linear,
quadratic and low-degree polynomial kernels carry explicit finite feature
maps; the Gaussian kernel is infinite dimensional, so adversaries against it
must be rank-one (an embedded point).

The adversary is oblivious, so its whole schedule is data fixed before round
one: a :class:`Schedule` holds it as arrays, one kind for every row
(rank-one points or explicit vectors), the stored rows, each once, and a
per-row index into them.  Indexing one row or iterating gives
:class:`RankOne` / :class:`ExplicitVector` objects, built on demand; slicing
gives a :class:`Schedule` that shares the stored rows.  Every entry that
takes a schedule also takes a sequence of actions and converts it once with
:meth:`Schedule.of`.

Each kernel's formula is written once, in ``_kernel_of_inner``, from inner
products (and, for the Gaussian, squared norms): the cross shape K(X_i, Y_j) serves
:func:`cross_gram` and :func:`loss_matrix`, the paired shape K(X_i, Y_i) the
norm checks and conditional gradient's losses.  :func:`feature_matrix` is
the one explicit embedding.  :func:`loss_matrix` gives rows of the loss
matrix L[t, j] = <Phi(a_j), w_t>; exponential weights and the bandit observe
entries of these rows, the same entries the regret accounting charges.  Each
row is its own matrix-vector product, so a row does not depend on the block
it is computed in.  Every walk over a whole schedule takes its row blocks
from :func:`_row_blocks`, the one reader of ``_LOSS_BLOCK_ROWS``, so memory
beyond the stored rows stays flat in the horizon.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial, inf
from numbers import Integral

import numpy as np

from .errors import InputError, InvalidCombinationError, UnsupportedFeatureMapError

__all__ = [
    "KernelSpec",
    "ExplicitVector",
    "RankOne",
    "Schedule",
    "cross_gram",
    "gram_matrix",
    "feature_map",
    "feature_matrix",
    "has_feature_map",
    "loss_matrix",
    "make_explicit",
    "make_rank_one",
    "quadratic_adversary",
    "validate_points",
    "check_norm_bound",
]

_EXPLICIT_MAX_POLY_DEGREE = 3
_BALL_TOL = 1e-12  # slack on ||a|| <= 1 in validate_points
_NORM_TOL = 1e-9   # slack on declared norm bounds G
_LOSS_BLOCK_ROWS = 256  # loss-matrix rows per block for whole-schedule passes


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel governs the losses, plus the norm bound on both players.

    ``norm_bound_G`` bounds sqrt(K(a, a)) over the action set and the Hilbert
    norm of every adversary action.  It is declared, not derived; use
    :func:`check_norm_bound` to verify it against a finite action set.
    """

    variant: str  # "linear" | "quadratic" | "gaussian" | "polynomial"
    norm_bound_G: float = 1.0
    sigma: float | None = None
    degree: int | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.variant not in ("linear", "quadratic", "gaussian", "polynomial"):
            raise InputError(f"unknown kernel variant {self.variant!r}")
        # chained comparisons are false for NaN, so they refuse it too
        if not 0 < self.norm_bound_G < inf:
            raise InputError("norm_bound_G must be positive and finite")
        if self.variant == "gaussian":
            if self.sigma is None or not 0 < self.sigma < inf:
                raise InputError("gaussian kernel needs a finite sigma > 0")
        if self.variant == "polynomial":
            if (isinstance(self.degree, bool) or not isinstance(self.degree, Integral)
                    or self.degree < 1):
                raise InputError(f"polynomial kernel needs an integer degree >= 1, "
                                 f"got {self.degree!r}")
            if self.offset is None or not 0 <= self.offset < inf:
                raise InputError("polynomial kernel needs a finite offset >= 0")

    @classmethod
    def linear(cls, G: float = 1.0) -> "KernelSpec":
        return cls("linear", norm_bound_G=G)

    @classmethod
    def quadratic(cls, G: float = 2.0) -> "KernelSpec":
        return cls("quadratic", norm_bound_G=G)

    @classmethod
    def gaussian(cls, sigma: float, G: float = 1.0) -> "KernelSpec":
        return cls("gaussian", norm_bound_G=G, sigma=sigma)

    @classmethod
    def polynomial(cls, degree: int, offset: float, G: float) -> "KernelSpec":
        return cls("polynomial", norm_bound_G=G, degree=degree, offset=offset)


@dataclass(frozen=True)
class ExplicitVector:
    """Adversary action given directly in the explicit feature space."""

    w: np.ndarray


@dataclass(frozen=True)
class RankOne:
    """Adversary action of the form Phi(y) for a point y."""

    y: np.ndarray


AdversaryAction = ExplicitVector | RankOne


@dataclass(frozen=True, eq=False)
class Schedule:
    """An oblivious adversary's schedule, one row per round, as arrays.

    Every row is of one kind: row t is the rank-one action
    Phi(rows[index[t]]) when ``rank_one``, and the explicit vector
    ``rows[index[t]]`` otherwise.  ``rows`` holds each stored row once, so a
    periodic schedule keeps its k actions and an n-long index.  ``len``,
    ``schedule[t]`` and iteration give rows as :class:`RankOne` /
    :class:`ExplicitVector` objects built on demand; a slice or an index
    array gives a :class:`Schedule` of the selected rows that shares the
    stored array.
    """

    rank_one: bool
    index: np.ndarray  # (n,) int, row t's position in rows
    rows: np.ndarray   # (R, d) points or (R, D) vectors

    def __post_init__(self):
        index = self.index
        if (not isinstance(self.rank_one, bool) or index.ndim != 1
                or index.dtype.kind not in "iu" or self.rows.ndim != 2):
            raise InputError("a schedule is a bool kind, an (n,) integer index "
                             "and (R, k) stored rows")
        if not np.all((index >= 0) & (index < self.rows.shape[0])):
            raise InputError("schedule index outside its stored rows")

    @classmethod
    def of(cls, actions) -> "Schedule":
        """``actions`` itself if it is a Schedule; otherwise its rows, all
        RankOne or all ExplicitVector vectors of one length, in order (no
        rows give an empty rank-one schedule)."""
        if isinstance(actions, Schedule):
            return actions
        kinds, rows = set(), []
        for w in actions:
            if not isinstance(w, (RankOne, ExplicitVector)):
                raise InputError("schedule rows must be RankOne or ExplicitVector actions")
            kinds.add(isinstance(w, RankOne))
            rows.append(w.y if isinstance(w, RankOne) else w.w)
        if len(kinds) > 1:
            raise InputError("schedule rows must be all RankOne or all ExplicitVector")
        try:
            stacked = np.array(rows, dtype=float) if rows else np.empty((0, 0))
        except ValueError as exc:
            raise InputError("schedule rows must be vectors of one length") from exc
        if stacked.ndim != 2:
            raise InputError("schedule rows must be vectors of one length")
        return cls(False not in kinds, np.arange(len(rows)), stacked)

    def __len__(self) -> int:
        return self.index.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            row = self.rows[self.index[key]]
            return RankOne(row) if self.rank_one else ExplicitVector(row)
        index = self.index[key]
        if index.ndim != 1:  # the checks refuse it
            return Schedule(self.rank_one, index, self.rows)
        # a subarray of a checked index into the same checked rows passes
        # every check of __post_init__, so none is rerun
        sub = object.__new__(Schedule)
        sub.__dict__.update(rank_one=self.rank_one, index=index, rows=self.rows)
        return sub

    def __iter__(self):
        for t in range(len(self)):
            yield self[t]

    def gathered(self) -> np.ndarray:
        """The stored rows in row order, one per round."""
        return self.rows[self.index]


def _row_blocks(schedule: Schedule) -> Iterator[slice]:
    """Slices of ``_LOSS_BLOCK_ROWS`` rows that walk ``schedule`` in order."""
    n = len(schedule)
    for start in range(0, n, _LOSS_BLOCK_ROWS):
        yield slice(start, min(start + _LOSS_BLOCK_ROWS, n))


def validate_points(points: np.ndarray) -> np.ndarray:
    """Check a (n, d) array of points: nonempty, finite, in the unit ball."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise InputError("points must be nonempty")
    if not np.all(np.isfinite(pts)):
        raise InputError("points contain non-finite coordinates")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms > 1.0 + _BALL_TOL):
        raise InputError(f"point norm {norms.max():.12g} exceeds 1")
    return pts


def has_feature_map(spec: KernelSpec) -> bool:
    if spec.variant == "gaussian":
        return False
    if spec.variant == "polynomial":
        return spec.degree <= _EXPLICIT_MAX_POLY_DEGREE
    return True


def cross_gram(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of K(X_i, Y_j), vectorized over both point sets."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return _kernel_of_inner(spec, X @ Y.T, X, Y)


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<X_i, Y_i> for each row i, one dot product per row: the bits of
    ``X[i] @ Y[i]`` whatever the other rows are."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _kernel_of_inner(spec: KernelSpec, S: np.ndarray, X: np.ndarray,
                     Y: np.ndarray) -> np.ndarray:
    """The kernel from inner products of the rows of X and Y: the cross
    shape K(X_i, Y_j) from a 2-D S[i, j] = <X_i, Y_j>, or the paired shape
    K(X_i, Y_i) from a 1-D S[i] = <X_i, Y_i>.  Each kernel's formula is
    written here and nowhere else; only the Gaussian reads the points, for
    their squared norms."""
    if spec.variant == "linear":
        return S
    if spec.variant == "quadratic":
        return S * S + S
    if spec.variant == "gaussian":
        x_sq, y_sq = np.sum(X * X, axis=1), np.sum(Y * Y, axis=1)
        if S.ndim == 2:
            x_sq, y_sq = x_sq[:, None], y_sq[None, :]
        sq = x_sq + y_sq - 2.0 * S
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * spec.sigma**2))
    return (spec.offset + S) ** spec.degree


def _kernel_of_pairs(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """K(X_i, Y_i) for each row i of two (n, d) arrays."""
    return _kernel_of_inner(spec, _row_dots(X, Y), X, Y)


def gram_matrix(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Gram matrix K(x_i, x_j) over one point set, exactly symmetric."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise InputError("points must be nonempty")
    G = cross_gram(spec, pts, pts)
    return 0.5 * (G + G.T)  # exact symmetry regardless of BLAS ordering


def _poly_exponents(d: int, degree: int):
    # multi-indices (k_0, ..., k_d) with sum = degree; k_0 is the offset slot
    for combo in combinations_with_replacement(range(d + 1), degree):
        counts = [0] * (d + 1)
        for c in combo:
            counts[c] += 1
        yield counts


def _poly_feature_coeffs(spec: KernelSpec, d: int):
    degree = spec.degree
    exps = list(_poly_exponents(d, degree))
    coeffs = np.empty(len(exps))
    powers = np.empty((len(exps), d), dtype=int)
    for i, k in enumerate(exps):
        multinom = factorial(degree)
        for kj in k:
            multinom //= factorial(kj)
        coeffs[i] = np.sqrt(multinom * spec.offset ** k[0])
        powers[i] = k[1:]
    return coeffs, powers


def feature_map(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Explicit feature embedding Phi(x) of one point: the one-row case of
    :func:`feature_matrix`."""
    return feature_matrix(spec, np.reshape(x, (1, -1)))[0]


def feature_matrix(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Explicit feature embeddings Phi(x_i), one row per point.

    This is the one embedding in the package, computed for all rows at once.
    Linear: identity.  Quadratic: row-major flattening of x x^T followed by
    x, so the Hilbert inner product is the plain dot product of the flattened
    vectors.  Polynomial (degree <= 3): scaled monomial expansion of
    (offset + x.y)^degree.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not has_feature_map(spec):
        raise UnsupportedFeatureMapError(
            f"{spec.variant} kernel has no explicit finite feature map"
        )
    n, d = pts.shape
    if spec.variant == "linear":
        return pts.copy()
    if spec.variant == "quadratic":
        outer = (pts[:, :, None] * pts[:, None, :]).reshape(n, d * d)
        return np.concatenate([outer, pts], axis=1)
    coeffs, powers = _poly_feature_coeffs(spec, d)
    return coeffs * np.prod(pts[:, None, :] ** powers, axis=2)


def _sup_norm(spec: KernelSpec, sq_norms: np.ndarray, what: str) -> float:
    """The largest Hilbert norm sqrt(K(a, a)) over rows, from their squared
    norms (clipped at 0 below); InputError if there are none, or if it is not
    within G (a NaN norm compares false, so it is refused too)."""
    if np.size(sq_norms) == 0:
        raise InputError(f"{what} is undefined on an empty set")
    sup = float(np.sqrt(max(np.max(sq_norms), 0.0)))
    if not sup <= spec.norm_bound_G + _NORM_TOL:
        raise InputError(f"{what} {sup:.12g} is not within bound {spec.norm_bound_G}")
    return sup


def _bounded(spec: KernelSpec, action: AdversaryAction) -> AdversaryAction:
    """``action``, or InputError if its Hilbert norm is not within G."""
    if isinstance(action, RankOne):
        y = np.atleast_2d(action.y)
        _sup_norm(spec, _kernel_of_pairs(spec, y, y), "adversary norm")
    else:
        _sup_norm(spec, np.vdot(action.w, action.w), "adversary norm")
    return action


def make_explicit(spec: KernelSpec, w: np.ndarray) -> ExplicitVector:
    """Explicit-space adversary action, validated against the kernel bound."""
    if not has_feature_map(spec):
        raise InvalidCombinationError(
            f"explicit adversary vectors require a finite feature map "
            f"({spec.variant} kernel has none)"
        )
    return _bounded(spec, ExplicitVector(np.asarray(w, dtype=float)))


def make_rank_one(spec: KernelSpec, y: np.ndarray) -> RankOne:
    """Rank-one adversary Phi(y), the mandatory form for the Gaussian kernel."""
    return _bounded(spec, RankOne(np.asarray(y, dtype=float)))


def quadratic_adversary(spec: KernelSpec, A: np.ndarray, b: np.ndarray) -> ExplicitVector:
    """Adversary (A, b) for the quadratic kernel: loss a^T A a + b^T a."""
    if spec.variant != "quadratic":
        raise InvalidCombinationError("(A, b) adversaries require the quadratic kernel")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.shape != (b.size, b.size):
        raise InputError("A must be square with side len(b)")
    if not np.allclose(A, A.T, atol=1e-12):
        raise InputError("A must be symmetric")
    return make_explicit(spec, np.concatenate([A.ravel(), b]))


def _row_products(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows R[t, j] = <M_j, V_t>, one matrix-vector product per row of V.

    Row t has the bits of ``M @ V[t]`` whatever the other rows are, which a
    single matrix product ``V @ M.T`` does not promise."""
    return np.matmul(M[None], V[:, :, None])[:, :, 0]


def loss_matrix(spec: KernelSpec, actions: np.ndarray,
                schedule: Schedule) -> np.ndarray:
    """Rows L[t, j] = <Phi(a_j), w_t> of the loss matrix for a stretch of the
    schedule, one row per adversary action.

    Rank-one rows are the kernel of the inner products of the schedule's
    points with the actions; explicit rows are products of its vectors with
    the embedded actions.  A point whose dimension is not the actions', or a
    vector whose length is not the feature dimension, raises InputError; an
    empty schedule gives a (0, N) matrix.  Each row is computed on its own
    (see :func:`_row_products`), so a row's bits do not depend on how the
    schedule is split into blocks: the one-row call
    ``loss_matrix(spec, actions, [w])[0]`` has the bits of that row of any
    block.  An entry's bits do depend on the number of actions: a (1, d)
    action matrix takes another numpy kernel (a dot product, not a
    matrix-vector product).
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    schedule = Schedule.of(schedule)
    if len(schedule) == 0:
        return np.empty((0, actions.shape[0]))
    X = schedule.gathered()
    if schedule.rank_one:
        if X.shape[1] != actions.shape[1]:
            raise InputError(f"dimension mismatch: {X.shape[1]} vs {actions.shape[1]}")
        return _kernel_of_inner(spec, _row_products(actions, X), X, actions)
    if not has_feature_map(spec):
        raise InvalidCombinationError(
            f"explicit adversary vector is invalid for the {spec.variant} kernel")
    features = feature_matrix(spec, actions)
    if X.shape[1] != features.shape[1]:
        raise InputError(f"explicit vector length {X.shape[1]} is not the "
                         f"feature dimension {features.shape[1]}")
    return _row_products(features, X)


def check_norm_bound(spec: KernelSpec, actions: np.ndarray) -> float:
    """Empirically verify norm_bound_G >= sup sqrt(K(a,a)) over the set.

    Returns the observed supremum; an empty set, or a supremum above G or
    NaN, raises InputError.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    return _sup_norm(spec, _kernel_of_pairs(spec, actions, actions),
                     "the actions' sup sqrt(K(a, a))")
