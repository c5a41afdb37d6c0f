"""Finite-dimensional proxy kernels from sampled Gram matrices.

The proxy feature map projects the (possibly infinite dimensional) kernel
embedding onto the span of the top eigenvectors of a sampled covariance,
computed through the Gram matrix: draw p points, eigendecompose the
(1/p)-scaled Gram, and normalize each eigenvector's image in feature space.
Points drawn with replacement repeat, and the p x p Gram has only as many
distinct rows as distinct samples, s: `basis_from_samples` eigendecomposes
an s x s matrix with the same nonzero spectrum, and its :class:`SampleBasis`
keeps the s samples (s, d) and (m, s) coefficients, so the eigh and every
feature pass run over s columns, not p (127 in place of 300 for 150 actions).
The resulting m-dimensional kernel approximates the original uniformly when
the spectrum decays fast enough; `effective_dimension` turns a decay profile
into the truncation level needed for a target approximation error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumWarning, InputError
from .kernels import KernelSpec, cross_gram, gram_matrix

__all__ = [
    "SampleBasis",
    "EigendecayProfile",
    "basis_from_samples",
    "build_proxy",
    "proxy_features",
    "effective_dimension",
    "approximation_sup_error",
    "fit_eigendecay",
]

_EIG_FLOOR_REL = 1e-10  # Gram eigenvalues at or below this times the largest drop


@dataclass(frozen=True)
class SampleBasis:
    """Data defining the proxy feature map.

    ``sample_points`` holds the s distinct rows of the p samples.  Row j of
    ``eig_coeffs`` is the j-th unit-norm eigenvector of the p x p scaled
    Gram, one coefficient per draw, summed over equal draws; ``normalizers``
    are the feature-space norms of the eigenvector images, which satisfy
    normalizers_j**2 = p * eigenvalues_j.
    """

    sample_points: np.ndarray  # (s, d)
    eig_coeffs: np.ndarray     # (m, s)
    eigenvalues: np.ndarray    # (m,), descending, > 0
    normalizers: np.ndarray    # (m,)
    kernel: KernelSpec

    @property
    def m(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class EigendecayProfile:
    """Spectral decay assumption: mu_j <= C j^-beta or mu_j <= C exp(-beta j).

    ``eigfn_bound_B`` bounds the sup norm of every scaled eigenfunction.
    """

    variant: str  # "polynomial" | "exponential"
    C: float
    beta: float
    eigfn_bound_B: float = 1.0

    def __post_init__(self):
        if self.variant not in ("polynomial", "exponential"):
            raise InputError(f"unknown decay variant {self.variant!r}")
        # chained comparisons are false for NaN, so they refuse it too
        if not (0 < self.C < math.inf and 0 < self.eigfn_bound_B < math.inf):
            raise InputError("C and eigfn_bound_B must be positive and finite")
        if self.variant == "polynomial":
            if not 1 < self.beta < math.inf:
                raise InputError("polynomial decay needs a finite beta > 1")
            if self.beta <= 2:
                warnings.warn(
                    "polynomial decay with beta <= 2 is outside the regime "
                    "with a sublinear regret guarantee",
                    stacklevel=2,
                )
        elif not 0 < self.beta < math.inf:
            raise InputError("exponential decay needs a finite beta > 0")


def basis_from_samples(kernel: KernelSpec, samples: np.ndarray,
                       m: int | None = None) -> SampleBasis:
    """Proxy basis from an explicit sample set (deterministic).

    Equal sample rows are merged first: with s distinct rows u_1..u_s, drawn
    c_1..c_s times, the p x p Gram is P K_u P^T with P the p x s indicator
    of the draws, and P^T P = C = diag(c).  So the s x s matrix
    C^1/2 K_u C^1/2 / p has the nonzero spectrum of the scaled Gram, and an
    eigenvector b of it gives the unit-norm Gram eigenvector P C^-1/2 b
    with the same eigenvalue, which sums over equal draws to C^1/2 b: one
    eigh at s x s in place of p x p, and the same basis in exact arithmetic.
    Rows are merged when numpy's ``unique`` finds them equal (-0.0 equals
    0.0, which the kernel cannot tell apart; a row with a NaN is never merged).

    Eigenvalues at or below 1e-10 times the largest are dropped, reducing m,
    rather than dividing by near-zero normalizers.
    ``m=None`` keeps the whole observed spectrum above the floor.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    p = pts.shape[0]
    distinct, counts = np.unique(pts, axis=0, return_counts=True)
    root = np.sqrt(counts)
    vals, vecs = np.linalg.eigh(gram_matrix(kernel, distinct) * (1.0 / p)
                                * np.outer(root, root))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    floor = _EIG_FLOOR_REL * max(vals[0], 0.0)
    observed = int((vals > floor).sum())
    if m is None:
        m_eff = observed
    else:
        m_eff = min(m, observed)
        if m_eff < m:
            warnings.warn(
                DegenerateSpectrumWarning(
                    f"only {m_eff} eigenvalues above floor {floor:.3e}; "
                    f"reduced m from {m}"
                ),
                stacklevel=3,
            )
    if m_eff == 0:
        raise InputError("Gram spectrum entirely below the eigenvalue floor")
    eigenvalues = vals[:m_eff]
    eig_coeffs = (vecs[:, :m_eff] * root[:, None]).T
    normalizers = np.sqrt(p * eigenvalues)
    return SampleBasis(distinct, eig_coeffs, eigenvalues, normalizers, kernel)


def build_proxy(kernel: KernelSpec, points: np.ndarray, m: int | None, p: int,
                rng: np.random.Generator) -> SampleBasis:
    """Construct the m-dimensional proxy basis from p sampled points.

    The p samples are rows of the point array ``points``, drawn uniformly
    with replacement from ``rng``.
    """
    if p < 1:
        raise InputError(f"need p >= 1 samples, got p={p}")
    if m is not None and m < 1:
        raise InputError("m must be >= 1")
    if m is not None and p < m:
        raise InputError(f"need p >= m, got p={p}, m={m}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise InputError("points must be nonempty")
    idx = rng.integers(0, points.shape[0], size=p)
    return basis_from_samples(kernel, points[idx], m=m)


def proxy_features(basis: SampleBasis, points: np.ndarray) -> np.ndarray:
    """Proxy feature vectors, one row per point.

    Row j is sum_k omega_jk K(u_k, .) over the samples u_k, divided by the normalizer.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != basis.sample_points.shape[1]:
        raise InputError(
            f"dimension mismatch: {pts.shape[1]} vs {basis.sample_points.shape[1]}"
        )
    kx = cross_gram(basis.kernel, pts, basis.sample_points)  # (n, s)
    return (kx @ basis.eig_coeffs.T) / basis.normalizers


def effective_dimension(profile: EigendecayProfile, eps: float) -> int:
    """Truncation level sufficient for an eps-approximate proxy.

    Polynomial decay: ceil((4 C B^2 / ((beta - 1) eps))^(1/(beta-1))).
    Exponential decay: ceil((1/beta) log(4 C B^2 / (beta eps))).
    Clamped below at 1.
    """
    if not 0 < eps < math.inf:
        raise InputError(f"eps must be positive and finite, got {eps!r}")
    # Python floats, whose power raises OverflowError where numpy's warns
    C, beta, B = map(float, (profile.C, profile.beta, profile.eigfn_bound_B))
    try:
        if profile.variant == "polynomial":
            value = (4.0 * C * B * B / ((beta - 1.0) * eps)) ** (1.0 / (beta - 1.0))
        else:
            value = math.log(4.0 * C * B * B / (beta * eps)) / beta
        return max(1, math.ceil(value))
    except (OverflowError, ZeroDivisionError):  # a denominator that underflows to 0 too
        raise InputError(f"eps = {eps!r} needs a truncation level beyond any float") from None


def approximation_sup_error(kernel: KernelSpec, basis: SampleBasis,
                            probe_points: np.ndarray) -> float:
    """Max over probe pairs of |K(x, y) - proxy kernel(x, y)|."""
    pts = np.atleast_2d(np.asarray(probe_points, dtype=float))
    if pts.shape[0] < 2:
        raise InputError("need at least 2 probe points")
    K_true = cross_gram(kernel, pts, pts)
    F = proxy_features(basis, pts)
    return float(np.abs(K_true - F @ F.T).max())


def fit_eigendecay(basis: SampleBasis, variant: str,
                   probe_points: np.ndarray) -> EigendecayProfile:
    """Fit a decay profile to the observed Gram spectrum.

    Least squares of log(mu) against log(j) (polynomial) or j (exponential)
    over the top half of the observed spectrum; the eigenfunction bound is
    estimated as the largest rescaled proxy coordinate over the probes.
    """
    mu = basis.eigenvalues
    if mu.size < 2:
        raise InputError(f"a decay fit needs at least 2 eigenvalues, got {mu.size}")
    n_fit = max(2, mu.size // 2)
    j = np.arange(1, n_fit + 1, dtype=float)
    y = np.log(mu[:n_fit])
    x = np.log(j) if variant == "polynomial" else j
    slope, intercept = np.polyfit(x, y, 1)
    beta = -slope
    C = math.exp(intercept)
    if variant == "polynomial":
        beta = max(beta, 1.0 + 1e-6)
    else:
        beta = max(beta, 1e-6)
    F = proxy_features(basis, probe_points)
    B = float(np.abs(F / np.sqrt(basis.eigenvalues)).max())
    return EigendecayProfile(variant, C=C, beta=beta, eigfn_bound_B=B)
