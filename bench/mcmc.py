"""Numpy-only MCMC diagnostics: rank-normalised split-R-hat and bulk ESS.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", with the autocorrelation sum truncated by Geyer's
initial monotone sequence as in Stan.  Input is an (chains, draws) array of
one scalar quantity.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

__all__ = ["rank_normalize", "split_rhat", "bulk_ess"]


def rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks (ties averaged), same shape."""
    x = np.asarray(chains, dtype=float)
    flat = x.ravel()
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - 0.5 * (counts - 1)
    u = (avg_rank[inverse] - 0.375) / (flat.size + 0.25)
    inv_cdf = NormalDist().inv_cdf
    z = np.fromiter((inv_cdf(p) for p in u), dtype=float, count=u.size)
    return z.reshape(x.shape)


def _split(chains: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    half = x.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])


def split_rhat(chains: np.ndarray) -> float:
    """Rank-normalised split-R-hat (bulk)."""
    s = _split(rank_normalize(chains))
    n = s.shape[1]
    within = s.var(axis=1, ddof=1).mean()
    between = n * s.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk effective sample size of the pooled draws."""
    return _ess(_split(rank_normalize(chains)))


def _ess(s: np.ndarray) -> float:
    m, n = s.shape
    centred = s - s.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, :n] / n
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n + s.mean(axis=1).var(ddof=1)
    acov_mean = acov.mean(axis=0)

    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (within - acov_mean[1]) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 4 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (within - acov_mean[t + 1]) / var_plus
        rho_odd = 1.0 - (within - acov_mean[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # Geyer's initial monotone sequence over consecutive pairs
    for t in range(1, max_t - 2, 2):
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = 0.5 * (rho[t - 1] + rho[t])
    total = m * n
    tau = -1.0 + 2.0 * rho[:max_t].sum() + rho[max_t + 1]
    tau = max(tau, 1.0 / np.log10(total))
    return float(total / tau)
