"""Seedable counter-based random streams.

Every run derives its randomness from a 64-bit master seed plus a component
name.  The generator is Philox4x64 keyed with the pair

    key = (master_seed, low 64 bits of SHA-256(component_name))

so any implementation of Philox and SHA-256 reproduces the same stream.  The
generator algorithm is part of the package's external contract: traces are
comparable across runs only because the draws are pinned down this way.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["component_stream_id", "component_rng", "sample_indices"]


def component_stream_id(component: str) -> int:
    """Stream id for a component: low 64 bits of SHA-256 of its name."""
    digest = hashlib.sha256(component.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Independent Philox stream for ``component`` under a master seed."""
    key = np.array([np.uint64(seed & (2**64 - 1)),
                    np.uint64(component_stream_id(component))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _inverse_cdf(weights: np.ndarray, u) -> np.ndarray | int:
    """The inverse-CDF index along the last axis of ``weights`` for uniforms
    ``u`` of shape ``weights.shape[:-1]``: the first index whose running sum
    exceeds u times the total, so ties and rounding resolve toward lower ones."""
    cum = weights.cumsum(axis=-1)
    # searchsorted(side="right") on each nondecreasing row, capped at the last
    # index (u rounds to 1.0 for the top 2^10 bit patterns): the count of
    # running sums <= u * total among all but the last; one row takes the
    # cheaper scalar comparison and whole-array count
    if cum.ndim == 1:
        return np.count_nonzero(cum[:-1] <= u * cum[-1])
    return (cum[..., :-1] <= (u * cum[..., -1])[..., None]).sum(axis=-1)


def sample_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray | int:
    """Inverse-CDF draws along the last axis of ``weights`` by the rule of
    :func:`_inverse_cdf`, one per row; a 1-D vector is the one-row case.
    Each row takes the next raw 64-bit output of the stream, u = bits / 2^64:
    the same bits as ``rng.integers(0, 2**64, dtype=np.uint64)``, one call
    for all rows, so traces are reproducible byte-for-byte given the same
    generator."""
    weights = np.asarray(weights, dtype=float)
    return _inverse_cdf(weights, rng.bit_generator.random_raw(weights.shape[:-1]) / 2.0**64)

