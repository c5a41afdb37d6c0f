"""Seedable counter-based random streams.

Every run derives its randomness from a 64-bit master seed plus a component
name.  The generator is Philox4x64 keyed with the pair

    key = (master_seed, low 64 bits of SHA-256(component_name))

so any implementation of Philox and SHA-256 reproduces the same stream.  The
generator algorithm is part of the package's external contract: traces are
comparable across runs only because the draws are pinned down this way.
Every learner draws here: :func:`_uniforms` reads the raw stream, one call
per block of rounds, and :func:`_inverse_cdf` is the one rule from a uniform
to an index; :func:`sample_indices` joins the two.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from .errors import InputError
from .weights import _running_sums

__all__ = ["component_stream_id", "component_rng"]


def component_stream_id(component: str) -> int:
    """Stream id for a component: low 64 bits of SHA-256 of its name."""
    digest = hashlib.sha256(component.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Independent Philox stream for ``component`` under a master seed.

    The seed is an integer in [0, 2^64), so no two seeds share a stream; any
    other value (a bool included) is an input error.
    """
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2**64):
        raise InputError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    key = np.array([np.uint64(seed),
                    np.uint64(component_stream_id(component))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """u = bits / 2^64 for the stream's next raw 64-bit outputs, one per entry."""
    return rng.bit_generator.random_raw(shape) / 2.0**64


def _inverse_cdf(weights: np.ndarray, u) -> np.ndarray | int:
    """The inverse-CDF index of a row of ``weights``, or of each row of a 2-D
    stack, for one uniform ``u`` per row: the first index whose running sum
    exceeds u times the total, so ties and rounding resolve toward lower ones,
    capped at the last index of positive weight (u rounds to 1.0 for the top
    2^10 bit patterns, and a zero tail's running sums equal the total).

    A stack of two or more rows is copied transposed into an (N, rows)
    buffer, padded to an even width, and summed down axis 0 by
    :func:`~kernelbandits.weights._running_sums`, two rounds per add; each
    round's sums still add its weights one at a time in index order, so they
    have the bits of the row's own cumsum.  A row, and a one-row stack, keep
    the plain cumsum, which needs no buffer.  ``weights`` is not written."""
    if weights.ndim == 1:
        cum = weights.cumsum()
        # searchsorted(side="right") on the nondecreasing sums but the last;
        # only a draw of the last index can have zero weight, and only it is capped
        i = np.count_nonzero(cum[:-1] <= u * cum[-1])
        return i if weights[i] > 0 else weights.size - 1 - (weights[::-1] > 0).argmax()
    rows, num = weights.shape
    if rows == 1:
        cum = weights.cumsum(axis=-1).T
    else:
        buf = np.empty((num, rows + rows % 2))
        buf[:, rows:] = 0.0
        buf[:, :rows] = weights.T
        cum = _running_sums(buf)[:, :rows]
    idx = (cum[:-1] <= u * cum[-1]).sum(axis=0)
    if not weights[:, -1].all():
        zero = np.flatnonzero(weights[np.arange(idx.size), idx] == 0)
        idx[zero] = num - 1 - (weights[zero, ::-1] > 0).argmax(axis=-1)
    return idx


def sample_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray | int:
    """One draw per row of ``weights`` by :func:`_inverse_cdf`, from one
    :func:`_uniforms` call; a 1-D vector is the one-row case."""
    return _inverse_cdf(weights, _uniforms(rng, weights.shape[:-1]))
