"""Log-domain multiplicative weights over a finite action set."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError

__all__ = ["WeightState", "softmax"]


def _check_step_size(eta: float) -> None:
    """The one step-size rule of every learner: eta finite and > 0."""
    if not (eta > 0.0 and math.isfinite(eta)):
        raise PreconditionError(f"step size eta = {eta!r}; need finite and > 0")


def _running_sums(buf: np.ndarray) -> np.ndarray:
    """Running sums down axis 0 of a C-contiguous (r, 2c) float64 ``buf``,
    in place, two columns per add; returns ``buf``.

    It views ``buf`` as (r, c) complex128, whose add is two independent
    IEEE double adds, one per column of a pair, so every entry has the bits
    of ``np.cumsum(buf, axis=0)``: each column is still summed one row at a
    time, in row order.  The two columns share one pass, about half the
    time of a float64 cumsum down the same block.  Callers pad an odd width
    with a column they never read."""
    pairs = buf.view(np.complex128)
    np.cumsum(pairs, axis=0, out=pairs)
    return buf


def softmax(log_weights: np.ndarray) -> np.ndarray:
    """Normalized probabilities along the last axis, with max subtraction;
    never overflows.  A 1-D vector is the one-row case of a stack of rows,
    and each row gets the same bits either way.  It makes one array of the
    input's shape, the shifted log weights, and exponentiates and normalizes
    that array in place into the result; ``log_weights`` is not written."""
    shifted = log_weights - log_weights.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


@dataclass(frozen=True)
class WeightState:
    """Exponential-weights state: unnormalized log weights plus round count.

    The log weights are the plain running sum of the steps, never re-centred,
    so they grow like eta times the cumulative loss and stay finite for any
    finite losses.  Probabilities are materialized at read time only, and
    :func:`softmax` subtracts the maximum there, so no exponent overflows.
    """

    log_weights: np.ndarray
    round: int = 0

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        if not np.all(np.isfinite(lw)):
            raise InputError("log weights must be finite")
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def uniform(cls, n: int) -> "WeightState":
        return cls(np.zeros(n), 0)
