"""Log-domain multiplicative weights over a finite action set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["WeightState", "softmax"]


def softmax(log_weights: np.ndarray) -> np.ndarray:
    """Normalized probabilities along the last axis, with max subtraction;
    never overflows.  A 1-D vector is the one-row case of a stack of rows,
    and each row gets the same bits either way."""
    shifted = log_weights - log_weights.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=-1, keepdims=True)


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
