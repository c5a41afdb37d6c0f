"""Adversarial online learning with kernel losses.

Finite-dimensional proxy kernels built by kernel PCA, exponential weights
under bandit and full-information feedback, an online conditional-gradient
method, quadratic-loss oracles and samplers, and a seeded simulation harness
that measures expected regret against the theory's bounds.

Import each name from its module (``kernelbandits.bandit``,
``kernelbandits.harness``, ...); each module's ``__all__`` lists its public
names.
"""

__version__ = "0.1.0"
