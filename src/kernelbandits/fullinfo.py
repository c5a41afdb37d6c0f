"""Full-information algorithms: exponential weights and conditional gradient.

The adversary is oblivious, so exponential weights sees only entries of the
loss matrix L[t, j] = <Phi(a_j), w_t>, and its play distributions are a
softmax of running column sums of -eta L.  It runs as one pass over blocks
of rows of L; the single round :func:`full_info_round` is the one-row case
of the same block step.

The conditional-gradient iterate lives in the explicit feature space but is
stored as a convex combination of action points, which doubles as the
sampling distribution for the play.  :func:`run_cg` is one pass over blocks
of ``_LOSS_BLOCK_ROWS`` rounds that embeds a finite action set once: the
linear-minimization oracle is the argmin of Phi(actions) @ gradient and the
new atom's feature is a row of Phi(actions).  Each block embeds its
adversary actions, and the points it played, with one call each and draws
its randoms with one call; the state moves one round at a time, so every
output has the bits of per-round embeddings.  The single round
:func:`cg_round` is the one-row case of the same block step.  On the unit
ball the oracle is a trust-region solve per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .design import DiscreteDistribution
from .errors import InputError
from .kernels import (
    _LOSS_BLOCK_ROWS,
    AdversaryAction,
    KernelSpec,
    RankOne,
    feature_map,
    feature_matrix,
    kernel_eval,
    loss_matrix,
)
from .quadratic import QuadraticObjective, trs_minimize
from .rng import sample_indices
from .weights import WeightState, softmax

__all__ = [
    "UnitBall",
    "ConvexCombination",
    "CGConfig",
    "CGState",
    "FullInfoRecord",
    "CGRecord",
    "full_info_eta",
    "full_info_round",
    "full_info_ew_play",
    "run_full_info_ew",
    "cg_theorem_config",
    "cg_start",
    "cg_round",
    "run_cg",
    "linear_min_oracle",
]

_ATOM_PRUNE = 1e-14


@dataclass(frozen=True)
class UnitBall:
    """Continuous action set {a : ||a|| <= 1} in R^dim."""

    dim: int


@dataclass(frozen=True)
class ConvexCombination:
    """Atoms with convex weights; also the play distribution over atoms."""

    atoms: np.ndarray    # (k, d)
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if atoms.shape[0] != w.size:
            raise InputError("atom and weight counts differ")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", DiscreteDistribution(w).weights)


@dataclass(frozen=True)
class CGConfig:
    """Step size and mixing schedule for the conditional-gradient method."""

    eta: float
    gamma: Callable[[int], float]
    n: int


@dataclass(frozen=True)
class CGState:
    """Round state: the combination, its feature-space mean maintained
    incrementally, the running sum of past adversary features, and t."""

    combo: ConvexCombination
    mean: np.ndarray
    cum_adversary: np.ndarray
    x1: np.ndarray
    t: int


@dataclass(frozen=True)
class FullInfoRecord:
    """One exponential-weights round.  ``expected_loss`` is <p_t, l_t>, the
    loss of the play distribution, from which pseudo-regret is accounted."""

    round: int
    action_index: int
    loss: float
    expected_loss: float | None = None


@dataclass(frozen=True)
class CGRecord:
    round: int
    action_index: int
    loss: float
    num_atoms: int


def full_info_eta(num_actions: int, G: float, n: int) -> float:
    """Theorem step size sqrt(log|A| / (e-2)) / (G^2 sqrt(n)).

    The cardinality stands in for the volume of the action set; continuous
    sets must be discretized by the caller.
    """
    return math.sqrt(math.log(num_actions) / (math.e - 2.0)) / (G * G * math.sqrt(n))


def _ew_block(log_weights: np.ndarray, eta: float, L: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Exponential weights over the rows of a block of the loss matrix.

    Row t plays from the softmax of the log weights before it, then every
    log weight moves by -eta times its loss.  The cumulative sum down the
    stacked rows adds the steps one at a time, so each row's log weights
    have the bits of the per-round fold.  Returns the played indices, their
    losses, the expected losses <p_t, l_t> and the log weights after the
    last row.
    """
    cum = np.cumsum(np.vstack([log_weights, -eta * L]), axis=0)
    probs = softmax(cum[:-1])
    idx = sample_indices(probs, rng)
    losses = L[np.arange(L.shape[0]), idx]
    expected = np.matmul(probs[:, None, :], L[:, :, None])[:, 0, 0]
    return idx, losses, expected, cum[-1]


def full_info_round(state: WeightState, eta: float, kernel: KernelSpec,
                    actions: np.ndarray, w_t: AdversaryAction,
                    rng: np.random.Generator) -> tuple[WeightState, FullInfoRecord]:
    """One exponential-weights round: play from the pre-update distribution,
    then shift every log weight by -eta times its observed loss.  The record
    carries the realized loss and the expected loss <p_t, l_t>.

    This is the one-row case of the blocked pass in
    :func:`full_info_ew_play`, with the same bits."""
    L = loss_matrix(kernel, actions, [w_t])
    idx, losses, expected, log_weights = _ew_block(state.log_weights, eta, L, rng)
    return (WeightState(log_weights, state.round + 1),
            FullInfoRecord(state.round + 1, int(idx[0]), float(losses[0]),
                           float(expected[0])))


def full_info_ew_play(kernel: KernelSpec, actions: np.ndarray,
                      schedule: list[AdversaryAction], eta: float,
                      rng: np.random.Generator,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, WeightState]:
    """Exponential weights from a uniform start over a whole schedule.

    One pass over blocks of ``_LOSS_BLOCK_ROWS`` rows of the loss matrix,
    carrying the log weights between blocks, so memory stays flat in the
    horizon.  Every output has the bits of a loop of :func:`full_info_round`.
    Returns the played indices, their losses, the expected losses
    <p_t, l_t> and the final state.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    n = len(schedule)
    log_weights = np.zeros(actions.shape[0])
    idx, losses, expected = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    for start in range(0, n, _LOSS_BLOCK_ROWS):
        rows = slice(start, min(start + _LOSS_BLOCK_ROWS, n))
        L = loss_matrix(kernel, actions, schedule[rows])
        idx[rows], losses[rows], expected[rows], log_weights = _ew_block(
            log_weights, eta, L, rng)
    return idx, losses, expected, WeightState(log_weights, n)


def run_full_info_ew(kernel: KernelSpec, actions: np.ndarray,
                     schedule: list[AdversaryAction], eta: float,
                     rng: np.random.Generator) -> tuple[list[FullInfoRecord], WeightState]:
    """:func:`full_info_ew_play` with its outputs as one record per round."""
    idx, losses, expected, state = full_info_ew_play(kernel, actions, schedule, eta, rng)
    records = [FullInfoRecord(t, i, loss, e) for t, (i, loss, e) in
               enumerate(zip(idx.tolist(), losses.tolist(), expected.tolist()), 1)]
    return records, state


def cg_theorem_config(n: int) -> CGConfig:
    """Schedule from the regret theorem: eta = 1/(2 n^{3/4}),
    gamma_t = min(1, 2/sqrt(t))."""
    if n < 1:
        raise InputError("n must be >= 1")
    return CGConfig(eta=0.5 * n ** -0.75,
                    gamma=lambda t: min(1.0, 2.0 / math.sqrt(t)), n=n)


def cg_start(kernel: KernelSpec, a1: np.ndarray) -> CGState:
    a1 = np.asarray(a1, dtype=float)
    x1 = feature_map(kernel, a1)
    combo = ConvexCombination(a1[None, :], np.array([1.0]))
    return CGState(combo, x1.copy(), np.zeros(x1.size), x1, 1)


def _cg_oracle(kernel: KernelSpec, action_set):
    """The linear-minimization oracle as gradient -> (v, Phi(v)).

    A finite action set is embedded here, once: v is the row of the lowest
    argmin of Phi @ gradient, and Phi(v) is that row of Phi.  The unit ball
    solves :func:`linear_min_oracle` and embeds its output."""
    if isinstance(action_set, UnitBall):
        def oracle(gradient):
            v = linear_min_oracle(kernel, gradient, action_set)
            return v, feature_map(kernel, v)
        return oracle
    actions = np.atleast_2d(np.asarray(action_set, dtype=float))
    features = feature_matrix(kernel, actions)

    def oracle(gradient):
        j = int((features @ gradient).argmin())
        return actions[j], features[j]
    return oracle


def _cg_block(state: CGState, config: CGConfig, kernel: KernelSpec, oracle,
              schedule: list[AdversaryAction], rng: np.random.Generator,
              ) -> tuple[CGState, np.ndarray, np.ndarray, np.ndarray]:
    """Conditional-gradient rounds over a nonempty stretch of the schedule.

    Each round plays an atom by the inverse-CDF rule of
    :func:`~kernelbandits.rng.sample_indices` on one raw 64-bit draw (the
    stretch's draws come from one call), moves the mean toward the
    oracle's output and adds the round's adversary feature to the running
    sum.  The adversary features and the played points' explicit features
    take one :func:`feature_matrix` call each per stretch; every output has
    the bits of per-round embeddings.  Returns the state after the stretch
    and, per round, the played atom index, its loss and the atom count.
    """
    rows = len(schedule)
    rank_one = np.array([isinstance(w, RankOne) for w in schedule], dtype=bool)
    adversary = np.empty((rows, state.x1.size))
    if rank_one.any():
        adversary[rank_one] = feature_matrix(
            kernel, np.array([w.y for w in schedule if isinstance(w, RankOne)], dtype=float))
    if not rank_one.all():
        adversary[~rank_one] = np.array(
            [w.w for w in schedule if not isinstance(w, RankOne)], dtype=float)
    u = rng.bit_generator.random_raw(rows) / 2.0**64

    atoms, weights = state.combo.atoms, state.combo.weights
    mean, cum, x1, t = state.mean, state.cum_adversary, state.x1, state.t
    played = np.empty((rows, atoms.shape[1]))
    idx, num_atoms = np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.int64)
    for i in range(rows):
        running = weights.cumsum()
        k = np.count_nonzero(running[:-1] <= u[i] * running[-1])
        played[i] = atoms[k]

        gradient = config.eta * cum + 2.0 * (mean - x1)
        v_t, phi_v = oracle(gradient)
        gamma_t = config.gamma(t)
        weights = (1.0 - gamma_t) * weights
        match = (atoms == v_t).all(axis=1).nonzero()[0]
        if match.size:
            weights[match[0]] += gamma_t
        else:
            atoms, weights = np.vstack([atoms, v_t[None, :]]), np.append(weights, gamma_t)
        keep = weights >= _ATOM_PRUNE
        if not keep.all():
            atoms, weights = atoms[keep], weights[keep]
        normalized = weights / weights.sum()
        weights = DiscreteDistribution(normalized).weights

        mean = (1.0 - gamma_t) * mean + gamma_t * phi_v
        cum = cum + adversary[i]
        idx[i], num_atoms[i] = k, weights.size
        t += 1

    features = None if rank_one.all() else feature_matrix(kernel, played)
    losses = np.array([kernel_eval(kernel, played[i], w.y) if rank_one[i]
                       else float(features[i] @ w.w) for i, w in enumerate(schedule)])
    combo = ConvexCombination(atoms, normalized)
    return CGState(combo, mean, cum, x1, t), idx, losses, num_atoms


def cg_round(state: CGState, config: CGConfig, kernel: KernelSpec,
             action_set, w_t: AdversaryAction,
             rng: np.random.Generator) -> tuple[CGState, CGRecord]:
    """One conditional-gradient round.

    Plays from the current combination, observes the loss, then moves the
    mean toward the linear-minimization-oracle output with this round's
    mixing rate.  The potential at round t aggregates adversary actions
    strictly before t, so the freshly observed action enters at t + 1.

    This is the one-row case of the blocked pass in :func:`run_cg`, with
    the same bits; it embeds a finite action set on every call.
    """
    new_state, idx, losses, num_atoms = _cg_block(
        state, config, kernel, _cg_oracle(kernel, action_set), [w_t], rng)
    record = CGRecord(state.t, int(idx[0]), float(losses[0]), num_atoms=int(num_atoms[0]))
    return new_state, record


def run_cg(kernel: KernelSpec, action_set, schedule: list[AdversaryAction],
           config: CGConfig, rng: np.random.Generator,
           a1: np.ndarray | None = None) -> tuple[list[CGRecord], CGState]:
    """Run the conditional-gradient method over a full adversary schedule.

    One pass over blocks of ``_LOSS_BLOCK_ROWS`` rounds that embeds a finite
    action set once; every output has the bits of a loop of
    :func:`cg_round`.
    """
    if a1 is None:
        if isinstance(action_set, UnitBall):
            raise InputError("unit-ball action set needs an explicit start point")
        a1 = np.atleast_2d(np.asarray(action_set, dtype=float))[0]
    state = cg_start(kernel, a1)
    oracle = _cg_oracle(kernel, action_set)
    n = len(schedule)
    idx, losses = np.empty(n, dtype=np.int64), np.empty(n)
    num_atoms = np.empty(n, dtype=np.int64)
    for start in range(0, n, _LOSS_BLOCK_ROWS):
        rows = slice(start, min(start + _LOSS_BLOCK_ROWS, n))
        state, idx[rows], losses[rows], num_atoms[rows] = _cg_block(
            state, config, kernel, oracle, schedule[rows], rng)
    records = [CGRecord(t, i, loss, k) for t, (i, loss, k) in
               enumerate(zip(idx.tolist(), losses.tolist(), num_atoms.tolist()), 1)]
    return records, state


def linear_min_oracle(kernel: KernelSpec, gradient: np.ndarray, ball: UnitBall) -> np.ndarray:
    """Global minimizer of <gradient, Phi(a)> over the unit ball.

    Closed-form for the linear kernel and a trust-region subproblem for the
    quadratic kernel; other kernels are unsupported.  A finite action set
    needs no solver: :func:`run_cg` takes the argmin of its embedded rows.
    """
    gradient = np.asarray(gradient, dtype=float)
    d = ball.dim
    if kernel.variant == "linear":
        norm = np.linalg.norm(gradient)
        return -gradient / norm if norm > 0 else np.zeros(d)
    if kernel.variant == "quadratic":
        M = gradient[: d * d].reshape(d, d)
        B = 0.5 * (M + M.T)
        b = gradient[d * d:]
        point, _ = trs_minimize(QuadraticObjective(B, b))
        return point
    raise InputError(
        f"unit-ball linear minimization is unsupported for the "
        f"{kernel.variant} kernel"
    )
