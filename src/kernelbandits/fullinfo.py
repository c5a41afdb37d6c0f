"""Full-information algorithms: exponential weights and conditional gradient.

The adversary is oblivious, so exponential weights sees only entries of the
loss matrix L[t, j] = <Phi(a_j), w_t>, and its play distributions are a
softmax of running column sums of -eta L.  It runs as one pass over blocks
of rows of L; the single round :func:`full_info_round` is the one-row case
of the same block step.

The conditional-gradient iterate lives in the explicit feature space but is
stored as a convex combination of points, which doubles as the sampling
distribution for the play: one dense weight vector over a table of atoms.
On a finite action set the table is the action set, and the
linear-minimization oracle is the argmin row of Phi(actions) @ gradient;
on the unit ball it is the start point and one trust-region solution per
round.  :func:`_cg_play` is one pass over the row blocks of the schedule
that embeds a finite action set once.  Each block embeds its adversary
actions, and the points it played, with one call each, and draws every
round from its stored weights with one call; the state moves one round at
a time, so every output has the bits of per-round embeddings.  The single
round :func:`cg_round` is the one-row case of the same block step.

Both passes return the expected losses <p_t, l_t>, for pseudo-regret, and
the per-action loss totals; CG, which forms no L, returns <x_t, w_t> for
its iterate x_t and Phi(actions) sum_t w_t from its running adversary sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import NamedTuple

import numpy as np

from .design import DiscreteDistribution
from .errors import InputError, PreconditionError
from .kernels import (
    AdversaryAction,
    KernelSpec,
    Schedule,
    _kernel_of_pairs,
    _row_blocks,
    _row_dots,
    feature_map,
    feature_matrix,
    loss_matrix,
    validate_points,
)
from .quadratic import QuadraticObjective, trs_minimize
from .rng import sample_indices
from .weights import WeightState, _check_step_size, _running_sums, softmax

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
    """Step size eta and mixing scale c of the conditional-gradient method,
    which mixes at gamma_t = min(1, c / sqrt(t)) in round t.  eta finite and
    > 0, c finite and >= 0; the theorem schedule sets c = 2."""

    eta: float
    c: float

    def __post_init__(self):
        _check_step_size(self.eta)
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise PreconditionError(f"mixing scale c = {self.c!r}; need finite and >= 0")


@dataclass(frozen=True)
class CGState:
    """Round state: the combination, its feature-space mean maintained
    incrementally, the running sum of past adversary features, and t.

    After a round the combination's atoms are the whole atom table, zero
    weights included: the action set on a finite set.  :func:`cg_start`
    gives the one-atom combination of the start point, which the first
    round maps onto the table."""

    combo: ConvexCombination
    mean: np.ndarray
    cum_adversary: np.ndarray
    x1: np.ndarray
    t: int


class FullInfoRecord(NamedTuple):
    """One exponential-weights round.  ``expected_loss`` is <p_t, l_t>, the
    loss of the play distribution, from which pseudo-regret is accounted."""

    round: int
    action_index: int
    loss: float
    expected_loss: float


class CGRecord(NamedTuple):
    """One conditional-gradient round.  ``action_index`` is the atom-table
    row played, which is the action-set row on a finite set and, on the unit
    ball, a row of the combination's atoms; ``num_atoms`` counts the nonzero
    weights after the round."""

    round: int
    action_index: int
    loss: float
    num_atoms: int


def full_info_eta(num_actions: int, G: float, n: int) -> float:
    """Theorem step size sqrt(log|A| / (e-2)) / (G^2 sqrt(n)).

    The cardinality stands in for the volume of the action set; continuous
    sets must be discretized by the caller.  One action gives eta = 0, which
    no learner takes, so it raises PreconditionError.
    """
    if num_actions < 2:
        raise PreconditionError("need at least 2 actions")
    return math.sqrt(math.log(num_actions) / (math.e - 2.0)) / (G * G * math.sqrt(n))


def _ew_block(log_weights: np.ndarray, eta: float, L: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Exponential weights over the rows of a block of the loss matrix.

    Row t plays from the softmax of the log weights before it, then every
    log weight moves by -eta times its loss.  The log weights and the steps
    -eta L are written into one buffer, padded to an even width with a
    column that softmax and the draw never read, and summed down the rows
    by :func:`~kernelbandits.weights._running_sums`, two actions per add.
    Each action's sum still adds the steps one at a time, so each row's log
    weights have the bits of the per-round fold.  Returns the played
    indices, their losses, the expected losses <p_t, l_t> and the log
    weights after the last row.
    """
    rows, num = L.shape
    buf = np.empty((rows + 1, num + num % 2))
    buf[:, num:] = 0.0
    buf[0, :num] = log_weights
    np.multiply(L, -eta, out=buf[1:, :num])
    cum = _running_sums(buf)[:, :num]
    probs = softmax(cum[:-1])
    idx = sample_indices(probs, rng)
    losses = L[np.arange(rows), idx]
    expected = _row_dots(probs, L)
    return idx, losses, expected, cum[-1]


def full_info_round(state: WeightState, eta: float, kernel: KernelSpec,
                    actions: np.ndarray, w_t: AdversaryAction,
                    rng: np.random.Generator) -> tuple[WeightState, FullInfoRecord]:
    """One exponential-weights round: play from the pre-update distribution,
    then shift every log weight by -eta times its observed loss.  The record
    carries the realized loss and the expected loss <p_t, l_t>.

    This is the one-row case of the blocked pass in
    :func:`full_info_ew_play`, with the same bits and step-size rule."""
    _check_step_size(eta)
    L = loss_matrix(kernel, actions, [w_t])
    idx, losses, expected, log_weights = _ew_block(state.log_weights, eta, L, rng)
    return (WeightState(log_weights, state.round + 1),
            FullInfoRecord(state.round + 1, int(idx[0]), float(losses[0]),
                           float(expected[0])))


def full_info_ew_play(kernel: KernelSpec, actions: np.ndarray,
                      schedule: Schedule, eta: float,
                      rng: np.random.Generator) -> tuple:
    """Exponential weights from a uniform start over a whole schedule.

    One pass over the row blocks of the loss matrix, carrying the log
    weights between blocks, so memory stays flat in the horizon.  Every
    output has the bits of a loop of :func:`full_info_round`.
    Returns the played indices, their losses, the expected losses
    <p_t, l_t>, the per-action loss totals and the final state.  A step size
    eta that is not finite and > 0 raises PreconditionError.
    """
    _check_step_size(eta)
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    schedule = Schedule.of(schedule)
    n = len(schedule)
    log_weights, totals = np.zeros(actions.shape[0]), np.zeros(actions.shape[0])
    idx, losses, expected = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    for rows in _row_blocks(schedule):
        L = loss_matrix(kernel, actions, schedule[rows])
        totals += L.sum(axis=0)
        idx[rows], losses[rows], expected[rows], log_weights = _ew_block(
            log_weights, eta, L, rng)
    return idx, losses, expected, totals, WeightState(log_weights, n)


def run_full_info_ew(kernel: KernelSpec, actions: np.ndarray,
                     schedule: Schedule, eta: float,
                     rng: np.random.Generator) -> tuple[list[FullInfoRecord], WeightState]:
    """:func:`full_info_ew_play` with its outputs as one record per round."""
    idx, losses, expected, _, state = full_info_ew_play(kernel, actions, schedule, eta, rng)
    records = list(map(partial(tuple.__new__, FullInfoRecord),
                       zip(count(1), idx.tolist(), losses.tolist(), expected.tolist())))
    return records, state


def cg_theorem_config(n: int) -> CGConfig:
    """Schedule from the regret theorem for horizon n: eta = 1/(2 n^{3/4})
    and c = 2, so gamma_t = min(1, 2/sqrt(t))."""
    if n < 1:
        raise InputError("n must be >= 1")
    return CGConfig(eta=0.5 * n ** -0.75, c=2.0)


def cg_start(kernel: KernelSpec, a1: np.ndarray) -> CGState:
    a1 = np.asarray(a1, dtype=float)
    x1 = feature_map(kernel, a1)
    combo = ConvexCombination(a1[None, :], np.array([1.0]))
    return CGState(combo, x1.copy(), np.zeros(x1.size), x1, 1)


def _cg_table(action_set, combo: ConvexCombination, rows: int):
    """CG's atom table for a stretch of ``rows`` rounds, and ``combo``'s
    weights over it.

    A finite action set is the table, and each atom of ``combo`` maps to its
    lowest equal row, which is the row the argmin oracle picks; an atom
    outside the set raises :class:`InputError`.  On the unit ball the table
    is ``combo``'s atoms followed by one row per round, for the
    :func:`linear_min_oracle` solutions."""
    if isinstance(action_set, UnitBall):
        return np.concatenate([combo.atoms, np.empty((rows, action_set.dim))]), combo.weights
    actions, atoms = np.atleast_2d(np.asarray(action_set, dtype=float)), combo.atoms
    if np.array_equal(atoms, actions):
        return actions, combo.weights
    if atoms.shape[1] != actions.shape[1]:
        raise InputError("start atoms and actions differ in dimension")
    equal = (atoms[:, None, :] == actions).all(axis=2)
    if not equal.any(axis=1).all():
        raise InputError("a start atom is not a row of the action set")
    weights = np.zeros(actions.shape[0])
    np.add.at(weights, equal.argmax(axis=1), combo.weights)
    return actions, weights


def _cg_features(kernel: KernelSpec, action_set) -> np.ndarray | None:
    """The embedded rows of a finite action set; None on the unit ball."""
    return None if isinstance(action_set, UnitBall) else feature_matrix(kernel, action_set)


def _cg_block(state: CGState, config: CGConfig, kernel: KernelSpec, action_set,
              features: np.ndarray | None, schedule: Schedule, rng: np.random.Generator,
              ) -> tuple[CGState, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Conditional-gradient rounds over a nonempty stretch of the schedule.

    The play distribution is one dense weight vector over the atom table
    (see :func:`_cg_table`).  Each round t mixes at gamma_t = min(1, c /
    sqrt(t)): it moves the mean toward the oracle's output and the weights
    toward its row j, the lowest argmin row of ``features`` @ gradient on a
    finite set and the next row, filled by :func:`linear_min_oracle`, on
    the unit ball (``features`` None): v =
    (1 - gamma_t) w, v[j] += gamma_t, entries below ``_ATOM_PRUNE`` zeroed,
    then w = p / sum p for p = v / sum v, the two normalizations of a
    :class:`DiscreteDistribution` of p.  On the unit ball the sums run over
    the rows filled so far, as in a one-row call.  The weights are valid by
    construction: w is a distribution and gamma_t lies in [0, 1] (c >= 0),
    so v >= 0 and p sums to 1 within N u.  They never depend on the draws,
    so the stretch keeps every round's weights and draws every round with
    one :func:`~kernelbandits.rng.sample_indices` call over the columns that
    hold weight, whose rule never plays a zero weight.  The running adversary
    sums are the carried sum and the stretch's rows in one buffer, padded to
    an even width and summed down the stretch by
    :func:`~kernelbandits.weights._running_sums`, two coordinates per add;
    each coordinate still adds the rows one at a time, so its sums have the
    bits of a per-round fold.  The adversary features are the stretch's
    explicit vectors, or one :func:`feature_matrix` call on its points.
    The losses take one paired kernel call on rank-one rows, or one
    embedding of the played points and one batched row product on explicit
    rows; every output has the bits of per-round calls.  Returns the state
    after the stretch and, per round, the played table row, its loss,
    <x_t, w_t> for the mean x_t it played from and the count of nonzero
    weights.
    """
    rows = len(schedule)
    table, w = _cg_table(action_set, state.combo, rows)
    X = schedule.gathered()
    adversary = feature_matrix(kernel, X) if schedule.rank_one else X
    dim = adversary.shape[1]
    buf = np.empty((rows + 1, dim + dim % 2))
    buf[:, dim:] = 0.0
    buf[0, :dim] = state.cum_adversary
    buf[1:, :dim] = adversary
    cum = _running_sums(buf)[:, :dim]
    eta_cum = config.eta * cum[:-1]

    weights = np.zeros((rows + 1, table.shape[0]))
    live = w.size
    weights[0, :live] = w
    mean, x1, t = state.mean, state.x1, state.t
    means = np.empty((rows, x1.size))
    for i in range(rows):
        means[i] = mean
        gradient = eta_cum[i] + 2.0 * (mean - x1)
        if features is None:
            j, live = live, live + 1
            table[j] = linear_min_oracle(kernel, gradient, action_set)
            phi = feature_map(kernel, table[j])
        else:
            j = int((features @ gradient).argmin())
            phi = features[j]
        gamma_t = min(1.0, config.c / math.sqrt(t + i))
        v = (1.0 - gamma_t) * weights[i, :live]
        v[j] += gamma_t
        v[v < _ATOM_PRUNE] = 0.0
        p = v / np.add.reduce(v)
        np.divide(p, np.add.reduce(p), out=weights[i + 1, :live])
        mean = (1.0 - gamma_t) * mean + gamma_t * phi

    cols = np.flatnonzero(weights.any(axis=0))
    held = weights[:, cols]
    idx = cols[sample_indices(held[:-1], rng)]
    played = table[idx]
    losses = (_kernel_of_pairs(kernel, played, X) if schedule.rank_one
              else _row_dots(feature_matrix(kernel, played), X))
    combo = ConvexCombination(table, p)
    return (CGState(combo, mean, cum[-1], x1, t + rows), idx, losses,
            _row_dots(means, adversary), np.count_nonzero(held[1:], axis=1))


def cg_round(state: CGState, config: CGConfig, kernel: KernelSpec,
             action_set, w_t: AdversaryAction,
             rng: np.random.Generator) -> tuple[CGState, CGRecord]:
    """One conditional-gradient round.

    Plays from the current combination, observes the loss, then moves the
    mean toward the linear-minimization-oracle output with this round's
    mixing rate.  The potential at round t aggregates adversary actions
    strictly before t, so the freshly observed action enters at t + 1.

    On a finite set the state's atoms map onto the action set (see
    :func:`run_cg`) and the record's ``action_index`` is the played row.
    This is the one-row case of the blocked pass in :func:`run_cg`, with
    the same bits; it embeds a finite action set on every call.
    """
    new_state, idx, losses, _, num_atoms = _cg_block(
        state, config, kernel, action_set, _cg_features(kernel, action_set),
        Schedule.of([w_t]), rng)
    record = CGRecord(state.t, int(idx[0]), float(losses[0]), num_atoms=int(num_atoms[0]))
    return new_state, record


def _cg_play(kernel: KernelSpec, action_set, schedule: Schedule,
             config: CGConfig, rng: np.random.Generator,
             a1: np.ndarray | None = None) -> tuple:
    """Run the conditional-gradient method over a full adversary schedule.

    One pass over the row blocks of the schedule that embeds a finite
    action set once; every output has the bits of a loop of
    :func:`cg_round`.  On a finite set the start point ``a1`` (default: the
    first row) maps to its lowest equal row, and one that is not a row of
    the set raises :class:`InputError` before round one.  On a
    :class:`UnitBall` the start point is required, and one outside the ball
    (beyond the slack of ``validate_points``) or of another dimension raises
    :class:`InputError` before round one.  Returns the played rows, their
    losses, <x_t, w_t>, the action totals Phi(actions) sum_t w_t (None on
    the unit ball, which has no action set), the atom counts and the state.
    """
    if isinstance(action_set, UnitBall):
        if a1 is None:
            raise InputError("unit-ball action set needs an explicit start point")
        if validate_points(a1).shape != (1, action_set.dim):
            raise InputError(f"start point must be one point of R^{action_set.dim}")
    elif a1 is None:
        a1 = np.atleast_2d(np.asarray(action_set, dtype=float))[0]
    state = cg_start(kernel, a1)
    _cg_table(action_set, state.combo, 0)  # refuses a bad start even when no round runs
    features = _cg_features(kernel, action_set)
    schedule = Schedule.of(schedule)
    n = len(schedule)
    idx, losses, expected = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    num_atoms = np.empty(n, dtype=np.int64)
    for rows in _row_blocks(schedule):
        state, idx[rows], losses[rows], expected[rows], num_atoms[rows] = _cg_block(
            state, config, kernel, action_set, features, schedule[rows], rng)
    totals = None if features is None else features @ state.cum_adversary
    return idx, losses, expected, totals, num_atoms, state


def run_cg(kernel: KernelSpec, action_set, schedule: Schedule,
           config: CGConfig, rng: np.random.Generator,
           a1: np.ndarray | None = None) -> tuple[list[CGRecord], CGState]:
    """:func:`_cg_play` with its outputs as one record per round."""
    idx, losses, _, _, num_atoms, state = _cg_play(kernel, action_set, schedule,
                                                   config, rng, a1)
    records = list(map(partial(tuple.__new__, CGRecord),
                       zip(count(1), idx.tolist(), losses.tolist(), num_atoms.tolist())))
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
