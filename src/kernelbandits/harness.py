"""Adversary generators, regret accounting and experiment orchestration.

An adversary materializes its full action schedule before round one
(obliviousness), as one :class:`kernels.Schedule`: one kind for every row
(rank-one points or explicit vectors), the array of stored rows and a
per-row index into it, built once per run; rows that mix the two kinds
are refused.  The i.i.d. unit-vector adversary draws it as one (n, d)
Gaussian array with normalized rows; the periodic adversary stores its k
actions once and indexes them in turn, and the explicit adversary gathers
its actions once.  The schedule hash, the learners and the accounting read
blocks of rows of those arrays, and every loss the accounting needs is an
entry of one loss matrix L[t, j] = <Phi(a_j), w_t>
(:func:`kernels.loss_matrix`).  Regret compares the player's cumulative loss
with the best single action over the whole horizon, the argmin of L's
column sums; that action's column of full-width rows of L, the bits the
learners observe, gives the partial sums that define the regret curve.
``final_regret`` is realized regret: the losses of the actions actually
drawn, so it carries the player's sampling noise and can be negative on a
single run.  Expected regret is estimated by averaging final regrets over
seeds, with a standard error attached.

The learners are one table, ``_LEARNERS``; nothing else branches on the
algorithm.  :func:`run_experiment` resolves its entry once and runs one seed
loop, whose every play returns the played indices and losses, the expected
losses <p_t, l_t> and the per-action loss totals; the best action comes from
those totals, so L is formed twice per run.  The traces carry pseudo-regret,
sum_t <p_t, l_t> - min_a L_n(a), the quantity the regret theorems bound; it
alone is bounded pathwise (for exponential weights from a uniform start it
is >= 0 on every loss sequence, and at most log N / eta + eta (e - 2) G^4 t
at every prefix t when eta G^2 <= 1).
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bandit as _bandit
from . import fullinfo as _fullinfo
from .errors import InputError
from .kernels import (
    KernelSpec,
    Schedule,
    _row_blocks,
    check_norm_bound,
    loss_matrix,
    validate_points,
)
from .proxy import build_proxy, approximation_sup_error
from .rng import component_rng

__all__ = [
    "PeriodicAdversary",
    "ScheduleAdversary",
    "unit_vector_adversary",
    "schedule_hash",
    "RegretTrace",
    "best_in_hindsight",
    "build_trace",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "emit_trace",
    "parse_trace",
    "ball_directions",
]


@dataclass(frozen=True)
class PeriodicAdversary:
    """Cycles through a fixed list of actions; a single action is a fixed
    adversary."""

    actions: tuple

    def __post_init__(self):
        if len(self.actions) == 0:
            raise InputError("periodic adversary needs at least one action")

    def materialize(self, n: int, rng: np.random.Generator) -> Schedule:
        return Schedule.of(self.actions)[np.arange(n) % len(self.actions)]


@dataclass(frozen=True)
class ScheduleAdversary:
    """Explicit precomputed schedule."""

    schedule: tuple

    def materialize(self, n: int, rng: np.random.Generator) -> Schedule:
        if len(self.schedule) < n:
            raise InputError(f"schedule has {len(self.schedule)} < n = {n} actions")
        return Schedule.of(self.schedule[:n])


@dataclass(frozen=True)
class _UnitVectorAdversary:
    d: int

    def materialize(self, n: int, rng: np.random.Generator) -> Schedule:
        # one (n, d) draw equals n sequential standard_normal(d) draws, and a
        # batched row product gives the norm bits of np.linalg.norm(v) per row
        # (np.linalg.norm(V, axis=1) and einsum round differently)
        V = rng.standard_normal((n, self.d))
        norms = np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])
        for t in np.flatnonzero(norms == 0.0):  # never divide by a zero norm
            while norms[t] == 0.0:
                V[t] = rng.standard_normal(self.d)
                norms[t] = np.linalg.norm(V[t])
        return Schedule(True, np.arange(n), V / norms[:, None])


def unit_vector_adversary(d: int) -> _UnitVectorAdversary:
    """I.i.d. uniformly random unit vectors in R^d, played as rank-one actions.

    ``materialize(n, rng)`` draws all n Gaussian vectors in one call and
    normalizes each row, and the normalized array is the schedule's points;
    a zero row (probability zero) is redrawn.
    """
    return _UnitVectorAdversary(d)


def schedule_hash(schedule: Schedule) -> str:
    """Content hash of a materialized schedule (obliviousness witness).

    SHA-256 of the row count, each row's kind (rank-one or explicit) and
    length, and then every row's float64 payload (its point or its vector)
    in row order.  The payloads are read one row block at a time, so memory
    stays flat in the horizon.
    """
    schedule = Schedule.of(schedule)
    n, rows, index = len(schedule), schedule.rows, schedule.index
    h = hashlib.sha256(np.int64(n).tobytes())
    h.update(np.full(n, schedule.rank_one).tobytes())
    h.update(np.full(n, rows.shape[1], dtype=np.int64).tobytes())
    for block in _row_blocks(schedule):
        h.update(np.asarray(rows[index[block]], dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RegretTrace:
    """Per-round losses and the regret bookkeeping against hindsight.

    ``regret_curve`` and ``final_regret`` are realized regret.
    ``pseudo_regret_curve`` is the same bookkeeping on the expected losses
    <p_t, l_t>, which every learner of :func:`run_experiment` records; it is
    None on a :func:`build_trace` trace, which has realized losses only.
    """

    losses: np.ndarray
    action_indices: np.ndarray
    best_action_index: int
    best_fixed_cum_loss: float
    regret_curve: np.ndarray
    pseudo_regret_curve: np.ndarray | None = None

    @property
    def final_regret(self) -> float:
        return float(self.regret_curve[-1])

    @property
    def final_pseudo_regret(self) -> float | None:
        if self.pseudo_regret_curve is None:
            return None
        return float(self.pseudo_regret_curve[-1])


def best_in_hindsight(kernel: KernelSpec, actions: np.ndarray,
                      schedule: Schedule) -> tuple[int, float]:
    """Exact enumeration of the best fixed action; ties to the lowest index.

    The column sums of the loss matrix are accumulated over the row blocks
    of the schedule, so memory stays flat in the horizon.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    schedule = Schedule.of(schedule)
    totals = np.zeros(actions.shape[0])
    for rows in _row_blocks(schedule):
        totals += loss_matrix(kernel, actions, schedule[rows]).sum(axis=0)
    idx = int(np.argmin(totals))
    return idx, float(totals[idx])


def build_trace(kernel: KernelSpec, actions: np.ndarray,
                schedule: Schedule, losses: np.ndarray,
                action_indices: np.ndarray) -> RegretTrace:
    """Realized regret of the per-round ``losses`` against the best fixed
    action of :func:`best_in_hindsight` (no pseudo-regret curve); its column
    takes a second pass over L, as in :func:`run_experiment`."""
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    schedule = Schedule.of(schedule)
    return _regret_trace(kernel, actions, schedule, losses, action_indices, None,
                         *best_in_hindsight(kernel, actions, schedule))


def _regret_trace(kernel: KernelSpec, actions: np.ndarray, schedule: Schedule, losses,
                  action_indices, expected_losses, best_idx, best_total) -> RegretTrace:
    """The trace against a known best action, whose column of full-width
    rows of L, the bits the learners observe, is formed here."""
    best_per_round = np.empty(len(schedule))
    for rows in _row_blocks(schedule):
        best_per_round[rows] = loss_matrix(kernel, actions, schedule[rows])[:, best_idx]
    best_cum = np.cumsum(best_per_round)
    losses = np.asarray(losses, dtype=float)
    pseudo = (None if expected_losses is None
              else np.cumsum(np.asarray(expected_losses, dtype=float)) - best_cum)
    return RegretTrace(losses=losses, action_indices=np.asarray(action_indices, dtype=int),
                       best_action_index=best_idx, best_fixed_cum_loss=best_total,
                       regret_curve=np.cumsum(losses) - best_cum, pseudo_regret_curve=pseudo)


@dataclass
class ExperimentConfig:
    """Everything a run needs; randomness derives from the seed list, except
    the bandit's proxy basis, which every run draws from seed 0.

    ``params`` is either the string "paper" (theorem schedules) or a dict of
    explicit schedule parameters, real numbers under the algorithm's keys in
    ``_LEARNERS``: eta and gamma (eps optional, default 0) for the bandit,
    eta for full-information exponential weights, and eta and c, for
    gamma_t = min(1, c / sqrt(t)), for conditional gradient.  A missing
    required key, a key the algorithm does not read and a value that is not
    a real number (bools included) are input errors; the dict is stored with
    its defaults filled in, and the ranges are checked by the learner's own
    config.  Each run seed gets its own adversary stream and its own trace,
    so a repeated seed is an input error.  The bandit's proxy basis samples
    ``proxy_p`` actions (default: twice the number of actions) and keeps
    ``proxy_m`` eigenvectors (default: the whole sampled spectrum above the
    eigenvalue floor).
    """

    algo: str  # a key of _LEARNERS
    kernel: KernelSpec
    actions: np.ndarray
    adversary: object
    n: int
    seeds: tuple = (0,)
    params: object = "paper"
    proxy_p: int | None = None
    proxy_m: int | None = None

    def __post_init__(self):
        if self.algo not in _LEARNERS:
            raise InputError(f"algo {self.algo!r} is not one of {', '.join(_LEARNERS)}")
        if self.n < 1:
            raise InputError("horizon n must be >= 1")
        if len(self.seeds) < 1:
            raise InputError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise InputError(f"seeds repeat: {self.seeds!r}")
        if self.params != "paper":
            keys = _LEARNERS[self.algo][0]
            if not isinstance(self.params, dict):
                raise InputError(f"{self.algo} params must be 'paper' or a dict of "
                                 f"{', '.join(keys)}; got {self.params!r}")
            for key, value in self.params.items():
                if key not in keys:
                    raise InputError(f"{self.algo} params: {key!r} is not one of "
                                     f"{', '.join(keys)}")
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise InputError(f"{self.algo} params: {key!r} must be a number, "
                                     f"got {value!r}")
            missing = [key for key, default in keys.items()
                       if default is None and key not in self.params]
            if missing:
                raise InputError(f"{self.algo} params: missing {', '.join(missing)}")
            self.params = {key: self.params.get(key, default)
                           for key, default in keys.items()}
        self.actions = validate_points(self.actions)
        check_norm_bound(self.kernel, self.actions)


@dataclass
class ExperimentResult:
    traces: list[RegretTrace]
    mean_final_regret: float
    stderr_final_regret: float
    schedule_hashes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _bandit_setup(config: ExperimentConfig):
    kernel, actions = config.kernel, config.actions
    num_actions = actions.shape[0]
    p = 2 * num_actions if config.proxy_p is None else config.proxy_p
    basis = build_proxy(kernel, actions, m=config.proxy_m, p=p,
                        rng=component_rng(0, "proxy"))
    features, nu, center_offset = _bandit.prepare_bandit_features(basis, actions)
    m = features.shape[1]
    if config.params == "paper":
        eps_hat = approximation_sup_error(kernel, basis, actions)
        bcfg = _bandit.general_theorem_config(num_actions, config.n,
                                              kernel.norm_bound_G, m, eps=eps_hat)
    else:
        bcfg = _bandit.BanditConfig(**config.params, m=m, n=config.n)
    return features, nu, bcfg, center_offset


def _bandit_learner(config: ExperimentConfig, details: dict):
    kernel, actions = config.kernel, config.actions
    features, nu, bcfg, center_offset = _bandit_setup(config)
    certificate = _bandit._certify_run(bcfg, features, nu)
    details["params"] = {key: getattr(bcfg, key) for key in _LEARNERS[config.algo][0]}
    details["bandit_config"] = bcfg
    # whitening makes the design covariance I/m, so in exact arithmetic
    # ||f_i||^2 = f_i^T Sigma_nu^-1 f_i / m: the largest squared row norm
    # is the Kiefer-Wolfowitz ratio max_i g_i / m
    details["design"] = {"kw_ratio": certificate.kw_ratio, "center_offset": center_offset}
    details["covariance_floor"] = {"floor": certificate.floor,
                                   "certified_lower_bound": certificate.bound}
    estimator = details["bandit_estimator"] = dict(certificate.estimator)
    bound = _bandit.theorem_regret_bound(bcfg, kernel.norm_bound_G, actions.shape[0])
    details["theorem_bound"] = bound
    details["vacuous"] = bound >= 2.0 * kernel.norm_bound_G**2 * bcfg.n

    def play(schedule, rng):
        out = _bandit._bandit_play(kernel, actions, features, nu, bcfg, schedule, rng,
                                   certificate)
        # the analysis needs eta |l-hat_t(a)| <= 1 on every seed and round (a
        # running max of the products: rounding by eta > 0 is monotone)
        estimator["max_eta_loss_hat"] = max(estimator.get("max_eta_loss_hat", 0.0),
                                            bcfg.eta * float(out[4].max()))
        return out
    return play


def _ew_learner(config: ExperimentConfig, details: dict):
    kernel, actions = config.kernel, config.actions
    eta = (_fullinfo.full_info_eta(actions.shape[0], kernel.norm_bound_G, config.n)
           if config.params == "paper" else config.params["eta"])
    details["params"] = {"eta": eta}
    return lambda schedule, rng: _fullinfo.full_info_ew_play(kernel, actions, schedule,
                                                             eta, rng)


def _cg_learner(config: ExperimentConfig, details: dict):
    cg_config = (_fullinfo.cg_theorem_config(config.n) if config.params == "paper"
                 else _fullinfo.CGConfig(**config.params))
    details["params"] = asdict(cg_config)
    return lambda schedule, rng: _fullinfo._cg_play(
        config.kernel, config.actions, schedule, cg_config, rng)


# each algorithm's explicit-param keys with their defaults (None: required),
# and its resolver: the run's once-per-call work, which writes ``details``
# and returns play(schedule, rng)
_LEARNERS = {
    "bandit_ew": ({"eta": None, "gamma": None, "eps": 0.0}, _bandit_learner),
    "fullinfo_ew": ({"eta": None}, _ew_learner),
    "cg": ({"eta": None, "c": None}, _cg_learner),
}


def _mean_and_stderr(finals: list[float]) -> tuple[float, float]:
    """Mean of per-seed final values and its standard error (0 for one seed)."""
    finals = np.array(finals)
    stderr = float(finals.std(ddof=1) / math.sqrt(len(finals))) if len(finals) > 1 else 0.0
    return float(finals.mean()), stderr


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One trace per seed, each with its realized and pseudo-regret; mean
    final regret with its standard error.  ``details["params"]`` holds the
    schedule, resolved once per call, as the explicit params that replay it."""
    details: dict = {}
    play = _LEARNERS[config.algo][1](config, details)
    traces, hashes = [], []
    for seed in config.seeds:
        schedule = Schedule.of(config.adversary.materialize(
            config.n, component_rng(seed, "adversary")))
        hashes.append(schedule_hash(schedule))
        idxs, losses, expected, totals = play(schedule, component_rng(seed, "player"))[:4]
        best = int(np.argmin(totals))
        traces.append(_regret_trace(config.kernel, config.actions, schedule, losses, idxs,
                                    expected, best, float(totals[best])))
    mean, stderr = _mean_and_stderr([t.final_regret for t in traces])
    return ExperimentResult(traces, mean, stderr, hashes, details)


def emit_trace(trace: RegretTrace, path, config_echo: dict | None = None) -> None:
    """Deterministic CSV: round,action_index,loss,cum_loss,cum_regret."""
    lines = []
    if config_echo:
        import json

        lines.append("# " + json.dumps(config_echo, sort_keys=True))
    lines.append("round,action_index,loss,cum_loss,cum_regret")
    # cumsum adds the losses one at a time, the bits of a running sum
    columns = (trace.action_indices.tolist(), trace.losses.tolist(),
               np.cumsum(trace.losses).tolist(), trace.regret_curve.tolist())
    lines.extend(f"{t},{i},{loss:.17g},{cum:.17g},{regret:.17g}"
                 for t, (i, loss, cum, regret) in enumerate(zip(*columns), 1))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_trace(path) -> dict:
    """Parse an emitted trace back into column arrays (value-exact)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    rows = [ln for ln in lines if not ln.startswith("#")]
    header = rows[0]
    if header != "round,action_index,loss,cum_loss,cum_regret":
        raise InputError(f"unexpected trace header {header!r}")
    data = [ln.split(",") for ln in rows[1:]]
    return {
        "round": np.array([int(r[0]) for r in data]),
        "action_index": np.array([int(r[1]) for r in data]),
        "loss": np.array([float(r[2]) for r in data]),
        "cum_loss": np.array([float(r[3]) for r in data]),
        "cum_regret": np.array([float(r[4]) for r in data]),
    }


def ball_directions(k: int) -> np.ndarray:
    """k equally spaced unit vectors on the circle (planar ball cover).

    The covering radius of this set within the unit disk boundary is
    2 sin(pi / (2k)).
    """
    if k < 2:
        raise InputError("need at least 2 directions")
    angles = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])
