"""Seeded workloads, their timed operations and their output checks.

Every input is generated here from the workload seed; the package sees only
the resulting arrays and public calls.  Learner workloads run one
``harness.run_experiment`` per operation and, separately, the same public
functions it calls in the same order ("phased"): set-up, then one play call.
The sampler workload runs one set of chains per operation.

The traced pass steps through the per-round public functions that the
``run_*`` loops call, timing each call from here; no timer lives inside the
package.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from kernelbandits import bandit, design, fullinfo, harness, kernels, proxy, quadratic
from kernelbandits.kernels import KernelSpec
from kernelbandits.rng import component_rng
from kernelbandits.weights import WeightState

from mcmc import bulk_ess, split_rhat

LOSS_TOL = 1e-9       # per-round loss: cross_gram against scalar kernel_eval
KW_TOL = 1e-6         # Kiefer-Wolfowitz certificate slack, as in d_optimal_design
CHECK_ROWS = 4096     # loss-matrix rows per chunk, so checks add little memory


# --------------------------------------------------------------------------
# inputs


def rotated_lattice(num: int, seed: int) -> np.ndarray:
    """Fibonacci points on the unit sphere in R^3 under a seeded rotation.

    Rotation-invariant kernels see the same Gram matrix for every seed, so
    the proxy rank, approximation error and theorem schedule do not depend
    on the seed; i.i.d. sphere samples gave gamma > 1 on some seeds.
    """
    i = np.arange(num) + 0.5
    z = 1.0 - 2.0 * i / num
    r = np.sqrt(1.0 - z * z)
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    lattice = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    pts = lattice @ haar_orthogonal(3, np.random.default_rng(seed)).T
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class LearnerSpec:
    algo: str
    kernel: KernelSpec
    actions: np.ndarray
    n: int
    seed: int

    def config(self) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            algo=self.algo, kernel=self.kernel, actions=self.actions,
            adversary=harness.unit_vector_adversary(self.actions.shape[1]),
            n=self.n, seeds=(self.seed,))


@dataclass(frozen=True)
class SamplerSpec:
    objective: quadratic.QuadraticObjective
    eigvecs: np.ndarray     # columns: eigen-directions of B
    chains: int
    count: int
    burn_in: int | None     # None: the sampler's default, 1000 * d
    seed: int

    @property
    def steps_per_chain(self) -> int:
        d = self.objective.b.size
        return (1000 * d if self.burn_in is None else self.burn_in) + self.count

    def chain_seeds(self, set_index: int) -> list[int]:
        rng = np.random.default_rng([self.seed, set_index])
        return [int(s) for s in rng.integers(0, 2**63, size=self.chains)]


SAMPLER_SPECTRUM = (3.0, 1.0, 0.0, -2.0, -5.0)

# name -> (kind, full size, tiny size); tiny sizes exercise the same code
# paths in well under a second, for warm-up and self-tests.
WORKLOADS = {
    "bandit-gauss150": ("learner",
                        dict(algo="bandit_ew", kernel="gaussian", points=150, n=1000),
                        dict(algo="bandit_ew", kernel="gaussian-wide", points=20, n=300)),
    "cg-quad200": ("learner",
                   dict(algo="cg", kernel="quadratic", points=200, n=1000),
                   dict(algo="cg", kernel="quadratic", points=20, n=50)),
    "ew-ball64-long": ("learner",
                       dict(algo="fullinfo_ew", kernel="linear", ball=64, n=20_000),
                       dict(algo="fullinfo_ew", kernel="linear", ball=8, n=300)),
    "quad-sampler-d5": ("sampler",
                        dict(chains=4, count=20_000, burn_in=None),
                        dict(chains=4, count=200, burn_in=100)),
}

KERNELS = {
    "gaussian": KernelSpec.gaussian(0.5),
    "gaussian-wide": KernelSpec.gaussian(2.0),
    "quadratic": KernelSpec.quadratic(),
    "linear": KernelSpec.linear(),
}


def make_spec(name: str, seed: int, tiny: bool = False):
    kind, full, small = WORKLOADS[name]
    size = small if tiny else full
    if kind == "sampler":
        rng = np.random.default_rng(seed)
        q = haar_orthogonal(len(SAMPLER_SPECTRUM), rng)
        B = q @ np.diag(SAMPLER_SPECTRUM) @ q.T
        obj = quadratic.QuadraticObjective(0.5 * (B + B.T), np.zeros(B.shape[0]))
        _, vecs = np.linalg.eigh(obj.B)
        return SamplerSpec(obj, vecs, size["chains"], size["count"], size["burn_in"],
                           seed)
    if "ball" in size:
        actions = harness.ball_directions(size["ball"])
    else:
        actions = rotated_lattice(size["points"], seed)
    return LearnerSpec(size["algo"], KERNELS[size["kernel"]], actions, size["n"], seed)


# --------------------------------------------------------------------------
# learner operations


@dataclass
class Setup:
    schedule: list
    schedule_hash: str
    bandit_ctx: tuple | None = None     # (features, design, BanditConfig)
    eta: float | None = None
    cg_config: fullinfo.CGConfig | None = None


def learner_setup(spec: LearnerSpec) -> Setup:
    """Everything run_experiment does before round one, in its order."""
    kernel, actions, n = spec.kernel, spec.actions, spec.n
    num = actions.shape[0]
    ctx = None
    if spec.algo == "bandit_ew":
        basis = proxy.build_proxy(kernel, actions, m=num, p=2 * num,
                                  rng=component_rng(0, "proxy"))
        features, nu, _ = bandit.prepare_bandit_features(basis, actions)
        eps = proxy.approximation_sup_error(kernel, basis, actions)
        bcfg = bandit.general_theorem_config(num, n, kernel.norm_bound_G,
                                             features.shape[1], eps=eps)
        ctx = (features, nu, bcfg)
    adversary = harness.unit_vector_adversary(actions.shape[1])
    schedule = adversary.materialize(n, component_rng(spec.seed, "adversary"))
    setup = Setup(schedule, harness.schedule_hash(schedule), ctx)
    if spec.algo == "fullinfo_ew":
        setup.eta = fullinfo.full_info_eta(num, kernel.norm_bound_G, n)
    elif spec.algo == "cg":
        setup.cg_config = fullinfo.cg_theorem_config(n)
    return setup


def learner_play(spec: LearnerSpec, setup: Setup) -> list:
    """The public play call that follows the set-up; returns its records."""
    rng = component_rng(spec.seed, "player")
    if spec.algo == "bandit_ew":
        features, nu, bcfg = setup.bandit_ctx
        records, _ = bandit.run_bandit(spec.kernel, spec.actions, features, nu, bcfg,
                                       setup.schedule, rng)
    elif spec.algo == "fullinfo_ew":
        records, _ = fullinfo.run_full_info_ew(spec.kernel, spec.actions,
                                               setup.schedule, setup.eta, rng)
    else:
        records, _ = fullinfo.run_cg(spec.kernel, spec.actions, setup.schedule,
                                     setup.cg_config, rng)
    return records


def records_arrays(records) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([r.action_index for r in records], dtype=np.int64)
    losses = np.array([r.loss for r in records], dtype=float)
    return idx, losses


def trace_hash(idx: np.ndarray, losses: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(idx, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(losses, dtype=np.float64).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# learner checks; each returns a list of problems, empty when correct


def schedule_points(schedule) -> np.ndarray:
    return np.stack([w.y for w in schedule])


def check_trace(spec: LearnerSpec, points: np.ndarray, losses: np.ndarray,
                played: np.ndarray | None, best_index: int | None = None,
                final_regret: float | None = None) -> list[str]:
    """Compare a trace with the loss matrix L = cross_gram(schedule, actions).

    ``played`` holds the action-set index played each round.  CG records
    index the atoms of the current combination instead, which cannot be
    resolved from outside a finished run; with ``played`` None each loss
    must then equal some entry of its row of L.  L is built in row chunks,
    so the check adds little to the process's peak memory.
    """
    n, num = points.shape[0], spec.actions.shape[0]
    if losses.shape != (n,):
        return [f"trace has {losses.size} rounds, expected {n}"]
    if played is not None and (played.shape != (n,) or played.min() < 0
                               or played.max() >= num):
        return ["action index out of range"]
    matched = np.empty(n, dtype=bool)
    colsum = np.zeros(num)
    for start in range(0, n, CHECK_ROWS):
        stop = min(start + CHECK_ROWS, n)
        block = kernels.cross_gram(spec.kernel, points[start:stop], spec.actions)
        colsum += block.sum(axis=0)
        lo = losses[start:stop]
        if played is None:
            matched[start:stop] = np.any(np.abs(block - lo[:, None]) <= LOSS_TOL, axis=1)
        else:
            own = block[np.arange(stop - start), played[start:stop]]
            matched[start:stop] = np.abs(own - lo) <= LOSS_TOL
    problems = []
    if not matched.all():
        t = int(np.flatnonzero(~matched)[0])
        problems.append(f"{int((~matched).sum())} losses do not match L; first at "
                        f"round {t + 1}: {losses[t]!r}")
    total_tol = LOSS_TOL * n
    if best_index is not None and colsum[best_index] > colsum.min() + total_tol:
        problems.append(f"best action {best_index} is not argmin of the column sums "
                        f"({int(np.argmin(colsum))})")
    if final_regret is not None:
        expected = losses.sum() - colsum.min()
        if abs(final_regret - expected) > total_tol:
            problems.append(f"final regret {final_regret!r} != {expected!r}")
    return problems


def played_indices(spec: LearnerSpec, idx: np.ndarray) -> np.ndarray | None:
    """Action-set indices of a trace, when its records index the action set."""
    return None if spec.algo == "cg" else idx


def kw_ratio(features: np.ndarray, nu: design.DiscreteDistribution) -> float:
    """max_i f_i^T Sigma^-1 f_i / m for the design covariance Sigma."""
    sigma = features.T @ (features * nu.weights[:, None])
    g = np.einsum("ij,ji->i", features, np.linalg.solve(sigma, features.T))
    return float(g.max() / features.shape[1])


def check_setup(spec: LearnerSpec, setup: Setup) -> list[str]:
    if setup.bandit_ctx is None:
        return []
    features, nu, bcfg = setup.bandit_ctx
    problems = []
    ratio = kw_ratio(features, nu)
    if ratio > 1.0 + KW_TOL:
        problems.append(f"Kiefer-Wolfowitz certificate fails: max g / m = {ratio!r}")
    if not bcfg.gamma <= 1.0:
        problems.append(f"gamma = {bcfg.gamma!r} exceeds 1")
    return problems


def check_experiment(spec: LearnerSpec, setup: Setup, result,
                     reference: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """run_experiment output against the loss matrix and the phased run."""
    trace = result.traces[0]
    problems = check_trace(spec, schedule_points(setup.schedule), trace.losses,
                           played_indices(spec, trace.action_indices),
                           trace.best_action_index, trace.final_regret)
    if result.schedule_hashes != [setup.schedule_hash]:
        problems.append("schedule hash differs from the phased set-up")
    if trace_hash(trace.action_indices, trace.losses) != trace_hash(*reference):
        problems.append("trace differs from the phased run")
    if setup.bandit_ctx is not None and \
            result.details.get("bandit_config") != setup.bandit_ctx[2]:
        problems.append("BanditConfig differs from the phased set-up")
    return problems


# --------------------------------------------------------------------------
# sampler operations and checks


def sampler_chains(spec: SamplerSpec, seeds: list[int], count: int | None = None):
    count = spec.count if count is None else count
    return [quadratic.quad_ew_sample(spec.objective, count, burn_in=spec.burn_in,
                                     rng=component_rng(s, "quad-sampler"))
            for s in seeds]


def check_draws(draws: np.ndarray) -> list[str]:
    draws = np.asarray(draws)
    if not np.all(np.isfinite(draws)):
        return ["non-finite draw"]
    worst = float(np.max(np.sum(draws * draws, axis=-1)))
    if worst > 1.0 + 1e-12:
        return [f"draw outside the unit ball: squared norm {worst!r}"]
    return []


def sampler_diagnostics(spec: SamplerSpec, chains: list[np.ndarray]) -> dict:
    """Bulk ESS and split-R-hat per eigen-direction of B (min / max)."""
    proj = np.stack([c @ spec.eigvecs for c in chains])   # (chains, draws, d)
    ess = [bulk_ess(proj[:, :, k]) for k in range(proj.shape[2])]
    rhat = [split_rhat(proj[:, :, k]) for k in range(proj.shape[2])]
    acf1 = float(np.mean([quadratic.chain_autocorrelation(c) for c in chains]))
    return {"ess_min": min(ess), "rhat_max": max(rhat), "acf1": acf1}


def draws_hash(chains: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for c in chains:
        h.update(np.ascontiguousarray(c, dtype=np.float64).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# traced pass


class Spans:
    """Durations by span name, kept in memory, in nanoseconds."""

    def __init__(self):
        self.ns: dict[str, list[int]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.ns.setdefault(name, []).append(time.perf_counter_ns() - t0)
        return out

    def seconds(self, name: str) -> float:
        return sum(self.ns.get(name, ())) * 1e-9

    def total_seconds(self) -> float:
        return sum(self.seconds(name) for name in self.ns)

    def percentile_us(self, name: str, q: float) -> float:
        values = self.ns.get(name)
        return float(np.percentile(values, q)) * 1e-3 if values else 0.0


def traced_learner(spec: LearnerSpec, spans: Spans):
    """run_experiment, stepped through its public calls one by one.

    Every span recorded here covers work run_experiment does.  Returns
    (setup, RegretTrace, per-round records, action-set index played per round).
    """
    kernel, actions, n = spec.kernel, spec.actions, spec.n
    num = actions.shape[0]
    ctx = None
    if spec.algo == "bandit_ew":
        basis = spans.call("proxy.build", proxy.build_proxy, kernel, actions, m=num,
                           p=2 * num, rng=component_rng(0, "proxy"))
        feats = spans.call("proxy.features", proxy.proxy_features, basis, actions)
        reduced, _ = spans.call("design.reduce", design.reduce_to_span, feats)
        if reduced.shape[1] < feats.shape[1]:
            feats = reduced
        nu = spans.call("design.dopt", design.d_optimal_design, feats)
        feats = spans.call("design.whiten", design.whiten_features, feats, nu)
        eps = spans.call("proxy.sup_error", proxy.approximation_sup_error, kernel,
                         basis, actions)
        bcfg = spans.call("bandit.config", bandit.general_theorem_config, num, n,
                          kernel.norm_bound_G, feats.shape[1], eps=eps)
        ctx = (feats, nu, bcfg)
    adversary = harness.unit_vector_adversary(actions.shape[1])
    schedule = spans.call("harness.materialize", adversary.materialize, n,
                          component_rng(spec.seed, "adversary"))
    shash = spans.call("harness.schedule_hash", harness.schedule_hash, schedule)
    setup = Setup(schedule, shash, ctx)

    rng = component_rng(spec.seed, "player")
    records, played = [], []
    if spec.algo == "bandit_ew":
        features, nu, bcfg = ctx
        state = WeightState.uniform(num)
        for w_t in schedule:
            state, rec = spans.call("bandit.round", bandit.bandit_round, state, bcfg,
                                    kernel, actions, features, nu, w_t, rng)
            records.append(rec)
    elif spec.algo == "fullinfo_ew":
        setup.eta = fullinfo.full_info_eta(num, kernel.norm_bound_G, n)
        state = WeightState.uniform(num)
        for w_t in schedule:
            state, rec = spans.call("fullinfo.ew_round", fullinfo.full_info_round, state,
                                    setup.eta, kernel, actions, w_t, rng)
            records.append(rec)
    else:
        setup.cg_config = fullinfo.cg_theorem_config(n)
        state = spans.call("fullinfo.cg_start", fullinfo.cg_start, kernel, actions[0])
        for w_t in schedule:
            atoms = state.combo.atoms
            state, rec = spans.call("fullinfo.cg_round", fullinfo.cg_round, state,
                                    setup.cg_config, kernel, actions, w_t, rng)
            records.append(rec)
            played.append(action_row(actions, atoms[rec.action_index]))
    idx, losses = records_arrays(records)
    trace = spans.call("harness.build_trace", harness.build_trace, kernel, actions,
                       schedule, losses, idx)
    played = np.array(played, dtype=np.int64) if played else idx
    return setup, trace, records, played


def action_row(actions: np.ndarray, point: np.ndarray) -> int:
    """Index of the action-set row equal to ``point``; -1 if there is none."""
    rows = np.flatnonzero((actions == point).all(axis=1))
    return int(rows[0]) if rows.size else -1


def traced_extras(spec: LearnerSpec, setup: Setup, trace, spans: Spans) -> None:
    """Layer calls run_experiment does not make once per run on its own."""
    spans.call("harness.best_in_hindsight", harness.best_in_hindsight, spec.kernel,
               spec.actions, setup.schedule)
    points = schedule_points(setup.schedule)
    spans.call("kernels.loss_matrix", kernels.cross_gram, spec.kernel, points,
               spec.actions)
    if spec.algo == "cg":
        spans.call("kernels.feature_matrix", kernels.feature_matrix, spec.kernel,
                   spec.actions)
    fd, path = tempfile.mkstemp(suffix=".csv", dir=os.path.dirname(__file__))
    os.close(fd)
    try:
        spans.call("harness.emit_trace", harness.emit_trace, trace, path)
    finally:
        os.remove(path)
