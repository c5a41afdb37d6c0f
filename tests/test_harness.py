import hashlib
import math

import numpy as np
import pytest

from kernelbandits import bandit, harness
from kernelbandits.cli import parse_adversary
from kernelbandits.errors import (
    HorizonTooShortError,
    IllConditionedCovarianceError,
    InputError,
    InvalidCombinationError,
    PreconditionError,
)
from kernelbandits.fullinfo import full_info_eta
from kernelbandits.harness import (
    _LOSS_BLOCK_ROWS,
    ExperimentConfig,
    PeriodicAdversary,
    ScheduleAdversary,
    ball_directions,
    best_in_hindsight,
    build_trace,
    emit_trace,
    parse_trace,
    run_experiment,
    schedule_hash,
    unit_vector_adversary,
)
from kernelbandits.kernels import (
    ExplicitVector,
    KernelSpec,
    RankOne,
    Schedule,
    loss_matrix,
    make_explicit,
)
from kernelbandits.rng import component_rng
from oracles import listed_schedule

LINEAR = KernelSpec.linear(G=1.0)


def test_best_in_hindsight_examples():
    actions = np.eye(2)
    w = make_explicit(LINEAR, np.array([1.0, 0.0]))
    idx, total = best_in_hindsight(LINEAR, actions, [w] * 10)
    assert idx == 1 and total == 0.0

    single = np.array([[0.3, 0.4]])
    idx, total = best_in_hindsight(LINEAR, single, [w] * 3)
    assert idx == 0 and total == pytest.approx(0.9)


def test_best_in_hindsight_matches_summation_oracle():
    rng = component_rng(0, "hind")
    actions = rng.standard_normal((10, 3))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    schedule = unit_vector_adversary(3).materialize(100, component_rng(1, "adv"))
    idx, total = best_in_hindsight(LINEAR, actions, schedule)
    per_action = np.zeros(10)
    for w in schedule:
        per_action += loss_matrix(LINEAR, actions, [w])[0]
    assert idx == int(np.argmin(per_action))
    assert total == pytest.approx(per_action.min(), abs=1e-12)
    # the winner is no worse than every fixed action
    assert np.all(total <= per_action + 1e-12)

    # schedules of either kind longer than two row blocks, against the
    # per-round loss oracle
    quad = KernelSpec.quadratic(G=2.0)
    n = 2 * _LOSS_BLOCK_ROWS + 500
    explicit = rng.standard_normal((n, 12))
    explicit *= 1.5 / np.linalg.norm(explicit, axis=1)[:, None]
    for schedule in (list(unit_vector_adversary(3).materialize(n, component_rng(2, "adv"))),
                     [make_explicit(quad, w) for w in explicit]):
        oracle = np.stack([loss_matrix(quad, actions, [w])[0] for w in schedule])
        per_action = oracle.sum(axis=0)
        idx, total = best_in_hindsight(quad, actions, schedule)
        assert idx == int(np.argmin(per_action))
        assert total == pytest.approx(per_action.min(), abs=1e-9)
        played = rng.integers(0, 10, size=n)
        losses = oracle[np.arange(n), played]
        trace = build_trace(quad, actions, schedule, losses, played)
        expected = np.cumsum(losses) - np.cumsum(oracle[:, idx])
        assert np.abs(trace.regret_curve - expected).max() <= 1e-9

    # explicit actions have no meaning under the Gaussian kernel
    gauss = KernelSpec.gaussian(1.0)
    with pytest.raises(InvalidCombinationError):
        best_in_hindsight(gauss, actions, [ExplicitVector(np.zeros(3))] * 3)


def test_ties_break_to_lowest_index():
    actions = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = make_explicit(LINEAR, np.array([-1.0, 0.0]))
    idx, _ = best_in_hindsight(LINEAR, actions, [w] * 5)
    assert idx == 0


def test_trace_regret_accounting():
    actions = np.eye(2)
    w = make_explicit(LINEAR, np.array([1.0, 0.0]))
    # pretend the player always chose action 0 (loss 1 per round)
    losses = np.ones(4)
    trace = build_trace(LINEAR, actions, [w] * 4, losses, np.zeros(4, dtype=int))
    assert trace.best_action_index == 1
    assert trace.best_fixed_cum_loss == 0.0
    assert np.array_equal(trace.regret_curve, [1.0, 2.0, 3.0, 4.0])
    assert trace.final_regret == 4.0
    assert trace.losses.sum() == 4.0
    assert trace.pseudo_regret_curve is None and trace.final_pseudo_regret is None
    # a play distribution with half its mass on each action expects 0.5;
    # run_experiment's traces take the best action from the learner's totals
    trace = harness._regret_trace(LINEAR, actions, Schedule.of([w] * 4), losses,
                                  np.zeros(4, dtype=int), np.full(4, 0.5), 1, 0.0)
    assert np.array_equal(trace.pseudo_regret_curve, [0.5, 1.0, 1.5, 2.0])
    assert trace.final_regret == 4.0


def test_always_best_player_has_zero_regret():
    # the best action's column of L comes from full-width rows, the bits the
    # learners observe, so a player who always plays it, charged those
    # losses, has a regret curve of exactly 0 (a one-action column takes
    # another numpy kernel and drifted by up to 2.5e-14 here)
    actions, n = ball_directions(64), 2000
    schedule = unit_vector_adversary(2).materialize(n, component_rng(0, "adversary"))
    best, _ = best_in_hindsight(LINEAR, actions, schedule)
    rows = _LOSS_BLOCK_ROWS
    losses = np.concatenate([loss_matrix(LINEAR, actions, schedule[t:t + rows])[:, best]
                             for t in range(0, n, rows)])
    trace = build_trace(LINEAR, actions, schedule, losses, np.full(n, best))
    assert trace.best_action_index == best
    assert np.array_equal(trace.regret_curve, np.zeros(n))


@pytest.mark.parametrize("algo", ["fullinfo_ew", "bandit_ew", "cg"])
def test_loss_matrix_rows_per_run(monkeypatch, algo):
    # every learner returns its loss totals, so a run forms L at most twice
    # per seed: in the learner's pass (none for CG) and for the best
    # action's column, counted over every module that imports loss_matrix
    import kernelbandits.bandit as bandit_mod
    import kernelbandits.fullinfo as fullinfo_mod
    import kernelbandits.kernels as kernels_mod

    rows = []

    def counted(spec, actions, schedule):
        rows.append(len(Schedule.of(schedule)))
        return loss_matrix(spec, actions, schedule)

    for module in (kernels_mod, harness, fullinfo_mod, bandit_mod):
        monkeypatch.setattr(module, "loss_matrix", counted)
    n, seeds = 600, (0, 1)
    config = ExperimentConfig(algo=algo, kernel=LINEAR, actions=ball_directions(8),
                              adversary=unit_vector_adversary(2), n=n, seeds=seeds,
                              proxy_m=2)
    run_experiment(config)
    assert 0 < sum(rows) <= 2 * n * len(seeds)


@pytest.mark.filterwarnings("ignore::kernelbandits.errors.DegenerateSpectrumWarning")
@pytest.mark.parametrize("algo", ["fullinfo_ew", "bandit_ew", "cg"])
def test_record_views_match_run_experiment(algo):
    # the benchmark times run_full_info_ew, run_cg and run_bandit after its
    # own phased set-up and checks their records against run_experiment's
    # trace (bench/workloads.py::check_experiment); on its tiny shapes the
    # index and loss bytes must agree, and the best action's column sum must
    # be the least within 1e-9 n
    from kernelbandits import bandit, fullinfo, proxy
    from kernelbandits.kernels import cross_gram
    from oracles import fibonacci_sphere

    kernel, actions, n = {
        "fullinfo_ew": (LINEAR, ball_directions(8), 300),
        "bandit_ew": (KernelSpec.gaussian(2.0), fibonacci_sphere(20), 300),
        "cg": (KernelSpec.quadratic(), fibonacci_sphere(20), 50)}[algo]
    num = actions.shape[0]
    schedule = unit_vector_adversary(actions.shape[1]).materialize(
        n, component_rng(0, "adversary"))
    rng = component_rng(0, "player")
    if algo == "fullinfo_ew":
        eta = fullinfo.full_info_eta(num, kernel.norm_bound_G, n)
        records, _ = fullinfo.run_full_info_ew(kernel, actions, schedule, eta, rng)
    elif algo == "cg":
        records, _ = fullinfo.run_cg(kernel, actions, schedule,
                                     fullinfo.cg_theorem_config(n), rng)
    else:
        basis = proxy.build_proxy(kernel, actions, m=num, p=2 * num,
                                  rng=component_rng(0, "proxy"))
        features, nu, _ = bandit.prepare_bandit_features(basis, actions)
        eps = proxy.approximation_sup_error(kernel, basis, actions)
        bcfg = bandit.general_theorem_config(num, n, kernel.norm_bound_G,
                                             features.shape[1], eps=eps)
        records, _ = bandit.run_bandit(kernel, actions, features, nu, bcfg, schedule, rng)
    config = ExperimentConfig(algo=algo, kernel=kernel, actions=actions,
                              adversary=unit_vector_adversary(actions.shape[1]), n=n)
    result = run_experiment(config)
    trace = result.traces[0]
    if algo == "bandit_ew":
        assert result.details["bandit_config"] == bcfg
    idx = np.array([r.action_index for r in records], dtype=np.int64)
    losses = np.array([r.loss for r in records])
    assert idx.tobytes() == trace.action_indices.astype(np.int64).tobytes()
    assert losses.tobytes() == trace.losses.tobytes()
    columns = cross_gram(kernel, schedule.gathered(), actions).sum(axis=0)
    assert columns[trace.best_action_index] <= columns.min() + 1e-9 * n


@pytest.mark.parametrize("algo, params, message", [
    ("fullinfo_ew", {}, "missing eta"),
    ("bandit_ew", {"eta": 0.1}, "missing gamma"),
    ("cg", {"c": 2.0}, "missing eta"),
    ("fullinfo_ew", {"eta": 0.1, "gamma": 0.5}, "'gamma' is not one of eta"),
    ("cg", {"eta": 0.1, "c": 2.0, "n": 10}, "'n' is not one of eta, c"),
    ("bandit_ew", {"eta": True, "gamma": 0.5}, "'eta' must be a number"),
    ("cg", {"eta": 0.1, "c": "2"}, "'c' must be a number"),
    ("fullinfo_ew", {"eta": None}, "'eta' must be a number"),
    ("cg", {"eta": 0.1, "c": lambda t: 1.0}, "'c' must be a number"),
    ("fullinfo_ew", "theorem", "must be 'paper' or a dict"),
])
def test_explicit_params_follow_one_rule(algo, params, message):
    # every algorithm's explicit params are the real numbers under its keys
    # in _PARAM_KEYS: a missing required key, a key it does not read and a
    # value that is not a real number are refused before any run
    with pytest.raises(InputError, match=message):
        ExperimentConfig(algo=algo, kernel=LINEAR, actions=ball_directions(4),
                         adversary=unit_vector_adversary(2), n=10, params=params)


def test_explicit_params_are_stored_with_their_defaults():
    config = ExperimentConfig(algo="bandit_ew", kernel=LINEAR, actions=ball_directions(4),
                              adversary=unit_vector_adversary(2), n=10,
                              params={"gamma": np.float64(0.5), "eta": 1})
    assert config.params == {"eta": 1, "gamma": 0.5, "eps": 0.0}


@pytest.mark.parametrize("algo, resolver, params", [
    ("fullinfo_ew", "full_info_eta", {"eta": full_info_eta(8, 1.0, 30)}),
    ("cg", "cg_theorem_config", {"eta": 0.5 * 30 ** -0.75, "c": 2.0}),
])
def test_run_experiment_resolves_the_schedule_once(monkeypatch, algo, resolver, params):
    # the theorem schedule depends on n and the action set, not on the seed
    calls, resolve = [], getattr(harness._fullinfo, resolver)
    monkeypatch.setattr(harness._fullinfo, resolver,
                        lambda *args: calls.append(args) or resolve(*args))
    result = run_experiment(ExperimentConfig(
        algo=algo, kernel=LINEAR, actions=ball_directions(8),
        adversary=unit_vector_adversary(2), n=30, seeds=(0, 1, 2)))
    assert len(calls) == 1 and len(result.traces) == 3
    assert result.details["params"] == params


def test_run_experiment_single_round_nonnegative_regret():
    actions = ball_directions(6)
    config = ExperimentConfig(
        algo="fullinfo_ew", kernel=LINEAR, actions=actions,
        adversary=unit_vector_adversary(2), n=1, seeds=(0, 1, 2),
        params={"eta": 0.5},
    )
    result = run_experiment(config)
    for trace in result.traces:
        assert trace.regret_curve[0] >= -1e-9


def test_zero_adversary_gives_zero_regret():
    actions = ball_directions(5)
    zero = PeriodicAdversary((make_explicit(LINEAR, np.zeros(2)),))
    config = ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR,
                              actions=actions, adversary=zero, n=20,
                              seeds=(0,), params={"eta": 0.1})
    result = run_experiment(config)
    assert result.traces[0].losses.sum() == 0.0
    assert result.traces[0].final_regret == 0.0


def test_final_regret_nonnegative_over_seeds():
    actions = ball_directions(8)
    config = ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR,
                              actions=actions,
                              adversary=unit_vector_adversary(2), n=300,
                              seeds=tuple(range(5)), params="paper")
    result = run_experiment(config)
    # Realized regret is pseudo-regret plus a zero-mean martingale and may be
    # negative on a single run; pseudo-regret is bounded pathwise.  With a
    # uniform start and constant eta, Jensen on the potential round by round
    # gives, for every loss sequence,
    #   sum_t <p_t, l_t> >= -(1/eta) log((1/N) sum_a exp(-eta L_n(a)))
    #                    >= min_a L_n(a),
    # so EW never beats the best fixed action in expectation over its own
    # draws.
    for trace in result.traces:
        assert trace.final_pseudo_regret >= -1e-9


def test_pseudo_regret_on_alternating_losses():
    # Losses (1, -1), (-1, 1), ... on two actions: the uniform play of each
    # odd round expects 0, and each even round's play, tilted toward the
    # action that lost -1 a round before, expects tanh(eta).  Playing after
    # the update would give -tanh(eta) on odd rounds instead.
    y = np.array([1.0, 0.0])
    config = ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR,
                              actions=ball_directions(2),
                              adversary=PeriodicAdversary((RankOne(y), RankOne(-y))),
                              n=20, seeds=(0,), params={"eta": 0.5})
    trace = run_experiment(config).traces[0]
    assert trace.best_fixed_cum_loss == pytest.approx(0.0, abs=1e-12)
    assert trace.final_pseudo_regret == pytest.approx(10 * np.tanh(0.5), rel=1e-12)


@pytest.mark.parametrize("n", [1000, 20_000])
def test_ew_pseudo_regret_meets_the_pathwise_bound(n):
    # Exponential weights from a uniform start, with eta |l_t(a)| <= 1 on
    # every round, satisfies on every loss sequence and at every prefix t,
    # against any fixed action (Auer, Cesa-Bianchi, Freund & Schapire 2002):
    #   pseudo-regret_t <= log N / eta + eta (e - 2) sum_s <p_s, l_s^2>
    #                   <= log N / eta + eta (e - 2) G^4 t.
    # The bound is pathwise, not in expectation, so every seed and schedule
    # must meet it on every prefix, with no statistical slack.
    actions = ball_directions(64)
    G = LINEAR.norm_bound_G
    eta = full_info_eta(actions.shape[0], G, n)
    assert eta * G**2 <= 1.0  # |l_t(a)| <= G^2, so eta |l_t(a)| <= 1
    bound = (math.log(actions.shape[0]) / eta
             + eta * (math.e - 2.0) * G**4 * np.arange(1, n + 1))
    y = np.array([0.6, 0.8])
    adversaries = {"iid": unit_vector_adversary(2),
                   "alternating": PeriodicAdversary((RankOne(y), RankOne(-y))),
                   "fixed": PeriodicAdversary((RankOne(y),))}
    for name, adversary in adversaries.items():
        config = ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR, actions=actions,
                                  adversary=adversary, n=n, seeds=(0, 1, 2))
        for trace in run_experiment(config).traces:
            assert np.all(trace.pseudo_regret_curve <= bound), name


def test_horizon_validation():
    with pytest.raises(InputError):
        ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR,
                         actions=ball_directions(4),
                         adversary=unit_vector_adversary(2), n=0)
    with pytest.raises(InputError):
        ExperimentConfig(algo="nope", kernel=LINEAR,
                         actions=ball_directions(4),
                         adversary=unit_vector_adversary(2), n=5)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unit_vector_adversary_matches_sequential_draws(d):
    # one batched draw must give the bits of n sequential draws, each
    # divided by its np.linalg.norm, on the same stream
    n = 500
    schedule = unit_vector_adversary(d).materialize(n, component_rng(d, "adversary"))
    rng = component_rng(d, "adversary")
    want = []
    for _ in range(n):
        v = rng.standard_normal(d)
        want.append(v / np.linalg.norm(v))
    assert all(isinstance(w, RankOne) for w in schedule)
    assert np.array_equal(np.array([w.y for w in schedule]), np.array(want))


def test_unit_vector_adversary_redraws_zero_rows():
    class ZeroRowFirst:
        """Stand-in generator: all ones, except a zero row in the first draw."""

        def __init__(self):
            self.calls = 0

        def standard_normal(self, size):
            self.calls += 1
            out = np.ones(size)
            if self.calls == 1:
                out[1] = 0.0
            return out

    rows = np.array([w.y for w in unit_vector_adversary(2).materialize(3, ZeroRowFirst())])
    assert np.allclose(rows, np.sqrt(0.5))


def test_emit_parse_round_trip(tmp_path):
    actions = ball_directions(6)
    schedule = unit_vector_adversary(2).materialize(25, component_rng(2, "adv"))
    rng = component_rng(3, "player")
    losses = rng.standard_normal(25) * 0.3
    idxs = rng.integers(0, 6, size=25)
    trace = build_trace(LINEAR, actions, schedule, losses, idxs)
    path = tmp_path / "trace.csv"
    emit_trace(trace, path, config_echo={"algo": "demo"})
    parsed = parse_trace(path)
    assert np.array_equal(parsed["loss"], trace.losses)
    assert np.array_equal(parsed["action_index"], trace.action_indices)
    assert np.array_equal(parsed["cum_regret"], trace.regret_curve)
    assert np.array_equal(parsed["cum_loss"], np.cumsum(trace.losses))
    header = path.read_text().split("\n")[1]
    assert header == "round,action_index,loss,cum_loss,cum_regret"


# sha256 of the CSV that test_emit_trace_bytes_are_pinned writes.  It moved
# when the best action's column of L came from full-width rows instead of
# one-action rows: only cum_regret changed, on 337 of 600 rows, by at most
# 7.1e-15; the indices and losses kept their bytes
_EMIT_TRACE_SHA256 = "d5c14de4246e3b8ad7c003ebd2a50667382b59ab1a1cdee2df467da5e5ca05f5"


def test_emit_trace_bytes_are_pinned(tmp_path):
    actions = component_rng(5, "fi-actions").standard_normal((24, 3))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    config = ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR, actions=actions,
                              adversary=unit_vector_adversary(3), n=600, seeds=(0,))
    path = tmp_path / "trace.csv"
    emit_trace(run_experiment(config).traces[0], path,
               config_echo={"algo": "fullinfo_ew", "seed": 0})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _EMIT_TRACE_SHA256


def test_seed_determinism_identical_bytes(tmp_path):
    actions = ball_directions(8)
    config = ExperimentConfig(algo="cg", kernel=LINEAR, actions=actions,
                              adversary=unit_vector_adversary(2), n=50,
                              seeds=(0, 1), params="paper")
    blobs = []
    for run in range(2):
        result = run_experiment(config)
        path = tmp_path / f"{run}.csv"
        emit_trace(result.traces[0], path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_obliviousness_schedule_fixed_across_player_seeds():
    # the schedule depends on the seed alone, never on the player facing it
    actions = ball_directions(8)
    players = (("fullinfo_ew", {"eta": 0.2}), ("fullinfo_ew", {"eta": 5.0}),
               ("cg", "paper"))

    def hashes(seed):
        return {run_experiment(ExperimentConfig(
                    algo=algo, kernel=LINEAR, actions=actions,
                    adversary=unit_vector_adversary(2), n=40, seeds=(seed,),
                    params=params)).schedule_hashes[0]
                for algo, params in players}

    first = hashes(12345)
    assert len(first) == 1
    assert hashes(17) != first


def test_periodic_and_schedule_adversaries():
    a = RankOne(np.array([1.0, 0.0]))
    b = RankOne(np.array([0.0, 1.0]))
    per = PeriodicAdversary((a, b))
    sched = per.materialize(5, component_rng(4, "adv"))
    # the schedule holds arrays, so its rows are new objects with a's and
    # b's kind and bytes, in the order a, b, a, b, a
    assert [type(s) for s in sched] == [RankOne] * 5
    assert [s.y.tobytes() for s in sched] == [w.y.tobytes() for w in (a, b, a, b, a)]
    with pytest.raises(InputError):
        PeriodicAdversary(())

    explicit = ScheduleAdversary((a, b, a))
    assert len(explicit.materialize(3, component_rng(5, "adv"))) == 3
    with pytest.raises(InputError):
        explicit.materialize(4, component_rng(6, "adv"))


def _row_bytes(w) -> bytes:
    return np.asarray(w.y if type(w) is RankOne else w.w, dtype=np.float64).tobytes()


def test_schedules_iterate_to_the_former_lists(tmp_path):
    # every adversary materializes a Schedule whose rows, built on demand,
    # have the kinds and bytes of the list of objects it used to return
    quad = KernelSpec.quadratic(G=2.0)
    points = component_rng(3, "listed-points").standard_normal((7, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    csv = tmp_path / "points.csv"
    np.savetxt(csv, points, delimiter=",")
    explicit = (make_explicit(quad, np.arange(12.0) / 40),
                make_explicit(quad, -np.arange(12.0) / 50),
                make_explicit(quad, np.arange(12.0) / 40))
    adversaries = {
        "iid": unit_vector_adversary(3),
        "periodic-explicit": PeriodicAdversary(explicit),
        "schedule-explicit": ScheduleAdversary(explicit * 3),
        "cli-fixed": parse_adversary("fixed:" + ",".join(["0.1"] * 12), quad, 3),
        "cli-fixed-point": parse_adversary("fixed-point:0.6,0,0.8", quad, 3),
        "cli-zero": parse_adversary("zero", quad, 3),
        "cli-periodic": parse_adversary(f"periodic:{csv}", quad, 3),
        "cli-schedule": parse_adversary(f"schedule:{csv}", quad, 3),
    }
    for name, adversary in adversaries.items():
        n = 7 if name == "cli-schedule" else 9
        schedule = adversary.materialize(n, component_rng(4, "adversary"))
        want = listed_schedule(adversary, n, component_rng(4, "adversary"))
        assert isinstance(schedule, Schedule) and len(schedule) == n, name
        assert [type(w) for w in schedule] == [type(w) for w in want], name
        assert [_row_bytes(w) for w in schedule] == [_row_bytes(w) for w in want], name
        assert schedule_hash(schedule) == schedule_hash(want), name


@pytest.mark.parametrize("algo", ["fullinfo_ew", "cg"])
def test_run_experiment_builds_no_action_objects(monkeypatch, algo):
    # the i.i.d. schedule is drawn as arrays, and the hash, the learner and
    # the accounting read those arrays: no RankOne is built for any round
    import kernelbandits.fullinfo as fullinfo_mod
    import kernelbandits.harness as harness_mod
    import kernelbandits.kernels as kernels_mod

    built = []

    class CountedRankOne(kernels_mod.RankOne):
        def __init__(self, y):
            built.append(1)
            super().__init__(y)

    for module in (kernels_mod, harness_mod, fullinfo_mod):
        monkeypatch.setattr(module, "RankOne", CountedRankOne, raising=False)
    config = ExperimentConfig(algo=algo, kernel=LINEAR, actions=ball_directions(8),
                              adversary=unit_vector_adversary(2), n=600, seeds=(0,))
    assert len(run_experiment(config).traces[0].losses) == 600
    assert built == []
    # the counter sees rows that are built
    next(iter(unit_vector_adversary(2).materialize(3, component_rng(0, "adv"))))
    assert built == [1]



def test_schedule_hash_reads_the_rows_in_order_across_blocks():
    # the hash reads the rows a block at a time; on either kind of schedule
    # the digest must be that of the byte stream built row by row
    points = component_rng(8, "hash-points").standard_normal((700, 3))
    vectors = component_rng(8, "hash-vectors").standard_normal((700, 5))
    for rows in ([RankOne(y) for y in points], [ExplicitVector(w) for w in vectors]):
        for n in (255, 256, 257, 513, 700):
            want = hashlib.sha256(np.int64(n).tobytes())
            want.update(np.array([type(w) is RankOne for w in rows[:n]]).tobytes())
            want.update(np.array([len(_row_bytes(w)) // 8 for w in rows[:n]],
                                 dtype=np.int64).tobytes())
            for w in rows[:n]:
                want.update(_row_bytes(w))
            for schedule in (rows[:n], Schedule.of(rows)[:n]):
                assert schedule_hash(schedule) == want.hexdigest(), (type(rows[0]), n)


def test_explicit_schedules_store_each_row_once():
    # a fixed or zero adversary stores its one vector, not n copies, a
    # periodic one its k actions, and hashing and scoring a stored-once
    # schedule hold a block of rows, not n of them
    import tracemalloc

    quad = KernelSpec.quadratic(G=2.0)
    d, n = 16, 20000  # D = 272: n explicit rows would take 43.5 MB
    actions = component_rng(2, "flat-actions").standard_normal((8, d))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    for spec in ("zero", "fixed:" + ",".join(["0.01"] * 272)):
        schedule = parse_adversary(spec, quad, d).materialize(n, component_rng(0, "adv"))
        assert len(schedule) == n and schedule.rows.shape == (1, 272), spec
        assert not schedule.rank_one, spec
        tracemalloc.start()
        try:
            schedule_hash(schedule)
            build_trace(quad, actions, schedule, np.zeros(n), np.zeros(n, dtype=int))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, (spec, peak)

    a, b = RankOne(np.array([0.6, 0.8])), RankOne(np.array([0.0, 1.0]))
    periodic = PeriodicAdversary((a, b, a)).materialize(n, component_rng(0, "adv"))
    assert len(periodic) == n and periodic.rows.shape == (3, 2)


def test_schedule_hash_distinguishes_content():
    a = RankOne(np.array([1.0, 0.0]))
    b = RankOne(np.array([0.0, 1.0]))
    assert schedule_hash([a, b]) != schedule_hash([b, a])
    assert schedule_hash([a, b]) == schedule_hash([a, b])
    # same payload bytes, different kind or row split
    assert schedule_hash([a]) != schedule_hash([ExplicitVector(np.array([1.0, 0.0]))])
    assert schedule_hash([a, b]) != schedule_hash([RankOne(np.array([1.0, 0.0, 0.0, 1.0]))])


def test_schedule_hash_bytes_are_pinned():
    # a digest recorded before the hash moved to type() checks and one
    # fromiter of the row lengths; a faster hash must keep the same bytes
    schedule = unit_vector_adversary(3).materialize(1000, component_rng(0, "adversary"))
    assert schedule_hash(schedule) == (
        "30b901af41e59af2915f3160d4c8b0f6fa1a9da8171a738e0513871dfbcefdd1")


_OBSERVED_KERNELS = {"linear": (KernelSpec.linear(), 3),
                     "quadratic": (KernelSpec.quadratic(), 9),
                     "gaussian": (KernelSpec.gaussian(0.5), 15)}


@pytest.mark.parametrize("algo", ["bandit_ew", "fullinfo_ew"])
@pytest.mark.parametrize("name", list(_OBSERVED_KERNELS))
def test_learners_observe_the_charged_loss_matrix_entries(algo, name):
    # the loss a learner observes is the entry of the loss matrix that the
    # regret accounting charges, bit for bit, on both sides of a block edge
    kernel, m = _OBSERVED_KERNELS[name]
    actions = component_rng(21, "observed-actions").standard_normal((20, 3))
    actions /= 1.25 * np.linalg.norm(actions, axis=1)[:, None]
    params = {"eta": 0.05, "gamma": 0.5} if algo == "bandit_ew" else {"eta": 0.05}
    config = ExperimentConfig(algo=algo, kernel=kernel, actions=actions,
                              adversary=unit_vector_adversary(3), n=300, seeds=(0, 1),
                              params=params, proxy_m=m)
    result = run_experiment(config)
    for seed, trace in zip(config.seeds, result.traces):
        schedule = config.adversary.materialize(config.n, component_rng(seed, "adversary"))
        L = loss_matrix(kernel, actions, schedule)
        charged = L[np.arange(config.n), trace.action_indices]
        assert trace.losses.tobytes() == charged.tobytes(), seed


def test_bandit_experiment_end_to_end():
    rng = component_rng(7, "acts")
    actions = rng.standard_normal((12, 3))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    config = ExperimentConfig(algo="bandit_ew", kernel=LINEAR, actions=actions,
                              adversary=unit_vector_adversary(3), n=400,
                              seeds=(0, 1), params="paper", proxy_m=3,
                              proxy_p=30)
    result = run_experiment(config)
    assert len(result.traces) == 2
    assert "bandit_config" in result.details
    cfg = result.details["bandit_config"]
    assert cfg.gamma <= 1.0
    assert result.details["design"]["center_offset"] >= 0.0


def test_bandit_run_certifies_once_for_all_seeds(monkeypatch):
    # on the complement path (20 circle directions, gaussian:0.5, m = 15):
    # one certificate, and so one complete QR, per run_experiment call,
    # shared by every seed
    calls = {"qr": 0, "certify": 0}
    qr, certify = np.linalg.qr, bandit._certify_run

    def counting_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def counting_certify(*args):
        calls["certify"] += 1
        return certify(*args)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(bandit, "_certify_run", counting_certify)
    config = ExperimentConfig(algo="bandit_ew", kernel=KernelSpec.gaussian(0.5),
                              actions=ball_directions(20),
                              adversary=unit_vector_adversary(2), n=60, seeds=(0, 1, 2),
                              params={"eta": 0.05, "gamma": 0.5}, proxy_m=15, proxy_p=40)
    result = run_experiment(config)
    assert len(result.traces) == 3
    assert result.details["bandit_estimator"]["path"] == "complement"
    assert calls == {"qr": 1, "certify": 1}


def test_bandit_explicit_gamma_is_checked():
    # explicit parameters bypass the theorem schedule; 0 < gamma <= 1 must
    # still be refused before round one, not run or fail on the covariance
    rng = component_rng(7, "acts")
    actions = rng.standard_normal((12, 3))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    for gamma, error in ((1.5, HorizonTooShortError), (0.0, PreconditionError),
                         (-0.2, PreconditionError)):
        config = ExperimentConfig(algo="bandit_ew", kernel=LINEAR, actions=actions,
                                  adversary=unit_vector_adversary(3), n=50,
                                  params={"eta": 0.1, "gamma": gamma}, proxy_m=3,
                                  proxy_p=30)
        with pytest.raises(error) as err:
            run_experiment(config)
        assert not isinstance(err.value, IllConditionedCovarianceError)
