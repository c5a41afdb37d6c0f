import numpy as np
import pytest

from kernelbandits.errors import (
    HorizonTooShortError,
    IllConditionedCovarianceError,
    InputError,
    InvalidCombinationError,
    PreconditionError,
)
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
    loss_vector,
    make_explicit,
)
from kernelbandits.rng import component_rng

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
        per_action += loss_vector(LINEAR, actions, w)
    assert idx == int(np.argmin(per_action))
    assert total == pytest.approx(per_action.min(), abs=1e-12)
    # the winner is no worse than every fixed action
    assert np.all(total <= per_action + 1e-12)

    # a schedule longer than two row blocks, mixing rank-one and explicit
    # actions, against the per-round loss oracle
    quad = KernelSpec.quadratic(G=2.0)
    n = 2 * _LOSS_BLOCK_ROWS + 500
    explicit = rng.standard_normal((n, 12))
    explicit *= 1.5 / np.linalg.norm(explicit, axis=1)[:, None]
    schedule = [make_explicit(quad, explicit[t]) if t % 3 == 0 else w
                for t, w in enumerate(
                    unit_vector_adversary(3).materialize(n, component_rng(2, "adv")))]
    oracle = np.stack([loss_vector(quad, actions, w) for w in schedule])
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
        best_in_hindsight(gauss, actions, schedule[1:3] + [ExplicitVector(np.zeros(3))])


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
    assert trace.cum_loss == 4.0
    assert trace.pseudo_regret_curve is None and trace.final_pseudo_regret is None
    # a play distribution with half its mass on each action expects 0.5
    trace = build_trace(LINEAR, actions, [w] * 4, losses, np.zeros(4, dtype=int),
                        expected_losses=np.full(4, 0.5))
    assert np.array_equal(trace.pseudo_regret_curve, [0.5, 1.0, 1.5, 2.0])
    assert trace.final_regret == 4.0


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
    assert result.traces[0].cum_loss == 0.0
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
    assert [s is a for s in sched] == [True, False, True, False, True]
    with pytest.raises(InputError):
        PeriodicAdversary(())

    explicit = ScheduleAdversary((a, b, a))
    assert len(explicit.materialize(3, component_rng(5, "adv"))) == 3
    with pytest.raises(InputError):
        explicit.materialize(4, component_rng(6, "adv"))


def test_schedule_hash_distinguishes_content():
    a = RankOne(np.array([1.0, 0.0]))
    b = RankOne(np.array([0.0, 1.0]))
    assert schedule_hash([a, b]) != schedule_hash([b, a])
    assert schedule_hash([a, b]) == schedule_hash([a, b])
    # same payload bytes, different kind or row split
    assert schedule_hash([a]) != schedule_hash([ExplicitVector(np.array([1.0, 0.0]))])
    assert schedule_hash([a, b]) != schedule_hash([RankOne(np.array([1.0, 0.0, 0.0, 1.0]))])


def test_discretization_error_reported():
    actions = ball_directions(64)
    config = ExperimentConfig(algo="cg", kernel=LINEAR, actions=actions,
                              adversary=unit_vector_adversary(2), n=10,
                              seeds=(0,), params="paper",
                              covering_radius=2 * np.sin(np.pi / 128))
    result = run_experiment(config)
    assert result.discretization_error == pytest.approx(
        1.0 * 2 * np.sin(np.pi / 128))


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
    assert result.details["design_center_offset"] >= 0.0


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
