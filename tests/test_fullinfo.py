import hashlib
import math

import numpy as np
import pytest

from kernelbandits import fullinfo
from kernelbandits.errors import InputError, PreconditionError, ToleranceNotMetError
from kernelbandits.fullinfo import (
    _ATOM_PRUNE,
    CGConfig,
    ConvexCombination,
    UnitBall,
    cg_round,
    cg_start,
    cg_theorem_config,
    full_info_eta,
    full_info_round,
    linear_min_oracle,
    run_cg,
    run_full_info_ew,
)
from kernelbandits.harness import ball_directions, build_trace, unit_vector_adversary
from kernelbandits.kernels import (
    KernelSpec,
    feature_map,
    loss_matrix,
    make_explicit,
)
from kernelbandits.rng import component_rng
from kernelbandits.weights import WeightState, softmax
from oracles import (
    BIT_KERNELS,
    FixedBits,
    cg_fold_round,
    ew_fold_oracle,
    ftrl_oracle,
    kernel_schedules,
    mean_feature,
    min_oracle,
    run_cg_with_gaps,
    softmax_oracle,
)

LINEAR = KernelSpec.linear(G=1.0)
QUAD = KernelSpec.quadratic(G=2.0)


def test_zero_eta_never_changes_distribution():
    # the block step at eta = 0 keeps the uniform start; the one-row round,
    # like the whole pass, refuses that step size
    actions = ball_directions(8)
    w = make_explicit(LINEAR, np.array([0.3, 0.4]))
    L = loss_matrix(LINEAR, actions, [w] * 20)
    log_weights = fullinfo._ew_block(np.zeros(8), 0.0, L, component_rng(0, "fi"))[-1]
    assert np.allclose(softmax(log_weights), 1.0 / 8)
    with pytest.raises(PreconditionError):
        full_info_round(WeightState.uniform(8), 0.0, LINEAR, actions, w,
                        component_rng(0, "fi"))


def test_closed_form_weight_ratio():
    # losses 0 and 1 each round at eta = 0.5: ratio e^{0.5 t}
    actions = np.array([[0.0, 0.0], [1.0, 0.0]])
    w = make_explicit(LINEAR, np.array([1.0, 0.0]))
    state = WeightState.uniform(2)
    rng = component_rng(1, "fi")
    for t in range(1, 11):
        state, _ = full_info_round(state, 0.5, LINEAR, actions, w, rng)
        probs = softmax(state.log_weights)
        assert probs[0] / probs[1] == pytest.approx(math.exp(0.5 * t), rel=1e-9)


def test_theorem_step_size():
    eta = full_info_eta(50, G=1.0, n=10**4)
    assert eta == pytest.approx(math.sqrt(math.log(50) / (math.e - 2)) / 100.0)
    eta = full_info_eta(10, G=2.0, n=25)
    assert eta == pytest.approx(math.sqrt(math.log(10) / (math.e - 2)) / (4 * 5))
    # log 1 = 0 would give eta = 0, a step size no learner takes
    with pytest.raises(PreconditionError, match="at least 2 actions"):
        full_info_eta(1, G=1.0, n=100)


def test_distribution_equals_softmax_of_cumulative_losses():
    rng = component_rng(2, "fi")
    actions = ball_directions(12)
    schedule = unit_vector_adversary(2).materialize(60, component_rng(3, "adv"))
    state = WeightState.uniform(12)
    cum = np.zeros(12)
    eta = 0.2
    for w in schedule:
        state, _ = full_info_round(state, eta, LINEAR, actions, w, rng)
        cum += loss_matrix(LINEAR, actions, [w])[0]
        expected = np.exp(-eta * cum - (-eta * cum).max())
        expected /= expected.sum()
        assert np.abs(softmax(state.log_weights) - expected).max() <= 1e-12


def test_softmax_has_the_out_of_place_bits():
    # softmax exponentiates and normalizes its one temporary in place; it
    # must give the bits of the out-of-place form, row by row, and leave
    # its input unchanged
    rng = component_rng(24, "softmax")
    for shape in ((1,), (8,), (150,), (3, 150), (256, 64)):
        log_weights = 40.0 * rng.standard_normal(shape) - 700.0
        before = log_weights.copy()
        assert np.array_equal(softmax(log_weights), softmax_oracle(log_weights)), shape
        assert np.array_equal(log_weights, before), shape


@pytest.mark.parametrize("spec", BIT_KERNELS, ids=lambda s: s.variant)
def test_block_pass_equals_per_round_fold(spec):
    # run_full_info_ew walks blocks of _LOSS_BLOCK_ROWS rows of L; a loop of
    # full_info_round is the same step one row at a time, and ew_fold_oracle
    # is a plain loop with scalar draws.  Lengths around the block size cover
    # a partial block, an exact block and a carried block.
    actions = component_rng(5, "fold-actions").standard_normal((9, 3))
    actions /= 1.25 * np.linalg.norm(actions, axis=1)[:, None]
    eta = 0.3
    for kind, full in kernel_schedules(spec, 3, 1000, seed=5).items():
        for n in (1, 255, 256, 257, 1000):
            schedule = full[:n]
            records, final = run_full_info_ew(spec, actions, schedule, eta,
                                              component_rng(n, "player"))
            state, rng = WeightState.uniform(9), component_rng(n, "player")
            folded = []
            for w in schedule:
                state, rec = full_info_round(state, eta, spec, actions, w, rng)
                folded.append(rec)
            blocked = _play_bytes(records, final)
            assert blocked == _play_bytes(folded, state), (kind, n)
            oracle = ew_fold_oracle(spec, actions, schedule, eta,
                                    component_rng(n, "player"))
            assert blocked[1:] == tuple(a.tobytes() for a in oracle), (kind, n)


def _play_bytes(records, state):
    """Bytes of the rounds, indices, losses and expected losses of a run,
    then of its final log weights, for bit-for-bit comparison."""
    rounds = np.array([[r.round, r.action_index] for r in records], dtype=np.int64)
    values = np.array([[r.loss, r.expected_loss] for r in records])
    return (np.append(rounds[:, 0], state.round).tobytes(), rounds[:, 1].tobytes(),
            values[:, 0].tobytes(), values[:, 1].tobytes(), state.log_weights.tobytes())


# sha256 of the int64 action indices then the float64 losses of the run in
# test_fullinfo_run_trace_is_pinned, recorded before the pass was blocked
_FULLINFO_RUN_SHA256 = "d9779456c5c9be935f9fbe008c1491eca30009d36b344eda5f8f5692e665f3fc"


def test_fullinfo_run_trace_is_pinned():
    from kernelbandits.harness import ExperimentConfig, run_experiment

    actions = component_rng(5, "fi-actions").standard_normal((24, 3))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    config = ExperimentConfig(algo="fullinfo_ew", kernel=LINEAR, actions=actions,
                              adversary=unit_vector_adversary(3), n=600, seeds=(0,))
    trace = run_experiment(config).traces[0]
    digest = hashlib.sha256(trace.action_indices.astype(np.int64).tobytes()
                            + trace.losses.astype(np.float64).tobytes()).hexdigest()
    assert digest == _FULLINFO_RUN_SHA256


def test_cg_theorem_schedule():
    # gamma_t = min(1, c / sqrt(t)) with c = 2: 1 at t = 1, 0.5 at t = 16
    cfg = cg_theorem_config(4096)
    assert cfg.eta == pytest.approx(1.0 / (2 * 4096**0.75))
    assert cfg == CGConfig(eta=0.5 * 4096 ** -0.75, c=2.0)


@pytest.mark.parametrize("eta, c", [(0.0, 2.0), (-0.1, 2.0), (math.inf, 2.0),
                                    (math.nan, 2.0), (0.1, -1.0), (0.1, math.inf),
                                    (0.1, math.nan)])
def test_cg_config_refuses_eta_and_c_outside_the_theorem(eta, c):
    # the step size of the potential must be finite and > 0, like the
    # bandit's; the mixing scale c >= 0 keeps gamma_t in [0, 1]
    with pytest.raises(PreconditionError, match="need finite"):
        CGConfig(eta=eta, c=c)


@pytest.mark.parametrize("eta", [0.0, -1.0, math.inf, math.nan])
def test_full_info_ew_play_refuses_eta_outside_the_theorem(eta):
    schedule = unit_vector_adversary(2).materialize(5, component_rng(0, "adv"))
    with pytest.raises(PreconditionError, match="need finite"):
        fullinfo.full_info_ew_play(LINEAR, ball_directions(8), schedule, eta,
                                   component_rng(0, "fi"))


def test_cg_first_round_replaces_iterate():
    # gamma_1 = 1: X_2 = Phi(v_1), a single atom: one nonzero weight over
    # the action set
    actions = ball_directions(8)
    cfg = cg_theorem_config(16)
    state = cg_start(LINEAR, actions[0])
    w = make_explicit(LINEAR, np.array([1.0, 0.0]))
    state, rec = cg_round(state, cfg, LINEAR, actions, w, component_rng(4, "cg"))
    held = np.flatnonzero(state.combo.weights)
    assert held.size == 1
    assert state.combo.weights[held[0]] == pytest.approx(1.0)
    assert rec.num_atoms == 1


def test_cg_zero_gamma_keeps_iterate():
    actions = ball_directions(8)
    cfg = CGConfig(eta=0.01, c=0.0)
    state = cg_start(LINEAR, actions[0])
    w = make_explicit(LINEAR, np.array([0.0, 1.0]))
    new_state, _ = cg_round(state, cfg, LINEAR, actions, w, component_rng(5, "cg"))
    assert np.array_equal(new_state.mean, state.mean)
    # the combination now spans the action set; its held atoms and their
    # weights are the start's
    held = new_state.combo.weights > 0
    assert np.array_equal(new_state.combo.atoms[held], state.combo.atoms)
    assert np.array_equal(new_state.combo.weights[held], state.combo.weights)


def test_cg_mean_identity_every_round():
    actions = ball_directions(16)
    cfg = cg_theorem_config(128)
    schedule = unit_vector_adversary(2).materialize(128, component_rng(6, "adv"))
    state = cg_start(LINEAR, actions[0])
    rng = component_rng(6, "cg")
    for w in schedule:
        state, _ = cg_round(state, cfg, LINEAR, actions, w, rng)
        derived = mean_feature(LINEAR, state.combo)
        assert np.abs(derived - state.mean).max() <= 1e-10


def test_cg_converges_to_opposing_atom():
    # constant adversary aligned with the start: mass flows to the antipode
    actions = ball_directions(64)
    n = 4096
    w = make_explicit(LINEAR, actions[0])
    records, state = run_cg(LINEAR, actions, [w] * n, cg_theorem_config(n),
                            component_rng(7, "cg"))
    top_atom = state.combo.atoms[int(np.argmax(state.combo.weights))]
    assert np.linalg.norm(top_atom - (-actions[0])) <= 1e-12
    assert state.combo.weights.max() >= 0.99
    losses = np.array([r.loss for r in records])
    idxs = np.array([r.action_index for r in records])
    trace = build_trace(LINEAR, actions, [w] * n, losses, idxs)
    assert trace.final_regret <= 8 * n**0.75


def _cg_bytes(records, state):
    """Bytes of the rounds, played rows, atom counts and losses of a run,
    then of its final atoms, weights, mean, adversary sum and round."""
    ints = np.array([[r.round, r.action_index, r.num_atoms] for r in records],
                    dtype=np.int64).reshape(-1, 3)
    losses = np.array([r.loss for r in records], dtype=float)
    return (ints.tobytes(), losses.tobytes(), state.combo.atoms.tobytes(),
            state.combo.weights.tobytes(), state.mean.tobytes(),
            state.cum_adversary.tobytes(), state.t)


def _cg_fold_bytes(step, kernel, action_set, schedule, config, rng, a1, lengths):
    """:func:`_cg_bytes` after each of ``lengths`` rounds of a loop of
    ``step`` over the schedule."""
    state, records, out = cg_start(kernel, a1), [], {}
    for t, w in enumerate(schedule, 1):
        state, rec = step(state, config, kernel, action_set, w, rng)
        records.append(rec)
        if t in lengths:
            out[t] = _cg_bytes(records, state)
    return out


_CUBIC = KernelSpec.polynomial(3, 1.0, G=3.0)


def _repeated_rows() -> np.ndarray:
    """Twelve points in the 0.8-ball of R^3, with every third one repeated
    in front of them: its first row, CG's default start, is one of them."""
    points = component_rng(6, "cg-fold-actions").standard_normal((12, 3))
    points /= 1.25 * np.linalg.norm(points, axis=1)[:, None]
    return np.vstack([points[::3], points])


@pytest.mark.parametrize("spec, ball", [(LINEAR, False), (QUAD, False), (_CUBIC, False),
                                        (LINEAR, True), (QUAD, True)],
                         ids=["linear", "quadratic", "cubic", "ball-linear",
                              "ball-quadratic"])
def test_cg_block_pass_equals_per_round_fold(spec, ball):
    # run_cg walks blocks of _LOSS_BLOCK_ROWS rounds and embeds a finite
    # action set once; a loop of cg_round is the same step one row at a
    # time, and cg_fold_round embeds everything on every round.  Lengths
    # around the block size cover a partial, an exact and a carried block.
    # The finite set repeats rows (the start point among them), so the
    # start and the oracle's outputs must land on the lowest equal row.
    lengths = (1, 255, 256, 257, 1000)
    if ball:
        d, action_set, a1 = 2, UnitBall(2), np.array([0.6, -0.8])
    else:
        d, action_set = 3, _repeated_rows()
        a1 = action_set[0]
    config = cg_theorem_config(1000)
    for kind, full in kernel_schedules(spec, d, 1000, seed=6).items():
        folds = [_cg_fold_bytes(step, spec, action_set, full, config,
                                component_rng(6, "player"), a1, lengths)
                 for step in (cg_round, cg_fold_round)]
        for n in lengths:
            records, state = run_cg(spec, action_set, full[:n], config,
                                    component_rng(6, "player"), a1)
            assert len(records) == n
            blocked = _cg_bytes(records, state)
            assert blocked == folds[0][n], (kind, n)
            assert blocked == folds[1][n], (kind, n)


@pytest.mark.parametrize("spec", [LINEAR, QUAD, _CUBIC], ids=["linear", "quadratic", "cubic"])
def test_cg_losses_are_entries_of_their_own_column(spec):
    # action_index is the action-set row played, so each loss is the entry
    # of the loss matrix in that row's column, on every kind of schedule and
    # on a set whose rows repeat
    action_set, n = _repeated_rows(), 1000
    for kind, schedule in kernel_schedules(spec, 3, n, seed=6).items():
        records, _ = run_cg(spec, action_set, schedule, cg_theorem_config(n),
                            component_rng(6, "player"))
        idx = np.array([r.action_index for r in records])
        losses = np.array([r.loss for r in records])
        own = loss_matrix(spec, action_set, schedule)[np.arange(n), idx]
        assert np.abs(own - losses).max() <= 1e-12, kind


def test_cg_never_plays_a_zero_weight_row():
    # the top 2^10 raw patterns make u round to 1.0, so the inverse-CDF walk
    # runs past every weight; the last eight rows here are shrunken copies of
    # the first eight, never an argmin, so they never get mass, and every
    # draw must stop at the last row that has weight
    directions = ball_directions(8)
    actions = np.vstack([directions, 0.5 * directions])
    n = 300
    schedule = unit_vector_adversary(2).materialize(n, component_rng(15, "adv"))
    config = cg_theorem_config(n)
    for value in (2**64 - 1, 2**64 - 1024):
        state, records = cg_start(LINEAR, actions[0]), []
        before = np.eye(len(actions))[0]  # the start is row 0
        for w in schedule:
            state, rec = cg_round(state, config, LINEAR, actions, w, FixedBits(value))
            assert before[rec.action_index] > 0
            assert rec.action_index == np.flatnonzero(before)[-1]
            records.append(rec)
            before = state.combo.weights
            assert not before[8:].any()
        blocked, _ = run_cg(LINEAR, actions, schedule, config, FixedBits(value))
        assert blocked == records


def test_cg_start_must_be_a_row_of_a_finite_set():
    # a start point outside a finite action set would be played in round
    # one; a start repeated in the set maps to its lowest equal row, the
    # row the oracle's lowest-index argmin picks
    directions = ball_directions(8)
    actions = np.vstack([directions[3:], directions])
    schedule = unit_vector_adversary(2).materialize(16, component_rng(16, "adv"))
    config = cg_theorem_config(16)
    for outside in (0.5 * directions[0], np.array([1.0, 0.0, 0.0])):
        with pytest.raises(InputError):
            run_cg(LINEAR, actions, schedule, config, component_rng(16, "cg"), a1=outside)
        with pytest.raises(InputError):
            run_cg(LINEAR, actions, [], config, component_rng(16, "cg"), a1=outside)
        with pytest.raises(InputError):
            cg_round(cg_start(LINEAR, outside), config, LINEAR, actions, schedule[0],
                     component_rng(16, "cg"))
    records, _ = run_cg(LINEAR, actions, schedule, config, component_rng(16, "cg"),
                        a1=directions[5])
    _, first = cg_round(cg_start(LINEAR, directions[5]), config, LINEAR, actions,
                        schedule[0], component_rng(16, "cg"))
    assert records[0].action_index == first.action_index == 2


# sha256 of the int64 action indices then the float64 losses of the run in
# test_cg_run_trace_is_pinned.  It moved when CG's weights became one dense
# vector over the action set: the inverse-CDF walk runs in action-set order,
# not in the order the atoms entered, and action_index is the action-set row
_CG_RUN_SHA256 = "6e155b2c018e65485de3df9bdd3fbcb1c328826ace2895c1cd3e850ce6f85717"


def test_cg_run_trace_is_pinned():
    from kernelbandits.harness import ExperimentConfig, run_experiment

    actions = component_rng(5, "cg-actions").standard_normal((40, 3))
    actions /= np.linalg.norm(actions, axis=1)[:, None]
    config = ExperimentConfig(algo="cg", kernel=QUAD, actions=actions,
                              adversary=unit_vector_adversary(3), n=600, seeds=(0,))
    trace = run_experiment(config).traces[0]
    digest = hashlib.sha256(trace.action_indices.astype(np.int64).tobytes()
                            + trace.losses.astype(np.float64).tobytes()).hexdigest()
    assert digest == _CG_RUN_SHA256


@pytest.mark.parametrize("spec", [LINEAR, QUAD], ids=["linear", "quadratic"])
def test_cg_expected_losses_match_the_play_distribution(spec):
    # CG forms no loss matrix: its expected loss is <x_t, w_t> for the mean
    # x_t it plays from, and its totals Phi(actions) sum_t w_t.  A cg_round
    # fold gives sum_j p_tj L[t, j] over the weights it plays.  The mean and
    # the weights follow the same recursion apart from rounding and the
    # pruned weights (at most N below _ATOM_PRUNE a round), and each round
    # contracts their gap by 1 - gamma_t, so the gap stays below
    # (N _ATOM_PRUNE + 10 N u) G^2 / gamma_n, with gamma_n = 2 / sqrt(n)
    actions = component_rng(7, "cg-count-actions").standard_normal((40, 3))
    actions /= 1.25 * np.linalg.norm(actions, axis=1)[:, None]
    n, num = 600, actions.shape[0]
    config = cg_theorem_config(n)
    G = spec.norm_bound_G
    bound = (num * _ATOM_PRUNE + 10 * num * np.finfo(float).eps / 2) * G**2 * math.sqrt(n) / 2
    for kind, schedule in kernel_schedules(spec, 3, n, seed=7).items():
        idx, _, expected, totals, _, _ = fullinfo._cg_play(spec, actions, schedule, config,
                                                            component_rng(7, "cg"))
        state, rng, folded = cg_start(spec, actions[0]), component_rng(7, "cg"), []
        for w in schedule:
            folded.append(state.combo.weights @ loss_matrix(spec, state.combo.atoms, [w])[0])
            state, _ = cg_round(state, config, spec, actions, w, rng)
        assert np.abs(expected - np.array(folded)).max() <= bound, kind
        columns = loss_matrix(spec, actions, schedule).sum(axis=0)
        assert int(np.argmin(totals)) == int(np.argmin(columns)), kind
        assert np.abs(totals - columns).max() <= 1e-9 * n, kind


def test_run_cg_embeds_the_action_set_once(monkeypatch):
    # every embedding in the package goes through kernels.feature_matrix;
    # a per-round embedding would make n calls, the blocked pass makes a
    # few per block and embeds the action set once
    import kernelbandits.fullinfo as fullinfo_mod
    import kernelbandits.kernels as kernels_mod

    embed, calls = kernels_mod.feature_matrix, []

    def counted(spec, points):
        calls.append(np.atleast_2d(np.asarray(points, dtype=float)).copy())
        return embed(spec, points)

    monkeypatch.setattr(kernels_mod, "feature_matrix", counted)
    monkeypatch.setattr(fullinfo_mod, "feature_matrix", counted)
    actions = component_rng(7, "cg-count-actions").standard_normal((40, 3))
    actions /= 1.25 * np.linalg.norm(actions, axis=1)[:, None]
    n, blocks = 600, -(-600 // 256)
    for kind, schedule in kernel_schedules(QUAD, 3, n, seed=7).items():
        calls.clear()
        records, _ = run_cg(QUAD, actions, schedule, cg_theorem_config(n),
                            component_rng(7, "cg"))
        assert len(records) == n, kind
        assert sum(np.array_equal(points, actions) for points in calls) == 1, kind
        assert len(calls) <= 2 + blocks, kind


def test_linear_min_oracle_finite_set():
    # finite sets are enumerated by the test oracle; run_cg embeds them once
    actions = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    g = np.array([1.0, -0.2])
    v = min_oracle(LINEAR, g, actions)
    assert np.array_equal(v, [-1.0, 0.0])


def test_linear_min_oracle_unit_ball_linear():
    v = linear_min_oracle(LINEAR, np.array([3.0, 4.0]), UnitBall(2))
    assert np.allclose(v, [-0.6, -0.8])
    v = linear_min_oracle(LINEAR, np.zeros(2), UnitBall(2))
    assert np.array_equal(v, [0.0, 0.0])


def test_linear_min_oracle_unit_ball_quadratic():
    # gradient encoding (B, b) = (diag(1, 2), 0): PSD, minimum at the origin
    g = np.concatenate([np.diag([1.0, 2.0]).ravel(), np.zeros(2)])
    v = linear_min_oracle(QUAD, g, UnitBall(2))
    assert np.linalg.norm(v) <= 1e-8
    assert feature_map(QUAD, v) @ g == pytest.approx(0.0, abs=1e-12)


def test_linear_min_oracle_unsupported_kernel_on_ball():
    with pytest.raises(InputError):
        linear_min_oracle(KernelSpec.gaussian(1.0), np.zeros(2), UnitBall(2))


def test_ftrl_symmetric_hull_gives_zero():
    atoms = np.array([[1.0, 0.0], [-1.0, 0.0]])
    combo = ftrl_oracle([], 0.5, LINEAR, atoms, tol=1e-10)
    assert np.linalg.norm(mean_feature(LINEAR, combo)) <= 1e-5


def test_ftrl_single_atom():
    combo = ftrl_oracle([np.array([2.0, -1.0])], 0.7, LINEAR,
                        np.array([[0.3, 0.4]]), tol=1e-10)
    assert np.array_equal(combo.weights, [1.0])


def test_ftrl_optimal_against_probes():
    rng = component_rng(8, "ftrl")
    atoms = rng.standard_normal((5, 2)) * 0.5
    history = [rng.standard_normal(2) for _ in range(4)]
    eta = 0.3
    combo = ftrl_oracle(history, eta, LINEAR, atoms, tol=1e-10)
    g = np.sum(history, axis=0)

    def objective(lam):
        X = atoms.T @ lam
        return eta * g @ X + X @ X

    val = objective(combo.weights)
    vertices = min(objective(np.eye(5)[i]) for i in range(5))
    probes = min(objective(lam) for lam in rng.dirichlet(np.ones(5), size=10**4))
    assert val <= min(vertices, probes) + 1e-8


def test_ftrl_tolerance_not_met():
    rng = component_rng(9, "ftrl")
    atoms = rng.standard_normal((20, 3))
    history = [rng.standard_normal(3)]
    with pytest.raises(ToleranceNotMetError) as err:
        ftrl_oracle(history, 0.5, LINEAR, atoms, tol=1e-16, max_iter=3)
    assert err.value.achieved_gap > 1e-16


def test_ftrl_per_step_stability():
    # <w_t, X_t - X_{t+1}> <= 2 eta ||w_t||^2 along the oracle trajectory
    rng = component_rng(10, "stab")
    atoms = ball_directions(16)
    eta = 0.05
    history = []
    prev = mean_feature(LINEAR, ftrl_oracle(history, eta, LINEAR, atoms, tol=1e-12))
    for _ in range(30):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        history.append(w)
        cur = mean_feature(LINEAR, ftrl_oracle(history, eta, LINEAR, atoms, tol=1e-12))
        assert w @ (prev - cur) <= 2 * eta * (w @ w) + 1e-8
        prev = cur


def test_cg_gap_bound_against_ftrl_oracle():
    # The exact recursion gives h_{t+1} <= (1-g) h_t + g^2 ||Phi(v)-X||^2
    # with ||Phi(v)-X|| <= 2G, whose closed induction constant is 8 G^2
    # gamma_t; early rounds can cross 4 G^2 gamma_t under adversarial
    # alignment, so the module-level property asserts the derivable constant.
    full = cg_theorem_config(4096)
    cfg = CGConfig(eta=full.eta, c=full.c)
    actions = ball_directions(32)
    for seed in (7, 11, 23):
        schedule = unit_vector_adversary(2).materialize(
            128, component_rng(seed, "adv"))
        pairs = run_cg_with_gaps(LINEAR, actions, schedule, cfg,
                                 component_rng(seed, "cg"), tol=1e-8)
        records, _ = run_cg(LINEAR, actions, schedule, cfg, component_rng(seed, "cg"))
        assert [rec for rec, _ in pairs] == records
        for rec, gap in pairs:
            gamma_t = min(1.0, 2.0 / math.sqrt(rec.round))
            assert gap <= 8.0 * gamma_t + 1e-6


def test_cg_atom_count_stays_bounded():
    actions = ball_directions(64)
    n = 2048
    schedule = unit_vector_adversary(2).materialize(n, component_rng(12, "adv"))
    records, state = run_cg(LINEAR, actions, schedule, cg_theorem_config(n),
                            component_rng(12, "cg"))
    assert max(r.num_atoms for r in records) <= 64
    assert abs(state.combo.weights.sum() - 1.0) <= 1e-12


def test_convex_combination_validation():
    with pytest.raises(InputError):
        ConvexCombination(np.eye(2), np.array([0.5, 0.2]))
    with pytest.raises(InputError):
        ConvexCombination(np.eye(2), np.array([0.5]))
    for bad in ([np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0], [-np.inf, np.inf]):
        with pytest.raises(InputError):
            ConvexCombination(np.eye(2), np.array(bad))


def test_run_cg_requires_start_for_ball():
    with pytest.raises(InputError):
        run_cg(LINEAR, UnitBall(2), [], cg_theorem_config(4),
               component_rng(13, "cg"))


def test_run_cg_refuses_a_ball_start_outside_the_ball():
    # a start outside the ball is played in round one: (3, 0) would lose
    # 3.0 under the linear kernel, above its bound G = 1
    schedule = [make_explicit(LINEAR, [1.0, 0.0])] * 3
    config = cg_theorem_config(3)
    for outside in ([3.0, 0.0], [1.0 + 1e-9, 0.0], [0.6, 0.8, 0.0], [np.nan, 0.0]):
        with pytest.raises(InputError):
            run_cg(LINEAR, UnitBall(2), schedule, config, component_rng(17, "cg"),
                   a1=np.array(outside))
    records, _ = run_cg(LINEAR, UnitBall(2), schedule, config, component_rng(17, "cg"),
                        a1=np.array([0.6, -0.8]))
    assert records[0].loss == pytest.approx(0.6)


def test_run_cg_on_unit_ball_with_quadratic_kernel():
    rng = component_rng(14, "ball")
    n = 64
    cfg = cg_theorem_config(n)
    schedule = []
    for _ in range(n):
        M = rng.standard_normal((2, 2))
        A = 0.25 * (M + M.T)
        b = 0.25 * rng.standard_normal(2)
        from kernelbandits.kernels import quadratic_adversary

        schedule.append(quadratic_adversary(QUAD, A, b))
    records, state = run_cg(QUAD, UnitBall(2), schedule, cfg,
                            component_rng(14, "cg"), a1=np.array([1.0, 0.0]))
    assert len(records) == n
    assert np.all(np.linalg.norm(state.combo.atoms, axis=1) <= 1.0 + 1e-9)
