import hashlib
import math

import numpy as np
import pytest

from kernelbandits import bandit
from kernelbandits.bandit import (
    BanditConfig,
    bandit_round,
    configure_bandit,
    general_theorem_config,
    prepare_bandit_features,
    run_bandit,
    theorem_regret_bound,
)
from kernelbandits.design import (
    DiscreteDistribution,
    action_covariance,
    whiten_features,
)
from kernelbandits.errors import (
    HorizonTooShortError,
    IllConditionedCovarianceError,
    InputError,
    PreconditionError,
    RankDeficiencyError,
)
from kernelbandits.harness import best_in_hindsight
from kernelbandits.kernels import KernelSpec, feature_matrix, loss_matrix, make_explicit
from kernelbandits.proxy import EigendecayProfile, build_proxy, proxy_features
from kernelbandits.rng import component_rng
from kernelbandits.weights import WeightState, softmax
from oracles import fibonacci_sphere

LINEAR = KernelSpec.linear(G=1.0)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def spanning_unit_vectors(n, d, seed=0):
    rng = component_rng(seed, "actions")
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_configure_bandit_corollary_formulas():
    # eps = log|A|/(2n); pick n so eps = 0.001 with |A| = 7
    num_actions = 7
    n = math.ceil(math.log(num_actions) / (2 * 0.001))
    profile = EigendecayProfile("polynomial", C=1.0, beta=3.0, eigfn_bound_B=1.0)
    cfg = configure_bandit(profile, n, num_actions, G=1.0)
    eps = math.log(num_actions) / (2 * n)
    assert cfg.eps == pytest.approx(eps, rel=1e-12)
    assert cfg.eta == pytest.approx(math.sqrt(cfg.eps / (10 * cfg.m)), rel=1e-12)
    assert cfg.gamma == pytest.approx(4 * cfg.eta * cfg.m, rel=1e-12)


def test_gamma_formula_value():
    # G = 1, eta = 0.01, m = 10 -> gamma = 4 eta G^4 m = 0.4
    assert 4 * 0.01 * 1.0**4 * 10 == pytest.approx(0.4)
    cfg = general_theorem_config(num_actions=50, n=10**6, G=1.0, m=10)
    assert cfg.gamma == pytest.approx(4 * cfg.eta * 10, rel=1e-12)


def test_corollary_step_size_formula():
    # step size sqrt(eps / (10 m)): at eps = 0.001, m = 1 this is exactly 0.01
    assert math.sqrt(0.001 / (10 * 1)) == pytest.approx(0.01, rel=1e-12)
    profile = EigendecayProfile("exponential", C=1.0, beta=2.0, eigfn_bound_B=1.0)
    cfg = configure_bandit(profile, n=5000, num_actions=7, G=1.0)
    assert cfg.eta == pytest.approx(math.sqrt(cfg.eps / (10 * cfg.m)), rel=1e-12)


def test_eps_must_not_exceed_G_squared():
    profile = EigendecayProfile("exponential", C=1.0, beta=1.0)
    # tiny n makes eps = log|A|/(2n) huge
    with pytest.raises(PreconditionError):
        configure_bandit(profile, n=2, num_actions=100, G=0.1)
    with pytest.raises(PreconditionError):
        general_theorem_config(10, 100, G=1.0, m=2, eps=2.0)


@pytest.mark.parametrize("eta,eps", [(0.0, 0.0), (-0.05, 0.0), (math.nan, 0.0),
                                     (math.inf, 0.0), (0.05, -3.0), (0.05, math.nan)])
def test_bandit_config_refuses_eta_and_eps_the_theorem_does_not_cover(eta, eps):
    # theorem_regret_bound is a guarantee only for eta > 0 and eps >= 0: at
    # eps = -3 it reads about -37000, at eta = -0.05 a finite, non-vacuous 400
    with pytest.raises(PreconditionError):
        BanditConfig(eta=eta, gamma=0.5, m=3, eps=eps, n=300)


def test_horizon_too_short_raises():
    profile = EigendecayProfile("polynomial", C=50.0, beta=2.1, eigfn_bound_B=2.0)
    with pytest.raises(HorizonTooShortError):
        configure_bandit(profile, n=40, num_actions=10, G=1.5)


def test_estimate_adversary_examples():
    assert np.array_equal(bandit._estimate_adversary(np.eye(2), np.array([1.0, 0.0]), 0.0),
                          np.zeros(2))
    got = bandit._estimate_adversary(np.eye(2), np.array([1.0, 0.0]), 0.5)
    assert np.allclose(got, [0.5, 0.0])
    got = bandit._estimate_adversary(np.diag([2.0, 4.0]), np.array([1.0, 1.0]), 0.5)
    assert np.allclose(got, [0.25, 0.125])


def test_estimator_unbiased_under_exact_summation():
    rng = component_rng(1, "unbiased")
    actions = spanning_unit_vectors(12, 4, seed=2)
    F = feature_matrix(LINEAR, actions)  # exact features, eps = 0
    for _ in range(100):
        p = DiscreteDistribution(rng.dirichlet(np.ones(12)))
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        sigma = action_covariance(p.weights, F)
        assert np.linalg.eigvalsh(sigma)[0] > 1e-12
        acc = np.zeros(4)
        for a_idx in range(12):
            loss = float(F[a_idx] @ w)
            acc += p.weights[a_idx] * bandit._estimate_adversary(sigma, F[a_idx], loss)
        assert np.abs(acc - w).max() <= 1e-8


def _setup(num_actions=20, d=3, n=2000, seed=0):
    actions = spanning_unit_vectors(num_actions, d, seed=seed)
    basis = build_proxy(LINEAR, actions, m=d, p=4 * num_actions,
                        rng=component_rng(seed, "proxy"))
    features, nu, _ = prepare_bandit_features(basis, actions)
    cfg = general_theorem_config(num_actions, n, G=1.0, m=features.shape[1])
    return actions, features, nu, cfg


def test_single_action_single_round():
    actions = np.array([[1.0, 0.0]])
    basis = build_proxy(LINEAR, actions, m=1, p=4, rng=component_rng(3, "p"))
    features, nu, _ = prepare_bandit_features(basis, actions)
    cfg = BanditConfig(eta=0.1, gamma=0.5, m=1, eps=0.0, n=1)
    w = make_explicit(LINEAR, np.array([0.7, 0.0]))
    state = WeightState.uniform(1)
    state, rec = bandit_round(state, cfg, LINEAR, actions, features, nu, w,
                              component_rng(3, "player"))
    assert rec.action_index == 0
    assert rec.loss == pytest.approx(0.7)


def test_gamma_one_plays_pure_exploration():
    actions, features, nu, _ = _setup(n=100)
    cfg = BanditConfig(eta=0.01, gamma=1.0, m=features.shape[1], eps=0.0, n=100)
    w = make_explicit(LINEAR, np.zeros(3))
    rng = component_rng(4, "player")
    # skew the weight state heavily; gamma = 1 must ignore it
    state = WeightState(np.array([50.0] + [0.0] * 19))
    counts = np.zeros(20)
    for _ in range(4000):
        _, rec = bandit_round(state, cfg, LINEAR, actions, features, nu, w, rng)
        counts[rec.action_index] += 1
    freq = counts / counts.sum()
    # only the design's support can be played
    assert np.all(freq[nu.weights < 1e-12] == 0.0)
    assert np.abs(freq - nu.weights).max() <= 0.05


def test_round_refuses_covariance_below_floor():
    # point-mass design with the weights skewed onto another action: the mixed
    # distribution puts almost all its mass on two of 6 features in d = 3.
    # The design spans one of 3 dimensions, so the certificate
    # gamma lambda_min(Sigma_nu) - delta, which the error carries, is below
    # the floor, as is the round's own covariance
    features = component_rng(12, "floor").standard_normal((6, 3))
    actions = spanning_unit_vectors(6, 3, seed=12)
    exploration = DiscreteDistribution(np.eye(6)[0])
    cfg = BanditConfig(eta=0.1, gamma=0.5, m=3, eps=0.0, n=10)
    state = WeightState(np.array([0.0, 50.0, 0.0, 0.0, 0.0, 0.0]))
    w = make_explicit(LINEAR, np.zeros(3))
    with pytest.raises(IllConditionedCovarianceError) as err:
        bandit_round(state, cfg, LINEAR, actions, features, exploration, w,
                     component_rng(12, "player"))
    p = 0.5 * softmax(state.log_weights) + 0.5 * exploration.weights
    sigma = features.T @ (features * p[:, None])
    lam_nu = np.linalg.eigvalsh(action_covariance(exploration.weights, features))[0]
    assert err.value.floor == pytest.approx(0.5 / (2 * 3), rel=1e-15)
    assert err.value.min_eig < err.value.floor
    assert err.value.min_eig <= 0.5 * lam_nu
    assert err.value.min_eig == pytest.approx(0.5 * lam_nu, abs=1e-12)
    assert np.linalg.eigvalsh(sigma)[0] < err.value.floor


def _point_mass_case():
    """The inputs of the floor test above: 6 Gaussian features in d = 3, the
    point-mass design on the first, gamma = 0.5 (floor 1/12), a zero
    adversary."""
    features = component_rng(12, "floor").standard_normal((6, 3))
    actions = spanning_unit_vectors(6, 3, seed=12)
    exploration = DiscreteDistribution(np.eye(6)[0])
    cfg = BanditConfig(eta=0.1, gamma=0.5, m=3, eps=0.0, n=10)
    return features, actions, exploration, cfg, make_explicit(LINEAR, np.zeros(3))


def _stream_untouched(rng) -> bool:
    fresh = component_rng(12, "player")
    return np.array_equal(rng.bit_generator.random_raw(8), fresh.bit_generator.random_raw(8))


def test_round_refuses_covariance_below_floor_on_unsampled_round():
    # round 2 records no eigenvalue, so the refusal is the certificate that
    # bandit_round makes on every call, before the draw
    features, actions, exploration, cfg, w = _point_mass_case()
    state = WeightState(np.array([0.0, 50.0, 0.0, 0.0, 0.0, 0.0]), round=1)
    rng = component_rng(12, "player")
    with pytest.raises(IllConditionedCovarianceError) as err:
        bandit_round(state, cfg, LINEAR, actions, features, exploration, w, rng)
    assert err.value.floor == 0.5 / (2 * 3)
    assert err.value.min_eig < err.value.floor
    assert _stream_untouched(rng)


def test_run_refuses_uncertified_design_before_round_one():
    # the point-mass design spans one of 3 dimensions, so
    # gamma lambda_min(Sigma_nu) - delta is below the floor and the run stops
    # before its first draw
    features, actions, exploration, cfg, w = _point_mass_case()
    rng = component_rng(12, "player")
    with pytest.raises(IllConditionedCovarianceError) as err:
        run_bandit(LINEAR, actions, features, exploration, cfg, [w] * 10, rng)
    assert err.value.floor == 0.5 / (2 * 3)
    assert err.value.min_eig < err.value.floor
    assert _stream_untouched(rng)


def test_round_and_run_refuse_the_same_inputs():
    # +-0.55 e_i in R^3 under the uniform design, gamma = 0.5: the uniform
    # start's covariance 0.55^2 / 3 I is above the floor 1/12, but the
    # certificate gamma lambda_min(Sigma_nu) - delta, about 0.050, is not.
    # bandit_round is the one-row case of run_bandit, so both refuse before
    # the first draw, with the same certified bound and floor
    features = 0.55 * np.vstack([np.eye(3), -np.eye(3)])
    nu = DiscreteDistribution(np.full(6, 1.0 / 6))
    cfg = BanditConfig(eta=0.1, gamma=0.5, m=3, eps=0.0, n=10)
    w = make_explicit(LINEAR, np.zeros(3))
    assert np.linalg.eigvalsh(action_covariance(nu.weights, features))[0] > 0.5 / 6
    errors = []
    for play in (lambda rng: bandit_round(WeightState.uniform(6), cfg, LINEAR, features,
                                          features, nu, w, rng),
                 lambda rng: run_bandit(LINEAR, features, features, nu, cfg, [w] * 10, rng)):
        rng = component_rng(12, "player")
        with pytest.raises(IllConditionedCovarianceError) as err:
            play(rng)
        assert _stream_untouched(rng)
        errors.append((err.value.min_eig, err.value.floor))
    assert errors[0] == errors[1]
    assert errors[0][1] == 0.5 / (2 * 3)
    assert errors[0][0] == pytest.approx(0.5 * 0.55**2 / 3, abs=1e-12)


def test_run_refuses_schedule_shorter_than_horizon():
    # eta and gamma are set for n rounds; a schedule of n - 1 rows is refused
    # before the first draw, and one of n + 1 rows plays n
    actions, features, nu, cfg = _setup(n=10)
    w = make_explicit(LINEAR, np.zeros(3))
    rng = component_rng(12, "player")
    with pytest.raises(InputError):
        run_bandit(LINEAR, actions, features, nu, cfg, [w] * 9, rng)
    assert _stream_untouched(rng)
    records, state = run_bandit(LINEAR, actions, features, nu, cfg, [w] * 11,
                                component_rng(12, "player"))
    assert len(records) == state.round == 10


def test_sampled_min_eig_below_floor_raises():
    # features in a plane make every play covariance singular; under a stale
    # certificate, made before the features were moved into the plane, the
    # round-1 eigenvalue cross-check catches it
    features, actions, _, cfg, w = _point_mass_case()
    uniform = DiscreteDistribution(np.full(6, 1.0 / 6))
    certificate = bandit._certify_run(cfg, features, uniform)
    features[:, 2] = 0.0
    with pytest.raises(IllConditionedCovarianceError) as err:
        bandit._bandit_play(LINEAR, actions, features, uniform, cfg, [w] * 10,
                            component_rng(12, "player"), certificate)
    assert err.value.floor == 0.5 / (2 * 3)
    assert abs(err.value.min_eig) <= 1e-12


def test_certificate_of_whitened_design():
    # after whitening Sigma_nu = I/m, so the certified bound is gamma/m less
    # a rounding term of order (N + m) u max ||f||^2
    actions, features, nu, cfg = _setup(n=100)
    floor, bound, kw_ratio = bandit._certify_run(cfg, features, nu)[:3]
    assert kw_ratio == float(np.einsum("ij,ij->i", features, features).max())
    m = features.shape[1]
    assert floor == 0.5 * cfg.gamma / m
    assert bound > floor
    assert bound == pytest.approx(cfg.gamma / m, abs=1e-12)
    assert bound < cfg.gamma * np.linalg.eigvalsh(action_covariance(nu.weights, features))[0]


def _gaussian_setup(n=120, m=20, p=60):
    # 30 unit vectors under gaussian:0.5, proxy rank m (20 by default)
    kernel = KernelSpec.gaussian(0.5)
    actions = spanning_unit_vectors(30, 3, seed=0)
    basis = build_proxy(kernel, actions, m=m, p=p, rng=component_rng(0, "proxy"))
    features, nu, _ = prepare_bandit_features(basis, actions)
    cfg = BanditConfig(eta=0.05, gamma=0.5, m=features.shape[1], eps=0.0, n=n)
    return kernel, actions, features, nu, cfg


def _complement_setup(n=120):
    # 20 circle directions under gaussian:0.5, proxy rank m = 15 (k = 5 < m)
    # and every design weight at least 1 / (2m): the complement path, the
    # regime of the bench's m = 127 of N = 150
    from kernelbandits.harness import ball_directions

    kernel = KernelSpec.gaussian(0.5)
    actions = ball_directions(20)
    basis = build_proxy(kernel, actions, m=15, p=40, rng=component_rng(0, "proxy"))
    features, nu, _ = prepare_bandit_features(basis, actions)
    cfg = BanditConfig(eta=0.05, gamma=0.5, m=features.shape[1], eps=0.0, n=n)
    return kernel, actions, features, nu, cfg


def _path(cfg, features, nu) -> str:
    return bandit._certify_run(cfg, features, nu).estimator["path"]


def _path_case(case, n):
    # the linear setup (m = 3 of N = 20) on the covariance path, or the
    # complement setup on the complement path
    if case == "linear":
        kernel = LINEAR
        actions, features, nu, cfg = _setup(n=n)
    else:
        kernel, actions, features, nu, cfg = _complement_setup(n=n)
    assert _path(cfg, features, nu) == ("covariance" if case == "linear" else "complement")
    return kernel, actions, features, nu, cfg


def _drawn_basis_case(case):
    # the kernel, actions and proxy draw of each set these tests build, with
    # the basis drawn from the actions themselves
    from kernelbandits.harness import ball_directions

    gaussian = KernelSpec.gaussian(0.5)
    kernel, actions, m, p, rng = {
        "linear": (LINEAR, spanning_unit_vectors(20, 3, seed=0), 3, 80,
                   component_rng(0, "proxy")),
        "single": (LINEAR, np.array([[1.0, 0.0]]), 1, 4, component_rng(3, "p")),
        "gaussian": (gaussian, spanning_unit_vectors(30, 3, seed=0), 20, 60,
                     component_rng(0, "proxy")),
        "complement": (gaussian, ball_directions(20), 15, 40, component_rng(0, "proxy")),
        "axes": (LINEAR, np.eye(2), 2, 10, component_rng(5, "p")),
        "dominated": (LINEAR, np.vstack([np.array([1.0, 0.0]),
                                         spanning_unit_vectors(6, 2, seed=7) * 0.3]),
                      2, 30, component_rng(7, "p")),
        "sphere": (KernelSpec.gaussian(2.0), fibonacci_sphere(40), None, 80,
                   component_rng(0, "proxy")),
    }[case]
    return build_proxy(kernel, actions, m=m, p=p, rng=rng), actions


@pytest.mark.parametrize("case", ["linear", "single", "gaussian", "complement", "axes",
                                  "dominated", "sphere"])
def test_a_basis_drawn_from_the_actions_gives_features_of_full_rank(case):
    # prepare_bandit_features reduces nothing: on the sampled actions the
    # features are C^-1/2 B diag(sqrt(p mu)), of full column rank m
    basis, actions = _drawn_basis_case(case)
    assert np.linalg.matrix_rank(proxy_features(basis, actions)) == basis.m


def test_features_short_of_rank_m_are_refused():
    # a linear basis drawn from 12 points of R^3 spans R^3, but the features
    # of 8 actions in the plane z = 0 have rank 2: the design refuses them
    # rather than design over fewer dimensions than the basis has
    points = spanning_unit_vectors(12, 3, seed=4)
    basis = build_proxy(LINEAR, points, m=3, p=24, rng=component_rng(4, "proxy"))
    angles = 2.0 * np.pi * np.arange(8) / 8
    actions = np.column_stack((np.cos(angles), np.sin(angles), np.zeros(8)))
    with pytest.raises(RankDeficiencyError):
        prepare_bandit_features(basis, actions)


@pytest.mark.parametrize("case", ["linear", "gaussian", "gaussian-full-rank",
                                  "complement"])
def test_run_bandit_is_a_fold_of_bandit_round(case):
    # run_bandit and bandit_round share one block step; the run must have
    # the bits of stepping bandit_round from the uniform start.  The
    # full-rank case has m >= 0.8 N but design weights below 1 / (2m), so it
    # stays on the covariance path; the complement case takes the other.
    # The gaussian and complement cases run 300 rounds, across a 256-row
    # block boundary, where the run takes its next block of raw draws.
    from kernelbandits.harness import unit_vector_adversary

    n = 300 if case in ("gaussian", "complement") else 120
    if case == "linear":
        kernel = LINEAR
        actions, features, nu, cfg = _setup(n=n)
    elif case == "gaussian":
        kernel, actions, features, nu, cfg = _gaussian_setup(n=n)
        assert features.shape[1] >= 20
    elif case == "gaussian-full-rank":
        kernel, actions, features, nu, cfg = _gaussian_setup(n=n, m=27, p=90)
        assert features.shape[1] >= 0.8 * features.shape[0]
    else:
        kernel, actions, features, nu, cfg = _complement_setup(n=n)
    assert _path(cfg, features, nu) == ("complement" if case == "complement"
                                        else "covariance")
    schedule = unit_vector_adversary(actions.shape[1]).materialize(
        n, component_rng(13, "adv"))
    records, state = run_bandit(kernel, actions, features, nu, cfg, schedule,
                                component_rng(13, "player"))
    fold_state, fold, expected = WeightState.uniform(actions.shape[0]), [], []
    rng = component_rng(13, "player")
    for w_t in schedule:
        # the expected loss <p_t, l_t> under the mixed play distribution
        p = (1.0 - cfg.gamma) * softmax(fold_state.log_weights) + cfg.gamma * nu.weights
        expected.append(p @ loss_matrix(kernel, actions, [w_t])[0])
        fold_state, rec = bandit_round(fold_state, cfg, kernel, actions, features,
                                       nu, w_t, rng)
        fold.append(rec)
    play = bandit._bandit_play(kernel, actions, features, nu, cfg, schedule,
                               component_rng(13, "player"),
                               bandit._certify_run(cfg, features, nu))
    assert play[2].tobytes() == np.array(expected).tobytes()
    # the loss totals have the bits of best_in_hindsight's column sums
    best, total = best_in_hindsight(kernel, actions, schedule)
    assert int(np.argmin(play[3])) == best and play[3][best] == total
    assert len(records) == len(fold) == n
    for a, b in zip(records, fold):
        assert (a.round, a.action_index) == (b.round, b.action_index)
        assert a.loss.hex() == b.loss.hex()
        assert a.loss_hat_max.hex() == b.loss_hat_max.hex()
        assert a.min_eig_sigma == b.min_eig_sigma
    assert ([r.round for r in records if r.min_eig_sigma is not None]
            == list(range(1, n + 1, 50)))
    assert state.log_weights.tobytes() == fold_state.log_weights.tobytes()
    assert state.round == fold_state.round


def test_weights_concentrate_on_zero_loss_action():
    # e2 has loss 0 every round, e1 loss 1: mass must move to e2
    actions = np.eye(2)
    basis = build_proxy(LINEAR, actions, m=2, p=10, rng=component_rng(5, "p"))
    features, nu, _ = prepare_bandit_features(basis, actions)
    cfg = BanditConfig(eta=0.1, gamma=0.2, m=2, eps=0.0, n=500)
    w = make_explicit(LINEAR, np.array([1.0, 0.0]))
    mass = []
    for seed in range(50):
        _, state = run_bandit(LINEAR, actions, features, nu, cfg, [w] * 500,
                              component_rng(seed, "player"))
        mass.append(softmax(state.log_weights)[1])
    assert np.mean(mass) > 0.95


@pytest.mark.parametrize("case", ["linear", "complement"])
def test_loss_estimate_magnitude_bound(case):
    # eta |l-hat| <= 1 under the theorem schedule gamma = 4 eta G^4 m
    from kernelbandits.harness import unit_vector_adversary

    kernel, actions, features, nu, cfg = _path_case(case, n=1000)
    cfg = general_theorem_config(actions.shape[0], 1000, G=1.0, m=features.shape[1])
    schedule = unit_vector_adversary(actions.shape[1]).materialize(
        1000, component_rng(6, "adversary"))
    records, _ = run_bandit(kernel, actions, features, nu, cfg, schedule,
                            component_rng(6, "player"))
    worst = max(cfg.eta * r.loss_hat_max for r in records)
    assert worst <= 1.0 + 1e-9


def test_weight_monotonicity_for_dominated_action():
    # fixed adversary aligned with action 0: its estimated loss is largest
    actions = np.vstack([np.array([1.0, 0.0]),
                         spanning_unit_vectors(6, 2, seed=7) * 0.3])
    basis = build_proxy(LINEAR, actions, m=2, p=30, rng=component_rng(7, "p"))
    features, nu, _ = prepare_bandit_features(basis, actions)
    cfg = BanditConfig(eta=0.05, gamma=0.3, m=2, eps=0.0, n=300)
    w = make_explicit(LINEAR, np.array([1.0, 0.0]))
    state = WeightState.uniform(actions.shape[0])
    rng = component_rng(7, "player")
    rel = [softmax(state.log_weights)[0]]
    for _ in range(200):
        new_state, _ = bandit_round(state, cfg, LINEAR, actions, features, nu, w, rng)
        # the log-weight step is -eta times the estimated losses
        est = state.log_weights - new_state.log_weights
        state = new_state
        if int(np.argmax(est)) == 0 and est[0] > np.partition(est, -2)[-2]:
            assert softmax(state.log_weights)[0] < rel[-1]
        rel.append(softmax(state.log_weights)[0])


def test_bit_for_bit_determinism(tmp_path):
    actions, features, nu, cfg = _setup(n=50)
    from kernelbandits.harness import build_trace, emit_trace, unit_vector_adversary

    schedule = unit_vector_adversary(3).materialize(50, component_rng(8, "adv"))
    runs, traces = [], []
    for run in range(2):
        records, _ = run_bandit(LINEAR, actions, features, nu,
                                BanditConfig(cfg.eta, cfg.gamma, cfg.m, 0.0, 50),
                                schedule, component_rng(9, "player"))
        trace = build_trace(LINEAR, actions, schedule,
                            np.array([r.loss for r in records]),
                            np.array([r.action_index for r in records]))
        path = tmp_path / f"run{run}.csv"
        emit_trace(trace, path)
        runs.append(records)
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]
    for a, b in zip(*runs):
        assert a.loss_hat_max == b.loss_hat_max
        assert a.min_eig_sigma == b.min_eig_sigma


@pytest.mark.parametrize("case", ["linear", "complement"])
def test_min_eig_recorded_on_sampled_rounds(case):
    # bandit_round checks the floor on every call; the exact lambda_min is
    # recorded on rounds 1, 51, 101, ... and equals eigvalsh of that round's
    # covariance, on the complement path too, which forms it only there
    from kernelbandits.harness import unit_vector_adversary

    kernel, actions, features, nu, cfg = _path_case(case, n=120)
    schedule = unit_vector_adversary(actions.shape[1]).materialize(
        120, component_rng(10, "adv"))
    state = WeightState.uniform(actions.shape[0])
    rng = component_rng(10, "player")
    for w_t in schedule:
        p = (1.0 - cfg.gamma) * softmax(state.log_weights) + cfg.gamma * nu.weights
        state, rec = bandit_round(state, cfg, kernel, actions, features, nu, w_t, rng)
        if rec.round in (1, 51, 101):
            exact = np.linalg.eigvalsh(action_covariance(p, features))[0]
            assert rec.min_eig_sigma == pytest.approx(exact, abs=1e-12)
            assert rec.min_eig_sigma >= cfg.gamma / (2 * cfg.m)
        else:
            assert rec.min_eig_sigma is None


@pytest.mark.parametrize("gamma", [1.0, 0.5, 0.05])
@pytest.mark.parametrize("concentration", [1.0, 0.1])
def test_complement_estimate_matches_the_covariance_solve(gamma, concentration):
    # F Sigma^-1 F^T = D^-1 - D^-1 Z (Z^T D^-1 Z)^-1 Z^T D^-1 (run_bandit's
    # docstring): for random whitened features, as the bandit plays them, and
    # play distributions whose smallest probability is gamma / (2m), the
    # complement estimate of every action agrees with the LU solve within the
    # sum of the two paths' first-order rounding bounds derived there
    rng = component_rng(14, "complement")
    num, m = 40, 30
    k = num - m
    nu = DiscreteDistribution(np.full(num, 1.0 / num))
    features = whiten_features(rng.standard_normal((num, m)), nu)
    cfg = BanditConfig(eta=0.1, gamma=gamma, m=m, eps=0.0, n=10)
    Z = bandit._certify_run(cfg, features, nu).basis
    assert Z.shape == (num, k)
    assert np.abs(Z.T @ Z - np.eye(k)).max() <= 10 * num * _UNIT_ROUNDOFF
    assert np.abs(features.T @ Z).max() <= 10 * num * _UNIT_ROUNDOFF * np.abs(features).max()
    floor = gamma / (2 * m)
    frob = np.linalg.norm(features)
    sq_norm_max = float(np.einsum("ij,ij->i", features, features).max())
    for _ in range(5):
        q = rng.dirichlet(np.full(num, concentration))
        p = floor + (1.0 - num * floor) * q
        p[int(np.argmin(q))] = floor
        p_min = float(p.min())
        assert p_min >= floor * (1 - 4 * _UNIT_ROUNDOFF)
        spectrum = np.linalg.eigvalsh(Z.T @ (Z / p[:, None]))
        assert spectrum[0] >= 1.0 - 1e-12
        assert spectrum[-1] <= (1.0 / p_min) * (1 + 1e-12) <= 2 * m / gamma * (1 + 1e-12)
        sigma = action_covariance(p, features)
        lam = float(np.linalg.eigvalsh(sigma)[0])
        for i in range(num):
            loss = float(rng.uniform(-1.0, 1.0))
            via_complement = bandit._complement_estimate(Z, p, i, loss)
            via_covariance = features @ bandit._estimate_adversary(sigma, features[i], loss)
            f_i = float(np.linalg.norm(features[i]))
            bound_complement = (num + 12) * (k + 1) * _UNIT_ROUNDOFF * abs(loss) / (
                p[i] * p_min**2)
            bound_covariance = frob * f_i * _UNIT_ROUNDOFF * abs(loss) * (
                (num + 4 + 10 * m) * sq_norm_max / lam**2 + (m + 1) / lam)
            gap = float(np.linalg.norm(via_complement - via_covariance))
            assert gap <= bound_complement + bound_covariance


def test_estimator_path_selection():
    # the complement path needs k = N - m < m and gamma min nu >= gamma / (2m)
    _, _, features, nu, cfg = _gaussian_setup()
    assert features.shape == (30, 20) and nu.weights.min() == 0.0
    certificate = bandit._certify_run(cfg, features, nu)
    assert certificate.estimator == {
        "path": "covariance", "k": 10, "probability_lower_bound": 0.0}
    assert certificate.basis is None
    # the same features under the uniform design, and with one weight just
    # below or above 1 / (2m), the rest raised to keep the sum at 1
    uniform = DiscreteDistribution(np.full(30, 1.0 / 30))
    assert _path(cfg, features, uniform) == "complement"
    low = np.full(30, 1.0 / 30)
    low[0] = 0.99 / (2 * 20)
    low[1:] = (1.0 - low[0]) / 29
    assert _path(cfg, features, DiscreteDistribution(low)) == "covariance"
    low[0] = 1.01 / (2 * 20)
    low[1:] = (1.0 - low[0]) / 29
    assert _path(cfg, features, DiscreteDistribution(low)) == "complement"
    # k >= m: the linear setup (m = 3 of N = 20) and the edge N = 2m
    _, features, nu, cfg = _setup(n=100)
    assert bandit._certify_run(cfg, features, nu).estimator["k"] == 17
    assert _path(cfg, features, nu) == "covariance"
    assert _path(cfg, features, DiscreteDistribution(np.full(20, 1.0 / 20))) == "covariance"
    # the path depends only on N, m and min nu, so each edge set is whitened
    # by its uniform design first, which makes it certifiable
    edge = component_rng(15, "edge").standard_normal((6, 3))
    cfg3 = BanditConfig(eta=0.1, gamma=0.5, m=3, eps=0.0, n=10)
    for num, path in ((6, "covariance"), (5, "complement")):
        uniform = DiscreteDistribution(np.full(num, 1.0 / num))
        assert _path(cfg3, whiten_features(edge[:num], uniform), uniform) == path
    # the bench's regime: m = 15 of N = 20 circle directions
    _, _, features, nu, cfg = _complement_setup()
    estimator = bandit._certify_run(cfg, features, nu).estimator
    assert estimator["path"] == "complement" and estimator["k"] == 5
    assert estimator["probability_lower_bound"] == cfg.gamma * nu.weights.min()
    assert estimator["probability_lower_bound"] >= cfg.gamma / (2 * cfg.m)


# sha256 of the action indices (int64) and losses (float64) of one seeded
# bandit run.  The rng.py contract says the same seed gives the same trace,
# so a change to this value must be named and explained.  Both values moved
# when the observed loss became the loss-matrix entry L[t, idx]: the indices
# are unchanged and the losses move by at most 7.8e-16.
_BANDIT_RUN_SHA256 = "b013ea67697df2386611850b9eb7d970eec5e9e56630e0fe739a8ca4ec475117"
# the same for gaussian:0.5 on 30 unit vectors, proxy rank m = 20, n = 300
_GAUSSIAN_BANDIT_RUN_SHA256 = (
    "e57093938fc8c6d20b4727b64cbbd175916ae4a2415ce5294d2944b89c5055ba")
# the same for gaussian:0.5 on 20 circle directions, m = 15, n = 300: a run
# on the complement path, pinned before that path existed, so the switch of
# estimator keeps the same seed's trace
_COMPLEMENT_BANDIT_RUN_SHA256 = (
    "f8fd0cb579cb18c0c319fbdd91e72adcd98bd155f3d6091a23d55d2c9cc36269")


def _trace_digest(trace) -> str:
    return hashlib.sha256(trace.action_indices.astype(np.int64).tobytes()
                          + trace.losses.astype(np.float64).tobytes()).hexdigest()


def _pinned_config(case):
    # the runs of the pinned digests: the linear setup on the covariance path
    # under the paper schedule, gaussian:0.5 on 30 unit vectors (m = 20, the
    # covariance path) and on 20 circle directions (m = 15, the complement
    # path) under explicit params
    from kernelbandits.harness import (ExperimentConfig, ball_directions,
                                       unit_vector_adversary)

    if case == "linear":
        return ExperimentConfig(algo="bandit_ew", kernel=LINEAR,
                                actions=spanning_unit_vectors(20, 3, seed=0),
                                adversary=unit_vector_adversary(3), n=200, seeds=(0,),
                                proxy_p=80, proxy_m=3)
    if case == "gaussian":
        return ExperimentConfig(algo="bandit_ew", kernel=KernelSpec.gaussian(0.5),
                                actions=spanning_unit_vectors(30, 3, seed=0),
                                adversary=unit_vector_adversary(3), n=300, seeds=(0,),
                                proxy_p=60, proxy_m=20,
                                params={"eta": 0.05, "gamma": 0.5})
    return ExperimentConfig(algo="bandit_ew", kernel=KernelSpec.gaussian(0.5),
                            actions=ball_directions(20),
                            adversary=unit_vector_adversary(2), n=300, seeds=(0,),
                            proxy_p=40, proxy_m=15, params={"eta": 0.05, "gamma": 0.5})


_PINNED_DIGESTS = {"linear": _BANDIT_RUN_SHA256, "gaussian": _GAUSSIAN_BANDIT_RUN_SHA256,
                   "complement": _COMPLEMENT_BANDIT_RUN_SHA256}


@pytest.mark.filterwarnings("error")
def test_bandit_run_trace_is_pinned():
    from kernelbandits.harness import run_experiment

    assert _trace_digest(run_experiment(_pinned_config("linear")).traces[0]) == _BANDIT_RUN_SHA256


@pytest.mark.filterwarnings("error")
def test_gaussian_bandit_run_trace_is_pinned():
    from kernelbandits.harness import run_experiment

    result = run_experiment(_pinned_config("gaussian"))
    assert result.details["bandit_config"].m == 20
    assert _trace_digest(result.traces[0]) == _GAUSSIAN_BANDIT_RUN_SHA256


@pytest.mark.filterwarnings("error")
def test_complement_bandit_run_trace_is_pinned():
    from kernelbandits.harness import run_experiment

    result = run_experiment(_pinned_config("complement"))
    assert result.details["bandit_estimator"]["path"] == "complement"
    assert _trace_digest(result.traces[0]) == _COMPLEMENT_BANDIT_RUN_SHA256


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, path", [("linear", "covariance"),
                                        ("gaussian", "covariance"),
                                        ("complement", "complement")])
def test_run_bandit_matches_the_paper_oracle(case, path):
    # the block step against the bandit written from the paper, with an
    # explicit Sigma_t and a dense solve (oracles.bandit_fold_oracle), on the
    # pinned runs: the same draws give the same indices, and so the oracle's
    # trace has the pinned digest.  The log weights come from two routes that
    # round differently (LU of Sigma_t by blocks, or the k x k complement
    # solve, against a dense solve of a separately formed Sigma_t): each
    # round's estimate is backward stable, off by about kappa (N + m) u of
    # its size for kappa <= 2m / gamma, the condition number of a covariance
    # above the floor gamma / (2m) with whitened rows of norm <= 1.  At these
    # shapes kappa (N + m) u < 3e-13, so the log weights may differ by
    # 1e-12 times the run's total step sum_t eta ||l-hat_t||_inf.  The
    # expected losses differ only in the softmax's rounding.
    from kernelbandits.harness import _bandit_setup
    from oracles import bandit_fold_oracle

    config = _pinned_config(case)
    features, nu, cfg, _ = _bandit_setup(config)
    certificate = bandit._certify_run(cfg, features, nu)
    assert certificate.estimator["path"] == path
    schedule = config.adversary.materialize(config.n, component_rng(0, "adversary"))
    idx, losses, expected, _, loss_hat_max, _, state = bandit._bandit_play(
        config.kernel, config.actions, features, nu, cfg, schedule,
        component_rng(0, "player"), certificate)
    o_idx, o_losses, o_expected, o_loss_hat_max, o_log_weights = bandit_fold_oracle(
        config.kernel, config.actions, features, nu, cfg, schedule,
        component_rng(0, "player"))
    assert np.array_equal(idx, o_idx)
    assert losses.tobytes() == o_losses.tobytes()
    assert hashlib.sha256(o_idx.tobytes() + o_losses.tobytes()).hexdigest() == (
        _PINNED_DIGESTS[case])
    total_step = cfg.eta * o_loss_hat_max.sum()
    assert np.abs(state.log_weights - o_log_weights).max() <= 1e-12 * total_step
    assert np.abs(loss_hat_max - o_loss_hat_max).max() <= 1e-12 * o_loss_hat_max.max()
    assert np.abs(expected - o_expected).max() <= 1e-14


def test_mean_regret_is_below_a_non_vacuous_theorem_bound():
    """The paper schedule on 40 lattice points of the sphere, gaussian:2,
    n = 3000: the theorem bound (~1.68 n) is below 2 G^2 n, the most any
    player can lose to the best action, so it says something; the mean
    realized regret over three seeds is below it, and so is the mean
    pseudo-regret.

    The bound holds in expectation, for the pseudo-regret.  Against an
    oblivious adversary the schedule does not depend on the play, so
    E[realized regret] = E[pseudo-regret], and the test compares the means
    over seeds, estimates of that expectation, with the bound.
    """
    from kernelbandits.harness import ExperimentConfig, run_experiment, unit_vector_adversary

    kernel = KernelSpec.gaussian(2.0)
    config = ExperimentConfig(algo="bandit_ew", kernel=kernel,
                              actions=fibonacci_sphere(40),
                              adversary=unit_vector_adversary(3), n=3000,
                              seeds=(0, 1, 2))
    result = run_experiment(config)
    assert result.details["bandit_estimator"]["path"] == "complement"
    assert result.details["bandit_estimator"]["k"] == 7
    G = kernel.norm_bound_G
    bound = theorem_regret_bound(result.details["bandit_config"], G, num_actions=40)
    assert bound < 2.0 * G * G * config.n
    assert result.mean_final_regret < bound
    assert np.mean([trace.final_pseudo_regret for trace in result.traces]) < bound


def test_hoeffding_inequality_exact():
    # log E[e^{-lam X}] <= (e-2) lam^2 E[X^2] - lam E[X] for lam X >= -1
    rng = component_rng(11, "hoeffding")
    for _ in range(100):
        k = int(rng.integers(2, 12))
        probs = rng.dirichlet(np.ones(k))
        lam = float(rng.random() * 2.0 + 1e-3)
        xs = rng.standard_normal(k) * 2.0
        xs = np.maximum(xs, -1.0 / lam)  # enforce lam X >= -1
        lhs = math.log(float(probs @ np.exp(-lam * xs)))
        rhs = (math.e - 2.0) * lam**2 * float(probs @ xs**2) - lam * float(probs @ xs)
        assert lhs <= rhs + 1e-12


def test_theorem_bound_formula():
    cfg = BanditConfig(eta=0.01, gamma=0.4, m=10, eps=0.0, n=1000)
    expected = (4 * 0.4 * 1000 + (math.e - 2) * 0.01 * 10 * 1000
                + math.log(50) / 0.01)
    assert theorem_regret_bound(cfg, G=1.0, num_actions=50) == pytest.approx(expected)
