import numpy as np
import pytest

from kernelbandits import design
from kernelbandits.bandit import estimate_adversary
from kernelbandits.design import (
    DiscreteDistribution,
    action_covariance,
    check_covariance_floor,
    d_optimal_design,
    design_weights_csv,
    reduce_to_span,
    whiten_features,
)
from kernelbandits.errors import (
    IllConditionedCovarianceError,
    InputError,
    RankDeficiencyError,
    ToleranceNotMetError,
)
from kernelbandits.kernels import KernelSpec
from kernelbandits.proxy import build_proxy, proxy_features
from kernelbandits.rng import component_rng
from oracles import d_optimal_design_exact


def test_distribution_validation():
    with pytest.raises(InputError):
        DiscreteDistribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(InputError):
        DiscreteDistribution(np.array([0.5, 0.2]))
    d = DiscreteDistribution(np.array([0.25, 0.75]))
    assert abs(d.weights.sum() - 1.0) <= 1e-12


def test_design_standard_basis_is_uniform():
    d = d_optimal_design(np.eye(4))
    assert np.abs(d.weights - 0.25).max() <= 1e-6
    cov = action_covariance(d.weights, np.eye(4))
    assert np.abs(cov - np.eye(4) / 4).max() <= 1e-6
    check_covariance_floor(cov, floor=0.1)
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(0.25, abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_design_one_dimensional_prefers_larger_scalar():
    # the add step from the uniform start has lam = 1: a singular rank-one
    # update, which must be recomputed rather than divided by zero
    d = d_optimal_design(np.array([[2.0], [1.0]]))
    assert d.weights[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_design_away_step_drops_support_point():
    # the interior points start with mass and leverage below 1, so away steps
    # remove them entirely; the update must stay finite and warning-free
    F = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1], [0.2, -0.1]])
    d = d_optimal_design(F)
    assert np.array_equal(d.weights[2:], [0.0, 0.0])
    assert np.allclose(d.weights[:2], 0.5)


def test_design_beats_uniform_logdet():
    rng = component_rng(0, "design")
    F = rng.standard_normal((20, 3))
    F /= np.linalg.norm(F, axis=1)[:, None]
    des = d_optimal_design(F, tol=1e-6)
    uni = DiscreteDistribution.uniform(20)
    logdet = np.linalg.slogdet(action_covariance(des.weights, F))[1]
    logdet_uni = np.linalg.slogdet(action_covariance(uni.weights, F))[1]
    assert logdet >= logdet_uni - 1e-6


def test_design_rank_deficiency_error():
    F = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(RankDeficiencyError) as err:
        d_optimal_design(F)
    assert err.value.rank == 1 and err.value.dim == 2


def _kw_feature_sets():
    rng = component_rng(1, "kw")
    sets = []
    for _ in range(10):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 40))
        sets.append(rng.standard_normal((n, m)))
    return sets


def _kw_ratio(F, weights):
    """max_i f_i^T Sigma^-1 f_i / m, from the exact inverse."""
    sigma = action_covariance(weights, F)
    return np.einsum("ij,jk,ik->i", F, np.linalg.inv(sigma), F).max() / F.shape[1]


def test_kiefer_wolfowitz_certificate():
    for F in _kw_feature_sets():
        des = d_optimal_design(F, tol=1e-6)
        assert _kw_ratio(F, des.weights) <= 1.0 + 1e-4


def test_design_matches_exact_oracle():
    # the rank-one updates follow the from-scratch loop step for step
    sets = _kw_feature_sets()
    points = component_rng(4, "gauss").uniform(-1.0, 1.0, size=(60, 2)) / np.sqrt(2)
    basis = build_proxy(KernelSpec.gaussian(0.5), points, m=48, p=120,
                        rng=component_rng(4, "proxy"))
    sets.append(reduce_to_span(proxy_features(basis, points))[0])
    assert sets[-1].shape[1] >= 40
    for F in sets:
        fast = d_optimal_design(F, tol=1e-6)
        exact = d_optimal_design_exact(F, tol=1e-6)
        assert np.abs(fast.weights - exact.weights).sum() <= 1e-12
        assert _kw_ratio(F, fast.weights) <= 1.0 + 1e-6
        assert _kw_ratio(F, exact.weights) <= 1.0 + 1e-6


def test_design_iteration_cap_raises_without_certificate(monkeypatch):
    # three steps from the uniform start leave max_i g_i / m at 1.84
    monkeypatch.setattr(design, "_DESIGN_MAX_ITER", 3)
    F = component_rng(3, "cap").standard_normal((30, 5))
    with pytest.raises(ToleranceNotMetError) as err:
        d_optimal_design(F)
    assert err.value.iterations == 3 and err.value.achieved_gap > 1e-6


def test_action_covariance_examples():
    cov = action_covariance(np.full(3, 1.0 / 3), np.eye(3))
    assert np.allclose(cov, np.eye(3) / 3)
    F = np.array([[1.0, 1.0], [2.0, -1.0]])
    cov = action_covariance(np.array([0.0, 1.0]), F)
    assert np.allclose(cov, np.outer(F[1], F[1]))
    assert np.linalg.matrix_rank(cov) == 1
    assert np.array_equal(cov, cov.T)
    with pytest.raises(InputError):
        action_covariance(np.ones(3) / 3, F)


def test_action_covariance_matches_monte_carlo():
    rng = component_rng(2, "mc")
    F = rng.standard_normal((10, 3))
    p = DiscreteDistribution(rng.dirichlet(np.ones(10)))
    exact = action_covariance(p.weights, F)
    idx = rng.choice(10, size=10**6, p=p.weights)
    draws = F[idx]
    mc = draws.T @ draws / 10**6
    # entrywise within a few standard errors of the Monte-Carlo estimate
    outer = F[:, :, None] * F[:, None, :]
    var = np.einsum("i,ijk->jk", p.weights, outer**2) - exact**2
    se = np.sqrt(np.maximum(var, 0.0) / 10**6)
    assert np.all(np.abs(mc - exact) <= 3.5 * se + 1e-12)


def _solves(sigma, phi, loss):
    return np.abs(sigma @ estimate_adversary(sigma, phi, loss) - loss * phi).max() <= 1e-8


def test_check_covariance_floor_examples():
    m = 4
    cov = action_covariance(np.full(m, 1.0 / m), np.eye(m))
    check_covariance_floor(cov, floor=0.1)
    assert _solves(cov, np.arange(1.0, m + 1), 0.7)
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(1.0 / m)
    check_covariance_floor(np.diag([2.0, 4.0]), 0.5)
    assert _solves(np.diag([2.0, 4.0]), np.array([1.0, -1.0]), 0.5)

    rng = component_rng(6, "spd")
    M = rng.standard_normal((5, 5))
    spd = M.T @ M + 0.1 * np.eye(5)
    check_covariance_floor(spd, floor=0.05)
    for phi in np.eye(5):
        assert _solves(spd, phi, 1.0)
    with pytest.raises(InputError):
        check_covariance_floor(spd, floor=0.0)


def test_covariance_floor_error_carries_min_eig():
    with pytest.raises(IllConditionedCovarianceError) as err:
        check_covariance_floor(np.diag([1.0, 1e-8]), floor=1e-4)
    assert err.value.min_eig == pytest.approx(1e-8)
    assert err.value.floor == 1e-4


def test_covariance_floor_is_exact_at_the_boundary():
    # cholesky(sigma - floor I) decides lambda_min > floor to within rounding
    q, _ = np.linalg.qr(component_rng(9, "boundary").standard_normal((6, 6)))
    floor = 0.05
    for scale, passes in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
        sigma = q @ np.diag([floor * scale, 0.1, 0.3, 0.7, 1.0, 2.0]) @ q.T
        sigma = 0.5 * (sigma + sigma.T)
        if passes:
            check_covariance_floor(sigma, floor)
            continue
        with pytest.raises(IllConditionedCovarianceError) as err:
            check_covariance_floor(sigma, floor)
        assert abs(err.value.min_eig - np.linalg.eigvalsh(sigma)[0]) <= 1e-12
        assert err.value.floor == floor


def test_mixture_eigenvalue_floor_after_whitening():
    rng = component_rng(7, "floor")
    for gamma in (0.05, 0.2, 0.8):
        F = rng.standard_normal((25, 4))
        nu = d_optimal_design(F, tol=1e-8)
        W = whiten_features(F, nu)
        for _ in range(20):
            q = DiscreteDistribution(rng.dirichlet(np.ones(25)))
            mixed = DiscreteDistribution((1 - gamma) * q.weights + gamma * nu.weights)
            cov = action_covariance(mixed.weights, W)
            assert np.linalg.eigvalsh(cov)[0] >= gamma / 4 - 1e-9


def test_reduce_to_span():
    F = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    reduced, basis = reduce_to_span(F)
    assert reduced.shape == (3, 2)
    assert basis.shape == (2, 3)
    # inner products preserved under the projection
    assert np.allclose(reduced @ reduced.T, F @ F.T)
    with pytest.raises(InputError):
        reduce_to_span(np.zeros((3, 2)))


def test_design_weights_csv():
    d = DiscreteDistribution(np.array([0.25, 0.75]))
    text = design_weights_csv(d)
    lines = text.strip().split("\n")
    assert lines[0] == "action_index,weight"
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert float(lines[2].split(",")[1]) == 0.75
