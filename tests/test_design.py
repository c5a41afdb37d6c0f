import numpy as np
import pytest

from kernelbandits import design
from kernelbandits.design import (
    DiscreteDistribution,
    action_covariance,
    d_optimal_design,
    design_weights_csv,
    invert_covariance,
    reduce_to_span,
    whiten_features,
)
from kernelbandits.errors import (
    IllConditionedCovarianceError,
    InputError,
    RankDeficiencyError,
    ToleranceNotMetError,
)
from kernelbandits.rng import component_rng


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
    _, min_eig = invert_covariance(cov, floor=0.1)
    assert min_eig == pytest.approx(0.25, abs=1e-6)


def test_design_one_dimensional_prefers_larger_scalar():
    d = d_optimal_design(np.array([[2.0], [1.0]]))
    assert d.weights[0] == pytest.approx(1.0, abs=1e-9)


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


def test_kiefer_wolfowitz_certificate():
    rng = component_rng(1, "kw")
    for _ in range(10):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 40))
        F = rng.standard_normal((n, m))
        des = d_optimal_design(F, tol=1e-6)
        sigma = action_covariance(des.weights, F)
        lev = np.einsum("ij,jk,ik->i", F, np.linalg.inv(sigma), F)
        assert lev.max() <= m * (1.0 + 1e-4)


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


def test_invert_covariance_examples():
    m = 4
    cov = action_covariance(np.full(m, 1.0 / m), np.eye(m))
    inv, min_eig = invert_covariance(cov, floor=0.1)
    assert np.allclose(inv, m * np.eye(m))
    assert min_eig == pytest.approx(1.0 / m)
    inv, min_eig = invert_covariance(np.diag([2.0, 4.0]), 0.5)
    assert np.allclose(inv, np.diag([0.5, 0.25]))
    assert min_eig == 2.0

    rng = component_rng(6, "spd")
    M = rng.standard_normal((5, 5))
    spd = M.T @ M + 0.1 * np.eye(5)
    inv, min_eig = invert_covariance(spd, floor=0.05)
    assert np.abs(spd @ inv - np.eye(5)).max() <= 1e-8
    assert np.allclose(inv, inv.T)
    assert min_eig == pytest.approx(float(np.linalg.eigvalsh(spd)[0]), rel=1e-12)
    with pytest.raises(InputError):
        invert_covariance(spd, floor=0.0)


def test_invert_covariance_floor_error_carries_min_eig():
    with pytest.raises(IllConditionedCovarianceError) as err:
        invert_covariance(np.diag([1.0, 1e-8]), floor=1e-4)
    assert err.value.min_eig == pytest.approx(1e-8)
    assert err.value.floor == 1e-4


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
