import numpy as np
import pytest

from kernelbandits.design import (
    Covariance,
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
    cov = action_covariance(d, np.eye(4))
    assert np.abs(cov.matrix - np.eye(4) / 4).max() <= 1e-6
    assert cov.min_eig == pytest.approx(0.25, abs=1e-6)


def test_design_one_dimensional_prefers_larger_scalar():
    d = d_optimal_design(np.array([[2.0], [1.0]]))
    assert d.weights[0] == pytest.approx(1.0, abs=1e-9)


def test_design_beats_uniform_logdet():
    rng = component_rng(0, "design")
    F = rng.standard_normal((20, 3))
    F /= np.linalg.norm(F, axis=1)[:, None]
    des = d_optimal_design(F, tol=1e-6)
    uni = DiscreteDistribution.uniform(20)
    logdet = np.linalg.slogdet(action_covariance(des, F).matrix)[1]
    logdet_uni = np.linalg.slogdet(action_covariance(uni, F).matrix)[1]
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
        sigma = action_covariance(des, F).matrix
        lev = np.einsum("ij,jk,ik->i", F, np.linalg.inv(sigma), F)
        assert lev.max() <= m * (1.0 + 1e-4)


def test_action_covariance_examples():
    uni = DiscreteDistribution.uniform(3)
    cov = action_covariance(uni, np.eye(3))
    assert np.allclose(cov.matrix, np.eye(3) / 3)
    point = DiscreteDistribution(np.array([0.0, 1.0]))
    F = np.array([[1.0, 1.0], [2.0, -1.0]])
    cov = action_covariance(point, F)
    assert np.allclose(cov.matrix, np.outer(F[1], F[1]))
    assert np.linalg.matrix_rank(cov.matrix) == 1


def test_action_covariance_matches_monte_carlo():
    rng = component_rng(2, "mc")
    F = rng.standard_normal((10, 3))
    p = DiscreteDistribution(rng.dirichlet(np.ones(10)))
    exact = action_covariance(p, F).matrix
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
    cov = action_covariance(DiscreteDistribution.uniform(m), np.eye(m))
    inv = invert_covariance(cov, floor=0.1)
    assert np.allclose(inv, m * np.eye(m))
    diag = Covariance(np.diag([2.0, 4.0]), 2.0)
    assert np.allclose(invert_covariance(diag, 0.5), np.diag([0.5, 0.25]))

    rng = component_rng(6, "spd")
    M = rng.standard_normal((5, 5))
    spd = M.T @ M + 0.1 * np.eye(5)
    cov = Covariance(spd, float(np.linalg.eigvalsh(spd)[0]))
    inv = invert_covariance(cov, floor=0.05)
    assert np.abs(spd @ inv - np.eye(5)).max() <= 1e-8
    assert np.allclose(inv, inv.T)


def test_invert_covariance_floor_error_carries_min_eig():
    cov = Covariance(np.diag([1.0, 1e-8]), 1e-8)
    with pytest.raises(IllConditionedCovarianceError) as err:
        invert_covariance(cov, floor=1e-4)
    assert err.value.min_eig == pytest.approx(1e-8)


def test_mixture_eigenvalue_floor_after_whitening():
    rng = component_rng(7, "floor")
    for gamma in (0.05, 0.2, 0.8):
        F = rng.standard_normal((25, 4))
        nu = d_optimal_design(F, tol=1e-8)
        W = whiten_features(F, nu)
        for _ in range(20):
            q = DiscreteDistribution(rng.dirichlet(np.ones(25)))
            mixed = DiscreteDistribution((1 - gamma) * q.weights + gamma * nu.weights)
            cov = action_covariance(mixed, W)
            assert cov.min_eig >= gamma / 4 - 1e-9


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
