import hashlib
from fractions import Fraction

import numpy as np
import pytest

from kernelbandits import design
from kernelbandits.bandit import _estimate_adversary
from kernelbandits.design import (
    DiscreteDistribution,
    action_covariance,
    d_optimal_design,
    design_weights_csv,
    reduce_to_span,
    whiten_features,
)
from kernelbandits.errors import (
    DegenerateSpectrumWarning,
    InputError,
    RankDeficiencyError,
    ToleranceNotMetError,
)
from kernelbandits.kernels import KernelSpec
from kernelbandits.proxy import build_proxy, proxy_features
from kernelbandits.rng import component_rng
from oracles import d_optimal_design_exact, fibonacci_sphere, whiten_features_eigh


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
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(0.25, abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_design_one_dimensional_prefers_larger_scalar():
    # the optimum puts all mass on the larger scalar; the barrier keeps the
    # other weight positive, and the certificate 4 / (4 - 3 w_1) <= 1 + tol
    # bounds it by 4 tol / 3
    F = np.array([[2.0], [1.0]])
    d = d_optimal_design(F)
    assert 0.0 < d.weights[1] <= 4e-6 / 3
    assert _kw_ratio(F, d.weights) <= 1.0 + 1e-6


@pytest.mark.filterwarnings("error")
def test_design_interior_points_keep_vanishing_weights():
    # the interior points are off the optimal support: their weights stay
    # positive and come out below 1e-6, and the update stays finite and
    # warning-free as they shrink
    F = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1], [0.2, -0.1]])
    d = d_optimal_design(F)
    assert np.all((d.weights[2:] > 0.0) & (d.weights[2:] < 1e-6))
    assert np.allclose(d.weights[:2], 0.5)
    assert _kw_ratio(F, d.weights) <= 1.0 + 1e-6


def test_design_beats_uniform_logdet():
    rng = component_rng(0, "design")
    F = rng.standard_normal((20, 3))
    F /= np.linalg.norm(F, axis=1)[:, None]
    des = d_optimal_design(F, tol=1e-6)
    uni = DiscreteDistribution(np.full(20, 1.0 / 20))
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


def _bench_design_set():
    """The benchmark's design input: gaussian:0.5 on 150 lattice points of
    the sphere, proxy p = 300 at seed 0, reduced to its span, m = 127."""
    points = fibonacci_sphere(150)
    with pytest.warns(DegenerateSpectrumWarning):  # 127 of 150 eigenvalues kept
        basis = build_proxy(KernelSpec.gaussian(0.5), points, m=150, p=300,
                            rng=component_rng(0, "proxy"))
    F = reduce_to_span(proxy_features(basis, points))[0]
    assert F.shape == (150, 127)
    return F


def _two_axes_and_a_diagonal(c):
    # n = 3 = m (m + 1) / 2: from the uniform start the mu = 0 step is
    # refused for c = 0.9 and taken once, then refused, for c = 0.95
    return np.array([[1.0, 0.0], [0.0, 1.0], [c / np.sqrt(2), c / np.sqrt(2)]])


def test_design_matches_exact_oracle(monkeypatch):
    # the design loop follows the oracle's loop step for step: barrier
    # steps on the random sets (from the start where n > m (m + 1) / 2),
    # mu = 0 steps alone on the benchmark's set (the last), one mu = 0 step
    # then barrier steps on the c = 0.95 set
    sets = _kw_feature_sets()
    points = component_rng(4, "gauss").uniform(-1.0, 1.0, size=(60, 2)) / np.sqrt(2)
    basis = build_proxy(KernelSpec.gaussian(0.5), points, m=48, p=120,
                        rng=component_rng(4, "proxy"))
    sets.append(reduce_to_span(proxy_features(basis, points))[0])
    assert sets[-1].shape[1] >= 40
    sets += [_two_axes_and_a_diagonal(0.9), _two_axes_and_a_diagonal(0.95)]
    sets.append(_bench_design_set())
    recomputations = _record_leverages(monkeypatch)
    for F in sets:
        fast = d_optimal_design(F, tol=1e-6)
        exact = d_optimal_design_exact(F, tol=1e-6)
        assert np.abs(fast.weights - exact.weights).sum() <= 1e-12
        assert _kw_ratio(F, fast.weights) <= 1.0 + 1e-6
        assert _kw_ratio(F, exact.weights) <= 1.0 + 1e-6
    # the start and one after each of the three mu = 0 steps
    assert recomputations.count((150, 127)) == 4


def _record_leverages(monkeypatch):
    shapes = []
    leverages = design._leverages

    def recorded(F, w):
        shapes.append(F.shape)
        return leverages(F, w)

    monkeypatch.setattr(design, "_leverages", recorded)
    return shapes


def _record_steps(monkeypatch):
    """(mu, fraction of the step taken) of every design step."""
    steps = []
    barrier_step = design._barrier_step

    def recorded(F, H, g, w, mu):
        new, t = barrier_step(F, H, g, w, mu)
        steps.append((mu, t))
        return new, t

    monkeypatch.setattr(design, "_barrier_step", recorded)
    return steps


def test_newton_steps_alone_certify_the_benchmark_set(monkeypatch):
    # three steps in all, each one a whole mu = 0 Newton step: a fourth step
    # of any kind would exceed the cap
    F = _bench_design_set()
    m = F.shape[1]
    steps = _record_steps(monkeypatch)
    monkeypatch.setattr(design, "_DESIGN_MAX_ITER", 3)
    nu = d_optimal_design(F, tol=1e-6)
    assert steps == [(0.0, 1.0)] * 3
    assert _kw_ratio(F, nu.weights) <= 1.0 + 1e-6
    assert nu.weights.min() >= 1.0 / (2 * m)  # the bandit's complement path


def test_design_above_the_newton_size_starts_on_the_barrier(monkeypatch):
    # n = 30 > m (m + 1) / 2 = 15: no mu = 0 step is tried, mu starts at 1
    # and only falls, the weights are the oracle's to 1e-12, and their bits
    # are pinned (the barrier weights digest)
    steps = _record_steps(monkeypatch)
    F = component_rng(3, "cap").standard_normal((30, 5))
    w = d_optimal_design(F).weights
    mus = [mu for mu, _ in steps]
    assert mus[0] == 1.0 and all(b <= a for a, b in zip(mus, mus[1:]))
    assert np.abs(w - d_optimal_design_exact(F).weights).sum() <= 1e-12
    assert _kw_ratio(F, w) <= 1.0 + 1e-6
    assert hashlib.sha256(w.tobytes()).hexdigest() == _BARRIER_WEIGHTS_SHA256


# sha256 of the design weights (float64) of the 30 x 5 set above
_BARRIER_WEIGHTS_SHA256 = (
    "d7b0cb9e153871971866b1add1fbe15c569b3dbc450a69aab366d420fd9d00f7")


def test_refused_newton_step_leaves_the_weights_unchanged():
    # the design puts vanishing weight on the diagonal point, and the mu = 0
    # step from the uniform start would make its weight negative
    F = _two_axes_and_a_diagonal(0.9)
    w = np.full(3, 1.0 / 3)
    H, g = design._leverages(F, w)
    new, t = design._barrier_step(F, H, g, w, 0.0)
    assert t == 0.0 and new is w
    assert np.array_equal(w, np.full(3, 1.0 / 3))
    nu = d_optimal_design(F)
    assert 0.0 < nu.weights[2] < 1e-5
    assert _kw_ratio(F, nu.weights) <= 1.0 + 1e-6


def _gaussian_lattice_features(num, m):
    """gaussian:2 proxy features of num Fibonacci lattice points, proxy
    p = 2 num at seed 0, truncated at m (None: every eigenvalue above the
    floor)."""
    points = fibonacci_sphere(num)
    basis = build_proxy(KernelSpec.gaussian(2.0), points, m=m, p=2 * num,
                        rng=component_rng(0, "proxy"))
    return proxy_features(basis, points)


@pytest.mark.filterwarnings("error")
def test_design_certifies_the_600_point_gaussian_set():
    # n = 600 >> m (m + 1) / 2 at m = 49, where K is singular: barrier steps
    # from the start certify on exact leverages in a fraction of a second
    F = _gaussian_lattice_features(600, None)
    assert F.shape == (600, 49)
    nu = d_optimal_design(F, tol=1e-6)
    assert _kw_ratio(F, nu.weights) <= 1.0 + 1e-6
    assert nu.weights.min() > 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [10, 16, 24])
def test_design_certifies_the_150_point_gaussian_set_at_small_m(m):
    # the proxy ranks at which the theorem's bound is lowest on this set
    F = _gaussian_lattice_features(150, m)
    assert F.shape == (150, m)
    nu = d_optimal_design(F, tol=1e-6)
    assert _kw_ratio(F, nu.weights) <= 1.0 + 1e-6


def test_design_iteration_cap_raises_without_certificate(monkeypatch):
    # three steps from the uniform start leave max_i g_i / m at 1.47; the
    # leverages are recomputed exactly at the start and after every step
    monkeypatch.setattr(design, "_DESIGN_MAX_ITER", 3)
    recomputations = _record_leverages(monkeypatch)
    F = component_rng(3, "cap").standard_normal((30, 5))
    with pytest.raises(ToleranceNotMetError) as err:
        d_optimal_design(F)
    assert err.value.iterations == 3 and err.value.achieved_gap > 1e-6
    assert len(recomputations) == 4


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_design_refuses_tolerance_before_the_first_step(monkeypatch, tol):
    def no_steps(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(design, "_leverages", no_steps)
    with pytest.raises(InputError):
        d_optimal_design(np.eye(3), tol=tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_design_refuses_non_finite_features(bad):
    # a NaN row made the rank check fail in the SVD and an inf row read as
    # rank 0; either is an input error before any step
    F = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, bad]])
    with pytest.raises(InputError, match="non-finite"):
        d_optimal_design(F)


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


def test_action_covariance_refuses_negative_weights():
    # sqrt(w) needs w >= 0; zero weights are fine (see the examples above)
    F = np.array([[1.0, 1.0], [2.0, -1.0]])
    for w in ([1.5, -0.5], [-1e-300, 1.0], [np.nan, 1.0]):
        with pytest.raises(InputError):
            action_covariance(np.array(w), F)


def test_action_covariance_is_bitwise_symmetric():
    # X^T X is one symmetric product: entry (k, l) has the bits of (l, k),
    # at the bench's N = 150, m = 127 and on small random cases
    rng = component_rng(4, "sym")
    for N, m in [(150, 127)] + [tuple(rng.integers(1, 12, size=2)) for _ in range(40)]:
        F = rng.standard_normal((N, m))
        w = rng.dirichlet(np.ones(N))
        cov = action_covariance(w, F)
        assert np.array_equal(cov, cov.T), (N, m)


def test_action_covariance_rounding_within_stated_bound():
    # each entry is within (N + 4) u sum_i w_i |f_ik| |f_il| of the exact
    # moment of the float inputs, computed in rationals
    u = Fraction(np.finfo(float).eps) / 2
    rng = component_rng(5, "exact")
    for N, m in [(1, 1), (2, 1), (3, 2), (5, 3), (8, 4), (12, 3)]:
        for _ in range(5):
            F = rng.standard_normal((N, m)) * 10.0 ** rng.integers(-3, 4, size=(N, 1))
            w = rng.dirichlet(np.full(N, 0.5))
            cov = action_covariance(w, F)
            wq = [Fraction(x) for x in w]
            Fq = [[Fraction(x) for x in row] for row in F]
            for k in range(m):
                for l in range(m):
                    exact = sum(wq[i] * Fq[i][k] * Fq[i][l] for i in range(N))
                    scale = sum(wq[i] * abs(Fq[i][k] * Fq[i][l]) for i in range(N))
                    assert abs(Fraction(cov[k, l]) - exact) <= (N + 4) * u * scale


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
    return np.abs(sigma @ _estimate_adversary(sigma, phi, loss) - loss * phi).max() <= 1e-8


def test_estimate_adversary_solves_examples():
    m = 4
    cov = action_covariance(np.full(m, 1.0 / m), np.eye(m))
    assert _solves(cov, np.arange(1.0, m + 1), 0.7)
    assert np.linalg.eigvalsh(cov)[0] == pytest.approx(1.0 / m)
    assert _solves(np.diag([2.0, 4.0]), np.array([1.0, -1.0]), 0.5)

    rng = component_rng(6, "spd")
    M = rng.standard_normal((5, 5))
    spd = M.T @ M + 0.1 * np.eye(5)
    assert np.linalg.eigvalsh(spd)[0] > 0.05
    for phi in np.eye(5):
        assert _solves(spd, phi, 1.0)


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


def test_cholesky_whitening_of_the_benchmark_set():
    # F L^-T / sqrt(m) makes the design covariance I / m, as the symmetric
    # inverse square root did; the two frames differ by an orthogonal map,
    # so the squared row norms (whose max is the Kiefer-Wolfowitz ratio)
    # agree to rounding
    F = _bench_design_set()
    m = F.shape[1]
    nu = d_optimal_design(F)
    W = whiten_features(F, nu)
    assert np.abs(action_covariance(nu.weights, W) - np.eye(m) / m).max() <= 1e-12
    reference = whiten_features_eigh(F, nu)
    assert abs(np.einsum("ij,ij->i", W, W).max()
               - np.einsum("ij,ij->i", reference, reference).max()) <= 1e-12


def test_whitening_refuses_a_design_covariance_with_a_null_direction():
    # a feature column of zeros, or a design on 60 of the 150 actions, gives
    # the design covariance null directions: the Cholesky factorization
    # fails, and the error carries the covariance's rank
    F = _bench_design_set()
    nu = d_optimal_design(F)
    with pytest.raises(RankDeficiencyError) as err:
        whiten_features(np.column_stack((F, np.zeros(F.shape[0]))), nu)
    assert (err.value.rank, err.value.dim) == (127, 128)
    with pytest.raises(RankDeficiencyError) as err:
        whiten_features(F, DiscreteDistribution(np.repeat([1.0 / 60, 0.0], [60, 90])))
    assert (err.value.rank, err.value.dim) == (60, 127)


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
