import math

import numpy as np
import pytest

from kernelbandits.errors import DegenerateSpectrumWarning, InputError
from kernelbandits.kernels import KernelSpec, feature_matrix, gram_matrix
from kernelbandits.proxy import (
    EigendecayProfile,
    approximation_sup_error,
    basis_from_samples,
    build_proxy,
    effective_dimension,
    fit_eigendecay,
    proxy_features,
)
from kernelbandits.rng import component_rng
from oracles import fibonacci_sphere, gram_basis_oracle, kernel_eval

LINEAR = KernelSpec.linear(G=3.0)
GAUSS_HALF = KernelSpec.gaussian(0.5)


def test_linear_full_rank_proxy_is_exact():
    rng = component_rng(0, "proxy-lin")
    basis = build_proxy(LINEAR, rng.standard_normal((30, 3)), m=3, p=50, rng=rng)
    probes = rng.standard_normal((100, 3))
    assert approximation_sup_error(LINEAR, basis, probes) <= 1e-8


def test_m1_single_repeated_sample():
    x0 = np.array([0.5, 0.5])
    basis = basis_from_samples(LINEAR, np.tile(x0, (5, 1)), m=1)
    rng = component_rng(1, "proxy-m1")
    for _ in range(20):
        y = rng.standard_normal(2)
        expected = kernel_eval(LINEAR, x0, y) / math.sqrt(kernel_eval(LINEAR, x0, x0))
        got = proxy_features(basis, y[None, :])[0]
        assert got.shape == (1,)
        # eigenvector sign is arbitrary; the induced kernel is not
        assert abs(abs(got[0]) - abs(expected)) <= 1e-10


def _taylor_features(x: np.ndarray, sigma: float, deg: int) -> np.ndarray:
    # exp(-|x-y|^2/2s^2) = e^{-x^2/2s^2} e^{-y^2/2s^2} sum_k (xy/s^2)^k / k!
    k = np.arange(deg + 1)
    fact = np.array([math.factorial(int(j)) for j in k], dtype=float)
    return (np.exp(-(x**2) / (2 * sigma**2))[:, None]
            * x[:, None] ** k / (sigma**k * np.sqrt(fact)))


def test_gaussian_spectrum_matches_taylor_feature_oracle():
    rng = component_rng(2, "proxy-taylor")
    xs = rng.random(200)
    scaled_gram = gram_matrix(GAUSS_HALF, xs[:, None]) * (1.0 / 200)
    eig_gram = np.sort(np.linalg.eigvalsh(scaled_gram))[::-1][:8]
    F = _taylor_features(xs, 0.5, 10)
    cov = F.T @ F / 200
    eig_cov = np.sort(np.linalg.eigvalsh(cov))[::-1][:8]
    assert np.abs(eig_gram - eig_cov).max() <= 1e-4


def test_proxy_feature_examples_and_contraction():
    rng = component_rng(3, "proxy-feat")
    pts = rng.standard_normal((40, 3))
    basis = basis_from_samples(LINEAR, pts, m=3)
    probes = rng.standard_normal((1000, 3))
    F = proxy_features(basis, probes)
    # full-rank linear proxy is a rotation: norms preserved
    assert np.abs(np.linalg.norm(F, axis=1)
                  - np.linalg.norm(probes, axis=1)).max() <= 1e-8
    # projection contracts the norm for any kernel
    gbasis = build_proxy(GAUSS_HALF, np.linspace(0, 1, 60)[:, None], m=5, p=60,
                         rng=component_rng(4, "g"))
    xs = rng.random((1000, 1))
    Fg = proxy_features(gbasis, xs)
    diag = np.ones(xs.shape[0])  # K(x, x) = 1 for the Gaussian kernel
    assert np.all(np.sum(Fg * Fg, axis=1) <= diag + 1e-8)


def test_proxy_feature_dimension_mismatch():
    basis = basis_from_samples(LINEAR, np.eye(3), m=3)
    with pytest.raises(InputError):
        proxy_features(basis, np.zeros(2)[None, :])


def test_sample_basis_invariants():
    points, p = np.linspace(0, 1, 40)[:, None], 80
    basis = build_proxy(GAUSS_HALF, points, m=6, p=p, rng=component_rng(5, "inv"))
    mu = basis.eigenvalues
    assert np.all(mu > 0)
    assert np.all(np.diff(mu) <= 0)
    # normalizers_j^2 = p mu_j, for the p samples drawn, not the s kept
    assert np.abs(basis.normalizers**2 - p * mu).max() <= 1e-8 * mu[0] * p
    # the rows are the distinct draws, and C^-1/2 times the coefficients, for
    # C the draw counts, is the orthonormal eigenvector set of the s x s eigh
    draws = points[component_rng(5, "inv").integers(0, points.shape[0], size=p)]
    rows, counts = np.unique(draws, axis=0, return_counts=True)
    assert np.array_equal(basis.sample_points, rows)
    b = basis.eig_coeffs / np.sqrt(counts)
    assert np.abs(b @ b.T - np.eye(basis.m)).max() <= 1e-8


def test_effective_dimension_examples():
    poly = EigendecayProfile("polynomial", C=1.0, beta=3.0, eigfn_bound_B=1.0)
    # ceil((4 / (2 * 0.5))^(1/2)) = 2
    assert effective_dimension(poly, 0.5) == 2
    expo = EigendecayProfile("exponential", C=1.0, beta=1.0, eigfn_bound_B=1.0)
    assert effective_dimension(expo, 4.0 / math.e) == 1
    # huge eps clamps at 1
    assert effective_dimension(poly, 100.0) == 1
    assert effective_dimension(expo, 100.0) == 1


def test_effective_dimension_validation():
    with pytest.raises(InputError):
        EigendecayProfile("polynomial", C=1.0, beta=0.5)
    with pytest.warns(UserWarning):
        EigendecayProfile("polynomial", C=1.0, beta=1.5)
    for bad in (float("nan"), float("inf")):
        for variant, C, beta, B in (("exponential", bad, 1.0, 1.0),
                                    ("exponential", 1.0, bad, 1.0),
                                    ("polynomial", 1.0, bad, 1.0),
                                    ("polynomial", 1.0, 3.0, bad)):
            with pytest.raises(InputError):
                EigendecayProfile(variant, C=C, beta=beta, eigfn_bound_B=B)
    poly = EigendecayProfile("polynomial", C=1.0, beta=3.0)
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="eps must be positive and finite"):
            effective_dimension(poly, eps)


def test_sup_error_of_degenerate_basis_is_kernel_sup():
    # a basis whose single direction is orthogonal to all probes
    basis = basis_from_samples(LINEAR, np.array([[0.0, 0.0, 1.0]]), m=1)
    probes = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.5, -0.5, 0.0]])
    K = gram_matrix(LINEAR, probes)
    assert approximation_sup_error(LINEAR, basis, probes) == pytest.approx(
        np.abs(K).max()
    )


def test_gaussian_certification_with_fitted_decay():
    grid = np.linspace(0.0, 1.0, 50)[:, None]
    spectrum_basis = build_proxy(GAUSS_HALF, grid, m=None, p=400,
                                 rng=component_rng(6, "fit"))
    profile = fit_eigendecay(spectrum_basis, "exponential", grid)
    m = effective_dimension(profile, 0.05)
    basis = build_proxy(GAUSS_HALF, grid, m=m, p=400, rng=component_rng(7, "fit2"))
    assert approximation_sup_error(GAUSS_HALF, basis, grid) <= 0.05


def test_gram_covariance_spectral_equivalence():
    rng = component_rng(8, "spectra")
    quad = KernelSpec.quadratic(G=2.0)
    for _ in range(20):
        p = int(rng.integers(2, 21))
        pts = rng.standard_normal((p, 2))
        pts /= np.maximum(np.linalg.norm(pts, axis=1), 1.0)[:, None]
        F = feature_matrix(quad, pts)
        cov = F.T @ F / p
        gram = gram_matrix(quad, pts) * (1.0 / p)
        ev_cov = np.sort(np.linalg.eigvalsh(cov))[::-1]
        ev_gram = np.sort(np.linalg.eigvalsh(gram))[::-1]
        k = min(len(ev_cov), len(ev_gram))
        assert np.abs(ev_cov[:k] - ev_gram[:k]).max() <= 1e-8


def test_projection_idempotence():
    basis = build_proxy(GAUSS_HALF, np.linspace(0, 1, 50)[:, None], m=5, p=100,
                        rng=component_rng(9, "idem"))
    probes = np.linspace(0.05, 0.95, 30)[:, None]
    F = proxy_features(basis, probes)
    # the proxy embeddings live in R^m; re-running the construction on them
    # under the linear kernel must reproduce the same kernel values
    lin = KernelSpec.linear(G=10.0)
    basis2 = basis_from_samples(lin, F, m=basis.m)
    F2 = proxy_features(basis2, F)
    assert np.abs(F @ F.T - F2 @ F2.T).max() <= 1e-8


def test_monotone_improvement_in_m():
    rng = component_rng(10, "mono")
    samples = rng.random((120, 1))
    probes = np.linspace(0, 1, 40)[:, None]
    observed = basis_from_samples(GAUSS_HALF, samples, m=None).m
    errors = []
    for m in range(1, min(observed, 10) + 1):
        basis = basis_from_samples(GAUSS_HALF, samples, m=m)
        errors.append(approximation_sup_error(GAUSS_HALF, basis, probes))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def test_degenerate_spectrum_warning_and_reduction():
    # rank-2 point set cannot support m = 3 under the linear kernel
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0],
                    [0.2, -0.3, 0.0]])
    with pytest.warns(DegenerateSpectrumWarning):
        basis = basis_from_samples(LINEAR, pts, m=3)
    assert basis.m == 2


def test_build_proxy_input_validation():
    rng = component_rng(12, "validate")
    with pytest.raises(InputError):
        build_proxy(LINEAR, np.eye(3), m=5, p=3, rng=rng)
    with pytest.raises(InputError):
        build_proxy(LINEAR, np.eye(3), m=0, p=3, rng=rng)
    # no samples, or no points to draw them from
    with pytest.raises(InputError):
        build_proxy(LINEAR, np.eye(3), m=None, p=0, rng=rng)
    with pytest.raises(InputError):
        build_proxy(LINEAR, np.empty((0, 3)), m=None, p=4, rng=rng)


def _sample_sets(points: np.ndarray, rng: np.random.Generator) -> dict:
    """Samples with repeats (drawn with replacement), one row repeated, and
    no repeats."""
    return {"with_replacement": points[rng.integers(0, points.shape[0], size=90)],
            "identical": np.tile(points[3], (12, 1)),
            "distinct": points}


@pytest.mark.parametrize("kernel", [LINEAR, KernelSpec.quadratic(G=2.0), GAUSS_HALF],
                         ids=["linear", "quadratic", "gaussian"])
@pytest.mark.parametrize("draw", ["with_replacement", "identical", "distinct"])
def test_distinct_sample_eigensolve_matches_the_full_gram(kernel, draw):
    # the basis over the s distinct samples is the basis of the p x p eigh
    # over every draw: the same m, the same eigenvalues and normalizers, and
    # the same induced kernel F F^T (the features themselves are fixed only
    # up to a rotation within each eigenspace), with its rows the distinct
    # samples, each once, and one coefficient per row
    rng = component_rng(13, f"distinct-{kernel.variant}")
    points = rng.standard_normal((30, 3))
    points /= np.maximum(np.linalg.norm(points, axis=1), 1.0)[:, None]
    samples = _sample_sets(points, rng)[draw]
    p = samples.shape[0]
    fast = basis_from_samples(kernel, samples, m=None)
    exact = gram_basis_oracle(kernel, samples)
    rows, counts = np.unique(samples, axis=0, return_counts=True)
    assert fast.m == exact.m
    assert np.array_equal(fast.sample_points, rows)
    assert fast.eig_coeffs.shape == (fast.m, rows.shape[0])
    top = exact.eigenvalues[0]
    assert np.abs(fast.eigenvalues - exact.eigenvalues).max() <= 1e-12 * top
    assert np.abs(fast.normalizers**2 - p * fast.eigenvalues).max() <= 1e-12 * p * top
    # C^-1/2 times the coefficients is the orthonormal eigenvector set b
    b = fast.eig_coeffs / np.sqrt(counts)
    assert np.abs(b @ b.T - np.eye(fast.m)).max() <= 1e-12
    probes = np.vstack([points, rng.standard_normal((20, 3)) / 2.0])
    F, F_exact = proxy_features(fast, probes), proxy_features(exact, probes)
    assert np.abs(F @ F.T - F_exact @ F_exact.T).max() <= 1e-12
    if draw == "identical":
        assert fast.m == 1


def test_proxy_eigensolve_runs_over_the_distinct_samples(monkeypatch):
    # the bench's proxy: 300 draws from 150 lattice points hit 127 of them;
    # the one eigh is 127 x 127, not 300 x 300, and the basis keeps the 127
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    with pytest.warns(DegenerateSpectrumWarning):
        basis = build_proxy(GAUSS_HALF, fibonacci_sphere(150), m=150, p=300,
                            rng=component_rng(0, "proxy"))
    draws = fibonacci_sphere(150)[component_rng(0, "proxy").integers(0, 150, size=300)]
    assert np.array_equal(basis.sample_points, np.unique(draws, axis=0))
    s = basis.sample_points.shape[0]
    assert s == 127
    assert shapes == [(s, s)]
    assert basis.eig_coeffs.shape == (basis.m, s)


def test_proxy_at_six_hundred_actions():
    # gaussian:2 on 600 lattice points, p = 1200: the spectrum above the
    # floor has 49 eigenvalues, and the proxy kernel is within 1e-8 of the
    # kernel on the actions
    points = fibonacci_sphere(600)
    kernel = KernelSpec.gaussian(2.0)
    basis = build_proxy(kernel, points, m=None, p=1200, rng=component_rng(0, "proxy"))
    assert basis.m == 49
    assert approximation_sup_error(kernel, basis, points) <= 1e-8
