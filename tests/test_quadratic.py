import math

import numpy as np
import pytest

from kernelbandits.errors import InputError
from kernelbandits.quadratic import (
    QuadraticObjective,
    chain_autocorrelation,
    quad_ew_sample,
    surrogate_membership,
    trs_minimize,
)
from kernelbandits.rng import component_rng


def kkt_holds(obj: QuadraticObjective, a: np.ndarray, tol: float = 1e-6) -> bool:
    grad = 2 * obj.B @ a + obj.b
    norm = np.linalg.norm(a)
    if norm < 1 - tol:
        return np.linalg.norm(grad) <= tol
    if abs(norm - 1) > tol:
        return False
    nu = -0.5 * float(a @ grad) / float(a @ a)
    resid = np.linalg.norm(grad + 2 * nu * a)
    lam_min = float(np.linalg.eigvalsh(obj.B)[0])
    return resid <= tol and nu >= -tol and lam_min + nu >= -tol


def test_trs_negative_definite_forces_boundary():
    obj = QuadraticObjective(-np.eye(2), np.zeros(2))
    a, value = trs_minimize(obj)
    assert value == pytest.approx(-1.0, abs=1e-10)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)


def test_trs_pure_linear():
    obj = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, 0.0]))
    a, value = trs_minimize(obj)
    assert np.allclose(a, [-1.0, 0.0], atol=1e-10)
    assert value == pytest.approx(-1.0, abs=1e-10)


def test_trs_psd_interior():
    obj = QuadraticObjective(np.diag([1.0, 2.0]), np.zeros(2))
    a, value = trs_minimize(obj)
    assert np.linalg.norm(a) <= 1e-10
    assert value == pytest.approx(0.0, abs=1e-12)


def test_trs_matches_grid_oracle():
    rng = component_rng(0, "trs-grid")
    r = np.sqrt(np.linspace(0.0, 1.0, 1000))
    th = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False)
    R, TH = np.meshgrid(r, th)
    P = np.column_stack([(R * np.cos(TH)).ravel(), (R * np.sin(TH)).ravel()])
    for _ in range(5):
        M = rng.standard_normal((2, 2))
        obj = QuadraticObjective(0.5 * (M + M.T), rng.standard_normal(2))
        _, value = trs_minimize(obj)
        grid_vals = np.einsum("ij,jk,ik->i", P, obj.B, P) + P @ obj.b
        assert value <= grid_vals.min() + 1e-12
        assert abs(value - grid_vals.min()) <= 1e-3


def test_trs_kkt_on_random_instances():
    rng = component_rng(1, "trs-rand")
    for _ in range(300):
        d = int(rng.integers(1, 7))
        M = rng.standard_normal((d, d))
        obj = QuadraticObjective(0.5 * (M + M.T), rng.standard_normal(d))
        a, _ = trs_minimize(obj)
        assert kkt_holds(obj, a)


def test_trs_hard_case():
    rng = component_rng(2, "trs-hard")
    for _ in range(50):
        d = int(rng.integers(2, 7))
        lam = np.sort(rng.standard_normal(d))
        lam[0] = lam[1] = min(lam[0], -0.5)  # repeated negative bottom eigenvalue
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        B = Q @ np.diag(lam) @ Q.T
        # linear term orthogonal to the bottom eigenspace and small
        coeffs = np.concatenate([[0.0, 0.0], 0.01 * rng.standard_normal(d - 2)])
        obj = QuadraticObjective(0.5 * (B + B.T), Q @ coeffs)
        a, _ = trs_minimize(obj)
        assert kkt_holds(obj, a)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-8)


def test_quadratic_objective_validation():
    with pytest.raises(InputError):
        QuadraticObjective(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(InputError):
        QuadraticObjective(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(InputError):
        QuadraticObjective(np.full((2, 2), np.nan), np.zeros(2))


def _rejection_oracle(obj: QuadraticObjective, proposals: int,
                      rng: np.random.Generator) -> np.ndarray:
    flipped = QuadraticObjective(-obj.B, -obj.b)
    argmax, _ = trs_minimize(flipped)
    f_max = obj.value(argmax)
    u = rng.random(proposals)
    th = rng.random(proposals) * 2 * np.pi
    P = np.column_stack([np.sqrt(u) * np.cos(th), np.sqrt(u) * np.sin(th)])
    f = np.einsum("ij,jk,ik->i", P, obj.B, P) + P @ obj.b
    return P[rng.random(proposals) < np.exp(f - f_max)]


@pytest.mark.parametrize("B,b", [
    (np.diag([4.0, -6.0]), np.array([1.0, 0.5])),
    (-10.0 * np.eye(2), np.zeros(2)),
    (np.zeros((2, 2)), np.array([5.0, 0.0])),
])
def test_sampler_moments_match_rejection_oracle(B, b):
    obj = QuadraticObjective(B, b)
    oracle = _rejection_oracle(obj, 10**6, component_rng(6, "oracle"))
    samples = quad_ew_sample(obj, count=60_000, burn_in=4000,
                             rng=component_rng(7, "chain"))
    for moment in (lambda s: s.mean(axis=0), lambda s: (s**2).mean(axis=0)):
        want, got = moment(oracle), moment(samples)
        for w, g in zip(want, got):
            if abs(w) < 0.1:
                assert abs(g - w) <= 0.02
            else:
                assert abs(g - w) <= 0.15 * abs(w)


def test_sampler_uniform_when_objective_vanishes():
    obj = QuadraticObjective(np.zeros((2, 2)), np.zeros(2))
    samples = quad_ew_sample(obj, count=100_000, burn_in=2000,
                             rng=component_rng(8, "chain"))
    assert np.abs(samples.mean(axis=0)).max() <= 0.02
    assert np.all(np.linalg.norm(samples, axis=1) <= 1.0 + 1e-9)


def test_sampler_b_shift_sign():
    obj = QuadraticObjective(np.zeros((2, 2)), np.array([5.0, 0.0]))
    samples = quad_ew_sample(obj, count=20_000, burn_in=2000,
                             rng=component_rng(9, "chain"))
    oracle = _rejection_oracle(obj, 10**5, component_rng(10, "oracle"))
    assert samples[:, 0].mean() > 0
    assert np.sign(samples[:, 0].mean()) == np.sign(oracle[:, 0].mean())


def test_sampler_sign_symmetry_without_linear_term():
    obj = QuadraticObjective(np.diag([3.0, -5.0]), np.zeros(2))
    samples = quad_ew_sample(obj, count=10_000, burn_in=2000,
                             rng=component_rng(11, "chain"))
    # two-sided sign test per coordinate at p > 0.01.  It assumes the signs
    # of the draws are independent fair coins; with b = 0 the sampler's
    # Metropolis reflection after each step makes that exact (hit-and-run
    # alone rarely crosses between the modes at a_1 = +-1).  About 2% of
    # seeds fail with a correct sampler.
    for j in range(2):
        pos = int((samples[:, j] > 0).sum())
        n = samples.shape[0]
        z = abs(pos - n / 2) / math.sqrt(n / 4)
        assert z <= 2.58  # |z| below the 1% two-sided normal quantile


def test_surrogate_set_is_convex():
    rng = component_rng(12, "convex")
    obj = QuadraticObjective(np.diag([2.0, -3.0, 1e-14]),
                             np.array([0.5, -0.2, 0.7]))
    member, nonzero = surrogate_membership(obj)
    assert nonzero.tolist() == [True, True, False]

    def random_feasible():
        while True:
            v = rng.standard_normal(3)
            v[nonzero] = np.abs(v[nonzero])
            if member(v):
                return v

    for _ in range(10_000):
        x, y = random_feasible(), random_feasible()
        assert member(0.5 * (x + y))


def test_sampler_validation():
    obj = QuadraticObjective(np.zeros((2, 2)), np.zeros(2))
    rng = component_rng(12, "validate")
    with pytest.raises(InputError):
        quad_ew_sample(obj, count=0, rng=rng)
    with pytest.raises(InputError):
        quad_ew_sample(obj, count=1, burn_in=-1, rng=rng)


def test_chain_autocorrelation_diagnostic():
    rng = component_rng(13, "acf")
    iid = rng.standard_normal((5000, 2))
    assert abs(chain_autocorrelation(iid)) <= 0.05
    walk = np.cumsum(iid, axis=0)
    assert chain_autocorrelation(walk) > 0.9
