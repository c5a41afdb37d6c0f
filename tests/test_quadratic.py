import hashlib
import math
import warnings

import numpy as np
import pytest

from kernelbandits import quadratic
from kernelbandits.errors import DegenerateStartError, InputError
from kernelbandits.quadratic import (
    QuadraticObjective,
    _slice_chord,
    _uniforms,
    chain_autocorrelation,
    quad_ew_sample,
    trs_minimize,
)
from kernelbandits.rng import component_rng
from oracles import sampler_fold_oracle


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
    with pytest.raises(InputError):
        QuadraticObjective(np.zeros((0, 0)), np.zeros(0))


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


def test_sampler_validation():
    obj = QuadraticObjective(np.zeros((2, 2)), np.zeros(2))
    rng = component_rng(12, "validate")
    with pytest.raises(InputError):
        quad_ew_sample(obj, count=0, rng=rng)
    with pytest.raises(InputError):
        quad_ew_sample(obj, count=1, burn_in=-1, rng=rng)
    for bad in (dict(count=2.5), dict(count=True),
                dict(count=3, burn_in=2.5), dict(count=3, burn_in=False)):
        with pytest.raises(InputError):
            quad_ew_sample(obj, rng=rng, **bad)


def test_chain_autocorrelation_diagnostic():
    rng = component_rng(13, "acf")
    iid = rng.standard_normal((5000, 2))
    assert abs(chain_autocorrelation(iid)) <= 0.05
    walk = np.cumsum(iid, axis=0)
    assert chain_autocorrelation(walk) > 0.9


def _cdf_on_interval(alpha: float, beta: float, lo: float,
                     hi: float) -> tuple[np.ndarray, np.ndarray]:
    """CDF of the density proportional to exp(alpha t^2 + beta t) on [lo, hi],
    on a grid that is fine near both ends, from the exact integral of the
    exponential of the log-density's linear interpolation per cell."""
    near = 1.0 - np.geomspace(1e-10, 1.0, 4000)
    unit = np.unique(np.concatenate([np.linspace(0.0, 1.0, 40_001), near, 1.0 - near]))
    x = lo + (hi - lo) * unit
    g = alpha * x * x + beta * x
    g -= g.max()
    rise = np.diff(g)
    growth = np.ones_like(rise)  # (e^rise - 1) / rise, 1 on flat cells
    steep = np.abs(rise) >= 1e-12
    growth[steep] = np.expm1(rise[steep]) / rise[steep]
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(x) * np.exp(g[:-1]) * growth)])
    return x, cdf / cdf[-1]


@pytest.mark.parametrize("alpha,beta,lo,hi", [
    (5.0, 1.0, -1.0, 1.0), (-5.0, 1.0, -1.0, 1.0), (0.0, 3.0, -1.0, 1.0),
    (-20.0, 2.0, -1.0, 1.0), (0.3, 2.0, -1.0, 1.0), (40.0, 7.0, -0.9, 0.6),
    (1e4, 1.0, -1.0, 1.0), (-1e4, 50.0, -1.0, 1.0), (1e4, -3e4, -0.5, 1.0),
    (-3e4, 1e4, -0.2, 0.3), (1e5, 1e5, -0.01, 0.02),
])
def test_chord_draws_follow_the_exact_law(alpha, beta, lo, hi):
    # One slice step leaves the chord law invariant: started from t0 drawn
    # from the law exp(alpha t^2 + beta t) on [lo, hi], the step lands on t1
    # with the same law.  The step runs from the sampler's t = 0, so it is
    # shifted to t0: slope beta + 2 alpha t0 on [lo - t0, hi - t0].
    # One-sample Kolmogorov-Smirnov test of the t1 at p = 0.001 against a
    # numeric CDF.  It assumes independent draws, and they are: independent
    # t0 (inverse CDF of independent uniforms) give independent t1, as each
    # step reads only its t0 and fresh uniforms.
    grid, cdf = _cdf_on_interval(alpha, beta, lo, hi)
    rng = component_rng(14, "ks")
    n = 8000
    starts = np.interp(rng.random(n), cdf, grid)
    uniform = _uniforms(rng).__next__
    draws = np.sort([t0 + _slice_chord(alpha, beta + 2.0 * alpha * t0, lo - t0, hi - t0,
                                       uniform) for t0 in starts.tolist()])
    assert lo <= draws[0] and draws[-1] <= hi
    fitted = np.interp(draws, grid, cdf)
    ks = max(float(np.max(np.arange(1, n + 1) / n - fitted)),
             float(np.max(fitted - np.arange(n) / n)))
    assert math.sqrt(n) * ks <= 1.95  # Kolmogorov 0.999 quantile


@pytest.mark.parametrize("with_b", [False, True])
def test_sampler_stays_finite_and_in_the_ball_at_extreme_scale(with_b):
    # the benchmark's spectrum times 1e4: log-densities ~5e4 across a chord,
    # whose mass sits within ~1e-5 of one end
    rng = component_rng(15, "extreme")
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    B = 1e4 * q @ np.diag([3.0, 1.0, 0.0, -2.0, -5.0]) @ q.T
    b = 1e4 * rng.standard_normal(5) if with_b else np.zeros(5)
    obj = QuadraticObjective(0.5 * (B + B.T), b)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                divide="raise"):
        warnings.simplefilter("error")
        samples = quad_ew_sample(obj, count=3000, burn_in=500,
                                 rng=component_rng(16, "extreme-chain"))
    assert np.all(np.isfinite(samples))
    assert np.max(np.sum(samples * samples, axis=1)) <= 1.0 + 1e-12


def test_sampler_draws_do_not_depend_on_count():
    # random numbers are drawn in whole blocks, so a longer call extends a
    # shorter one; 1100 and 2100 steps end in different blocks
    obj = QuadraticObjective(np.diag([3.0, -5.0]), np.array([0.5, -1.0]))
    short = quad_ew_sample(obj, count=1000, burn_in=100, rng=component_rng(17, "prefix"))
    long = quad_ew_sample(obj, count=2000, burn_in=100, rng=component_rng(17, "prefix"))
    assert np.array_equal(short, long[:1000])


# sha256 of the float64 draws of one seeded chain.  The rng.py contract says
# the same seed gives the same draws, so a change to this value must be named
# and explained.
_SAMPLER_DRAWS_SHA256 = "c73212daa24b155f0899bffaf5090d7538bc30c4eb121191207dd2e5857c468f"


def test_sampler_draws_are_pinned():
    obj = QuadraticObjective(np.array([[2.0, 0.5, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, 0.5]]),
                             np.array([0.5, -1.0, 0.25]))
    samples = quad_ew_sample(obj, count=500, burn_in=50, rng=component_rng(18, "pin"))
    digest = hashlib.sha256(samples.astype(np.float64).tobytes()).hexdigest()
    assert digest == _SAMPLER_DRAWS_SHA256


def _sampler_objective(d: int, with_b: bool) -> QuadraticObjective:
    # the benchmark's spectrum, cut to its first d values, in a seeded basis
    rng = component_rng(19, f"fold-{d}")
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    B = q @ np.diag([3.0, 1.0, 0.0, -2.0, -5.0][:d]) @ q.T
    return QuadraticObjective(0.5 * (B + B.T), rng.standard_normal(d) if with_b else np.zeros(d))


@pytest.mark.parametrize("burn_in,count", [(300, 700), (0, 257), (5000, 1), (256, 256),
                                           (255, 2), (511, 3)])
@pytest.mark.parametrize("d,with_b", [(1, True), (3, True), (5, False), (5, True)])
def test_sampler_equals_its_fold_oracle(d, with_b, burn_in, count):
    # the step forms lam_i u_i in its loop, adds up the next step's dot
    # products in its update loop, except at a block's last step, and keeps
    # each block's states in one flat list; none may move a bit.  The
    # burn-ins and counts end mid-block, on a block boundary and one step
    # into a block, and (255, 2) and (511, 3) keep only the draws that
    # straddle a block's end.
    obj = _sampler_objective(d, with_b)
    got = quad_ew_sample(obj, count=count, burn_in=burn_in, rng=component_rng(20, "fold"))
    want = sampler_fold_oracle(obj, count, burn_in, component_rng(20, "fold"))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("k", [255, 300])
def test_degenerate_chord_is_refused_at_the_next_step(monkeypatch, bad, k):
    # a slice step that lands on NaN or +inf at step k leaves no finite
    # chord through the state, so step k + 1 refuses it and names itself
    calls = []

    def slice_chord(*args):
        calls.append(None)
        return bad if len(calls) == k + 1 else _slice_chord(*args)

    monkeypatch.setattr(quadratic, "_slice_chord", slice_chord)
    obj = _sampler_objective(3, True)
    with pytest.raises(DegenerateStartError, match=rf" at step {k + 1}$"):
        quad_ew_sample(obj, count=500, burn_in=100, rng=component_rng(21, "degenerate"))
    assert len(calls) == k + 1
