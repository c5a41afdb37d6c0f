import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbandits.errors import (
    InputError,
    InvalidCombinationError,
    UnsupportedFeatureMapError,
)
from kernelbandits.harness import PeriodicAdversary, ScheduleAdversary
from kernelbandits.kernels import (
    ExplicitVector,
    KernelSpec,
    RankOne,
    Schedule,
    _kernel_of_pairs,
    _loss_column,
    _row_dots,
    _row_products,
    check_norm_bound,
    cross_gram,
    feature_map,
    feature_matrix,
    gram_matrix,
    loss_matrix,
    make_explicit,
    make_rank_one,
    quadratic_adversary,
    validate_points,
)
from kernelbandits.rng import component_rng
from oracles import (
    BIT_KERNELS,
    kernel_eval,
    kernel_of_inner_oracle,
    kernel_schedules,
    loss_eval,
)

LINEAR = KernelSpec.linear(G=1.0)
QUAD = KernelSpec.quadratic(G=2.0)
GAUSS = KernelSpec.gaussian(1.0)
POLY2 = KernelSpec.polynomial(2, 1.0, G=4.0)


def test_kernel_eval_examples():
    assert kernel_eval(LINEAR, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    x = np.array([0.3, -0.8])
    assert kernel_eval(GAUSS, x, x) == 1.0
    v = np.array([0.6, 0.8])
    # <(xx^T, x), (yy^T, y)> = (x.y)^2 + x.y = 1 + 1
    assert kernel_eval(QUAD, v, v) == pytest.approx(2.0, abs=1e-12)


def test_kernel_eval_dimension_mismatch():
    with pytest.raises(InputError):
        kernel_eval(LINEAR, np.zeros(2), np.zeros(3))


def test_loss_eval_examples():
    a = np.array([0.6, 0.8])
    w = quadratic_adversary(QUAD, np.eye(2), np.zeros(2))
    assert loss_eval(QUAD, a, w) == pytest.approx(1.0, abs=1e-12)
    # rank-one at the played point gives K(a, a)
    for spec in (LINEAR, QUAD, GAUSS):
        y = make_rank_one(spec, a)
        assert loss_eval(spec, a, y) == pytest.approx(kernel_eval(spec, a, a))
    w = make_explicit(LINEAR, np.array([0.3, -0.7]))
    assert loss_eval(LINEAR, np.array([1.0, 0.0]), w) == pytest.approx(0.3)


def test_explicit_vector_rejected_for_gaussian():
    with pytest.raises(InvalidCombinationError):
        make_explicit(GAUSS, np.array([0.1, 0.2]))
    with pytest.raises(InvalidCombinationError):
        loss_eval(GAUSS, np.zeros(2), ExplicitVector(np.zeros(2)))


def test_adversary_norm_bound_enforced():
    with pytest.raises(InputError):
        make_explicit(LINEAR, np.array([2.0, 0.0]))  # norm 2 > G = 1
    with pytest.raises(InputError):
        make_rank_one(QUAD, np.array([1.5, 0.0]))  # K(y,y) = 7.3 > G^2 = 4
    # a NaN norm compares false against G and is refused, not accepted
    for make, spec in ((make_explicit, LINEAR), (make_rank_one, QUAD), (make_rank_one, GAUSS)):
        with pytest.raises(InputError, match="not within bound"):
            make(spec, np.array([np.nan, 0.0]))
    # an action set's check is the same rule: a NaN row is refused, not returned
    for spec in (LINEAR, GAUSS):
        with pytest.raises(InputError, match="not within bound"):
            check_norm_bound(spec, np.array([[0.6, 0.8], [np.nan, 0.0]]))


def test_feature_map_examples():
    assert np.array_equal(feature_map(LINEAR, np.array([2.0, 3.0])), [2.0, 3.0])
    got = feature_map(QUAD, np.array([1.0, 0.0]))
    assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(UnsupportedFeatureMapError):
        feature_map(GAUSS, np.zeros(2))


def test_polynomial_feature_map_matches_direct_formula():
    rng = component_rng(0, "poly-pairs")
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        x /= max(1.0, np.linalg.norm(x))
        y /= max(1.0, np.linalg.norm(y))
        direct = (1.0 + x @ y) ** 2
        via_features = feature_map(POLY2, x) @ feature_map(POLY2, y)
        assert abs(direct - via_features) <= 1e-10


def test_feature_consistency_unit_ball():
    rng = component_rng(1, "feat-pairs")
    cubic = KernelSpec.polynomial(3, 0.5, G=2.0)
    for spec in (LINEAR, QUAD, POLY2, cubic):
        pts = rng.standard_normal((1000, 2, 3))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=2))[:, :, None]
        for x, y in pts[:100]:  # 100 per kernel keeps the suite quick
            k = kernel_eval(spec, x, y)
            f = feature_map(spec, x) @ feature_map(spec, y)
            assert abs(k - f) <= 1e-10
        batch = pts[:50, 0]
        F = feature_matrix(spec, batch)
        assert np.abs(F @ F.T - gram_matrix(spec, batch)).max() <= 1e-10


def test_gram_matrix_examples():
    x = np.array([[0.2, 0.4]])
    assert np.allclose(gram_matrix(GAUSS, x), [[1.0]])
    two = np.array([[1.0, 0.0], [1.0, 0.0]])
    G = gram_matrix(LINEAR, two)
    assert np.array_equal(G, [[1.0, 1.0], [1.0, 1.0]])
    assert np.linalg.matrix_rank(G) == 1

    rng = component_rng(2, "gram")
    pts = rng.standard_normal((5, 3))
    F = feature_matrix(QUAD, pts)
    assert np.abs(gram_matrix(QUAD, pts) - F @ F.T).max() <= 1e-10


def test_gram_scale_validation():
    with pytest.raises(InputError):
        gram_matrix(LINEAR, np.zeros((0, 2)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                min_size=1, max_size=20))
def test_gram_symmetric_psd(points):
    pts = np.array(points)
    for spec in (LINEAR, QUAD, GAUSS):
        G = gram_matrix(spec, pts)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G)[0] >= -1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-0.7, 0.7), min_size=2, max_size=2),
       st.lists(st.floats(-0.7, 0.7), min_size=2, max_size=2))
def test_kernel_symmetry_exact(xs, ys):
    x, y = np.array(xs), np.array(ys)
    for spec in (LINEAR, QUAD, GAUSS, POLY2):
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def test_loss_bounded_by_G_squared():
    rng = component_rng(3, "bound")
    for spec in (LINEAR, QUAD):
        actions = rng.standard_normal((50, 2))
        actions /= np.maximum(np.linalg.norm(actions, axis=1), 1.0)[:, None]
        check_norm_bound(spec, actions)
        for _ in range(20):
            y = rng.standard_normal(2)
            y /= max(1.0, np.linalg.norm(y))
            w = make_rank_one(spec, y)
            losses = loss_matrix(spec, actions, [w])[0]
            assert np.abs(losses).max() <= spec.norm_bound_G**2 + 1e-9


def test_check_norm_bound_rejects_low_declared_bound():
    spec = KernelSpec.quadratic(G=1.0)
    with pytest.raises(InputError):
        check_norm_bound(spec, np.array([[1.0, 0.0]]))  # K(a,a) = 2 > 1


def test_check_norm_bound_refuses_an_empty_set():
    # the sup of no norms is undefined: an input error, not numpy's ValueError
    for spec in (LINEAR, QUAD, GAUSS):
        with pytest.raises(InputError, match="empty set"):
            check_norm_bound(spec, np.empty((0, 2)))


def test_validate_points():
    with pytest.raises(InputError):
        validate_points(np.array([[np.inf, 0.0]]))
    with pytest.raises(InputError):
        validate_points(np.array([[1.1, 0.0]]))
    out = validate_points(np.array([1.0, 0.0]))
    assert out.shape == (1, 2)


def test_spec_validation():
    with pytest.raises(InputError):
        KernelSpec("gaussian", sigma=-1.0)
    with pytest.raises(InputError):
        KernelSpec("polynomial", degree=0, offset=1.0)
    # the degree is an integer >= 1: a fractional or non-finite degree built
    # and evaluated to inf or nan, and feature_dim raised TypeError on 2.5
    for degree in (2.5, 2.0, float("inf"), float("nan"), True, None):
        with pytest.raises(InputError, match="integer degree"):
            KernelSpec.polynomial(degree, 1.0, G=3.0)
    assert KernelSpec.polynomial(np.int64(2), 1.0, G=3.0).degree == 2
    with pytest.raises(InputError):
        KernelSpec("linear", norm_bound_G=0.0)
    # a non-finite bound, width or offset is refused, NaN included
    for bad in (float("nan"), float("inf")):
        for make in (lambda: KernelSpec.linear(G=bad),
                     lambda: KernelSpec.gaussian(bad),
                     lambda: KernelSpec.polynomial(2, bad, G=1.0)):
            with pytest.raises(InputError):
                make()


def test_rank_one_loss_matches_feature_route():
    rng = component_rng(4, "rank1")
    y = rng.standard_normal(2)
    y /= np.linalg.norm(y)
    a = np.array([0.3, 0.1])
    w = RankOne(y)
    expected = feature_map(QUAD, a) @ feature_map(QUAD, y)
    assert loss_eval(QUAD, a, w) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("spec", BIT_KERNELS, ids=lambda s: s.variant)
def test_loss_matrix_rows_do_not_depend_on_the_block_split(spec):
    # the blocked exponential-weights pass and its one-row round both read
    # rows of L; they agree bit for bit only if a row's bits do not depend
    # on the rows computed with it.  Against the scalar loss to rounding.
    actions = component_rng(8, "split-actions").standard_normal((12, 3))
    actions /= 1.25 * np.linalg.norm(actions, axis=1)[:, None]
    for kind, schedule in kernel_schedules(spec, 3, 600, seed=8).items():
        whole = loss_matrix(spec, actions, schedule)
        assert whole.shape == (600, 12)
        for rows in (1, 7, 256):
            split = np.concatenate([loss_matrix(spec, actions, schedule[s:s + rows])
                                    for s in range(0, 600, rows)])
            assert np.array_equal(split, whole), (kind, rows)
        scalar = np.array([[loss_eval(spec, a, w) for a in actions]
                           for w in schedule[:40]])
        assert np.abs(whole[:40] - scalar).max() <= 1e-12, kind


@pytest.mark.parametrize("spec", BIT_KERNELS, ids=lambda s: s.variant)
def test_loss_matrix_on_schedule_slices_equals_lists(spec):
    # whole-schedule passes read views of the schedule's arrays; each block
    # must have the bits of the same rows gathered from a list of actions,
    # on either side of the block edges
    actions = component_rng(9, "slice-actions").standard_normal((12, 3))
    actions /= 1.25 * np.linalg.norm(actions, axis=1)[:, None]
    for kind, listed in kernel_schedules(spec, 3, 600, seed=9).items():
        schedule = Schedule.of(listed)
        for start, stop in ((0, 255), (0, 256), (0, 257), (255, 511), (256, 512),
                            (257, 513), (255, 600), (257, 600)):
            assert np.array_equal(loss_matrix(spec, actions, schedule[start:stop]),
                                  loss_matrix(spec, actions, listed[start:stop])), \
                (kind, start, stop)


# every formula of _kernel_of_inner: the cubic of BIT_KERNELS and a
# degree-2 polynomial, whose power numpy computes as a square
_FORMULAS = BIT_KERNELS + (POLY2,)


def _formula_id(spec):
    return spec.variant + (str(spec.degree) if spec.degree else "")


def _ball_rows(rng, num, d):
    rows = rng.standard_normal((num, d))
    return rows / (1.25 * np.linalg.norm(rows, axis=1)[:, None])


@pytest.mark.parametrize("spec", _FORMULAS, ids=_formula_id)
def test_in_place_kernel_formula_has_the_out_of_place_bits(spec):
    # the formula works in place on the inner products it is handed; each
    # caller must still get the bits of the out-of-place formula, on the
    # cross shape, the paired shape and a (1, d) side of either
    rng = component_rng(21, f"in-place-{spec.variant}")
    for rows, cols, d in ((40, 12, 3), (1, 12, 3), (40, 1, 3), (1, 1, 3), (256, 150, 5)):
        X, Y = _ball_rows(rng, rows, d), _ball_rows(rng, cols, d)
        assert np.array_equal(cross_gram(spec, X, Y),
                              kernel_of_inner_oracle(spec, X @ Y.T, X, Y)), (rows, cols)
        assert np.array_equal(loss_matrix(spec, Y, Schedule(True, np.arange(rows), X)),
                              kernel_of_inner_oracle(spec, _row_products(Y, X), X, Y)), \
            (rows, cols)
        Z = _ball_rows(rng, rows, d)
        assert np.array_equal(_kernel_of_pairs(spec, X, Z),
                              kernel_of_inner_oracle(spec, _row_dots(X, Z), X, Z)), rows


@pytest.mark.parametrize("spec", _FORMULAS, ids=_formula_id)
def test_kernel_calls_leave_the_callers_arrays_unchanged(spec):
    # the formula consumes only the temporaries its callers form; every
    # array a caller hands in keeps its bits
    rng = component_rng(22, f"untouched-{spec.variant}")
    X, Y = _ball_rows(rng, 30, 3), _ball_rows(rng, 12, 3)
    before = X.copy(), Y.copy()
    cross_gram(spec, X, Y)
    gram_matrix(spec, X)
    assert np.array_equal(X, before[0]) and np.array_equal(Y, before[1])
    for kind, listed in kernel_schedules(spec, 3, 300, seed=22).items():
        schedule = Schedule.of(listed)
        rows, index = schedule.rows.copy(), schedule.index.copy()
        loss_matrix(spec, Y, schedule)
        _loss_column(spec, Y, schedule, 5)
        assert np.array_equal(Y, before[1]), kind
        assert np.array_equal(schedule.rows, rows) and np.array_equal(schedule.index, index), kind


@pytest.mark.parametrize("spec", _FORMULAS, ids=_formula_id)
def test_loss_column_is_the_loss_matrix_column(spec):
    # the accounting reads one column of L; it must have the bits of that
    # column of the full-width rows, for each kind of schedule, action count
    # and block of rows
    rng = component_rng(23, f"column-{spec.variant}")
    for num in (1, 12, 150):
        actions = _ball_rows(rng, num, 3)
        for kind, listed in kernel_schedules(spec, 3, 600, seed=23).items():
            schedule = Schedule.of(listed)
            for rows in (slice(0, 600), slice(255, 513), slice(7, 8)):
                L = loss_matrix(spec, actions, schedule[rows])
                for j in range(num):
                    assert np.array_equal(_loss_column(spec, actions, schedule[rows], j),
                                          L[:, j]), (num, kind, rows, j)


def test_malformed_schedules_raise_input_error():
    # rank-one rows of two lengths cannot form one array of points
    with pytest.raises(InputError):
        loss_matrix(LINEAR, np.eye(2), [RankOne(np.array([1.0, 0.0])),
                                        RankOne(np.array([1.0, 0.0, 0.0]))])
    with pytest.raises(InputError):
        Schedule.of([ExplicitVector(np.zeros(2)), ExplicitVector(np.zeros(6))])
    with pytest.raises(InputError):
        Schedule.of([np.array([1.0, 0.0])])
    # an explicit vector must have the kernel's feature dimension (6 for the
    # quadratic kernel on R^2)
    for w in (np.zeros(5), np.zeros(2)):
        with pytest.raises(InputError):
            loss_matrix(QUAD, np.eye(2), [ExplicitVector(w)])
    # every row's index must point at a stored row
    for index in (np.array([0, 1, 2]), np.array([0, -1, 1])):
        with pytest.raises(InputError):
            Schedule(True, index, np.zeros((2, 2)))
    # one kind flag, a 1-D integer index and a 2-D array of stored rows
    for kind, index, rows in ((np.ones(2, dtype=bool), np.array([0, 0]), np.zeros((1, 2))),
                              (True, np.array([[0]]), np.zeros((1, 2))),
                              (True, np.array([0.0]), np.zeros((1, 2))),
                              (True, np.array([0]), np.zeros(2))):
        with pytest.raises(InputError):
            Schedule(kind, index, rows)


def test_subschedules_rerun_no_check(monkeypatch):
    # a slice, an index array or a mask of a checked schedule selects from
    # its checked index into the same rows, so no check reruns; a 2-D key
    # still meets the checks
    schedule = Schedule(True, np.array([0, 1, 1, 0]), np.eye(2))
    with pytest.raises(InputError):
        schedule[np.array([[0, 1]])]

    def no_checks(self):
        raise AssertionError("a check reran")

    monkeypatch.setattr(Schedule, "__post_init__", no_checks)
    for key in (slice(1, 3), np.array([3, 0]), np.array([True, False, True, False])):
        sub = schedule[key]
        assert sub.rank_one and sub.rows is schedule.rows
        assert np.array_equal(sub.index, schedule.index[key])


def test_schedules_hold_rows_of_one_kind():
    # the adversary plays one element of the RKHS ball per round, all
    # points or all explicit vectors: rows that mix the kinds are refused
    # wherever a schedule is built from them
    a, b = RankOne(np.array([0.6, 0.8])), ExplicitVector(np.arange(6.0) / 20)
    for rows in ([a, b], [b, a, a], [a, b] * 3):
        with pytest.raises(InputError):
            Schedule.of(rows)
        with pytest.raises(InputError):
            PeriodicAdversary(tuple(rows)).materialize(4, component_rng(0, "adv"))
        with pytest.raises(InputError):
            ScheduleAdversary(tuple(rows)).materialize(len(rows), component_rng(0, "adv"))
    # one kind, or no rows at all, is a schedule; an empty one gives a
    # (0, N) loss matrix without checking its (absent) rows
    for rows in ([a, a], [b, b]):
        schedule = Schedule.of(rows)
        assert schedule.rank_one == (rows[0] is a) and schedule.rows.shape[0] == 2
    empty = Schedule.of([])
    assert len(empty) == 0
    for spec in (QUAD, GAUSS):
        assert loss_matrix(spec, np.eye(2), empty).shape == (0, 2)
