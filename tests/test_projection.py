import functools
import gc
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsnmf import projection
from gsnmf.projection import nnls, project_matrix
from oracles import column_loop_nnls, grid_search_nnls_2d, random_two_column_instance


def kkt_violation(A, b, x, active_tol=0.0):
    gradient = A.T @ (A @ x - b)
    free = x > active_tol
    worst = 0.0
    if free.any():
        worst = max(worst, float(np.abs(gradient[free]).max()))
    if (~free).any():
        worst = max(worst, float(max(0.0, -gradient[~free].min())))
    return worst


def residual_norm(A, b, sol):
    """||b - A x|| of an ``nnls`` solution x, per column for a (V, M) block."""
    return np.linalg.norm(b - A @ sol.coefficients, axis=0)


def test_identity_dictionary_is_exact():
    A, b = np.eye(3), np.array([3.0, 0.0, 7.0])
    sol = nnls(A, b)
    np.testing.assert_allclose(sol.coefficients, [3.0, 0.0, 7.0])
    assert residual_norm(A, b, sol) == pytest.approx(0.0, abs=1e-12)
    assert sol.optimal


def test_single_column_projects_onto_ray():
    A, b = np.array([[1.0], [1.0]]), np.array([1.0, 0.0])
    sol = nnls(A, b)
    assert sol.coefficients[0] == pytest.approx(0.5, abs=1e-12)
    assert residual_norm(A, b, sol) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_negative_correlation_clamps_to_zero():
    # unconstrained optimum is negative, so the constrained one is 0
    A, b = np.array([[1.0], [0.0]]), np.array([-2.0, 1.0])
    sol = nnls(A, b)
    assert sol.coefficients[0] == 0.0
    assert residual_norm(A, b, sol) == pytest.approx(np.sqrt(5.0))


def test_kkt_optimality_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(300):
        V = int(rng.integers(1, 11))
        I = int(rng.integers(1, 7))
        A = rng.random((V, I))
        b = rng.random(V) * 3.0
        sol = nnls(A, b)
        assert sol.optimal
        assert kkt_violation(A, b, sol.coefficients) <= 1e-8


def test_matches_grid_search_on_two_column_problems():
    rng = np.random.default_rng(11)
    for _ in range(30):
        A, b = random_two_column_instance(rng)
        sol = nnls(A, b)
        oracle = grid_search_nnls_2d(A, b)
        np.testing.assert_allclose(sol.coefficients, oracle, atol=2e-3)


def test_residual_never_exceeds_target_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        A = rng.random((5, 3))
        b = rng.random(5)
        sol = nnls(A, b)
        assert residual_norm(A, b, sol) <= np.linalg.norm(b) + 1e-12


def test_zero_columns_are_dropped_with_warning():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.warns(UserWarning, match="all-zero"):
        sol = nnls(A, np.array([2.0, 1.0]))
    assert sol.coefficients[1] == 0.0
    assert sol.coefficients[0] == pytest.approx(2.0)


def test_a_column_whose_squared_norm_underflows_is_not_called_all_zero():
    # 1e-170 squared underflows to 0, so the column cannot be used, but it is not zero.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coeffs = project_matrix([[1e-170, 1.0], [0.0, 1.0], [0.0, 0.5]], [[1e-170], [0.0], [0.0]])
    assert [str(w.message) for w in caught] == [
        "dictionary has 1 column(s) too small to use in float64: [0]"
    ]
    assert coeffs[0, 0] == 0.0


def test_iteration_cap_returns_flagged_best_iterate():
    rng = np.random.default_rng(5)
    A = rng.random((6, 4))
    b = rng.random(6)
    sol = nnls(A, b, max_iter=1)
    assert sol.iterations <= 1
    if not sol.optimal:
        assert np.isfinite(residual_norm(A, b, sol))
    assert (sol.coefficients >= 0.0).all()


def test_residual_non_increasing_in_iteration_budget():
    # A capped column returns its last iterate, which is its best only because
    # active-set iterates never raise the residual: checked on well-conditioned
    # 7x5 instances and on ill-conditioned ones, at every cap from 1 to I + 1.
    rng = np.random.default_rng(29)
    instances = [(rng.random((7, 5)), rng.random(7) * 2.0) for _ in range(20)]
    rng = np.random.default_rng(11)
    for _ in range(300):
        rows, cols, rank = rng.integers(1, [25, 9, 9])
        instances.append(ill_conditioned_instance(
            rng, rows, cols, rank, rng.uniform(0.0, 8.0), rng.choice(["collinear", "scaled"]),
            rng.random() < 0.5,
        ))
    for A, b in instances:
        slack = 1e-12 * np.linalg.norm(b)
        residuals = [residual_norm(A, b, nnls(A, b, max_iter=k)) for k in range(1, A.shape[1] + 2)]
        assert max(residuals) <= np.linalg.norm(b) + slack
        assert all(r2 <= r1 + slack for r1, r2 in zip(residuals, residuals[1:]))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        nnls(np.eye(2), np.ones(3))


def test_nearly_parallel_columns_reach_an_in_cone_target():
    # The gradient left after the first column is freed is about 1e-10:
    # small in absolute terms, but far above rounding at this scale.
    A = np.column_stack([np.ones(4), np.ones(4) + 1e-5 * np.eye(4)[0]])
    b = 2.0 * np.ones(4) + 1e-5 * np.eye(4)[0]
    sol = nnls(A, b)
    assert sol.optimal
    assert residual_norm(A, b, sol) <= 1e-12 * np.linalg.norm(b)


def test_rejects_targets_that_overflow():
    A = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="float64"):
            nnls(A, np.full(3, 1e308))
        with pytest.raises(ValueError, match="sample column 1"):
            project_matrix(A, np.column_stack([np.ones(3), np.full(3, 1e308)]))


def spy_on_the_block_check(monkeypatch):
    """Record the block stacks that ``nnls`` passes to its per-free-set check."""
    checks = []
    check = projection._well_conditioned

    def spy(blocks):
        checks.append(blocks.shape)
        return check(blocks)

    monkeypatch.setattr(projection, "_well_conditioned", spy)
    return checks


def test_ill_conditioned_support_falls_back_to_lstsq(monkeypatch):
    # The support {a, a + 1e-4 e} has a Gram block with condition number
    # about 2e9, past the Cholesky check, so it is solved on A[:, F].
    a = np.array([2.0, 2.0, 2.0, 2.0, 0.0])
    e = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
    c = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    A = np.column_stack([a, a + 1e-4 * e, c])
    b = 2.0 * a + 1e-4 * e
    assert np.linalg.cond(A[:, :2].T @ A[:, :2]) > 1e9
    solved = []
    lstsq = np.linalg.lstsq

    def spy(matrix, rhs, rcond=None):
        solved.append(matrix.shape)
        return lstsq(matrix, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    checks = spy_on_the_block_check(monkeypatch)
    sol = nnls(A, b)
    assert checks and (5, 2) in solved
    np.testing.assert_allclose(sol.coefficients, [1.0, 1.0, 0.0], atol=1e-10)
    reference = scipy.optimize.nnls(A, b)[1]
    assert abs(residual_norm(A, b, sol) - reference) <= 1e-8 * np.linalg.norm(b)


STEP_BACK_INSTANCES = [
    ([[5.0, 2.0], [8.0, 3.0]], [8.0, 0.0]),
    ([[8.0, 9.0], [3.0, 3.0]], [7.0, 8.0]),
    ([[7.0, 8.0], [4.0, 4.0], [2.0, 2.0]], [4.0, 9.0, 2.0]),
    ([[2.0, 5.0, 1.0], [8.0, 5.0, 3.0], [1.0, 1.0, 1.0]], [1.0, 7.0, 8.0]),
]


@pytest.mark.parametrize("A, b", STEP_BACK_INSTANCES)
def test_step_back_leaves_the_blocking_coefficient_at_zero(A, b):
    # On these the Gram solves round the blocking coefficient of the step
    # back to a hair above zero; unless it is zeroed, the step back repeats
    # on the same free set forever.
    A, b = np.array(A), np.array(b)
    sol = nnls(A, b)
    reference, residual = scipy.optimize.nnls(A, b)
    np.testing.assert_allclose(sol.coefficients, reference, atol=1e-12)
    assert residual_norm(A, b, sol) == pytest.approx(residual, rel=1e-12)


def test_support_matches_scipy_on_well_conditioned_instances():
    # The Gram form takes the same active-set path as scipy's solver.
    rng = np.random.default_rng(19)
    for _ in range(300):
        I = int(rng.integers(1, 8))
        A = rng.random((int(rng.integers(I, 20)), I))
        b = rng.normal(size=A.shape[0]) if rng.random() < 0.5 else rng.random(A.shape[0]) * 3.0
        sol = nnls(A, b)
        np.testing.assert_array_equal(sol.coefficients > 0.0, scipy.optimize.nnls(A, b)[0] > 0.0)


def test_project_matrix_recovers_dictionary_columns():
    rng = np.random.default_rng(13)
    D = rng.random((8, 3)) + 0.1
    coeffs = project_matrix(D, D)
    residuals = np.linalg.norm(D - D @ coeffs, axis=0)
    assert residuals.max() < 1e-8


def test_project_matrix_zero_sample_gives_zero_column():
    rng = np.random.default_rng(17)
    D = rng.random((5, 2)) + 0.1
    samples = np.column_stack([np.zeros(5), D[:, 0]])
    coeffs = project_matrix(D, samples)
    np.testing.assert_array_equal(coeffs[:, 0], np.zeros(2))


def test_project_matrix_scales_along_a_ray():
    column = np.array([[1.0], [2.0], [0.5]])
    samples = np.hstack([column * k for k in (0.5, 1.0, 3.0)])
    coeffs = project_matrix(column, samples)
    np.testing.assert_allclose(coeffs.ravel(), [0.5, 1.0, 3.0], atol=1e-12)


def test_project_matrix_validates_shapes():
    with pytest.raises(ValueError):
        project_matrix(np.eye(3), np.ones((4, 2)))


def test_project_matrix_names_a_bad_column_in_a_later_block(monkeypatch):
    A = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, 0.3]])
    S = np.ones((3, 5))
    S[1, 3] = np.nan
    monkeypatch.setattr(projection, "_BLOCK_ELEMENTS", 2 * A.shape[0])
    with pytest.raises(ValueError, match="sample column 3: .*float64"):
        project_matrix(A, S)


def test_an_overflowing_dictionary_is_named_without_a_column():
    # Every target is finite; only A^T A overflows.
    A = np.array([[1e200, 1.0], [1.0, 1.0], [0.5, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="^dictionary too large .*float64$"):
            project_matrix(A, np.ones((3, 4)))


def test_nnls_runs_one_active_set_over_a_wide_target(monkeypatch):
    # With copies of 3 columns, 11 targets run one active set per call while
    # their (columns, V) copies (A^T b, thresholds) come 3 columns at a time:
    # each column is bitwise its own solve, the zero-column warning comes once
    # per call, and a bad target is named by its column.
    rng = np.random.default_rng(31)
    A = np.column_stack([rng.random((6, 3)), np.zeros(6)])
    S = np.asfortranarray(rng.random((6, 11)))
    monkeypatch.setattr(projection, "_BLOCK_ELEMENTS", 3 * A.shape[0] + 1)
    widths, copies = [], []
    active_set, norms = projection._active_set, projection._norms

    def spy(A, targets, *args):
        widths.append(targets.shape[1])
        return active_set(A, targets, *args)

    def norms_spy(rows):
        copies.append(rows.shape)
        return norms(rows)

    monkeypatch.setattr(projection, "_active_set", spy)
    monkeypatch.setattr(projection, "_norms", norms_spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        block = nnls(A, S)
        coeffs = project_matrix(A, S)
    assert [str(w.message) for w in caught] == ["dictionary has 1 all-zero column(s)"] * 2
    assert widths == [11, 11]
    # The finiteness checks of nnls, then of project_matrix.
    assert copies == [(3, 6), (3, 6), (3, 6), (2, 6)] * 2
    assert block.optimal and coeffs.flags.c_contiguous
    assert coeffs.tobytes() == block.coefficients.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        singles = [nnls(A, S[:, m]) for m in range(S.shape[1])]
        bad = S.copy()
        bad[1, 7] = np.nan
        with pytest.raises(ValueError, match="^sample column 7: .*float64"):
            nnls(A, bad)
    expected = np.column_stack([single.coefficients for single in singles])
    assert block.coefficients.tobytes() == expected.tobytes()
    assert block.iterations == sum(s.iterations for s in singles)


def test_a_solution_keeps_no_reference_to_the_arrays_passed_to_nnls():
    rng = np.random.default_rng(8)
    for order, shape in [("C", (6,)), ("C", (6, 4)), ("F", (6, 4))]:
        A, S = rng.random((6, 3)), np.asarray(rng.random(shape), order=order)
        refs = [weakref.ref(A), weakref.ref(S)]
        sol = nnls(A, S)
        del A, S
        gc.collect()
        assert [ref() is None for ref in refs] == [True, True]
        assert sol.optimal and (sol.coefficients >= 0.0).all()


def test_a_fallback_solves_its_own_column_when_others_have_finished(monkeypatch):
    # test_ill_conditioned_support_falls_back_to_lstsq's instance at column 3
    # of 5: the others reach their KKT point in at most one iteration, so when
    # column 3's (5, 2) support falls back to lstsq it is the only live row.
    # The fallback must read column 3's target, not the target at its row.
    a = np.array([2.0, 2.0, 2.0, 2.0, 0.0])
    e = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
    c = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    A = np.column_stack([a, a + 1e-4 * e, c])
    b = 2.0 * a + 1e-4 * e
    S = np.column_stack([np.zeros(5), c, 2.0 * c, b, 0.5 * c])
    solved = []
    lstsq = np.linalg.lstsq

    def spy(matrix, rhs, rcond=None):
        solved.append((matrix.shape, np.array(rhs)))
        return lstsq(matrix, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    for targets in (S, np.asfortranarray(S)):
        solved.clear()
        block = nnls(A, targets)
        assert [shape for shape, _ in solved] == [(5, 2)]
        assert solved[0][1].tobytes() == b.tobytes()
        singles = [nnls(A, targets[:, m]) for m in range(5)]
        iterations = [single.iterations for single in singles]
        assert iterations[:3] + iterations[4:] == [0, 1, 1, 1] and iterations[3] > 1
        assert block.iterations == sum(iterations)
        expected = np.column_stack([single.coefficients for single in singles])
        assert block.coefficients.tobytes() == expected.tobytes()


def test_nnls_holds_less_than_its_target_in_temporaries():
    # The active set's own state is (M, I); only the (columns, V) copies are
    # as long as the target, and they are made a block at a time. One copy of
    # the whole target at image size would exceed the target's own size.
    rng = np.random.default_rng(3)
    A = rng.gamma(0.5, 1.0, size=(1024, 50))
    S = A @ (rng.gamma(1.0, 2.0, size=(50, 300)) * (rng.random((50, 300)) < 0.3))
    tracemalloc.start()
    try:
        nnls(A, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S.nbytes


def test_project_matrix_is_bitwise_the_column_loop_at_image_size(monkeypatch):
    # Products of 40-column dictionaries round differently as matrix-matrix
    # products than as one matrix-vector product per column; every column
    # must still match the one-target loop bit for bit, across 3 blocks.
    rng = np.random.default_rng(23)
    A = rng.gamma(0.5, 1.0, size=(300, 40))
    S = rng.poisson(A @ (rng.gamma(1.0, 2.0, size=(40, 40)) * (rng.random((40, 40)) < 0.3)))
    S = S.astype(float)
    # The column loop checks every block; nnls proves once that none can fail
    # (trace(G)·||G^-1||_F is about 510 here, against a limit of 2.5e7) and
    # checks none.
    monkeypatch.setattr(projection, "_BLOCK_ELEMENTS", 300 * 16)
    checks = spy_on_the_block_check(monkeypatch)
    coeffs = project_matrix(A, S)
    expected = np.column_stack([column_loop_nnls(A, S[:, m])[0] for m in range(S.shape[1])])
    assert coeffs.tobytes() == expected.tobytes()
    assert checks == []


def test_an_image_size_dictionary_starts_warm_with_the_cold_starts_coefficients(monkeypatch):
    # A 1024 x 50 dictionary passes the once-per-call test, so its Poisson
    # targets start from the positive entries of their unconstrained
    # solutions. They reach the cold start's coefficients bit for bit, in at
    # least 10x fewer iterations. (The cold start, forced here, also checks
    # every block; that check changes no bit where no block can fail it.)
    rng = np.random.default_rng(37)
    A = rng.gamma(0.5, 1.0, size=(1024, 50))
    coefficients = rng.gamma(1.0, 2.0, size=(50, 300)) * (rng.random((50, 300)) < 0.3)
    S = rng.poisson(A @ coefficients).astype(float)
    warm = nnls(A, S)
    monkeypatch.setattr(projection, "_inverse_if_no_block_can_fail", lambda gram: None)
    cold = nnls(A, S)
    assert warm.optimal and cold.optimal
    assert warm.coefficients.tobytes() == cold.coefficients.tobytes()
    assert 10 * warm.iterations <= cold.iterations


def test_a_dictionary_that_fails_the_once_per_call_test_starts_cold(monkeypatch):
    # In-cone targets with every coefficient positive start warm from their
    # whole support, in 0 iterations. A duplicated column makes the Gram
    # matrix singular: the blocks are checked, and the start is cold, so each
    # coordinate of a solution is freed by an iteration of its own.
    rng = np.random.default_rng(41)
    base = rng.random((8, 3)) + 0.05
    S = base @ (rng.random((3, 5)) + 0.1)
    checks = spy_on_the_block_check(monkeypatch)
    warm = nnls(base, S)
    assert (warm.iterations, checks) == (0, [])
    A = np.column_stack([base, base[:, 0]])
    cold = nnls(A, S)
    assert checks and cold.optimal
    assert cold.iterations >= np.count_nonzero(cold.coefficients) > 0
    assert cold.iterations == sum(column_loop_nnls(A, S[:, m])[2] for m in range(S.shape[1]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    fill=st.just(1.0) | st.floats(min_value=0.7, max_value=1.0),
    rescaled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n=6, fill=1.0, rescaled=True, seed=0)
def test_no_block_of_a_gram_matrix_that_passes_the_once_per_call_test_fails_the_check(
    n, fill, rescaled, seed
):
    # G = D Q diag(t**e) Q^T D: eigenvalues t**e with e in [0, 1] between 1
    # and t, columns rescaled by D. t is bisected so that trace(G)·||G^-1||_F
    # reaches limit**fill, at fill = 1 just under the limit itself, where only
    # the factor of two in the limit is left for rounding. Every principal
    # block, in every index order, must then pass the per-block check.
    limit = (projection._MAX_CHOLESKY_RATIO / 2) ** 2
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    exponents = np.concatenate([[0.0, 1.0], rng.random(n)])[:n]
    D = 10.0 ** rng.uniform(-1.0, 1.0, n) if rescaled else np.ones(n)

    def gram(log_t):
        G = D[:, None] * ((Q * 10.0 ** (log_t * exponents)) @ Q.T) * D
        return (G + G.T) / 2.0

    def bound(G):
        try:
            return float(np.trace(G)) * float(np.linalg.norm(np.linalg.inv(G)))
        except np.linalg.LinAlgError:
            return np.inf

    low, high = -40.0, 0.0
    for _ in range(60):
        middle = (low + high) / 2.0
        low, high = (low, middle) if bound(gram(middle)) <= limit**fill else (middle, high)
    G = gram(high)
    inverse = projection._inverse_if_no_block_can_fail(G)
    assert (inverse is not None) == (bound(G) <= limit)
    if inverse is None:
        return  # limit**fill lies below the bound at t = 1
    for size in range(1, n + 1):
        F = np.array(list(itertools.permutations(range(n), size)))
        assert projection._well_conditioned(G[F[:, :, None], F[:, None, :]]).all()


@pytest.mark.parametrize(
    "A, S, warned, checked",
    [
        (np.zeros((3, 0)), np.ones((3, 2)), [], False),
        (np.eye(3), np.zeros((3, 0)), [], False),
        (np.zeros((3, 2)), np.ones((3, 2)), ["dictionary has 2 all-zero column(s)"], False),
        ([[2.0, 0.0], [1.0, 0.0]], [[1.0, -1.0], [3.0, 0.5]],
         ["dictionary has 1 all-zero column(s)"], False),
        ([[1e-170, 1.0], [0.0, 1.0], [0.0, 0.5]], [[1e-170, 1.0], [0.0, 2.0], [0.0, 0.5]],
         ["dictionary has 1 column(s) too small to use in float64: [0]"], False),
        ([[1e154, 0.0], [0.0, 1e154]], [[1.0], [2.0]], [], True),
        ([[1e-160, 1.0], [0.0, 1.0]], [[1e-160], [0.5]], [], True),
    ],
    ids=["no-dictionary-columns", "no-targets", "all-zero", "one-usable-column", "underflow",
         "trace-overflows", "inverse-overflows"],
)
def test_edge_shapes_pass_the_once_per_call_test(monkeypatch, A, S, warned, checked):
    # An empty or 1x1 Gram matrix of usable columns neither raises nor needs a
    # per-block check. One whose trace or inverse overflows keeps the check,
    # with no numpy warning. The solution is the column loop's.
    A, S = np.array(A, dtype=float), np.array(S, dtype=float)
    checks = spy_on_the_block_check(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = nnls(A, S)
    assert [str(w.message) for w in caught] == warned
    assert bool(checks) == checked
    expected = np.zeros((A.shape[1], S.shape[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loops = [column_loop_nnls(A, S[:, m]) for m in range(S.shape[1])]
    for m, (coefficients, _, _, optimal) in enumerate(loops):
        expected[:, m] = coefficients
        assert optimal
    assert sol.coefficients.shape == expected.shape
    assert sol.coefficients.tobytes() == expected.tobytes()
    assert sol.iterations == sum(loop[2] for loop in loops)
    assert sol.capped == ()


def test_results_do_not_depend_on_the_targets_memory_layout():
    # BLAS rounds A^T b differently for strided and contiguous b; nnls copies
    # its targets into one layout, so C order, F order, strided columns and
    # contiguous copies all give the same bits.
    rng = np.random.default_rng(0)
    for _ in range(40):
        V, I, M = rng.integers([5, 2, 1], [41, 11, 9])
        A = rng.gamma(1.0, size=(V, I))
        S = rng.gamma(1.0, size=(V, M))
        layouts = [S, np.asfortranarray(S), np.repeat(S, 2, axis=1)[:, ::2]]
        expected = project_matrix(A, S)
        solos = [nnls(A, S[:, m].copy()).coefficients for m in range(M)]
        assert np.column_stack(solos).tobytes() == expected.tobytes()
        for samples in layouts:
            assert project_matrix(A, samples).tobytes() == expected.tobytes()
            assert nnls(A, samples).coefficients.tobytes() == expected.tobytes()
            for m, solo in enumerate(solos):
                assert nnls(A, samples[:, m]).coefficients.tobytes() == solo.tobytes()


def test_project_matrix_silences_only_the_per_column_zero_warning():
    # A numpy RuntimeWarning inside the solve reaches the caller.
    A = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, 0.3]])
    with pytest.raises(RuntimeWarning, match="overflow"):
        project_matrix(A, np.full((3, 1), 1e308))
    # The zero-column warning comes once per call, not once per block.
    A = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        project_matrix(A, np.ones((3, 4)))
    assert [str(w.message) for w in caught] == ["dictionary has 1 all-zero column(s)"]


@settings(max_examples=300, deadline=None)
@example(rows=3, base=3, copies=[], samples=5, seed=1672691)
@given(
    rows=st.integers(min_value=1, max_value=12),
    base=st.integers(min_value=1, max_value=4),
    copies=st.lists(st.sampled_from(["duplicate", "scaled", "zero"]), max_size=5),
    samples=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_project_matrix_on_degenerate_dictionaries(rows, base, copies, samples, seed):
    # Rank-deficient dictionaries (repeated or rescaled columns) and all-zero
    # columns, shuffled; targets mix in-cone combinations with arbitrary vectors.
    # The example, a 3x3 dictionary of condition number 1.2e4, needs a KKT
    # threshold at its own scale: an absolute 1e-8 leaves an in-cone target
    # 2.7e-5 short of scipy's residual.
    rng = np.random.default_rng(seed)
    columns = list(rng.random((base, rows)) + 0.05)
    for kind in copies:
        pick = columns[rng.integers(base)]
        if kind == "duplicate":
            columns.append(pick.copy())
        elif kind == "scaled":
            columns.append(pick * 10.0 ** rng.uniform(-3.0, 3.0))
        else:
            columns.append(np.zeros(rows))
    A = np.column_stack(columns)[:, rng.permutation(len(columns))]
    in_cone = A @ (rng.random((A.shape[1], samples)) * (rng.random((A.shape[1], samples)) < 0.5))
    S = np.where(rng.random(samples) < 0.5, in_cone, rng.normal(size=(rows, samples)))

    zero = np.linalg.norm(A, axis=0) == 0.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "dictionary has")
        coeffs = project_matrix(A, S)
    assert (coeffs >= 0.0).all()
    assert (coeffs[zero] == 0.0).all()
    for m in range(samples):
        reference = scipy.optimize.nnls(A, S[:, m])[1]
        residual = np.linalg.norm(S[:, m] - A @ coeffs[:, m])
        scale = max(reference, np.linalg.norm(S[:, m]))
        assert abs(residual - reference) <= 1e-8 * scale


def ill_conditioned_instance(rng, rows, cols, rank, log_condition, spread, in_cone):
    """A nonnegative dictionary of condition number up to about 10**log_condition, and a target."""
    kappa = 10.0**log_condition
    if spread == "collinear":
        rank = min(rank, cols)
        A = rng.random((rows, rank)) @ rng.random((rank, cols)) + rng.random((rows, cols)) / kappa
    else:
        A = rng.random((rows, cols)) * kappa ** rng.random(cols)
    if in_cone:
        return A, A @ (rng.random(cols) * (rng.random(cols) < 0.5))
    return A, rng.random(rows) * A.mean() * cols


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=24),
    cols=st.integers(min_value=1, max_value=8),
    rank=st.integers(min_value=1, max_value=8),
    log_condition=st.floats(min_value=0.0, max_value=8.0),
    spread=st.sampled_from(["collinear", "scaled"]),
    in_cone=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_gram_form_loses_no_accuracy_on_ill_conditioned_dictionaries(
    rows, cols, rank, log_condition, spread, in_cone, seed
):
    # Nonnegative dictionaries with condition numbers up to about 1e8: nearly
    # collinear columns (rank-limited plus a small perturbation) or columns
    # of very different scale. The Gram form squares the condition number;
    # its residual must match scipy's within 1e-8 of max(ref, ||b||), beyond
    # what the same active-set method with every support solved by lstsq on
    # A[:, F] already misses. (Both miss by more on some in-cone targets. On
    # 3,000 such draws every miss was in-cone and uncapped, and every inactive
    # gradient entry was below its threshold in both the Gram form A^T b - G x
    # and the residual form A^T (b - A x): the rounding floor, not an early stop.)
    A, b = ill_conditioned_instance(
        np.random.default_rng(seed), rows, cols, rank, log_condition, spread, in_cone
    )
    reference = scipy.optimize.nnls(A, b)[1]
    scale = max(reference, np.linalg.norm(b))
    gram = residual_norm(A, b, nnls(A, b))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projection, "_MAX_CHOLESKY_RATIO", 0.0)
        least_squares = residual_norm(A, b, nnls(A, b))
    assert abs(gram - reference) <= abs(least_squares - reference) + 1e-8 * scale


def test_power_of_two_scaling_leaves_the_solve_unchanged():
    # Scaling A by c and b by d, powers of two, scales every product of the
    # solve exactly, the KKT threshold included: the same iterations and cap
    # hits, and coefficients x·d/c to the bit.
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows, cols, rank = rng.integers(1, [25, 9, 9])
        A, b = ill_conditioned_instance(
            rng, rows, cols, rank, rng.uniform(0.0, 8.0), rng.choice(["collinear", "scaled"]),
            rng.random() < 0.5,
        )
        sol = nnls(A, b)
        for c, d in [(2.0**-20, 1.0), (1.0, 2.0**-30), (2.0**15, 2.0**-15), (1.0, 2.0**25)]:
            scaled = nnls(c * A, d * b)
            assert (scaled.iterations, scaled.capped) == (sol.iterations, sol.capped)
            assert scaled.coefficients.tobytes() == (sol.coefficients * d / c).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=10),
    base=st.integers(min_value=1, max_value=5),
    near_parallel=st.booleans(),
    zero_columns=st.integers(min_value=0, max_value=2),
    step_back=st.none() | st.sampled_from(range(len(STEP_BACK_INSTANCES))),
    targets=st.lists(st.sampled_from(["zero", "in_cone", "random"]), min_size=1, max_size=12),
    max_iter=st.sampled_from([None, 1]),
    width=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_block_columns_are_bitwise_their_own_solves(
    rows, base, near_parallel, zero_columns, step_back, targets, max_iter, width, seed
):
    # A block of targets, solved in lockstep by nnls or in blocks of `width`
    # columns by project_matrix, gives every column the coefficients,
    # iterations and cap hit of its own solve, which are those of
    # the one-target loop (column_loop_nnls). The dictionaries mix
    # all-zero columns, a nearly parallel pair whose Gram block takes the
    # lstsq fallback and the step-back instances above; max_iter=1 caps.
    rng = np.random.default_rng(seed)
    if step_back is None:
        columns = list(rng.random((base, rows)) + 0.05)
        picked = []
        if near_parallel:
            columns.append(columns[0] + 1e-5 * np.eye(rows)[rng.integers(rows)])
            picked.append(1e3 * (columns[0] + columns[-1]))
        columns += [np.zeros(rows)] * zero_columns
        A = np.column_stack(columns)[:, rng.permutation(len(columns))]
    else:
        A, b = (np.array(v) for v in STEP_BACK_INSTANCES[step_back])
        picked = [b]
    V, I = A.shape
    make = {
        "zero": lambda: np.zeros(V),
        "in_cone": lambda: A @ (rng.random(I) * (rng.random(I) < 0.7)),
        "random": lambda: rng.normal(size=V),
    }
    S = np.column_stack(picked + [make[kind]() for kind in targets])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        singles = [nnls(A, S[:, m], max_iter=max_iter) for m in range(S.shape[1])]
        block = nnls(A, S, max_iter=max_iter)
    for m, single in enumerate(singles):
        coefficients, _, *rest = column_loop_nnls(A, S[:, m], max_iter=max_iter)
        assert single.coefficients.tobytes() == coefficients.tobytes()
        assert [single.iterations, single.optimal] == rest
    expected = np.column_stack([single.coefficients for single in singles])
    capped = [m for m, single in enumerate(singles) if not single.optimal]
    assert block.coefficients.tobytes() == expected.tobytes()
    assert block.iterations == sum(single.iterations for single in singles)
    assert block.capped == tuple(capped)
    assert block.optimal == (not capped)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(projection, "_BLOCK_ELEMENTS", V * width)
        patch.setattr(projection, "nnls", functools.partial(nnls, max_iter=max_iter))
        coeffs = project_matrix(A, S)
    assert coeffs.tobytes() == expected.tobytes()
    cap_warnings = [str(w.message) for w in caught if "iteration cap" in str(w.message)]
    assert cap_warnings == (
        [f"nnls hit the iteration cap on {len(capped)} column(s): {capped[:10]}"] if capped else []
    )
