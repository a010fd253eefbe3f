import functools
import warnings

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


def test_identity_dictionary_is_exact():
    sol = nnls(np.eye(3), np.array([3.0, 0.0, 7.0]))
    np.testing.assert_allclose(sol.coefficients, [3.0, 0.0, 7.0])
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert sol.optimal


def test_single_column_projects_onto_ray():
    sol = nnls(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
    assert sol.coefficients[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.residual_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_negative_correlation_clamps_to_zero():
    # unconstrained optimum is negative, so the constrained one is 0
    sol = nnls(np.array([[1.0], [0.0]]), np.array([-2.0, 1.0]))
    assert sol.coefficients[0] == 0.0
    assert sol.residual_norm == pytest.approx(np.sqrt(5.0))


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
        assert sol.residual_norm <= np.linalg.norm(b) + 1e-12


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
        assert np.isfinite(sol.residual_norm)
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
        residuals = [nnls(A, b, max_iter=k).residual_norm for k in range(1, A.shape[1] + 2)]
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
    assert sol.residual_norm <= 1e-12 * np.linalg.norm(b)


def test_rejects_targets_that_overflow():
    A = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="float64"):
            nnls(A, np.full(3, 1e308))
        with pytest.raises(ValueError, match="sample column 1"):
            project_matrix(A, np.column_stack([np.ones(3), np.full(3, 1e308)]))


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
    sol = nnls(A, b)
    assert (5, 2) in solved
    np.testing.assert_allclose(sol.coefficients, [1.0, 1.0, 0.0], atol=1e-10)
    reference = scipy.optimize.nnls(A, b)[1]
    assert abs(sol.residual_norm - reference) <= 1e-8 * np.linalg.norm(b)


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
    assert sol.residual_norm == pytest.approx(residual, rel=1e-12)


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


def test_nnls_solves_a_wide_target_a_block_at_a_time(monkeypatch):
    # With blocks of 3 columns, 11 targets take 4 blocks: each column is
    # bitwise its own solve, the zero-column warning comes once per call, and
    # a bad target in a later block is named by its column in the whole target.
    rng = np.random.default_rng(31)
    A = np.column_stack([rng.random((6, 3)), np.zeros(6)])
    S = np.asfortranarray(rng.random((6, 11)))
    monkeypatch.setattr(projection, "_BLOCK_ELEMENTS", 3 * A.shape[0] + 1)
    widths = []
    active_set = projection._active_set

    def spy(A, B, *args):
        widths.append(B.shape[0])
        return active_set(A, B, *args)

    monkeypatch.setattr(projection, "_active_set", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        block = nnls(A, S)
        coeffs = project_matrix(A, S)
    assert [str(w.message) for w in caught] == ["dictionary has 1 all-zero column(s)"] * 2
    assert [w for w in widths if w] == [3, 3, 3, 2] * 2
    assert block.optimal and coeffs.flags.c_contiguous
    assert coeffs.tobytes() == block.coefficients.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        singles = [nnls(A, S[:, m]) for m in range(S.shape[1])]
        S[1, 7] = np.nan
        with pytest.raises(ValueError, match="^sample column 7: .*float64"):
            nnls(A, S)
    expected = np.column_stack([single.coefficients for single in singles])
    assert block.coefficients.tobytes() == expected.tobytes()
    assert block.residual_norm.tolist() == [s.residual_norm for s in singles]
    assert block.iterations == sum(s.iterations for s in singles)


def test_project_matrix_is_bitwise_the_column_loop_at_image_size(monkeypatch):
    # Products of 40-column dictionaries round differently as matrix-matrix
    # products than as one matrix-vector product per column; every column
    # must still match the one-target loop bit for bit, across 3 blocks.
    rng = np.random.default_rng(23)
    A = rng.gamma(0.5, 1.0, size=(300, 40))
    S = rng.poisson(A @ (rng.gamma(1.0, 2.0, size=(40, 40)) * (rng.random((40, 40)) < 0.3)))
    S = S.astype(float)
    monkeypatch.setattr(projection, "_BLOCK_ELEMENTS", 300 * 16)
    coeffs = project_matrix(A, S)
    expected = np.column_stack([column_loop_nnls(A, S[:, m])[0] for m in range(S.shape[1])])
    assert coeffs.tobytes() == expected.tobytes()


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
    gram = nnls(A, b).residual_norm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projection, "_MAX_CHOLESKY_RATIO", 0.0)
        least_squares = nnls(A, b).residual_norm
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
    # residual, iterations and cap hit of its own solve, which are those of
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
        coefficients, *rest = column_loop_nnls(A, S[:, m], max_iter=max_iter)
        assert single.coefficients.tobytes() == coefficients.tobytes()
        assert [single.residual_norm, single.iterations, single.optimal] == rest
    expected = np.column_stack([single.coefficients for single in singles])
    capped = [m for m, single in enumerate(singles) if not single.optimal]
    assert block.coefficients.tobytes() == expected.tobytes()
    assert block.residual_norm.tobytes() == np.array([s.residual_norm for s in singles]).tobytes()
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
