import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gsnmf.projection import nnls, project_matrix
from oracles import grid_search_nnls_2d, random_two_column_instance


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
        sol = nnls(A, b, tol=1e-8)
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
    rng = np.random.default_rng(29)
    for _ in range(20):
        A = rng.random((7, 5))
        b = rng.random(7) * 2.0
        residuals = [nnls(A, b, max_iter=k).residual_norm for k in range(1, 8)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(residuals, residuals[1:]))
        assert residuals[0] <= np.linalg.norm(b) + 1e-12


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        nnls(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        nnls(np.eye(2), np.ones(2), tol=0.0)


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


def test_project_matrix_silences_only_the_per_column_zero_warning():
    # A numpy RuntimeWarning inside the solve reaches the caller.
    A = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, 0.3]])
    with pytest.raises(RuntimeWarning, match="overflow"):
        project_matrix(A, np.full((3, 1), 1e308))
    # nnls's per-column zero-column warning collapses into one.
    A = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        project_matrix(A, np.ones((3, 4)))
    assert [str(w.message) for w in caught] == ["dictionary has 1 all-zero column(s)"]


@settings(max_examples=300, deadline=None)
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
