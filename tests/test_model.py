import numpy as np
import pytest

from gsnmf.model import (
    GroupAssignment,
    Hyperparameters,
    as_data_matrix,
    PriorSettings,
    build_group_hyperprior,
    sample_model,
)
from gsnmf.numerics import dirichlet_expected_log


def test_build_group_hyperprior_two_groups_single_feature():
    A, B = build_group_hyperprior(2, 1, a_small=32.0, a_large=256.0, b=1e6)
    np.testing.assert_array_equal(A, [[32.0, 256.0], [256.0, 32.0]])
    assert (B == 1e6).all()


def test_build_group_hyperprior_degenerate_contrast_is_uniform():
    A, _ = build_group_hyperprior(3, 2, a_small=7.0, a_large=7.0, b=2.0)
    assert (A == 7.0).all()


def test_build_group_hyperprior_block_structure():
    per_group = 2
    A, _ = build_group_hyperprior(3, per_group, a_small=1.0, a_large=64.0, b=1.0)
    assert A.shape == (6, 3)
    for g in range(3):
        column = A[:, g]
        assert (column == 1.0).sum() == per_group
        block = slice(g * per_group, (g + 1) * per_group)
        assert (column[block] == 1.0).all()
    # row sums are the same for every feature row
    assert np.ptp(A.sum(axis=1)) == 0.0


def test_build_group_hyperprior_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_group_hyperprior(0, 1)
    with pytest.raises(ValueError):
        build_group_hyperprior(2, 1, a_small=10.0, a_large=5.0)
    with pytest.raises(ValueError):
        build_group_hyperprior(2, 1, b=0.0)


def test_default_hyperparameters_shapes_and_values():
    hyper = PriorSettings(per_group=2).hyperparameters(4, 3, 10)
    assert hyper.A_t.shape == (4, 6) and (hyper.A_t == 0.6).all()
    assert hyper.B_t.shape == (4, 6) and (hyper.B_t == 20.0).all()
    assert hyper.A_lambda.shape == (6, 3)
    assert (hyper.B_lambda == 1e6).all()
    assert hyper.U.shape == (10, 3) and (hyper.U == 1.0).all()
    assert hyper.dims == (4, 6, 3, 10)


def test_default_hyperparameters_single_group_is_uniform():
    hyper = PriorSettings(per_group=4).hyperparameters(3, 1, 5)
    assert hyper.A_lambda.shape == (4, 1)
    assert (hyper.A_lambda == 32.0).all()


def test_default_hyperparameters_uniform_dirichlet_rows_are_flat():
    hyper = PriorSettings(per_group=1).hyperparameters(2, 4, 6)
    for row in hyper.U:
        expected = dirichlet_expected_log(row)
        assert np.ptp(expected) == 0.0


def test_group_assignment_validation():
    with pytest.raises(ValueError):
        GroupAssignment(2, np.array([0, 2]))
    ga = GroupAssignment(3, [0, 1, 1, 2])
    assert ga.n_groups == 3 and ga.observed
    delta = ga.one_hot()
    assert delta.shape == (4, 3)
    np.testing.assert_array_equal(delta.sum(axis=1), np.ones(4))
    assert not GroupAssignment.latent(3).observed


def test_as_data_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_data_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_data_matrix(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        as_data_matrix(np.array([[np.inf, 2.0]]))


def _generator_hyper(V=6, I=4, C=2, T=12):
    # Prior scales chosen so the sampled intensities are O(1..100); the
    # default b_lambda=1e6 is a fitting prior, not a data-generating one.
    from gsnmf.model import build_group_hyperprior

    A_l, B_l = build_group_hyperprior(C, I // C, a_small=1.0, a_large=64.0, b=1.0)
    return Hyperparameters(
        A_t=np.full((V, I), 0.6),
        B_t=np.full((V, I), 20.0),
        A_lambda=A_l,
        B_lambda=B_l,
        U=np.ones((T, C)),
    )


def test_sampler_is_deterministic_per_seed():
    hyper = _generator_hyper()
    groups = GroupAssignment(2, np.arange(12) % 2)
    X1, t1 = sample_model(hyper, groups, seed=99)
    X2, t2 = sample_model(hyper, groups, seed=99)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(t1.T_true, t2.T_true)
    np.testing.assert_array_equal(t1.V_true, t2.V_true)
    X3, _ = sample_model(hyper, groups, seed=100)
    assert not np.array_equal(X1, X3)


def test_sampler_output_is_nonnegative_integers():
    hyper = PriorSettings(per_group=2).hyperparameters(5, 2, 10)
    groups = GroupAssignment(2, np.arange(10) % 2)
    X, truth = sample_model(hyper, groups, seed=1)
    assert (X >= 0).all()
    np.testing.assert_array_equal(X, np.rint(X))
    assert (truth.V_true >= 0).all() and (truth.T_true >= 0).all()


def test_huge_rate_indicators_flatten_the_data():
    # Large shapes with tiny scales force the rate indicators up, which
    # drives the coefficients (mean 1/rate) and hence the counts to zero.
    V, I, C, T = 4, 2, 2, 8
    hyper = Hyperparameters(
        A_t=np.full((V, I), 0.6),
        B_t=np.full((V, I), 20.0),
        A_lambda=np.full((I, C), 1e6),
        B_lambda=np.full((I, C), 1e6),
        U=np.ones((T, C)),
    )
    X, truth = sample_model(hyper, GroupAssignment(C, np.arange(T) % C), seed=5)
    assert truth.V_true.max() < 1e-9
    assert (X == 0).all()


def test_poisson_stage_mean_matches_intensity():
    # Monte-Carlo oracle on one large draw: given its own intensity T @ V,
    # each count standardized as (X - mu) / sqrt(mu) has mean 0 and variance
    # 1. Cells of intensity below 1 are left out: their standardized counts
    # are too skewed for a variance check at this size.
    hyper = _generator_hyper(V=60, I=4, C=2, T=400)
    groups = GroupAssignment(2, np.arange(400) % 2)
    X, truth = sample_model(hyper, groups, seed=21)
    intensity = truth.T_true @ truth.V_true
    used = intensity >= 1.0
    z = (X[used] - intensity[used]) / np.sqrt(intensity[used])
    assert z.size >= 5000
    assert abs(z.mean()) <= 3.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 0.05


def test_exponential_coefficients_have_variance_equal_to_squared_mean():
    C, T = 2, 4000
    hyper = Hyperparameters(
        A_t=np.full((3, 2), 0.6),
        B_t=np.full((3, 2), 20.0),
        A_lambda=np.array([[2.0, 50.0], [50.0, 2.0]]),
        B_lambda=np.full((2, C), 1.0),
        U=np.ones((T, C)),
    )
    groups = GroupAssignment(C, np.arange(T) % C)
    _, truth = sample_model(hyper, groups, seed=3)
    for i in range(2):
        for c in range(C):
            values = truth.V_true[i, groups.z == c]
            ratio = values.var() / values.mean() ** 2
            assert 0.75 < ratio < 1.25


def test_contrast_free_generator_plants_no_block_structure():
    # With a_small == a_large every feature is exchangeable across groups,
    # so the planted coefficients show no diagonal concentration.
    from gsnmf.pipeline import group_prevalence

    C, per_group, T = 3, 2, 120
    A_l, B_l = build_group_hyperprior(C, per_group, a_small=4.0, a_large=4.0, b=1.0)
    hyper = Hyperparameters(
        A_t=np.full((10, 6), 0.6),
        B_t=np.full((10, 6), 20.0),
        A_lambda=A_l,
        B_lambda=B_l,
        U=np.ones((T, C)),
    )
    labels = np.arange(T) % C
    _, truth = sample_model(hyper, GroupAssignment(C, labels), seed=2)
    prevalence = group_prevalence(truth.V_true, labels)
    diagonal = sum(
        prevalence[g, g * per_group : (g + 1) * per_group].sum() for g in range(C)
    )
    # about 1/C of the mass under exchangeability, far from block dominance
    assert diagonal / prevalence.sum() < 0.5


def test_latent_mode_sampler_draws_groups():
    hyper = PriorSettings(per_group=2).hyperparameters(4, 2, 300)
    X, truth = sample_model(hyper, GroupAssignment.latent(2), seed=8)
    assert set(np.unique(truth.z_true)) <= {0, 1}
    # flat Dirichlet prior: both groups should actually appear
    assert len(np.unique(truth.z_true)) == 2


def test_hyperparameters_reject_inconsistent_shapes():
    with pytest.raises(ValueError):
        Hyperparameters(
            A_t=np.ones((3, 2)),
            B_t=np.ones((3, 2)),
            A_lambda=np.ones((4, 2)),
            B_lambda=np.ones((4, 2)),
            U=np.ones((5, 2)),
        )
    with pytest.raises(ValueError):
        Hyperparameters(
            A_t=np.ones((3, 2)),
            B_t=-np.ones((3, 2)),
            A_lambda=np.ones((2, 2)),
            B_lambda=np.ones((2, 2)),
            U=np.ones((5, 2)),
        )
