import dataclasses

import numpy as np
import pytest

from gsnmf import engine
from gsnmf.engine import (
    FitConfig,
    FitResult,
    NumericalError,
    fit,
    fit_restarts,
    init_state,
    multi_restart_fit,
    update_sweep,
    variational_bound,
)
from gsnmf.model import (
    GroupAssignment,
    Hyperparameters,
    build_group_hyperprior,
    sample_model,
)
from gsnmf.numerics import GammaFactor, dirichlet_expected_log
from oracles import scalar_fixed_point


def small_problem(V=12, I=4, C=2, T=18, seed=0, b_lambda=1e4):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 9, size=(V, T)).astype(float)
    hyper = Hyperparameters(
        A_t=np.full((V, I), 0.6),
        B_t=np.full((V, I), 20.0),
        A_lambda=np.full((I, C), 32.0),
        B_lambda=np.full((I, C), b_lambda),
        U=np.ones((T, C)),
    )
    groups = GroupAssignment(C, rng.integers(0, C, size=T))
    return X, hyper, groups


def unit_scalar_problem(x=3.0):
    hyper = Hyperparameters(
        A_t=np.ones((1, 1)),
        B_t=np.ones((1, 1)),
        A_lambda=np.ones((1, 1)),
        B_lambda=np.ones((1, 1)),
        U=np.ones((1, 1)),
    )
    return np.array([[x]]), hyper, GroupAssignment(1, np.array([0]))


def test_init_state_deterministic_and_mode_dependent():
    _, hyper, groups = small_problem()
    s1 = init_state(hyper, groups, seed=5)
    s2 = init_state(hyper, groups, seed=5)
    np.testing.assert_array_equal(s1.E_t, s2.E_t)
    np.testing.assert_array_equal(s1.E_v, s2.E_v)
    s3 = init_state(hyper, groups, seed=6)
    assert not np.array_equal(s1.E_t, s3.E_t)
    # observed rows are exactly one-hot
    np.testing.assert_array_equal(s1.Delta.sum(axis=1), np.ones(18))
    assert set(np.unique(s1.Delta)) == {0.0, 1.0}
    # latent rows are uniform
    latent = init_state(hyper, GroupAssignment.latent(2), seed=5)
    assert (latent.Delta == 0.5).all()
    four = Hyperparameters(
        A_t=hyper.A_t,
        B_t=hyper.B_t,
        A_lambda=np.full((4, 4), 32.0),
        B_lambda=np.full((4, 4), 1e4),
        U=np.ones((18, 4)),
    )
    assert (init_state(four, GroupAssignment.latent(4), seed=5).Delta == 0.25).all()
    # expected log weights come from the Dirichlet prior rows
    for t in range(hyper.U.shape[0]):
        np.testing.assert_allclose(latent.Pi[t], dirichlet_expected_log(hyper.U[t]), atol=1e-13)


def test_init_state_respects_jensen_offset():
    _, hyper, groups = small_problem()
    s = init_state(hyper, groups, seed=1)
    assert (s.t.log_mean < np.log(s.E_t)).all()
    assert (s.v.log_mean < np.log(s.E_v)).all()
    assert (s.lam.log_mean < np.log(s.lam.mean)).all()


def test_bound_is_finite_on_fresh_states():
    X, hyper, groups = small_problem()
    for g in (groups, GroupAssignment.latent(2)):
        state = init_state(hyper, g, seed=3)
        assert np.isfinite(variational_bound(state, X, hyper, g))


def test_init_state_rejects_mismatched_dims():
    _, hyper, groups = small_problem()
    with pytest.raises(ValueError):
        init_state(hyper, GroupAssignment.latent(3), seed=0)


def test_count_conservation_after_allocation():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=2)
    for sweep in range(5):
        state = update_sweep(state, X, hyper, groups, sweep=sweep)
        np.testing.assert_allclose(state.Sigma_v.sum(axis=0), X.sum(axis=0), rtol=1e-10)
        np.testing.assert_allclose(state.Sigma_t.sum(axis=1), X.sum(axis=1), rtol=1e-10)


def test_zero_data_collapses_counts_to_prior():
    X, hyper, groups = small_problem()
    X = np.zeros_like(X)
    state = init_state(hyper, groups, seed=3)
    swept = update_sweep(state, X, hyper, groups)
    assert (swept.Sigma_t == 0.0).all() and (swept.Sigma_v == 0.0).all()
    np.testing.assert_array_equal(swept.t.alpha, hyper.A_t)
    expected_scale = 1.0 / (1.0 / hyper.B_t + state.E_v.sum(axis=1)[None, :])
    np.testing.assert_array_equal(swept.t.beta, expected_scale)


def test_posterior_shapes_match_conjugate_identities_bitwise():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=4)
    for sweep in range(3):
        state = update_sweep(state, X, hyper, groups)
        np.testing.assert_array_equal(state.t.alpha, hyper.A_t + state.Sigma_t)
        np.testing.assert_array_equal(state.v.alpha, 1.0 + state.Sigma_v)
        counts = state.Delta.sum(axis=0)
        np.testing.assert_array_equal(state.lam.alpha, hyper.A_lambda + counts[None, :])


def test_jensen_gap_strict_after_every_sweep():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=5)
    for _ in range(10):
        state = update_sweep(state, X, hyper, groups)
        assert (state.t.log_mean < np.log(state.E_t)).all()
        assert (state.v.log_mean < np.log(state.E_v)).all()
        assert (state.lam.log_mean < np.log(state.lam.mean)).all()


def test_scalar_model_reaches_the_fixed_point():
    X, hyper, groups = unit_scalar_problem(x=3.0)
    result = fit(X, hyper, groups, FitConfig(max_sweeps=400, seed=9, compute_bound_every=400))
    e_t, e_v, e_l = scalar_fixed_point(3.0)
    # hand-solved fixed point of the three coupled scalar updates
    assert e_t == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert e_v == pytest.approx(2.0, abs=1e-10)
    assert e_l == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert result.state.E_t[0, 0] == pytest.approx(e_t, abs=1e-8)
    assert result.state.E_v[0, 0] == pytest.approx(e_v, abs=1e-8)
    assert result.state.lam.mean[0, 0] == pytest.approx(e_l, abs=1e-8)


def test_bound_invariant_under_feature_permutation():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=6)
    for _ in range(3):
        state = update_sweep(state, X, hyper, groups)
    base = variational_bound(state, X, hyper, groups)

    perm = np.array([2, 0, 3, 1])
    permuted_hyper = Hyperparameters(
        A_t=hyper.A_t[:, perm],
        B_t=hyper.B_t[:, perm],
        A_lambda=hyper.A_lambda[perm, :],
        B_lambda=hyper.B_lambda[perm, :],
        U=hyper.U,
    )
    permuted_state = dataclasses.replace(
        state,
        t=GammaFactor(state.t.alpha[:, perm], state.t.beta[:, perm]),
        v=GammaFactor(state.v.alpha[perm, :], state.v.beta[perm, :]),
        lam=GammaFactor(state.lam.alpha[perm, :], state.lam.beta[perm, :]),
        Sigma_t=state.Sigma_t[:, perm],
        Sigma_v=state.Sigma_v[perm, :],
    )
    permuted = variational_bound(permuted_state, X, permuted_hyper, groups)
    assert permuted == pytest.approx(base, rel=1e-10)


def test_bound_monotone_on_random_data_both_modes():
    for mode in ("observed", "latent"):
        X, hyper, groups = small_problem(seed=8)
        if mode == "latent":
            groups = GroupAssignment.latent(hyper.dims[2])
        result = fit(X, hyper, groups, FitConfig(max_sweeps=120, seed=13))
        bounds = np.array([b for _, b in result.bound_trace])
        drops = bounds[:-1] - bounds[1:]
        assert (drops <= np.abs(bounds[:-1]) * 1e-9).all(), mode


def test_fit_single_sweep_records_single_bound():
    X, hyper, groups = small_problem()
    result = fit(X, hyper, groups, FitConfig(max_sweeps=1, seed=0))
    assert len(result.bound_trace) == 1
    assert result.bound_trace[0][0] == 1


def test_fit_is_bitwise_deterministic():
    X, hyper, groups = small_problem()
    r1 = fit(X, hyper, groups, FitConfig(max_sweeps=40, seed=17))
    r2 = fit(X, hyper, groups, FitConfig(max_sweeps=40, seed=17))
    assert r1.bound_trace == r2.bound_trace
    np.testing.assert_array_equal(r1.state.E_t, r2.state.E_t)


def test_fit_improves_on_structured_data():
    A_l, B_l = build_group_hyperprior(2, 2, 1.0, 64.0, 1.0)
    V, T = 20, 40
    hyper = Hyperparameters(
        A_t=np.full((V, 4), 0.6),
        B_t=np.full((V, 4), 20.0),
        A_lambda=A_l,
        B_lambda=B_l,
        U=np.ones((T, 2)),
    )
    groups = GroupAssignment(2, np.arange(T) % 2)
    X, _ = sample_model(hyper, groups, seed=15)
    result = fit(X, hyper, groups, FitConfig(max_sweeps=150, seed=1))
    assert result.final_bound > result.bound_trace[0][1]


def test_fit_runs_every_sweep():
    X, hyper, groups = small_problem()
    result = fit(X, hyper, groups, FitConfig(max_sweeps=50, seed=3))
    assert result.bound_trace[-1][0] == 50


def test_multi_restart_contracts():
    X, hyper, groups = small_problem()
    single = multi_restart_fit(X, hyper, groups, FitConfig(max_sweeps=10, restarts=1, seed=0))
    assert len(single) == 1

    results = multi_restart_fit(X, hyper, groups, FitConfig(max_sweeps=10, restarts=10, seed=0))
    assert len(results) == 10
    seeds = {r.seed for r in results}
    assert len(seeds) == 10
    finals = [r.final_bound for r in results]
    assert finals == sorted(finals, reverse=True)

    again = multi_restart_fit(X, hyper, groups, FitConfig(max_sweeps=10, restarts=10, seed=0))
    assert [r.seed for r in again] == [r.seed for r in results]
    assert [r.final_bound for r in again] == finals


def test_latent_responsibilities_stay_normalized():
    X, hyper, _ = small_problem(seed=21)
    groups = GroupAssignment.latent(2)
    state = init_state(hyper, groups, seed=2)
    for _ in range(20):
        state = update_sweep(state, X, hyper, groups)
        np.testing.assert_allclose(state.Delta.sum(axis=1), 1.0, atol=1e-12)
        assert (state.Delta >= 0.0).all()


def test_single_group_latent_matches_observed_bitwise():
    V, I, T = 10, 3, 14
    rng = np.random.default_rng(31)
    X = rng.integers(0, 7, size=(V, T)).astype(float)
    hyper = Hyperparameters(
        A_t=np.full((V, I), 0.6),
        B_t=np.full((V, I), 20.0),
        A_lambda=np.full((I, 1), 32.0),
        B_lambda=np.full((I, 1), 1e4),
        U=np.ones((T, 1)),
    )
    observed = fit(X, hyper, GroupAssignment(1, np.zeros(T, dtype=int)), FitConfig(max_sweeps=60, seed=7))
    latent = fit(X, hyper, GroupAssignment.latent(1), FitConfig(max_sweeps=60, seed=7))
    np.testing.assert_array_equal(observed.state.E_t, latent.state.E_t)
    np.testing.assert_array_equal(observed.state.E_v, latent.state.E_v)
    np.testing.assert_array_equal(observed.state.lam.mean, latent.state.lam.mean)
    np.testing.assert_array_equal(latent.state.Delta, np.ones((T, 1)))


def test_prior_scale_shift_leaves_reconstruction_quality_alone():
    # Multiplying the dictionary prior scale by k while dividing the rate
    # prior scale by k only moves mass between the two factors; the fitted
    # reconstruction error should shift by well under 5%.
    A_l, B_l = build_group_hyperprior(3, 2, 1.0, 64.0, 1.0)
    V, T = 30, 60
    hyper = Hyperparameters(
        A_t=np.full((V, 6), 0.6),
        B_t=np.full((V, 6), 20.0),
        A_lambda=A_l,
        B_lambda=B_l,
        U=np.ones((T, 3)),
    )
    groups = GroupAssignment(3, np.arange(T) % 3)
    X, _ = sample_model(hyper, groups, seed=2)

    def reconstruction_error(h):
        res = fit(X, h, groups, FitConfig(max_sweeps=300, seed=4, compute_bound_every=300))
        return np.linalg.norm(X - res.state.E_t @ res.state.E_v) / np.linalg.norm(X)

    base = reconstruction_error(hyper)
    k = 2.0
    shifted = reconstruction_error(
        Hyperparameters(
            A_t=hyper.A_t,
            B_t=hyper.B_t * k,
            A_lambda=A_l,
            B_lambda=B_l / k,
            U=hyper.U,
        )
    )
    assert abs(shifted - base) < 0.05 * base + 1e-6


def test_sweep_reports_offending_matrix_on_numerical_failure():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=0)
    state.t.log_mean[0, 0] = np.nan
    with pytest.raises(NumericalError, match="Sigma"):
        update_sweep(state, X, hyper, groups, sweep=7)


def test_bound_reports_offending_term_group():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=0)
    state = update_sweep(state, X, hyper, groups)
    state.E_t[0, 0] = np.nan
    with pytest.raises(NumericalError, match="mixing"):
        variational_bound(state, X, hyper, groups)


def test_bound_error_names_the_sweep():
    X, hyper, groups = small_problem()
    state = init_state(hyper, groups, seed=0)
    state = update_sweep(state, X, hyper, groups)
    state.lam.beta[0, 0] = np.nan
    with pytest.raises(NumericalError, match="rate-indicator terms at sweep 7"):
        variational_bound(state, X, hyper, groups, sweep=7)


@pytest.mark.parametrize("mode", ["observed", "latent"])
def test_bound_evaluation_has_no_side_effect_on_the_fit(mode):
    X, hyper, groups = small_problem(seed=9)
    if mode == "latent":
        groups = GroupAssignment.latent(hyper.dims[2])
    every = fit(X, hyper, groups, FitConfig(max_sweeps=30, seed=4, compute_bound_every=1))
    once = fit(X, hyper, groups, FitConfig(max_sweeps=30, seed=4, compute_bound_every=30))
    assert len(every.bound_trace) == 30 and len(once.bound_trace) == 1
    for name in ("t", "v", "lam"):
        for attr in ("alpha", "beta", "mean", "log_mean"):
            np.testing.assert_array_equal(
                getattr(getattr(every.state, name), attr),
                getattr(getattr(once.state, name), attr),
                err_msg=f"{name}.{attr}",
            )
    for name in ("Sigma_t", "Sigma_v", "Delta", "Pi"):
        np.testing.assert_array_equal(
            getattr(every.state, name), getattr(once.state, name), err_msg=name
        )
    assert every.final_bound == once.final_bound


@pytest.mark.parametrize("mode", ["observed", "latent"])
def test_fit_trace_matches_a_bound_computed_from_scratch(mode):
    X, hyper, groups = small_problem(seed=10)
    if mode == "latent":
        groups = GroupAssignment.latent(hyper.dims[2])
    result = fit(X, hyper, groups, FitConfig(max_sweeps=25, seed=2))
    fresh = variational_bound(result.state, X, hyper, groups)
    assert result.final_bound == pytest.approx(fresh, rel=1e-12)


def test_fit_validates_data_shape():
    X, hyper, groups = small_problem()
    with pytest.raises(ValueError):
        fit(X[:, :-1], hyper, groups, FitConfig(max_sweeps=1))
    with pytest.raises(ValueError):
        fit(-X, hyper, groups, FitConfig(max_sweeps=1))


def assert_same_fit(batched, single):
    for name in ("t", "v", "lam"):
        for attr in ("alpha", "beta", "mean", "log_mean"):
            np.testing.assert_array_equal(
                getattr(getattr(batched.state, name), attr),
                getattr(getattr(single.state, name), attr),
                err_msg=f"{name}.{attr}",
            )
    for name in ("Sigma_t", "Sigma_v", "Delta", "Pi"):
        np.testing.assert_array_equal(
            getattr(batched.state, name), getattr(single.state, name), err_msg=name
        )
    assert batched.bound_trace == single.bound_trace
    assert batched.seed == single.seed


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("mode", ["observed", "latent"])
def test_batched_restarts_match_separate_fits_bitwise(mode, restarts, monkeypatch):
    X, hyper, groups = small_problem(seed=12)
    if mode == "latent":
        groups = GroupAssignment.latent(hyper.dims[2])
    # Batches of two restarts: with three, a batch boundary falls inside.
    monkeypatch.setattr(engine, "_BATCH_ELEMENTS", 2 * X.size)
    config = FitConfig(max_sweeps=30, compute_bound_every=4)
    seeds = [11, 5, 2024][:restarts]
    results = fit_restarts(X, hyper, groups, config, seeds)
    assert len(results) == restarts
    for seed, result in zip(seeds, results):
        assert result.state.E_t.shape == hyper.A_t.shape
        assert_same_fit(result, fit(X, hyper, groups, dataclasses.replace(config, seed=seed)))
        # The same fit through the single-state API, with no restart axis.
        state = init_state(hyper, groups, seed=seed)
        for sweep in range(1, config.max_sweeps + 1):
            state = update_sweep(state, X, hyper, groups, sweep=sweep)
        np.testing.assert_array_equal(result.state.t.alpha, state.t.alpha)
        np.testing.assert_array_equal(result.state.E_v, state.E_v)
        np.testing.assert_array_equal(result.state.Pi, state.Pi)
        assert result.final_bound == variational_bound(state, X, hyper, groups)


def test_numerical_error_names_the_restart_and_the_sweep(monkeypatch):
    X, hyper, groups = small_problem()
    monkeypatch.setattr(engine, "_BATCH_ELEMENTS", 2 * X.size)
    start = engine._init_states

    def poisoned(hyper, groups, seeds):
        state = start(hyper, groups, seeds)
        if len(seeds) == 1:  # the second batch holds restart 2 alone
            state.t.log_mean[0, 0, 0] = np.nan
        return state

    monkeypatch.setattr(engine, "_init_states", poisoned)
    with pytest.raises(NumericalError, match="Sigma_v at sweep 1 in restart 2") as info:
        fit_restarts(X, hyper, groups, FitConfig(max_sweeps=5), [1, 2, 3])
    assert info.value.restart == 2


@pytest.mark.parametrize("mode", ["observed", "latent"])
def test_state_derives_its_reconstruction_once(mode):
    X, hyper, groups = small_problem(seed=14)
    if mode == "latent":
        groups = GroupAssignment.latent(hyper.dims[2])
    state = update_sweep(init_state(hyper, groups, seed=8), X, hyper, groups)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.Delta = state.Delta.copy()
    # A bound leaves the reconstruction on the state for the next sweep;
    # a copy made by replace starts without it and must sweep to the same bits.
    bounded = variational_bound(state, X, hyper, groups)
    assert state.reconstruction is state.reconstruction
    fresh = dataclasses.replace(state)
    assert "reconstruction" not in vars(fresh)
    assert_same_fit(
        FitResult(update_sweep(state, X, hyper, groups)),
        FitResult(update_sweep(fresh, X, hyper, groups)),
    )
    assert variational_bound(fresh, X, hyper, groups) == bounded
