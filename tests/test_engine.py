import dataclasses
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    PriorSettings,
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


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_latent_bound_does_not_read_pi(data):
    # q(pi) is Dir(U + Delta), so the bound's terms in E[log pi] cancel:
    # any finite Pi gives the same bits.
    X, hyper, groups = small_problem(seed=15)
    groups = GroupAssignment.latent(hyper.dims[2])
    state = update_sweep(init_state(hyper, groups, seed=6), X, hyper, groups)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pi = data.draw(arrays(float, state.Pi.shape, elements=finite))
    bound = variational_bound(state, X, hyper, groups)
    assert variational_bound(dataclasses.replace(state, Pi=pi), X, hyper, groups) == bound


def test_a_non_finite_offset_is_named():
    X, hyper, groups = small_problem()
    state = update_sweep(init_state(hyper, groups, seed=0), X, hyper, groups)
    with pytest.raises(NumericalError, match="from the constant terms at sweep 3$"):
        variational_bound(state, X, hyper, groups, sweep=3, constants=np.inf)
    stack = np.broadcast_to(X, (3,) + X.shape)
    start = engine._init_states(hyper, [groups] * 3, [1, 2, 3])
    fixed = engine._sweep_constants(stack, hyper, groups, start.Delta)
    batch = engine._sweep(start, stack, hyper, groups, 1, *fixed)
    offset = engine._bound_constants(stack, hyper, groups)
    offset[1] = np.nan
    with pytest.raises(NumericalError, match="constant terms at sweep 1$") as info:
        variational_bound(batch, stack, hyper, groups, sweep=1, constants=offset)
    assert info.value.restart == 1


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
    seeds = [11, 5, 2024][:restarts]
    # A bound every fourth sweep runs bound and sweep in turn; a bound every
    # sweep overlaps each bound with the next sweep, where the platform allows.
    for every in (4, 1):
        config = FitConfig(max_sweeps=30, compute_bound_every=every)
        results = fit_restarts(X, hyper, groups, config, seeds)
        assert len(results) == restarts
        for seed, result in zip(seeds, results):
            assert result.state.E_t.shape == hyper.A_t.shape
            assert_same_fit(result, fit(X, hyper, groups, dataclasses.replace(config, seed=seed)))
            # The same fit through the single-state API, with no restart axis.
            state = init_state(hyper, groups, seed=seed)
            trace = []
            for sweep in range(1, config.max_sweeps + 1):
                state = update_sweep(state, X, hyper, groups, sweep=sweep)
                if sweep % every == 0 or sweep == config.max_sweeps:
                    trace.append((sweep, variational_bound(state, X, hyper, groups)))
            np.testing.assert_array_equal(result.state.t.alpha, state.t.alpha)
            np.testing.assert_array_equal(result.state.E_v, state.E_v)
            np.testing.assert_array_equal(result.state.Pi, state.Pi)
            assert result.bound_trace == trace


# stacked: True passes one (R, V, T) array, False a list of distinct
# matrices, "repeated" a list that repeats matrix and assignment objects as
# evaluate does: its first batch stacks two matrices, its second broadcasts one.
@pytest.mark.parametrize("stacked", [True, False, "repeated"])
@pytest.mark.parametrize("mode", ["observed", "latent"])
def test_per_seed_data_and_groups_match_separate_fits_bitwise(mode, stacked, monkeypatch):
    problems = [small_problem(seed=s) for s in (20, 21, 22)]
    hyper = problems[0][1]
    data = [X for X, _, _ in problems]
    groups = [g if mode == "observed" else GroupAssignment.latent(g.n_groups) for _, _, g in problems]
    seeds = [3, 17, 3]
    if stacked == "repeated":
        data, groups = ([items[0], items[1], items[0], items[0]] for items in (data, groups))
        seeds = [3, 17, 5, 3]
    # Batches of two restarts, so a batch boundary falls inside.
    monkeypatch.setattr(engine, "_BATCH_ELEMENTS", 2 * data[0].size)
    config = FitConfig(max_sweeps=25, compute_bound_every=6)
    inputs = np.stack(data) if stacked is True else data
    results = fit_restarts(inputs, hyper, groups, config, seeds)
    assert len(results) == len(seeds)
    for X, g, seed, result in zip(data, groups, seeds, results):
        assert_same_fit(result, fit(X, hyper, g, dataclasses.replace(config, seed=seed)))


def test_a_shared_matrix_is_not_copied_per_restart(monkeypatch):
    X, hyper, groups = small_problem()
    seen = []
    fit_batch = engine._fit_batch

    def recording(X, *args):
        seen.append(X)
        return fit_batch(X, *args)

    monkeypatch.setattr(engine, "_fit_batch", recording)
    fit_restarts(X, hyper, groups, FitConfig(max_sweeps=2), [1, 2, 3])
    [batch_X] = seen
    assert batch_X.shape[0] == 3
    assert np.shares_memory(batch_X, X)


def degenerate(X, kind):
    """A copy of the count matrix X with one kind of degenerate data."""
    X = X.copy()
    if kind == "zero row":
        X[1] = 0.0
    elif kind == "zero column":
        X[:, 2] = 0.0
    elif kind == "all zero":
        X[:] = 0.0
    elif kind == "huge":
        X *= 1e12
    return X


@settings(max_examples=15, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["ordinary", "zero row", "zero column", "all zero", "huge"]),
        min_size=1,
        max_size=5,
    ),
    at=st.integers(0, 5),
    mode=st.sampled_from(["observed", "latent"]),
)
def test_degenerate_per_seed_data_in_one_batch_match_separate_fits(kinds, at, mode):
    X, hyper, groups = small_problem(seed=23)
    if mode == "latent":
        groups = GroupAssignment.latent(hyper.dims[2])
    kinds.insert(min(at, len(kinds)), "ordinary")
    data = [degenerate(X, kind) for kind in kinds]
    seeds = [40 + j for j in range(len(data))]
    config = FitConfig(max_sweeps=40)
    assert engine.restarts_per_batch(*X.shape) >= len(data)  # one batch
    try:
        results = fit_restarts(data, hyper, groups, config, seeds)
    except NumericalError as exc:
        j = exc.restart
        with pytest.raises(NumericalError):
            fit(data[j], hyper, groups, dataclasses.replace(config, seed=seeds[j]))
        return
    for x, seed, result in zip(data, seeds, results):
        assert_same_fit(result, fit(x, hyper, groups, dataclasses.replace(config, seed=seed)))
        bounds = np.array([b for _, b in result.bound_trace])
        drops = bounds[:-1] - bounds[1:]
        assert (drops <= np.abs(bounds[:-1]) * 1e-9).all()


def assert_monotone_and_conserving_or_named_failure(X, hyper, groups):
    """Every restart keeps its bound non-decreasing and its counts conserved,
    or the fit raises a NumericalError naming the factor, sweep and restart.

    A drop may be 1e-9 of the bound plus 64 ulps of the constant offset:
    the bound is a sum of terms as large as the offset, which rounds at its
    ulps when the bound itself is much smaller (examples below).
    """
    try:
        results = fit_restarts(X, hyper, groups, FitConfig(max_sweeps=40), [1, 2])
    except NumericalError as exc:
        named = (r"(non-finite (values in \w+|bound contribution from the [\w-]+ terms)"
                 r"|counts not conserved in Sigma_v)")
        assert re.fullmatch(rf"{named} at sweep \d+ in restart \d+", str(exc))
        return
    rounding = 64 * np.finfo(float).eps * abs(engine._bound_constants(X, hyper, groups))
    for result in results:
        bounds = np.array([b for _, b in result.bound_trace])
        assert (bounds[:-1] - bounds[1:] <= 1e-9 * np.abs(bounds[:-1]) + rounding).all()
        for counts, axis in [(result.state.Sigma_v, 0), (result.state.Sigma_t, 1)]:
            np.testing.assert_allclose(counts.sum(axis=axis), X.sum(axis=axis), rtol=1e-10, atol=0)


# Prior shapes of the rate indicators (a) and the dictionary (a_t) range over
# twelve and five orders of magnitude, the dictionary's scale (b_t) over nine.
# At a_t = 1e-3, exp(digamma(a_t)) underflows and a fit can lose its counts,
# which must raise. These fits bound every sweep, so where the platform
# allows they overlap each bound with the next sweep.
PROPERTY_PRIORS = dict(
    top=st.sampled_from([0, 1, 10, 1000, 10**12]),
    a=st.sampled_from([1e-8, 1e-3, 1.0, 32.0, 1e4]),
    b=st.sampled_from([1e-6, 1.0, 1e6]),
    a_t=st.sampled_from([1e-3, 0.01, 0.6, 100.0]),
    b_t=st.sampled_from([1e-3, 20.0, 1e6]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=25, deadline=None)
@given(
    V=st.integers(1, 8),
    per_group=st.integers(1, 3),
    T=st.integers(1, 8),
    mode=st.sampled_from(["observed", "latent"]),
    **PROPERTY_PRIORS,
)
# Bounds far below the offset: zero data under a concentrated prior (about
# -1e-3 against -8e4), and counts of 1e12 on one cell (-63 against -2.7e13).
@example(V=1, per_group=1, T=1, mode="observed", top=0, a=1e4, b=1.0, a_t=0.6, b_t=20.0, seed=0)
@example(
    V=1, per_group=1, T=1, mode="observed", top=10**12, a=1e-8, b=1e-6, a_t=0.01, b_t=20.0, seed=0
)
def test_one_group_fits_are_monotone_or_name_the_failure(
    V, per_group, T, mode, top, a, b, a_t, b_t, seed
):
    X = np.random.default_rng(seed).integers(0, top + 1, size=(V, T)).astype(float)
    prior = PriorSettings(per_group=per_group, a_small=a, a_large=a, b_lambda=b, a_t=a_t, b_t=b_t)
    groups = GroupAssignment(1, np.zeros(T, dtype=int))
    if mode == "latent":
        groups = GroupAssignment.latent(1)
    assert_monotone_and_conserving_or_named_failure(X, prior.hyperparameters(V, 1, T), groups)


@settings(max_examples=25, deadline=None)
@given(
    V=st.integers(1, 8),
    per_group=st.integers(1, 3),
    C=st.integers(2, 4),
    contrast=st.sampled_from([1.0, 8.0]),
    **PROPERTY_PRIORS,
)
def test_latent_fits_with_one_sample_per_group_are_monotone_or_name_the_failure(
    V, per_group, C, contrast, top, a, b, a_t, b_t, seed
):
    X = np.random.default_rng(seed).integers(0, top + 1, size=(V, C)).astype(float)
    prior = PriorSettings(
        per_group=per_group, a_small=a, a_large=a * contrast, b_lambda=b, a_t=a_t, b_t=b_t
    )
    groups = GroupAssignment.latent(C)
    assert_monotone_and_conserving_or_named_failure(X, prior.hyperparameters(V, C, C), groups)


def test_per_seed_inputs_must_match_the_seeds():
    X, hyper, groups = small_problem()
    config = FitConfig(max_sweeps=1)
    with pytest.raises(ValueError, match="2 data matrices for 3 seeds"):
        fit_restarts([X, X], hyper, groups, config, [1, 2, 3])
    with pytest.raises(ValueError, match="does not match"):
        fit_restarts([X, X[:, :-1]], hyper, groups, config, [1, 2])
    with pytest.raises(ValueError, match="1 group assignments for 2 seeds"):
        fit_restarts(X, hyper, [groups], config, [1, 2])
    with pytest.raises(ValueError, match="all observed or all latent"):
        fit_restarts(X, hyper, [groups, GroupAssignment.latent(2)], config, [1, 2])


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


@pytest.mark.parametrize("mode, restart", [("observed", 0), ("latent", 1)])
def test_overflow_in_a_sweep_is_a_numerical_error_not_a_numpy_warning(mode, restart):
    # Shapes of 1e-8 make the sweep's exponentials overflow; under the
    # suite's error::RuntimeWarning filter numpy's warning must not escape
    # before the finite check names the factor, the sweep and the restart.
    prior = PriorSettings(per_group=1, a_small=1e-8, a_large=8e-8, b_lambda=1, a_t=1e-6)
    hyper = prior.hyperparameters(6, 2, 5)
    groups = GroupAssignment(2, np.array([0, 0, 1, 1, 0]))
    if mode == "latent":
        groups = GroupAssignment.latent(2)
    X = np.full((6, 5), 3.0)
    with pytest.raises(NumericalError, match=f"Sigma_t at sweep 1 in restart {restart}$") as info:
        fit_restarts(X, hyper, groups, FitConfig(max_sweeps=5), [1, 2])
    assert info.value.restart == restart


def test_a_sweep_that_loses_the_counts_is_a_numerical_error():
    # exp(digamma(1e-3)) underflows, so every reconstruction sits at the
    # floor and the sweep allocates none of the 120 counts; without the
    # check the fit returned a bound of -83,008 against -862 at a_t = 2e-3.
    hyper = PriorSettings(per_group=1, a_t=1e-3).hyperparameters(4, 2, 6)
    groups = GroupAssignment(2, np.arange(6) % 2)
    lost = "^counts not conserved in Sigma_v at sweep 1 in restart 0$"
    with pytest.raises(NumericalError, match=lost):
        fit(np.full((4, 6), 5.0), hyper, groups, FitConfig(max_sweeps=20))


def test_single_state_calls_name_an_overflow_in_the_set_up_without_a_numpy_warning():
    # a_t = 1e308 overflows the dictionary's mean in init_state. Under the
    # suite's error::RuntimeWarning filter, init_state must return, and the
    # sweep and the bound of its state must name what is not finite.
    hyper = PriorSettings(per_group=1, a_t=1e308).hyperparameters(4, 2, 6)
    groups = GroupAssignment(2, np.arange(6) % 2)
    X = np.full((4, 6), 5.0)
    state = init_state(hyper, groups)
    assert np.isinf(state.E_t).all()
    with pytest.raises(NumericalError, match="^non-finite values in Sigma_v at sweep 1$"):
        update_sweep(state, X, hyper, groups, sweep=1)
    with pytest.raises(NumericalError, match="^non-finite bound contribution from the constant"):
        variational_bound(state, X, hyper, groups)


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


def freeze(*values):
    """Make every array in ``values`` read-only, looking into states,
    factors and tuples."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, tuple):
            freeze(*value)
        elif dataclasses.is_dataclass(value):
            freeze(*(getattr(value, f.name) for f in dataclasses.fields(value)))


@pytest.mark.parametrize("mode", ["observed", "latent"])
def test_a_sweep_and_a_bound_only_read_the_previous_state(mode):
    # The bound of sweep k runs on a helper thread while sweep k + 1 reads
    # the same state, so neither may write into it or into the constants.
    X, hyper, groups = small_problem(seed=5)
    if mode == "latent":
        groups = GroupAssignment.latent(hyper.dims[2])
    X = np.broadcast_to(X, (3,) + X.shape)
    start = engine._init_states(hyper, [groups] * 3, [1, 2, 3])

    def run():
        fixed = engine._sweep_constants(X, hyper, groups, start.Delta)
        state = engine._sweep(start, X, hyper, groups, 1, *fixed)
        state.reconstruction
        return state, fixed

    expected = run()
    state, fixed = run()
    freeze(state, state.reconstruction, fixed, X)
    assert_same_fit(
        FitResult(engine._sweep(state, X, hyper, groups, 2, *fixed)),
        FitResult(engine._sweep(expected[0], X, hyper, groups, 2, *expected[1])),
    )
    np.testing.assert_array_equal(
        variational_bound(state, X, hyper, groups), variational_bound(expected[0], X, hyper, groups)
    )


def overlap_available():
    """Whether a fit that bounds every sweep may overlap its bounds here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus > 1 and engine._blas_thread_setter() is not None


@pytest.mark.parametrize(
    "every, sweeps, overlapped",
    [(1, 5, [1, 2, 3, 4]), (5, 5, []), (1, 1, [])],
    ids=["every", "last", "one"],
)
def test_only_a_fit_bounding_every_sweep_overlaps_its_bounds(every, sweeps, overlapped, monkeypatch):
    # The last sweep's bound has nothing to overlap; evaluate and sweep bound
    # only the last sweep, so their fits start no thread.
    if overlapped and not overlap_available():
        pytest.skip("one CPU, or no OpenBLAS thread-count setter")
    X, hyper, groups = small_problem()
    bound = engine.variational_bound
    on_helper = []

    def recording(state, data, hyper, groups, sweep=None, constants=None):
        if threading.current_thread() is not threading.main_thread():
            on_helper.append(sweep)
        return bound(state, data, hyper, groups, sweep, constants)

    monkeypatch.setattr(engine, "variational_bound", recording)
    fit(X, hyper, groups, FitConfig(max_sweeps=sweeps, compute_bound_every=every))
    assert on_helper == overlapped


# Sweep 3 leaves restart 1 a negative rate-indicator scale: its bound takes
# the log of it, which numpy would warn about, while sweep 4 reads only the
# (finite) means. A NaN in restart 0's data makes sweep 4 fail on its own.
FAILED_BOUND = "^non-finite bound contribution from the rate-indicator terms at sweep 3 in restart 1$"
FAILED_SWEEP = "^non-finite values in Sigma_v at sweep 4 in restart 0$"


@pytest.mark.parametrize(
    "fails, error, restart",
    [("bound", FAILED_BOUND, 1), ("both", FAILED_BOUND, 1), ("sweep", FAILED_SWEEP, 0)],
    ids=["bound", "both", "sweep"],
)
def test_an_overlapped_bound_fails_as_a_serial_one_would(fails, error, restart, monkeypatch):
    X, hyper, groups = small_problem()
    sweep_fn = engine._sweep

    def poisoned(state, X, hyper, groups, sweep, *fixed):
        if sweep == 4 and fails != "bound":
            X = X.copy()
            X[0, 0, 0] = np.nan
        state = sweep_fn(state, X, hyper, groups, sweep, *fixed)
        if sweep == 3 and fails != "sweep":
            state.lam.beta[1, 0, 0] = -1.0
        return state

    monkeypatch.setattr(engine, "_sweep", poisoned)
    threads = threading.active_count()
    with pytest.raises(NumericalError, match=error) as info:
        fit_restarts(X, hyper, groups, FitConfig(max_sweeps=6), [1, 2])
    assert info.value.restart == restart
    # The error is raised only once the bound in flight is done.
    assert threading.active_count() == threads


def blas_threads(setter):
    """OpenBLAS's thread count, which its setter reports only by replacing it."""
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def blas_setter():
    """OpenBLAS's thread-count setter, with two threads for the test, so
    that a fit which lowers the count and does not restore it shows."""
    setter = engine._blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS thread-count setter in this process")
    previous = setter(2)
    yield setter
    setter(previous)


def test_an_overlapped_fit_restores_the_blas_thread_count(blas_setter, monkeypatch):
    before = blas_threads(blas_setter)
    X, hyper, groups = small_problem()
    bound = engine.variational_bound
    during = []

    def recording(state, *args, **kwargs):
        # The last sweep's bound runs here, with no other BLAS work in flight.
        if threading.current_thread() is threading.main_thread():
            during.append(blas_threads(blas_setter))
        return bound(state, *args, **kwargs)

    monkeypatch.setattr(engine, "variational_bound", recording)
    fit(X, hyper, groups, FitConfig(max_sweeps=5))
    assert during == [max(1, before - 1) if overlap_available() else before]
    assert blas_threads(blas_setter) == before
    # As in test_a_sweep_that_loses_the_counts_is_a_numerical_error.
    hyper = PriorSettings(per_group=1, a_t=1e-3).hyperparameters(4, 2, 6)
    with pytest.raises(NumericalError, match="counts not conserved"):
        fit(np.full((4, 6), 5.0), hyper, GroupAssignment(2, np.arange(6) % 2), FitConfig())
    assert blas_threads(blas_setter) == before


def test_concurrent_overlapped_fits_keep_their_bits_and_the_blas_thread_count(blas_setter):
    X, hyper, groups = small_problem(seed=3)
    configs = [FitConfig(max_sweeps=40, seed=seed) for seed in range(3)]
    alone = [fit(X, hyper, groups, config) for config in configs]
    before = blas_threads(blas_setter)
    results, errors = {}, []

    def run(config):
        try:
            results[config.seed] = fit(X, hyper, groups, config)
        except BaseException as exc:  # re-raised below, on the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(config,)) for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    for config, single in zip(configs, alone):
        assert_same_fit(results[config.seed], single)
    assert blas_threads(blas_setter) == before
    assert engine._blas_fits == 0
