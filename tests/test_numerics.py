import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsnmf.numerics import (
    GammaFactor,
    digamma,
    dirichlet_expected_log,
    log_gamma,
)
from oracles import reference_digamma, reference_log_gamma

EULER_MASCHERONI = 0.57721566490153286


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-13)
    assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-13)
    assert digamma(0.5) == pytest.approx(digamma(1.0) - 2.0 * math.log(2.0), abs=1e-13)


def test_domain_errors():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            digamma(bad)
        with pytest.raises(ValueError):
            log_gamma(bad)
    with pytest.raises(ValueError):
        GammaFactor(-1.0, 2.0)
    with pytest.raises(ValueError):
        dirichlet_expected_log(np.array([1.0, 0.0]))


@pytest.mark.parametrize("fn", [digamma, log_gamma])
@pytest.mark.parametrize(
    "bad",
    [[1.0, np.nan, 2.0], [[3.0, np.inf]], [-np.inf], [0.0, 9.0], [2.0, -1.0], np.nan],
    ids=["nan", "inf", "-inf", "zero", "negative", "0-d nan"],
)
def test_domain_errors_in_arrays(fn, bad):
    with pytest.raises(ValueError, match=f"^{fn.__name__} requires finite inputs > 0$"):
        fn(np.array(bad))


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_empty_and_0d_arrays(fn):
    assert fn(np.empty(0)).shape == (0,)
    assert fn(np.array(2.5)) == fn(2.5)
    assert isinstance(fn(np.array(2.5)), float)


@pytest.mark.parametrize("fn", [digamma, log_gamma])
def test_temporaries_stay_below_ten_times_the_input(fn):
    # Every entry below 8 takes the 8-step shift, the worst case.
    x = np.random.default_rng(3).uniform(1e-3, 8.0, size=(1024, 50))
    tracemalloc.start()
    try:
        fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * x.nbytes


def test_matches_high_precision_oracle_on_sample():
    rng = np.random.default_rng(123)
    xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), size=500))
    for x in xs:
        assert digamma(float(x)) == pytest.approx(reference_digamma(float(x)), abs=1e-12)
        ref = reference_log_gamma(float(x))
        assert abs(log_gamma(float(x)) - ref) <= 1e-12 * max(1.0, abs(ref))


def assert_matches_oracle(xs):
    # Error relative to max(1, |reference|), as criterion 05 measures
    # log-gamma; near 0 and at the top of the range |digamma| is huge.
    dg = digamma(xs)
    lg = log_gamma(xs)
    for x, d_val, l_val in zip(xs, dg, lg):
        ref_d = reference_digamma(float(x))
        ref_l = reference_log_gamma(float(x))
        assert abs(d_val - ref_d) <= 1e-12 * max(1.0, abs(ref_d)), x
        assert abs(l_val - ref_l) <= 1e-12 * max(1.0, abs(ref_l)), x


def test_oracle_at_the_shift_cutoff():
    # The entries just below 8 take the 8-step shift, 8 itself does not.
    assert_matches_oracle(np.array([np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, np.inf)]))


def test_oracle_at_the_extremes_of_the_domain():
    rng = np.random.default_rng(77)
    tiny = np.exp(rng.uniform(np.log(1e-300), np.log(1e-3), size=200))
    huge = np.exp(rng.uniform(np.log(1e6), np.log(1e300), size=200))
    assert_matches_oracle(np.concatenate([tiny, [1e-300, 1e-3]]))
    assert_matches_oracle(np.concatenate([huge, [1e6, 1e300]]))


def test_mixed_array_matches_elementwise_scalar_calls():
    rng = np.random.default_rng(5)
    xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(7, 11)))
    xs[0, :3] = [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, np.inf)]
    assert (xs < 8.0).any() and (xs >= 8.0).any()
    # The shift terms are added in one fixed order, so a lone entry and the
    # same entry among others give the same bits.
    for fn in (digamma, log_gamma):
        expected = np.array([fn(float(x)) for x in xs.ravel()]).reshape(xs.shape)
        got = fn(xs)
        assert got.shape == xs.shape
        np.testing.assert_array_equal(got, expected)


def test_shapes_are_preserved():
    for fn in (digamma, log_gamma):
        scalar = fn(np.array(3.5))
        assert isinstance(scalar, float)
        assert scalar == fn(3.5)
        assert fn(np.empty((0, 3))).shape == (0, 3)
        grid = np.array([[0.5, 9.0, 2.0], [100.0, 7.5, 1e-2]])
        out = fn(grid)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out[1], fn(grid[1]))


@settings(max_examples=200)
@given(st.floats(min_value=1e-3, max_value=1e6))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)


@settings(max_examples=200)
@given(st.floats(min_value=1e-3, max_value=1e6))
def test_log_gamma_recurrence(x):
    # Tolerance scales with the magnitude of the cancelled terms: near the
    # top of the range both log-gammas are ~1e7 and the difference cannot
    # carry more than ~1e-9 absolute precision in float64.
    lhs = log_gamma(x + 1.0) - log_gamma(x)
    assert abs(lhs - math.log(x)) <= 1e-12 * max(1.0, abs(log_gamma(x + 1.0)))


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-2, max_value=1e4),
    st.floats(min_value=1e-2, max_value=1e4),
)
def test_gamma_log_mean_strictly_below_log_of_mean(a, b):
    q = GammaFactor(a, b)
    assert q.log_mean < math.log(q.mean)


def test_gamma_expectations_values():
    q = GammaFactor(1.0, 1.0)
    assert q.mean == pytest.approx(1.0)
    assert q.log_mean == pytest.approx(digamma(1.0), abs=1e-13)
    assert q.entropy() == pytest.approx(1.0, abs=1e-13)
    assert GammaFactor(2.0, 3.0).mean == pytest.approx(6.0)


def test_gamma_log_mean_shift_under_scale_doubling():
    lm1 = GammaFactor(3.7, 2.2).log_mean
    lm2 = GammaFactor(3.7, 4.4).log_mean
    assert lm2 - lm1 == pytest.approx(math.log(2.0), abs=1e-12)


def test_gamma_expectations_vectorized():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[2.0, 2.0], [0.5, 1.0]])
    q = GammaFactor(a, b)
    assert q.mean.shape == q.log_mean.shape == q.entropy().shape == (2, 2)
    assert np.allclose(q.mean, a * b)


@pytest.mark.parametrize("alpha_shape, beta_shape", [((2, 3), (1, 1)), ((1, 1), (2, 3))])
def test_gamma_factor_broadcasts_alpha_against_beta(alpha_shape, beta_shape):
    rng = np.random.default_rng(4)
    alpha = rng.uniform(0.5, 12.0, size=alpha_shape)
    beta = rng.uniform(0.1, 3.0, size=beta_shape)
    q = GammaFactor(alpha, beta)
    a, b = np.broadcast_arrays(alpha, beta)
    log_mean = digamma(a) + np.log(b)
    entropy = -(a - 1.0) * log_mean + a * np.log(b) + a + log_gamma(a)
    for got, want in ((q.mean, a * b), (q.log_mean, log_mean), (q.entropy(), entropy)):
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_gamma_factor_passes_a_non_finite_scale_through():
    # No validation of the scale: the engine's finiteness checks must see it.
    q = GammaFactor(np.array([2.0, 3.0]), np.array([1.0, np.nan]))
    assert np.isfinite(q.mean[0]) and np.isnan(q.mean[1])
    assert np.isfinite(q.log_mean[0]) and np.isnan(q.log_mean[1])


def test_dirichlet_expected_log_examples():
    np.testing.assert_allclose(dirichlet_expected_log(np.ones(2)), [-1.0, -1.0], atol=1e-13)
    np.testing.assert_allclose(
        dirichlet_expected_log(np.array([2.0, 2.0])), [-5.0 / 6.0, -5.0 / 6.0], atol=1e-13
    )
    four = dirichlet_expected_log(np.ones(4))
    assert (four < 0.0).all()
    assert np.ptp(four) == 0.0
    with pytest.raises(ValueError):
        dirichlet_expected_log(2.0)


def test_dirichlet_expected_log_reduces_rows_like_single_vectors():
    # digamma adds its shift terms in one fixed order, so rows and single
    # vectors agree.
    rows = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 4.0]])
    np.testing.assert_allclose(
        dirichlet_expected_log(rows),
        np.stack([dirichlet_expected_log(row) for row in rows]),
        rtol=0.0,
        atol=1e-14,
    )


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8))
def test_dirichlet_expected_log_permutation_equivariant(u):
    u = np.array(u)
    rng = np.random.default_rng(0)
    perm = rng.permutation(u.size)
    direct = dirichlet_expected_log(u)
    permuted = dirichlet_expected_log(u[perm])
    np.testing.assert_allclose(permuted[np.argsort(perm)], direct, rtol=1e-12, atol=1e-12)
    assert (direct < 0.0).all()
