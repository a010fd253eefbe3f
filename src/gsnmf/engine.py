"""Mean-field coordinate-ascent learner for the group-sparse count factorization.

One sweep updates, in order: the multinomial count allocations, the gamma
posterior of the dictionary T, the gamma posterior of the coefficients V,
the gamma posterior of the per-group rate indicators, and (latent mode
only) the categorical group responsibilities and their Dirichlet weights.
Each update uses the freshest values of the other factors, so the evidence
lower bound is non-decreasing sweep over sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import GroupAssignment, Hyperparameters, as_data_matrix
from .numerics import digamma, log_gamma

__all__ = [
    "NumericalError",
    "FitConfig",
    "FitResult",
    "VariationalState",
    "init_state",
    "update_sweep",
    "variational_bound",
    "fit",
    "multi_restart_fit",
]

# Smallest admissible Poisson-mixing denominator; entries of X over a
# vanished reconstruction would otherwise divide to inf.
_DENOM_FLOOR = 1e-300


class NumericalError(RuntimeError):
    """A sweep or bound evaluation produced non-finite values."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fit loop.

    ``bound_tol`` <= 0 disables early stopping (the default protocol runs a
    fixed number of sweeps); when positive, the fit stops once the relative
    bound improvement between consecutive evaluations drops below it.
    """

    max_sweeps: int = 300
    bound_tol: float = 0.0
    compute_bound_every: int = 1
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.compute_bound_every < 1:
            raise ValueError("compute_bound_every must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class VariationalState:
    """All factor expectations plus the gamma posterior parameters behind them.

    E_* are posterior means, L_* posterior log-means (always strictly below
    log E_* by Jensen), Sigma_t / Sigma_v the count allocations summed over
    samples / dimensions, Delta the (T, C) group responsibilities (exact
    one-hot rows in observed mode) and Pi the expected log mixture weights.
    """

    E_t: np.ndarray
    L_t: np.ndarray
    E_v: np.ndarray
    L_v: np.ndarray
    Sigma_t: np.ndarray
    Sigma_v: np.ndarray
    E_lambda: np.ndarray
    L_lambda: np.ndarray
    Delta: np.ndarray
    Pi: np.ndarray
    alpha_t: np.ndarray
    beta_t: np.ndarray
    alpha_v: np.ndarray
    beta_v: np.ndarray
    alpha_lambda: np.ndarray
    beta_lambda: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int, int]:
        V, I = self.E_t.shape
        _, C = self.E_lambda.shape
        _, T = self.E_v.shape
        return V, I, C, T


def _at_sweep(sweep: int | None) -> str:
    return "" if sweep is None else f" at sweep {sweep}"


def _check_finite(name: str, arr: np.ndarray, sweep: int | None):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {name}{_at_sweep(sweep)}")


_Reconstruction = tuple[np.ndarray, np.ndarray, np.ndarray]


def _reconstruction(state: VariationalState) -> _Reconstruction:
    """exp(L_t), exp(L_v) and their floored product, the Poisson-mixing denominator.

    Both the bound of a state and the next sweep from it need exactly these
    arrays, so the fit loop computes them once per state.
    """
    exp_lt = np.exp(state.L_t)
    exp_lv = np.exp(state.L_v)
    return exp_lt, exp_lv, np.maximum(exp_lt @ exp_lv, _DENOM_FLOOR)


def init_state(
    hyper: Hyperparameters,
    groups: GroupAssignment,
    dims: tuple[int, int, int, int] | None = None,
    seed: int = 0,
) -> VariationalState:
    """Random starting point: prior means jittered by uniform [0.5, 1.5] noise.

    Log-means start at log(mean) - 0.1 so the Jensen gap holds from the
    first sweep. Responsibilities start one-hot (observed) or uniform
    (latent); expected log weights come from the Dirichlet prior rows.
    """
    V, I, C, T = hyper.dims
    if dims is not None and tuple(dims) != (V, I, C, T):
        raise ValueError(f"dims {dims} do not match hyperparameters {(V, I, C, T)}")
    if groups.n_groups != C:
        raise ValueError("group count does not match hyperparameters")
    if groups.observed and groups.z.size != T:
        raise ValueError("group vector length does not match hyperparameters")

    rng = np.random.default_rng(seed)
    if groups.observed:
        delta = groups.one_hot(T)
    else:
        delta = np.full((T, C), 1.0 / C)

    E_t = hyper.A_t * hyper.B_t * rng.uniform(0.5, 1.5, size=(V, I))
    prior_rate_v = (hyper.A_lambda * hyper.B_lambda) @ delta.T
    E_v = rng.uniform(0.5, 1.5, size=(I, T)) / prior_rate_v
    E_lambda = hyper.A_lambda * hyper.B_lambda * rng.uniform(0.5, 1.5, size=(I, C))

    pi = digamma(hyper.U) - digamma(hyper.U.sum(axis=1))[:, None]

    return VariationalState(
        E_t=E_t,
        L_t=np.log(E_t) - 0.1,
        E_v=E_v,
        L_v=np.log(E_v) - 0.1,
        Sigma_t=np.zeros((V, I)),
        Sigma_v=np.zeros((I, T)),
        E_lambda=E_lambda,
        L_lambda=np.log(E_lambda) - 0.1,
        Delta=delta,
        Pi=pi,
        alpha_t=hyper.A_t.copy(),
        beta_t=E_t / hyper.A_t,
        alpha_v=np.ones((I, T)),
        beta_v=E_v.copy(),
        alpha_lambda=hyper.A_lambda.copy(),
        beta_lambda=E_lambda / hyper.A_lambda,
    )


def update_sweep(
    state: VariationalState,
    data: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    sweep: int | None = None,
    reconstruction: _Reconstruction | None = None,
) -> VariationalState:
    """One full coordinate-ascent sweep; returns a fresh state.

    Cells of the data with value 0 contribute zero counts (their mixing
    ratio is defined as 0); reconstruction denominators are floored at a
    tiny positive value everywhere else. ``reconstruction`` may carry
    ``_reconstruction(state)`` when the caller already computed it.
    """
    X = data
    if reconstruction is None:
        reconstruction = _reconstruction(state)
    exp_lt, exp_lv, denom = reconstruction

    # Count allocation: expected per-feature counts under the current
    # multinomial posterior, contracted over samples resp. dimensions.
    xi = np.where(X > 0.0, X / denom, 0.0)
    Sigma_v = exp_lv * (exp_lt.T @ xi)
    Sigma_t = exp_lt * (xi @ exp_lv.T)
    _check_finite("Sigma_v", Sigma_v, sweep)
    _check_finite("Sigma_t", Sigma_t, sweep)

    # Dictionary posterior (uses the pre-sweep coefficient means).
    alpha_t = hyper.A_t + Sigma_t
    beta_t = 1.0 / (1.0 / hyper.B_t + state.E_v.sum(axis=1)[None, :])
    E_t = alpha_t * beta_t
    L_t = digamma(alpha_t) + np.log(beta_t)
    _check_finite("E_t", E_t, sweep)

    # Coefficient posterior (uses the fresh dictionary means and the current
    # responsibility-weighted rate indicators).
    alpha_v = 1.0 + Sigma_v
    rate_v = state.E_lambda @ state.Delta.T + E_t.sum(axis=0)[:, None]
    beta_v = 1.0 / rate_v
    E_v = alpha_v * beta_v
    L_v = digamma(alpha_v) + np.log(beta_v)
    _check_finite("E_v", E_v, sweep)

    # Rate-indicator posterior (uses the fresh coefficient means).
    counts = state.Delta.sum(axis=0)
    alpha_lambda = hyper.A_lambda + counts[None, :]
    beta_lambda = 1.0 / (1.0 / hyper.B_lambda + E_v @ state.Delta)
    E_lambda = alpha_lambda * beta_lambda
    L_lambda = digamma(alpha_lambda) + np.log(beta_lambda)
    _check_finite("E_lambda", E_lambda, sweep)

    delta = state.Delta
    pi = state.Pi
    if not groups.observed:
        # Mean-field categorical update in log space, then the Dirichlet
        # update of the expected log mixture weights.
        logits = pi - E_v.T @ E_lambda + L_lambda.sum(axis=0)[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        delta = np.exp(logits)
        delta /= delta.sum(axis=1, keepdims=True)
        _check_finite("Delta", delta, sweep)
        Y = hyper.U + delta
        pi = digamma(Y) - digamma(Y.sum(axis=1))[:, None]
        _check_finite("Pi", pi, sweep)

    return VariationalState(
        E_t=E_t,
        L_t=L_t,
        E_v=E_v,
        L_v=L_v,
        Sigma_t=Sigma_t,
        Sigma_v=Sigma_v,
        E_lambda=E_lambda,
        L_lambda=L_lambda,
        Delta=delta,
        Pi=pi,
        alpha_t=alpha_t,
        beta_t=beta_t,
        alpha_v=alpha_v,
        beta_v=beta_v,
        alpha_lambda=alpha_lambda,
        beta_lambda=beta_lambda,
    )


@dataclass(frozen=True)
class _BoundConstants:
    """Bound terms that depend only on the data and the hyperparameters.

    ``dictionary`` and ``rate`` are the gamma prior normalizers
    -sum(A log B + log-gamma(A)) of T and of the rate indicators; ``group``
    is the Dirichlet prior normalizer of the latent mode (0 when observed).
    """

    lgamma_counts: float
    dictionary: float
    rate: float
    group: float


def _bound_constants(
    data: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    lgamma_counts_sum: float | None = None,
) -> _BoundConstants:
    if lgamma_counts_sum is None:
        lgamma_counts_sum = float(np.sum(log_gamma(data + 1.0)))
    group = 0.0
    if not groups.observed:
        group = float(np.sum(log_gamma(hyper.U.sum(axis=1))) - np.sum(log_gamma(hyper.U)))
    return _BoundConstants(
        lgamma_counts=lgamma_counts_sum,
        dictionary=-float(np.sum(hyper.A_t * np.log(hyper.B_t) + log_gamma(hyper.A_t))),
        rate=-float(np.sum(hyper.A_lambda * np.log(hyper.B_lambda) + log_gamma(hyper.A_lambda))),
        group=group,
    )


def _gamma_cross_entropy_terms(A, B, alpha, beta, E, L):
    """Sum of prior cross terms and entropy for one gamma factor block.

    The prior normalizer, which depends on A and B only, is left to
    ``_bound_constants``.
    """
    prior = -E / B + (A - 1.0) * L
    entropy = -(alpha - 1.0) * L + alpha * np.log(beta) + alpha + log_gamma(alpha)
    return float(np.sum(prior + entropy))


def variational_bound(
    state: VariationalState,
    data: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    lgamma_counts_sum: float | None = None,
    sweep: int | None = None,
    constants: _BoundConstants | None = None,
    reconstruction: _Reconstruction | None = None,
) -> float:
    """Evidence lower bound of the current factorized posterior.

    The count-allocation factor is refreshed from the current log-means, so
    consecutive post-sweep evaluations sit at the same point of the update
    cycle and the returned trace is non-decreasing. ``lgamma_counts_sum``
    may carry the precomputed sum of log-gamma(X + 1) since it never changes
    across sweeps; ``constants`` may carry ``_bound_constants`` (all the
    terms that never change across sweeps) and ``reconstruction`` may carry
    ``_reconstruction(state)``. ``sweep`` only names the sweep in errors.
    """
    X = data
    if constants is None:
        constants = _bound_constants(X, hyper, groups, lgamma_counts_sum)
    if reconstruction is None:
        reconstruction = _reconstruction(state)
    denom = reconstruction[2]
    at = _at_sweep(sweep)
    mixing = (
        float(np.sum(np.where(X > 0.0, X * np.log(denom), 0.0)))
        - float(state.E_t.sum(axis=0) @ state.E_v.sum(axis=1))
        - constants.lgamma_counts
    )
    if not np.isfinite(mixing):
        raise NumericalError(f"non-finite bound contribution from the mixing terms{at}")

    t_terms = constants.dictionary + _gamma_cross_entropy_terms(
        hyper.A_t, hyper.B_t, state.alpha_t, state.beta_t, state.E_t, state.L_t
    )
    if not np.isfinite(t_terms):
        raise NumericalError(f"non-finite bound contribution from the dictionary terms{at}")

    rate = state.E_lambda @ state.Delta.T
    log_rate = state.L_lambda @ state.Delta.T
    v_prior = float(np.sum(log_rate - rate * state.E_v))
    v_entropy = float(
        np.sum(
            -(state.alpha_v - 1.0) * state.L_v
            + state.alpha_v * np.log(state.beta_v)
            + state.alpha_v
            + log_gamma(state.alpha_v)
        )
    )
    v_terms = v_prior + v_entropy
    if not np.isfinite(v_terms):
        raise NumericalError(f"non-finite bound contribution from the coefficient terms{at}")

    lambda_terms = constants.rate + _gamma_cross_entropy_terms(
        hyper.A_lambda,
        hyper.B_lambda,
        state.alpha_lambda,
        state.beta_lambda,
        state.E_lambda,
        state.L_lambda,
    )
    if not np.isfinite(lambda_terms):
        raise NumericalError(f"non-finite bound contribution from the rate-indicator terms{at}")

    total = mixing + t_terms + v_terms + lambda_terms

    if not groups.observed:
        delta = state.Delta
        z_terms = float(np.sum(delta * state.Pi)) - float(
            np.sum(np.where(delta > 0.0, delta * np.log(np.maximum(delta, _DENOM_FLOOR)), 0.0))
        )
        Y = hyper.U + delta
        pi_terms = constants.group + float(
            np.sum((hyper.U - Y) * state.Pi)
            - np.sum(log_gamma(Y.sum(axis=1)))
            + np.sum(log_gamma(Y))
        )
        if not np.isfinite(z_terms) or not np.isfinite(pi_terms):
            raise NumericalError(f"non-finite bound contribution from the group terms{at}")
        total += z_terms + pi_terms

    return float(total)


@dataclass(frozen=True)
class FitResult:
    """Final state plus the (sweep index, bound) trace of one fit."""

    state: VariationalState
    bound_trace: list[tuple[int, float]] = field(default_factory=list)
    converged: bool = False
    seed: int = 0

    @property
    def final_bound(self) -> float:
        return self.bound_trace[-1][1]


def fit(
    data,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    config: FitConfig,
) -> FitResult:
    """Run coordinate-ascent sweeps from a seeded random start.

    The bound is recorded every ``compute_bound_every`` sweeps and always at
    the final sweep; with a positive ``bound_tol`` the loop stops once the
    relative improvement between recorded bounds falls below it.
    """
    X = as_data_matrix(data)
    V, I, C, T = hyper.dims
    if X.shape != (V, T):
        raise ValueError(f"data shape {X.shape} does not match hyperparameters {(V, T)}")
    state = init_state(hyper, groups, seed=config.seed)
    constants = _bound_constants(X, hyper, groups)
    trace: list[tuple[int, float]] = []
    converged = False
    previous = None
    # The reconstruction of the state just bounded, handed on to the next sweep.
    reconstruction = None
    for sweep in range(1, config.max_sweeps + 1):
        state = update_sweep(state, X, hyper, groups, sweep=sweep, reconstruction=reconstruction)
        reconstruction = None
        if sweep % config.compute_bound_every == 0 or sweep == config.max_sweeps:
            reconstruction = _reconstruction(state)
            bound = variational_bound(
                state,
                X,
                hyper,
                groups,
                sweep=sweep,
                constants=constants,
                reconstruction=reconstruction,
            )
            trace.append((sweep, bound))
            if (
                config.bound_tol > 0.0
                and previous is not None
                and bound - previous < config.bound_tol * abs(previous)
            ):
                converged = True
                break
            previous = bound
    return FitResult(state=state, bound_trace=trace, converged=converged, seed=config.seed)


def multi_restart_fit(
    data,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    config: FitConfig,
) -> tuple[list[FitResult], int]:
    """Independent restarts with seeds derived from ``config.seed``.

    Returns every restart, stably sorted by final bound (best first), plus
    the index of the best-bound result. All restarts are retained because
    the bound is not a proxy for downstream classification quality.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(config.restarts)
    results = [
        fit(data, hyper, groups, replace(config, seed=int(s))) for s in seeds
    ]
    order = sorted(range(len(results)), key=lambda k: -results[k].final_bound)
    return [results[k] for k in order], 0
