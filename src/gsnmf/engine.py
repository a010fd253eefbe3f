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
from .numerics import GammaFactor, dirichlet_expected_log, log_gamma

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
    """The factorized posterior after a sweep.

    t, v and lam are the gamma posteriors of the (V, I) dictionary, the
    (I, T) coefficients and the (I, C) rate indicators; Sigma_t / Sigma_v
    the count allocations summed over samples / dimensions, Delta the (T, C)
    group responsibilities (exact one-hot rows in observed mode) and Pi the
    expected log mixture weights.
    """

    t: GammaFactor
    v: GammaFactor
    lam: GammaFactor
    Sigma_t: np.ndarray
    Sigma_v: np.ndarray
    Delta: np.ndarray
    Pi: np.ndarray

    @property
    def E_t(self) -> np.ndarray:
        """Posterior mean of the dictionary."""
        return self.t.mean

    @property
    def E_v(self) -> np.ndarray:
        """Posterior mean of the coefficients."""
        return self.v.mean


def _at_sweep(sweep: int | None) -> str:
    return "" if sweep is None else f" at sweep {sweep}"


def _check_finite(name: str, arr: np.ndarray, sweep: int | None):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {name}{_at_sweep(sweep)}")


_Reconstruction = tuple[np.ndarray, np.ndarray, np.ndarray]


def _reconstruction(state: VariationalState) -> _Reconstruction:
    """exp of the t and v log-means and their floored product, the Poisson-mixing denominator.

    Both the bound of a state and the next sweep from it need exactly these
    arrays, so the fit loop computes them once per state.
    """
    exp_lt = np.exp(state.t.log_mean)
    exp_lv = np.exp(state.v.log_mean)
    return exp_lt, exp_lv, np.maximum(exp_lt @ exp_lv, _DENOM_FLOOR)


def init_state(
    hyper: Hyperparameters,
    groups: GroupAssignment,
    seed: int = 0,
) -> VariationalState:
    """Random starting point: each gamma factor at its prior, scale jittered.

    The dictionary and the rate indicators start at their prior shape and
    prior scale times uniform [0.5, 1.5] noise; the coefficients at shape 1
    and that noise over their prior rate, the responsibility-weighted prior
    mean of the rate indicators. Responsibilities start one-hot (observed)
    or uniform (latent); expected log weights come from the Dirichlet prior
    rows.
    """
    V, I, C, T = hyper.dims
    if groups.n_groups != C:
        raise ValueError("group count does not match hyperparameters")
    if groups.observed and groups.z.size != T:
        raise ValueError("group vector length does not match hyperparameters")

    rng = np.random.default_rng(seed)
    if groups.observed:
        delta = groups.one_hot(T)
    else:
        delta = np.full((T, C), 1.0 / C)

    t = GammaFactor(hyper.A_t.copy(), hyper.B_t * rng.uniform(0.5, 1.5, size=(V, I)))
    prior_rate_v = (hyper.A_lambda * hyper.B_lambda) @ delta.T
    v = GammaFactor(np.ones((I, T)), rng.uniform(0.5, 1.5, size=(I, T)) / prior_rate_v)
    lam = GammaFactor(
        hyper.A_lambda.copy(), hyper.B_lambda * rng.uniform(0.5, 1.5, size=(I, C))
    )

    return VariationalState(
        t=t,
        v=v,
        lam=lam,
        Sigma_t=np.zeros((V, I)),
        Sigma_v=np.zeros((I, T)),
        Delta=delta,
        Pi=dirichlet_expected_log(hyper.U),
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
    t = GammaFactor(
        hyper.A_t + Sigma_t, 1.0 / (1.0 / hyper.B_t + state.v.mean.sum(axis=1)[None, :])
    )
    _check_finite("E_t", t.mean, sweep)

    # Coefficient posterior (uses the fresh dictionary means and the current
    # responsibility-weighted rate indicators).
    rate_v = state.lam.mean @ state.Delta.T + t.mean.sum(axis=0)[:, None]
    v = GammaFactor(1.0 + Sigma_v, 1.0 / rate_v)
    _check_finite("E_v", v.mean, sweep)

    # Rate-indicator posterior (uses the fresh coefficient means).
    counts = state.Delta.sum(axis=0)
    lam = GammaFactor(
        hyper.A_lambda + counts[None, :], 1.0 / (1.0 / hyper.B_lambda + v.mean @ state.Delta)
    )
    _check_finite("E_lambda", lam.mean, sweep)

    delta = state.Delta
    pi = state.Pi
    if not groups.observed:
        # Mean-field categorical update in log space, then the Dirichlet
        # update of the expected log mixture weights.
        logits = pi - v.mean.T @ lam.mean + lam.log_mean.sum(axis=0)[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        delta = np.exp(logits)
        delta /= delta.sum(axis=1, keepdims=True)
        _check_finite("Delta", delta, sweep)
        pi = dirichlet_expected_log(hyper.U + delta)
        _check_finite("Pi", pi, sweep)

    return VariationalState(
        t=t, v=v, lam=lam, Sigma_t=Sigma_t, Sigma_v=Sigma_v, Delta=delta, Pi=pi
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
    t, v, lam = state.t, state.v, state.lam
    mixing = (
        float(np.sum(np.where(X > 0.0, X * np.log(denom), 0.0)))
        - float(t.mean.sum(axis=0) @ v.mean.sum(axis=1))
        - constants.lgamma_counts
    )
    if not np.isfinite(mixing):
        raise NumericalError(f"non-finite bound contribution from the mixing terms{at}")

    # Gamma factors: prior cross terms plus entropy; the prior normalizers
    # of T and of the rate indicators are in ``constants``.
    t_terms = constants.dictionary + float(
        np.sum(-t.mean / hyper.B_t + (hyper.A_t - 1.0) * t.log_mean + t.entropy())
    )
    if not np.isfinite(t_terms):
        raise NumericalError(f"non-finite bound contribution from the dictionary terms{at}")

    rate = lam.mean @ state.Delta.T
    log_rate = lam.log_mean @ state.Delta.T
    v_terms = float(np.sum(log_rate - rate * v.mean)) + float(np.sum(v.entropy()))
    if not np.isfinite(v_terms):
        raise NumericalError(f"non-finite bound contribution from the coefficient terms{at}")

    lambda_terms = constants.rate + float(
        np.sum(-lam.mean / hyper.B_lambda + (hyper.A_lambda - 1.0) * lam.log_mean + lam.entropy())
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
) -> list[FitResult]:
    """Independent restarts with seeds derived from ``config.seed``.

    Returns every restart, stably sorted by final bound (best first). All
    restarts are retained because the bound is not a proxy for downstream
    classification quality.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(config.restarts)
    results = [
        fit(data, hyper, groups, replace(config, seed=int(s))) for s in seeds
    ]
    order = sorted(range(len(results)), key=lambda k: -results[k].final_bound)
    return [results[k] for k in order]
