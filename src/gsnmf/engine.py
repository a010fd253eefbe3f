"""Mean-field coordinate-ascent learner for the group-sparse count factorization.

One sweep updates, in order: the multinomial count allocations, the gamma
posterior of the dictionary T, the gamma posterior of the coefficients V,
the gamma posterior of the per-group rate indicators, and (latent mode
only) the categorical group responsibilities and their Dirichlet weights.
Each update uses the freshest values of the other factors, so the evidence
lower bound is non-decreasing sweep over sweep.

Restarts that share the data and the prior run as one batch: the arrays
of a ``VariationalState`` that differ between restarts carry a leading
restart axis ``(R, ...)``; the others (observed-mode ``Delta``, ``Pi`` and
rate-indicator shapes) stay 2-D and shared. The sweep, the reconstruction
and the bound use negative axes and ``np.swapaxes(., -1, -2)``, so one
code path serves a single state and a batch. numpy's stacked matmul makes
one BLAS call per restart and every reduction stays within a restart, so
each restart is bitwise the fit of its own seed. Batching removes
per-call overhead, which dominates at toy shapes, but its temporaries
outgrow the cache at large ones. On a 2-vCPU host, batching was 2.7x
faster than one restart at a time at 11.5k data cells (4 restarts, V=40,
T=72), 1.1-2x at 60k-100k and 0.76-0.82x at 120k-160k (V=T=200), so a
batch spans at most ``_BATCH_ELEMENTS`` cells (R·V·T).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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
    "fit_restarts",
    "multi_restart_fit",
]

# Smallest admissible Poisson-mixing denominator; entries of X over a
# vanished reconstruction would otherwise divide to inf.
_DENOM_FLOOR = 1e-300

# Most data cells (restarts x V x T) that one batch of restarts may span.
_BATCH_ELEMENTS = 100_000


class NumericalError(RuntimeError):
    """A sweep or bound evaluation produced non-finite values; ``restart``
    is the index of the failing seed of a ``fit_restarts`` call (else 0)."""

    def __init__(self, message: str, restart: int = 0):
        super().__init__(message)
        self.restart = restart


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fit loop; every fit runs exactly ``max_sweeps`` sweeps."""

    max_sweeps: int = 300
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
    expected log mixture weights. In a batch, arrays that differ between
    restarts carry a leading restart axis; the rest stay 2-D and shared.
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


def _take(state: VariationalState, index) -> VariationalState:
    """Restart ``index`` of a batch, without the restart axis; 2-D arrays stay shared."""

    def pick(a):
        return a[index] if a.ndim > 2 else a

    parts = {f.name: getattr(state, f.name) for f in fields(state)}
    return VariationalState(**{
        name: GammaFactor(pick(a.alpha), pick(a.beta)) if isinstance(a, GammaFactor) else pick(a)
        for name, a in parts.items()
    })


def _require(ok, what: str, sweep: int | None):
    """Raise ``NumericalError(what)`` naming the sweep and the first restart not ``ok``."""
    if not np.all(ok):
        at = "" if sweep is None else f" at sweep {sweep}"
        raise NumericalError(f"{what}{at}", restart=int(np.argmin(np.ravel(ok))))


def _check_finite(name: str, arr: np.ndarray, sweep: int | None):
    _require(np.isfinite(arr).all(axis=(-2, -1)), f"non-finite values in {name}", sweep)


def _check_terms(name: str, terms, sweep: int | None):
    _require(np.isfinite(terms), f"non-finite bound contribution from the {name} terms", sweep)


_Reconstruction = tuple[np.ndarray, np.ndarray, np.ndarray]


def _reconstruction(state: VariationalState) -> _Reconstruction:
    """exp of the t and v log-means and their floored product, the Poisson-mixing denominator.

    Both the bound of a state and the next sweep from it need exactly these
    arrays, so the fit loop computes them once per state.
    """
    exp_lt = np.exp(state.t.log_mean)
    exp_lv = np.exp(state.v.log_mean)
    return exp_lt, exp_lv, np.maximum(exp_lt @ exp_lv, _DENOM_FLOOR)


def _init_states(hyper: Hyperparameters, groups: GroupAssignment, seeds) -> VariationalState:
    """One starting point per seed, stacked on a leading restart axis.

    Each gamma factor starts at its prior shape: the dictionary and the rate
    indicators at their prior scale times uniform [0.5, 1.5] noise, the
    coefficients at shape 1 and that noise over their prior rate, the
    responsibility-weighted prior mean of the rate indicators.
    Responsibilities start one-hot (observed) or uniform (latent); expected
    log weights come from the Dirichlet prior rows. Both are shared.
    """
    V, I, C, T = hyper.dims
    if groups.n_groups != C:
        raise ValueError("group count does not match hyperparameters")
    if groups.observed and groups.z.size != T:
        raise ValueError("group vector length does not match hyperparameters")

    delta = groups.one_hot(T) if groups.observed else np.full((T, C), 1.0 / C)

    # Each seed draws its noise for t, v and lam in that order.
    rngs = [np.random.default_rng(seed) for seed in seeds]
    u_t, u_v, u_lam = (
        np.stack([rng.uniform(0.5, 1.5, size=shape) for rng in rngs])
        for shape in ((V, I), (I, T), (I, C))
    )
    t = GammaFactor(np.broadcast_to(hyper.A_t, u_t.shape).copy(), hyper.B_t * u_t)
    prior_rate_v = (hyper.A_lambda * hyper.B_lambda) @ delta.T
    v = GammaFactor(np.ones(u_v.shape), u_v / prior_rate_v)
    lam = GammaFactor(np.broadcast_to(hyper.A_lambda, u_lam.shape).copy(), hyper.B_lambda * u_lam)

    return VariationalState(
        t, v, lam, np.zeros(u_t.shape), np.zeros(u_v.shape), delta, dirichlet_expected_log(hyper.U)
    )


def init_state(hyper: Hyperparameters, groups: GroupAssignment, seed: int = 0) -> VariationalState:
    """Random starting point of one fit; see ``_init_states``."""
    return _take(_init_states(hyper, groups, [seed]), 0)


def _sweep(
    state: VariationalState,
    X: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    sweep: int | None,
    reconstruction: _Reconstruction | None = None,
) -> VariationalState:
    """One full coordinate-ascent sweep of a state or a batch; returns a fresh state.

    Cells of the data with value 0 contribute zero counts (their mixing
    ratio is defined as 0); reconstruction denominators are floored at a
    tiny positive value everywhere else. ``reconstruction`` may carry
    ``_reconstruction(state)`` when the caller already computed it.
    """
    if reconstruction is None:
        reconstruction = _reconstruction(state)
    exp_lt, exp_lv, denom = reconstruction

    # Count allocation: expected per-feature counts under the current
    # multinomial posterior, contracted over samples resp. dimensions.
    xi = np.where(X > 0.0, X / denom, 0.0)
    Sigma_v = exp_lv * (np.swapaxes(exp_lt, -1, -2) @ xi)
    Sigma_t = exp_lt * (xi @ np.swapaxes(exp_lv, -1, -2))
    _check_finite("Sigma_v", Sigma_v, sweep)
    _check_finite("Sigma_t", Sigma_t, sweep)

    # Dictionary posterior (uses the pre-sweep coefficient means).
    t = GammaFactor(
        hyper.A_t + Sigma_t,
        1.0 / (1.0 / hyper.B_t + state.v.mean.sum(axis=-1)[..., None, :]),
    )
    _check_finite("E_t", t.mean, sweep)

    # Coefficient posterior (uses the fresh dictionary means and the current
    # responsibility-weighted rate indicators).
    rate_v = state.lam.mean @ np.swapaxes(state.Delta, -1, -2) + t.mean.sum(axis=-2)[..., :, None]
    v = GammaFactor(1.0 + Sigma_v, 1.0 / rate_v)
    _check_finite("E_v", v.mean, sweep)

    # Rate-indicator posterior (uses the fresh coefficient means).
    counts = state.Delta.sum(axis=-2)
    lam = GammaFactor(
        hyper.A_lambda + counts[..., None, :],
        1.0 / (1.0 / hyper.B_lambda + v.mean @ state.Delta),
    )
    _check_finite("E_lambda", lam.mean, sweep)

    delta = state.Delta
    pi = state.Pi
    if not groups.observed:
        # Mean-field categorical update in log space, then the Dirichlet
        # update of the expected log mixture weights.
        logits = (
            pi - np.swapaxes(v.mean, -1, -2) @ lam.mean + lam.log_mean.sum(axis=-2)[..., None, :]
        )
        logits -= logits.max(axis=-1, keepdims=True)
        delta = np.exp(logits)
        delta /= delta.sum(axis=-1, keepdims=True)
        _check_finite("Delta", delta, sweep)
        pi = dirichlet_expected_log(hyper.U + delta)
        _check_finite("Pi", pi, sweep)

    return VariationalState(
        t=t, v=v, lam=lam, Sigma_t=Sigma_t, Sigma_v=Sigma_v, Delta=delta, Pi=pi
    )


def update_sweep(state, data, hyper, groups, sweep=None, reconstruction=None) -> VariationalState:
    """One coordinate-ascent sweep of a single state; returns a fresh state.

    The fit loop sweeps its batches of restarts through the same ``_sweep``.
    """
    return _sweep(state, data, hyper, groups, sweep, reconstruction)


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


def _bound_constants(data, hyper: Hyperparameters, groups: GroupAssignment) -> _BoundConstants:
    group = 0.0
    if not groups.observed:
        group = float(np.sum(log_gamma(hyper.U.sum(axis=1))) - np.sum(log_gamma(hyper.U)))
    return _BoundConstants(
        lgamma_counts=float(np.sum(log_gamma(data + 1.0))),
        dictionary=-float(np.sum(hyper.A_t * np.log(hyper.B_t) + log_gamma(hyper.A_t))),
        rate=-float(np.sum(hyper.A_lambda * np.log(hyper.B_lambda) + log_gamma(hyper.A_lambda))),
        group=group,
    )


def variational_bound(
    state: VariationalState,
    data: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    sweep: int | None = None,
    constants: _BoundConstants | None = None,
    reconstruction: _Reconstruction | None = None,
):
    """Evidence lower bound of the current factorized posterior.

    A float for a single state, an (R,) array for a batch of restarts. The
    count-allocation factor is refreshed from the current log-means, so
    consecutive post-sweep evaluations sit at the same point of the update
    cycle and the returned trace is non-decreasing. ``constants`` may carry
    ``_bound_constants`` (all the terms that never change across sweeps)
    and ``reconstruction`` may carry ``_reconstruction(state)``. ``sweep``
    only names the sweep in errors.
    """
    X = data
    constants = constants or _bound_constants(X, hyper, groups)
    if reconstruction is None:
        reconstruction = _reconstruction(state)
    denom = reconstruction[2]
    cells = (-2, -1)
    t, v, lam = state.t, state.v, state.lam
    mixing = (
        np.sum(np.where(X > 0.0, X * np.log(denom), 0.0), axis=cells)
        - (t.mean.sum(axis=-2)[..., None, :] @ v.mean.sum(axis=-1)[..., :, None])[..., 0, 0]
        - constants.lgamma_counts
    )
    _check_terms("mixing", mixing, sweep)

    # Gamma factors: prior cross terms plus entropy; the prior normalizers
    # of T and of the rate indicators are in ``constants``.
    t_terms = constants.dictionary + np.sum(
        -t.mean / hyper.B_t + (hyper.A_t - 1.0) * t.log_mean + t.entropy(), axis=cells
    )
    _check_terms("dictionary", t_terms, sweep)

    delta_t = np.swapaxes(state.Delta, -1, -2)
    rate = lam.mean @ delta_t
    log_rate = lam.log_mean @ delta_t
    v_terms = np.sum(log_rate - rate * v.mean, axis=cells) + np.sum(v.entropy(), axis=cells)
    _check_terms("coefficient", v_terms, sweep)

    lambda_terms = constants.rate + np.sum(
        -lam.mean / hyper.B_lambda + (hyper.A_lambda - 1.0) * lam.log_mean + lam.entropy(),
        axis=cells,
    )
    _check_terms("rate-indicator", lambda_terms, sweep)

    total = mixing + t_terms + v_terms + lambda_terms

    if not groups.observed:
        delta = state.Delta
        z_terms = np.sum(delta * state.Pi, axis=cells) - np.sum(
            np.where(delta > 0.0, delta * np.log(np.maximum(delta, _DENOM_FLOOR)), 0.0), axis=cells
        )
        Y = hyper.U + delta
        pi_terms = constants.group + (
            np.sum((hyper.U - Y) * state.Pi, axis=cells)
            - np.sum(log_gamma(Y.sum(axis=-1)), axis=-1)
            + np.sum(log_gamma(Y), axis=cells)
        )
        _check_terms("group", z_terms + pi_terms, sweep)
        total = total + (z_terms + pi_terms)

    return float(total) if np.ndim(total) == 0 else total


@dataclass(frozen=True)
class FitResult:
    """Final state plus the (sweep index, bound) trace of one fit."""

    state: VariationalState
    bound_trace: list[tuple[int, float]] = field(default_factory=list)
    seed: int = 0

    @property
    def final_bound(self) -> float:
        return self.bound_trace[-1][1]


def _fit_batch(X, hyper, groups, config: FitConfig, seeds: list[int], constants) -> list[FitResult]:
    """Sweep one batch of restarts together for ``config.max_sweeps`` sweeps."""
    state = _init_states(hyper, groups, seeds)
    traces: list[list[tuple[int, float]]] = [[] for _ in seeds]
    # The reconstruction of the state just bounded, handed on to the next sweep.
    reconstruction = None
    for sweep in range(1, config.max_sweeps + 1):
        state = _sweep(state, X, hyper, groups, sweep, reconstruction)
        reconstruction = None
        if sweep % config.compute_bound_every and sweep != config.max_sweeps:
            continue
        reconstruction = _reconstruction(state)
        bounds = variational_bound(
            state, X, hyper, groups, sweep, constants=constants, reconstruction=reconstruction
        )
        for trace, bound in zip(traces, bounds):
            trace.append((sweep, float(bound)))
    return [FitResult(_take(state, j), traces[j], seed) for j, seed in enumerate(seeds)]


def fit_restarts(data, hyper, groups, config: FitConfig, seeds) -> list[FitResult]:
    """One fit per seed, in seed order, swept together in batches.

    Every restart runs ``max_sweeps`` sweeps. The bound is recorded every
    ``compute_bound_every`` sweeps and always at the final sweep, so every
    trace has the same sweep indices. Each result is bitwise the ``fit``
    with its seed; ``config.seed`` and ``config.restarts`` are not read. A
    ``NumericalError`` names the index of the failing seed.
    """
    X = as_data_matrix(data)
    V, I, C, T = hyper.dims
    if X.shape != (V, T):
        raise ValueError(f"data shape {X.shape} does not match hyperparameters {(V, T)}")
    seeds = [int(s) for s in seeds]
    constants = _bound_constants(X, hyper, groups)
    size = max(1, _BATCH_ELEMENTS // (V * T))
    results: list[FitResult] = []
    for first in range(0, len(seeds), size):
        try:
            results += _fit_batch(X, hyper, groups, config, seeds[first:first + size], constants)
        except NumericalError as exc:
            k = first + exc.restart
            raise NumericalError(f"{exc} in restart {k}", restart=k) from exc
    return results


def fit(data, hyper: Hyperparameters, groups: GroupAssignment, config: FitConfig) -> FitResult:
    """Run coordinate-ascent sweeps from the start seeded by ``config.seed``."""
    return fit_restarts(data, hyper, groups, config, [config.seed])[0]


def multi_restart_fit(data, hyper, groups, config: FitConfig) -> list[FitResult]:
    """Independent restarts with seeds derived from ``config.seed``.

    Returns every restart, stably sorted by final bound (best first). All
    restarts are retained because the bound is not a proxy for downstream
    classification quality.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(config.restarts)
    results = fit_restarts(data, hyper, groups, config, seeds)
    return sorted(results, key=lambda r: -r.final_bound)
