"""Mean-field coordinate-ascent learner for the group-sparse count factorization.

One sweep updates, in order: the multinomial count allocations, the gamma
posterior of the dictionary T, the gamma posterior of the coefficients V,
the gamma posterior of the per-group rate indicators, and (latent mode
only) the categorical group responsibilities and their Dirichlet weights.
Each update uses the freshest values of the other factors, so the evidence
lower bound is non-decreasing sweep over sweep.

Restarts that share the prior run as one batch, and every array of a
batch carries a leading restart axis ``(R, ...)``: the state, the data
and the group responsibilities alike. Each restart has its own (V, T)
matrix and its own assignment, as a crossvalidation gives each (run,
fold) cell its own training columns and labels; restarts that share one
matrix read it through a broadcast view, not R copies, and ``Pi`` starts
as a broadcast view of the Dirichlet prior's expected log weights. The
sweep, the reconstruction and the bound use negative axes and
``np.swapaxes(., -1, -2)``, so the same code serves a batch and the
single state (no restart axis) of ``init_state`` and ``update_sweep``.
numpy's stacked matmul makes one BLAS call per restart and every
reduction stays within a restart, so each restart is bitwise the fit of
its own seed, data and groups. Batching removes per-call overhead, which
dominates at toy shapes, but its temporaries outgrow the cache at large
ones. On a 2-vCPU host, batching was 2.7x faster than one restart at a
time at 11.5k data cells (4 restarts, V=40, T=72), 1.1-2x at 60k-100k and
0.76-0.82x at 120k-160k (V=T=200), so a batch spans at most
``_BATCH_ELEMENTS`` cells (R·V·T).

A fit that bounds every sweep of several overlaps the bound of sweep k,
on one helper thread, with sweep k + 1, where the process may run on two
CPUs or more and OpenBLAS's thread count can be lowered: while it does,
OpenBLAS runs one thread fewer, so the bound takes the core its idle
worker would spin on. Both threads only read the state of sweep k, so
every output is bitwise the serial fit's.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from .model import GroupAssignment, Hyperparameters, as_data_matrix
from .numerics import GammaFactor, digamma, dirichlet_expected_log, log_gamma

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
    "restarts_per_batch",
]

# Smallest admissible Poisson-mixing denominator; entries of X over a
# vanished reconstruction would otherwise divide to inf.
_DENOM_FLOOR = 1e-300

# Most data cells (restarts x V x T) that one batch of restarts may span.
_BATCH_ELEMENTS = 100_000

# numpy warnings that the finite checks of the sweep and the bound replace.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


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


@dataclass(frozen=True, eq=False)
class VariationalState:
    """The factorized posterior after a sweep.

    t, v and lam are the gamma posteriors of the (V, I) dictionary, the
    (I, T) coefficients and the (I, C) rate indicators; Sigma_t / Sigma_v
    the count allocations summed over samples / dimensions, Delta the (T, C)
    group responsibilities (exact one-hot rows in observed mode) and Pi the
    expected log mixture weights. In a batch, every array carries a leading
    restart axis.
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

    @cached_property
    def reconstruction(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """exp of the t and v log-means and their product floored at ``_DENOM_FLOOR``.

        The product is the Poisson-mixing denominator. The bound of a state
        and the next sweep from it both read these arrays; whichever asks
        first computes them.
        """
        exp_lt = np.exp(self.t.log_mean)
        exp_lv = np.exp(self.v.log_mean)
        denom = exp_lt @ exp_lv
        return exp_lt, exp_lv, np.maximum(denom, _DENOM_FLOOR, out=denom)


def _take(state: VariationalState, index) -> VariationalState:
    """Restart ``index`` of a batch, without the restart axis."""
    parts = {f.name: getattr(state, f.name) for f in fields(state)}
    return VariationalState(**{
        name: GammaFactor(a.alpha[index], a.beta[index]) if isinstance(a, GammaFactor) else a[index]
        for name, a in parts.items()
    })


def _require(ok: np.ndarray, sweep: int | None, *words: str):
    """Raise ``words`` at the sweep for the first restart not ``ok``, built only then."""
    if not ok.all():
        at = () if sweep is None else (f"at sweep {sweep}",)
        raise NumericalError(" ".join(words + at), restart=int(np.argmin(np.ravel(ok))))


def _check_finite(name: str, arr: np.ndarray, sweep: int | None):
    _require(np.isfinite(arr).all(axis=(-2, -1)), sweep, "non-finite values in", name)


def _start_responsibilities(groups: GroupAssignment, C: int, T: int) -> np.ndarray:
    """(T, C) responsibilities: one-hot (observed) or uniform (latent)."""
    if groups.n_groups != C:
        raise ValueError("group count does not match hyperparameters")
    if groups.observed and groups.z.size != T:
        raise ValueError("group vector length does not match hyperparameters")
    return groups.one_hot() if groups.observed else np.full((T, C), 1.0 / C)


def _init_states(hyper: Hyperparameters, groups, seeds) -> VariationalState:
    """One starting point per seed, stacked on a leading restart axis.

    Each gamma factor starts at its prior shape: the dictionary and the rate
    indicators at their prior scale times uniform [0.5, 1.5] noise, the
    coefficients at shape 1 and that noise over their prior rate, the
    responsibility-weighted prior mean of the rate indicators.
    Responsibilities start one-hot (observed) or uniform (latent), one
    matrix per assignment. Expected log weights come from the Dirichlet
    prior rows, one broadcast view for every restart.
    """
    V, I, C, T = hyper.dims
    delta = np.stack([_start_responsibilities(g, C, T) for g in groups])

    # Each seed draws its noise for t, v and lam in that order, from one
    # generator at a time.
    shapes = ((V, I), (I, T), (I, C))
    u_t, u_v, u_lam = (np.empty((len(seeds),) + shape) for shape in shapes)
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        u_t[j], u_v[j], u_lam[j] = (rng.uniform(0.5, 1.5, size=shape) for shape in shapes)
    t = GammaFactor(np.broadcast_to(hyper.A_t, u_t.shape).copy(), hyper.B_t * u_t)
    prior_rate_v = (hyper.A_lambda * hyper.B_lambda) @ np.swapaxes(delta, -1, -2)
    v = GammaFactor(np.ones(u_v.shape), u_v / prior_rate_v)
    lam = GammaFactor(np.broadcast_to(hyper.A_lambda, u_lam.shape).copy(), hyper.B_lambda * u_lam)

    pi = np.broadcast_to(dirichlet_expected_log(hyper.U), delta.shape)
    return VariationalState(t, v, lam, np.zeros(u_t.shape), np.zeros(u_v.shape), delta, pi)


def init_state(hyper: Hyperparameters, groups: GroupAssignment, seed: int = 0) -> VariationalState:
    """Random starting point of one fit; see ``_init_states``. A prior extreme
    enough to overflow here gives a state that the sweep and the bound reject."""
    with np.errstate(**_QUIET):
        return _take(_init_states(hyper, [groups], [seed]), 0)


def _sweep_constants(X, hyper: Hyperparameters, groups: GroupAssignment, delta: np.ndarray):
    """What every sweep of a fit reads unchanged: the data total of each
    restart, the prior rates 1/B_t and 1/B_lambda and, in observed mode,
    where ``Delta`` never changes, the rate-indicator shape and its digamma
    (else None)."""
    shape = hyper.A_lambda + delta.sum(axis=-2)[..., None, :]
    lam_shape = (shape, digamma(shape)) if groups.observed else None
    return np.sum(X, axis=(-2, -1)), 1.0 / hyper.B_t, 1.0 / hyper.B_lambda, lam_shape


def _sweep(
    state: VariationalState,
    X: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    sweep: int | None,
    total: np.ndarray,
    prior_rate_t: np.ndarray,
    prior_rate_lam: np.ndarray,
    lam_shape: tuple[np.ndarray, np.ndarray] | None,
) -> VariationalState:
    """One full coordinate-ascent sweep of a state or a batch; returns a fresh state.

    ``X`` is the (V, T) matrix of a single state or the (R, V, T) stack of a
    batch, one matrix per restart. Of ``groups`` only the mode (observed or
    latent) is read; the assignment itself sits on ``Delta``. The last four
    arguments come from ``_sweep_constants`` (a None ``lam_shape``: derived here).
    Reconstruction denominators are floored at a tiny positive value, so
    cells of the data with value 0 contribute zero counts. No array of
    ``state`` is written: its bound may run on another thread meanwhile.
    """
    exp_lt, exp_lv, denom = state.reconstruction

    # Count allocation: expected per-feature counts under the current
    # multinomial posterior, contracted over samples resp. dimensions.
    xi = X / denom
    Sigma_v = np.swapaxes(exp_lt, -1, -2) @ xi
    Sigma_v *= exp_lv
    Sigma_t = xi @ np.swapaxes(exp_lv, -1, -2)
    Sigma_t *= exp_lt
    # xi spans (R, V, T); freed here, it no longer adds to the peak of the
    # digamma passes below.
    del xi
    _check_finite("Sigma_v", Sigma_v, sweep)
    _check_finite("Sigma_t", Sigma_t, sweep)
    # A denominator at the floor allocates none of its cell's counts.
    allocated = Sigma_v.sum(axis=(-2, -1))
    _require(abs(allocated - total) <= 1e-10 * total, sweep, "counts not conserved in Sigma_v")

    # Dictionary posterior (uses the pre-sweep coefficient means).
    rate_t = prior_rate_t + state.v.mean.sum(axis=-1)[..., None, :]
    t = GammaFactor(hyper.A_t + Sigma_t, np.divide(1.0, rate_t, out=rate_t))
    _check_finite("E_t", t.mean, sweep)

    # Coefficient posterior (uses the fresh dictionary means and the current
    # responsibility-weighted rate indicators).
    rate_v = state.lam.mean @ np.swapaxes(state.Delta, -1, -2) + t.mean.sum(axis=-2)[..., :, None]
    v = GammaFactor(1.0 + Sigma_v, np.divide(1.0, rate_v, out=rate_v))
    _check_finite("E_v", v.mean, sweep)

    # Rate-indicator posterior (uses the fresh coefficient means).
    alpha, psi = lam_shape or (hyper.A_lambda + state.Delta.sum(axis=-2)[..., None, :], None)
    rate_lam = prior_rate_lam + v.mean @ state.Delta
    lam = GammaFactor(alpha, np.divide(1.0, rate_lam, out=rate_lam), psi)
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


def update_sweep(state, data, hyper, groups, sweep=None) -> VariationalState:
    """One coordinate-ascent sweep of a single state; returns a fresh state.

    The fit loop sweeps its batches of restarts through the same ``_sweep``,
    with the constants of ``_sweep_constants`` derived once per fit.
    """
    with np.errstate(**_QUIET):  # the finite checks name what fails
        fixed = _sweep_constants(data, hyper, groups, state.Delta)
        return _sweep(state, data, hyper, groups, sweep, *fixed)


def _bound_constants(data, hyper: Hyperparameters, groups: GroupAssignment) -> float | np.ndarray:
    """The bound's terms that never change across sweeps, as one offset.

    -sum(log-gamma(X + 1)) of the data, the gamma prior normalizers
    -sum(A log B + log-gamma(A)) of T and of the rate indicators and, in
    latent mode, the Dirichlet prior normalizer: an (R,) array for a batch's
    (R, V, T) stack, a float for a single (V, T) matrix.
    """
    offset = -np.sum(log_gamma(data + 1.0), axis=(-2, -1))
    for shape, scale in ((hyper.A_t, hyper.B_t), (hyper.A_lambda, hyper.B_lambda)):
        offset = offset - np.sum(shape * np.log(scale) + log_gamma(shape))
    if not groups.observed:
        offset = offset + np.sum(log_gamma(hyper.U.sum(axis=1))) - np.sum(log_gamma(hyper.U))
    return offset


def _gamma_terms(q: GammaFactor, expected_log_prior: np.ndarray) -> np.ndarray:
    """Expected log prior (less its constant normalizer; a fresh array of the
    factor's shape, which is written) plus entropy of a gamma factor."""
    expected_log_prior += q.entropy()
    return np.sum(expected_log_prior, axis=(-2, -1))


def variational_bound(
    state: VariationalState,
    data: np.ndarray,
    hyper: Hyperparameters,
    groups: GroupAssignment,
    sweep: int | None = None,
    constants: float | np.ndarray | None = None,
):
    """Evidence lower bound of the current factorized posterior.

    A float for a single state, an (R,) array for a batch of restarts. The
    count-allocation factor is refreshed from the current log-means, so
    consecutive post-sweep evaluations sit at the same point of the update
    cycle and the returned trace is non-decreasing. ``constants`` may carry
    the offset of ``_bound_constants``; the per-sweep terms are checked one
    by one under the names that errors give them. In latent mode q(pi) is
    Dir(U + Delta), so the terms in E[log pi] cancel and ``Pi`` is not read.
    ``sweep`` only names the sweep in errors.
    """
    cells = (-2, -1)
    t, v, lam = state.t, state.v, state.lam
    delta_t = np.swapaxes(state.Delta, -1, -2)
    with np.errstate(**_QUIET):  # the finite checks below name the failing terms
        log_denom = np.log(state.reconstruction[2])
        log_denom *= data
        terms = {
            "constant": _bound_constants(data, hyper, groups) if constants is None else constants,
            "mixing": np.sum(log_denom, axis=cells)
            - (t.mean.sum(axis=-2)[..., None, :] @ v.mean.sum(axis=-1)[..., :, None])[..., 0, 0],
            "dictionary": _gamma_terms(t, (hyper.A_t - 1.0) * t.log_mean - t.mean / hyper.B_t),
            "coefficient": _gamma_terms(v, lam.log_mean @ delta_t - (lam.mean @ delta_t) * v.mean),
            "rate-indicator": _gamma_terms(
                lam, (hyper.A_lambda - 1.0) * lam.log_mean - lam.mean / hyper.B_lambda
            ),
        }
        if not groups.observed:
            delta = state.Delta
            Y = hyper.U + delta
            plogp = np.where(delta > 0.0, delta * np.log(np.maximum(delta, _DENOM_FLOOR)), 0.0)
            terms["group"] = (np.sum(log_gamma(Y) - plogp, axis=cells)
                              - np.sum(log_gamma(Y.sum(-1)), -1))
    total = 0.0
    for name, value in terms.items():
        _require(np.isfinite(value), sweep, "non-finite bound contribution from the", name, "terms")
        total = total + value
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


@cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS numpy has loaded, or None.

    Found through ``/proc/self/maps``, so it serves numpy's bundled library
    and a system one alike, and never loads a library. It sets the thread
    count of the whole process and returns the previous count.
    """
    try:
        with open("/proc/self/maps") as maps:
            mapped = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            setter = library.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


# Overlapped fits running in this process, and the OpenBLAS thread count
# that the first of them lowered and the last restores.
_BLAS_LOCK = threading.Lock()
_blas_fits = 0
_blas_threads = 1


@contextlib.contextmanager
def _bound_helper(config: FitConfig):
    """A one-thread executor for the bounds of a fit that overlaps them, else None.

    A fit overlaps when it bounds every sweep of several, the process may
    run on two CPUs or more, and OpenBLAS's thread count can be lowered.
    While any overlapped fit runs, OpenBLAS runs one thread fewer (at
    least 1), which makes room for the helper.
    """
    global _blas_fits, _blas_threads
    wanted = config.compute_bound_every == 1 and config.max_sweeps > 1
    cpus = len(os.sched_getaffinity(0)) if wanted and hasattr(os, "sched_getaffinity") else 1
    setter = _blas_thread_setter() if cpus > 1 else None
    if setter is None:
        yield None
        return
    # Imported here: importing gsnmf loads no more than it needs.
    from concurrent.futures import ThreadPoolExecutor

    with _BLAS_LOCK:
        if _blas_fits == 0:
            # The setter is the only way to read the count: it returns the last one.
            _blas_threads = setter(1)
            setter(max(1, _blas_threads - 1))
        _blas_fits += 1
    try:
        with ThreadPoolExecutor(1, thread_name_prefix="gsnmf-bound") as helper:
            yield helper
    finally:
        with _BLAS_LOCK:
            _blas_fits -= 1
            if _blas_fits == 0:
                setter(_blas_threads)


def _fit_batch(X, hyper, groups, config: FitConfig, seeds) -> list[FitResult]:
    """Sweep one batch of restarts together for ``config.max_sweeps`` sweeps.

    ``X`` is the (R, V, T) stack of the restarts' data and ``groups`` their
    assignments, all observed or all latent. Given a ``_bound_helper``, the
    bound of sweep k runs on it while sweep k + 1 runs here; bounds are
    recorded in sweep order, and a failed bound raises before a failure of
    the sweep it overlapped.
    """
    # The sweep and the bound read only the mode; assignments sit on Delta.
    mode = groups[0]
    with np.errstate(**_QUIET):  # the sweep and bound checks catch a non-finite set-up
        offset = _bound_constants(X, hyper, mode)
        state = _init_states(hyper, groups, seeds)
        fixed = _sweep_constants(X, hyper, mode, state.Delta)
    traces: list[list[tuple[int, float]]] = [[] for _ in seeds]

    def bound(state, sweep):
        bounds = variational_bound(state, X, hyper, mode, sweep, constants=offset)
        for trace, value in zip(traces, bounds):
            trace.append((sweep, float(value)))

    in_flight = None
    with _bound_helper(config) as helper, np.errstate(**_QUIET):
        for sweep in range(1, config.max_sweeps + 1):
            try:
                state = _sweep(state, X, hyper, mode, sweep, *fixed)
            finally:
                # Runs after a failed sweep too, so a failed bound in flight
                # is the error raised.
                if in_flight is not None:
                    in_flight.result()
                    in_flight = None
            if sweep % config.compute_bound_every and sweep != config.max_sweeps:
                continue
            if helper is None or sweep == config.max_sweeps:
                bound(state, sweep)
            else:
                state.reconstruction  # derived here, where the next sweep reads it too
                in_flight = helper.submit(bound, state, sweep)
    return [FitResult(_take(state, j), traces[j], seed) for j, seed in enumerate(seeds)]


def restarts_per_batch(n_rows: int, n_samples: int) -> int:
    """How many restarts on (n_rows, n_samples) data one batch sweeps together."""
    return max(1, _BATCH_ELEMENTS // (n_rows * n_samples))


def fit_restarts(data, hyper, groups, config: FitConfig, seeds) -> list[FitResult]:
    """One fit per seed, in seed order, swept together in batches.

    ``data`` is one (V, T) matrix shared by every seed, or one per seed: an
    (R, V, T) array or a sequence of R matrices, in which one matrix object
    may serve several seeds. ``groups`` is one ``GroupAssignment`` or a
    sequence of one per seed, all observed or all latent. Both forms become
    one matrix and one assignment per seed, and each batch an (R, V, T)
    stack: a broadcast view when all its restarts share one matrix object.
    Every restart runs ``max_sweeps`` sweeps. The bound is recorded every
    ``compute_bound_every`` sweeps and always at the final sweep, so every
    trace has the same sweep indices. Each result is bitwise the ``fit``
    with its seed, data and groups; ``config.seed`` and ``config.restarts``
    are not read. A ``NumericalError`` names the index of the failing seed.
    """
    seeds = [int(s) for s in seeds]
    V, I, C, T = hyper.dims
    per_seed = len(data) > 0 and np.ndim(data[0]) == 2
    matrices = [as_data_matrix(x) for x in data] if per_seed else [as_data_matrix(data)]
    for x in matrices:
        if x.shape != (V, T):
            raise ValueError(f"data shape {x.shape} does not match hyperparameters {(V, T)}")
    if not per_seed:
        matrices *= len(seeds)
    if isinstance(groups, GroupAssignment):
        groups = [groups] * len(seeds)
    for what, given in (("data matrices", matrices), ("group assignments", groups)):
        if len(given) != len(seeds):
            raise ValueError(f"{len(given)} {what} for {len(seeds)} seeds")
    if len({g.observed for g in groups}) > 1:
        raise ValueError("per-seed groups must be all observed or all latent")
    size = restarts_per_batch(V, T)
    results: list[FitResult] = []
    for first in range(0, len(seeds), size):
        batch = slice(first, first + size)
        X = matrices[batch]
        if all(x is X[0] for x in X):
            X = np.broadcast_to(X[0], (len(X), V, T))
        else:
            X = np.stack(X)
        try:
            results += _fit_batch(X, hyper, groups[batch], config, seeds[batch])
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
