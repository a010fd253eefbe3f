"""Special functions, the gamma posterior factor and the Dirichlet expectation.

Everything here is pure (functions of their arguments and one immutable
value class): no sampling, safe to call from any thread. ``digamma`` and
``log_gamma`` are implemented natively so the test suite can certify them
against a slow high-precision oracle: every argument below 8 is shifted
up by exactly 8 recurrence steps (one sum of 8 reciprocals, or one log of
a product of 8 factors, over only the shifted entries, as in Bernardo's
psi algorithm, AS 103, 1976), then the asymptotic tail is evaluated at the
shifted argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "GammaFactor",
    "dirichlet_expected_log",
]

# Entries below _SHIFT are moved up by exactly _SHIFT recurrence steps, so
# the asymptotic tails below only ever see arguments >= 8.
_SHIFT = 8
_SHIFT_STEPS = np.arange(_SHIFT - 1.0, -1.0, -1.0)[:, None]
_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)

# B_{2n} / (2n (2n-1)) for the Stirling tail of log-gamma, n = 1..7.
_LOG_GAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2n} / (2n) for the asymptotic tail of digamma, n = 1..7.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _as_positive_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite inputs > 0")
    return arr, scalar


def _shift_small(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raise every entry of the flat array z below the cutoff by exactly 8.

    Returns the shifted copy, the indices of the shifted entries and their
    (8, n_small) block of recurrence arguments z + k, k = 7..0. Entries at
    or above the cutoff take no part in the block.
    """
    small = np.flatnonzero(z < _SHIFT)
    block = z[small] + _SHIFT_STEPS
    shifted = z.copy()
    shifted[small] += _SHIFT
    return shifted, small, block


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Accepts scalars or arrays; raises ValueError off the domain.
    """
    arr, scalar = _as_positive_array(x, "log_gamma")
    z, small, block = _shift_small(arr.ravel())
    # Horner evaluation of the Stirling tail in powers of 1/z^2, times 1/z.
    # Squaring 1/z (not z) keeps huge arguments free of overflow.
    inv = 1.0 / z
    r = inv * inv
    tail = _LOG_GAMMA_TAIL[-1] * r
    for coeff in reversed(_LOG_GAMMA_TAIL[1:-1]):
        tail += coeff
        tail *= r
    tail += _LOG_GAMMA_TAIL[0]
    tail *= inv
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_TWO_PI + tail
    # log Gamma(x) = log Gamma(x + 8) - log(x (x + 1) ... (x + 7)).
    out[small] -= np.log(np.prod(block, axis=0))
    out = out.reshape(arr.shape)
    return float(out) if scalar else out


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    arr, scalar = _as_positive_array(x, "digamma")
    z, small, block = _shift_small(arr.ravel())
    inv = 1.0 / z
    r = inv * inv
    tail = _DIGAMMA_TAIL[-1] * r
    for coeff in reversed(_DIGAMMA_TAIL[1:-1]):
        tail += coeff
        tail *= r
    tail += _DIGAMMA_TAIL[0]
    tail *= r
    out = np.log(z) - 0.5 * inv - tail
    # psi(x) = psi(x + 8) - (1/x + 1/(x + 1) + ... + 1/(x + 7)); the
    # dominant 1/x sits in the last row, so it enters the sum last. numpy
    # sums the rows of an (8, n) block one by one, but the 8 terms of a lone
    # entry pairwise; accumulate those one by one too, so an entry's result
    # does not depend on what else is in the array.
    recip = np.reciprocal(block)
    out[small] -= np.add.accumulate(recip)[-1] if small.size == 1 else recip.sum(axis=0)
    out = out.reshape(arr.shape)
    return float(out) if scalar else out


@dataclass(frozen=True, eq=False)
class GammaFactor:
    """Gamma(shape alpha, scale beta) posterior of one factor block.

    ``mean`` = alpha*beta and ``log_mean`` = E[log] = digamma(alpha) + log beta
    are computed once, when the factor is built; ``log_mean`` is strictly
    below log(mean) (Jensen). Only ``alpha`` is checked (by ``digamma``): a
    non-finite scale passes through to the derived values.
    """

    alpha: np.ndarray
    beta: np.ndarray
    mean: np.ndarray = field(init=False, repr=False)
    log_mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", self.alpha * self.beta)
        object.__setattr__(self, "log_mean", digamma(self.alpha) + np.log(self.beta))

    def entropy(self):
        """Elementwise entropy -(a-1) E[log] + a log beta + a + log-gamma(a)."""
        a = self.alpha
        return -(a - 1.0) * self.log_mean + a * np.log(self.beta) + a + log_gamma(a)


def dirichlet_expected_log(u):
    """Expected log of a Dirichlet(u) variable: digamma(u_c) - digamma(sum u).

    Reduces over the last axis, so a (T, C) array gives one row per Dirichlet.
    """
    u_arr, scalar = _as_positive_array(u, "dirichlet parameter")
    if scalar:
        raise ValueError("expected a parameter vector or rows of them")
    return digamma(u_arr) - digamma(u_arr.sum(axis=-1, keepdims=True))
