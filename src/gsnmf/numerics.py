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

from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "GammaFactor",
    "dirichlet_expected_log",
]

# Entries below _SHIFT are moved up by exactly _SHIFT recurrence steps, so
# the asymptotic tails below only ever see arguments >= 8. The steps are
# floats: numpy adds a Python int to an array about twice as slowly.
_SHIFT = 8.0
_STEPS = (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0)
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
    # min and max propagate NaN, which fails both comparisons.
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise ValueError(f"{name} requires finite inputs > 0")
    return arr, arr.ndim == 0


def _small_entries(x, name: str):
    """x as an array, its flat view, and the indices and values of its entries below 8."""
    arr, _ = _as_positive_array(x, name)
    flat = arr.ravel()
    small = (flat < _SHIFT).nonzero()[0]
    return arr, flat, small, flat[small]


def _tail(flat, small, x_small, coeffs):
    """Shift the small entries up by exactly 8 (``x_small`` in place); return the
    shifted flat copy z, 1/z, r = 1/z^2 and the Horner sum of ``coeffs`` in
    powers of r. Squaring 1/z (not z) keeps huge arguments free of overflow."""
    z = flat.copy()
    z[small] = np.add(x_small, _SHIFT, out=x_small)
    inv = 1.0 / z
    r = inv * inv
    tail = coeffs[-1] * r
    for coeff in reversed(coeffs[1:-1]):
        tail += coeff
        tail *= r
    tail += coeffs[0]
    return z, inv, r, tail


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Accepts scalars or arrays; raises ValueError off the domain.
    """
    arr, flat, small, x_small = _small_entries(x, "log_gamma")
    # log Gamma(x) = log Gamma(x + 8) - log(x (x + 1) ... (x + 7)), the
    # product taken from x + 7 down to x, one row of n entries at a time.
    prod = x_small + _STEPS[0]
    for k in _STEPS[1:]:
        prod *= x_small + k
    z, inv, _, tail = _tail(flat, small, x_small, _LOG_GAMMA_TAIL)
    tail *= inv
    out = z - 0.5
    out *= np.log(z, out=inv)
    out -= z
    out += _HALF_LOG_TWO_PI
    out += tail
    out[small] -= np.log(prod, out=prod)
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    arr, flat, small, x_small = _small_entries(x, "digamma")
    # psi(x) = psi(x + 8) - (1/(x + 7) + ... + 1/x), in that order: the dominant 1/x
    # enters last, and an entry's result does not depend on what else is in the array.
    total = 1.0 / (x_small + _STEPS[0])
    for k in _STEPS[1:]:
        total += 1.0 / (x_small + k)
    z, inv, r, tail = _tail(flat, small, x_small, _DIGAMMA_TAIL)
    tail *= r
    out = np.log(z, out=z)
    inv *= 0.5
    out -= inv
    out -= tail
    out[small] -= total
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class GammaFactor:
    """Gamma(shape alpha, scale beta) posterior of one factor block.

    ``mean`` = alpha*beta and ``log_mean`` = E[log] = digamma(alpha) + log beta
    are computed once, when the factor is built; ``log_mean`` is strictly
    below log(mean) (Jensen). Only ``alpha`` is checked (by ``digamma``): a
    non-finite scale passes through to the derived values. The third
    argument is internal: digamma(alpha), from a caller that computed it
    once for many factors; it is read, never written.
    """

    alpha: np.ndarray
    beta: np.ndarray
    _digamma_alpha: InitVar[np.ndarray | None] = None
    mean: np.ndarray = field(init=False, repr=False)
    log_mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, _digamma_alpha):
        fresh = _digamma_alpha is None
        psi = digamma(self.alpha) if fresh else _digamma_alpha
        log_beta = np.log(self.beta)
        # Add into digamma's own output only where it has the full shape.
        into = fresh and isinstance(psi, np.ndarray) and psi.shape == np.shape(log_beta)
        object.__setattr__(self, "mean", self.alpha * self.beta)
        object.__setattr__(self, "log_mean", np.add(psi, log_beta, out=psi if into else None))

    def entropy(self):
        """Elementwise entropy -(a-1) E[log] + a log beta + a + log-gamma(a)."""
        a = self.alpha
        h = -(a - 1.0) * self.log_mean  # has the full broadcast shape
        h += a * np.log(self.beta)
        h += a
        h += log_gamma(a)
        return h


def dirichlet_expected_log(u):
    """Expected log of a Dirichlet(u) variable: digamma(u_c) - digamma(sum u).

    Reduces over the last axis, so a (T, C) array gives one row per Dirichlet.
    """
    u_arr, scalar = _as_positive_array(u, "dirichlet parameter")
    if scalar:
        raise ValueError("expected a parameter vector or rows of them")
    return digamma(u_arr) - digamma(u_arr.sum(axis=-1, keepdims=True))
