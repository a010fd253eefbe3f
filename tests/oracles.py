"""Independent reference implementations used to certify the library.

Nothing here imports from gsnmf's numerical internals: the special-function
oracle runs on mpmath, the evidence oracle on scipy quadrature, the NNLS
oracles on a dense grid and as a one-target loop, the scalar fixed-point
oracle iterates the closed-form update equations directly on floats, and the
heatmap oracle paints one cell at a time.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate

mp.mp.dps = 30


def reference_digamma(x: float) -> float:
    return float(mp.digamma(x))


def reference_log_gamma(x: float) -> float:
    return float(mp.loggamma(x))


def quadrature_log_evidence(
    x: int, a_t: float = 1.0, b_t: float = 1.0, a_l: float = 1.0, b_l: float = 1.0
) -> float:
    """log p(x) for the single-cell model by 2-D quadrature over (t, v).

    The rate indicator is marginalized analytically (gamma-mixed exponential
    = Lomax), leaving a 2-D integral of Poisson(x; t v) times the two
    continuous densities.
    """

    lg_at = math.lgamma(a_t)
    lg_x1 = math.lgamma(x + 1)

    def integrand(t, v):
        coeff_density = a_l * b_l * (1.0 + b_l * v) ** (-(a_l + 1.0))
        dict_density = t ** (a_t - 1.0) * math.exp(-t / b_t) / (math.exp(lg_at) * b_t**a_t)
        mu = t * v
        if mu <= 0.0:
            poisson = 1.0 if x == 0 else 0.0
        else:
            poisson = math.exp(-mu + x * math.log(mu) - lg_x1)
        return poisson * dict_density * coeff_density

    value, _ = integrate.dblquad(integrand, 0.0, np.inf, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10)
    return math.log(value)


def closed_form_log_evidence_unit_priors(x: int) -> float:
    """log p(x) when every prior parameter is 1: p(x) = 1 / ((x+1)(x+2))."""
    return -math.log((x + 1) * (x + 2))


def scalar_fixed_point(
    x: float,
    a_t: float = 1.0,
    b_t: float = 1.0,
    a_l: float = 1.0,
    b_l: float = 1.0,
    e_t: float = 1.0,
    e_v: float = 1.0,
    e_l: float = 1.0,
    sweeps: int = 2000,
) -> tuple[float, float, float]:
    """Iterate the three scalar posterior-mean updates of the 1x1x1 model.

    With a single feature the count allocation is the observation itself,
    so the fixed point couples only the three means.
    """
    for _ in range(sweeps):
        e_t = (a_t + x) / (1.0 / b_t + e_v)
        e_v = (1.0 + x) / (e_l + e_t)
        e_l = (a_l + 1.0) / (1.0 / b_l + e_v)
    return e_t, e_v, e_l


def grid_search_nnls_2d(
    A: np.ndarray, b: np.ndarray, hi: float = 3.5, step: float = 1e-3
) -> np.ndarray:
    """Dense grid minimizer of ||b - A c||^2 over the nonnegative quadrant.

    Evaluates the quadratic form in row chunks to bound memory.
    """
    G = A.T @ A
    w = A.T @ b
    grid = np.arange(0.0, hi + step / 2, step)
    best_val = np.inf
    best = (0.0, 0.0)
    quad2 = G[1, 1] * grid**2 - 2.0 * w[1] * grid
    for start in range(0, grid.size, 256):
        c1 = grid[start : start + 256]
        vals = (
            (G[0, 0] * c1**2 - 2.0 * w[0] * c1)[:, None]
            + quad2[None, :]
            + 2.0 * G[0, 1] * c1[:, None] * grid[None, :]
        )
        k = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[k] < best_val:
            best_val = vals[k]
            best = (c1[k[0]], grid[k[1]])
    return np.array(best)


def column_loop_nnls(A: np.ndarray, b: np.ndarray, max_iter=None):
    """One target at a time: the Gram-form active set as a plain loop.

    The arithmetic of ``gsnmf.projection.nnls`` on a single target, one
    numpy call per step, so a lockstep block solve can be checked against it
    bit for bit: its scaling of each column by a power of two to a largest
    |entry| in [0.5, 1), its KKT threshold, multiplied in the same order,
    10·eps·max(V, I)·max_j ||A[:, j]||_1·||b||_inf, and its warm start where
    the Gram matrix proves that no block can fail. It always runs the
    per-block Cholesky check, so it is the reference for the solves that
    ``nnls`` makes without it once that proof holds. ``iterations`` counts the
    coordinates freed after the warm start. Returns (coefficients, residual
    norm, iterations, optimal). The target is copied to contiguous memory
    first, as ``nnls`` copies its targets.
    """
    b = np.ascontiguousarray(b)
    n = A.shape[1]
    column_exponents = np.frexp(np.abs(A).max(axis=0, initial=0.0))[1]
    unscaled, A = A, np.ldexp(A, -column_exponents)
    max_iter = 3 * n if max_iter is None else max_iter
    G, Atb = A.T @ A, A.T @ b
    column_norm = np.abs(A).sum(axis=0).max(initial=0.0)
    threshold = 10.0 * np.finfo(float).eps * max(A.shape) * column_norm * np.abs(b).max(initial=0.0)

    def solve(free):
        z = np.zeros(n)
        F = np.flatnonzero(free)
        if F.size:
            block = G[F[:, None], F]
            try:
                diagonal = np.linalg.cholesky(block).diagonal().tolist()
                direct = max(diagonal) <= 1e4 * min(diagonal)
            except np.linalg.LinAlgError:
                direct = False
            if direct:
                z[F] = np.linalg.solve(block, Atb[F])
            else:
                z[F] = np.linalg.lstsq(A[:, F], b, rcond=None)[0]
        return z

    # nnls's once-per-call test: no free set's Gram block can fail the check
    # when trace(G_u)·||G_u^-1||_F <= (1e4 / 2)**2 for the nonzero columns' G_u.
    # Then each target starts from the positive entries of G_u^-1 (A^T b)_u,
    # dropping every free coordinate whose solution is <= 0 until none is.
    usable = A.any(axis=0)
    G_u = G[usable][:, usable]
    x, free = np.zeros(n), np.zeros(n, dtype=bool)
    try:
        inverse = np.linalg.inv(G_u)
        with np.errstate(over="ignore", invalid="ignore"):
            proven = np.trace(G_u) * np.linalg.norm(inverse) <= (1e4 / 2) ** 2
    except np.linalg.LinAlgError:
        proven = False
    if proven:
        free[usable] = inverse @ Atb[usable] > 0.0
        x = solve(free)
        while (x[free] <= 0.0).any():
            free &= x > 0.0
            x = solve(free)
    w = Atb - G @ x
    best_x, best_residual = x, float(np.linalg.norm(b - A @ x))
    iterations, optimal = 0, False
    while True:
        candidates = usable & ~free
        if not candidates.any() or w[candidates].max() <= threshold:
            optimal = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        free[np.flatnonzero(candidates)[np.argmax(w[candidates])]] = True
        z = solve(free)
        while (z[free] <= 0.0).any():
            blocking = np.flatnonzero(free & (z <= 0.0))
            gaps = x[blocking] - z[blocking]
            ratios = np.where(gaps > 0.0, x[blocking] / np.where(gaps > 0.0, gaps, 1.0), 0.0)
            step = np.argmin(ratios)
            x = x + ratios[step] * (z - x)
            x[blocking[step]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
            z = solve(free)
        x = z
        residual = float(np.linalg.norm(b - A @ x))
        if residual <= best_residual:
            best_residual, best_x = residual, x.copy()
        w = Atb - G @ x
    if not optimal:
        x = best_x
    x = np.ldexp(x, -column_exponents)
    return x, float(np.linalg.norm(b - unscaled @ x)), iterations, optimal


def random_two_column_instance(rng: np.random.Generator, max_cosine: float = 0.85):
    """A random 2-column problem whose optimum a 1e-3 grid can localize.

    Near-collinear columns leave a flat valley in which the grid argmin can
    sit several steps from the continuous optimum, so those draws are
    rejected: they would measure the oracle's bluntness, not the solver.
    """
    while True:
        A = rng.uniform(0.2, 1.0, size=(int(rng.integers(2, 8)), 2))
        cosine = float(A[:, 0] @ A[:, 1]) / (
            np.linalg.norm(A[:, 0]) * np.linalg.norm(A[:, 1])
        )
        if cosine <= max_cosine:
            break
    c_true = rng.uniform(0.0, 1.5, size=2)
    b = np.abs(A @ c_true + rng.normal(0.0, 0.02, size=A.shape[0]))
    return A, b


def brute_force_cosine_neighbors(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Nearest train column per test column by explicit distance loops."""
    out = np.empty(test.shape[1], dtype=int)
    for m in range(test.shape[1]):
        distances = []
        for n in range(train.shape[1]):
            na = math.sqrt(float(train[:, n] @ train[:, n]))
            nb = math.sqrt(float(test[:, m] @ test[:, m]))
            if na == 0.0 or nb == 0.0:
                distances.append(1.0)
            else:
                distances.append(1.0 - float(train[:, n] @ test[:, m]) / (na * nb))
        out[m] = int(np.argmin(distances))
    return out


def reference_heatmap(matrix: np.ndarray, style: str, cell_px: int) -> np.ndarray:
    """The (cell_px * rows, cell_px * cols) canvas of ``gsnmf.io.export_heatmap``.

    ``magnitude`` repeats each cell's shade over its pixels with ``np.kron``;
    ``hinton`` paints each cell's centered black square in a loop over cells.
    """
    mags = np.maximum(matrix, 0.0)
    top = mags.max()
    scaled = mags / top if top > 0.0 else np.zeros_like(mags)
    rows, cols = matrix.shape
    if style == "magnitude":
        return np.kron(np.rint(255.0 * (1.0 - scaled)), np.ones((cell_px, cell_px)))
    canvas = np.full((rows * cell_px, cols * cell_px), 255.0)
    sides = np.rint(cell_px * np.sqrt(scaled)).astype(int)
    for r in range(rows):
        for c in range(cols):
            s = sides[r, c]
            r0 = r * cell_px + (cell_px - s) // 2
            c0 = c * cell_px + (cell_px - s) // 2
            canvas[r0 : r0 + s, c0 : c0 + s] = 0.0
    return canvas
