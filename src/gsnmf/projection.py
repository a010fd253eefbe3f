"""Nonnegative least squares for mapping held-out samples onto a dictionary.

The solver is the classic active-set method: start with every coefficient
clamped at zero, repeatedly free the most violated constraint, solve the
unconstrained subproblem on the free set, and step back toward feasibility
whenever the subproblem leaves the nonnegative orthant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["NnlsSolution", "nnls", "project_matrix"]


@dataclass(frozen=True)
class NnlsSolution:
    """Outcome of one nonnegative least-squares solve.

    ``optimal`` is False when the iteration cap was hit before the
    Karush-Kuhn-Tucker conditions were met; the coefficients then hold the
    best iterate found.
    """

    coefficients: np.ndarray
    residual_norm: float
    iterations: int
    optimal: bool = True


def _solve_on_support(A: np.ndarray, b: np.ndarray, support: np.ndarray) -> np.ndarray:
    z = np.zeros(A.shape[1])
    if support.any():
        z[support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
    return z


def nnls(
    dictionary,
    target,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> NnlsSolution:
    """Minimize ||target - dictionary @ v||_2 subject to v >= 0.

    ``tol`` bounds the admissible KKT violation of gradient components; the
    iteration cap defaults to 3 times the number of columns. All-zero
    dictionary columns are excluded from the solve (their coefficient is 0)
    and reported with a warning.
    """
    A = np.asarray(dictionary, dtype=float)
    b = np.asarray(target, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("dictionary must be (V, I) and target length V")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    n = A.shape[1]
    if max_iter is None:
        max_iter = 3 * n

    usable = np.linalg.norm(A, axis=0) > 0.0
    if not usable.all():
        warnings.warn(
            f"dropping {int((~usable).sum())} all-zero dictionary column(s)",
            stacklevel=2,
        )

    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    w = A.T @ b
    best_x = x
    best_residual = float(np.linalg.norm(b))
    iterations = 0
    optimal = False
    while True:
        candidates = usable & ~free
        if not candidates.any() or w[candidates].max() <= tol:
            optimal = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        j = np.flatnonzero(candidates)[np.argmax(w[candidates])]
        free[j] = True
        z = _solve_on_support(A, b, free)
        # Feasibility restoration: each pass zeroes at least one free
        # coordinate, so this terminates after at most |free| passes.
        while (z[free] <= 0.0).any():
            blocking = free & (z <= 0.0)
            gaps = x[blocking] - z[blocking]
            ratios = np.where(gaps > 0.0, x[blocking] / np.where(gaps > 0.0, gaps, 1.0), 0.0)
            x = x + ratios.min() * (z - x)
            free &= x > 0.0
            x[~free] = 0.0
            z = _solve_on_support(A, b, free)
        x = z
        residual = float(np.linalg.norm(b - A @ x))
        if residual <= best_residual:
            best_residual = residual
            best_x = x.copy()
        w = A.T @ (b - A @ x)

    if not optimal:
        x = best_x
    residual = float(np.linalg.norm(b - A @ x))
    return NnlsSolution(coefficients=x, residual_norm=residual, iterations=iterations, optimal=optimal)


def project_matrix(dictionary, samples, tol: float = 1e-8) -> np.ndarray:
    """Column-by-column NNLS coefficients of ``samples`` in the dictionary.

    Returns the (I, M) coefficient matrix; columns whose solve hit the
    iteration cap are reported with a single aggregated warning.
    """
    A = np.asarray(dictionary, dtype=float)
    S = np.asarray(samples, dtype=float)
    if S.ndim != 2 or S.shape[0] != A.shape[0]:
        raise ValueError("samples must be (V, M) with V matching the dictionary")
    coeffs = np.empty((A.shape[1], S.shape[1]))
    stuck = []
    with warnings.catch_warnings():
        # nnls warns about zero columns on every column; warned once below.
        warnings.filterwarnings("ignore", r"dropping \d+ all-zero dictionary column")
        zero_cols = int((np.linalg.norm(A, axis=0) == 0.0).sum())
        for m in range(S.shape[1]):
            sol = nnls(A, S[:, m], tol=tol)
            coeffs[:, m] = sol.coefficients
            if not sol.optimal:
                stuck.append(m)
    if zero_cols:
        warnings.warn(f"dictionary has {zero_cols} all-zero column(s)", stacklevel=2)
    if stuck:
        warnings.warn(
            f"nnls hit the iteration cap on {len(stuck)} column(s): {stuck[:10]}",
            stacklevel=2,
        )
    return coeffs
