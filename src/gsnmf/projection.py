"""Nonnegative least squares for mapping held-out samples onto a dictionary.

The solver is the classic active-set method (Lawson and Hanson): start with
every coefficient clamped at zero, repeatedly free the most violated
constraint, solve the unconstrained subproblem on the free set, and step back
toward feasibility whenever the subproblem leaves the nonnegative orthant.

It works in Gram form (Bro and De Jong, "A fast non-negativity-constrained
least squares algorithm", J. Chemometrics 11, 1997): each call forms
``G = A^T A`` and ``A^T b`` once, every free-set subproblem is the small
system ``G[F, F] z = (A^T b)[F]`` and the gradient is ``A^T b - G x``. The
normal equations square the condition number, so a free set whose Gram block
fails a Cholesky check (the factorization raises, or its diagonal spans more
than ``_MAX_CHOLESKY_RATIO``, a block condition number of about 1e8) is
solved by least squares on ``A[:, F]`` instead. Residual norms are always
computed from ``A`` and ``b``.
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


# Largest ratio between the diagonal entries of a Gram block's Cholesky factor
# for which the block is solved directly; the block's condition number is
# roughly the square of this ratio.
_MAX_CHOLESKY_RATIO = 1e4


def _solve_on_support(
    G: np.ndarray, Atb: np.ndarray, A: np.ndarray, b: np.ndarray, support: np.ndarray
) -> np.ndarray:
    z = np.zeros(G.shape[0])
    F = np.flatnonzero(support)
    if F.size == 0:
        return z
    block = G[F[:, None], F]
    try:
        # Python floats: at a few columns numpy's reductions cost more than
        # the factorization.
        diagonal = np.linalg.cholesky(block).diagonal().tolist()
        well_conditioned = max(diagonal) <= _MAX_CHOLESKY_RATIO * min(diagonal)
    except np.linalg.LinAlgError:
        well_conditioned = False
    if well_conditioned:
        z[F] = np.linalg.solve(block, Atb[F])
    else:
        z[F] = np.linalg.lstsq(A[:, F], b, rcond=None)[0]
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
    and reported with a warning. Raises ``ValueError`` when ``A^T A``,
    ``A^T b`` or the target's norm is not finite in float64.
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

    G = A.T @ A
    Atb = A.T @ b
    target_norm = float(np.linalg.norm(b))
    if not (np.isfinite(G).all() and np.isfinite(Atb).all() and np.isfinite(target_norm)):
        raise ValueError("dictionary or target too large (or not finite) to solve in float64")

    usable = np.diag(G) > 0.0
    if not usable.all():
        warnings.warn(
            f"dropping {int((~usable).sum())} all-zero dictionary column(s)",
            stacklevel=2,
        )

    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    w = Atb
    best_x = x
    best_residual = target_norm
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
        z = _solve_on_support(G, Atb, A, b, free)
        # Feasibility restoration: each pass zeroes at least one free
        # coordinate, so this terminates after at most |free| passes. The
        # coordinate that blocks the step is set to zero outright: rounding
        # can leave it a hair above zero, and the same free set would then
        # be solved again forever.
        while (z[free] <= 0.0).any():
            blocking = np.flatnonzero(free & (z <= 0.0))
            gaps = x[blocking] - z[blocking]
            ratios = np.where(gaps > 0.0, x[blocking] / np.where(gaps > 0.0, gaps, 1.0), 0.0)
            step = np.argmin(ratios)
            x = x + ratios[step] * (z - x)
            x[blocking[step]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
            z = _solve_on_support(G, Atb, A, b, free)
        x = z
        residual = float(np.linalg.norm(b - A @ x))
        if residual <= best_residual:
            best_residual = residual
            best_x = x.copy()
        w = Atb - G @ x

    if not optimal:
        x = best_x
    residual = float(np.linalg.norm(b - A @ x))
    return NnlsSolution(coefficients=x, residual_norm=residual, iterations=iterations, optimal=optimal)


def project_matrix(dictionary, samples, tol: float = 1e-8) -> np.ndarray:
    """Column-by-column NNLS coefficients of ``samples`` in the dictionary.

    Returns the (I, M) coefficient matrix; columns whose solve hit the
    iteration cap are reported with a single aggregated warning. A column
    that cannot be solved in float64 raises ``ValueError`` naming it.
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
            try:
                sol = nnls(A, S[:, m], tol=tol)
            except ValueError as exc:
                raise ValueError(f"sample column {m}: {exc}") from exc
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
