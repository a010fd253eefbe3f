"""Nonnegative least squares for mapping held-out samples onto a dictionary.

Active set (Lawson and Hanson) in Gram form (Bro and De Jong, J. Chemometrics
11, 1997): free the most violated constraint, solve ``G[F, F] z = (A^T b)[F]``
with ``G = A^T A`` on the free set F, and step back toward feasibility when z
leaves the nonnegative orthant. Target b is optimal once no free gradient entry
exceeds its rounding level, ``_KKT_EPS``·max(V, I)·max_j ||A[:, j]||_1·||b||_inf
(Lawson and Hanson 1974, ch. 23). A Gram block that fails a Cholesky check (it
raises, or its diagonal spans more than ``_MAX_CHOLESKY_RATIO``, a condition
number of about 1e8) is solved by least squares on ``A[:, F]`` instead.

A (V, M) block of targets runs in lockstep (Van Benthem and Keenan, J.
Chemometrics 18, 2004): each outer iteration frees a coordinate in every column
still iterating and solves the free sets of each size with one stacked Cholesky
check and one stacked solve. numpy's stacked matmul, Cholesky and solve make
the same BLAS or LAPACK call per item as on one column; with products taken as
stacks of matrix-vector products and free sets grouped by exact size (never
padded), each column is bitwise its own solve. ``nnls`` forms ``A^T A`` once
per call and solves at most ``_BLOCK_ELEMENTS`` target entries at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["NnlsSolution", "nnls", "project_matrix"]


@dataclass(frozen=True)
class NnlsSolution:
    """Outcome of one nonnegative least-squares solve of a target or a block.

    A (V,) target gives (I,) ``coefficients`` and a float ``residual_norm``, a
    (V, M) block (I, M) and (M,); ``iterations`` sums over columns. ``capped``
    lists the columns that hit the iteration cap before the KKT conditions
    held (they return their last iterate); ``optimal`` is True if none did.
    """

    coefficients: np.ndarray
    residual_norm: float | np.ndarray
    iterations: int
    capped: tuple[int, ...] = ()

    @property
    def optimal(self) -> bool:
        return not self.capped


# Largest ratio between the diagonal entries of a Gram block's Cholesky factor
# for which the block is solved directly; the block's condition number is
# roughly the square of this ratio.
_MAX_CHOLESKY_RATIO = 1e4

# Target entries (V x columns) per nnls block; bounds its (columns, V) temporaries.
_BLOCK_ELEMENTS = 2**15

_KKT_EPS = 10.0 * np.finfo(float).eps  # KKT rounding level per unit of scale (module docstring)

_TOO_LARGE = "too large (or not finite) to solve in float64"


def _matvec(matrix, rows):
    """``matrix @ r`` for each row r, one matrix-vector product per row."""
    return (matrix @ rows[:, :, None])[:, :, 0]


def _norms(rows):
    """Euclidean norm of each row, with the bits of ``np.linalg.norm``."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _well_conditioned(blocks):
    try:
        diagonals = np.linalg.cholesky(blocks).diagonal(axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        # One block that is not positive definite fails the whole stack.
        return np.array([len(blocks) > 1 and _well_conditioned(one[None])[0] for one in blocks])
    return diagonals.max(axis=1) <= _MAX_CHOLESKY_RATIO * diagonals.min(axis=1)


def _solve_free_sets(G, Atb, A, B, free):
    """Row r solves row r's free set and is 0 off it."""
    z = np.zeros(free.shape)
    sizes = free.sum(axis=1)
    for size in sorted(set(sizes.tolist()) - {0}):  # np.unique imports numpy.ma (1.7 MiB)
        rows = np.flatnonzero(sizes == size)
        F = np.nonzero(free[rows])[1].reshape(rows.size, size)
        blocks = G[F[:, :, None], F[:, None, :]]
        direct = _well_conditioned(blocks)
        solved = rows[direct, None]
        rhs = Atb[solved, F[direct]][:, :, None]
        z[solved, F[direct]] = np.linalg.solve(blocks[direct], rhs)[:, :, 0]
        for r, support in zip(rows[~direct], F[~direct]):
            z[r, support] = np.linalg.lstsq(A[:, support], B[r], rcond=None)[0]
    return z


def _active_set(A, B, G, Atb, usable, threshold, max_iter):
    """Coefficients, iteration counts and KKT flags of the targets in ``B``'s rows.

    A row that hits the cap keeps its last iterate: active-set iterates never
    increase the residual (Lawson and Hanson 1974, ch. 23), so it is the best.
    """
    M, n = B.shape[0], A.shape[1]
    x = np.zeros((M, n))
    free = np.zeros((M, n), dtype=bool)
    w = Atb.copy()
    iterations = np.zeros(M, dtype=int)
    optimal = np.zeros(M, dtype=bool)
    live = np.arange(M)
    while True:
        gains = np.where(usable & ~free[live], w[live], -np.inf)
        done = gains.max(axis=1, initial=-np.inf) <= threshold[live]
        optimal[live[done]] = True
        going = ~done & (iterations[live] < max_iter)
        live = live[going]
        if not live.size:
            break
        iterations[live] += 1
        fs, xs, Bs, Atbs = free[live], x[live], B[live], Atb[live]
        fs[np.arange(live.size), np.argmax(gains[going], axis=1)] = True
        z = _solve_free_sets(G, Atbs, A, Bs, fs)
        # Step back: each pass zeroes a free coordinate, so at most |free|
        # passes. The blocking one is zeroed outright: rounding can leave it a
        # hair above zero, and the same free set would be solved forever.
        back = np.flatnonzero((fs & (z <= 0.0)).any(axis=1))
        while back.size:
            xr, zr, fr = xs[back], z[back], fs[back]
            blocking = fr & (zr <= 0.0)
            gaps = xr - zr
            ratios = np.where(blocking, 0.0, np.inf)
            np.divide(xr, gaps, out=ratios, where=blocking & (gaps > 0.0))
            at, step = np.arange(back.size), np.argmin(ratios, axis=1)
            xr = xr + ratios[at, step][:, None] * (zr - xr)
            xr[at, step] = 0.0
            fr &= xr > 0.0
            xr[~fr] = 0.0
            xs[back], fs[back] = xr, fr
            z[back] = zr = _solve_free_sets(G, Atbs[back], A, Bs[back], fr)
            back = back[(fr & (zr <= 0.0)).any(axis=1)]
        x[live], free[live] = z, fs
        w[live] = Atbs - _matvec(G, z)
    return x, iterations, optimal


def nnls(dictionary, target, max_iter: int | None = None) -> NnlsSolution:
    """Minimize ||target - dictionary @ v||_2 subject to v >= 0.

    ``target`` is a (V,) vector or a (V, M) block whose columns are solved
    together, each with exactly the result it gets alone. A column's KKT
    threshold is derived from it and the dictionary (module docstring); its
    iteration cap defaults to 3·I. All-zero dictionary columns, and columns whose
    squared norm underflows, get coefficient 0 and one warning per kind. Raises
    ``ValueError`` when ``A^T A`` is not finite, or naming the first column
    whose ``A^T b`` or norm is not.
    """
    A = np.asarray(dictionary, dtype=float)
    b = np.asarray(target, dtype=float)
    if A.ndim != 2 or b.ndim not in (1, 2) or A.shape[0] != b.shape[0]:
        raise ValueError("dictionary must be (V, I) and target (V,) or (V, M)")
    targets = b if b.ndim == 2 else b[:, None]
    (V, I), M = A.shape, targets.shape[1]
    max_iter = 3 * I if max_iter is None else max_iter
    G = A.T @ A
    if not np.isfinite(G).all():
        raise ValueError(f"dictionary {_TOO_LARGE}")
    usable, zero = np.diag(G) > 0.0, ~A.any(axis=0)
    if zero.any():
        warnings.warn(f"dictionary has {int(zero.sum())} all-zero column(s)", stacklevel=2)
    tiny = np.flatnonzero(~usable & ~zero)
    if tiny.size:
        warnings.warn(f"dictionary has {tiny.size} column(s) too small to use in float64: "
                      f"{tiny.tolist()}", stacklevel=2)
    scale = _KKT_EPS * max(V, I) * np.abs(A).sum(axis=0).max(initial=0.0)

    coefficients, residual = np.empty((I, M)), np.empty(M)
    iterations, capped = 0, []
    width = max(1, _BLOCK_ELEMENTS // max(1, V))
    for start in range(0, M, width):
        block = slice(start, start + width)
        # One contiguous row per target column: BLAS rounds ``A^T b`` differently
        # for strided and contiguous b, and results must not depend on the caller's layout.
        B = np.ascontiguousarray(targets[:, block].T)
        Atb = _matvec(A.T, B)
        finite = np.isfinite(Atb).all(axis=1) & np.isfinite(_norms(B))
        if not finite.all():
            column = start + int(np.argmin(finite))
            raise ValueError(f"sample column {column}: dictionary or target {_TOO_LARGE}")
        threshold = scale * np.abs(B).max(axis=1, initial=0.0)
        x, counts, optimal = _active_set(A, B, G, Atb, usable, threshold, max_iter)
        coefficients[:, block] = x.T
        residual[block] = _norms(B - _matvec(A, x))
        iterations += int(counts.sum())
        capped += (start + np.flatnonzero(~optimal)).tolist()
    solved = (coefficients, residual) if b.ndim == 2 else (coefficients[:, 0], float(residual[0]))
    return NnlsSolution(*solved, iterations, tuple(capped))


def project_matrix(dictionary, samples) -> np.ndarray:
    """Column-by-column NNLS coefficients of ``samples`` in the dictionary.

    Returns the C-contiguous (I, M) coefficients of ``nnls``. Columns that hit
    the iteration cap are reported in one warning; a column that cannot be
    solved in float64 raises ``ValueError`` naming it.
    """
    S = np.asarray(samples, dtype=float)
    if S.ndim != 2 or S.shape[:1] != np.shape(dictionary)[:1]:
        raise ValueError("samples must be (V, M) with V matching the dictionary")
    sol = nnls(dictionary, S)
    if sol.capped:
        warnings.warn(f"nnls hit the iteration cap on {len(sol.capped)} column(s): "
                      f"{list(sol.capped[:10])}", stacklevel=2)
    return sol.coefficients
