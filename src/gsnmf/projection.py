"""Nonnegative least squares for mapping held-out samples onto a dictionary.

Active set (Lawson and Hanson) in Gram form (Bro and De Jong, J. Chemometrics
11, 1997): free the most violated constraint, solve ``G[F, F] z = (A^T b)[F]``
with ``G = A^T A`` on the free set F, and step back toward feasibility when z
leaves the nonnegative orthant. Target b is optimal once no free gradient entry
exceeds its rounding level, ``_KKT_EPS``·max(V, I)·max_j ||A[:, j]||_1·||b||_inf
(Lawson and Hanson 1974, ch. 23). A Gram block that fails a Cholesky check (it
raises, or its diagonal spans more than ``_MAX_CHOLESKY_RATIO``, a condition
number of about 1e8) is solved by least squares on ``A[:, F]`` instead.

Each ``nnls`` call first tests, once, whether any block can fail that check.
Every principal block of ``G_u``, the Gram matrix of the usable columns, has
its eigenvalues between the extreme eigenvalues of ``G_u`` (Cauchy interlacing),
and so have the squares of its Cholesky diagonal. So the diagonal ratio of any
block is at most sqrt(cond(G_u)) <= sqrt(trace(G_u)·||G_u^-1||_F). When that
bound is at most half of ``_MAX_CHOLESKY_RATIO`` (the half absorbs rounding),
no block can fail, and the per-block check is skipped: every block is solved
directly, as the check would have let it be.

Where no block can fail, each column also starts warm, as FCNNLS does (Van
Benthem and Keenan, below): its free set is {j : (G_u^-1 (A^T b)_u)_j > 0},
from the inverse that the test formed. The free sets are solved, every
coordinate with z <= 0 is dropped, and they are solved again until z_F > 0;
each round drops a coordinate, so there are at most I rounds. x = z is then a
valid Lawson-Hanson state, from which the active set runs unchanged. Otherwise
every column starts from an empty free set. Iteration counts and caps count
only the coordinates freed after that start.

A (V, M) block of targets runs in lockstep (Van Benthem and Keenan, J.
Chemometrics 18, 2004): each outer iteration frees a coordinate in every column
still iterating and solves the free sets of each size with one stacked
Cholesky check, unless it is skipped, and one stacked solve. numpy's stacked
matmul, Cholesky and solve make the same BLAS or LAPACK call per item as on one
column; with products taken as stacks of matrix-vector products and free sets
grouped by exact size (never padded), each column is bitwise its own solve.
``nnls`` forms ``A^T A`` once per call and runs the active set over all its
columns at once; ``_BLOCK_ELEMENTS`` bounds only the (columns, V) copies for
``A^T b`` and the thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["NnlsSolution", "nnls", "project_matrix"]


@dataclass(frozen=True)
class NnlsSolution:
    """Outcome of one nonnegative least-squares solve of a target or a block.

    A (V,) target gives (I,) ``coefficients``, a (V, M) block (I, M);
    ``iterations`` sums over columns the coordinates freed after each column's
    start (module docstring). ``capped`` lists the columns that hit the
    iteration cap before the KKT conditions held (they return their last
    iterate); ``optimal`` is True if none did. The solution holds no reference
    to the arrays passed to ``nnls``.
    """

    coefficients: np.ndarray
    iterations: int
    capped: tuple[int, ...]

    @property
    def optimal(self) -> bool:
        return not self.capped


# Largest ratio between the diagonal entries of a Gram block's Cholesky factor
# for which the block is solved directly; the block's condition number is
# roughly the square of this ratio.
_MAX_CHOLESKY_RATIO = 1e4

# Target entries (V x columns) per (columns, V) copy for A^T b and thresholds.
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


def _inverse_if_no_block_can_fail(gram):
    """``gram^-1`` if sqrt(trace(gram)·||gram^-1||_F) <= ``_MAX_CHOLESKY_RATIO`` / 2
    (module docstring), else None."""
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the test, silently
        bound = np.trace(gram) * np.linalg.norm(inverse)
    return inverse if bound <= (_MAX_CHOLESKY_RATIO / 2) ** 2 else None


def _solve_free_sets(G, Atb, A, targets, columns, free, check_blocks):
    """Row r solves row r's free set, for target column ``columns[r]``, and is 0 off it."""
    z = np.zeros(free.shape)
    sizes = free.sum(axis=1)
    for size in sorted(set(sizes.tolist()) - {0}):  # np.unique imports numpy.ma (1.7 MiB)
        rows = np.flatnonzero(sizes == size)
        F = np.nonzero(free[rows])[1].reshape(rows.size, size)
        blocks = G[F[:, :, None], F[:, None, :]]
        direct = slice(None)  # views, not boolean-mask copies
        if check_blocks:
            direct = _well_conditioned(blocks)
            for r, support in zip(rows[~direct], F[~direct]):
                b = targets[:, columns[r]]
                z[r, support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
        solved = rows[direct, None]
        rhs = Atb[solved, F[direct]][:, :, None]
        z[solved, F[direct]] = np.linalg.solve(blocks[direct], rhs)[:, :, 0]
    return z


def _active_set(A, targets, G, Atb, usable, threshold, max_iter):
    """Coefficients, iteration counts and KKT flags of the (V, M) ``targets``' columns.

    A row that hits the cap keeps its last iterate: active-set iterates never
    increase the residual (Lawson and Hanson 1974, ch. 23), so it is the best.
    """
    M, n = Atb.shape
    x = np.zeros((M, n))
    free = np.zeros((M, n), dtype=bool)
    iterations = np.zeros(M, dtype=int)
    optimal = np.zeros(M, dtype=bool)
    live = np.arange(M)
    inverse = _inverse_if_no_block_can_fail(G[usable][:, usable])
    check_blocks = inverse is None
    if not check_blocks:
        # Warm start (module docstring); at most I rounds.
        free[:, usable] = _matvec(inverse, Atb[:, usable]) > 0.0
        rows = live
        while rows.size:
            x[rows] = _solve_free_sets(G, Atb[rows], A, targets, rows, free[rows], False)
            rows = rows[(free[rows] & (x[rows] <= 0.0)).any(axis=1)]
            free[rows] &= x[rows] > 0.0
    w = Atb - _matvec(G, x)
    while True:
        gains = np.where(usable & ~free[live], w[live], -np.inf)
        done = gains.max(axis=1, initial=-np.inf) <= threshold[live]
        optimal[live[done]] = True
        going = ~done & (iterations[live] < max_iter)
        live = live[going]
        if not live.size:
            break
        iterations[live] += 1
        fs, xs, Atbs = free[live], x[live], Atb[live]
        fs[np.arange(live.size), np.argmax(gains[going], axis=1)] = True
        z = _solve_free_sets(G, Atbs, A, targets, live, fs, check_blocks)
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
            z[back] = zr = _solve_free_sets(G, Atbs[back], A, targets, live[back], fr, check_blocks)
            back = back[(fr & (zr <= 0.0)).any(axis=1)]
        x[live], free[live] = z, fs
        w[live] = Atbs - _matvec(G, z)
    return x, iterations, optimal


def nnls(dictionary, target, max_iter: int | None = None) -> NnlsSolution:
    """Minimize ||target - dictionary @ v||_2 subject to v >= 0.

    ``target`` is a (V,) vector or a (V, M) block whose columns are solved
    together, each with exactly the result it gets alone. A column's KKT
    threshold is derived from it and the dictionary (module docstring). Where
    the usable columns' Gram matrix proves that no block can fail the Cholesky
    check, a column starts warm from the positive entries of its unconstrained
    solution, pruned in at most I rounds; else from an empty free set.
    ``max_iter`` (default 3·I) caps, per column, the coordinates freed after
    that start, which is what ``iterations`` counts. All-zero dictionary
    columns, and columns whose squared norm underflows, get coefficient 0 and
    one warning per kind. Raises ``ValueError`` when ``A^T A`` is not finite,
    or naming the first column whose ``A^T b`` or norm is not.
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

    Atb, threshold = np.empty((M, I)), np.empty(M)
    width = max(1, _BLOCK_ELEMENTS // max(1, V))
    for start in range(0, M, width):
        block = slice(start, start + width)
        # One contiguous row per target column: BLAS rounds ``A^T b`` differently
        # for strided and contiguous b, and results must not depend on the caller's layout.
        B = np.ascontiguousarray(targets[:, block].T)
        Atb[block] = _matvec(A.T, B)
        finite = np.isfinite(Atb[block]).all(axis=1) & np.isfinite(_norms(B))
        if not finite.all():
            column = block.start + int(np.argmin(finite))
            raise ValueError(f"sample column {column}: dictionary or target {_TOO_LARGE}")
        threshold[block] = scale * np.abs(B).max(axis=1, initial=0.0)
    x, counts, optimal = _active_set(A, targets, G, Atb, usable, threshold, max_iter)
    coefficients = np.ascontiguousarray(x.T) if b.ndim == 2 else x[0]
    return NnlsSolution(coefficients, int(counts.sum()), tuple(np.flatnonzero(~optimal).tolist()))


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
