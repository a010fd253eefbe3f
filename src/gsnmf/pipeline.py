"""Supervised evaluation protocol: crossvalidated 1-NN classification in the
learned coefficient space, parameter sweeps, and per-label prevalence
diagnostics.

Each fold's prior comes from ``PriorSettings.hyperparameters`` on the
training columns, and the training labels double as the groups of the
sparsity prior (identity map; one group for the label-blind baseline). The
classifier itself never sees the prior. Train-time features are the
posterior coefficient means of the fitted model, test-time features are
nonnegative least-squares projections onto the fitted dictionary. The
protocol's unit of work is ``_score``: it fits, projects and classifies
one engine batch of (run, fold, restart) cells from ``_batches``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import FitConfig, NumericalError, fit_restarts, restarts_per_batch
from .model import GroupAssignment, PriorSettings, as_data_matrix
from .projection import project_matrix

__all__ = [
    "LabeledDataset",
    "CvConfig",
    "AccuracyReport",
    "PriorSettings",
    "knn_cosine_classify",
    "stratified_folds",
    "evaluate",
    "parameter_sweep",
    "group_prevalence",
]

@dataclass(frozen=True)
class LabeledDataset:
    """Observation matrix plus one class index per column.

    Labels are 0-based consecutive integers; every class needs at least two
    samples so folds can separate train and test occurrences.
    """

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        data = as_data_matrix(self.data)
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.size != data.shape[1]:
            raise ValueError("need exactly one label per data column")
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative integers")
        counts = np.bincount(labels, minlength=labels.max() + 1)
        if (counts < 2).any():
            raise ValueError("every class needs at least 2 samples")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class CvConfig:
    """Crossvalidation protocol: runs x folds x restarts fits of ``sweeps``
    sweeps each, seeded.
    """

    folds: int = 10
    runs: int = 5
    restarts: int = 10
    seed: int = 0
    sweeps: int = 300

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.runs < 1 or self.restarts < 1 or self.sweeps < 1:
            raise ValueError("runs, restarts and sweeps must be >= 1")


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy statistics over the full run x fold x restart tensor.

    ``max_accuracy`` averages the per-fold maximum over restarts (the
    restart-selection estimate).
    """

    max_accuracy: float
    mean_accuracy: float
    variance: float
    per_fold: np.ndarray
    subspace_dimension: int


def knn_cosine_classify(train_features, train_labels, test_features) -> np.ndarray:
    """Label of the cosine-nearest training column for each test column.

    Ties go to the lowest train index; all-zero feature columns sit at
    distance 1 from everything.
    """
    A = np.asarray(train_features, dtype=float)
    B = np.asarray(test_features, dtype=float)
    y = np.asarray(train_labels)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise ValueError("train and test features must share the feature dimension")
    if y.shape != (A.shape[1],):
        raise ValueError("need one label per training column")
    if A.shape[1] == 0:
        raise ValueError("training set is empty")
    na = np.linalg.norm(A, axis=0)
    nb = np.linalg.norm(B, axis=0)
    safe_na = np.where(na > 0.0, na, np.inf)
    safe_nb = np.where(nb > 0.0, nb, np.inf)
    similarity = (A.T @ B) / safe_na[:, None] / safe_nb[None, :]
    nearest = np.argmin(1.0 - similarity, axis=0)
    return y[nearest]


def stratified_folds(labels, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint, exhaustive folds preserving class proportions.

    Needs 2 <= folds <= n_samples, so every test fold is nonempty. Classes
    with fewer samples than folds simply appear in fewer test folds (with a
    warning); the partition stays valid. Deterministic per seed.
    """
    y = np.asarray(labels, dtype=int)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("labels must form a nonempty vector")
    if not 2 <= folds <= y.size:
        raise ValueError(f"folds must lie in [2, {y.size}] for {y.size} samples, got {folds}")
    counts = np.bincount(y)
    if (counts == 0).any():
        raise ValueError("empty classes are not allowed")
    if (counts < folds).any():
        warnings.warn(
            "some classes have fewer samples than folds; they will be absent "
            "from some test folds",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=int)
    for cls, offset in enumerate(np.cumsum(counts) - counts):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        # Rotate the starting fold per class so fold sizes stay balanced.
        assignment[idx] = (np.arange(idx.size) + offset) % folds
    return [
        (np.flatnonzero(assignment != f), np.flatnonzero(assignment == f)) for f in range(folds)
    ]


def _cell_seeds(seed: int, runs: int, folds: int, restarts: int) -> np.ndarray:
    """Pre-assigned seeds: one partition seed per run plus one per cell."""
    n = runs * (1 + folds * restarts)
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)


def _score(X, y, hyper, fit_config: FitConfig, cells) -> list[tuple[int, int, int, float]]:
    """Fit, project and classify one engine batch: the protocol's unit of work.

    ``cells`` are (run, fold, restart, train, test, groups, seed) of one
    training-set size (prior ``hyper``), a fold's restarts consecutive and
    sharing one copy of its training columns; one ``fit_restarts`` call
    fits them all. Returns (run, fold, restart, accuracy) rows. Seeds are
    pre-assigned per cell, so a cell's result depends neither on its batch
    nor on batch order: a pool may map this over ``_batches``.
    """
    _, _, _, trains, _, groups, seeds = zip(*cells)
    data = [X[:, trains[0]]]
    for previous, train in zip(trains, trains[1:]):
        data.append(data[-1] if train is previous else X[:, train])
    try:
        results = fit_restarts(data, hyper, groups, fit_config, seeds)
    except NumericalError as exc:
        r, f, k = cells[exc.restart][:3]
        # The batch's own message, without the engine's index of the seed.
        message = f"fit failed at run {r}, fold {f}, restart {k}: {exc.__cause__ or exc}"
        raise NumericalError(message, restart=k) from exc
    rows = []
    for (r, f, k, train, test, _, _), result in zip(cells, results):
        test_features = project_matrix(result.state.E_t, X[:, test])
        predicted = knn_cosine_classify(result.state.E_v, y[train], test_features)
        rows.append((r, f, k, float(np.mean(predicted == y[test]))))
    return rows


def _batches(by_size: dict[int, list], n_rows: int):
    """The engine batches of cells listed by training-set size."""
    for t, cells in by_size.items():
        size = restarts_per_batch(n_rows, t)
        yield from (cells[first:first + size] for first in range(0, len(cells), size))


def evaluate(dataset: LabeledDataset, settings: PriorSettings, config: CvConfig) -> AccuracyReport:
    """Crossvalidated 1-NN accuracy of the label-driven factorization.

    Per run x fold x restart: fit on the training columns with labels as
    groups (one group with ``settings.single_group``), project the held-out
    columns onto the fitted dictionary, and classify them against the
    training coefficients. The prior depends on a fold only through its
    training-set size, so the cells of one size, across runs and folds,
    are fitted together. The unit of work is ``_score`` of one engine
    batch from ``_batches``; a batch's states are dropped before the next
    batch is fitted, so memory stays that of one batch. The report never
    reads bound traces, so each fit computes the bound once, at its last
    sweep. A ``NumericalError`` is re-raised with the cell (run, fold,
    restart) in its message; every other exception keeps its own type.
    """
    X, y = dataset.data, dataset.labels
    seeds = iter(_cell_seeds(config.seed, config.runs, config.folds, config.restarts))
    n_groups, labels = (1, np.zeros_like(y)) if settings.single_group else (dataset.n_classes, y)
    # Every cell with its columns, groups and seed, listed by training-set size.
    by_size: dict[int, list] = {}
    for r in range(config.runs):
        for f, (train, test) in enumerate(stratified_folds(y, config.folds, int(next(seeds)))):
            groups = GroupAssignment(n_groups, labels[train])
            by_size.setdefault(train.size, []).extend(
                (r, f, k, train, test, groups, next(seeds)) for k in range(config.restarts)
            )

    acc = np.zeros((config.runs, config.folds, config.restarts))
    fit_config = FitConfig(max_sweeps=config.sweeps, compute_bound_every=config.sweeps)
    for cells in _batches(by_size, X.shape[0]):
        hyper = settings.hyperparameters(X.shape[0], dataset.n_classes, cells[0][3].size)
        for r, f, k, accuracy in _score(X, y, hyper, fit_config, cells):
            acc[r, f, k] = accuracy
    return AccuracyReport(
        max_accuracy=float(acc.max(axis=2).mean()),
        mean_accuracy=float(acc.mean()),
        variance=float(acc.var()),
        per_fold=acc,
        subspace_dimension=hyper.dims[1],
    )


def parameter_sweep(
    dataset: LabeledDataset,
    grid: Sequence[PriorSettings],
    config: CvConfig,
) -> tuple[int, list[AccuracyReport]]:
    """Evaluate every grid setting; pick the highest max-accuracy estimate.

    Ties break toward the smaller subspace dimension, then grid order.
    Returns the winning index plus one report per setting.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    reports = [evaluate(dataset, setting, config) for setting in grid]
    best = min(
        range(len(grid)), key=lambda k: (-reports[k].max_accuracy, reports[k].subspace_dimension)
    )
    return best, reports


def group_prevalence(E_v, labels) -> np.ndarray:
    """Per-label accumulated coefficient mass: (C, I) matrix.

    Entry (c, i) is the l1 mass of feature i over samples of label c,
    divided by the label's sample count.
    """
    coeffs = np.asarray(E_v, dtype=float)
    y = np.asarray(labels, dtype=int)
    if coeffs.ndim != 2 or y.shape != (coeffs.shape[1],):
        raise ValueError("coefficients must be (I, T) with one label per column")
    counts = np.bincount(y)
    if (counts == 0).any():
        raise ValueError("empty labels are not allowed")
    return np.stack([np.abs(coeffs[:, y == c]).sum(axis=1) / counts[c] for c in range(counts.size)])
