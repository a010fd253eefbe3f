import numpy as np
import pytest

from gsnmf.engine import FitConfig, fit_restarts
from gsnmf.model import GroupAssignment
from gsnmf.pipeline import (
    CvConfig,
    LabeledDataset,
    PriorSettings,
    _cell_seeds,
    evaluate,
    group_prevalence,
    knn_cosine_classify,
    parameter_sweep,
    stratified_folds,
)
from gsnmf.projection import project_matrix
from oracles import brute_force_cosine_neighbors


def quick_cv(folds=3, runs=1, restarts=2, sweeps=40, seed=0):
    return CvConfig(
        folds=folds,
        runs=runs,
        restarts=restarts,
        seed=seed,
        sweeps=sweeps,
    )


def test_knn_exact_match_wins():
    train = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([4, 9])
    predicted = knn_cosine_classify(train, labels, train[:, [1]])
    assert predicted.tolist() == [9]


def test_knn_is_scale_invariant():
    rng = np.random.default_rng(2)
    train = rng.random((6, 10)) + 0.01
    labels = rng.integers(0, 3, size=10)
    test = rng.random((6, 7)) + 0.01
    base = knn_cosine_classify(train, labels, test)
    for k in (0.1, 5.0, 1234.0):
        np.testing.assert_array_equal(knn_cosine_classify(train * k, labels, test * k), base)
        np.testing.assert_array_equal(knn_cosine_classify(train, labels, test * k), base)


def test_knn_worked_example():
    train = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    labels = np.array([0, 1, 0])  # A, B, A
    predicted = knn_cosine_classify(train, labels, np.array([[0.9], [1.0]]))
    assert predicted.tolist() == [0]


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    train = rng.random((5, 12))
    test = rng.random((5, 8))
    labels = np.arange(12)
    predicted = knn_cosine_classify(train, labels, test)
    np.testing.assert_array_equal(predicted, brute_force_cosine_neighbors(train, test))


def test_knn_rejects_empty_train():
    with pytest.raises(ValueError):
        knn_cosine_classify(np.zeros((3, 0)), np.array([]), np.ones((3, 1)))


def test_knn_ties_break_to_lowest_index():
    train = np.array([[1.0, 2.0], [1.0, 2.0]])  # identical directions
    labels = np.array([7, 8])
    predicted = knn_cosine_classify(train, labels, np.array([[3.0], [3.0]]))
    assert predicted.tolist() == [7]


def test_stratified_folds_balanced_case():
    labels = np.repeat([0, 1], 10)
    folds = stratified_folds(labels, 10, seed=1)
    for train, test in folds:
        assert test.size == 2
        assert (labels[test] == [0, 1]).all() or set(labels[test]) == {0, 1}
        assert np.intersect1d(train, test).size == 0
    all_test = np.concatenate([t for _, t in folds])
    np.testing.assert_array_equal(np.sort(all_test), np.arange(20))


def test_stratified_folds_deterministic():
    labels = np.repeat([0, 1, 2], 7)
    a = stratified_folds(labels, 5, seed=3)
    b = stratified_folds(labels, 5, seed=3)
    for (ta, sa), (tb, sb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(sa, sb)
    c = stratified_folds(labels, 5, seed=4)
    assert any(not np.array_equal(sa, sc) for (_, sa), (_, sc) in zip(a, c))


def test_stratified_folds_warn_on_tiny_classes():
    labels = np.array([0, 0, 0, 0, 1, 1])
    with pytest.warns(UserWarning, match="fewer samples than folds"):
        folds = stratified_folds(labels, 4, seed=0)
    all_test = np.concatenate([t for _, t in folds])
    np.testing.assert_array_equal(np.sort(all_test), np.arange(6))


def test_stratified_folds_rejects_empty_class():
    with pytest.raises(ValueError):
        stratified_folds(np.array([0, 0, 2, 2]), 2, seed=0)


def test_stratified_folds_reject_more_folds_than_samples():
    labels = np.array([0, 0, 0, 1, 1, 1])
    for folds in (1, 7, 8):
        with pytest.raises(ValueError, match=r"folds must lie in \[2, 6\]"):
            stratified_folds(labels, folds, seed=0)
    ds = LabeledDataset(np.ones((3, 6)), labels)
    with pytest.raises(ValueError, match="folds must lie in"):
        evaluate(ds, PriorSettings(), quick_cv(folds=8, restarts=1, sweeps=5))


def test_single_group_prior_ignores_a_large():
    # a_small above the default a_large is valid when there is one group.
    settings = PriorSettings(per_group=3, a_small=300.0, b_lambda=1.0, single_group=True)
    hyper = settings.hyperparameters(5, 4, 10)
    assert hyper.dims == (5, 3, 1, 10)
    assert (hyper.A_lambda == 300.0).all() and (hyper.B_lambda == 1.0).all()
    with pytest.raises(ValueError):
        PriorSettings(per_group=3, a_small=300.0).hyperparameters(5, 4, 10)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((3, 4)), np.array([0, 1, 2, 3]))  # singleton classes
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((3, 4)), np.array([0, 0, 1]))  # length mismatch
    ds = LabeledDataset(np.ones((3, 4)), np.array([0, 0, 1, 1]))
    assert ds.n_classes == 2


def test_evaluate_on_separable_data_is_perfect(planted_dataset):
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0)
    report = evaluate(ds, settings, quick_cv())
    assert report.max_accuracy == 1.0
    assert report.mean_accuracy == 1.0
    assert report.variance == 0.0
    assert report.subspace_dimension == 6
    assert report.per_fold.shape == (1, 3, 2)


def test_evaluate_single_cell_makes_max_equal_mean(planted_dataset):
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=1, a_small=1.0, a_large=16.0, b_lambda=1.0)
    report = evaluate(ds, settings, quick_cv(folds=3, runs=1, restarts=1, sweeps=30))
    assert report.max_accuracy == pytest.approx(report.mean_accuracy)


def test_evaluate_is_deterministic(planted_dataset):
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0)
    r1 = evaluate(ds, settings, quick_cv(seed=5))
    r2 = evaluate(ds, settings, quick_cv(seed=5))
    np.testing.assert_array_equal(r1.per_fold, r2.per_fold)


def test_evaluate_keeps_the_type_of_a_bad_input_error(planted_dataset, monkeypatch):
    from gsnmf import pipeline

    # A data error inside a fit stays a data error, not a numerical failure.
    def reject(*args, **kwargs):
        raise ValueError("data matrix does not match the hyperparameters")

    monkeypatch.setattr(pipeline, "fit_restarts", reject)
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=1, a_small=1.0, a_large=16.0, b_lambda=1.0)
    with pytest.raises(ValueError, match="does not match"):
        evaluate(ds, settings, quick_cv(folds=3, runs=1, restarts=1, sweeps=5))


def test_evaluate_names_the_cell_of_a_numerical_failure(planted_dataset, monkeypatch):
    from gsnmf import pipeline
    from gsnmf.engine import NumericalError

    def explode(*args, **kwargs):
        raise NumericalError("non-finite values in E_t at sweep 3")

    monkeypatch.setattr(pipeline, "fit_restarts", explode)
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=1, a_small=1.0, a_large=16.0, b_lambda=1.0)
    with pytest.raises(NumericalError, match="run 0, fold 0, restart 0: .*E_t at sweep 3"):
        evaluate(ds, settings, quick_cv(folds=3, runs=1, restarts=1, sweeps=5))


def per_fold_reference(ds, settings, config):
    """The per-fold path: one shared-data ``fit_restarts`` call per (run, fold).

    Returns the accuracy tensor and every fit by its seed.
    """
    X, y = ds.data, ds.labels
    seeds = _cell_seeds(config.seed, config.runs, config.folds, config.restarts)
    fit_config = FitConfig(max_sweeps=config.sweeps, compute_bound_every=config.sweeps)
    acc = np.zeros((config.runs, config.folds, config.restarts))
    fits = {}
    pos = 0
    for r in range(config.runs):
        folds = stratified_folds(y, config.folds, int(seeds[pos]))
        pos += 1
        for f, (train, test) in enumerate(folds):
            hyper = settings.hyperparameters(X.shape[0], ds.n_classes, train.size)
            if settings.single_group:
                groups = GroupAssignment(1, np.zeros(train.size, dtype=int))
            else:
                groups = GroupAssignment(ds.n_classes, y[train])
            cell_seeds = seeds[pos:pos + config.restarts]
            pos += config.restarts
            for k, result in enumerate(fit_restarts(X[:, train], hyper, groups, fit_config, cell_seeds)):
                fits[result.seed] = result
                predicted = knn_cosine_classify(
                    result.state.E_v, y[train], project_matrix(result.state.E_t, X[:, test])
                )
                acc[r, f, k] = np.mean(predicted == y[test])
    return acc, fits


@pytest.mark.parametrize("batch_cells, n_calls", [(None, 2), (3, 6)])
@pytest.mark.parametrize("single_group", [False, True])
def test_cross_fold_batches_match_the_per_fold_path_bitwise(
    planted_dataset, monkeypatch, single_group, batch_cells, n_calls
):
    from gsnmf import engine, pipeline

    # 90 samples in 4 folds: training sets of 67 and 68 columns, so two
    # prior shapes, each shared by 8 cells from folds of both runs. With
    # batches of 3 cells, each shape takes 3 calls, split inside folds.
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(
        per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0, single_group=single_group
    )
    config = quick_cv(folds=4, runs=2, restarts=2, sweeps=15, seed=3)
    if batch_cells:
        monkeypatch.setattr(engine, "_BATCH_ELEMENTS", batch_cells * 40 * 68)
    calls = []

    def recording(*args):
        results = fit_restarts(*args)
        calls.append(results)
        return results

    monkeypatch.setattr(pipeline, "fit_restarts", recording)
    report = evaluate(ds, settings, config)
    monkeypatch.undo()
    acc, reference = per_fold_reference(ds, settings, config)
    np.testing.assert_array_equal(report.per_fold, acc)
    assert len(calls) == n_calls
    fits = [result for results in calls for result in results]
    assert sorted(r.seed for r in fits) == sorted(reference)
    for result in fits:
        expected = reference[result.seed]
        np.testing.assert_array_equal(result.state.E_t, expected.state.E_t)
        np.testing.assert_array_equal(result.state.E_v, expected.state.E_v)
        assert result.bound_trace == expected.bound_trace


@pytest.mark.parametrize("batch_cells", [None, 3])
def test_numerical_failure_in_a_cross_fold_batch_names_its_cell(
    planted_dataset, monkeypatch, batch_cells
):
    from gsnmf import engine
    from gsnmf.engine import NumericalError

    config = quick_cv(folds=4, runs=2, restarts=2, sweeps=5, seed=3)
    if batch_cells:
        monkeypatch.setattr(engine, "_BATCH_ELEMENTS", batch_cells * 40 * 68)
    # Run 1, fold 2, restart 1: the sixth cell of 68 training columns, after
    # folds 2 and 3 of run 0; the third of its call with batches of 3.
    seeds = _cell_seeds(config.seed, config.runs, config.folds, config.restarts)
    target = int(seeds[(1 + 4 * 2) + 1 + 2 * 2 + 1])
    start = engine._init_states

    def poisoned(hyper, groups, batch_seeds):
        state = start(hyper, groups, batch_seeds)
        for j, seed in enumerate(batch_seeds):
            if seed == target:
                state.t.log_mean[j, 0, 0] = np.nan
        return state

    monkeypatch.setattr(engine, "_init_states", poisoned)
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=1, a_small=1.0, a_large=16.0, b_lambda=1.0)
    with pytest.raises(NumericalError) as info:
        evaluate(ds, settings, config)
    assert str(info.value) == (
        "fit failed at run 1, fold 2, restart 1: non-finite values in Sigma_v at sweep 1"
    )
    assert info.value.restart == 1


def test_report_accuracy_statistics_are_consistent(planted_dataset):
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    settings = PriorSettings(per_group=1, a_small=1.0, a_large=4.0, b_lambda=1.0)
    report = evaluate(ds, settings, quick_cv(folds=3, runs=2, restarts=2, sweeps=20))
    cells = report.per_fold
    assert report.max_accuracy >= report.mean_accuracy
    assert report.variance >= 0.0
    assert cells.min() <= report.mean_accuracy <= cells.max()


def test_parameter_sweep_single_setting_and_duplicates(planted_dataset):
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    setting = PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0)
    best, reports = parameter_sweep(ds, [setting], quick_cv())
    assert best == 0 and len(reports) == 1

    best, reports = parameter_sweep(ds, [setting, setting], quick_cv())
    assert best == 0
    np.testing.assert_array_equal(reports[0].per_fold, reports[1].per_fold)


def test_parameter_sweep_prefers_contrast_on_planted_data(planted_dataset):
    # Flat prior versus two contrast levels: the winner should not be the
    # degenerate a_large == a_small setting.
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    grid = [
        PriorSettings(per_group=2, a_small=1.0, a_large=1.0, b_lambda=1.0),
        PriorSettings(per_group=2, a_small=1.0, a_large=8.0, b_lambda=1.0),
        PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0),
    ]
    best, reports = parameter_sweep(ds, grid, quick_cv(folds=3, restarts=2, sweeps=60))
    assert reports[best].max_accuracy == max(r.max_accuracy for r in reports)
    if reports[best].max_accuracy > reports[0].max_accuracy:
        assert best > 0


def test_parameter_sweep_rejects_empty_grid(planted_dataset):
    ds = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    with pytest.raises(ValueError):
        parameter_sweep(ds, [], quick_cv())


def test_group_prevalence_block_structure():
    # coefficients with exact block structure: feature block g active only
    # for group-g samples
    E_v = np.zeros((4, 6))
    labels = np.array([0, 0, 0, 1, 1, 1])
    E_v[:2, :3] = 2.0
    E_v[2:, 3:] = 3.0
    prev = group_prevalence(E_v, labels)
    assert prev.shape == (2, 4)
    np.testing.assert_array_equal(prev, [[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 3.0]])


def test_group_prevalence_uniform():
    E_v = np.full((3, 4), 0.5)
    labels = np.array([0, 0, 1, 1])
    prev = group_prevalence(E_v, labels)
    assert np.ptp(prev) == 0.0


def test_group_prevalence_validates():
    with pytest.raises(ValueError):
        group_prevalence(np.ones((2, 3)), np.array([0, 0]))
    with pytest.raises(ValueError):
        group_prevalence(np.ones((2, 3)), np.array([0, 0, 2]))
