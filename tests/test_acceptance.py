"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``
to see them as they complete).
"""

import json
import time

import numpy as np
import pytest

from gsnmf.engine import (
    FitConfig,
    _bound_constants,
    fit,
    init_state,
    multi_restart_fit,
    update_sweep,
    variational_bound,
)
from gsnmf.model import GroupAssignment, Hyperparameters
from gsnmf.numerics import digamma, log_gamma
from gsnmf.pipeline import CvConfig, LabeledDataset, PriorSettings, evaluate, group_prevalence
from gsnmf.projection import nnls
from cli_launch import run_cli
from oracles import (
    grid_search_nnls_2d,
    quadrature_log_evidence,
    random_two_column_instance,
    reference_digamma,
    reference_log_gamma,
)


def report(number: int, name: str, ok: bool, detail: str):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def random_count_problem(seed: int, V=20, T=30, I=5, C=3):
    rng = np.random.default_rng(1000 + seed)
    X = rng.integers(0, 11, size=(V, T)).astype(float)
    hyper = Hyperparameters(
        A_t=np.full((V, I), 0.6),
        B_t=np.full((V, I), 20.0),
        A_lambda=np.full((I, C), 32.0),
        B_lambda=np.full((I, C), 1e6),
        U=np.ones((T, C)),
    )
    z = rng.integers(0, C, size=T)
    return X, hyper, z


@pytest.fixture(scope="module")
def sweep_harness():
    """20-seed, 300-sweep runs in both modes, shared by criteria 1, 3, 4."""
    t0 = time.perf_counter()
    worst_drop = -np.inf
    worst_conservation = 0.0
    structure_ok = True
    sweeps = 300
    for seed in range(20):
        X, hyper, z = random_count_problem(seed)
        for mode in ("observed", "latent"):
            groups = (
                GroupAssignment(3, z) if mode == "observed" else GroupAssignment.latent(3)
            )
            constants = _bound_constants(X, hyper, groups)
            state = init_state(hyper, groups, seed=seed)
            previous = None
            for sweep in range(1, sweeps + 1):
                state = update_sweep(state, X, hyper, groups, sweep=sweep)
                bound = variational_bound(state, X, hyper, groups, constants=constants)
                if previous is not None:
                    worst_drop = max(worst_drop, (previous - bound) / abs(previous))
                previous = bound
                column_error = np.abs(state.Sigma_v.sum(axis=0) - X.sum(axis=0))
                scale = np.maximum(X.sum(axis=0), 1e-300)
                worst_conservation = max(worst_conservation, float((column_error / scale).max()))
                if mode == "observed":
                    counts = state.Delta.sum(axis=0)
                    structure_ok = structure_ok and (
                        np.array_equal(state.t.alpha, hyper.A_t + state.Sigma_t)
                        and np.array_equal(state.v.alpha, 1.0 + state.Sigma_v)
                        and np.array_equal(
                            state.lam.alpha, hyper.A_lambda + counts[None, :]
                        )
                    )
    return {
        "worst_drop": worst_drop,
        "worst_conservation": worst_conservation,
        "structure_ok": structure_ok,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.mark.slow
def test_criterion_01_bound_monotonicity(sweep_harness):
    ok = sweep_harness["worst_drop"] <= 1e-9
    report(
        1,
        "bound monotone over 20 seeds x 2 modes x 300 sweeps",
        ok,
        f"worst relative drop {sweep_harness['worst_drop']:.3e} "
        f"(budget 1e-9), elapsed {sweep_harness['elapsed']:.1f}s",
    )


def test_criterion_02_bound_below_quadrature_evidence():
    hyper = Hyperparameters(
        A_t=np.ones((1, 1)),
        B_t=np.ones((1, 1)),
        A_lambda=np.ones((1, 1)),
        B_lambda=np.ones((1, 1)),
        U=np.ones((1, 1)),
    )
    groups = GroupAssignment(1, np.array([0]))
    quadrature_budget = 1e-6
    worst_margin = -np.inf
    gaps_monotone = True
    details = []
    for x in range(4):
        log_evidence = quadrature_log_evidence(x)
        result = fit(
            np.array([[float(x)]]), hyper, groups, FitConfig(max_sweeps=200, seed=3)
        )
        bounds = [b for _, b in result.bound_trace]
        gaps = [log_evidence - b for b in bounds]
        gaps_monotone = gaps_monotone and all(
            later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:])
        )
        worst_margin = max(worst_margin, bounds[-1] - log_evidence)
        details.append(f"x={x}: gap {gaps[-1]:.4f}")
    ok = worst_margin <= quadrature_budget and gaps_monotone
    report(
        2,
        "bound stays below quadrature log-evidence with shrinking gap",
        ok,
        "; ".join(details) + f"; worst overshoot {worst_margin:.2e}",
    )


@pytest.mark.slow
def test_criterion_03_count_conservation(sweep_harness):
    ok = sweep_harness["worst_conservation"] <= 1e-10
    report(
        3,
        "per-column count conservation after every sweep",
        ok,
        f"worst relative error {sweep_harness['worst_conservation']:.3e} (budget 1e-10)",
    )


@pytest.mark.slow
def test_criterion_04_conjugate_update_structure(sweep_harness):
    report(
        4,
        "posterior gamma shapes equal prior-plus-counts bitwise",
        sweep_harness["structure_ok"],
        "checked T, V and rate-indicator shapes every sweep in observed mode",
    )


def test_criterion_05_special_functions_vs_oracle():
    rng = np.random.default_rng(2024)
    points = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), size=10_000))
    dg = digamma(points)
    lg = log_gamma(points)
    worst_dg = 0.0
    worst_lg = 0.0
    for value, d_val, l_val in zip(points, dg, lg):
        worst_dg = max(worst_dg, abs(d_val - reference_digamma(float(value))))
        ref = reference_log_gamma(float(value))
        worst_lg = max(worst_lg, abs(l_val - ref) / max(1.0, abs(ref)))
    ok = worst_dg <= 1e-12 and worst_lg <= 1e-12
    report(
        5,
        "digamma/log-gamma within 1e-12 of high-precision oracle on 10k points",
        ok,
        f"worst digamma error {worst_dg:.2e}, worst log-gamma error {worst_lg:.2e}",
    )


@pytest.mark.slow
def test_criterion_06_nnls_optimality():
    rng = np.random.default_rng(31)
    worst_kkt = 0.0
    for _ in range(1000):
        V = int(rng.integers(1, 11))
        I = int(rng.integers(1, 7))
        A = rng.random((V, I))
        b = rng.random(V) * 3.0
        sol = nnls(A, b, tol=1e-8)
        gradient = A.T @ (A @ sol.coefficients - b)
        free = sol.coefficients > 0.0
        if free.any():
            worst_kkt = max(worst_kkt, float(np.abs(gradient[free]).max()))
        if (~free).any():
            worst_kkt = max(worst_kkt, float(max(0.0, -gradient[~free].min())))

    worst_coefficient_gap = 0.0
    for _ in range(200):
        A, b = random_two_column_instance(rng)
        sol = nnls(A, b)
        oracle = grid_search_nnls_2d(A, b)
        assert oracle.max() < 3.4, "oracle grid must contain the optimum"
        worst_coefficient_gap = max(
            worst_coefficient_gap, float(np.abs(sol.coefficients - oracle).max())
        )
    ok = worst_kkt <= 1e-8 and worst_coefficient_gap <= 2e-3
    report(
        6,
        "NNLS KKT residuals (1000 instances) and grid-oracle match (200 instances)",
        ok,
        f"worst KKT {worst_kkt:.2e} (budget 1e-8), worst coefficient gap "
        f"{worst_coefficient_gap:.2e} (budget 2e-3)",
    )


def test_criterion_07_group_structure_recovery(planted_dataset):
    t0 = time.perf_counter()
    X = planted_dataset["X"]
    labels = planted_dataset["labels"]
    hyper = planted_dataset["hyper"]
    C = planted_dataset["C"]
    per_group = planted_dataset["per_group"]
    groups = GroupAssignment(C, labels)
    results = multi_restart_fit(
        X, hyper, groups, FitConfig(max_sweeps=300, restarts=10, seed=5, compute_bound_every=300)
    )
    prevalence = group_prevalence(results[0].state.E_v, labels)
    diagonal = sum(
        prevalence[g, g * per_group : (g + 1) * per_group].sum() for g in range(C)
    )
    fraction = diagonal / prevalence.sum()
    ok = fraction >= 0.7
    report(
        7,
        "planted group blocks dominate the prevalence diagnostic",
        ok,
        f"diagonal mass fraction {fraction:.3f} (threshold 0.70), "
        f"elapsed {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_08_supervised_prior_does_not_hurt(planted_dataset):
    dataset = LabeledDataset(planted_dataset["X"], planted_dataset["labels"])
    cv = CvConfig(folds=5, runs=1, restarts=3, seed=17, sweeps=150)
    grouped = evaluate(
        dataset, PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0), cv
    )
    baseline = evaluate(
        dataset, PriorSettings(per_group=6, a_small=1.0, b_lambda=1.0, single_group=True), cv
    )
    assert grouped.subspace_dimension == baseline.subspace_dimension
    ok = grouped.mean_accuracy >= baseline.mean_accuracy
    report(
        8,
        "label-driven prior at least matches the label-blind baseline",
        ok,
        f"grouped mean {grouped.mean_accuracy:.4f} vs baseline "
        f"{baseline.mean_accuracy:.4f} at equal dictionary size "
        f"{grouped.subspace_dimension}",
    )


def test_criterion_09_cli_determinism(tmp_path):
    def run_workflow(base):
        base.mkdir()
        commands = [
            ["generate", "--out", "X.bin", "--truth", "truth", "--dims", "14,4,2,16",
             "--a-small", "1", "--a-large", "32", "--b-lambda", "1", "--seed", "5"],
            ["train", "--data", "X.bin", "--labels", "truth/z_true.bin",
             "--dict-size", "4", "--sweeps", "20", "--restarts", "2",
             "--a-small", "1", "--a-large", "32", "--b-lambda", "1",
             "--seed", "2", "--out", "m.gsnm", "--bound-trace", "t.csv"],
            ["project", "--model", "m.gsnm", "--data", "X.bin", "--out", "V.csv"],
            ["classify", "--model", "m.gsnm", "--train-data", "X.bin",
             "--train-labels", "truth/z_true.bin", "--test-data", "X.bin",
             "--out", "p.csv"],
            ["evaluate", "--data", "X.bin", "--labels", "truth/z_true.bin",
             "--folds", "4", "--runs", "1", "--restarts", "2", "--sweeps", "20",
             "--per-group", "2", "--a-small", "1", "--a-large", "32",
             "--b-lambda", "1", "--seed", "1", "--report", "r.json"],
            ["prevalence", "--model", "m.gsnm", "--labels", "truth/z_true.bin",
             "--out", "h.pgm"],
        ]
        grid = base / "grid.json"
        grid.write_text(json.dumps([{"per_group": 2, "a_small": 1.0, "a_large": 32.0,
                                     "b_lambda": 1.0}]))
        commands.append(
            ["sweep", "--grid", "grid.json", "--data", "X.bin", "--labels",
             "truth/z_true.bin", "--folds", "4", "--runs", "1", "--restarts", "1",
             "--sweeps", "20", "--seed", "1", "--report", "s.json"]
        )
        for command in commands:
            proc = run_cli(command, cwd=base)
            assert proc.returncode == 0, (command, proc.stderr)

    run_workflow(tmp_path / "first")
    run_workflow(tmp_path / "second")
    artifacts = [
        "X.bin", "truth/z_true.bin", "truth/T_true.bin", "truth/V_true.bin",
        "truth/Lambda_true.bin", "m.gsnm", "t.csv", "V.csv", "p.csv", "r.json",
        "h.pgm", "s.json",
    ]
    mismatched = [
        name
        for name in artifacts
        if (tmp_path / "first" / name).read_bytes() != (tmp_path / "second" / name).read_bytes()
    ]
    report(
        9,
        "every CLI subcommand is bitwise deterministic",
        not mismatched,
        "all artifacts identical" if not mismatched else f"differing: {mismatched}",
    )


def test_criterion_10_chance_level_with_permuted_labels(planted_dataset):
    labels = planted_dataset["labels"]
    rng = np.random.default_rng(99)
    permuted = rng.permutation(labels)
    dataset = LabeledDataset(planted_dataset["X"], permuted)
    chance = 1.0 / planted_dataset["C"]
    result = evaluate(
        dataset,
        PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0),
        CvConfig(folds=5, runs=1, restarts=2, seed=23, sweeps=100),
    )
    # 99% binomial interval with n = number of samples classified per pass;
    # repetitions across restarts are correlated, so this is the
    # conservative choice.
    halfwidth = 2.576 * np.sqrt(chance * (1.0 - chance) / labels.size)
    deviation = abs(result.mean_accuracy - chance)
    ok = deviation <= halfwidth
    report(
        10,
        "permuted labels score at chance level",
        ok,
        f"mean accuracy {result.mean_accuracy:.4f} vs chance {chance:.4f} "
        f"(99% halfwidth {halfwidth:.4f})",
    )
