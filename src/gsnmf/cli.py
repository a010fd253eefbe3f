"""Command-line front end: generate, train, project, classify, evaluate,
sweep, and prevalence.

Every subcommand is deterministic given its flags; all randomness sits
behind --seed. Exit codes: 0 success, 2 usage error, 3 data or format
error, 4 numerical failure. One summary line goes to stdout, diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, io, model, pipeline
from .engine import FitConfig, NumericalError
from .model import GroupAssignment, PriorSettings

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class DataError(Exception):
    """Invalid or inconsistent input files or flag values."""


def _seed(text: str) -> int:
    """The type of every --seed: numpy's generators take no negative seed."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_prior_flags(p: argparse.ArgumentParser):
    p.add_argument("--a-small", type=float, default=model.DEFAULT_A_SMALL,
                   help="prior shape biasing a group's own features (default 32)")
    p.add_argument("--a-large", type=float, default=model.DEFAULT_A_LARGE,
                   help="prior shape suppressing other groups' features (default 256)")
    p.add_argument("--b-lambda", type=float, default=model.DEFAULT_B_LAMBDA,
                   help="prior scale of the rate indicators (default 1e6)")
    p.add_argument("--a-t", type=float, default=model.DEFAULT_A_T,
                   help="dictionary prior shape (default 0.6)")
    p.add_argument("--b-t", type=float, default=model.DEFAULT_B_T,
                   help="dictionary prior scale (default 20)")


def _add_protocol_flags(p: argparse.ArgumentParser):
    p.add_argument("--folds", type=int, default=10, help="crossvalidation folds (default 10)")
    p.add_argument("--runs", type=int, default=5, help="crossvalidation runs (default 5)")
    p.add_argument("--restarts", type=int, default=10, help="restarts per fold (default 10)")
    p.add_argument("--sweeps", type=int, default=300, help="update sweeps per fit (default 300)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsnmf",
        description="Group-sparse variational NMF: dictionary learning with "
        "label-driven sparsity and a 1-NN evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic dataset from the model")
    g.add_argument("--out", required=True, help="output path for the data matrix (binary)")
    g.add_argument("--truth", required=True, help="directory for the ground-truth factors")
    g.add_argument("--dims", required=True, help="V,I,C,T (comma separated)")
    g.add_argument("--per-group", type=int, default=None,
                   help="features per group (default I / C)")
    _add_prior_flags(g)
    g.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")

    t = sub.add_parser("train", help="fit the factorization to a data matrix")
    t.add_argument("--data", required=True)
    t.add_argument("--labels", default=None, help="label file (1 x T); required for observed mode")
    t.add_argument("--dict-size", type=int, required=True, help="number of dictionary features I")
    t.add_argument("--per-group", type=int, default=None, help="features per group (default I / C)")
    t.add_argument("--mode", choices=["observed", "latent"], default="observed",
                   help="observed: groups fixed to labels; latent: groups inferred (default observed)")
    t.add_argument("--sweeps", type=int, default=300, help="update sweeps per restart (default 300)")
    t.add_argument("--restarts", type=int, default=10, help="random restarts (default 10)")
    t.add_argument("--bound-every", type=int, default=1,
                   help="sweeps between bound evaluations (default 1)")
    _add_prior_flags(t)
    t.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
    t.add_argument("--out", required=True, help="model archive output path")
    t.add_argument("--bound-trace", default=None,
                   help="CSV of bound traces: sweep index, then one bound column per "
                   "restart (best restart first)")

    p = sub.add_parser("project", help="NNLS-project samples onto a trained dictionary")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="coefficient matrix output (CSV)")

    c = sub.add_parser("classify", help="1-NN cosine classification in dictionary space")
    c.add_argument("--model", required=True)
    c.add_argument("--train-data", required=True)
    c.add_argument("--train-labels", required=True)
    c.add_argument("--test-data", required=True)
    c.add_argument("--out", required=True, help="predicted labels output (CSV)")

    e = sub.add_parser("evaluate", help="crossvalidated accuracy of the pipeline")
    e.add_argument("--data", required=True)
    e.add_argument("--labels", required=True)
    _add_protocol_flags(e)
    e.add_argument("--per-group", type=int, default=3, help="features per class (default 3)")
    _add_prior_flags(e)
    e.add_argument("--single-group", action="store_true",
                   help="collapse the prior to one group (label-blind baseline)")
    e.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
    e.add_argument("--report", required=True, help="JSON report output path")

    s = sub.add_parser("sweep", help="grid search over prior settings")
    s.add_argument("--grid", required=True, help="JSON list of prior-setting objects")
    s.add_argument("--data", required=True)
    s.add_argument("--labels", required=True)
    _add_protocol_flags(s)
    s.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
    s.add_argument("--report", required=True)

    v = sub.add_parser("prevalence", help="per-label coefficient-mass heatmap")
    v.add_argument("--model", required=True)
    v.add_argument("--labels", required=True)
    v.add_argument("--out", required=True, help="heatmap output (PGM)")
    v.add_argument("--style", choices=["magnitude", "hinton"], default="hinton",
                   help="heatmap rendering style (default hinton)")
    v.add_argument("--cell-px", type=int, default=8, help="pixels per matrix cell (default 8)")

    return parser


def _load_labels(path, n_samples: int) -> np.ndarray:
    """Nonnegative integer labels, exactly one per sample."""
    raw = io.load_matrix(path).ravel()
    if raw.size != n_samples:
        raise DataError(f"{path}: {raw.size} labels for {n_samples} samples")
    # Checked before the cast: NaN, inf or a value past int64 would cast with a warning.
    if not io._integers_in(raw, -(2.0**63), 2.0**63):
        raise DataError(f"{path}: labels must be integers")
    labels = raw.astype(int)
    if labels.min() < 0:
        raise DataError(f"{path}: labels must be nonnegative")
    return labels


def _parse_dims(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise DataError(f"--dims expects V,I,C,T, got {text!r}")
    try:
        V, I, C, T = (int(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"--dims entries must be integers: {text!r}") from exc
    if min(V, I, C, T) < 1:
        raise DataError("--dims entries must be >= 1")
    return V, I, C, T


def _resolve_per_group(I: int, C: int, per_group: int | None) -> int:
    if per_group is None:
        if I % C != 0:
            raise DataError(f"dictionary size {I} not divisible by {C} groups; "
                            "pass --per-group explicitly")
        return I // C
    if per_group * C != I:
        raise DataError(f"per-group {per_group} x {C} groups != dictionary size {I}")
    return per_group


def _prior_from_args(args, per_group: int) -> PriorSettings:
    return PriorSettings(
        per_group=per_group,
        a_small=args.a_small,
        a_large=args.a_large,
        b_lambda=args.b_lambda,
        a_t=args.a_t,
        b_t=args.b_t,
        single_group=getattr(args, "single_group", False),
    )


def _write_json(payload, path):
    io._atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _cmd_generate(args) -> str:
    V, I, C, T = _parse_dims(args.dims)
    per_group = _resolve_per_group(I, C, args.per_group)
    hyper = _prior_from_args(args, per_group).hyperparameters(V, C, T)
    z = np.arange(T) % C
    X, truth = model.sample_model(hyper, GroupAssignment(C, z), args.seed)
    truth_dir = Path(args.truth)
    truth_dir.mkdir(parents=True, exist_ok=True)
    io.save_matrix(X, args.out, "binary")
    io.save_matrix(truth.T_true, truth_dir / "T_true.bin", "binary")
    io.save_matrix(truth.V_true, truth_dir / "V_true.bin", "binary")
    io.save_matrix(truth.Lambda_true, truth_dir / "Lambda_true.bin", "binary")
    io.save_matrix(truth.z_true[None, :].astype(float), truth_dir / "z_true.bin", "binary")
    return f"generate: wrote {V}x{T} data to {args.out} (truth in {args.truth})"


def _cmd_train(args) -> str:
    X = model.as_data_matrix(io.load_matrix(args.data))
    V, T = X.shape
    I = args.dict_size
    labels = None if args.labels is None else _load_labels(args.labels, T)
    if labels is not None:
        C = int(labels.max()) + 1
    elif args.mode == "observed":
        raise DataError("--labels is required in observed mode")
    elif args.per_group is None:
        raise DataError("latent mode without labels needs --per-group to fix the group count")
    elif args.per_group < 1:
        raise DataError(f"--per-group must be >= 1, got {args.per_group}")
    else:
        C = I // args.per_group
        if C < 1:
            raise DataError("--per-group exceeds --dict-size")
    groups = GroupAssignment(C, labels) if args.mode == "observed" else GroupAssignment.latent(C)
    per_group = _resolve_per_group(I, C, args.per_group)
    hyper = _prior_from_args(args, per_group).hyperparameters(V, C, T)
    config = FitConfig(
        max_sweeps=args.sweeps,
        compute_bound_every=args.bound_every,
        restarts=args.restarts,
        seed=args.seed,
    )
    results = engine.multi_restart_fit(X, hyper, groups, config)
    io.save_model(io.ModelArchive.from_fit(hyper, groups, results[0]), args.out)
    if args.bound_trace is not None:
        sweeps = [s for s, _ in results[0].bound_trace]
        columns = [sweeps] + [[b for _, b in r.bound_trace] for r in results]
        io.save_matrix(np.array(columns, dtype=float).T, args.bound_trace, "csv")
    return (
        f"train: best of {args.restarts} restarts reached bound "
        f"{results[0].final_bound:.6f} after {args.sweeps} sweeps -> {args.out}"
    )


def _cmd_project(args) -> str:
    archive = io.load_model(args.model)
    X = model.as_data_matrix(io.load_matrix(args.data))
    coeffs = pipeline.project_matrix(archive.state.E_t, X)
    io.save_matrix(coeffs, args.out, "csv")
    return f"project: wrote {coeffs.shape[0]}x{coeffs.shape[1]} coefficients to {args.out}"


def _cmd_classify(args) -> str:
    archive = io.load_model(args.model)
    train = model.as_data_matrix(io.load_matrix(args.train_data))
    test = model.as_data_matrix(io.load_matrix(args.test_data))
    labels = _load_labels(args.train_labels, train.shape[1])
    # Both sides are projected so train and test live in one representation.
    train_features = pipeline.project_matrix(archive.state.E_t, train)
    test_features = pipeline.project_matrix(archive.state.E_t, test)
    predicted = pipeline.knn_cosine_classify(train_features, labels, test_features)
    io.save_matrix(predicted[None, :].astype(float), args.out, "csv")
    return f"classify: wrote {predicted.size} predictions to {args.out}"


def _load_cv(args) -> tuple[pipeline.LabeledDataset, pipeline.CvConfig]:
    X = model.as_data_matrix(io.load_matrix(args.data))
    dataset = pipeline.LabeledDataset(X, _load_labels(args.labels, X.shape[1]))
    config = pipeline.CvConfig(
        folds=args.folds, runs=args.runs, restarts=args.restarts, seed=args.seed, sweeps=args.sweeps
    )
    return dataset, config


def _report_payload(report: pipeline.AccuracyReport) -> dict:
    return {
        "max_accuracy": report.max_accuracy,
        "mean_accuracy": report.mean_accuracy,
        "variance": report.variance,
        "subspace_dimension": report.subspace_dimension,
    }


def _cmd_evaluate(args) -> str:
    dataset, config = _load_cv(args)
    report = pipeline.evaluate(dataset, _prior_from_args(args, args.per_group), config)
    _write_json(_report_payload(report), args.report)
    return (
        f"evaluate: max {report.max_accuracy:.4f} mean {report.mean_accuracy:.4f} "
        f"variance {report.variance:.4f} -> {args.report}"
    )


# A grid entry sets PriorSettings fields; each takes the type of its default.
_GRID_TYPES = {f.name: type(f.default) for f in dataclasses.fields(PriorSettings)}


def _check_grid_value(key: str, value):
    """Raise DataError unless a grid value has the JSON type its key needs."""
    number = not isinstance(value, bool) and isinstance(value, (int, float))
    if _GRID_TYPES[key] is bool:
        ok, kind = isinstance(value, bool), "true or false"
    elif _GRID_TYPES[key] is int:
        ok, kind = number and isinstance(value, int), "an integer"
    else:
        ok, kind = number and abs(value) <= sys.float_info.max, "a finite number"
    if not ok:
        raise DataError(f"grid key {key!r} must be {kind}, got {value!r}")


def _cmd_sweep(args) -> str:
    try:
        raw = json.loads(Path(args.grid).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read grid {args.grid}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise DataError("grid must be a nonempty JSON list of setting objects")
    grid = []
    for entry in raw:
        if not isinstance(entry, dict) or not entry.keys() <= _GRID_TYPES.keys():
            raise DataError(f"bad grid entry {entry!r}; allowed keys: {sorted(_GRID_TYPES)}")
        for key, value in entry.items():
            _check_grid_value(key, value)
        grid.append(PriorSettings(**entry))
    dataset, config = _load_cv(args)
    best, reports = pipeline.parameter_sweep(dataset, grid, config)
    payload = {
        "best_index": best,
        "best_setting": raw[best],
        "reports": [_report_payload(r) for r in reports],
    }
    _write_json(payload, args.report)
    return (
        f"sweep: best setting index {best} with max accuracy "
        f"{reports[best].max_accuracy:.4f} -> {args.report}"
    )


def _cmd_prevalence(args) -> str:
    archive = io.load_model(args.model)
    labels = _load_labels(args.labels, archive.state.E_v.shape[1])
    prev = pipeline.group_prevalence(archive.state.E_v, labels)
    io.export_heatmap(prev, args.out, style=args.style, cell_px=args.cell_px)
    return f"prevalence: wrote {prev.shape[0]}x{prev.shape[1]} {args.style} heatmap to {args.out}"


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "project": _cmd_project,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "prevalence": _cmd_prevalence,
}


def _check_output_dirs(args):
    """Raise DataError for an output path that is a directory or is in none."""
    for flag in ("out", "bound_trace", "report"):
        path = getattr(args, flag, None)
        if path is not None and Path(path).is_dir():
            raise DataError(f"cannot write {path}: it is a directory")
        if path is not None and not Path(path).parent.is_dir():
            raise DataError(f"cannot write {path}: no directory {Path(path).parent}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_output_dirs(args)  # before any input is loaded or any model fitted
        summary = _COMMANDS[args.command](args)
    # A size too large to allocate is bad input too, not a crash.
    except (DataError, io.FormatError, ValueError, OSError, MemoryError) as exc:
        print(f"gsnmf {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"gsnmf {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
