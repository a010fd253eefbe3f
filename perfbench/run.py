#!/usr/bin/env python3
"""gsnmf benchmark: one workload, run through the real CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed`` (untimed) into a scratch directory
inside the checkout; the program receives only the files. Each repetition
runs ``gsnmf.cli.main(argv)`` in a fresh child process (``child.py``), and
repetitions continue until ``--seconds`` is spent. Every repetition's
outputs are checked outside the timed region. With ``--trace 0`` the last
stdout line carries the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics, from repetitions that
alternate between untraced and traced. Exit code 0 only when every
repetition succeeded and passed its checks.

``--scale tiny`` shrinks every shape so the benchmark's own check runs fast.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gsnmf  # noqa: E402
from gsnmf import engine, io, model  # noqa: E402

if not Path(gsnmf.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"gsnmf imported from {gsnmf.__file__}, not from {SRC}")

from tracing import layer_metrics  # noqa: E402

# Generator priors (a_small, a_large, b): contrast 16 between a group's own
# rate indicators and the others'. The toy one is that of
# scripts/prior_contrast_sweep.py; its heavy-tailed rates keep accuracy off 1.
# The image one concentrates the rates around their means, so the NNLS work
# of project-image varies little from seed to seed.
TOY_GENERATOR = (1.0, 16.0, 1.0)
IMAGE_GENERATOR = (16.0, 256.0, 1.0 / 16.0)
BOUND_DROP_TOL = 1e-9  # acceptance criterion 01
NNLS_RESIDUAL_RTOL = 1e-8
NNLS_SAMPLE_COLUMNS = 8
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150

SCALES = {
    "full": {
        "train-image": dict(V=1024, T=200, C=10, per_group=5, restarts=1, sweeps=300),
        "evaluate-toy": dict(V=40, T=90, C=3, per_group=2, folds=5, restarts=4, sweeps=300),
        "project-image": dict(V=1024, T=200, M=300, C=10, per_group=5, prep_sweeps=100),
    },
    "tiny": {
        "train-image": dict(V=16, T=12, C=2, per_group=2, restarts=2, sweeps=10),
        "evaluate-toy": dict(V=20, T=16, C=2, per_group=1, folds=2, restarts=1, sweeps=10),
        "project-image": dict(V=16, T=12, M=6, C=2, per_group=2, prep_sweeps=10),
    },
}


def synthetic(V, T, C, per_group, seed, generator):
    """Planted-group counts (V x T) and their labels, deterministic per seed."""
    I = C * per_group
    A_l, B_l = model.build_group_hyperprior(C, per_group, *generator)
    hyper = model.Hyperparameters(
        A_t=np.full((V, I), model.DEFAULT_A_T),
        B_t=np.full((V, I), model.DEFAULT_B_T),
        A_lambda=A_l,
        B_lambda=B_l,
        U=np.ones((T, C)),
    )
    labels = np.arange(T) % C
    X, _ = model.sample_model(hyper, model.GroupAssignment(C, labels), seed)
    return X, labels


def save_inputs(work, X, labels):
    io.save_matrix(X, work / "data.bin", "binary")
    io.save_matrix(labels[None, :].astype(float), work / "labels.bin", "binary")


def nn_accuracy(train, train_labels, test, test_labels, leave_one_out=False):
    """Cosine 1-NN accuracy, computed here so it does not rely on the program."""
    def unit(M):
        norms = np.linalg.norm(M, axis=0)
        return M / np.where(norms > 0.0, norms, 1.0)

    sim = unit(train).T @ unit(test)
    if leave_one_out:
        np.fill_diagonal(sim, -np.inf)
    predicted = train_labels[np.argmax(sim, axis=0)]
    return float(np.mean(predicted == test_labels))


class Failed(Exception):
    """A repetition's output failed its check."""


def prepare_train_image(work, seed, p):
    X, labels = synthetic(p["V"], p["T"], p["C"], p["per_group"], seed, IMAGE_GENERATOR)
    save_inputs(work, X, labels)

    def argv(out):
        return ["train", "--data", str(work / "data.bin"), "--labels", str(work / "labels.bin"),
                "--dict-size", str(p["C"] * p["per_group"]), "--per-group", str(p["per_group"]),
                "--mode", "observed", "--sweeps", str(p["sweeps"]), "--bound-every", "1",
                "--restarts", str(p["restarts"]), "--seed", str(seed),
                "--out", str(out / "model.gsnm"), "--bound-trace", str(out / "trace.csv")]

    def check(out):
        trace = np.loadtxt(out / "trace.csv", delimiter=",", ndmin=2)
        if trace.shape != (p["sweeps"], 1 + p["restarts"]):
            raise Failed(f"bound trace has shape {trace.shape}")
        bounds = trace[:, 1:]
        drop = bounds[:-1] - bounds[1:]
        if (drop > BOUND_DROP_TOL * np.abs(bounds[:-1])).any():
            raise Failed(f"bound dropped by up to {drop.max():.3g}")
        E_v = io.load_model(out / "model.gsnm").state.E_v
        return nn_accuracy(E_v, labels, E_v, labels, leave_one_out=True)

    return argv, check, {"data": list(X.shape), "dict_size": p["C"] * p["per_group"]}


def prepare_evaluate_toy(work, seed, p):
    X, labels = synthetic(p["V"], p["T"], p["C"], p["per_group"], seed, TOY_GENERATOR)
    save_inputs(work, X, labels)
    keys = {"max_accuracy", "mean_accuracy", "variance", "subspace_dimension"}

    def argv(out):
        return ["evaluate", "--data", str(work / "data.bin"), "--labels", str(work / "labels.bin"),
                "--folds", str(p["folds"]), "--runs", "1", "--restarts", str(p["restarts"]),
                "--sweeps", str(p["sweeps"]), "--per-group", str(p["per_group"]),
                "--seed", str(seed), "--report", str(out / "report.json")]

    def check(out):
        report = json.loads((out / "report.json").read_text())
        if set(report) != keys:
            raise Failed(f"report keys {sorted(report)}")
        if not report["max_accuracy"] > 1.0 / p["C"]:
            raise Failed(f"max_accuracy {report['max_accuracy']} not above chance")
        return report["max_accuracy"]

    return argv, check, {"data": list(X.shape), "dict_size": p["C"] * p["per_group"]}


def prepare_project_image(work, seed, p):
    from scipy.optimize import nnls as reference_nnls

    T, M, C, pg = p["T"], p["M"], p["C"], p["per_group"]
    X, labels = synthetic(p["V"], T + M, C, pg, seed, IMAGE_GENERATOR)
    train, held_out = X[:, :T], X[:, T:]
    train_labels, held_out_labels = labels[:T], labels[T:]
    # The dictionary is trained here, untimed, with the CLI's default prior.
    A_l, B_l = model.build_group_hyperprior(C, pg)
    hyper = model.Hyperparameters(
        A_t=np.full((p["V"], C * pg), model.DEFAULT_A_T),
        B_t=np.full((p["V"], C * pg), model.DEFAULT_B_T),
        A_lambda=A_l,
        B_lambda=B_l,
        U=np.ones((T, C)),
    )
    groups = model.GroupAssignment(C, train_labels)
    config = engine.FitConfig(max_sweeps=p["prep_sweeps"],
                              compute_bound_every=p["prep_sweeps"], restarts=1, seed=seed)
    fitted = engine.fit(train, hyper, groups, config)
    io.save_model(io.ModelArchive.from_fit(hyper, groups, fitted), work / "model.gsnm")
    io.save_matrix(held_out, work / "data.bin", "binary")
    dictionary = fitted.state.E_t
    sample = np.random.default_rng(seed).choice(M, size=min(NNLS_SAMPLE_COLUMNS, M), replace=False)

    def argv(out):
        return ["project", "--model", str(work / "model.gsnm"), "--data", str(work / "data.bin"),
                "--out", str(out / "coeffs.csv")]

    def check(out):
        coeffs = np.loadtxt(out / "coeffs.csv", delimiter=",", ndmin=2)
        if coeffs.shape != (C * pg, M):
            raise Failed(f"coefficients have shape {coeffs.shape}")
        if (coeffs < 0.0).any():
            raise Failed("negative coefficient")
        for m in sample:
            b = held_out[:, m]
            ours = np.linalg.norm(b - dictionary @ coeffs[:, m])
            reference = reference_nnls(dictionary, b)[1]
            if abs(ours - reference) > NNLS_RESIDUAL_RTOL * reference:
                raise Failed(f"column {m}: residual {ours!r} vs reference {reference!r}")
        return nn_accuracy(fitted.state.E_v, train_labels, coeffs, held_out_labels)

    return argv, check, {"train": [p["V"], T], "held_out": list(held_out.shape),
                         "dict_size": C * pg}


WORKLOADS = {
    "train-image": prepare_train_image,
    "evaluate-toy": prepare_evaluate_toy,
    "project-image": prepare_project_image,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env):
    """Seconds from spawning a fresh interpreter to ``import gsnmf, gsnmf.cli`` done."""
    code = "import time, gsnmf, gsnmf.cli; print(repr(time.monotonic()))"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout) - start


def run_repetition(out, argv, check, traced, env):
    """One child run plus its output check; returns the child's record or None."""
    out.mkdir()
    record_path = out / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if traced else "0",
           "--", *argv(out)]
    try:
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{out.name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not record_path.exists():
        print(f"{out.name}: child exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    record = json.loads(record_path.read_text())
    if record["exit_code"] != 0:
        print(f"{out.name}: gsnmf exited {record['exit_code']}\n{proc.stderr}", file=sys.stderr)
        return None
    try:
        record["max_accuracy"] = check(out)
    except (Failed, OSError, ValueError) as exc:
        print(f"{out.name}: output check failed: {exc}", file=sys.stderr)
        return None
    return record


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = f"{nproc} (default: nproc)"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            threads = f"{os.environ[var]} ({var})"
            break
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": git_sha(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        argv, check, shapes = WORKLOADS[args.workload](work, args.seed,
                                                      SCALES[args.scale][args.workload])
        # Set-up samples are spread over the run: a few first, then one after
        # each repetition, so they see the same machine state as the rest.
        setups = [] if args.trace else [measure_setup(env) for _ in range(SETUP_SPAWNS)]

        # Closed loop: one repetition at a time until the next would overrun.
        # The traced run alternates untraced and traced repetitions.
        records = {False: [], True: []}
        attempted = failed = 0
        longest = 0.0
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and attempted % 2 == 1
            began = time.monotonic()
            record = run_repetition(work / f"rep{attempted}", argv, check, traced, env)
            attempted += 1
            if record is None:
                failed += 1
            else:
                records[traced].append(record)
            if not args.trace:
                setups.append(measure_setup(env))
            longest = max(longest, time.monotonic() - began)
            enough = attempted >= (2 if args.trace else 1)
            if enough and time.monotonic() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    plain, traced_runs = records[False], records[True]
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    if args.trace:
        per_rep = [layer_metrics(r["spans"]) for r in traced_runs]
        for name in per_rep[0] if per_rep else []:
            values[name] = statistics.median(m[name] for m in per_rep)
            samples[name] = len(per_rep)
        if plain and traced_runs:
            values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_runs)
                                          - statistics.median(r["wall_s"] for r in plain))
            samples["trace.overhead_s"] = min(len(plain), len(traced_runs))
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "max_accuracy") if plain else ():
            values[key] = statistics.median(r[key] for r in plain)
            samples[key] = len(plain)
        values["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        values["success_rate"] = (attempted - failed) / attempted
        samples["success_rate"] = attempted

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]

    info = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "shapes": shapes, "environment": environment(),
            "samples": samples, "attempted": attempted, "failed": failed,
            "repetitions": [
                {"traced": traced, "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                 "peak_rss_mb": r["peak_rss_mb"]}
                for traced in (False, True) for r in records[traced]]}
    print(json.dumps(info))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']:<8s} "
              f"(median of {samples[name]})")
    correct = failed == 0 and not missing
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
