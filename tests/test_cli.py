import json
import struct
import warnings

import numpy as np
import pytest

from cli_launch import run_cli
from gsnmf import io
from gsnmf.engine import FitConfig, fit
from gsnmf.model import GroupAssignment, PriorSettings
from pgm_reader import load_pgm


def generate_args(seed=7, dims="16,4,2,20"):
    return [
        "generate", "--out", "X.bin", "--truth", "truth", "--dims", dims,
        "--a-small", "1", "--a-large", "64", "--b-lambda", "1", "--seed", str(seed),
    ]


def train_args(seed=3, sweeps=20, restarts=2):
    return [
        "train", "--data", "X.bin", "--labels", "truth/z_true.bin",
        "--dict-size", "4", "--sweeps", str(sweeps), "--restarts", str(restarts),
        "--a-small", "1", "--a-large", "64", "--b-lambda", "1",
        "--seed", str(seed), "--out", "model.gsnm", "--bound-trace", "trace.csv",
    ]


@pytest.fixture()
def workspace(tmp_path):
    r = run_cli(generate_args(), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(train_args(), tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path


def test_help_lists_protocol_defaults():
    for sub, needles in {
        "generate": ["--a-small", "--a-large", "--b-lambda", "--a-t", "--b-t", "--seed", "32", "256", "1e6", "0.6", "20"],
        "train": ["--sweeps", "--restarts", "300", "10", "--mode", "--bound-trace"],
        "evaluate": ["--folds", "--runs", "--restarts", "10", "5", "--report"],
        "sweep": ["--grid", "--folds", "--runs"],
        "project": ["--model", "--data", "--out"],
        "classify": ["--train-data", "--train-labels", "--test-data"],
        "prevalence": ["--style", "hinton", "--cell-px"],
    }.items():
        out = run_cli([sub, "--help"])
        assert out.returncode == 0, out.stderr
        for needle in needles:
            assert needle in out.stdout, (sub, needle)


def test_generate_writes_integer_data(workspace):
    X = io.load_matrix(workspace / "X.bin")
    assert X.shape == (16, 20)
    assert (X >= 0).all()
    np.testing.assert_array_equal(X, np.rint(X))
    z = io.load_matrix(workspace / "truth" / "z_true.bin").ravel()
    assert set(np.unique(z)) <= {0.0, 1.0}


def test_train_trace_is_nondecreasing_per_restart(workspace):
    trace = np.loadtxt(workspace / "trace.csv", delimiter=",")
    assert trace.shape == (20, 3)
    for col in range(1, 3):
        diffs = np.diff(trace[:, col])
        assert (diffs >= -np.abs(trace[:-1, col]) * 1e-9).all()


def test_train_single_sweep_trace_has_one_row(tmp_path):
    r = run_cli(generate_args(), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(train_args(sweeps=1, restarts=1), tmp_path)
    assert r.returncode == 0, r.stderr
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert len(rows) == 1


def test_project_and_classify_round_trip(workspace):
    r = run_cli(["project", "--model", "model.gsnm", "--data", "X.bin", "--out", "V.csv"], workspace)
    assert r.returncode == 0, r.stderr
    V = io.load_matrix(workspace / "V.csv")
    assert V.shape == (4, 20)
    assert (V >= 0).all()

    r = run_cli(
        ["classify", "--model", "model.gsnm", "--train-data", "X.bin",
         "--train-labels", "truth/z_true.bin", "--test-data", "X.bin",
         "--out", "pred.csv"],
        workspace,
    )
    assert r.returncode == 0, r.stderr
    predictions = io.load_matrix(workspace / "pred.csv").ravel()
    truth = io.load_matrix(workspace / "truth" / "z_true.bin").ravel()
    np.testing.assert_array_equal(predictions, truth)  # self 1-NN is perfect


def test_evaluate_writes_report(workspace):
    r = run_cli(
        ["evaluate", "--data", "X.bin", "--labels", "truth/z_true.bin",
         "--folds", "4", "--runs", "1", "--restarts", "2", "--sweeps", "25",
         "--per-group", "2", "--a-small", "1", "--a-large", "64",
         "--b-lambda", "1", "--seed", "1", "--report", "report.json"],
        workspace,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((workspace / "report.json").read_text())
    assert set(report) == {"max_accuracy", "mean_accuracy", "variance", "subspace_dimension"}
    assert report["subspace_dimension"] == 4
    assert 0.0 <= report["mean_accuracy"] <= report["max_accuracy"] <= 1.0


def test_train_stores_the_prior_of_its_settings(workspace):
    from gsnmf import PriorSettings

    archive = io.load_model(workspace / "model.gsnm")
    expected = PriorSettings(per_group=2, a_small=1.0, a_large=64.0, b_lambda=1.0).hyperparameters(
        16, 2, 20
    )
    for name in ("A_t", "B_t", "A_lambda", "B_lambda", "U"):
        np.testing.assert_array_equal(getattr(archive.hyper, name), getattr(expected, name))


def test_evaluate_single_group_accepts_a_small_above_a_large(workspace):
    r = run_cli(
        ["evaluate", "--data", "X.bin", "--labels", "truth/z_true.bin",
         "--folds", "4", "--runs", "1", "--restarts", "1", "--sweeps", "10",
         "--per-group", "2", "--single-group", "--a-small", "300",
         "--seed", "1", "--report", "report.json"],
        workspace,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((workspace / "report.json").read_text())
    assert report["subspace_dimension"] == 2


def test_more_folds_than_samples_exits_3(tmp_path):
    io.save_matrix(np.ones((4, 6)), tmp_path / "X.bin", "binary")
    io.save_matrix(np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]), tmp_path / "y.bin", "binary")
    (tmp_path / "grid.json").write_text(json.dumps([{"per_group": 1}]))
    data = ["--data", "X.bin", "--labels", "y.bin", "--folds", "8", "--runs", "1",
            "--restarts", "1", "--sweeps", "5", "--report", "report.json"]
    for command in (["evaluate"], ["sweep", "--grid", "grid.json"]):
        r = run_cli(command + data, tmp_path)
        assert r.returncode == 3, r.stderr
        assert "folds must lie in [2, 6]" in r.stderr
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("entry", [{"a_small": "x"}, {"per_group": 2.5}, {"single_group": "no"}])
def test_sweep_grid_value_of_the_wrong_type_exits_3(tmp_path, entry):
    io.save_matrix(np.ones((4, 6)), tmp_path / "X.bin", "binary")
    io.save_matrix(np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]), tmp_path / "y.bin", "binary")
    (tmp_path / "grid.json").write_text(json.dumps([entry]))
    r = run_cli(["sweep", "--grid", "grid.json", "--data", "X.bin", "--labels", "y.bin",
                 "--folds", "2", "--runs", "1", "--restarts", "1", "--sweeps", "5",
                 "--report", "report.json"], tmp_path)
    assert r.returncode == 3, r.stderr
    assert f"grid key {next(iter(entry))!r}" in r.stderr
    assert not (tmp_path / "report.json").exists()


def test_sweep_selects_and_reports(workspace):
    (workspace / "grid.json").write_text(json.dumps([
        {"per_group": 2, "a_small": 1.0, "a_large": 1.0, "b_lambda": 1.0},
        {"per_group": 2, "a_small": 1.0, "a_large": 64.0, "b_lambda": 1.0},
    ]))
    r = run_cli(
        ["sweep", "--grid", "grid.json", "--data", "X.bin", "--labels",
         "truth/z_true.bin", "--folds", "4", "--runs", "1", "--restarts", "1",
         "--sweeps", "25", "--seed", "1", "--report", "sweep.json"],
        workspace,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((workspace / "sweep.json").read_text())
    assert payload["best_index"] in (0, 1)
    assert len(payload["reports"]) == 2
    assert payload["best_setting"] == json.loads((workspace / "grid.json").read_text())[payload["best_index"]]


def test_prior_contrast_ladder(tmp_path):
    # README's recipe at toy size: data from a contrast-16 generator, then a
    # crossvalidated sweep over a_large in {1, 4, 16, 64, 256} at a_small = 1.
    r = run_cli(["generate", "--out", "data.bin", "--truth", "truth", "--dims", "10,2,2,12",
                 "--a-small", "1", "--a-large", "16", "--b-lambda", "1", "--seed", "4"], tmp_path)
    assert r.returncode == 0, r.stderr
    ladder = [{"per_group": 1, "a_small": 1, "a_large": a, "b_lambda": 1}
              for a in (1, 4, 16, 64, 256)]
    (tmp_path / "grid.json").write_text(json.dumps(ladder))
    r = run_cli(["sweep", "--grid", "grid.json", "--data", "data.bin", "--labels",
                 "truth/z_true.bin", "--folds", "2", "--runs", "1", "--restarts", "1",
                 "--sweeps", "5", "--seed", "4", "--report", "report.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["best_index"] == 2
    reports = payload["reports"]
    assert [x["max_accuracy"] for x in reports] == [0.75, 0.75, 1, 1, 1]
    assert [x["mean_accuracy"] for x in reports] == [0.75, 0.75, 1, 1, 1]
    assert [x["variance"] for x in reports] == [0.0625, 0.0625, 0, 0, 0]
    assert {x["subspace_dimension"] for x in reports} == {2}


@pytest.mark.parametrize("style", ["hinton", "magnitude"])
def test_prevalence_writes_heatmap(workspace, style):
    r = run_cli(
        ["prevalence", "--model", "model.gsnm", "--labels", "truth/z_true.bin",
         "--out", "heat.pgm", "--style", style, "--cell-px", "6"],
        workspace,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"prevalence: wrote 2x4 {style} heatmap to heat.pgm\n"
    img = load_pgm(workspace / "heat.pgm")
    assert img.shape == (2 * 6, 4 * 6)
    assert img.min() == 0  # both styles draw the largest mass black


def test_usage_error_exits_2(tmp_path):
    r = run_cli(["train", "--data", "X.bin"], tmp_path)  # missing required flags
    assert r.returncode == 2
    r = run_cli(["nonsense"], tmp_path)
    assert r.returncode == 2


def test_data_error_exits_3(tmp_path):
    r = run_cli(["project", "--model", "missing.gsnm", "--data", "x", "--out", "y"], tmp_path)
    assert r.returncode == 3
    assert r.stderr != ""
    (tmp_path / "bad.csv").write_text("1,2\n3\n")
    r = run_cli(["train", "--data", "bad.csv", "--labels", "bad.csv",
                 "--dict-size", "2", "--out", "m.gsnm"], tmp_path)
    assert r.returncode == 3


def test_truncated_archive_exits_3(tmp_path):
    (tmp_path / "short.gsnm").write_bytes(b"GSNMA\x02")
    (tmp_path / "x.csv").write_text("1,2\n3,4\n")
    r = run_cli(["project", "--model", "short.gsnm", "--data", "x.csv", "--out", "y.csv"],
                tmp_path)
    assert r.returncode == 3, r.stderr
    assert "truncated archive header" in r.stderr


def small_fit(tmp_path, rows=4):
    """Write a rows x 6 all-ones data file X.bin; return a two-sweep fit to it."""
    hyper = PriorSettings(per_group=1).hyperparameters(rows, 2, 6)
    groups = GroupAssignment(2, np.arange(6) % 2)
    io.save_matrix(np.ones((rows, 6)), tmp_path / "X.bin", "binary")
    return hyper, groups, fit(np.ones((rows, 6)), hyper, groups, FitConfig(max_sweeps=2))


def test_project_on_a_zero_scale_archive_exits_3(tmp_path):
    hyper, groups, result = small_fit(tmp_path)
    result.state.t.beta[0, 0] = 0.0
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), tmp_path / "m.gsnm")
    r = run_cli(["project", "--model", "m.gsnm", "--data", "X.bin", "--out", "V.csv"], tmp_path)
    assert r.returncode == 3, r.stderr
    assert "bad gamma factor" in r.stderr
    assert not (tmp_path / "V.csv").exists()


def test_project_on_an_archive_with_a_bad_prior_exits_3_naming_it(tmp_path):
    hyper, groups, result = small_fit(tmp_path)
    hyper.A_t[0, 0] = -1.0
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), tmp_path / "m.gsnm")
    r = run_cli(["project", "--model", "m.gsnm", "--data", "X.bin", "--out", "V.csv"], tmp_path)
    assert r.returncode == 3, r.stderr
    assert r.stderr == ("gsnmf project: m.gsnm: bad hyperparameter block "
                        "(A_t entries must be finite and > 0)\n")
    assert not (tmp_path / "V.csv").exists()


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    from gsnmf import cli

    hyper, groups, result = small_fit(tmp_path)
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), tmp_path / "m.gsnm")

    def fail(src, dst):
        raise IsADirectoryError(21, "Is a directory", str(src), None, str(dst))

    # The coefficients are written to out.tmp, which then fails to replace out.
    monkeypatch.setattr(io.os, "replace", fail)
    code = cli.main(["project", "--model", str(tmp_path / "m.gsnm"),
                     "--data", str(tmp_path / "X.bin"), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X.bin", "m.gsnm"]


def test_project_on_data_that_overflows_exits_3(tmp_path, capsys):
    from gsnmf import cli

    hyper, groups, result = small_fit(tmp_path, rows=30)
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), tmp_path / "m.gsnm")
    io.save_matrix(np.full((30, 2), 1e308), tmp_path / "big.bin", "binary")
    # In process: the CLI child processes turn numpy's overflow warning into
    # an error, which would stop the solve before its own check.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(["project", "--model", str(tmp_path / "m.gsnm"),
                         "--data", str(tmp_path / "big.bin"), "--out", str(tmp_path / "V.csv")])
    assert code == 3
    assert "sample column 0" in capsys.readouterr().err
    assert not (tmp_path / "V.csv").exists()


def test_project_names_an_overflowing_column_of_a_later_block(tmp_path, capsys, monkeypatch):
    from gsnmf import cli, projection

    hyper, groups, result = small_fit(tmp_path, rows=30)
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), tmp_path / "m.gsnm")
    data = np.ones((30, 5))
    data[:, 3] = 1e308
    io.save_matrix(data, tmp_path / "big.bin", "binary")
    monkeypatch.setattr(projection, "_BLOCK_ELEMENTS", 2 * 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(["project", "--model", str(tmp_path / "m.gsnm"),
                         "--data", str(tmp_path / "big.bin"), "--out", str(tmp_path / "V.csv")])
    assert code == 3
    assert "sample column 3:" in capsys.readouterr().err
    assert not (tmp_path / "V.csv").exists()


@pytest.mark.parametrize("command", [
    ["train", "--data", "X.bin", "--labels", "y.bin", "--dict-size", "2", "--out", "m2.gsnm"],
    ["classify", "--model", "m.gsnm", "--train-data", "X.bin", "--train-labels", "y.bin",
     "--test-data", "X.bin", "--out", "pred.csv"],
    ["evaluate", "--data", "X.bin", "--labels", "y.bin", "--folds", "2", "--runs", "1",
     "--restarts", "1", "--sweeps", "2", "--per-group", "1", "--report", "report.json"],
    ["prevalence", "--model", "m.gsnm", "--labels", "y.bin", "--out", "heat.pgm"],
], ids=lambda command: command[0])
def test_label_count_mismatch_exits_3(tmp_path, command):
    hyper, groups, result = small_fit(tmp_path)
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), tmp_path / "m.gsnm")
    io.save_matrix(np.array([[0.0, 0.0, 0.0, 1.0, 1.0]]), tmp_path / "y.bin", "binary")
    r = run_cli(command, tmp_path)
    assert r.returncode == 3, r.stderr
    assert "5 labels for 6 samples" in r.stderr


def test_a_size_too_large_to_allocate_exits_3(tmp_path, monkeypatch, capsys):
    from gsnmf import cli

    # Raised in place of the allocation: a real multi-TiB request can be
    # granted under memory overcommit and then fill the machine.
    def too_large(self, n_rows, n_groups, n_samples):
        raise MemoryError("Unable to allocate 6.55 TiB for an array with shape (50, 30000000000)")

    monkeypatch.setattr(PriorSettings, "hyperparameters", too_large)
    io.save_matrix(np.ones((4, 6)), tmp_path / "X.bin", "binary")
    io.save_matrix(np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]), tmp_path / "y.bin", "binary")
    code = cli.main(["evaluate", "--data", str(tmp_path / "X.bin"),
                     "--labels", str(tmp_path / "y.bin"), "--folds", "3", "--runs", "1",
                     "--restarts", "1", "--sweeps", "2", "--per-group", "100000000000",
                     "--report", str(tmp_path / "report.json")])
    assert code == 3
    assert "gsnmf evaluate: Unable to allocate 6.55 TiB" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300, 0.5])
def test_a_label_that_is_not_an_int64_exits_3_without_a_warning(tmp_path, capsys, bad):
    # Casting NaN, inf or 1e300 to int warns; the labels are checked before the cast.
    from gsnmf import cli

    io.save_matrix(np.ones((4, 6)), tmp_path / "X.bin", "binary")
    labels = np.array([0.0, 0.0, 0.0, 1.0, 1.0, bad], dtype="<f8")
    # save_matrix refuses non-finite entries, so the file is written by hand.
    header = io.MATRIX_MAGIC + bytes([io.FORMAT_VERSION]) + struct.pack("<QQ", 1, 6)
    (tmp_path / "y.bin").write_bytes(header + labels.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--data", str(tmp_path / "X.bin"), "--labels",
                         str(tmp_path / "y.bin"), "--dict-size", "2",
                         "--out", str(tmp_path / "m.gsnm")])
    assert code == 3
    assert f"{tmp_path / 'y.bin'}: labels must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["train", "--data", "X.bin", "--labels", "y.bin", "--dict-size", "2", "--out", "{missing}"],
    ["train", "--data", "X.bin", "--labels", "y.bin", "--dict-size", "2", "--out", "m.gsnm",
     "--bound-trace", "{missing}"],
    ["project", "--model", "m.gsnm", "--data", "X.bin", "--out", "{missing}"],
    ["classify", "--model", "m.gsnm", "--train-data", "X.bin", "--train-labels", "y.bin",
     "--test-data", "X.bin", "--out", "{missing}"],
    ["prevalence", "--model", "m.gsnm", "--labels", "y.bin", "--out", "{missing}"],
    ["generate", "--out", "{missing}", "--truth", "truth", "--dims", "4,2,2,6"],
    ["evaluate", "--data", "X.bin", "--labels", "y.bin", "--per-group", "2",
     "--report", "{missing}"],
    ["sweep", "--grid", "grid.json", "--data", "X.bin", "--labels", "y.bin",
     "--report", "{missing}"],
], ids=lambda command: command[0] + ("-trace" if "--bound-trace" in command else ""))
def test_an_output_in_a_missing_directory_exits_3_before_any_work(
    tmp_path, monkeypatch, capsys, command
):
    from gsnmf import cli, model, pipeline

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    for owner, name in [(io, "load_matrix"), (io, "load_model"), (pipeline, "evaluate"),
                        (pipeline, "parameter_sweep"), (model, "sample_model")]:
        monkeypatch.setattr(owner, name, no_work)
    missing = tmp_path / "no such dir" / "out.file"
    argv = [str(missing) if a == "{missing}" else a for a in command]
    argv = [str(tmp_path / a) if a.endswith((".bin", ".gsnm", ".json")) else a for a in argv]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"gsnmf {command[0]}: cannot write {missing}: no directory" in err
    assert ".tmp" not in err
    assert not (tmp_path / "truth").exists()


@pytest.mark.parametrize("command", [
    ["train", "--out", "outdir"],
    ["train", "--out", "m.gsnm", "--bound-trace", "outdir"],
    ["evaluate", "--report", "outdir"],
], ids=lambda command: command[0] + ("-trace" if "--bound-trace" in command else ""))
def test_an_output_that_is_a_directory_exits_3_before_any_fit(
    tmp_path, monkeypatch, capsys, command
):
    from gsnmf import cli, engine, pipeline

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started before the output paths were checked")

    monkeypatch.setattr(engine, "multi_restart_fit", no_fit)
    monkeypatch.setattr(pipeline, "evaluate", no_fit)
    monkeypatch.chdir(tmp_path)
    io.save_matrix(np.ones((4, 6)), "X.bin", "binary")
    io.save_matrix(np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]]), "y.bin", "binary")
    (tmp_path / "outdir").mkdir()
    inputs = ["--data", "X.bin", "--labels", "y.bin"]
    inputs += ["--dict-size", "2"] if command[0] == "train" else ["--per-group", "1"]
    assert cli.main(command[:1] + inputs + command[1:]) == 3
    err = capsys.readouterr().err
    assert err == f"gsnmf {command[0]}: cannot write outdir: it is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X.bin", "outdir", "y.bin"]


def test_numerical_failure_exits_4(monkeypatch, capsys):
    from gsnmf import cli
    from gsnmf.engine import NumericalError

    def explode(args):
        raise NumericalError("non-finite values in E_t at sweep 3")

    monkeypatch.setitem(cli._COMMANDS, "project", explode)
    code = cli.main(["project", "--model", "m", "--data", "d", "--out", "o"])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_train_that_loses_the_counts_exits_4(tmp_path):
    io.save_matrix(np.full((4, 6), 5.0), tmp_path / "X.bin", "binary")
    io.save_matrix((np.arange(6) % 2)[None, :].astype(float), tmp_path / "y.bin", "binary")
    r = run_cli(["train", "--data", "X.bin", "--labels", "y.bin", "--dict-size", "2",
                 "--a-t", "1e-3", "--sweeps", "20", "--restarts", "2", "--out", "m.gsnm"],
                tmp_path)
    assert r.returncode == 4, r.stderr
    assert "counts not conserved in Sigma_v at sweep 1 in restart 0" in r.stderr
    assert not (tmp_path / "m.gsnm").exists()


def test_a_prior_sum_that_overflows_exits_4_without_numpy_warnings(tmp_path):
    # The smallest scale above the limit: 1 / B_lambda plus the coefficient
    # sums overflows, so the coefficient scale is 0 and its log -inf. The
    # child turns a RuntimeWarning into an error, so a warning would not exit 4.
    io.save_matrix(np.full((4, 6), 5.0), tmp_path / "X.bin", "binary")
    io.save_matrix((np.arange(6) % 2)[None, :].astype(float), tmp_path / "y.bin", "binary")
    r = run_cli(["train", "--data", "X.bin", "--labels", "y.bin", "--dict-size", "2",
                 "--sweeps", "5", "--restarts", "1", "--b-lambda", "5.56268464626801e-309",
                 "--out", "m.gsnm"], tmp_path)
    assert r.returncode == 4, r.stderr
    assert r.stderr == (
        "gsnmf train: numerical failure: non-finite bound contribution from the "
        "coefficient terms at sweep 1 in restart 0\n"
    )


@pytest.mark.parametrize("command", [
    pytest.param(["train", "--dict-size", "2", "--a-t", "1e-310", "--out", "out"], id="a_t-1e-310"),
    pytest.param(["train", "--dict-size", "2", "--a-t", "1e308", "--out", "out"], id="a_t-1e308"),
    pytest.param(["evaluate", "--per-group", "1", "--folds", "2", "--runs", "1",
                  "--a-small", "1e-320", "--a-large", "1", "--report", "out"], id="a_small-1e-320"),
])
def test_a_prior_that_overflows_in_the_set_up_exits_4_with_one_line(tmp_path, command):
    # Valid but extreme priors overflow before the first sweep; the child
    # turns a RuntimeWarning into an error, so a warning would not exit 4.
    io.save_matrix(np.full((4, 6), 5.0), tmp_path / "X.bin", "binary")
    io.save_matrix((np.arange(6) % 2)[None, :].astype(float), tmp_path / "y.bin", "binary")
    r = run_cli(command[:1] + ["--data", "X.bin", "--labels", "y.bin", "--sweeps", "5",
                               "--restarts", "1"] + command[1:], tmp_path)
    assert r.returncode == 4, r.stderr
    assert r.stderr.startswith(f"gsnmf {command[0]}: numerical failure: ")
    assert r.stderr.count("\n") == 1, r.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["generate", "--out", "X.bin", "--truth", "truth", "--dims", "4,2,2,6"],
    ["train", "--data", "X.bin", "--dict-size", "2", "--out", "m.gsnm"],
    ["evaluate", "--data", "X.bin", "--labels", "y.bin", "--report", "r.json"],
    ["sweep", "--grid", "g.json", "--data", "X.bin", "--labels", "y.bin", "--report", "r.json"],
], ids=lambda command: command[0])
def test_a_negative_seed_is_a_usage_error_naming_the_flag(command, capsys):
    from gsnmf import cli

    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--seed", "-1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"gsnmf {command[0]}: error: argument --seed: "
                        "expected a nonnegative integer, got '-1'\n"), err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("option, value, name", [
    ("--b-lambda", "5e-309", "B_lambda"), ("--b-lambda", "1e-310", "B_lambda"),
    ("--b-t", "1e-310", "B_t"),
])
def test_a_prior_scale_without_a_finite_reciprocal_exits_3(tmp_path, command, option, value, name):
    io.save_matrix(np.full((4, 6), 5.0), tmp_path / "X.bin", "binary")
    io.save_matrix((np.arange(6) % 2)[None, :].astype(float), tmp_path / "y.bin", "binary")
    args = {
        "train": ["--dict-size", "2", "--out", "out"],
        "evaluate": ["--per-group", "1", "--folds", "2", "--runs", "1", "--report", "out"],
    }[command]
    r = run_cli([command, "--data", "X.bin", "--labels", "y.bin", "--sweeps", "5",
                 "--restarts", "1", option, value, *args], tmp_path)
    assert r.returncode == 3, r.stderr
    assert f"gsnmf {command}: {name} entries must be > 5.563e-309" in r.stderr
    assert not (tmp_path / "out").exists()


def test_latent_mode_without_labels(tmp_path):
    r = run_cli(generate_args(), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--data", "X.bin", "--dict-size", "4", "--per-group", "2",
         "--mode", "latent", "--sweeps", "10", "--restarts", "1",
         "--a-small", "1", "--a-large", "64", "--b-lambda", "1",
         "--seed", "0", "--out", "latent.gsnm"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    archive = io.load_model(tmp_path / "latent.gsnm")
    assert not archive.groups.observed
    assert archive.groups.n_groups == 2


@pytest.mark.parametrize("per_group", ["0", "-2"])
def test_latent_mode_without_labels_rejects_a_nonpositive_per_group(tmp_path, per_group):
    r = run_cli(generate_args(), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--data", "X.bin", "--dict-size", "4", "--per-group", per_group,
                 "--mode", "latent", "--out", "m.gsnm"], tmp_path)
    assert r.returncode == 3, r.stderr
    assert "--per-group must be >= 1" in r.stderr
    assert "Traceback" not in r.stderr


def test_observed_mode_requires_labels(tmp_path):
    r = run_cli(generate_args(), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--data", "X.bin", "--dict-size", "4",
                 "--out", "m.gsnm"], tmp_path)
    assert r.returncode == 3
    assert "labels" in r.stderr
