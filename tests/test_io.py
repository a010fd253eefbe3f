import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsnmf import io
from gsnmf.engine import FitConfig, fit
from gsnmf.model import GroupAssignment, PriorSettings


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(min_value=1, max_value=100),
    cols=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_binary_matrix_round_trip_bitwise(tmp_path, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8)
    path = tmp_path / "m.bin"
    io.save_matrix(m, path, "binary")
    np.testing.assert_array_equal(io.load_matrix(path), m)


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(min_value=1, max_value=40),
    cols=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_csv_matrix_round_trip_exact(tmp_path, rows, cols, seed):
    # 17 significant digits in the writer round-trips float64 exactly
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    path = tmp_path / "m.csv"
    io.save_matrix(m, path, "csv")
    np.testing.assert_array_equal(io.load_matrix(path), m)


def test_csv_parsing_and_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(io.load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])

    p.write_text("1,2\n3\n")
    with pytest.raises(io.FormatError, match="ragged"):
        io.load_matrix(p)
    p.write_text("1,nan\n")
    with pytest.raises(io.FormatError, match="non-finite"):
        io.load_matrix(p)
    p.write_text("1,abc\n")
    with pytest.raises(io.FormatError, match="parse"):
        io.load_matrix(p)
    p.write_text("")
    with pytest.raises(io.FormatError, match="empty"):
        io.load_matrix(p)


def test_binary_matrix_header_checks(tmp_path):
    p = tmp_path / "m.bin"
    io.save_matrix(np.ones((2, 2)), p, "binary")
    raw = p.read_bytes()
    p.write_bytes(raw[:5] + raw[5:][:-1])
    with pytest.raises(io.FormatError, match="truncated"):
        io.load_matrix(p)
    p.write_bytes(b"GSNM" + bytes([9]) + raw[5:])
    with pytest.raises(io.FormatError, match="version"):
        io.load_matrix(p)
    with pytest.raises(ValueError):
        io.save_matrix(np.array([[np.inf]]), p, "binary")


def test_model_archive_round_trip_bitwise(tmp_path):
    hyper = PriorSettings(per_group=2).hyperparameters(6, 2, 10)
    rng = np.random.default_rng(0)
    X = rng.integers(0, 6, size=(6, 10)).astype(float)
    for groups in (GroupAssignment(2, np.arange(10) % 2), GroupAssignment.latent(2)):
        result = fit(X, hyper, groups, FitConfig(max_sweeps=7, seed=42))
        archive = io.ModelArchive.from_fit(hyper, groups, result)
        path = tmp_path / "m.gsnm"
        io.save_model(archive, path)
        loaded = io.load_model(path)
        assert loaded.seed == 42
        assert loaded.converged == result.converged
        assert loaded.groups.observed == groups.observed
        assert loaded.groups.n_groups == 2
        assert loaded.bound_trace == result.bound_trace
        for name in ("A_t", "B_t", "A_lambda", "B_lambda", "U"):
            np.testing.assert_array_equal(getattr(loaded.hyper, name), getattr(hyper, name))
        for name in ("t", "v", "lam"):
            for attr in ("alpha", "beta", "mean", "log_mean"):
                np.testing.assert_array_equal(
                    getattr(getattr(loaded.state, name), attr),
                    getattr(getattr(result.state, name), attr),
                    err_msg=f"{name}.{attr}",
                )
        for name in ("Sigma_t", "Sigma_v", "Delta", "Pi"):
            np.testing.assert_array_equal(
                getattr(loaded.state, name), getattr(result.state, name), err_msg=name
            )
        # byte-identical re-serialization
        second = tmp_path / "m2.gsnm"
        io.save_model(loaded, second)
        assert path.read_bytes() == second.read_bytes()


def saved_archive(tmp_path):
    hyper = PriorSettings(per_group=1).hyperparameters(3, 2, 4)
    groups = GroupAssignment(2, np.array([0, 1, 0, 1]))
    result = fit(np.ones((3, 4)), hyper, groups, FitConfig(max_sweeps=2))
    path = tmp_path / "m.gsnm"
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), path)
    return path


def test_model_loader_rejects_version_1_archives(tmp_path):
    path = saved_archive(tmp_path)
    raw = bytearray(path.read_bytes())
    assert raw[len(io.ARCHIVE_MAGIC)] == io.ARCHIVE_VERSION == 2
    raw[len(io.ARCHIVE_MAGIC)] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="unsupported archive version 1"):
        io.load_model(path)


def test_model_loader_rejects_a_nonpositive_gamma_shape(tmp_path):
    hyper = PriorSettings(per_group=1).hyperparameters(3, 2, 4)
    groups = GroupAssignment(2, np.array([0, 1, 0, 1]))
    result = fit(np.ones((3, 4)), hyper, groups, FitConfig(max_sweeps=2))
    result.state.t.alpha[0, 0] = 0.0
    path = tmp_path / "m.gsnm"
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), path)
    with pytest.raises(io.FormatError, match="gamma factor"):
        io.load_model(path)


def test_model_loader_rejects_every_truncation(tmp_path):
    path = saved_archive(tmp_path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.gsnm"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(io.FormatError):
            io.load_model(cut)
    cut.write_bytes(raw[:6])
    with pytest.raises(io.FormatError, match="truncated archive header"):
        io.load_model(cut)


def test_matrix_loader_rejects_archives(tmp_path):
    hyper = PriorSettings(per_group=1).hyperparameters(2, 2, 4)
    groups = GroupAssignment(2, np.array([0, 1, 0, 1]))
    result = fit(np.ones((2, 4)), hyper, groups, FitConfig(max_sweeps=1))
    path = tmp_path / "m.gsnm"
    io.save_model(io.ModelArchive.from_fit(hyper, groups, result), path)
    with pytest.raises(io.FormatError, match="archive"):
        io.load_matrix(path)
    io.save_matrix(np.ones((2, 2)), tmp_path / "plain.bin", "binary")
    with pytest.raises(io.FormatError, match="not a model archive"):
        io.load_model(tmp_path / "plain.bin")


def test_pgm_round_trip_8_and_16_bit(tmp_path):
    rng = np.random.default_rng(1)
    img8 = rng.integers(0, 256, size=(9, 5)).astype(float)
    io.save_pgm(img8, tmp_path / "a.pgm")
    np.testing.assert_array_equal(io.load_pgm(tmp_path / "a.pgm"), img8)
    img16 = rng.integers(0, 60001, size=(4, 6)).astype(float)
    io.save_pgm(img16, tmp_path / "b.pgm", maxval=65535)
    np.testing.assert_array_equal(io.load_pgm(tmp_path / "b.pgm"), img16)


def test_pgm_ascii_with_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_text("P2\n# a comment\n3 2 # inline\n255\n0 10 20\n30 40 50\n")
    np.testing.assert_array_equal(io.load_pgm(p), [[0, 10, 20], [30, 40, 50]])


def test_pgm_error_cases(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(io.FormatError, match="magic"):
        io.load_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(io.FormatError, match="truncated"):
        io.load_pgm(p)
    p.write_text("P2\n2 1\n255\n1 2 3\n")
    with pytest.raises(io.FormatError, match="expected"):
        io.load_pgm(p)


def test_export_heatmap_zero_matrix_is_white(tmp_path):
    p = tmp_path / "h.pgm"
    io.export_heatmap(np.zeros((3, 4)), p, "magnitude", cell_px=5)
    img = io.load_pgm(p)
    assert img.shape == (15, 20)
    assert (img == 255.0).all()


def test_export_heatmap_identity_has_dark_diagonal(tmp_path):
    p = tmp_path / "h.pgm"
    io.export_heatmap(np.eye(3), p, "magnitude", cell_px=2)
    img = io.load_pgm(p)
    assert img.shape == (6, 6)
    assert (img[:2, :2] == 0.0).all()
    assert (img[:2, 2:] == 255.0).all()


def test_export_heatmap_hinton_square_sizes(tmp_path):
    p = tmp_path / "h.pgm"
    io.export_heatmap(np.array([[1.0, 0.25], [0.0, 1.0]]), p, "hinton", cell_px=8)
    img = io.load_pgm(p)
    assert img.shape == (16, 16)
    # full-value cell: 8x8 dark block; quarter-value: side 4; zero: none
    assert (img[:8, :8] == 0.0).all()
    assert (img[2:6, 10:14] == 0.0).sum() == 16
    assert (img[8:, :8] == 255.0).all()


def test_export_heatmap_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        io.export_heatmap(np.array([[np.nan]]), tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        io.export_heatmap(np.ones((2, 2)), tmp_path / "x.pgm", style="rainbow")
