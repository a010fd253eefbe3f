import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsnmf import io
from gsnmf.engine import FitConfig, fit
from gsnmf.model import GroupAssignment, PriorSettings
from oracles import reference_heatmap
from pgm_reader import load_pgm


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


def test_csv_bytes_are_17_significant_digits_per_value(tmp_path):
    # Signed zero, the smallest subnormal and normal, the largest float,
    # decimals without a short binary form and integers beyond 2**53.
    edge = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3,
            1e16, 1e17, 123456789012345678.0, -0.1, -5e-324, -1.7976931348623157e308]
    rng = np.random.default_rng(4)
    signed = rng.choice([-1.0, 1.0], size=(6, 9)) * np.exp(rng.uniform(-700.0, 700.0, (6, 9)))
    path = tmp_path / "m.csv"
    for m in (np.reshape(edge, (3, 4)), np.array([[-0.0]]), np.array([edge]), signed):
        io.save_matrix(m, path, "csv")
        expected = "\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n"
        assert path.read_bytes() == expected.encode("ascii")
        assert io.load_matrix(path).tobytes() == m.tobytes()


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
    # The first bad line is named, whichever check it fails.
    p.write_text("1,2\n3,inf\n4\n")
    with pytest.raises(io.FormatError, match=r"x\.csv:2: non-finite cell$"):
        io.load_matrix(p)
    p.write_text("1,abc\n")
    with pytest.raises(io.FormatError, match="parse"):
        io.load_matrix(p)
    p.write_text("")
    with pytest.raises(io.FormatError, match="empty"):
        io.load_matrix(p)


def test_csv_with_a_byte_order_mark_loads_as_without_it(tmp_path):
    # Spreadsheet exports often start a UTF-8 CSV with the mark EF BB BF.
    text = "1.5,-2\n3,4e-3\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert io.load_matrix(marked).tobytes() == io.load_matrix(plain).tobytes()


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
    assert raw[len(io.ARCHIVE_MAGIC)] == io.ARCHIVE_VERSION == 3
    for version in (1, 2):
        raw[len(io.ARCHIVE_MAGIC)] = version
        path.write_bytes(bytes(raw))
        with pytest.raises(io.FormatError, match=f"unsupported archive version {version}"):
            io.load_model(path)


def test_model_loader_rejects_a_nonpositive_gamma_shape(tmp_path):
    hyper = PriorSettings(per_group=1).hyperparameters(3, 2, 4)
    groups = GroupAssignment(2, np.array([0, 1, 0, 1]))
    path = tmp_path / "m.gsnm"
    for part in ("alpha", "beta"):
        for bad in (0.0, -1.0, np.inf):
            result = fit(np.ones((3, 4)), hyper, groups, FitConfig(max_sweeps=2))
            getattr(result.state.t, part)[0, 0] = bad
            io.save_model(io.ModelArchive.from_fit(hyper, groups, result), path)
            with pytest.raises(io.FormatError, match="gamma factor"):
                io.load_model(path)


_HEADER = len(io.ARCHIVE_MAGIC)  # version, observed flag, seed, group count
_GROUP_VECTOR = _HEADER + io._ARCHIVE_HEADER.size + 16  # its first entry


@pytest.mark.parametrize("offset, fmt, value, why", [
    (_HEADER + 1, "<B", 7, "bad archive header (observed flag 7 is not 0 or 1)"),
    (_HEADER + 10, "<Q", 3, "bad archive header (3 groups for a prior of 2)"),
    (_GROUP_VECTOR, "<d", 1.5, "bad group vector block"),
    (_GROUP_VECTOR, "<d", np.nan, "bad group vector block"),
    (_GROUP_VECTOR, "<d", -np.inf, "bad group vector block"),
    (_GROUP_VECTOR, "<d", 2.0, "bad group vector block"),
], ids=["observed-flag", "group-count", "index-1.5", "index-nan", "index-inf", "index-2"])
def test_model_loader_rejects_a_bad_header_or_group_vector(tmp_path, offset, fmt, value, why):
    path = saved_archive(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match=re.escape(f"{path}: {why}")):
        io.load_model(path)


@pytest.mark.parametrize("trace", [
    np.ones((2, 3)), np.ones((2, 1)), np.array([[1.5, -3.0]]), np.array([[np.nan, -3.0]]),
    np.array([[-np.inf, -3.0]]), np.array([[2.0**63, -3.0]]),
], ids=["3-columns", "1-column", "sweep-1.5", "sweep-nan", "sweep-inf", "sweep-2**63"])
def test_model_loader_rejects_a_bound_trace_that_is_not_sweep_bound_rows(tmp_path, trace):
    path = saved_archive(tmp_path)
    raw = path.read_bytes()
    stored = 16 + 16 * len(io.load_model(path).bound_trace)  # the last block
    path.write_bytes(raw[:-stored] + struct.pack("<QQ", *trace.shape) + trace.tobytes())
    with pytest.raises(io.FormatError, match=re.escape(f"{path}: bad bound trace block")):
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


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img8 = rng.integers(0, 256, size=(9, 5)).astype(float)
    io.save_pgm(img8, tmp_path / "a.pgm")
    np.testing.assert_array_equal(load_pgm(tmp_path / "a.pgm"), img8)


def test_pgm_ascii_with_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_text("P2\n# a comment\n3 2 # inline\n255\n0 10 20\n30 40 50\n")
    np.testing.assert_array_equal(load_pgm(p), [[0, 10, 20], [30, 40, 50]])


def test_pgm_error_cases(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(io.FormatError, match="magic"):
        load_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(io.FormatError, match="truncated"):
        load_pgm(p)
    p.write_text("P2\n2 1\n255\n1 2 3\n")
    with pytest.raises(io.FormatError, match="expected"):
        load_pgm(p)


def test_export_heatmap_zero_matrix_is_white(tmp_path):
    p = tmp_path / "h.pgm"
    io.export_heatmap(np.zeros((3, 4)), p, "magnitude", cell_px=5)
    img = load_pgm(p)
    assert img.shape == (15, 20)
    assert (img == 255.0).all()


def test_export_heatmap_identity_has_dark_diagonal(tmp_path):
    p = tmp_path / "h.pgm"
    io.export_heatmap(np.eye(3), p, "magnitude", cell_px=2)
    img = load_pgm(p)
    assert img.shape == (6, 6)
    assert (img[:2, :2] == 0.0).all()
    assert (img[:2, 2:] == 255.0).all()


def test_export_heatmap_hinton_square_sizes(tmp_path):
    p = tmp_path / "h.pgm"
    io.export_heatmap(np.array([[1.0, 0.25], [0.0, 1.0]]), p, "hinton", cell_px=8)
    img = load_pgm(p)
    assert img.shape == (16, 16)
    # full-value cell: 8x8 dark block; quarter-value: side 4; zero: none
    assert (img[:8, :8] == 0.0).all()
    assert (img[2:6, 10:14] == 0.0).sum() == 16
    assert (img[8:, :8] == 255.0).all()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(min_value=1, max_value=13),
    cols=st.integers(min_value=1, max_value=13),
    cell_px=st.integers(min_value=1, max_value=13),
    kind=st.sampled_from(["zero", "negative", "signed"]),
    decade=st.integers(min_value=-300, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_export_heatmap_matches_the_cell_by_cell_reference(
    tmp_path, rows, cols, cell_px, kind, decade, seed
):
    # Entries span three decades below 10**decade, some are exactly zero, and
    # the signed kind mixes signs; both styles write the reference's bytes.
    rng = np.random.default_rng(seed)
    m = 10.0 ** (decade - 3.0 * rng.random((rows, cols))) * (rng.random((rows, cols)) < 0.8)
    m = {"zero": 0.0 * m, "negative": -m, "signed": m * rng.choice([-1.0, 1.0], m.shape)}[kind]
    for style in ("magnitude", "hinton"):
        io.export_heatmap(m, tmp_path / "h.pgm", style, cell_px)
        io.save_pgm(reference_heatmap(m, style, cell_px), tmp_path / "ref.pgm")
        assert (tmp_path / "h.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def test_export_heatmap_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        io.export_heatmap(np.array([[np.nan]]), tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        io.export_heatmap(np.ones((2, 2)), tmp_path / "x.pgm", style="rainbow")
