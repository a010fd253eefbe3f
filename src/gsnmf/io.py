"""File formats: matrices (binary and CSV), model archives, and PGM
images, which carry the grayscale heatmap export.

Binary matrix files carry magic ``GSNM``, a version byte of 1, two
little-endian uint64 shape fields, then the row-major float64 payload.
Model archives carry magic ``GSNMA``, a version byte of 2, a fixed header
(mode, seed, convergence flag, group count) and then the same matrix
blocks: the group vector, five hyperparameter blocks, ten state blocks
(alpha and beta of the dictionary, coefficient and rate-indicator gamma
factors, then Sigma_t, Sigma_v, Delta, Pi) and the bound trace. Gamma
means and log-means are rebuilt from (alpha, beta) on load. Both formats
round-trip bitwise.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import FitResult, VariationalState
from .model import GroupAssignment, Hyperparameters
from .numerics import GammaFactor

__all__ = [
    "FormatError",
    "ModelArchive",
    "save_matrix",
    "load_matrix",
    "save_model",
    "load_model",
    "load_pgm",
    "save_pgm",
    "export_heatmap",
]

MATRIX_MAGIC = b"GSNM"
ARCHIVE_MAGIC = b"GSNMA"
FORMAT_VERSION = 1
ARCHIVE_VERSION = 2
# Version, observed flag, seed, converged flag, group count.
_ARCHIVE_HEADER = struct.Struct("<BBqBQ")


class FormatError(ValueError):
    """Malformed or unsupported file content."""


def _atomic_write(path, payload: bytes):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _matrix_block(matrix: np.ndarray) -> bytes:
    m = np.ascontiguousarray(matrix, dtype="<f8")
    rows, cols = m.shape
    return struct.pack("<QQ", rows, cols) + m.tobytes()


def _read_matrix_block(buf: memoryview, offset: int) -> tuple[np.ndarray, int]:
    if len(buf) < offset + 16:
        raise FormatError("truncated matrix block header")
    rows, cols = struct.unpack_from("<QQ", buf, offset)
    offset += 16
    nbytes = rows * cols * 8
    if len(buf) < offset + nbytes:
        raise FormatError("truncated matrix payload")
    data = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=offset)
    return data.reshape(rows, cols).copy(), offset + nbytes


def save_matrix(matrix, path, format: str = "binary"):
    """Write a 2-D float64 matrix as binary (bit-exact) or CSV text."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if format == "binary":
        _atomic_write(path, MATRIX_MAGIC + bytes([FORMAT_VERSION]) + _matrix_block(m))
    elif format == "csv":
        lines = "\n".join(",".join(f"{v:.17g}" for v in row) for row in m)
        _atomic_write(path, (lines + "\n").encode("ascii"))
    else:
        raise ValueError(f"unknown format {format!r}")


def load_matrix(path) -> np.ndarray:
    """Read a matrix file, auto-detecting binary versus CSV by magic bytes."""
    raw = Path(path).read_bytes()
    if raw.startswith(ARCHIVE_MAGIC):
        raise FormatError(f"{path} is a model archive, not a matrix file")
    if raw.startswith(MATRIX_MAGIC):
        if len(raw) < 5:
            raise FormatError("truncated binary matrix header")
        if raw[4] != FORMAT_VERSION:
            raise FormatError(f"unsupported matrix format version {raw[4]}")
        matrix, end = _read_matrix_block(memoryview(raw), 5)
        if end != len(raw):
            raise FormatError("trailing bytes after matrix payload")
        return matrix
    return _parse_csv(raw, path)


def _parse_csv(raw: bytes, path) -> np.ndarray:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: neither a binary matrix nor text") from exc
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: cell does not parse as a real") from exc
        if any(not np.isfinite(v) for v in values):
            raise FormatError(f"{path}:{ln}: non-finite cell")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(f"{path}:{ln}: ragged row ({len(values)} != {width})")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: empty matrix")
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class ModelArchive:
    """Everything needed to reuse a fitted model, bitwise-stable on disk."""

    hyper: Hyperparameters
    groups: GroupAssignment
    state: VariationalState
    bound_trace: list[tuple[int, float]]
    seed: int
    converged: bool

    @classmethod
    def from_fit(
        cls, hyper: Hyperparameters, groups: GroupAssignment, result: FitResult
    ) -> "ModelArchive":
        return cls(
            hyper=hyper,
            groups=groups,
            state=result.state,
            bound_trace=list(result.bound_trace),
            seed=result.seed,
            converged=result.converged,
        )


# Each gamma factor is stored as its alpha and beta blocks, in this order.
_STATE_FACTORS = ("t", "v", "lam")
_STATE_MATRICES = ("Sigma_t", "Sigma_v", "Delta", "Pi")
_STATE_BLOCKS = 2 * len(_STATE_FACTORS) + len(_STATE_MATRICES)


def save_model(archive: ModelArchive, path):
    """Serialize a model archive; load_model(save_model(m)) is bitwise exact."""
    h = archive.hyper
    parts = [
        ARCHIVE_MAGIC,
        _ARCHIVE_HEADER.pack(
            ARCHIVE_VERSION,
            1 if archive.groups.observed else 0,
            int(archive.seed),
            1 if archive.converged else 0,
            archive.groups.n_groups,
        ),
    ]
    z = archive.groups.z if archive.groups.observed else np.zeros(0, dtype=int)
    parts.append(_matrix_block(np.asarray(z, dtype=float).reshape(1, -1)))
    for m in (h.A_t, h.B_t, h.A_lambda, h.B_lambda, h.U):
        parts.append(_matrix_block(m))
    for name in _STATE_FACTORS:
        factor = getattr(archive.state, name)
        parts += [_matrix_block(factor.alpha), _matrix_block(factor.beta)]
    for name in _STATE_MATRICES:
        parts.append(_matrix_block(getattr(archive.state, name)))
    trace = np.array(
        [(float(s), b) for s, b in archive.bound_trace], dtype=float
    ).reshape(-1, 2)
    parts.append(_matrix_block(trace))
    _atomic_write(path, b"".join(parts))


def load_model(path) -> ModelArchive:
    raw = Path(path).read_bytes()
    if not raw.startswith(ARCHIVE_MAGIC):
        raise FormatError(f"{path} is not a model archive")
    offset = len(ARCHIVE_MAGIC)
    if len(raw) < offset + _ARCHIVE_HEADER.size:
        raise FormatError("truncated archive header")
    version, observed, seed, converged, n_groups = _ARCHIVE_HEADER.unpack_from(raw, offset)
    if version != ARCHIVE_VERSION:
        raise FormatError(f"unsupported archive version {version}")
    buf = memoryview(raw)
    z_matrix, offset = _read_matrix_block(buf, offset + _ARCHIVE_HEADER.size)
    blocks = []
    for _ in range(5 + _STATE_BLOCKS + 1):
        block, offset = _read_matrix_block(buf, offset)
        blocks.append(block)
    if offset != len(raw):
        raise FormatError("trailing bytes after archive payload")
    A_t, B_t, A_lambda, B_lambda, U = blocks[:5]
    hyper = Hyperparameters(A_t=A_t, B_t=B_t, A_lambda=A_lambda, B_lambda=B_lambda, U=U)
    if observed:
        groups = GroupAssignment(int(n_groups), z_matrix.ravel().astype(int))
    else:
        groups = GroupAssignment.latent(int(n_groups))
    state_blocks = iter(blocks[5:-1])
    try:
        factors = {
            name: GammaFactor(next(state_blocks), next(state_blocks)) for name in _STATE_FACTORS
        }
    except ValueError as exc:
        raise FormatError(f"{path}: bad gamma factor shape block ({exc})") from exc
    state = VariationalState(**factors, **dict(zip(_STATE_MATRICES, state_blocks)))
    trace = [(int(s), float(b)) for s, b in blocks[-1]]
    return ModelArchive(
        hyper=hyper,
        groups=groups,
        state=state,
        bound_trace=trace,
        seed=int(seed),
        converged=bool(converged),
    )


def load_pgm(path) -> np.ndarray:
    """Read a P2 (ascii) or P5 (binary) PGM image as a float64 matrix."""
    raw = Path(path).read_bytes()
    if raw[:2] not in (b"P2", b"P5"):
        raise FormatError(f"{path}: unsupported magic {raw[:2]!r}")
    binary = raw[:2] == b"P5"

    # Header tokens (width, height, maxval) with '#' comments allowed.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(raw):
            raise FormatError(f"{path}: truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            tokens.append(raw[start:pos])
    width, height, maxval = (int(t) for t in tokens)
    if not (0 < maxval <= 65535):
        raise FormatError(f"{path}: maxval {maxval} out of range")

    if binary:
        pos += 1  # single whitespace after maxval
        dtype = ">u2" if maxval > 255 else "u1"
        count = width * height
        itemsize = 2 if maxval > 255 else 1
        if len(raw) - pos < count * itemsize:
            raise FormatError(f"{path}: truncated pixel payload")
        data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    else:
        values = raw[pos:].split()
        if len(values) != width * height:
            raise FormatError(f"{path}: expected {width * height} pixels, got {len(values)}")
        data = np.array([int(v) for v in values])
    if data.max(initial=0) > maxval:
        raise FormatError(f"{path}: pixel exceeds maxval")
    return data.reshape(height, width).astype(float)


def save_pgm(image, path, maxval: int = 255):
    """Write an integer-valued matrix as a binary (P5) PGM."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if not (0 < maxval <= 65535):
        raise ValueError("maxval out of range")
    clipped = np.clip(np.rint(img), 0, maxval)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
    payload = clipped.astype(">u2" if maxval > 255 else "u1").tobytes()
    _atomic_write(path, header + payload)


def export_heatmap(matrix, path, style: str = "magnitude", cell_px: int = 8):
    """Render a matrix as a grayscale PGM.

    ``magnitude`` shades each cell linearly (dark = large); ``hinton`` draws
    a centered dark square per cell with side proportional to sqrt(value).
    The output image is (cell_px * rows, cell_px * cols).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if cell_px < 1:
        raise ValueError("cell_px must be >= 1")
    mags = np.maximum(m, 0.0)
    top = mags.max()
    scaled = mags / top if top > 0.0 else np.zeros_like(mags)
    rows, cols = m.shape
    canvas = np.full((rows * cell_px, cols * cell_px), 255.0)
    if style == "magnitude":
        shades = np.rint(255.0 * (1.0 - scaled))
        canvas = np.kron(shades, np.ones((cell_px, cell_px)))
    elif style == "hinton":
        sides = np.rint(cell_px * np.sqrt(scaled)).astype(int)
        for r in range(rows):
            for c in range(cols):
                s = sides[r, c]
                if s <= 0:
                    continue
                r0 = r * cell_px + (cell_px - s) // 2
                c0 = c * cell_px + (cell_px - s) // 2
                canvas[r0 : r0 + s, c0 : c0 + s] = 0.0
    else:
        raise ValueError(f"unknown heatmap style {style!r}")
    save_pgm(canvas, path)
