"""PGM reader for tests: checks what ``gsnmf.io`` writes as heatmaps.

The program only writes PGM images (``gsnmf.io.save_pgm``); reading them back
is needed by the tests alone.
"""

from pathlib import Path

import numpy as np

from gsnmf.io import FormatError


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
