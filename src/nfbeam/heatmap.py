"""Binary 16-bit portable graymap export for scalar grids.

The format is deliberately dependency-free and bit-exact: values map
linearly from their [min, max] onto [0, 65535] (a constant grid is all
zeros), pixels are big-endian uint16, columns follow the grid's first axis
left-to-right and rows its second axis bottom-to-top.  A sidecar text file
records the mapping so the image is self-describing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PGM_MAXVAL = 65535


def write_pgm16(values: np.ndarray, path: str | Path) -> tuple[float, float]:
    """Write ``values[i1, i2]`` as a 16-bit graymap of its [min, max]; returns (min, max)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"heatmap values must be 2-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("heatmap values must be finite")
    lo = float(np.min(v))
    hi = float(np.max(v))
    if hi > lo:
        scaled = np.round((v - lo) / (hi - lo) * PGM_MAXVAL)
    else:
        scaled = np.zeros_like(v)
    pixels = scaled.astype(">u2")
    # image rows run top-to-bottom; the second grid axis runs bottom-to-top
    image = pixels.T[::-1, :]
    width, height = v.shape[0], v.shape[1]
    header = f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())
    return lo, hi


def write_sidecar(
    path: str | Path,
    quantity: str,
    lo: float,
    hi: float,
    extra: list[tuple[str, object]] | None = None,
) -> None:
    """Describe a graymap's linear mapping in key: value lines."""
    entries: list[tuple[str, object]] = [
        ("quantity", quantity),
        ("value_at_0", f"{lo:.17g}"),
        (f"value_at_{PGM_MAXVAL}", f"{hi:.17g}"),
        ("orientation", "first axis left-to-right, second axis bottom-to-top"),
    ]
    entries.extend(extra or [])
    Path(path).write_text("".join(f"{k}: {v}\n" for k, v in entries))
