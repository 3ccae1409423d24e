"""Flat-file round trip for observations.

Matrix file: CSV of float64 values, N rows x M columns, no header, printed
with 17 significant digits (exact float64 round trip).  Companion metadata:
a small JSON file recording dims, support, signal level and seed.  Every
JSON input file (metadata, calibration, config) is read by `read_json_object`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .model import Dims, Observation, Support

_FMT = "%.17g"


def default_meta_path(matrix_path) -> Path:
    p = Path(matrix_path)
    return p.with_suffix(p.suffix + ".meta.json")


def read_json_object(path, what: str) -> dict:
    """The JSON object in the `what` file at `path`.  A file that cannot be
    read raises OSError; content that is not UTF-8, not JSON (or nested too
    deeply to decode) or not an object raises ValidationError."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"unreadable {what} file {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise ValidationError(f"{what} file {path} must hold a JSON object")
    return value


def save_matrix(
    obs: Observation,
    matrix_path,
    support: Support | None = None,
    a: float | None = None,
    seed: int | None = None,
    meta_path=None,
) -> Path:
    """Write the CSV matrix plus its metadata file; returns the metadata path."""
    matrix_path = Path(matrix_path)
    meta_path = Path(meta_path) if meta_path is not None else default_meta_path(matrix_path)
    np.savetxt(matrix_path, obs.data, fmt=_FMT, delimiter=",")
    meta = {
        **asdict(obs.dims),
        "rows": list(support.rows) if support is not None else None,
        "cols": list(support.cols) if support is not None else None,
        "a": a,
        "seed": seed,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    return meta_path


def load_matrix(matrix_path, meta_path=None) -> tuple[Observation, dict]:
    """Read a CSV matrix and its metadata; raises ValidationError if a cell is
    not a number, the rows are ragged or the metadata is malformed, and
    DimensionMismatchError if the file contents disagree with the recorded
    dims."""
    matrix_path = Path(matrix_path)
    meta_path = Path(meta_path) if meta_path is not None else default_meta_path(matrix_path)
    meta = read_json_object(meta_path, "metadata")
    for key in ("N", "M", "n", "m"):
        if key not in meta:
            raise ValidationError(f"metadata file {meta_path} missing key {key!r}")
    try:
        dims = Dims(meta["N"], meta["M"], meta["n"], meta["m"])
    except ValidationError as exc:
        raise ValidationError(f"malformed metadata file {meta_path}: {exc}") from exc
    try:
        data = np.loadtxt(matrix_path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"unreadable matrix file {matrix_path}: {exc}") from exc
    if data.shape != dims.shape:
        raise DimensionMismatchError(
            f"matrix file is {data.shape[0]}x{data.shape[1]}, metadata says {dims.N}x{dims.M}"
        )
    return Observation(data, dims), meta
