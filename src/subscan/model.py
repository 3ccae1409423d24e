"""Problem instances: dimensions, planted supports, and observation matrices.

An observation is Y = S + xi with xi i.i.d. standard Gaussian and S zero
everywhere except on a planted n x m submatrix (a row set crossed with a
column set) where every mean is at least `a`.  Generation is a pure function
of (dims, support, signal, seed).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .streams import gaussian_stream

_SUM_LIMIT = sys.float_info.max / 2


def _as_index(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Dims:
    """Matrix size (N, M) and planted submatrix size (n, m), with 1 <= n <= N, 1 <= m <= M."""

    N: int
    M: int
    n: int
    m: int

    def __post_init__(self):
        problems = []
        for name in ("N", "M", "n", "m"):
            v = _as_index(getattr(self, name), name)
            if v < 1:
                problems.append(f"{name} must be >= 1, got {v}")
            object.__setattr__(self, name, v)
        if self.n > self.N:
            problems.append(f"need n <= N, got n={self.n} > N={self.N}")
        if self.m > self.M:
            problems.append(f"need m <= M, got m={self.m} > M={self.M}")
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.N, self.M)


@dataclass(frozen=True)
class Support:
    """A candidate submatrix: strictly increasing row and column index tuples."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def overlap(self, other: "Support") -> int:
        """Number of cells shared with another support."""
        r = len(set(self.rows) & set(other.rows))
        c = len(set(self.cols) & set(other.cols))
        return r * c

    to_dict = asdict


def _canonical_axis(ids: Sequence[int], count: int, axis: str) -> tuple[int, ...]:
    ids = [_as_index(i, f"{axis} index") for i in ids]
    if len(ids) != count:
        raise ValidationError(f"expected {count} {axis} indices, got {len(ids)}")
    return tuple(sorted(ids))


def make_support(dims: Dims, row_ids: Sequence[int], col_ids: Sequence[int]) -> Support:
    """Validate and canonicalize (sort) index lists into a Support.

    Raises ValidationError for a wrong count or a non-integer index, and,
    through check_support, DimensionMismatchError for an out-of-range or
    repeated index.
    """
    support = Support(
        rows=_canonical_axis(row_ids, dims.n, "row"),
        cols=_canonical_axis(col_ids, dims.m, "col"),
    )
    check_support(dims.shape, support)
    return support


def canonical_support(dims: Dims) -> Support:
    """The top-left block: rows 0..n-1 crossed with columns 0..m-1."""
    return Support(tuple(range(dims.n)), tuple(range(dims.m)))


def check_signal_level(a) -> float:
    """`a` as a float; raises ValidationError unless it is finite and >= 0."""
    level = float(a)
    if not math.isfinite(level) or level < 0:
        raise ValidationError(f"a must be finite and >= 0, got {a!r}")
    return level


@dataclass(frozen=True)
class SignalSpec:
    """Signal strength: every supported cell has mean `a` unless an explicit
    per-cell mean table (each entry >= a) is provided."""

    a: float
    means: np.ndarray | None = None

    def __post_init__(self):
        a = check_signal_level(self.a)
        object.__setattr__(self, "a", a)
        if self.means is not None:
            means = np.array(self.means, dtype=np.float64)
            if not np.all(np.isfinite(means)):
                raise ValidationError("means table contains non-finite entries")
            if np.any(means < a):
                raise ValidationError(f"every entry of means must be >= a={a}")
            means.flags.writeable = False
            object.__setattr__(self, "means", means)


@dataclass(frozen=True)
class Observation:
    """An immutable N x M float64 data matrix tied to its Dims.  Every sum a
    scan forms is over distinct cells, so at most max|entry| * N * M, which is
    kept below half the float64 range: room for the exact scan's slack."""

    data: np.ndarray
    dims: Dims

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.shape != self.dims.shape:
            raise DimensionMismatchError(
                f"data shape {data.shape} does not match dims {self.dims.shape}"
            )
        peak = float(np.abs(data).max())  # a Python float, so the product cannot warn
        if not peak * data.size < _SUM_LIMIT:
            raise ValidationError(f"observation needs max|entry| * N * M < {_SUM_LIMIT:.4g}, "
                                  f"got max|entry| = {peak:.4g} with N * M = {data.size}")
        if data.flags.writeable:
            data = data.copy()
            data.flags.writeable = False
        object.__setattr__(self, "data", data)


def check_support(shape: tuple[int, int], support: Support) -> None:
    """Raise DimensionMismatchError unless the rows and the columns of
    `support` are each a nonempty, strictly increasing run of indices inside
    a matrix of this shape."""
    for ids, limit, axis in ((support.rows, shape[0], "rows"), (support.cols, shape[1], "cols")):
        if not ids or ids[0] < 0 or ids[-1] >= limit or not all(map(operator.lt, ids, ids[1:])):
            raise DimensionMismatchError(
                f"support {axis} must be strictly increasing indices in [0, {limit}), got {ids}"
            )


def plant(null: Observation, support: Support, signal: SignalSpec) -> Observation:
    """The noise matrix `null` plus the signal on `support`; `null` is left as
    it is.  With nothing to add (a = 0 and no means table) the result is
    `null` itself, so a -0.0 noise cell stays -0.0 rather than becoming +0.0.
    """
    dims = null.dims
    if len(support.rows) != dims.n or len(support.cols) != dims.m:
        raise DimensionMismatchError(
            f"support is {len(support.rows)}x{len(support.cols)}, dims expect {dims.n}x{dims.m}"
        )
    check_support(dims.shape, support)
    if signal.means is None and signal.a == 0.0:
        return null
    if signal.means is not None and signal.means.shape != (dims.n, dims.m):
        raise DimensionMismatchError(
            f"means table shape {signal.means.shape} does not match ({dims.n}, {dims.m})"
        )
    data = null.data.copy()
    data[np.ix_(support.rows, support.cols)] += signal.a if signal.means is None else signal.means
    data.flags.writeable = False  # a fresh copy, safe to freeze
    return Observation(data, dims)


def generate(dims: Dims, support: Support, signal: SignalSpec, seed: int) -> Observation:
    """Draw Y = S + xi with xi i.i.d. N(0,1) from the stream keyed by seed: a
    draw step, then `plant`.

    The noise depends only on (dims, seed), never on the signal, so runs at
    different signal levels share their noise (common random numbers), and
    at a = 0 the draw is the pure-noise null.
    """
    noise = gaussian_stream(seed).standard_normal(dims.shape)
    noise.flags.writeable = False  # freshly drawn, safe to freeze without a copy
    return plant(Observation(noise, dims), support, signal)


def generate_null(dims: Dims, seed: int) -> Observation:
    """A pure-noise matrix: generate(...) with a = 0 and the same seed."""
    return generate(dims, canonical_support(dims), SignalSpec(0.0), seed)
