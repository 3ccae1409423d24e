"""Closed-form critical quantities and the selection/detection regime map.

For an N x M matrix with an n x m planted block of mean a, the three scaled
signal levels are

    A  = a * sqrt(nm) / sqrt(2 * (n*log(N/n) + m*log(M/m)))
    A1 = a * sqrt(m)  / (sqrt(2*log(n)) + sqrt(2*log(N-n)))
    A2 = a * sqrt(n)  / (sqrt(2*log(m)) + sqrt(2*log(M-m)))
    B  = min(A1, A2, A)

Selection is consistent when B stays above 1 and impossible when it stays
below 1; the critical signal level a_star is the a at which B = 1, i.e. the
largest of the three per-quantity critical levels.  Detection is governed by
the pair (det_quantity, A) with det_quantity = (a*n*m)^2 / (N*M).

Each quantity is computed as a / (its own critical level), sharing one helper
between the row and column terms, so the (N,n) <-> (M,m) symmetry and the
B(a_star) = 1 identity hold exactly in floating point.

All logarithms are natural.  When n = 1 (or m = 1) the sqrt(2*log(n)) term is
0; that convention is flagged in the classifier's basis record because the
closed forms are calibrated for growing n, m.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError, ValidationError
from .model import Dims, check_signal_level

DEFAULT_MARGIN = 0.05
DEFAULT_DET_LARGE = 3.0
DEFAULT_DET_SMALL = 0.1


@dataclass(frozen=True)
class Thresholds:
    A: float
    A1: float
    A2: float
    B: float
    a_star: float
    det_quantity: float

    to_dict = asdict


@dataclass(frozen=True)
class RegimeLabel:
    """Finite-size regime call: selection and detection labels plus the
    margin comparisons (`basis`) that produced them."""

    selection: str
    detection: str
    basis: dict

    to_dict = asdict


def _edge_critical(k_self: int, K_self: int, k_other: int) -> float:
    # (sqrt(2 log k) + sqrt(2 log(K-k))) / sqrt(k_other); 0 numerator terms at k=1, K-k=1
    return (math.sqrt(2.0 * math.log(k_self)) + math.sqrt(2.0 * math.log(K_self - k_self))) / math.sqrt(k_other)


def _critical_terms(dims: Dims) -> tuple[float, float, float]:
    N, M, n, m = dims.N, dims.M, dims.n, dims.m
    if n >= N:
        raise DomainError(f"threshold formulas need n < N, got n={n}, N={N}")
    if m >= M:
        raise DomainError(f"threshold formulas need m < M, got m={m}, M={M}")
    try:
        t1 = _edge_critical(n, N, m)
        t2 = _edge_critical(m, M, n)
        t3 = math.sqrt(2.0 * (n * math.log(N / n) + m * math.log(M / m))) / math.sqrt(n * m)
    except OverflowError as exc:
        raise DomainError(f"threshold formulas overflow float range: {exc}") from exc
    if t1 == 0.0 or t2 == 0.0:
        raise DomainError(
            "degenerate logarithms (n=1 with N=2, or m=1 with M=2) give a zero denominator"
        )
    return t1, t2, t3


def compute(dims: Dims, a: float) -> Thresholds:
    """Evaluate A, A1, A2, B, a_star and det_quantity at signal level a >= 0."""
    a = check_signal_level(a)
    t1, t2, t3 = _critical_terms(dims)
    A1 = a / t1
    A2 = a / t2
    A = a / t3
    anm = a * (dims.n * dims.m)
    try:
        det_quantity = anm * anm / (dims.N * dims.M)
    except OverflowError as exc:
        raise DomainError(f"det_quantity overflows float range: {exc}") from exc
    return Thresholds(
        A=A,
        A1=A1,
        A2=A2,
        B=min(A1, A2, A),
        a_star=max(t1, t2, t3),
        det_quantity=det_quantity,
    )


def critical_value(dims: Dims) -> float:
    """The signal level a_star at which B = 1: the largest of the three
    per-quantity critical levels."""
    return max(_critical_terms(dims))


def vector_critical_value(N: int, n: int) -> float:
    """Critical signal level sqrt(2 log N) + sqrt(2 log n) for picking the n
    elevated coordinates out of a length-N Gaussian vector."""
    if n < 2 or n >= N:
        raise DomainError(f"vector case needs 2 <= n < N, got n={n}, N={N}")
    return math.sqrt(2.0 * math.log(N)) + math.sqrt(2.0 * math.log(n))


def vector_critical_value_power_law(N: int, beta: float) -> float:
    """Closed form sqrt(2)*(1 + sqrt(1-beta))*sqrt(log N) for power-law
    sparsity.

    Note: this equals vector_critical_value(N, n) exactly when n = N**(1-beta);
    the beta parameterization is kept as published even though reading it as
    n = N**beta would not reproduce the two-term form.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta!r}")
    return math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - beta)) * math.sqrt(math.log(N))


def classify(
    dims: Dims,
    a: float,
    margin: float = DEFAULT_MARGIN,
    det_large: float = DEFAULT_DET_LARGE,
    det_small: float = DEFAULT_DET_SMALL,
) -> RegimeLabel:
    """Map an instance to its selection/detection regime.

    The asymptotic conditions (B above/below 1, det_quantity growing or
    vanishing) are checked as finite-size margins: B against 1 +- margin,
    det_quantity against the configurable heuristic cutoffs.  Inside a margin
    band the label is "boundary" rather than a forced call.
    """
    if not 0.0 < margin < 0.5:
        raise ValidationError(f"margin must lie in (0, 0.5), got {margin!r}")
    if not (math.isfinite(det_large) and math.isfinite(det_small)):
        raise ValidationError(f"det cutoffs must be finite, got {det_small!r} and {det_large!r}")
    if det_small >= det_large:
        raise ValidationError("det_small cutoff must be below det_large")
    th = compute(dims, a)

    if th.B > 1.0 + margin:
        selection = "consistent"
    elif th.B < 1.0 - margin:
        selection = "inconsistent"
    else:
        selection = "boundary"

    if th.det_quantity >= det_large or th.A > 1.0 + margin:
        detection = "distinguishable"
    elif th.det_quantity <= det_small and th.A < 1.0 - margin:
        detection = "indistinguishable"
    else:
        detection = "boundary"

    basis = {
        "a": a,
        "margin": margin,
        **th.to_dict(),
        "det_large_cutoff": det_large,
        "det_small_cutoff": det_small,
        "det_cutoffs_heuristic": True,
        "selection_rule": f"B vs 1 +- {margin}",
        "detection_rule": f"det_quantity >= {det_large} or A > {1.0 + margin}; "
        f"det_quantity <= {det_small} and A < {1.0 - margin}",
        "small_side_log_convention": dims.n == 1 or dims.m == 1,
    }
    if detection == "indistinguishable":
        basis["balance_condition_note"] = (
            "the side-balance condition between n*log(N/n) and m*log(M/m) "
            "required by the impossibility result is not checked"
        )
    return RegimeLabel(selection=selection, detection=detection, basis=basis)
