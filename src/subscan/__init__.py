"""Sparse elevated-mean submatrix selection in Gaussian noise.

Instance generation, scan (maximum-sum) selectors (the exact and heuristic
routes behind `scan`, and the brute-force oracle they are tested against),
closed-form critical thresholds with a regime classifier, a two-armed
detection test with Monte Carlo calibration, and a seeded,
thread-count-independent Monte Carlo engine for the selection-risk phase
transition around the critical signal level.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DomainError,
    SubscanError,
    ValidationError,
)
from .model import (
    Dims,
    Observation,
    SignalSpec,
    Support,
    canonical_support,
    generate,
    generate_null,
    make_support,
)
from .matrixio import load_matrix, save_matrix
from .thresholds import (
    RegimeLabel,
    Thresholds,
    classify,
    compute,
    critical_value,
    vector_critical_value,
    vector_critical_value_power_law,
)
from .selector import (
    SelectorResult,
    log_lr,
    scan,
    scan_brute_force,
    scan_exact,
    scan_heuristic,
    vector_select,
)
from .detection import (
    DetectionCalibration,
    DetectionResult,
    calibrate,
    detect,
    linear_statistic,
    scan_statistic,
)
from .montecarlo import (
    RiskEstimate,
    SweepResult,
    estimate_risk,
    max_gauss_exceedance,
    sweep,
    vector_risk,
    wilson_interval,
)

# the public API is exactly the names imported above
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
