"""Certified approximations for Bessel J_nu and Airy Ai(-x).

Every approximation carries an explicit half-width bounding its error;
every inequality is a checkable report; a high-precision series evaluator
arbitrates all claims.
"""

from types import ModuleType as _ModuleType

from .oracle import (
    BoundReport,
    DomainError,
    EvalResult,
    Order,
    PrecisionError,
    airy_ai_neg_prime_ref,
    airy_ai_neg_ref,
    bessel_j_prime_ref,
    bessel_j_ref,
    gamma,
    refine_root,
)
from .approx import (
    ApproxValue,
    PhaseValue,
    airy_approx,
    best_approx,
    classic_oscillatory,
    olver_coefficient,
    olver_expansion,
    phase_B,
    sharper_oscillatory,
    simplified_oscillatory,
    transition,
    transition_x,
)
from .bounds import (
    AIRY_C,
    SoninSample,
    airy_envelope_maxima,
    bound_airy_envelope,
    bound_derivative,
    bound_envelope,
    bound_log_derivative,
    bound_monotonic,
    bound_near_first_zero,
    bound_watson,
    bound_wronskian_kernel,
    leftmost_max_check,
    lemma_integral_check,
    sonin_eval,
)
from .zeros import (
    ZeroEstimate,
    airy_zero_estimate,
    bessel_first_zeros_estimate,
    center_gap_check,
    conjecture_check,
    refine_airy_zero,
    refine_bessel_zero,
)
from .scan import (
    GridSpec,
    ScanReport,
    ScanRow,
    SupResult,
    olenko_sup,
    scan_rows,
    verify_approx_grid,
    verify_bounds_grid,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
