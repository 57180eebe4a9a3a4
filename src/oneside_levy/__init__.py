"""Grid discretisation, pathwise boundary maps and scale-function formulas
for recurrent spectrally one-sided Levy-type processes restricted to an
interval."""

from .errors import (BarrierError, BracketError, EmptyRegionError,
                     GridMismatchError, InvalidMeasureError,
                     NonConvergenceError, NonUniqueError,
                     NotHessenbergError, OnesideLevyError,
                     OverflowGuardError, QuadratureError, RangeExceededError,
                     SingularSystemError, TailBoundError,
                     TailEpsUnreachableError)
from .grunwald import GrunwaldCoeffs, compute_coeffs, verify_coeffs_cauchy
from .ratemat import (ALL_PAIRS, BoundaryPair, RateMatrix, build_restricted,
                      build_stopped, ergodic_limit_z, landing_law,
                      mean_absorption, resolvent_transpose_e, semigroup_row,
                      stationary_interior, stopped_resolvent_profile,
                      validity_report)
from .symbol import LaplaceExponent, LevyMeasureSpec

from . import mc, paths, scale  # noqa: E402  (submodule access)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
