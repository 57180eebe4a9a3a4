"""Exception types shared across the package."""


class OnesideLevyError(Exception):
    """Base class for all package errors."""


class InvalidMeasureError(OnesideLevyError):
    """A Levy measure specification violates its construction constraints."""


class QuadratureError(OnesideLevyError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BracketError(OnesideLevyError):
    """Root bracketing failed (target outside numerically representable range)."""


class OverflowGuardError(OnesideLevyError):
    """A mesh-dependent scale factor exceeds the representable range."""


class TailBoundError(OnesideLevyError):
    """A truncated series remainder exceeds its admissible bound."""


class GridMismatchError(OnesideLevyError):
    """Coefficients and matrix size disagree on the mesh h = 2/(n+1)."""


class SingularSystemError(OnesideLevyError):
    """A linear solve failed or produced a non-finite solution."""


class NotHessenbergError(OnesideLevyError):
    """A matrix handed to the Hessenberg factorisation has a nonzero entry
    below its first subdiagonal."""


class NonUniqueError(OnesideLevyError):
    """A stationary-vector solve found a reducible interior chain."""


class TailEpsUnreachableError(OnesideLevyError):
    """Requested jump-sampling tail mass cannot be met with the stored weights."""


class EmptyRegionError(OnesideLevyError):
    """A path never enters the fast-forwarding region before its horizon."""


class BarrierError(OnesideLevyError):
    """A reflection was started on the wrong side of its barrier."""


class RangeExceededError(OnesideLevyError):
    """Argument outside the documented validity range of a series evaluation."""


class NonConvergenceError(OnesideLevyError):
    """An iterated series or Krylov process failed to meet its error bound
    within the cap."""
