"""Exception types shared across the library, and its one range check: every
prefactor, radial factor and certificate lhs goes through `in_range`, which
raises DomainError naming its inputs where one overflows or underflows to 0."""

import math

import numpy as np


class PolyKernelError(Exception):
    """Base class for every error raised by this package."""


# --- scalar special functions ---------------------------------------------

class PoleError(PolyKernelError):
    """Evaluation requested exactly at (or too close to) a pole."""


class ParameterPoleError(PolyKernelError):
    """A lower hypergeometric parameter hits a non-positive integer."""


class ConvergenceError(PolyKernelError):
    """A series failed to reach the requested tolerance in the term budget."""


class SlowConvergenceError(PolyKernelError):
    """Argument too close to a singular point for full-accuracy summation."""


class NonTerminatingError(PolyKernelError):
    """A 3F2 at unit argument was requested without a terminating parameter."""


class ZeroParameterError(PolyKernelError):
    """Gegenbauer order 0 requested; use the Chebyshev limit instead."""


class DomainError(PolyKernelError):
    """Argument outside the function's real domain.

    The geometry errors below are domain errors too: a configuration on the
    singular set is input the function is not defined for.
    """


def require_finite(**values):
    """Raise DomainError naming the first value that is not finite.

    Each value is a float or a sequence of floats.  A non-finite argument
    must stop before any series: NaN terms never meet a stopping rule, so the
    sum would run to its term limit and report non-convergence instead.
    """
    for name, value in values.items():
        if not all(map(math.isfinite, value if isinstance(value, (tuple, list)) else (value,))):
            raise DomainError(f"{name} must be finite, got {value}")


def in_range(build, what, /, tiny=0.0, **params):
    """build() where its largest magnitude is finite and above ``tiny``,
    else DomainError "<params>: <what>", what saying how it leaves double
    range.  build() is a float or a radial column; an overflow or a division
    by zero inside it counts as past range.  A factor of 0 would zero every
    term, so that no sum converges, or read as a disagreeing certificate."""
    try:
        value = build()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    peak = np.abs(value).max() if isinstance(value, np.ndarray) else abs(value)
    if tiny < peak < math.inf:
        return value
    named = ", ".join(f"{name} = {given}" for name, given in params.items())
    floor = f" or falls to {tiny:.3g} or below" if tiny else ""
    raise DomainError(f"{named}: {what}{floor}")


# --- kernels ---------------------------------------------------------------

class OddDimensionError(PolyKernelError):
    """The logarithmic-branch constant is only defined for even dimension."""


class CoincidentPointsError(DomainError):
    """The two evaluation points coincide."""


class SingularConfigurationError(DomainError):
    """Geometry sits on (or too near) the kernel's singular set."""


class AxisError(DomainError):
    """A point lies on the rotation axis, so the azimuth is undefined."""


class CoincidentRadiusError(DomainError):
    """r and r' are too close, collapsing the radial expansion argument to 1."""


class ExclusionSetError(PolyKernelError):
    """The power parameter lies in the expansion's excluded set."""


# --- polyspherical trees ---------------------------------------------------

class TreeParseError(PolyKernelError):
    """Base for naming-language parse failures; carries the token position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at token position {position})")
        self.position = position


class UnexpectedEnd(TreeParseError):
    pass


class TrailingTokens(TreeParseError):
    pass


class ZeroExponent(TreeParseError):
    pass


class UnknownToken(TreeParseError):
    pass


class AngleRangeError(PolyKernelError):
    """An angle lies outside its node type's range."""


class InadmissibleKeyError(PolyKernelError):
    """Quantum numbers violate a branching-node admissibility constraint."""
