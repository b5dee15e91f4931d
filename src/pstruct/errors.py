"""Exception types shared across the package."""


class PStructError(Exception):
    """Base class for package-specific failures."""


class DegeneratePoint(PStructError):
    """Constitutive quantity requested at mu = 0 with a zero-norm tensor."""


class TooCoarse(PStructError):
    """Grid resolution below the supported minimum."""


class EpsTooLarge(PStructError):
    """Mollifier radius too large for the unit cell."""


class UnknownId(PStructError):
    """Right-hand-side catalog id not recognised."""


class DegenerateConfig(PStructError):
    """Solve requested at eta = 0 and mu = 0 without a continuation path."""


class NoConvergence(PStructError):
    """Outer iteration exhausted its budget.

    Carries the best iterate and its report so callers can inspect what was
    achieved.
    """

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


class IllConditioned(PStructError):
    """Inner Krylov solve exceeded its iteration cap or lost definiteness.

    Carries the achieved relative residual and the last iterate.
    """

    def __init__(self, message, achieved=None, field=None):
        super().__init__(message)
        self.achieved = achieved
        self.field = field


class NonFinite(PStructError):
    """A residual, energy or Krylov inner product became NaN or infinite."""


class PathStalled(PStructError):
    """Continuation updates grew for several consecutive steps."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class CoefficientBlowup(PStructError):
    """Frozen-coefficient denominator lost positivity."""


class BadExponent(PStructError):
    """Normal-system assembly requires p > 2."""


class NotConverged(PStructError):
    """Field handed to a post-processor does not solve its equation."""


class BadRange(PStructError):
    """Integrability exponent outside the supported range."""


class ConfigError(PStructError):
    """Malformed experiment configuration; names the offending key."""
