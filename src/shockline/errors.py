"""Exception hierarchy shared by all shockline modules."""


class ShocklineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShocklineError):
    """An input is outside the mathematical domain of the operation."""


class RangeError(ShocklineError):
    """A result would overflow double precision (log magnitude > 700)."""


class RegimeError(ShocklineError):
    """The (alpha, lambda, gamma) triple is outside the applicable regime."""


class CoefficientError(ShocklineError):
    """A Riccati coefficient violated its sign contract (c2 must be > 0)."""


class ToleranceError(ShocklineError):
    """The adaptive integrator could not meet the requested tolerance."""


class NoBoundError(ShocklineError):
    """The blow-up criterion is inconclusive on the queried horizon."""


class HypothesisError(ShocklineError):
    """The hypothesis of a blow-up bound is not met by the inputs."""


class VacuumError(ShocklineError):
    """Specific volume dropped to zero or below during a simulation."""


class TraceError(ShocklineError):
    """A characteristic trace left the stored space-time window."""


class ConfigError(ShocklineError):
    """A scenario or sweep configuration failed validation."""
