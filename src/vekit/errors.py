"""Exception types shared across the package."""


class VekitError(Exception):
    """Base class for all vekit errors."""


class DomainError(VekitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SupportExhaustedError(VekitError):
    """A time or cumulative-hazard value lies beyond the model's support."""


class UndefinedEstimandError(VekitError):
    """The requested estimand is undefined for these inputs (e.g. F0(t)=0)."""


class SolverError(VekitError):
    """An iterative solver failed to bracket or converge."""


class GuardTimeError(DomainError):
    """A grid point precedes the guard time below which a transform is undefined."""

