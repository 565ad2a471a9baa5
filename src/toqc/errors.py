"""Exception types raised across the toolkit."""


class ToqcError(ValueError):
    """Base class for all toolkit errors."""


class DimensionMismatchError(ToqcError):
    """Operands live in different matrix dimensions."""


class InvalidDimensionError(ToqcError):
    """Requested Hilbert-space dimension is not supported (N must be >= 2)."""


class InvalidSubspaceError(ToqcError):
    """A supplied subspace fails the orthonormality (Gram) check."""


class BranchAmbiguityError(ToqcError):
    """A unitary has an eigenvalue too close to the logarithm branch cut."""


class MissingCostateError(ToqcError):
    """A trajectory operation needs costates but none are attached."""


class MissingDerivativeError(ToqcError):
    """A chain/recurrence order needs du/dt on a time-varying arc."""


class ImplicitFunctionError(ToqcError):
    """Boundary-chart reduction attempted at a point where the eliminated
    coordinate (or its constraint gradient) vanishes."""


class InfeasibleReplacementError(ToqcError):
    """A singular-arc replacement would need more control budget than the
    bang piece provides."""


class DegenerateProblemError(ToqcError):
    """Shooting found the maximizer singular on most of the horizon; the
    problem needs a singular-arc analysis instead."""


class ValidationError(ToqcError):
    """An input artifact (JSON, config) failed schema validation."""
