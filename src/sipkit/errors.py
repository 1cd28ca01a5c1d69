"""Exception types shared across the toolkit."""


class SipkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SipkitError, ValueError):
    """Operands have incompatible shapes."""


class DegenerateArgumentError(SipkitError, ValueError):
    """An argument that must be nonzero (or nondegenerate) is not."""


class UnsupportedNormError(SipkitError, ValueError):
    """Requested operation is undefined for this norm exponent."""


class ConditioningError(SipkitError, ValueError):
    """A weight or transform is numerically singular (cond > 1e12)."""


class EvaluationError(SipkitError, ValueError):
    """A user-supplied callable returned a non-finite or misshaped value."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DivergenceError(SipkitError, RuntimeError):
    """State norm crossed the blow-up sentinel during integration."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class StepSizeError(SipkitError, ValueError):
    """Explicit step violates the advertised stability restriction."""

    def __init__(self, message, suggested=None):
        super().__init__(message)
        self.suggested = suggested


class RegularityError(SipkitError, ValueError):
    """Constraint Jacobian lost full row rank at a zero-set point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SymmetryError(SipkitError, ValueError):
    """Claimed symmetry data is inconsistent (e.g. T^k far from I)."""


class DegenerateProjectionError(SipkitError, ValueError):
    """No transverse direction to rate: the projection covers the whole
    space, or the constraint is rank-deficient at every sampled state."""


class CertificateRefusedError(SipkitError, RuntimeError):
    """A solve was refused because its contraction certificate failed."""
