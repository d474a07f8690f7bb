"""Exception types shared across the package.

Infeasibility of a linear system is reported by ``gf2.solve`` returning
``None``, not by an exception.
"""


class GowersFormsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GowersFormsError):
    """Operands live in incompatible spaces (wrong dim or arity)."""


class NotSymmetric(GowersFormsError):
    """A symmetry precondition does not hold."""


class NotStronglySymmetric(GowersFormsError):
    """A strong-symmetry precondition does not hold."""


class BudgetExceeded(GowersFormsError):
    """An exhaustive enumeration would exceed the configured budget."""


class SizeGuard(GowersFormsError):
    """Inputs fall outside the exact method's guarded domain."""


class SolverFailed(GowersFormsError):
    """The coefficient solver could not satisfy its constraints."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CertificateInvalid(GowersFormsError):
    """A decomposition certificate, supplied or constructed, does not verify."""


class StepFailed(GowersFormsError):
    """A driver step could not complete; carries partial progress."""

    def __init__(self, step, message, partial=None, diagnostics=None):
        super().__init__(f"{step}: {message}")
        self.step = step
        self.partial = partial
        self.diagnostics = diagnostics or {}
