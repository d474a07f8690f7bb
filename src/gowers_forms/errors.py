"""Exception types shared across the package, and its one size limit.

Every engine states its cost in work units: the cells of the largest array
it builds, or the items it enumerates.  ``require_work`` refuses a cost above
WORK_LIMIT = 2^26 units with ``BudgetExceeded`` before anything is allocated.

Infeasibility of a linear system is reported by ``gf2.solve`` returning
``None``, not by an exception.
"""

WORK_LIMIT = 1 << 26


class GowersFormsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GowersFormsError):
    """Operands live in incompatible spaces (wrong dim or arity)."""


class NotSymmetric(GowersFormsError):
    """A symmetry precondition does not hold."""


class NotStronglySymmetric(GowersFormsError):
    """A strong-symmetry precondition does not hold."""


class SizeGuard(GowersFormsError):
    """Inputs fall outside the exact method's guarded domain."""


class BudgetExceeded(SizeGuard):
    """A computation would cost more than WORK_LIMIT work units."""


def require_work(units: int, what: str) -> None:
    """Refuse, before any allocation, a cost of more than WORK_LIMIT units."""
    if units > WORK_LIMIT:
        raise BudgetExceeded(f"{what} costs {units} work units, above WORK_LIMIT = {WORK_LIMIT}")


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
