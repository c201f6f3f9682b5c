"""Exception hierarchy for the horizon_lab package.

Everything raised on purpose derives from :class:`HorizonLabError` so callers
can catch the package's failures with a single except clause while letting
genuine bugs (TypeError and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "HorizonLabError",
    "DomainError",
    "NotAQHError",
    "NoTypeFound",
    "NegativeWExponentError",
    "ChartDomainError",
    "HorizonError",
    "ConvergenceError",
    "StepFailure",
    "EigenFailure",
    "CurveBreak",
    "InsufficientWindow",
    "VanishingComponent",
    "NotConverged",
    "NoTargetFound",
    "SchemaError",
    "UnknownExample",
    "OutputError",
]


class HorizonLabError(Exception):
    """Base class for all errors raised by this package."""


def located(exc: Exception, *path) -> Exception:
    """``exc``, recording where it points as its ``path``: the argument the
    failed rule checked, then the index path inside it, such as
    ``("components", i, j, "exponents", q)``."""
    exc.path = path
    return exc


class DomainError(HorizonLabError):
    """An input lies outside the mathematical domain of an operation.

    Examples: evaluating ``x**0.5`` at a negative coordinate, ``x**-1`` at
    zero, a non-positive homogeneity order, or model parameters outside the
    range a built-in example supports.
    """


class NotAQHError(HorizonLabError):
    """A vector field violates the asymptotic quasi-homogeneity bound.

    Raised when at least one monomial has weighted degree *exceeding*
    ``k + alpha_i`` for its component.  The offending ``(component, monomial)``
    index pairs are attached as :attr:`violations`.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class NoTypeFound(HorizonLabError):
    """Type inference exhausted its search range without a valid type."""


class NegativeWExponentError(HorizonLabError):
    """Desingularization produced a negative power of the horizon function.

    This happens exactly when the field is not asymptotically
    quasi-homogeneous of the supplied type, so the rescaled field would be
    singular on the horizon instead of extending to it.
    """


class ChartDomainError(HorizonLabError):
    """A point violates a chart's sign condition or a chart is ill-formed.

    Directional charts only cover the half-space ``sign * y_i0 > 0``; asking
    one to embed a point from the wrong half, or building one over a
    coordinate with zero weight, lands here.
    """


class HorizonError(HorizonLabError):
    """A projection back to original coordinates was attempted at the horizon.

    Points with ``horizon_gap == 0`` represent infinity; they have no
    preimage and cannot be projected.
    """


class ConvergenceError(HorizonLabError):
    """An iterative scalar solve (the kappa root find) failed to converge."""


class StepFailure(HorizonLabError):
    """The adaptive integrator gave up: its step size underflowed
    (h < 1e-15) or it used up its budget of 2,000,000 step attempts."""


class EigenFailure(HorizonLabError):
    """The eigenvalue solver did not converge on an equilibrium Jacobian."""


class CurveBreak(HorizonLabError):
    """Equilibrium continuation lost the branch between two t-slices."""

    def __init__(self, message: str, t_value=None):
        super().__init__(message)
        self.t_value = t_value


class InsufficientWindow(HorizonLabError):
    """A fit window holds fewer than the minimum number of samples (20)."""


class VanishingComponent(HorizonLabError):
    """A component's chart coordinate tends to zero along the approach.

    Its original coordinate is then sub-polynomial relative to the generic
    rate and no power-law exponent is claimed for it.
    """


class NotConverged(HorizonLabError):
    """A trajectory did not reach the horizon, so no blow-up time exists."""

    def __init__(self, message: str, stop_reason=None):
        super().__init__(message)
        self.stop_reason = stop_reason


class NoTargetFound(HorizonLabError):
    """No known equilibrium/curve lies near the trajectory's endpoint."""


class SchemaError(HorizonLabError):
    """A configuration document violates the config schema.

    :attr:`pointer` holds a JSON pointer to the offending element.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return f"{base} (at {self.pointer or '/'})"

    @classmethod
    def at(cls, exc: Exception, where: dict) -> SchemaError | None:
        """``exc`` as a SchemaError when its ``path`` starts at an argument
        that ``where`` maps to the pointer of the element it was built
        from: that pointer, then the index path.  None otherwise."""
        arg, *rest = getattr(exc, "path", (None,))
        if arg not in where:
            return None
        return cls(str(exc), "/".join([where[arg], *map(str, rest)]))


class UnknownExample(HorizonLabError):
    """Requested built-in example name is not registered."""


class OutputError(HorizonLabError):
    """An output directory or file could not be created or written.

    Wraps the OSError, e.g. ``--out`` naming an existing file, or a run
    CSV's path being a directory.
    """
