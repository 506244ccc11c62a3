"""Exception hierarchy shared by all simulator modules.

Each of the three bases carries the CLI's exit code and stderr label for
itself and its subclasses: ValidationError exits with 2, PhysicsValidityError
with 3, NumericalError with 4.
"""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ValidationError(SimulationError):
    """Malformed or inconsistent inputs (bad config, shape/length mismatch)."""

    exit_code, label = 2, "error"


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class AliasingError(ValidationError):
    """A drive or bandpass centre at or above the Nyquist frequency."""


class PhysicsValidityError(SimulationError):
    """Inputs valid but outside the regime where the model applies."""

    exit_code, label = 3, "physics validity error"


class GrazingIncidenceError(PhysicsValidityError):
    """sin(gamma/2)**-2 <= n**2: the deflection denominator vanishes."""


class WeakValueValidityError(PhysicsValidityError):
    """Transverse kick too large for the weak-measurement linearization."""


class DarkPortEmptyError(PhysicsValidityError):
    """Dark-port intensity below the configured floor (phi and k both ~ 0)."""


class UnreachableSlopeError(PhysicsValidityError):
    """No apex angle can produce the requested deflection slope."""


class NumericalError(SimulationError):
    """A numerical routine failed to converge or produced an inconsistent value."""

    exit_code, label = 4, "numerical error"
