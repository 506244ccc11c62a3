"""Exception hierarchy shared by all simulator modules.

The CLI maps these onto exit codes: ValidationError and subclasses exit
with 2, PhysicsValidityError with 3, NumericalError with 4.
"""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ValidationError(SimulationError):
    """Malformed or inconsistent inputs (bad config, shape/length mismatch)."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class AliasingError(ValidationError):
    """Sample rate too low for the drive (Nyquist) or the requested filter band."""


class PhysicsValidityError(SimulationError):
    """Inputs valid but outside the regime where the model applies."""


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
