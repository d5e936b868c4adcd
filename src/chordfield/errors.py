"""Exception types shared by every module in the package, and the allocation guard."""


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class IllConditionedMapError(DomainError, ArithmeticError):
    """A comparison-domain coefficient divisor fell below the schedule floor.

    Raised instead of silently returning a blown-up value when alpha(t) or
    sigma(t) is smaller than ``Schedule.alpha_floor`` for a coefficient kind
    whose formula divides by it.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DegeneratePosteriorError(DomainError, ArithmeticError):
    """Every mixture responsibility underflowed (raw mass below 1e-300)."""


class DivergenceError(ArithmeticError):
    """An integration state became non-finite or left the bounded regime, or
    (with no ``last_state``) did so for at least half of a run's particles.

    ``last_state`` holds the last finite state reached before the abort.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


def _allocated(what, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a new array of ``what`` (a count and a noun),
    or ``DomainError`` where that array is too large to hold."""
    try:
        return make(*args, **kwargs)
    except (MemoryError, ValueError) as err:
        raise DomainError(f"{what} do not fit in memory") from err
