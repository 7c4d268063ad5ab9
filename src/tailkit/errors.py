"""Exception hierarchy shared by all tailkit modules."""


class TailkitError(Exception):
    """Base class for every error raised by tailkit."""


class DomainError(TailkitError):
    """Argument outside the mathematical domain of the operation."""


class ParamError(TailkitError):
    """Invalid distribution or constructor parameter."""


class DivisionByZeroJet(TailkitError):
    """Leading coefficient of a jet divisor below the configured floor.

    Signals a pole of an iterate ratio (e.g. the Gaussian seed at x = mu);
    callers usually translate this into a failed grid point rather than
    aborting.
    """


class OrderExhausted(TailkitError):
    """Derivative shift requested on an order-0 jet, or an iterate deeper
    than the jet order cap can classify."""


class SeedIncompatible(TailkitError):
    """Seed kind cannot be built for the given support/side combination."""


class SeedInvalid(TailkitError):
    """Seed iterate failed classification on the requested window."""


class PoleEncountered(TailkitError):
    """Iterate evaluation hit a pole (P' ~ 0 or a sign violation).

    ``margins`` holds, when the engine's own sign check raised, the chain's
    margins up to and including the one that is not positive (see
    ``engine._chain``); it is empty otherwise.
    """

    def __init__(self, *args, margins: tuple = ()):
        super().__init__(*args)
        self.margins = margins


class WindowTooSmall(TailkitError):
    """No sub-window of the requested window satisfies all conditions."""


class MgfDiverged(TailkitError):
    """Moment generating function returned a non-finite value on the grid."""


class OutOfValidity(TailkitError):
    """Capacity bound evaluated outside its validity region (value >= 1 or
    denominator of the wrong sign); signals n < n0 or lambda at/below the
    validity threshold."""


class BracketFailed(TailkitError):
    """Root bracketing failed (target unreachable on the search interval)."""


class ToleranceNotMet(TailkitError):
    """Adaptive routine exhausted its budget before reaching tolerance."""
