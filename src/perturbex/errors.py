"""Exception types shared across the package."""


class PerturbexError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(PerturbexError):
    """Operands have incompatible shapes."""


class NotSymmetric(PerturbexError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(PerturbexError):
    """A matrix expected to be positive definite has a too-small eigenvalue."""


class NotPsd(PerturbexError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class BadLabels(PerturbexError):
    """Classification labels are not drawn from {-1, +1}."""


class MissingThirdDerivative(PerturbexError):
    """An operation needs analytic third derivatives the oracle does not provide."""


class MissingFourthDerivative(PerturbexError):
    """An operation needs analytic fourth derivatives the oracle does not provide."""


class MissingConstant(PerturbexError):
    """An operation needs a certificate constant the certificate does not state."""


class NotAtMinimum(PerturbexError):
    """The supplied anchor point does not have a (numerically) vanishing gradient."""


class HessianNotPd(PerturbexError):
    """The Hessian at an iterate failed its positive definiteness check."""


class MaxIterExceeded(PerturbexError):
    """The solver ran out of iterations before reaching its tolerance."""


class LineSearchFailed(PerturbexError):
    """Backtracking reduced the step below the representable floor."""


class PreconditionViolated(PerturbexError):
    """An operation's entry conditions do not hold for the given inputs.

    The message names each failed condition.
    """
