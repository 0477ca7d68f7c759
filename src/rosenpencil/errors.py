"""Exception and warning types shared across the package."""


class PoleError(ArithmeticError):
    """Transfer-function evaluation at a point where the state polynomial is singular."""


class SingularInput(ValueError):
    """An operation that needs a regular (det not identically zero) input got a singular one."""


class NumericalFailure(RuntimeError):
    """A numerical routine did not converge or could not certify its result."""


class InterpolationResidual(NumericalFailure):
    """Sampled values do not agree with a polynomial of the expected degree bound."""


class HoldoutResidual(NumericalFailure):
    """Interpolated determinant failed its holdout-point consistency check."""


class NonConvergence(NumericalFailure):
    """An iterative eigenvalue or root computation did not converge."""


class AllSamplesSingular(NumericalFailure):
    """Every sample point of an evaluable matrix function failed to evaluate."""


class ParseError(ValueError):
    """Malformed input document."""


class DimensionError(ValueError):
    """Inconsistent matrix or block dimensions."""


class IrregularWarning(UserWarning):
    """The state polynomial failed the probabilistic regularity check."""
