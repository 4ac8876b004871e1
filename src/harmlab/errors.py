"""Exception hierarchy shared across the library.

Two families matter to callers (and to the CLI exit codes): `ValidationError`
for rejected inputs and `NumericalError` for computations that started but
could not finish to tolerance. The message says which check failed. The two
subclasses below exist because code in the library catches them:
`MaxSubdivisionsExceeded` carries the quadrature's state, and
`NonFiniteSample` tells a non-finite integrand apart from a slow one.
"""


class HarmlabError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(HarmlabError, ValueError):
    """Input rejected before any numerics ran (CLI exit code 2)."""


class NumericalError(HarmlabError, ArithmeticError):
    """A numerical procedure failed to converge or hit a gate (CLI exit code 3)."""


class MaxSubdivisionsExceeded(NumericalError):
    """Adaptive quadrature ran out of subdivision budget.

    Carries the best estimate and the error bound reached so far, so callers
    can distinguish 'slow' from 'divergent'.
    """

    def __init__(self, message, estimate=None, err_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.err_bound = err_bound


class NonFiniteSample(NumericalError):
    """A field evaluated to NaN/inf on a quadrature node, or a quadrature sum of finite samples overflowed."""
