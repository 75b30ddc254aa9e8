"""Exception and warning types shared across the package."""


class ParameterError(ValueError):
    """A scalar parameter violates its admissible range."""


class AdmissibilityError(ParameterError):
    """(N, s, p, a, b) combination outside the admissible window."""


class GridMismatchError(ValueError):
    """Fields defined on incompatible grids were combined."""


class NonFiniteFieldError(ValueError):
    """Field values contain NaN or Inf."""


class GeometryError(ValueError):
    """Requested subdomain does not fit inside the computational box."""


class IterationError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last residual and the iteration count; a Petviashvili
    loop that re-reads its Kirchhoff coefficient also gives the last
    coefficient gap.
    """

    def __init__(self, message, residual=None, iterations=None, gap=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.gap = gap


class DegenerateFixedPointError(IterationError):
    """Fixed-point iteration collapsed to the zero field."""


class BracketError(RuntimeError):
    """Scalar root-finding could not bracket a root."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class NoContractionError(RuntimeError):
    """Correction map failed to contract (expected when eps is too large)."""

    def __init__(self, message, ratios=None):
        super().__init__(message)
        self.ratios = ratios or []


class LinearSolveError(RuntimeError):
    """Constrained symmetric linear solve broke down."""


class EigensolverError(RuntimeError):
    """Iterative eigensolver stagnated.

    Carries the Ritz residuals observed at failure, when available.
    """

    def __init__(self, message, ritz_residuals=None):
        super().__init__(message)
        self.ritz_residuals = ritz_residuals


class TailTruncationWarning(UserWarning):
    """A rescaled profile does not fit the periodic box at the set threshold."""


class BoundaryMinimizerWarning(UserWarning):
    """The peak search ended on the boundary of D_eps_delta."""


# Failures a solve can end in on valid code: a failed start of a
# multi-start run, as opposed to a programming error; a
# TailTruncationWarning is one where a warning filter escalates it
SOLVER_ERRORS = (ParameterError, IterationError, NoContractionError,
                 LinearSolveError, BracketError, TailTruncationWarning)
