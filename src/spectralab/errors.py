"""Exception hierarchy shared by all spectralab modules."""


class SpectralabError(Exception):
    """Base class for all errors raised by spectralab."""


class ParameterError(SpectralabError):
    """An argument is out of its documented range (bad k, resolution, ...)."""


class DegeneracyError(SpectralabError):
    """The immersion is rank deficient / the induced metric is degenerate."""


class TensorError(SpectralabError):
    """The coefficient tensor is not symmetric positive definite somewhere."""


class EvaluationError(SpectralabError):
    """A field produced non-finite values or could not be evaluated, or a stage
    of ``run_scenario`` overflowed, divided by zero or made an invalid operation."""


class MeshTooCoarseError(SpectralabError):
    """Dirichlet elimination left no interior degrees of freedom."""


class ConvergenceError(SpectralabError):
    """The iterative eigensolver hit its iteration cap, or a factorization
    it needs failed (singular, or pivoting off the diagonal)."""

    def __init__(self, message, best_residuals=None):
        super().__init__(message)
        self.best_residuals = best_residuals


class ShiftPositivityError(SpectralabError):
    """The additive spectral shift produced a non-positive sequence."""


class ConfigError(SpectralabError):
    """A scenario configuration file is malformed or inconsistent."""
