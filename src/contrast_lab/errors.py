"""Exception types shared across the package."""


class ContrastLabError(Exception):
    """Base class for all package errors."""


class ShapeError(ContrastLabError):
    """Dimension or shape mismatch in an array operation."""


class ConvergenceError(ContrastLabError):
    """Iterative routine failed to converge within its step cap."""


class GenerationError(ContrastLabError):
    """Dataset rejection sampling exhausted its attempt budget."""


class EnumerationError(ContrastLabError):
    """Exact subset enumeration would exceed the configured cap."""


class DivergenceError(ContrastLabError):
    """Training produced a non-finite loss or gradient."""


class EvaluationError(ContrastLabError):
    """A probe evaluation produced a non-finite value."""


class ConfigError(ContrastLabError):
    """Experiment configuration is malformed or violates an invariant."""
