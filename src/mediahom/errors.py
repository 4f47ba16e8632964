"""Exception types with enough context to act on."""


class ShapeError(ValueError):
    """Operator dimensions are inconsistent with the declared subsystem shape."""


class CapacityError(RuntimeError):
    """A dense construction would exceed the supported dimension limit."""


class DegenerateFixedPointError(RuntimeError):
    """The eigenvalue-1 eigenspace is not one-dimensional at tolerance.

    Raised instead of silently picking one fixed point among many; the
    channel is not relaxing in this case.
    """


class FixedPointNumericalError(RuntimeError):
    """The symmetrized fixed-point eigenvector failed positivity validation."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance within the iteration cap.

    Carries the last residual and iteration count; this signals either slow
    mixing or non-relaxing dynamics, so consult the spectral analysis
    (``is_relaxing``) before retrying with a larger cap.
    """

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class UndefinedRatioError(ValueError):
    """Entropy ratio is undefined because the bath entropy is below the floor.

    Carries both entropies so callers can still report the system side.
    """

    def __init__(self, message, system_entropy=None, bath_entropy=None):
        super().__init__(message)
        self.system_entropy = system_entropy
        self.bath_entropy = bath_entropy


class ConfigError(ValueError):
    """A scenario config failed validation; the message names the field."""


class ConfigCapacityError(ConfigError, CapacityError):
    """A config asks for an analysis beyond a capacity limit; the message
    names the field.  ``check`` and ``run`` refuse the config, and a sweep
    point that reaches it reports it in its status row."""
