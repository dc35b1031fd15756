"""Exception taxonomy shared by every module."""


class ArflowError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRotation(ArflowError):
    """6D rotation block cannot be orthonormalized (near-zero or parallel columns)."""


class NotARotation(ArflowError):
    """Matrix is not orthonormal with determinant +1 within tolerance."""


class DimensionMismatch(ArflowError):
    """Array dimensions do not match the skeleton / model configuration."""


class ShapeMismatch(ArflowError):
    """Two tensors that must share a shape do not."""


class SingularTime(ArflowError):
    """Flow-time transform evaluated too close to its singularity."""


class GridTooLarge(ArflowError):
    """Requested voxel grid exceeds the voxel-count cap."""


class GridMismatch(ArflowError):
    """Voxel grids differ in origin, voxel size, or dimensions."""


class EmptyInput(ArflowError):
    """Metric or command received an empty sample list."""


class InsufficientSamples(ArflowError):
    """Not enough feature vectors for the requested subset size."""


class DegenerateCovariance(ArflowError):
    """Feature covariance is unusable (too few vectors or non-finite)."""


class UnknownCondition(ArflowError):
    """Condition id is outside the configured vocabulary."""


class NonFiniteLoss(ArflowError):
    """A forward pass produced NaN or Inf.

    Carries the training step index when raised from the training loop.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NonFiniteSample(ArflowError):
    """The predictor returned NaN or Inf while sampling."""


class InvalidConfig(ArflowError):
    """Configuration values violate a documented constraint."""


class SchemaError(ArflowError):
    """Motion file violates the interchange schema.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
