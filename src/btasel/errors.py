"""Exception types shared across the package."""


class BtaselError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(BtaselError, ValueError):
    """Operands or containers have incompatible shapes."""


class NonFiniteInputError(BtaselError, ValueError):
    """An input matrix handed to a solver holds a NaN or infinite entry."""


class SingularBlockError(BtaselError, ArithmeticError):
    """A pivot is exactly singular.

    Attributes
    ----------
    index : int
        Pivot row index (kernel level) or global diagonal-block index
        (solver level) at which the singularity was detected.
    """

    def __init__(self, message: str, index: int = -1):
        super().__init__(message)
        self.index = index


class DenseGuardError(BtaselError, ValueError):
    """A dense-oracle call exceeds the configured size guard."""


class ProtocolError(BtaselError, RuntimeError):
    """A collective round received malformed or mismatching payloads."""


class WorkerError(BtaselError, RuntimeError):
    """A distributed worker failed; carries the failing rank."""

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"worker rank {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


class FormatError(BtaselError, ValueError):
    """Base class for file-format errors."""


class BadMagicError(FormatError):
    """The file does not start with the expected magic bytes."""


class TruncatedPayloadError(FormatError):
    """The file ends before the payload declared by its header."""


class ShapeInconsistencyError(FormatError):
    """The header declares an invalid shape or the payload size disagrees."""
