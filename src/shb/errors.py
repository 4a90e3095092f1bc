"""Exception taxonomy shared by every module in the package."""


class ShbError(Exception):
    """Base class for all errors raised by this package."""


class NonSquare(ShbError):
    """A square matrix was required."""


class AsymmetryExceedsTolerance(ShbError):
    """Matrix is not symmetric within the admitted relative tolerance."""


class NoConvergence(ShbError):
    """The eigensolver hit its iteration cap without converging."""


class DimensionMismatch(ShbError):
    """Operand shapes are incompatible."""


class Inconsistent(ShbError):
    """The linear system Ax = b has no solution (projection residual check failed)."""


class AllZero(ShbError):
    """Matrix is zero: no smallest nonzero eigenvalue exists."""


class ZeroRow(ShbError):
    """A zero row was sampled or would receive positive probability."""


class OutOfRange(ShbError):
    """A parameter violates its admissible range."""


class NotAdmissible(ShbError):
    """Requested bound evaluation for parameters outside the guaranteed region."""


class InsufficientReplications(ShbError):
    """Statistical verification needs more replications."""


class MalformedLine(ShbError):
    """A text input line could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None, token: str | None = None):
        super().__init__(message)
        self.line_no = line_no
        self.token = token


class NonMonotoneIndices(ShbError):
    """Feature indices on a line are not strictly increasing."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class EmptyFile(ShbError):
    """Input file holds no data rows."""


class BundleError(ShbError):
    """Problem bundle is malformed or fails its checksum."""
