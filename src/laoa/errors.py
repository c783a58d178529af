"""Exception hierarchy and warnings for the AOA toolkit."""


class AoaError(Exception):
    """Base class for all toolkit errors."""


class OutOfRange(AoaError):
    """An inverse-trig argument exceeds [-1, 1] beyond the clamp tolerance."""


class DegenerateElevation(AoaError):
    """Elevation too close to 0 or 180 degrees; azimuth is undefined."""


class InsufficientSnapshots(AoaError):
    """Fewer snapshots than sources."""


class TooFewSnapshots(AoaError):
    """Not enough snapshots to form an overdetermined prediction system."""


class ConvergenceFailure(AoaError):
    """LAPACK did not converge (SVD or eigenvalues), or a root missed the residual bound."""


class DegreeZero(AoaError):
    """All polynomial coefficients vanish; the constant polynomial has no roots."""


class NotEnoughRoots(AoaError):
    """Requested more signal roots than the polynomial provides."""


class RankOutOfRange(AoaError):
    """Truncation rank outside [1, min(matrix dims)]."""


class QTooLarge(AoaError):
    """Source count too large for the subarray size (need q <= m - 2)."""


class PairingBudgetExceeded(AoaError):
    """Too many sources for exhaustive permutation pairing."""


class ParseError(AoaError):
    """Malformed config or matrix file.

    Carries the 1-based line (and column, when known) of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class DimensionMismatch(AoaError):
    """Declared matrix dimensions disagree with the data."""


class RankDeficiencyWarning(UserWarning):
    """Requested truncation rank exceeded the numerical rank; rank was reduced."""


class PairingAmbiguousWarning(UserWarning):
    """Two pairings of subarray angle sets fit the data almost equally well."""
