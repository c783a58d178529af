"""Exception hierarchy for the AOA toolkit.

Two kinds of error.  ``OutOfRange``, ``DegenerateElevation``,
``ConvergenceFailure`` and ``NotEnoughRoots`` can strike any single noisy
trial.  The estimator's layers take stacks of trials only and raise none of
them: each trial's error is kept in its slot of an ``errors`` list (see
``laoa.linalg``), which the estimator's array result carries.  Only the
single-trial entry points ``estimate_2d_aoa`` and
``direction_from_electrical`` raise a trial's error, through ``raise_first``.
``montecarlo.run_trials`` returns the list itself, one exception or None per
trial of its stack (a worker process sends it pickled), and
``montecarlo.monte_carlo`` counts the failures per SNR point, since the
failure rate is itself a result; ``aoa simulate`` raises its one trial's
error through ``raise_first``, so the CLI reports it as it reports
``estimate_2d_aoa``'s.  The estimator's
non-fatal events, a reduced truncation rank and a nearly tied pairing, are
no errors: they are flags on its array result, which a sweep counts.
``UnsupportedScenario`` (the (m, M, q) shape rules, the source-separation
rule and the elevation guard) and ``ParseError`` (malformed config or matrix
files) reject the input up front, before any trial or estimate runs.
"""


class AoaError(Exception):
    """Base class for all toolkit errors."""


class OutOfRange(AoaError):
    """An inverse-trig argument exceeds [-1, 1] beyond the clamp tolerance."""


class DegenerateElevation(AoaError):
    """Elevation too close to 0 or 180 degrees; azimuth is undefined."""


class ConvergenceFailure(AoaError):
    """A numerical step failed.

    LAPACK did not converge (SVD or eigenvalues), the solved prediction
    coefficients are not finite, a root missed the residual bound, or a
    pairing's normal equations are singular.
    """


class NotEnoughRoots(AoaError):
    """The polynomial has fewer roots than the requested signal roots (possibly none)."""


class UnsupportedScenario(AoaError, ValueError):
    """A shape or geometry the estimator cannot handle (see ``estimator.check_scenario``)."""


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


def raise_first(errors: list) -> None:
    """Raise the first error in a stacked call's per-item error list, if any."""
    for exc in errors:
        if exc is not None:
            raise exc
