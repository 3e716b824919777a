"""Exception hierarchy for quadft solvers and I/O."""

from __future__ import annotations


class QuadFTError(Exception):
    """Base class for all quadft errors."""


class InfeasibleTriangleError(QuadFTError):
    """Side lengths cannot form a triangle (cosine argument out of range)."""


class AbsorbedWeightsError(QuadFTError):
    """Weight triangle inequality fails: the optimum sits at a vertex, not inside."""


class InfeasibleWeightsError(QuadFTError):
    """Weights violate a feasibility condition of the requested solve."""


class _BelowMinimumError(InfeasibleWeightsError):
    """A storage below u_FT; the CLI hints at raising it."""


class ConvergenceError(QuadFTError):
    """Iterative solver failed to converge.

    Carries the last point and its residual, so callers can report how far
    the solve got.
    """

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class InconsistentCaseError(QuadFTError):
    """Solver produced a solution incompatible with the assumed case."""


class DegenerateTreeError(QuadFTError):
    """Gauss tree collapsed: the edge weight is at or past its absorbing value."""


class OverspendError(QuadFTError):
    """Spending rate drives the edge weight below its feasible range."""


class DocumentError(QuadFTError):
    """Problem document is malformed or inconsistent."""

    def __init__(self, message, line=None, column=None, path=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}, column {column})"
        elif path:
            loc = f" (at {path})"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.path = path
