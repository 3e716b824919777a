"""Exception hierarchy for quadft solvers and I/O, and `_Record`, the base of
the package's value classes."""

from __future__ import annotations

import operator


class _Record:
    """An immutable value with the named fields `_fields`, each a slot.

    A subclass declares its slots and `_fields` and writes its own
    `__init__`, which checks its arguments and sets the slots through
    `object.__setattr__`.  Repr reads `Name(field=value, ...)`; equality
    goes by the class and the field values, so a record equals no tuple,
    and hash by the field values.  Assignment and deletion raise
    AttributeError.  `_replace` re-runs `__init__`, so its result is checked
    as construction checks; pickle and `copy` rebuild through `__init__` too.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # `self._key(self)` reads the fields for == and hash: a tuple of
        # their values, or the value itself for a single field
        cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __reduce__(self):
        return type(self), tuple(self._asdict().values())


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
