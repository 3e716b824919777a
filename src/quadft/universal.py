"""Universal absorbing set and minimum value, storage level sets and the
evolution of a degree-three tree from a stored quantity.

For each admissible B4 the plasticity family fixes the vertex weights and
keeps the degree-four optimum P in place.  As x_G rises to its absorbing value
the interior edge of the Gauss tree collapses (l -> 0) and both interior nodes
merge at P; the node joined to A1 and A4 then balances the collapsed edge, so

    x_G(B4) = |B1 u1 + B4 u4|,   u_i the unit vector from P toward A_i.

On the family B1 = x1 B4 + y1, hence x_G(B4) = |a + B4 b| with a = y1 u1 and
b = x1 u1 + u4: the norm of an affine map, convex in B4.  Collected over B4
these values form the universal set.  Its minimum u_FT is the distance from
the origin to the line a + B4 b, and every storage level set holds the roots
of a quadratic.  u_FT is the storage threshold: a degree-four tree grows a
degree-three tree only from a storage of at least u_FT, spending part of it at
a rate below u_FT.  `weights_for_storage` and `evolve` enforce this one rule;
below it the tree stays the degree-four tree of `locate_4wft`.

Since P stays fixed along the family, its geometry (the u_i and the distances
|P A_i|, one hypot per vertex) is measured once per call, by
`plasticity._Family`, the one measurement `verify_plasticity` reads too,
which also holds the imbalance sum B_i u_i = alpha + B4 beta and the profile
(a, b), both affine in B4.  One function, `_samples`, evaluates every B4 it
is given, in ascending order: the grid of `universal_set` and
`universal_minimum`, or the single B4 of `absorbing_xg` and of B4*.  It
decides the run at its two ends, by `PlasticityLine.weights_at` and the
balance gate: the weights are affine in B4, so positive at both ends means
positive between them, and the imbalance is convex, so the gate met at both
ends is met between them up to rounding.  A sample then costs its three
weights, one hypot for x_G and the objective.  When an end fails, each B4 is
decided by itself: a sample that fails is skipped with its reason, or
raised when the caller takes one B4.  Samples are named tuples, built at the
cost of a plain tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    InconsistentCaseError,
    InfeasibleWeightsError,
    OverspendError,
    QuadFTError,
    _BelowMinimumError,
    _Record,
)
from .gauss import GaussTree, GaussWeights, feasible_xg_interval, solve_gauss_tree
from .geometry import Quadrilateral, _count, cross2, linspace
from .plasticity import PlasticityLine, _Family

# Annotations are strings (PEP 563): `Callable` in them needs no import of typing.

# Family weights must balance at the line's point to BALANCE_RTOL * c; absorbing
# values, which rest on that balance, are resolved to the same tolerance.
BALANCE_RTOL = 1e-9
UNIVERSAL_GRID = 33


# b4, the weights (B1, B2, B3, B4), and x_G and the objective there
UniversalSample = namedtuple("UniversalSample", ("b4", "weights", "xg_absorbing", "objective"))
UniversalSample.__doc__ = """One absorbing point of the universal set."""


class UniversalResult(_Record):
    """Minimum of the universal set with a sampled profile beside it."""

    __slots__ = _fields = ("u_ft", "b4_star", "rate", "samples", "skipped")

    def __init__(self, u_ft: float, b4_star: float, rate: float,
                 samples: tuple[UniversalSample, ...],
                 skipped: tuple[tuple[float, str], ...] = ()):
        object.__setattr__(self, "u_ft", u_ft)
        object.__setattr__(self, "b4_star", b4_star)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "skipped", skipped)


def _finite(value: float, name: str) -> None:
    """QuadFTError naming `value` unless it is finite: a NaN compares false
    with every threshold, so range checks alone let it through."""
    if not math.isfinite(value):
        raise QuadFTError(f"{name} must be finite, got {value}")


# ------------------------------------------------------------------ #
# Absorbing value of x_G for one weight quadruple
# ------------------------------------------------------------------ #

def _samples(family: _Family, b4s,
             on_skip: Callable[[float, str], None] | None) -> list[UniversalSample]:
    """The absorbing sample at every b4 of `b4s`, from the family's one
    measurement of P; see `absorbing_xg`.  `b4s` must ascend: its callers
    pass the `_sweep` grid or a single B4.

    The run is decided at its ends.  Weights positive at both ends are
    positive between them, exactly (`PlasticityLine._ascending_weights`),
    and the imbalance |alpha + B4 beta| is convex, so a balance gate met at
    both ends is met between them, except within rounding of the gate.  When
    an end fails, every b4 is decided by itself (`_one_by_one`, which
    reports each failure to on_skip or raises it).
    """
    ax, ay, bx, by = family.imbalance()  # inf when P sits on a vertex
    gate = BALANCE_RTOL * family.line.c
    try:
        run = family.line._ascending_weights(b4s)
    except InfeasibleWeightsError:
        run = None
    if (run is None or math.hypot(ax + b4s[0] * bx, ay + b4s[0] * by) > gate
            or math.hypot(ax + b4s[-1] * bx, ay + b4s[-1] * by) > gate):
        run = _one_by_one(family, b4s, on_skip)
        if not run:  # with P on a vertex every b4 fails
            return []
    (u1x, u1y), _, _, (u4x, u4y) = family.units
    d1, d2, d3, d4 = family.distances
    new = tuple.__new__  # UniversalSample(...) parses its arguments first
    samples = []
    for weights in run:
        b1, b2, b3, b4 = weights
        samples.append(new(UniversalSample, (
            b4, weights, math.hypot(b1 * u1x + b4 * u4x, b1 * u1y + b4 * u4y),
            b1 * d1 + b2 * d2 + b3 * d3 + b4 * d4)))
    return samples


def _one_by_one(family: _Family, b4s,
                on_skip: Callable[[float, str], None] | None) -> list[tuple]:
    """The weights at each b4 that passes `weights_at`, an anchor off the
    vertices and the balance gate by itself.  A b4 that fails is reported
    to `on_skip(b4, reason)` and left out; with on_skip None it raises."""
    line = family.line
    ax, ay, bx, by = family.imbalance()
    gate = BALANCE_RTOL * line.c
    kept = []
    for b4 in b4s:
        try:
            weights = line.weights_at(b4)
            family.measured()  # raises when P sits on a vertex
            residual = math.hypot(ax + b4 * bx, ay + b4 * by)
            if residual > gate:
                raise InconsistentCaseError(
                    f"weights {weights} do not balance at {line.point} "
                    f"(residual {residual:.3e}); "
                    "was the plasticity line built on this quadrilateral?"
                )
        except QuadFTError as exc:
            if on_skip is None:
                raise
            on_skip(b4, str(exc))
            continue
        kept.append(weights)
    return kept


def absorbing_xg(q: Quadrilateral, line: PlasticityLine, b4: float) -> UniversalSample:
    """Absorbing Gauss value x_G = |B1 u1 + B4 u4| for the family weights at
    b4, with the objective sum B_i |P A_i| of the collapsed tree.

    The closed form holds only where the weights balance at P = line.point;
    a residual |sum B_i u_i| above BALANCE_RTOL * c (a line that does not
    belong to q) raises InconsistentCaseError.
    """
    return _samples(_Family(q, line), [b4], None)[0]


def _sampled_range(line: PlasticityLine) -> tuple[float, float]:
    """The B4 interval shrunk by the sampling margin."""
    lo, hi = line.b4_interval
    margin = 1e-6 * (hi - lo)
    return lo + margin, hi - margin


def _minimum(family: _Family) -> UniversalSample:
    """Absorbing sample at B4* = -(a . b) / |b|^2, the foot of the
    perpendicular from the origin to a + B4 b, clamped to the sampled range."""
    (ax, ay), (bx, by) = family.profile()
    lo, hi = _sampled_range(family.line)
    b4 = min(max(-(ax * bx + ay * by) / (bx * bx + by * by), lo), hi)
    return _samples(family, [b4], None)[0]


def _check_storage(storage: float, u_ft: float, line: PlasticityLine) -> None:
    """The storage rule: a tree grows only from a storage of at least u_FT,
    read to BALANCE_RTOL * c like the absorbing values it rests on."""
    if storage < u_ft - BALANCE_RTOL * line.c:
        raise _BelowMinimumError(
            f"storage level {storage} lies below the universal minimum {u_ft}"
        )


def _sweep(family: _Family, grid: int,
           on_skip: Callable[[float, str], None]) -> list[UniversalSample]:
    """The samples of `universal_set`, from one measurement of P."""
    if _count(grid, "grid") < 1:
        raise QuadFTError("grid must be at least 1")
    line = family.line
    b4s = ([0.5 * sum(line.b4_interval)] if grid == 1
           else linspace(*_sampled_range(line), grid))
    return _samples(family, b4s, on_skip)


def universal_set(q: Quadrilateral, line: PlasticityLine, grid: int,
                  on_skip: Callable[[float, str], None] | None = None
                  ) -> list[UniversalSample]:
    """Absorbing values on a uniform B4 grid over the admissible interval.

    Failing grid points are omitted; `on_skip(b4, reason)` hears about each.
    """
    return _sweep(_Family(q, line), grid, on_skip or (lambda b4, why: None))


def universal_minimum(q: Quadrilateral, line: PlasticityLine,
                      grid: int = UNIVERSAL_GRID) -> UniversalResult:
    """Minimum u_FT = |a + B4* b| of the absorbing value over the family, in
    closed form; `grid` sets only the sampled profile reported beside it."""
    family = _Family(q, line)
    skipped: list[tuple[float, str]] = []
    samples = _sweep(family, grid, on_skip=lambda b4, why: skipped.append((b4, why)))
    best = _minimum(family)
    return UniversalResult(
        u_ft=best.xg_absorbing,
        b4_star=best.b4,
        rate=best.xg_absorbing / line.c,
        samples=tuple(samples),
        skipped=tuple(skipped),
    )


def weights_for_storage(q: Quadrilateral, line: PlasticityLine, u: float,
                        result: UniversalResult | None = None) -> list[float]:
    """All admissible B4 whose absorbing x_G equals u (the level set at u).

    The roots of |a + B4 b|^2 = u^2 inside the open admissible interval, in
    increasing order.  A level below u_FT (from `result` when given) raises
    InfeasibleWeightsError, as in `evolve`; at u_FT the set collapses to [B4*].
    """
    _finite(u, "storage level")
    family = _Family(q, line)
    if result is None:
        best = _minimum(family)
        u_ft, b4_star = best.xg_absorbing, best.b4
    else:
        u_ft, b4_star = result.u_ft, result.b4_star
    _check_storage(u, u_ft, line)
    if u <= u_ft:
        return [b4_star]
    (ax, ay), (bx, by) = family.profile()
    bb = bx * bx + by * by
    t0 = -(ax * bx + ay * by) / bb
    half = math.sqrt(max(u * u - cross2(ax, ay, bx, by) ** 2 / bb, 0.0) / bb)
    lo, hi = line.b4_interval
    roots = [t for t in sorted({t0 - half, t0 + half}) if lo < t < hi]
    if not roots:
        raise InfeasibleWeightsError(f"no admissible B4 reaches the storage level {u}")
    return roots


def evolve(q: Quadrilateral, line: PlasticityLine, storage: float, a_g: float,
           b4: float) -> GaussTree:
    """Grow the degree-three tree funded by `storage` at spending rate a_g.

    The interior edge weight becomes x_G = storage - a_g with the family
    weights at b4.  a_g = 0 returns the collapsed (degree-four limit) tree.
    The storage rule is enforced here, against the u_FT of
    `universal_minimum`: a storage below u_FT raises InfeasibleWeightsError
    (the tree stays the degree-four tree of `locate_4wft`), a_g >= u_FT
    raises OverspendError, and so does spending below the weight-triangle
    floor.  A line that does not belong to q raises InconsistentCaseError.
    b4 is taken as given; `weights_for_storage` gives those on the level set.
    """
    _finite(storage, "storage")
    _finite(a_g, "spending rate")
    if storage < 0.0:
        raise QuadFTError(f"storage must be nonnegative, got {storage}")
    if a_g < 0.0:
        raise QuadFTError(f"spending rate must be nonnegative, got {a_g}")
    u_ft = _minimum(_Family(q, line)).xg_absorbing
    _check_storage(storage, u_ft, line)
    if a_g >= u_ft:
        raise OverspendError(f"spending rate {a_g} must stay below u_FT = {u_ft}")
    weights = line.weights_at(b4)
    xg = storage - a_g
    lo, hi = feasible_xg_interval(*weights)
    if xg <= lo:
        raise OverspendError(
            f"spending {a_g} drops x_G to {xg}, at or below the feasible floor {lo:.6g}"
        )
    if xg >= hi:
        raise InfeasibleWeightsError(
            f"x_G = {xg} is at or above the feasible ceiling {hi:.6g} for B4 = {b4}"
        )
    return solve_gauss_tree(q, GaussWeights(*weights, xg))
