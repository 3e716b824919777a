"""Universal absorbing set and minimum value, plus steady/evolutionary trees.

For each admissible B4 the plasticity family fixes the vertex weights and
keeps the degree-four optimum P in place.  As x_G rises to its absorbing value
the interior edge of the Gauss tree collapses (l -> 0) and both interior nodes
merge at P; the node joined to A1 and A4 then balances the collapsed edge, so

    x_G(B4) = |B1 u1 + B4 u4|,   u_i the unit vector from P toward A_i.

On the family B1 = x1 B4 + y1, hence x_G(B4) = |a + B4 b| with a = y1 u1 and
b = x1 u1 + u4: the norm of an affine map, convex in B4.  Collected over B4
these values form the universal set.  Its minimum u_FT is the distance from
the origin to the line a + B4 b, and every storage level set holds the roots
of a quadratic.  u_FT is the storage threshold at which a degree-four tree can
start growing a degree-three tree by spending part of the stored quantity.

Since P stays fixed along the family, its geometry (the u_i and the distances
|P A_i|) is measured once per plasticity line, by `plasticity._Family`, the
one measurement `verify_plasticity` reads too.  Every B4 sample, its balance
check, the profile (a, b) and B4* are evaluated from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import InconsistentCaseError, InfeasibleWeightsError, OverspendError, QuadFTError
from .gauss import GaussTree, GaussWeights, feasible_xg_interval, solve_gauss_tree
from .geometry import Quadrilateral, cross2, linspace
from .plasticity import PlasticityLine, _Family

# Family weights must balance at the line's point to BALANCE_RTOL * c; absorbing
# values, which rest on that balance, are resolved to the same tolerance.
BALANCE_RTOL = 1e-9
UNIVERSAL_GRID = 33


@dataclass(frozen=True)
class UniversalSample:
    """One absorbing point of the universal set."""

    b4: float
    weights: tuple[float, float, float, float]
    xg_absorbing: float
    objective: float


@dataclass(frozen=True)
class UniversalResult:
    """Minimum of the universal set with a sampled profile beside it."""

    u_ft: float
    b4_star: float
    rate: float
    samples: tuple[UniversalSample, ...]
    skipped: tuple[tuple[float, str], ...] = ()


class TreeKind(enum.Enum):
    STEADY = "steady"
    EVOLUTIONARY = "evolutionary"


@dataclass(frozen=True)
class TreeState:
    """Storage bookkeeping at the degree-four node."""

    storage: float
    a_g: float
    kind: TreeKind

    def __post_init__(self):
        _finite(self.storage, "storage")
        _finite(self.a_g, "spending rate")
        if self.storage < 0.0 or self.a_g < 0.0:
            raise QuadFTError("storage and spending rate must be nonnegative")

    @classmethod
    def for_storage(cls, storage: float, u_ft: float, a_g: float = 0.0) -> TreeState:
        """State with the kind implied by the threshold; a steady tree cannot
        spend, and an evolving one must spend strictly below u_FT."""
        kind = classify_tree(storage, u_ft)
        if kind is TreeKind.STEADY and a_g > 0.0:
            raise QuadFTError(f"steady tree (storage {storage} < {u_ft}) cannot spend")
        if a_g > 0.0 and not a_g < u_ft:
            raise QuadFTError(f"spending rate {a_g} must stay below u_FT = {u_ft}")
        return cls(storage=storage, a_g=a_g, kind=kind)


def _finite(value: float, name: str) -> None:
    """QuadFTError naming `value` unless it is finite: a NaN compares false
    with every threshold, so range checks alone let it through."""
    if not math.isfinite(value):
        raise QuadFTError(f"{name} must be finite, got {value}")


def classify_tree(storage: float, u_ft: float) -> TreeKind:
    """Steady below u_FT; evolutionary at or above it."""
    _finite(storage, "storage")
    _finite(u_ft, "u_FT")
    if storage < 0.0:
        raise QuadFTError("storage must be nonnegative")
    return TreeKind.STEADY if storage < u_ft else TreeKind.EVOLUTIONARY


# ------------------------------------------------------------------ #
# Absorbing value of x_G for one weight quadruple
# ------------------------------------------------------------------ #

def _sample(family: _Family, b4: float) -> UniversalSample:
    """The absorbing sample at b4 on the family's measurement of P; see
    `absorbing_xg`."""
    line = family.line
    weights = line.weights_at(b4)
    (u1x, u1y), _, _, (u4x, u4y) = family.measured()
    residual = family.balance(weights)
    if residual > BALANCE_RTOL * line.c:
        raise InconsistentCaseError(
            f"weights {weights} do not balance at {line.point} (residual {residual:.3e}); "
            "was the plasticity line built on this quadrilateral?"
        )
    b1, b2, b3, _ = weights
    xg = math.hypot(b1 * u1x + b4 * u4x, b1 * u1y + b4 * u4y)
    d1, d2, d3, d4 = family.distances
    objective = b1 * d1 + b2 * d2 + b3 * d3 + b4 * d4
    return UniversalSample(b4=b4, weights=weights, xg_absorbing=xg, objective=objective)


def absorbing_xg(q: Quadrilateral, line: PlasticityLine, b4: float) -> UniversalSample:
    """Absorbing Gauss value x_G = |B1 u1 + B4 u4| for the family weights at
    b4, with the objective sum B_i |P A_i| of the collapsed tree.

    The closed form holds only where the weights balance at P = line.point;
    a residual |sum B_i u_i| above BALANCE_RTOL * c (a line that does not
    belong to q) raises InconsistentCaseError.
    """
    return _sample(_Family(q, line), b4)


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
    return _sample(family, b4)


def _sweep(family: _Family, grid: int,
           on_skip: Callable[[float, str], None] | None) -> list[UniversalSample]:
    """The samples of `universal_set`, from one measurement of P."""
    if grid < 1:
        raise QuadFTError("grid must be at least 1")
    line = family.line
    if grid == 1:
        b4s = [0.5 * sum(line.b4_interval)]
    else:
        b4s = linspace(*_sampled_range(line), grid)
    samples = []
    for b4 in b4s:
        try:
            samples.append(_sample(family, b4))
        except QuadFTError as exc:
            if on_skip is not None:
                on_skip(b4, str(exc))
    return samples


def universal_set(q: Quadrilateral, line: PlasticityLine, grid: int,
                  on_skip: Callable[[float, str], None] | None = None
                  ) -> list[UniversalSample]:
    """Absorbing values on a uniform B4 grid over the admissible interval.

    Failing grid points are omitted; `on_skip(b4, reason)` hears about each.
    """
    return _sweep(_Family(q, line), grid, on_skip)


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
    increasing order.  Needs u >= u_FT (from `result` when given); at u_FT the
    set collapses to [B4*].
    """
    _finite(u, "storage level")
    family = _Family(q, line)
    if result is None:
        best = _minimum(family)
        u_ft, b4_star = best.xg_absorbing, best.b4
    else:
        u_ft, b4_star = result.u_ft, result.b4_star
    if u < u_ft - BALANCE_RTOL * line.c:
        raise InfeasibleWeightsError(
            f"storage level {u} lies below the universal minimum {u_ft}"
        )
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
    Spending below the weight-triangle floor raises OverspendError; callers
    are responsible for storage >= u_FT and b4 from weights_for_storage.
    """
    if a_g < 0.0:
        raise QuadFTError(f"spending rate must be nonnegative, got {a_g}")
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
