"""Weighted Fermat-Torricelli and generalized Gauss tree solvers for convex
quadrilaterals: locations, dynamic weight plasticity, absorbing values and the
universal minimum, the storage rule that grows a degree-three tree, plus a
CLI with SVG output."""

from .errors import (
    AbsorbedWeightsError,
    ConvergenceError,
    DegenerateTreeError,
    DocumentError,
    InconsistentCaseError,
    InfeasibleTriangleError,
    InfeasibleWeightsError,
    OverspendError,
    QuadFTError,
)
from .fermat import (
    CaseKind,
    CaseTag,
    FermatTree,
    WeightedQuadrilateral,
    classify_case,
    locate_4wft,
    solve_4wft_general,
    solve_4wft_square,
    triangle_wft_angles,
    weighted_distance_sum,
    weiszfeld,
)
from .gauss import (
    GaussTree,
    GaussWeights,
    feasible_xg_interval,
    residual_absorbing_rate,
    solve_gauss_tree,
    tree_span,
)
from .geometry import (
    Point,
    Quadrilateral,
    angle_at,
    diagonal_intersection,
)
from .plasticity import (
    PlasticityLine,
    PlasticityReport,
    plasticity_line,
    plasticity_system_new,
    verify_plasticity,
)
from .universal import (
    UniversalResult,
    UniversalSample,
    absorbing_xg,
    evolve,
    universal_minimum,
    universal_set,
    weights_for_storage,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorbedWeightsError",
    "CaseKind",
    "CaseTag",
    "ConvergenceError",
    "DegenerateTreeError",
    "DocumentError",
    "FermatTree",
    "GaussTree",
    "GaussWeights",
    "InconsistentCaseError",
    "InfeasibleTriangleError",
    "InfeasibleWeightsError",
    "OverspendError",
    "PlasticityLine",
    "PlasticityReport",
    "Point",
    "QuadFTError",
    "Quadrilateral",
    "UniversalResult",
    "UniversalSample",
    "WeightedQuadrilateral",
    "absorbing_xg",
    "angle_at",
    "classify_case",
    "diagonal_intersection",
    "evolve",
    "feasible_xg_interval",
    "locate_4wft",
    "plasticity_line",
    "plasticity_system_new",
    "residual_absorbing_rate",
    "solve_4wft_general",
    "solve_4wft_square",
    "solve_gauss_tree",
    "tree_span",
    "triangle_wft_angles",
    "universal_minimum",
    "universal_set",
    "verify_plasticity",
    "weighted_distance_sum",
    "weights_for_storage",
    "weiszfeld",
]
