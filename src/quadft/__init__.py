"""Weighted Fermat-Torricelli and generalized Gauss tree solvers for convex
quadrilaterals: locations, dynamic weight plasticity, absorbing values and the
universal minimum, the storage rule that grows a degree-three tree, plus a
CLI with SVG output.

The exports are lazy (PEP 562): `import quadft` loads no solver module, and
the first access to a name imports the module that defines it, so a CLI
process compiles only the solvers its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Each export and the module that defines it.
_EXPORTS = {
    "AbsorbedWeightsError": "errors",
    "ConvergenceError": "errors",
    "DegenerateTreeError": "errors",
    "DocumentError": "errors",
    "InconsistentCaseError": "errors",
    "InfeasibleTriangleError": "errors",
    "InfeasibleWeightsError": "errors",
    "OverspendError": "errors",
    "QuadFTError": "errors",

    "Point": "geometry",
    "Quadrilateral": "geometry",
    "angle_at": "geometry",
    "diagonal_intersection": "geometry",

    "CaseKind": "fermat",
    "CaseTag": "fermat",
    "FermatTree": "fermat",
    "WeightedQuadrilateral": "fermat",
    "classify_case": "fermat",
    "locate_4wft": "fermat",
    "solve_4wft_general": "fermat",
    "solve_4wft_square": "fermat",
    "triangle_wft_angles": "fermat",
    "weighted_distance_sum": "fermat",
    "weiszfeld": "fermat",

    "GaussTree": "gauss",
    "GaussWeights": "gauss",
    "feasible_xg_interval": "gauss",
    "residual_absorbing_rate": "gauss",
    "solve_gauss_tree": "gauss",
    "tree_span": "gauss",

    "PlasticityLine": "plasticity",
    "PlasticityReport": "plasticity",
    "plasticity_line": "plasticity",
    "plasticity_system_new": "plasticity",
    "verify_plasticity": "plasticity",

    "UniversalResult": "universal",
    "UniversalSample": "universal",
    "absorbing_xg": "universal",
    "evolve": "universal",
    "universal_minimum": "universal",
    "universal_set": "universal",
    "weights_for_storage": "universal",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the module that defines the export `name` and keep the value
    here, so later lookups are plain global reads."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
