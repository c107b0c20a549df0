"""Deterministic geometry of range (TOA) and range-difference (TDOA) localization.

The package studies the forward measurement maps of two- and three-receiver
configurations, their exact feasible sets, closed-form inversion, degeneracy
loci, and the projection linking ranges to range differences — in the plane
and in space — together with measurement-noise simulation and a CLI.

Importing the package loads none of its submodules.  The first public name a
program reads (``rangegeom.classify3``) imports the submodules of the table
below and binds all their names here, so later lookups are plain attribute
hits.  A submodule read as an attribute (``rangegeom.tdoa``) loads alone, and
the CLI imports its modules directly, so each command compiles only what it
runs.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it gives the package: the one list of them.
_EXPORTS = {
    "config": ("CollinearTriple", "GeneralTriangle", "SensorConfig", "TwoReceivers",
               "validate_config"),
    "errors": ("AtReceiver", "DegenerateConfig", "DimensionMismatch", "DuplicateReceiver",
               "Infeasible", "InvalidParam", "NotANode", "NotCollinear", "NotOnBoundary",
               "RangeGeomError", "UnknownLabel"),
    "kummer": ("Q3_FACETS", "Q3_FACETS_COLLINEAR", "Q3Report", "q3_membership",
               "quartic_residual"),
    "params": ("ParamPoint", "abc_from_config", "cayley_residual", "config_from_param",
               "param_from_config"),
    "sim": ("NoiseSpec", "NoisyBatch", "gen_noisy_tdoa", "gen_noisy_toa"),
    "spacetime": ("SpacetimeVec3", "SpacetimeVec4", "cross2", "hodge_cross", "lift",
                  "minkowski_inner", "triple_form"),
    "surface": ("ARC_LABELS", "HULL_COMPONENTS", "ConicArc", "HomogeneousForm", "HullComponent",
                "Node", "NodesAndTropes", "TangentCone", "Trope", "collinear_degeneration_check",
                "conic_arc", "gaussian_curvature", "homogeneous_form", "hull_boundary_classify",
                "nodes_and_tropes", "tangent_cone"),
    "tdoa": ("P2_FACETS", "TANGENCY_IDS", "P2Report", "TauRegion", "TdoaCoeffs",
             "classify_invert_tau", "classify_tau", "invert_tdoa", "p2_membership",
             "pi_fiber_line", "project_pi", "t_quadratic", "tangency_points", "tau_fibers",
             "tau_map", "tdoa_coeffs"),
    "toa2": ("Q2_FACETS", "Q2Class", "classify2", "classify_pair", "forward2", "invert2",
             "q2_residuals"),
    "toa3": ("FeasibilityReport", "JacobianReport", "SolutionSet", "classify3",
             "collinear_quadric_residual", "exterior_point", "forward3", "invert3",
             "invert3_collinear", "jacobian3"),
    "toa3d": ("Circle3D", "Feasibility3DReport", "SolutionSet3D", "classify3d_r3", "forward3d",
              "invert3d_r2", "invert3d_r3", "invert3d_r3_collinear", "make_circle"),
}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*(name for names in _EXPORTS.values() for name in names), "__version__"]


def __getattr__(name):
    """Bind `name` on first use: a submodule alone, a public name with the whole table.

    The table binds as one, as the eager imports did: whatever holds the package
    API (a caller, or a tracer that wraps the functions of loaded modules) finds
    every module of it loaded.
    """
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        owner = importlib.import_module(f"{__name__}.{module}")
        globals().update((n, getattr(owner, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
