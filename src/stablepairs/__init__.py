"""Exact-arithmetic K-stability decisions for weighted vector pairs.

The public surface: lattice contexts and pairings, rational weight
polytopes, an exact LP core, the stability decision procedures with
machine-checkable certificates, constructive degenerations, the numeric
slope layer, and a brute-force oracle for independent verification.
"""

import importlib

# Public name -> defining module.  PEP 562: each module is imported on the
# first access to one of its names, so ``import stablepairs.cli`` loads only
# what the command line needs.
_SOURCES = {
    "degeneration": ("DegenerationProblem", "find_degeneration", "limit_support"),
    "lattice": ("InputError", "LatticeContext", "ModeError", "pair", "standard_simplex"),
    "numeric": ("CoefficientVector", "TorusPoint", "f_energy", "norm_sq", "p_value",
                "slope_along"),
    "polytope": ("RationalPolytope", "contains_point", "first_outside_vertex",
                 "hull_vertices", "includes", "minkowski_combine", "simplex_contains",
                 "support_value"),
    "stability": ("FrameFamily", "PairInstance", "StabilityVerdict", "WeightSupport",
                  "check_tian0", "deg_of_V", "is_semistable", "is_stable",
                  "minimal_uniform_m", "verdict", "weight"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
