"""tropline: exact tropical limits of plane lines relative to two divisors.

The pipeline runs: tropicalize a degenerating family of lines, extract its
level structure and leveled dual graph, build and solve the matching linear
system exactly, classify the limit against the moduli fans, and check the
log-rescaled convergence numerically.

Importing the package loads none of its modules: each public name is
resolved on first access (PEP 562) from the module `_EXPORTS` lists it
under, so a program that uses one layer, or a `trop` command, loads only
the modules it needs.  numpy loads only at the first amoeba computation.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": (
        "Cone",
        "Fan",
        "LatticeVector",
        "QuadrantPoint",
        "Rational",
        "complete_fan",
        "fan_from_text",
        "fan_to_text",
        "locate",
        "primitive",
        "stellar_subdivide",
        "validate_fan",
    ),
    "tropical": (
        "LineFamily",
        "TropicalCurve",
        "corner_locus_oracle",
        "curve_from_json",
        "curve_to_json",
        "curves_equal",
        "reflect",
        "tropicalize_line",
        "validate_curve",
    ),
    "building": (
        "Building",
        "LeveledDualGraph",
        "LevelStructure",
        "build_building",
        "describe_building",
        "extract_levels",
        "graph_from_json",
        "graph_to_json",
    ),
    "matching": (
        "MatchingSystem",
        "SolutionCone",
        "StabilityVerdict",
        "WeightTable",
        "build_system",
        "building_solution",
        "check_stability",
        "realize",
        "solve",
        "torus_weights",
    ),
    "moduli": (
        "LimitType",
        "TypeRow",
        "blowup_sequence",
        "classify",
        "exploded_fan",
        "ionel_fan",
        "type_table",
    ),
    "render": ("RenderSpec", "render_fan", "render_tropical"),
    "amoeba": (
        "AmoebaSample",
        "ConvergenceReport",
        "hausdorff",
        "log_image",
        "sample_amoeba",
        "sample_domain",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
