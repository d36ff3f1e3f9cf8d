"""tropline: exact tropical limits of plane lines relative to two divisors.

The pipeline runs: tropicalize a degenerating family of lines, extract its
level structure and leveled dual graph, build and solve the matching linear
system exactly, classify the limit against the moduli fans, and check the
log-rescaled convergence numerically.
"""

from .geometry import (
    Cone,
    Fan,
    LatticeVector,
    QuadrantPoint,
    Rational,
    complete_fan,
    fan_from_text,
    fan_to_text,
    locate,
    primitive,
    stellar_subdivide,
    validate_fan,
)
from .tropical import (
    LineFamily,
    TropicalCurve,
    corner_locus_oracle,
    curve_from_json,
    curve_to_json,
    curves_equal,
    reflect,
    tropicalize_line,
    validate_curve,
)
from .building import (
    Building,
    LeveledDualGraph,
    LevelStructure,
    build_building,
    describe_building,
    extract_levels,
    graph_from_json,
    graph_to_json,
)
from .matching import (
    MatchingSystem,
    SolutionCone,
    StabilityVerdict,
    WeightTable,
    build_system,
    building_solution,
    check_stability,
    realize,
    solve,
    torus_weights,
)
from .moduli import (
    LimitType,
    TypeRow,
    blowup_sequence,
    classify,
    exploded_fan,
    ionel_fan,
    type_table,
)
from .render import RenderSpec, render_fan, render_tropical

__version__ = "0.1.0"

# The amoeba module needs numpy, which the exact layers do not; its names
# are loaded on first access (PEP 562).
_AMOEBA_NAMES = frozenset(
    (
        "AmoebaSample",
        "ConvergenceReport",
        "hausdorff",
        "log_image",
        "sample_amoeba",
        "sample_domain",
    )
)


def __getattr__(name: str):
    if name in _AMOEBA_NAMES:
        from . import amoeba

        return getattr(amoeba, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
