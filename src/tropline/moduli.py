"""Moduli fans of tropical line limits and the classification of limit types.

The moduli space of the tropical curves is the quadrant, parameterized by
the position (p, q) of the central vertex and divided along the diagonal
ray: that is the coarse ("exploded") fan.  Tracking level coincidences
refines it into the fine fan with rays

    (1,0), (2,1), (3,2), (1,1), (2,3), (1,2), (0,1),

whose cones cut the quadrant into 14 limit types: the interior point, 7
rays and 6 open two-dimensional cones.  `blowup_sequence` finds the four
smooth blowups between the two fans.  A type's kernel dimension is its
cone's: interior type curves have a rigid matching system; ray types a
one-parameter kernel; cone types a two-parameter kernel.  Kernel dimension
and post-quotient complex dimension always sum to 2, the dimension of the
space of lines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .geometry import (
    Cone,
    Fan,
    LatticeVector,
    ZERO_CONE,
    _fraction,
    locate,
    stellar_subdivide,
)

__all__ = [
    "LimitType",
    "TypeRow",
    "NotSmoothlyFactorizable",
    "exploded_fan",
    "ionel_fan",
    "classify",
    "blowup_sequence",
    "type_table",
]


class NotSmoothlyFactorizable(ValueError):
    """No sequence of smooth stellar subdivisions connects the two fans."""


@dataclass(frozen=True)
class LimitType:
    kind: str  # "INTERIOR" | "RAY" | "CONE"
    cone: Cone
    label: str
    mirror: str


@dataclass(frozen=True)
class TypeRow:
    label: str
    kind: str
    conditions: str
    kernel_dim: int
    quotient_dim: int
    mirror: str


@functools.cache
def exploded_fan() -> Fan:
    """The coarse moduli fan: the quadrant divided along the diagonal."""
    return Fan((LatticeVector(1, 0), LatticeVector(1, 1), LatticeVector(0, 1)))


@functools.cache
def ionel_fan() -> Fan:
    """The fine moduli fan on the seven rays of the module docstring; the
    four blowups that give it from the coarse fan are `blowup_sequence`'s."""
    rays = ((1, 0), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (0, 1))
    return Fan(tuple(LatticeVector(x, y) for x, y in rays))


def _cone_label(cone: Cone) -> str:
    if cone.dim == 0:
        return "INTERIOR"
    if cone.dim == 1:
        g = cone.generators[0]
        return f"RAY({g.x},{g.y})"
    u, v = cone.generators
    # List the generator nearer the diagonal first, matching how the cones
    # read off the sequence conditions (the diagonal side is the reference).
    if u.x >= u.y and v.x >= v.y:
        u, v = v, u
    return f"CONE(({u.x},{u.y}),({v.x},{v.y}))"


def _mirror_cone(cone: Cone) -> Cone:
    if cone.dim == 0:
        return ZERO_CONE
    gens = tuple(g.swapped() for g in cone.generators)
    if len(gens) == 2 and gens[0].cross(gens[1]) < 0:
        gens = (gens[1], gens[0])
    return Cone(gens)


def _limit_type(cone: Cone) -> LimitType:
    kind = {0: "INTERIOR", 1: "RAY", 2: "CONE"}[cone.dim]
    return LimitType(
        kind=kind,
        cone=cone,
        label=_cone_label(cone),
        mirror=_cone_label(_mirror_cone(cone)),
    )


@functools.lru_cache(maxsize=None)
def _limit_types() -> dict[Cone, LimitType]:
    """The limit type of each cone of the fine fan, built once."""
    return {cone: _limit_type(cone) for cone in ionel_fan().cones}


def classify(p, q) -> LimitType:
    """Limit type of the line family with valuations (p, q), p, q >= 0."""
    p, q = _fraction(p), _fraction(q)
    if p.numerator < 0 or q.numerator < 0:
        raise ValueError(f"valuations must be non-negative, got ({p}, {q})")
    return _limit_types()[locate(ionel_fan(), (p, q))]


def blowup_sequence(coarse: Fan, fine: Fan) -> list[tuple[Cone, LatticeVector]]:
    """Factor a smooth refinement into rounds of stellar subdivisions.

    Each round inserts, in counterclockwise order, every missing ray that is
    the sum of the two generators of a current cone.  Raises
    `NotSmoothlyFactorizable` when some round finds no insertable ray or
    when the rounds do not end at `fine`, as they cannot when `fine` does
    not refine `coarse`.
    """
    steps: list[tuple[Cone, LatticeVector]] = []
    current = coarse
    missing = [r for r in fine.rays if r not in current.rays]
    while missing:
        round_steps = []
        for cone in current.cones2d:
            u, v = cone.generators
            if (u + v) in missing:
                round_steps.append((cone, u + v))
        if not round_steps:
            raise NotSmoothlyFactorizable(
                f"no missing ray of {missing} is a sum of adjacent generators"
            )
        for cone, ray in round_steps:
            current = stellar_subdivide(current, ray)
            steps.append((cone, ray))
        missing = [r for r in fine.rays if r not in current.rays]
    if current != fine:
        raise NotSmoothlyFactorizable(
            "subdividing the coarse fan at every missing ray does not give the fine fan"
        )
    return steps


_CONDITIONS = {
    "INTERIOR": "p = 0 and q = 0",
    "RAY(1,0)": "p > 0 and q = 0",
    "RAY(0,1)": "q > 0 and p = 0",
    "CONE((2,1),(1,0))": "p > 2q and q > 0",
    "CONE((1,2),(0,1))": "q > 2p and p > 0",
    "RAY(2,1)": "p = 2q and q > 0",
    "RAY(1,2)": "q = 2p and p > 0",
    "CONE((3,2),(2,1))": "2q > p and 2p > 3q",
    "CONE((2,3),(1,2))": "2p > q and 2q > 3p",
    "RAY(3,2)": "2p = 3q and q > 0",
    "RAY(2,3)": "2q = 3p and p > 0",
    "CONE((1,1),(3,2))": "p > q and 3q > 2p",
    "CONE((1,1),(2,3))": "q > p and 3p > 2q",
    "RAY(1,1)": "p = q and p > 0",
}


def type_table() -> list[TypeRow]:
    """All 14 limit types with their expected dimensions: the interior, 7
    rays and 6 cones.

    The kernel dimension of the matching system is the dimension of the
    type's cone, and the complex dimension after the torus quotient is the
    rest of the dimension 2 of the space of lines.

    The abstract counts 13 types of curves in Ionel's compactified moduli
    space.  This table reads them as its 13 boundary types, every row but
    the interior, whose lines do not degenerate.  That is a reading of the
    abstract, which lists no types, not a quote.
    """
    rows = []
    for lt in _limit_types().values():
        rows.append(
            TypeRow(
                label=lt.label,
                kind=lt.kind,
                conditions=_CONDITIONS[lt.label],
                kernel_dim=lt.cone.dim,
                quotient_dim=2 - lt.cone.dim,
                mirror=lt.mirror,
            )
        )
    return rows
