"""Exact planar lattice geometry: rationals, lattice vectors, cones and fans.

Everything here is exact.  Scalars are `fractions.Fraction`, directions are
integer vectors, and all cone/fan predicates are decided by one integer side
test, `Cone.side`, on integer directions.  Fans are rank-2 only: rays are
kept sorted counterclockwise starting from the most clockwise ray at or
above the positive x-axis, and every two-dimensional cone is spanned by a
pair of adjacent rays.  Lattice vectors, quadrant points, cones and fans
check themselves when they are built, so a `Fan` in hand is a genuine fan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Rational = Fraction

__all__ = [
    "Rational",
    "LatticeVector",
    "QuadrantPoint",
    "Cone",
    "Fan",
    "FanReport",
    "GeometryError",
    "StructuralInvalid",
    "PointOutsideSupport",
    "RayNotInterior",
    "TargetNotInFan",
    "primitive",
    "locate",
    "stellar_subdivide",
    "validate_fan",
    "complete_fan",
    "fan_from_cones",
    "fan_to_text",
    "fan_from_text",
    "rational_str",
    "parse_rational",
]


class GeometryError(ValueError):
    """Base class for exact-geometry input errors."""


class StructuralInvalid(GeometryError):
    """A fan violates its structural invariants (overlapping cones, bad rays)."""


class PointOutsideSupport(GeometryError):
    """A located point lies outside the union of the fan's cones."""


class RayNotInterior(GeometryError):
    """A subdivision ray does not lie strictly inside the target cone."""


class TargetNotInFan(GeometryError):
    """The cone passed to a subdivision is not a cone of the fan."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse `N` or `N/D` into an exact rational; decimals and a zero `D` are
    rejected, and anything but a string raises TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"not an exact rational literal: {text!r}")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if re.search(r"/0+$", text):
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(text)


def _json_typed(value, kind: type):
    """`value` itself when its type is exactly `kind`, so that a JSON `true`
    is not an integer; raises TypeError otherwise."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _json_pair(value) -> list:
    """`value` if it is a JSON list of two entries; raises TypeError otherwise."""
    if type(value) is not list or len(value) != 2:
        raise TypeError(f"expected a JSON pair, got {value!r}")
    return value


def rational_str(value: Fraction) -> str:
    """Serialize a rational as the canonical exact string `num/den`."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class LatticeVector:
    """An integer vector in the plane; used for ray and contact directions."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise GeometryError(f"lattice vector needs integer entries, got {self!r}")

    @classmethod
    def from_json(cls, pair) -> "LatticeVector":
        """The vector of a JSON pair of integers; raises TypeError otherwise."""
        x, y = _json_pair(pair)
        return cls(_json_typed(x, int), _json_typed(y, int))

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.x, -self.y)

    def scale(self, k: int) -> "LatticeVector":
        return LatticeVector(k * self.x, k * self.y)

    def cross(self, other: "LatticeVector") -> int:
        return self.x * other.y - self.y * other.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_primitive(self) -> bool:
        return math.gcd(self.x, self.y) == 1

    def swapped(self) -> "LatticeVector":
        return LatticeVector(self.y, self.x)


ZERO_VECTOR = LatticeVector(0, 0)


def _connected(ids: Iterable[str], pairs: Iterable[tuple[str, str]]) -> bool:
    """Whether the graph on `ids` with edges `pairs` is connected (an empty
    or single-vertex graph is)."""
    parent = {i: i for i in ids}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(i) for i in parent}) <= 1


def primitive(v: LatticeVector) -> tuple[LatticeVector, int]:
    """Split an integer vector into primitive direction and multiplicity.

    Returns `(direction, k)` with `v = k * direction`, `k >= 0`, and
    `direction` primitive (or zero exactly when `v` is zero).
    """
    g = math.gcd(v.x, v.y)
    if g == 0:
        return ZERO_VECTOR, 0
    return LatticeVector(v.x // g, v.y // g), g


def _ccw_key(v: LatticeVector) -> tuple[int, Fraction | float]:
    # Counterclockwise order over [0, 2pi) starting from (1, 0), decided
    # exactly: the half plane, then -x/y, which grows with the angle inside
    # each half; the horizontal ray opens its half.
    half = 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1
    return (half, -math.inf if v.y == 0 else Fraction(-v.x, v.y))


def _integer_direction(x, y) -> tuple[int, int]:
    """The rational point (x, y) scaled by the least common denominator."""
    x, y = Fraction(x), Fraction(y)
    den = math.lcm(x.denominator, y.denominator)
    return x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)


@dataclass(frozen=True)
class QuadrantPoint:
    """A point of the closed quadrant [0, oo)^2 with exact coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        if self.x < 0 or self.y < 0:
            raise GeometryError(f"point {self.x}, {self.y} leaves the quadrant")

    def __iter__(self) -> Iterator[Fraction]:
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Cone:
    """A strongly convex rational cone spanned by 0, 1 or 2 primitive rays.

    Two-dimensional cones list their generators counterclockwise.  Membership
    is decided on integer directions by :meth:`side`; a rational point is
    first scaled to one.
    """

    generators: tuple[LatticeVector, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) > 2:
            raise StructuralInvalid("only simplicial planar cones are supported")
        for g in gens:
            if g.is_zero() or not g.is_primitive():
                raise StructuralInvalid(f"cone generator {g} must be primitive")
        if len(gens) == 2 and gens[0].cross(gens[1]) <= 0:
            raise StructuralInvalid(
                f"cone generators {gens[0]}, {gens[1]} must be independent and counterclockwise"
            )

    @property
    def dim(self) -> int:
        return len(self.generators)

    def determinant(self) -> int:
        if self.dim != 2:
            return 0
        return self.generators[0].cross(self.generators[1])

    def side(self, x: int, y: int) -> int:
        """Where the integer direction (x, y) lies: 1 in the relative interior,
        0 on the relative boundary, -1 outside the cone.

        The values tested are the generator coordinates of (x, y) times the
        positive determinant, or, on a ray, the dot product with it.
        """
        if self.dim == 0:
            return 1 if x == 0 and y == 0 else -1
        u = self.generators[0]
        if self.dim == 1:
            if u.x * y != u.y * x:
                return -1
            low = u.x * x + u.y * y
        else:
            v = self.generators[1]
            low = min(x * v.y - y * v.x, u.x * y - u.y * x)
        return (low > 0) - (low < 0)

    def contains(self, px, py) -> bool:
        """Membership of the rational point (px, py) in the closed cone."""
        return self.side(*_integer_direction(px, py)) >= 0

    def interior_contains(self, px, py) -> bool:
        """Membership of the rational point (px, py) in the relative interior."""
        return self.side(*_integer_direction(px, py)) > 0


ZERO_CONE = Cone(())


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    complete: bool


@dataclass(frozen=True)
class Fan:
    """A rational polyhedral fan in the plane.

    `cones` holds every cone of the fan: the zero cone, one ray cone per
    ray, and the two-dimensional cones.  Construction checks that the cones
    form a fan and puts rays and cones in one canonical order, so two fans
    with the same cones are equal; use :func:`fan_from_cones` to build from
    the maximal cones alone.
    """

    rays: tuple[LatticeVector, ...]
    cones: tuple[Cone, ...]

    def __post_init__(self) -> None:
        rays = tuple(sorted(self.rays, key=_ccw_key))
        if len(set(rays)) != len(rays):
            raise StructuralInvalid("duplicate rays")
        for r in rays:
            if not r.is_primitive():
                raise StructuralInvalid(f"ray {r} is not primitive")
        # Every 2-D cone must span two angularly adjacent rays, and no cone
        # may repeat.  Such cones cannot overlap: each one is the gap after
        # its first ray, so that ray's place orders them canonically.
        cones2 = [c for c in self.cones if c.dim == 2]
        for cone in cones2:
            u, v = cone.generators
            if u not in rays or v not in rays:
                raise StructuralInvalid(f"cone generator of {cone} missing from ray list")
            for r in rays:
                if r not in (u, v) and cone.side(r.x, r.y) > 0:
                    raise StructuralInvalid(f"ray {r} lies inside cone {cone}")
        cones2.sort(key=lambda c: rays.index(c.generators[0]))
        for a, b in zip(cones2, cones2[1:]):
            if a == b:
                raise StructuralInvalid(f"duplicate cone {a}")
        normalized = (ZERO_CONE,) + tuple(Cone((r,)) for r in rays) + tuple(cones2)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "cones", normalized)

    @property
    def cones2d(self) -> tuple[Cone, ...]:
        return tuple(c for c in self.cones if c.dim == 2)


def fan_from_cones(cones: Iterable[Cone]) -> Fan:
    """Assemble a fan from its maximal cones, collecting rays and faces."""
    cones = list(cones)
    rays: list[LatticeVector] = []
    for cone in cones:
        for g in cone.generators:
            if g not in rays:
                rays.append(g)
    return Fan(rays=tuple(rays), cones=tuple(c for c in cones if c.dim == 2))


def locate(fan: Fan, p) -> Cone:
    """Find the unique smallest cone whose relative interior contains `p`.

    The origin locates to the zero cone, ray points to their ray cone, and
    everything else to a two-dimensional cone.  The point is scaled to an
    integer direction once, and each cone of `fan.cones` (zero cone, rays,
    then two-dimensional cones) is asked for its side of it.  Raises
    :class:`PointOutsideSupport` when `p` misses the fan's support.
    """
    px, py = p
    direction = _integer_direction(px, py)
    for cone in fan.cones:
        if cone.side(*direction) > 0:
            return cone
    raise PointOutsideSupport(
        f"point ({Fraction(px)}, {Fraction(py)}) lies outside the fan support"
    )


def stellar_subdivide(fan: Fan, target: Cone, ray: LatticeVector) -> Fan:
    """Insert `ray` into the 2D cone `target`, splitting it in two.

    This is the fan operation matching the blowup of a toric surface at the
    fixed point of `target`.  The ray must be primitive and strictly
    interior to the target cone.
    """
    if target.dim != 2 or target not in fan.cones:
        raise TargetNotInFan(f"{target} is not a 2D cone of the fan")
    if not ray.is_primitive():
        raise RayNotInterior(f"subdivision ray {ray} must be primitive")
    if not target.interior_contains(ray.x, ray.y):
        raise RayNotInterior(f"ray {ray} is not interior to {target}")
    u, v = target.generators
    new_cones = [c for c in fan.cones2d if c != target]
    new_cones.extend([Cone((u, ray)), Cone((ray, v))])
    return Fan(rays=fan.rays + (ray,), cones=tuple(new_cones))


def validate_fan(fan: Fan) -> FanReport:
    """Report smoothness and completeness of a fan."""
    smooth = all(abs(c.determinant()) == 1 for c in fan.cones2d)
    rays = fan.rays
    complete = len(rays) >= 3
    if complete:
        cone_set = {c.generators for c in fan.cones2d}
        for i, r in enumerate(rays):
            nxt = rays[(i + 1) % len(rays)]
            if r.cross(nxt) <= 0 or (r, nxt) not in cone_set:
                complete = False
                break
    return FanReport(smooth=smooth, complete=complete)


def complete_fan(fan: Fan) -> Fan:
    """Close a quadrant-supported fan with the down and left rays.

    Adds rays (-1, 0) and (0, -1) together with the three closing cones, so
    the result is a complete fan describing the ambient toric surface.
    """
    down, left = LatticeVector(0, -1), LatticeVector(-1, 0)
    first, last = fan.rays[0], fan.rays[-1]
    if first != LatticeVector(1, 0) or last != LatticeVector(0, 1):
        raise StructuralInvalid("completion expects a fan supported on the quadrant")
    cones = list(fan.cones2d)
    cones.append(Cone((last, left)))
    cones.append(Cone((left, down)))
    cones.append(Cone((down, first)))
    return Fan(rays=fan.rays + (left, down), cones=tuple(cones))


def fan_to_text(fan: Fan) -> str:
    """Serialize a fan to the line-based text format (`ray a b`, `cone ...`)."""
    lines = [f"ray {r.x} {r.y}" for r in fan.rays]
    for cone in fan.cones2d:
        u, v = cone.generators
        lines.append(f"cone {u.x} {u.y} {v.x} {v.y}")
    return "\n".join(lines) + "\n"


def fan_from_text(text: str) -> Fan:
    rays: list[LatticeVector] = []
    cones: list[Cone] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "ray" and len(parts) == 3:
                rays.append(LatticeVector(int(parts[1]), int(parts[2])))
            elif parts[0] == "cone" and len(parts) == 5:
                u = LatticeVector(int(parts[1]), int(parts[2]))
                v = LatticeVector(int(parts[3]), int(parts[4]))
                cones.append(Cone((u, v)))
            else:
                raise ValueError
        except ValueError as exc:
            raise StructuralInvalid(f"bad fan line {lineno}: {raw!r}") from exc
    return Fan(rays=tuple(rays), cones=tuple(cones))
