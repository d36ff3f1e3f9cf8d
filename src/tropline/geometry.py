"""Exact planar lattice geometry: rationals, lattice vectors, cones and fans.

Everything here is exact.  Scalars are `fractions.Fraction`, directions are
integer vectors, and all cone/fan predicates are decided by one integer side
test, `Cone.side`, on integer directions.  Fans are rank-2 only, and a fan
is its rays: they are kept sorted counterclockwise starting from the most
clockwise ray at or above the positive x-axis, and every pair of adjacent
rays that turns by less than a half turn spans a two-dimensional cone.
Lattice vectors, quadrant points, cones and fans check themselves when they
are built, so a `Fan` in hand is a genuine fan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "LatticeVector",
    "QuadrantPoint",
    "Cone",
    "Fan",
    "GeometryError",
    "StructuralInvalid",
    "PointOutsideSupport",
    "RayNotInterior",
    "locate",
    "stellar_subdivide",
    "complete_fan",
    "fan_to_text",
    "rational_str",
    "parse_rational",
]


class GeometryError(ValueError):
    """Base class for exact-geometry input errors."""


class StructuralInvalid(GeometryError):
    """A cone or fan violates its structural invariants (bad generators or rays)."""


class PointOutsideSupport(GeometryError):
    """A located point lies outside the union of the fan's cones."""


class RayNotInterior(GeometryError):
    """A subdivision ray does not lie strictly inside a cone of the fan."""


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


def _json_typed(value, kind: type, key: str = ""):
    """`value` itself when its type is exactly `kind`, so that a JSON `true`
    is not an integer; raises TypeError, naming `key` if given, otherwise."""
    if type(value) is not kind:
        named = f" for {key!r}" if key else ""
        raise TypeError(f"expected a JSON {kind.__name__}{named}, got {value!r}")
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
        return iter((self.x, self.y))

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x + other.x, self.y + other.y)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.x, -self.y)

    def cross(self, other: "LatticeVector") -> int:
        return self.x * other.y - self.y * other.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_primitive(self) -> bool:
        return math.gcd(self.x, self.y) == 1

    def swapped(self) -> "LatticeVector":
        return LatticeVector(self.y, self.x)


def _connected(ids: Iterable[str], pairs: Iterable[tuple[str, str]]) -> bool:
    """Whether the graph on `ids` with edges `pairs` is connected (an empty
    or single-vertex graph is)."""
    parent = {i: i for i in ids}
    # Each union of two components leaves one component fewer.
    components = len(parent)

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        a, b = find(a), find(b)
        parent[a] = b
        components -= a != b
    return components <= 1


def _ccw_key(v: LatticeVector) -> tuple[int, bool, Fraction | int]:
    # Counterclockwise order over [0, 2pi) starting from (1, 0), decided
    # exactly: the half plane, then -x/y, which grows with the angle inside
    # each half; the horizontal ray opens its half.
    half = 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1
    return (half, v.y != 0, Fraction(-v.x, v.y) if v.y else 0)


def _cleared(values, factor: int = 1) -> tuple[int, list[int]]:
    """The unit `factor * lcm(denominators)` and each rational as an integer in it."""
    ratios = [v.as_integer_ratio() for v in values]
    unit = factor * math.lcm(*[d for _, d in ratios])
    return unit, [n * (unit // d) for n, d in ratios]


def _fraction(value) -> Fraction:
    """`value` as a Fraction, converting only a value that is not exactly one."""
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class QuadrantPoint:
    """A point of the closed quadrant [0, oo)^2 with exact coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", Fraction(self.x))
        if type(self.y) is not Fraction:
            object.__setattr__(self, "y", Fraction(self.y))
        if self.x.numerator < 0 or self.y.numerator < 0:
            raise GeometryError(f"point {self.x}, {self.y} leaves the quadrant")

    def __iter__(self) -> Iterator[Fraction]:
        return iter((self.x, self.y))


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

    def side(self, x: int, y: int) -> int:
        """Where the integer direction (x, y) lies: 1 in the relative interior,
        0 on the relative boundary, -1 outside the cone.

        The values tested are the generator coordinates of (x, y) times the
        positive determinant, or, on a ray, the dot product with it.
        """
        gens = self.generators
        if not gens:
            return 1 if x == 0 and y == 0 else -1
        u = gens[0]
        if len(gens) == 1:
            if u.x * y != u.y * x:
                return -1
            low = u.x * x + u.y * y
        else:
            v = gens[1]
            low = min(x * v.y - y * v.x, u.x * y - u.y * x)
        return (low > 0) - (low < 0)


ZERO_CONE = Cone(())


@dataclass(frozen=True)
class Fan:
    """A rational polyhedral fan in the plane, given by its rays.

    Every fan here is the largest fan on its rays: each pair of adjacent
    rays that turns by less than a half turn spans a two-dimensional cone.
    Construction sorts the rays counterclockwise and derives `cones`: the
    zero cone, one ray cone per ray, then the two-dimensional cones in ray
    order.  Two fans with the same rays are equal.
    """

    rays: tuple[LatticeVector, ...]
    cones: tuple[Cone, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        rays = tuple(sorted(self.rays, key=_ccw_key))
        if len(set(rays)) != len(rays):
            raise StructuralInvalid("duplicate rays")
        for r in rays:
            if not r.is_primitive():
                raise StructuralInvalid(f"ray {r} is not primitive")
        # Adjacent rays that turn by less than a half turn span a cone; such
        # cones cannot overlap, since each one is the gap after its first ray.
        pairs = zip(rays, rays[1:] + rays[:1])
        cones2 = tuple(Cone((u, v)) for u, v in pairs if u.cross(v) > 0)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(
            self, "cones", (ZERO_CONE,) + tuple(Cone((r,)) for r in rays) + cones2
        )

    @property
    def cones2d(self) -> tuple[Cone, ...]:
        return tuple(c for c in self.cones if c.dim == 2)


def locate(fan: Fan, p) -> Cone:
    """Find the unique smallest cone whose relative interior contains `p`.

    The origin locates to the zero cone, ray points to their ray cone, and
    everything else to a two-dimensional cone.  The point is scaled to an
    integer direction once, and each cone of `fan.cones` (zero cone, rays,
    then two-dimensional cones) is asked for its side of it.  Raises
    :class:`PointOutsideSupport` when `p` misses the fan's support.
    """
    px, py = p
    direction = _cleared((_fraction(px), _fraction(py)))[1]
    for cone in fan.cones:
        if cone.side(*direction) > 0:
            return cone
    raise PointOutsideSupport(
        f"point ({_fraction(px)}, {_fraction(py)}) lies outside the fan support"
    )


def stellar_subdivide(fan: Fan, ray: LatticeVector) -> Fan:
    """Insert `ray` into the 2D cone whose interior holds it, splitting it in two.

    This is the fan operation matching the blowup of a toric surface at the
    fixed point of that cone.  Raises :class:`RayNotInterior` unless the
    ray is primitive and strictly interior to a two-dimensional cone.
    """
    if not ray.is_primitive():
        raise RayNotInterior(f"subdivision ray {ray} must be primitive")
    if not any(c.side(ray.x, ray.y) > 0 for c in fan.cones2d):
        raise RayNotInterior(f"ray {ray} is not interior to a 2D cone of the fan")
    return Fan(fan.rays + (ray,))


def complete_fan(fan: Fan) -> Fan:
    """Close a quadrant-supported fan with the left and down rays, so the
    result is a complete fan describing the ambient toric surface."""
    down, left = LatticeVector(0, -1), LatticeVector(-1, 0)
    if fan.rays[0] != LatticeVector(1, 0) or fan.rays[-1] != LatticeVector(0, 1):
        raise StructuralInvalid("completion expects a fan supported on the quadrant")
    return Fan(fan.rays + (left, down))


def fan_to_text(fan: Fan) -> str:
    """Serialize a fan to the line-based text format (`ray a b`, `cone ...`)."""
    lines = [f"ray {r.x} {r.y}" for r in fan.rays]
    for cone in fan.cones2d:
        u, v = cone.generators
        lines.append(f"cone {u.x} {u.y} {v.x} {v.y}")
    return "\n".join(lines) + "\n"
