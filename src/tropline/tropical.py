"""Tropical curves in the quadrant and tropicalization of degenerating lines.

Conventions.  The family of lines is

    f_n([w1, w2]) = [x_n * w1,  y_n * (w1 + w2),  w2],

with coefficients x_n = n^(-p) and y_n = n^(-q).  The image line satisfies
y_n z1 - x_n z2 + x_n y_n z3 = 0, so in min-plus coordinates (v(n^(-t)) = t)
its tropicalization is the corner locus of

    min(q + X,  p + Y,  p + q)

intersected with the quadrant [0, oo)^2.  Traveling right means moving
toward the first coordinate divisor, traveling up toward the second.
Curves are stored with exact rational positions, integral edge directions,
and segments and rays kept separate.  A `TropicalCurve` checks its structure
when it is built; `validate()` checks head - tail = length * contact, in
integers by cross-multiplying the numerators and denominators of the
positions and the length, and builds fractions only for its message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    GeometryError,
    LatticeVector,
    QuadrantPoint,
    _connected,
    _json_typed,
    parse_rational,
    rational_str,
)

__all__ = [
    "NegativeExponent",
    "CurveInvalid",
    "LineFamily",
    "Vertex",
    "Segment",
    "Ray",
    "TropicalCurve",
    "tropicalize_line",
    "curve_to_json",
    "curve_from_json",
]


class NegativeExponent(ValueError):
    """A valuation exponent was negative."""


class CurveInvalid(ValueError):
    """A tropical curve violates its structural invariants."""


@dataclass(frozen=True)
class LineFamily:
    """A degenerating family of lines, recorded through its valuations:
    `p` and `q` are the decay exponents of the two coefficients."""

    p: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        if type(self.p) is not Fraction:
            object.__setattr__(self, "p", Fraction(self.p))
        if type(self.q) is not Fraction:
            object.__setattr__(self, "q", Fraction(self.q))
        if self.p.numerator < 0 or self.q.numerator < 0:
            raise NegativeExponent(f"exponents must be >= 0, got ({self.p}, {self.q})")


@dataclass(frozen=True)
class Vertex:
    id: str
    position: QuadrantPoint


@dataclass(frozen=True)
class Segment:
    """A bounded edge: position(head) - position(tail) = length * contact."""

    tail: str
    head: str
    contact: LatticeVector
    length: Fraction


@dataclass(frozen=True)
class Ray:
    """An unbounded edge leaving `base` in direction `contact` forever."""

    base: str
    contact: LatticeVector


@dataclass(frozen=True)
class TropicalCurve:
    vertices: tuple[Vertex, ...]
    segments: tuple[Segment, ...]
    rays: tuple[Ray, ...]

    def __post_init__(self) -> None:
        known = {v.id for v in self.vertices}
        if len(known) != len(self.vertices):
            raise CurveInvalid("duplicate vertex ids")
        for s in self.segments:
            if s.tail not in known or s.head not in known:
                raise CurveInvalid(f"segment {s} references a missing vertex")
            if s.contact.is_zero():
                raise CurveInvalid("segment with zero contact vector")
            if s.length <= 0:
                raise CurveInvalid("segment with non-positive length")
        for r in self.rays:
            if r.base not in known:
                raise CurveInvalid(f"ray {r} references a missing vertex")
            if r.contact.is_zero():
                raise CurveInvalid("ray with zero contact vector")
            if r.contact.x < 0 or r.contact.y < 0:
                raise CurveInvalid(f"ray {r} eventually leaves the quadrant")
        if not _connected(known, ((s.tail, s.head) for s in self.segments)):
            raise CurveInvalid("curve is not connected")

    def validate(self) -> None:
        """Check head - tail = length * contact on every segment.

        With a = tail, b = head and length ln/ld, each coordinate is checked
        in integers as (bn*ad - an*bd) * ld == ln * c * ad * bd.
        """
        pos = {v.id: v.position for v in self.vertices}
        for s in self.segments:
            ln, ld = s.length.as_integer_ratio()
            tail, head = pos[s.tail], pos[s.head]
            for a, b, c in ((tail.x, head.x, s.contact.x), (tail.y, head.y, s.contact.y)):
                (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
                if (bn * ad - an * bd) * ld != ln * c * ad * bd:
                    dx, dy = head.x - tail.x, head.y - tail.y
                    raise CurveInvalid(
                        f"segment identity broken on {s.tail}->{s.head}: "
                        f"delta ({dx}, {dy}) != {s.length} * {tuple(s.contact)}"
                    )


_E10, _E01, _E11 = LatticeVector(1, 0), LatticeVector(0, 1), LatticeVector(1, 1)


def tropicalize_line(family: LineFamily) -> TropicalCurve:
    """Corner locus of min(q + X, p + Y, p + q) inside the quadrant.

    Two cases on the exponents (p, q):

    * p == 0 or q == 0: a single vertex at (p, q) with rays (1, 0) and (0, 1);
    * otherwise, with m = min(p, q): a boundary vertex at (p - m, q - m)
      joined by a (1, 1) segment of length m to the vertex (p, q), which
      emits the two rays.  The boundary vertex is the origin when p == q.
    """
    p, q = family.p, family.q
    if not p or not q:
        v0 = Vertex("v0", QuadrantPoint(p, q))
        return TropicalCurve((v0,), (), (Ray("v0", _E10), Ray("v0", _E01)))
    m = min(p, q)
    v0 = Vertex("v0", QuadrantPoint(p - m, q - m))
    v1 = Vertex("v1", QuadrantPoint(p, q))
    seg = Segment("v0", "v1", _E11, m)
    return TropicalCurve((v0, v1), (seg,), (Ray("v1", _E10), Ray("v1", _E01)))


def curve_to_json(curve: TropicalCurve) -> dict:
    return {
        "vertices": [
            {"id": v.id, "x": rational_str(v.position.x), "y": rational_str(v.position.y)}
            for v in curve.vertices
        ],
        "segments": [
            {
                "tail": s.tail,
                "head": s.head,
                "contact": [s.contact.x, s.contact.y],
                "length": rational_str(s.length),
            }
            for s in curve.segments
        ],
        "rays": [
            {"base": r.base, "contact": [r.contact.x, r.contact.y]} for r in curve.rays
        ],
    }


def curve_from_json(data: dict) -> TropicalCurve:
    try:
        vertices = tuple(
            Vertex(
                _json_typed(v["id"], str, "id"),
                QuadrantPoint(parse_rational(v["x"]), parse_rational(v["y"])),
            )
            for v in data["vertices"]
        )
        segments = tuple(
            Segment(
                _json_typed(s["tail"], str, "tail"),
                _json_typed(s["head"], str, "head"),
                LatticeVector.from_json(s["contact"]),
                parse_rational(s["length"]),
            )
            for s in data["segments"]
        )
        rays = tuple(
            Ray(_json_typed(r["base"], str, "base"), LatticeVector.from_json(r["contact"]))
            for r in data["rays"]
        )
        curve = TropicalCurve(vertices, segments, rays)
    except (KeyError, TypeError, GeometryError) as exc:
        raise CurveInvalid(f"malformed tropical curve document: {exc}") from exc
    curve.validate()
    return curve
