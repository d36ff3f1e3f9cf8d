"""Reference implementations that the tests compare the library against.

No `trop` command and no library module calls these: each is a brute-force
scan, a normal form or a checker that states what a result must be
independently of how the library computes it, except `piece_positions`,
which reads every piece's position off the library's own walk.  Test
modules import them with `from oracles import ...`, since pytest puts
`tests/` on `sys.path`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from tropline import _linalg, matching
from tropline.geometry import Fan, QuadrantPoint, _cleared
from tropline.matching import Equation, WeightTable
from tropline.tropical import CurveInvalid, LineFamily, Ray, Segment, TropicalCurve, Vertex

# Tropical curves.


def canonical(curve: TropicalCurve):
    """Geometry-only normal form, independent of vertex ids and order."""
    pos = {v.id: (v.position.x, v.position.y) for v in curve.vertices}
    verts = tuple(sorted(pos.values()))
    segs = []
    for s in curve.segments:
        a, b = pos[s.tail], pos[s.head]
        if a <= b:
            segs.append((a, b, (s.contact.x, s.contact.y), s.length))
        else:
            segs.append((b, a, (-s.contact.x, -s.contact.y), s.length))
    rays = tuple(sorted((pos[r.base], (r.contact.x, r.contact.y)) for r in curve.rays))
    return verts, tuple(sorted(segs)), rays


def curves_equal(a: TropicalCurve, b: TropicalCurve) -> bool:
    """Exact geometric equality, ignoring vertex naming."""
    return canonical(a) == canonical(b)


def corner_locus_oracle(
    family: LineFamily,
    window: Fraction,
    step: Fraction,
    tol: Fraction,
) -> set[tuple[Fraction, Fraction]]:
    """Brute-force corner locus scan over the grid of spacing `step`.

    Evaluates the three tropical terms at every grid point of
    [0, window]^2 and keeps the points where the two smallest terms are
    within `tol` of each other.  Entirely independent of the case analysis
    in :func:`tropicalize_line`; everything is computed in a common integer
    unit so the scan is exact and fast.
    """
    window, step, tol = Fraction(window), Fraction(step), Fraction(tol)
    if window <= 0 or step <= 0 or tol < 0:
        raise ValueError("window and step must be positive, tol non-negative")
    p, q = family.p, family.q
    dens = [step.denominator, p.denominator, q.denominator, tol.denominator]
    unit = 1
    for d in dens:
        unit = unit * d // math.gcd(unit, d)
    pi, qi = int(p * unit), int(q * unit)
    si = int(step * unit)
    ti = int(tol * unit)
    count = int(window / step)
    hits: set[tuple[Fraction, Fraction]] = set()
    const = pi + qi
    for i in range(count + 1):
        t1 = qi + i * si
        for j in range(count + 1):
            t2 = pi + j * si
            a, b, c = sorted((t1, t2, const))
            if b - a <= ti:
                hits.add((Fraction(i * si, unit), Fraction(j * si, unit)))
    return hits


def reflect(curve: TropicalCurve) -> TropicalCurve:
    """Swap the two coordinates of every position and contact vector."""
    vertices = tuple(
        Vertex(v.id, QuadrantPoint(v.position.y, v.position.x)) for v in curve.vertices
    )
    segments = tuple(
        Segment(s.tail, s.head, s.contact.swapped(), s.length) for s in curve.segments
    )
    rays = tuple(Ray(r.base, r.contact.swapped()) for r in curve.rays)
    return TropicalCurve(vertices, segments, rays)


def min_squared_distance(curve: TropicalCurve, point) -> Fraction:
    """Exact squared Euclidean distance from a point to the curve.

    Like :func:`corner_locus_oracle`, everything is computed in a common
    integer unit; the only fraction built is the result.
    """
    if not curve.vertices:
        raise CurveInvalid("curve has no vertices")
    coords = [c for v in curve.vertices for c in v.position]
    unit, (px, py, *scaled) = _cleared(
        [Fraction(point[0]), Fraction(point[1]), *coords, *(s.length for s in curve.segments)]
    )
    # Offsets from each vertex to the point, in the unit.
    offset = {
        v.id: (px - scaled[2 * i], py - scaled[2 * i + 1]) for i, v in enumerate(curve.vertices)
    }
    best, best_den = min(wx * wx + wy * wy for wx, wy in offset.values()), 1
    edges = [
        (offset[s.tail], s.contact, t) for s, t in zip(curve.segments, scaled[len(coords):])
    ]
    edges += [(offset[r.base], r.contact, None) for r in curve.rays]
    for (wx, wy), c, tmax in edges:
        # Project onto w - t*c with t clamped to [0, tmax]; t <= 0 is the
        # base vertex, already counted.  Inside the edge the squared
        # distance is (|w|^2 den - num^2) / den.
        num, den = wx * c.x + wy * c.y, c.x * c.x + c.y * c.y
        if num <= 0:
            continue
        if tmax is not None and num >= tmax * den:
            d2, den = (wx - tmax * c.x) ** 2 + (wy - tmax * c.y) ** 2, 1
        else:
            d2 = (wx * wx + wy * wy) * den - num * num
        if d2 * best_den < best * den:
            best, best_den = d2, den
    return Fraction(best, best_den * unit * unit)


# Fans.


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    complete: bool


def validate_fan(fan: Fan) -> FanReport:
    """Report smoothness and completeness of a fan."""
    smooth = all(abs(u.cross(v)) == 1 for u, v in (c.generators for c in fan.cones2d))
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


# Log images.


class ZeroCoordinate(ValueError):
    """log_image needs all three homogeneous coordinates nonzero."""


def log_image(point, n: float) -> tuple[float, float]:
    """Rescaled log-modulus image of a projective point, clipped to the quadrant."""
    z1, z2, z3 = (complex(z) for z in point)
    if z1 == 0 or z2 == 0 or z3 == 0:
        raise ZeroCoordinate("log image needs nonzero homogeneous coordinates")
    if not n > 1:
        raise ValueError("rescaling base must exceed 1")
    log_n = math.log(n)
    x = -math.log(abs(z1 / z3)) / log_n
    y = -math.log(abs(z2 / z3)) / log_n
    return (max(0.0, x), max(0.0, y))


# Integer linear algebra.


def rank(matrix: Sequence[_linalg.SparseRow]) -> int:
    return len(_linalg.rref(matrix)[1])


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lattice_canonical(vectors: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonical basis of the sublattice of Z^2 spanned by `vectors`.

    The result is independent of the generating set: empty for the zero
    lattice, a single sign-normalized vector for rank one, and a Hermite
    pair ((d1, y0), (0, g2)) with 0 <= y0 < g2 for rank two.
    """
    vecs = [(int(a), int(b)) for a, b in vectors if (a, b) != (0, 0)]
    if not vecs:
        return ()
    if all(a == 0 for a, _ in vecs):
        g2 = 0
        for _, b in vecs:
            g2 = math.gcd(g2, b)
        return ((0, g2),)
    # Combine into one vector (d1, y0) whose first entry is the gcd of all
    # first entries, collecting the induced second coordinates.
    d, y = 0, 0
    for a, b in vecs:
        g, s, t = xgcd(d, a)
        y = s * y + t * b
        d = g
    # d and g2 are gcds, so no sign needs normalizing.
    g2 = 0
    for a, b in vecs:
        g2 = math.gcd(g2, b - a // d * y)
    if g2 == 0:
        return ((d, y),)
    y %= g2
    return ((d, y), (0, g2))


# Matching systems.


def evaluate(equation: Equation, values: Sequence[Fraction]) -> Fraction:
    """The left-hand side of `equation` at `values`, one per variable."""
    return sum(a * values[j] for j, a in equation.row)


def piece_positions(graph, solution) -> dict[str, tuple[Fraction, Fraction]]:
    """The position of every piece, trivial ones included, that `solution`
    places it at, as `matching.realize` finds it before merging the trivial
    pieces away."""
    unit, values = _cleared(matching._solution_values(graph, solution))
    return {
        pid: (Fraction(x, unit), Fraction(y, unit))
        for pid, ((x,), (y,)) in matching._piece_positions(graph, [values], unit).items()
    }


def piece_rank(table: WeightTable, piece_id: str) -> int:
    """Rank of the piece's position matrix over the kernel parameters."""
    rows = [[(k, a) for k, a in enumerate(r) if a] for r in table.entries[piece_id]]
    return rank(rows)


def piece_lattice(table: WeightTable, piece_id: str) -> tuple[tuple[int, int], ...]:
    """Canonical basis of the lattice the piece's position columns span."""
    return lattice_canonical(list(zip(*table.entries[piece_id])))
