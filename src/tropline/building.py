"""Level structure of a tropical curve and the leveled dual graph.

A tropical curve determines the list 0 < l_1 < ... < l_m of nonzero
coordinates of its vertices.  Cutting the quadrant by the lines x = l_i and
y = l_i refines the curve: original vertices become non-trivial pieces,
each transversal interior crossing of an edge with a cut line becomes a
trivial cylinder piece, and the edge fragments in between become nodes (or
ends, for the unbounded remainders).  Pieces are indexed by a pair of level
coordinates, each either at an integer level or strictly between two
consecutive ones.  `build_building` clears denominators once: every
position, length, level and crossing is an integer in units of 1/unit, and
fractions are built only for the public `Building.positions` and levels.  It
names the pieces c1, c2, ... by one sort on their level coordinates and
position.
A `LeveledDualGraph` checks its references and its geometry (orientation,
contact signs, zero contacts, cylinders, connectivity) when it is built, so
`build_building` and `graph_from_json` return only valid graphs, and the
matching layer checks nothing about a graph.  It keeps the tables it was
checked with, the multilevel and the incident edges of each piece, and the
matching layer reads those instead of building its own.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import LatticeVector, _cleared, _connected, _fraction, _json_pair, _json_typed
from .tropical import TropicalCurve

__all__ = [
    "LevelCoordinate",
    "LevelStructure",
    "Piece",
    "NodeEdge",
    "EndEdge",
    "LeveledDualGraph",
    "Building",
    "GraphInvalid",
    "extract_levels",
    "build_building",
    "describe_building",
    "graph_to_json",
    "graph_from_json",
]


class GraphInvalid(ValueError):
    """A leveled dual graph violates its structural invariants."""


@dataclass(frozen=True)
class LevelCoordinate:
    """Position in the level ladder: at level `lo`, or between `lo` and `hi`.

    `is_integer`, whether it is at a level, is stored when it is built,
    outside ==, hash and repr."""

    lo: int
    hi: int
    is_integer: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi not in (self.lo, self.lo + 1):
            raise GraphInvalid(f"bad level coordinate ({self.lo}, {self.hi})")
        object.__setattr__(self, "is_integer", self.lo == self.hi)

    @classmethod
    def at(cls, a: int) -> "LevelCoordinate":
        return cls(a, a)

    @classmethod
    def between(cls, a: int) -> "LevelCoordinate":
        return cls(a, a + 1)

    @property
    def level(self) -> int:
        if not self.is_integer:
            raise GraphInvalid(f"coordinate {self} is between levels")
        return self.lo

    def __str__(self) -> str:
        return str(self.lo) if self.is_integer else f"{self.lo}..{self.hi}"

    def to_json(self) -> dict:
        return {"at": self.lo} if self.is_integer else {"between": [self.lo, self.hi]}

    @classmethod
    def from_json(cls, data: dict) -> "LevelCoordinate":
        if ("at" in data) == ("between" in data):
            raise GraphInvalid(
                f"bad level coordinate document {data!r}: it needs exactly one of"
                " 'at' and 'between'"
            )
        if "at" in data:
            return cls.at(_json_typed(data["at"], int))
        a, b = _json_pair(data["between"])
        if _json_typed(b, int) != _json_typed(a, int) + 1:
            raise GraphInvalid(f"between-pair {data['between']} is not consecutive")
        return cls.between(a)


Multilevel = tuple[LevelCoordinate, LevelCoordinate]


@dataclass(frozen=True)
class LevelStructure:
    """The strictly increasing positive level values l_1 < ... < l_m.

    The level map sends 0 to 0 and a to l_a.  The order is checked in
    integers: a/b < c/d as a*d < c*b, for positive denominators.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        ratios = [v.as_integer_ratio() for v in values]
        if any(a * d >= c * b for (a, b), (c, d) in zip(((0, 1), *ratios), ratios)):
            raise GraphInvalid(
                "levels must be strictly increasing and positive: "
                + ", ".join(str(v) for v in values)
            )

    @property
    def m(self) -> int:
        return len(self.values)

    def phi(self, a: int) -> Fraction:
        if a == 0:
            return Fraction(0)
        return self.values[a - 1]


@dataclass(frozen=True)
class Piece:
    id: str
    levels: Multilevel
    trivial: bool


@dataclass(frozen=True)
class NodeEdge:
    """A bounded edge from `tail` to `head`."""

    id: str
    tail: str
    head: str
    contact: LatticeVector

    def away_from(self, piece: str) -> LatticeVector:
        """The contact vector oriented away from `piece`, one of the node's ends."""
        return self.contact if self.tail == piece else -self.contact

    def other_end(self, piece: str) -> str:
        """The piece at the far side from `piece`."""
        return self.head if self.tail == piece else self.tail


@dataclass(frozen=True)
class EndEdge:
    piece: str
    contact: LatticeVector

    def away_from(self, piece: str) -> LatticeVector:
        """An end always points away from its one piece."""
        return self.contact

    def other_end(self, piece: str) -> None:
        """An end is unbounded: no piece lies at its far side."""
        return None


@dataclass(frozen=True)
class LeveledDualGraph:
    """Pieces joined by nodes, with ends for the unbounded edges.  Building
    one checks its references and these conditions, so a graph in hand has
    them all, as every graph of `build_building` does:

    - `num_levels` is not negative, and no level coordinate exceeds it;
    - a node runs upward, tail to head, in each direction of its contact;
    - every node and end has a nonzero contact with no negative component;
    - a node whose contact is 0 in a direction joins two pieces with the
      same level coordinate in that direction;
    - a trivial piece is a two-valent cylinder: its two contacts, oriented
      away from it, are opposite;
    - a nontrivial piece sits at a level in both directions, and a graph
      with pieces has one;
    - the nodes connect the pieces.

    It keeps the check's tables, read-only and outside ==, hash and repr:
    `multilevels`, the levels by piece id, and `incidence`, per piece its
    nodes, then its ends (a node joining a piece to itself is listed twice)."""

    num_levels: int
    pieces: tuple[Piece, ...]
    nodes: tuple[NodeEdge, ...]
    ends: tuple[EndEdge, ...]
    multilevels: dict[str, Multilevel] = field(init=False, repr=False, compare=False)
    incidence: dict[str, tuple[NodeEdge | EndEdge, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_levels < 0:
            raise GraphInvalid(f"num_levels {self.num_levels} is negative")
        levels = {p.id: p.levels for p in self.pieces}
        if len(levels) != len(self.pieces):
            raise GraphInvalid("duplicate piece ids")
        for piece in self.pieces:
            if len(piece.levels) != 2:
                raise GraphInvalid(f"piece {piece.id} needs exactly 2 level coordinates")
            for lc in piece.levels:
                if lc.hi > self.num_levels:
                    raise GraphInvalid(
                        f"piece {piece.id} level {lc} exceeds num_levels {self.num_levels}"
                    )
        if len({n.id for n in self.nodes}) != len(self.nodes):
            raise GraphInvalid("duplicate node ids")
        for n in self.nodes:
            if n.tail not in levels or n.head not in levels:
                raise GraphInvalid(f"node {n.id} references a missing piece")
        for e in self.ends:
            if e.piece not in levels:
                raise GraphInvalid(f"end from {e.piece} references a missing piece")
        for n in self.nodes:
            for i, (ci, lt, lh) in enumerate(zip(n.contact, levels[n.tail], levels[n.head])):
                if ci != 0:
                    if lh.lo + lh.hi < lt.lo + lt.hi:
                        raise GraphInvalid(f"node {n.id} runs downward in direction {i + 1}")
                elif lt != lh:
                    raise GraphInvalid(
                        f"node {n.id} has zero contact in direction {i + 1} "
                        f"but joins level coordinates {lt} and {lh}"
                    )
        inc: dict[str, list[NodeEdge | EndEdge]] = {p.id: [] for p in self.pieces}
        for n in self.nodes:
            inc[n.tail].append(n)
            inc[n.head].append(n)
        for e in self.ends:
            inc[e.piece].append(e)
        for p in self.pieces:
            if not p.trivial:
                continue
            edges = inc[p.id]
            if len(edges) != 2:
                raise GraphInvalid(f"trivial piece {p.id} has valence {len(edges)}")
            a, b = (edge.away_from(p.id) for edge in edges)
            if a.x != -b.x or a.y != -b.y:
                raise GraphInvalid(
                    f"trivial piece {p.id} is not a cylinder: contacts "
                    f"{tuple(a)} and {tuple(b)}"
                )
        if not _connected(levels, ((n.tail, n.head) for n in self.nodes)):
            raise GraphInvalid("graph is not connected")
        for edge in (*self.nodes, *self.ends):
            x, y = edge.contact.x, edge.contact.y
            if x < 0 or y < 0 or not (x or y):
                name = f"end from {edge.piece}" if isinstance(edge, EndEdge) else f"node {edge.id}"
                raise GraphInvalid(
                    f"{name} has contact ({x}, {y}), not nonzero with no negative component"
                )
        for p in self.pieces:
            if not p.trivial and not (p.levels[0].is_integer and p.levels[1].is_integer):
                raise GraphInvalid(
                    f"nontrivial piece {p.id} at ({p.levels[0]}, {p.levels[1]}) "
                    "is between levels"
                )
        if self.pieces and all(p.trivial for p in self.pieces):
            raise GraphInvalid("every piece is trivial")
        object.__setattr__(self, "multilevels", levels)
        object.__setattr__(self, "incidence", {pid: tuple(edges) for pid, edges in inc.items()})


@dataclass
class Building:
    """A leveled dual graph together with the exact realized positions."""

    graph: LeveledDualGraph
    levels: LevelStructure
    positions: dict[str, tuple[Fraction, Fraction]] = field(default_factory=dict)


def extract_levels(curve: TropicalCurve) -> LevelStructure:
    """Sorted deduplicated nonzero vertex coordinates of the curve."""
    values = set()
    for v in curve.vertices:
        for c in (v.position.x, v.position.y):
            if c != 0:
                values.add(c)
    return LevelStructure(tuple(sorted(values)))


def build_building(curve: TropicalCurve, extra_levels=()) -> Building:
    """Refine a curve by its level planes into a leveled dual graph.

    Every vertex is a piece, and each edge is cut where it crosses a level
    line: each crossing is a trivial piece, and the fragments between are
    nodes, or ends for the last fragment of a ray.  One sort of the pieces by
    their level coordinates, then by position, names them c1, c2, ...; nodes
    and ends are listed in the order of their pieces.  `extra_levels` inserts
    cut values, which probe the stability rules: each adds a trivial piece
    wherever an edge crosses it and no piece where none does, as past every
    vertex of a curve without rays.
    """
    # Every position, length, level and level crossing t = (v - c0) / c is
    # an integer in units of 1/unit: the lcm of the denominators times the
    # lcm of the contact components, so that each v - c0 is a multiple of c.
    contacts = math.lcm(
        *(abs(c) for e in (*curve.segments, *curve.rays) for c in (e.contact.x, e.contact.y) if c)
    )
    coords = [c for v in curve.vertices for c in (v.position.x, v.position.y)]
    extra = [_fraction(v) for v in extra_levels]
    unit, scaled = _cleared([*coords, *extra, *(s.length for s in curve.segments)], contacts)
    nc, ne = len(coords), len(extra)
    # The levels are the nonzero vertex coordinates and the extra levels,
    # which LevelStructure checks for positivity; ladder[a] is level a.
    cuts = sorted({c for c in scaled[:nc] if c}.union(scaled[nc : nc + ne]))
    # Each rational is built once: the coordinates and extra levels are
    # reused for their integers, and any other value is built on first use.
    rationals = dict(zip(scaled[: nc + ne], (*coords, *extra)))
    levels = LevelStructure(tuple(rationals[c] for c in cuts))
    ladder = [0, *cuts]
    # (position, trivial) per piece, vertices first: vertex k is piece k.
    pieces = [(xy, False) for xy in zip(scaled[0:nc:2], scaled[1:nc:2])]
    nodes: list[tuple[int, int, LatticeVector]] = []
    ends: list[tuple[int, LatticeVector]] = []

    def cut(k: int, contact: LatticeVector, t_end: int | None) -> int:
        """Cut the edge leaving piece k along `contact` at every level line it
        crosses for 0 < t < t_end (a ray has no end); return the last piece."""
        (x0, y0), _ = pieces[k]
        ts = {
            t
            for c0, c in ((x0, contact.x), (y0, contact.y))
            if c
            for t in ((v - c0) // c for v in cuts)
            if t > 0 and (t_end is None or t < t_end)
        }
        for t in sorted(ts):
            pieces.append(((x0 + t * contact.x, y0 + t * contact.y), True))
            nodes.append((k, len(pieces) - 1, contact))
            k = len(pieces) - 1
        return k

    vertex = {v.id: k for k, v in enumerate(curve.vertices)}
    for s, length in zip(curve.segments, scaled[nc + ne :]):
        # Cut upward, so nodes run tail -> head in the level order whenever
        # the contact is sign-definite.
        tail, head, contact = vertex[s.tail], vertex[s.head], s.contact
        if (contact.x, contact.y) < (0, 0):
            tail, head, contact = head, tail, -contact
        nodes.append((cut(tail, contact, length), head, contact))
    for r in curve.rays:
        k = cut(vertex[r.base], r.contact, None)
        # The last crossing is the ray's farthest piece.
        (x, y), _ = pieces[k]
        if max(x, y) > ladder[-1]:
            base = curve.vertices[vertex[r.base]].position
            raise GraphInvalid(
                f"ray from vertex {r.base} at ({base.x}, {base.y}) with contact "
                f"({r.contact.x}, {r.contact.y}) crosses a level line at "
                f"({Fraction(x, unit)}, {Fraction(y, unit)}), above the top level "
                f"{levels.phi(levels.m)}, where no level coordinate exists"
            )
        ends.append((k, r.contact))

    # Each level coordinate is built once per value.
    coordinates: dict[int, LevelCoordinate] = {}

    def coordinate(value: int) -> LevelCoordinate:
        # Pieces of segments lie between two vertices, and pieces of rays
        # at or below the top level, so each value is in [0, top].
        lc = coordinates.get(value)
        if lc is None:
            a = bisect.bisect_left(ladder, value)
            lc = LevelCoordinate.at(a) if ladder[a] == value else LevelCoordinate.between(a - 1)
            coordinates[value] = lc
        return lc

    def rational(value: int) -> Fraction:
        r = rationals.get(value)
        if r is None:
            r = rationals[value] = Fraction(value, unit)
        return r

    multilevels = [(coordinate(x), coordinate(y)) for (x, y), _ in pieces]
    # lo + hi, 2a at level a and 2a + 1 between a and a + 1, is a level
    # coordinate's place in the ladder.
    order = sorted(
        range(len(pieces)),
        key=lambda k: (
            multilevels[k][0].lo + multilevels[k][0].hi,
            multilevels[k][1].lo + multilevels[k][1].hi,
            pieces[k][0],
        ),
    )
    rank = [0] * len(pieces)
    name = [""] * len(pieces)
    for i, k in enumerate(order, 1):
        rank[k], name[k] = i, f"c{i}"
    nodes.sort(key=lambda n: (rank[n[0]], rank[n[1]]))
    ends.sort(key=lambda e: (rank[e[0]], e[1].x, e[1].y))
    graph = LeveledDualGraph(
        levels.m,
        tuple(Piece(name[k], multilevels[k], pieces[k][1]) for k in order),
        tuple(NodeEdge(f"n{i}", name[t], name[h], c) for i, (t, h, c) in enumerate(nodes, 1)),
        tuple(EndEdge(name[k], c) for k, c in ends),
    )
    positions = {name[k]: (rational(pieces[k][0][0]), rational(pieces[k][0][1])) for k in order}
    return Building(graph, levels, positions)


def describe_building(building: Building) -> str:
    """Stable human-readable listing of a building, pieces first."""
    g = building.graph
    lines = []
    if building.levels.m:
        lines.append("levels: " + " ".join(str(v) for v in building.levels.values))
    else:
        lines.append("levels: none")
    for p in g.pieces:
        kind = "trivial" if p.trivial else "nontrivial"
        x, y = building.positions[p.id]
        lines.append(
            f"piece {p.id} level ({p.levels[0]}, {p.levels[1]}) {kind} at ({x}, {y})"
        )
    for n in g.nodes:
        lines.append(
            f"node {n.id} {n.tail} -> {n.head} contact ({n.contact.x}, {n.contact.y})"
        )
    for e in g.ends:
        lines.append(f"end from {e.piece} contact ({e.contact.x}, {e.contact.y})")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: LeveledDualGraph) -> dict:
    return {
        "num_levels": graph.num_levels,
        "pieces": [
            {
                "id": p.id,
                "levels": [lc.to_json() for lc in p.levels],
                "trivial": p.trivial,
            }
            for p in graph.pieces
        ],
        "nodes": [
            {
                "id": n.id,
                "tail": n.tail,
                "head": n.head,
                "contact": [n.contact.x, n.contact.y],
            }
            for n in graph.nodes
        ],
        "ends": [
            {"piece": e.piece, "contact": [e.contact.x, e.contact.y]} for e in graph.ends
        ],
    }


def graph_from_json(data: dict) -> LeveledDualGraph:
    try:
        pieces = tuple(
            Piece(
                _json_typed(p["id"], str, "id"),
                tuple(LevelCoordinate.from_json(lc) for lc in p["levels"]),
                _json_typed(p["trivial"], bool),
            )
            for p in data["pieces"]
        )
        nodes = tuple(
            NodeEdge(
                _json_typed(n["id"], str, "id"),
                _json_typed(n["tail"], str, "tail"),
                _json_typed(n["head"], str, "head"),
                LatticeVector.from_json(n["contact"]),
            )
            for n in data["nodes"]
        )
        ends = tuple(
            EndEdge(_json_typed(e["piece"], str, "piece"), LatticeVector.from_json(e["contact"]))
            for e in data["ends"]
        )
        return LeveledDualGraph(_json_typed(data["num_levels"], int), pieces, nodes, ends)
    except (KeyError, TypeError, IndexError) as exc:
        raise GraphInvalid(f"malformed graph document: {exc}") from exc
