"""Level structure of a tropical curve and the leveled dual graph.

A tropical curve determines the list 0 < l_1 < ... < l_m of nonzero
coordinates of its vertices.  Cutting the quadrant by the lines x = l_i and
y = l_i refines the curve: original vertices become non-trivial pieces,
each transversal interior crossing of an edge with a cut line becomes a
trivial cylinder piece, and the edge fragments in between become nodes (or
ends, for the unbounded remainders).  Pieces are indexed by a pair of level
coordinates, each either at an integer level or strictly between two
consecutive ones.  `build_building` collects the pieces as exact points and
names them c1, c2, ... by one sort on their level coordinates and position.
A `LeveledDualGraph` checks its references and its geometry (orientation,
cylinders, connectivity) when it is built, so `build_building` and
`graph_from_json` return only valid graphs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import LatticeVector, _connected, _json_pair, _json_typed
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
    """Position in the level ladder: at level `lo`, or between `lo` and `hi`."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi not in (self.lo, self.lo + 1):
            raise GraphInvalid(f"bad level coordinate ({self.lo}, {self.hi})")

    @classmethod
    def at(cls, a: int) -> "LevelCoordinate":
        return cls(a, a)

    @classmethod
    def between(cls, a: int) -> "LevelCoordinate":
        return cls(a, a + 1)

    @property
    def is_integer(self) -> bool:
        return self.lo == self.hi

    @property
    def level(self) -> int:
        if not self.is_integer:
            raise GraphInvalid(f"coordinate {self} is between levels")
        return self.lo

    def sort_key(self) -> int:
        # 2a for "at a", 2a + 1 for "between a and a+1": the natural order.
        return self.lo + self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.is_integer else f"{self.lo}..{self.hi}"

    def to_json(self) -> dict:
        return {"at": self.lo} if self.is_integer else {"between": [self.lo, self.hi]}

    @classmethod
    def from_json(cls, data: dict) -> "LevelCoordinate":
        if "at" in data:
            return cls.at(_json_typed(data["at"], int))
        if "between" in data:
            a, b = _json_pair(data["between"])
            if _json_typed(b, int) != _json_typed(a, int) + 1:
                raise GraphInvalid(f"between-pair {data['between']} is not consecutive")
            return cls.between(a)
        raise GraphInvalid(f"bad level coordinate document {data!r}")


Multilevel = tuple[LevelCoordinate, LevelCoordinate]


@dataclass(frozen=True)
class LevelStructure:
    """The strictly increasing positive level values l_1 < ... < l_m.

    The level map sends 0 to 0 and a to l_a.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if any(v <= 0 for v in values) or list(values) != sorted(set(values)):
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

    def coordinate(self, value: Fraction) -> LevelCoordinate:
        """Level coordinate of an exact position value (0 is level 0)."""
        if value < 0:
            raise GraphInvalid(f"negative coordinate {value}")
        if value == 0:
            return LevelCoordinate.at(0)
        lo = bisect.bisect_left(self.values, value)
        if lo < self.m and self.values[lo] == value:
            return LevelCoordinate.at(lo + 1)
        if lo == self.m:
            raise GraphInvalid(f"coordinate {value} beyond the top level {self.phi(lo)}")
        return LevelCoordinate.between(lo)


@dataclass(frozen=True)
class Piece:
    id: str
    levels: Multilevel
    trivial: bool


@dataclass(frozen=True)
class NodeEdge:
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
    """Pieces joined by nodes, with ends for the unbounded edges; building
    one checks its references and its geometry, so a graph in hand is valid."""

    num_levels: int
    pieces: tuple[Piece, ...]
    nodes: tuple[NodeEdge, ...]
    ends: tuple[EndEdge, ...]

    def __post_init__(self) -> None:
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
                raise GraphInvalid(f"end {e} references a missing piece")
        for n in self.nodes:
            for i, ci in enumerate(n.contact):
                lt, lh = levels[n.tail][i], levels[n.head][i]
                if ci != 0:
                    if lh.sort_key() < lt.sort_key():
                        raise GraphInvalid(f"node {n.id} runs downward in direction {i + 1}")
                elif lt.is_integer and lh.is_integer and lt.level != lh.level:
                    raise GraphInvalid(
                        f"node {n.id} has zero contact across levels in direction {i + 1}"
                    )
        inc = self.incidences()
        for p in self.pieces:
            if not p.trivial:
                continue
            edges = inc[p.id]
            if len(edges) != 2:
                raise GraphInvalid(f"trivial piece {p.id} has valence {len(edges)}")
            outgoing = [edge.away_from(p.id) for edge in edges]
            if outgoing[0] != -outgoing[1]:
                raise GraphInvalid(
                    f"trivial piece {p.id} is not a cylinder: contacts "
                    f"{tuple(outgoing[0])} and {tuple(outgoing[1])}"
                )
        if not _connected(levels, ((n.tail, n.head) for n in self.nodes)):
            raise GraphInvalid("graph is not connected")

    def incidences(self) -> dict[str, list[NodeEdge | EndEdge]]:
        """Per piece, its incident nodes, then its ends; a node joining a piece
        to itself is listed twice."""
        inc: dict[str, list[NodeEdge | EndEdge]] = {p.id: [] for p in self.pieces}
        for n in self.nodes:
            inc[n.tail].append(n)
            inc[n.head].append(n)
        for e in self.ends:
            inc[e.piece].append(e)
        return inc


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
    additional cut values; this never changes the set of non-trivial pieces,
    it only adds trivial cylinders (used to probe the stability rules).
    """
    levels = LevelStructure(
        tuple(sorted(set(extract_levels(curve).values) | {Fraction(v) for v in extra_levels}))
    )
    # (position, trivial) per piece, vertices first: vertex k is piece k.
    pieces = [((v.position.x, v.position.y), False) for v in curve.vertices]
    nodes: list[tuple[int, int, LatticeVector]] = []
    ends: list[tuple[int, LatticeVector]] = []

    def cut(k: int, contact: LatticeVector, t_end: Fraction | None) -> int:
        """Cut the edge leaving piece k along `contact` at every level line it
        crosses for 0 < t < t_end (a ray has no end); return the last piece."""
        (x0, y0), _ = pieces[k]
        ts = {
            t
            for c0, c in ((x0, contact.x), (y0, contact.y))
            if c
            for t in ((v - c0) / c for v in levels.values)
            if t > 0 and (t_end is None or t < t_end)
        }
        for t in sorted(ts):
            pieces.append(((x0 + t * contact.x, y0 + t * contact.y), True))
            nodes.append((k, len(pieces) - 1, contact))
            k = len(pieces) - 1
        return k

    vertex = {v.id: k for k, v in enumerate(curve.vertices)}
    for s in curve.segments:
        # Cut upward, so nodes run tail -> head in the level order whenever
        # the contact is sign-definite.
        tail, head, contact = vertex[s.tail], vertex[s.head], s.contact
        if (contact.x, contact.y) < (0, 0):
            tail, head, contact = head, tail, -contact
        nodes.append((cut(tail, contact, s.length), head, contact))
    top = levels.phi(levels.m)
    for r in curve.rays:
        k = cut(vertex[r.base], r.contact, None)
        # The last crossing is the ray's farthest piece.
        (x, y), _ = pieces[k]
        if max(x, y) > top:
            base = curve.vertices[vertex[r.base]].position
            raise GraphInvalid(
                f"ray from vertex {r.base} at ({base.x}, {base.y}) with contact "
                f"({r.contact.x}, {r.contact.y}) crosses a level line at ({x}, {y}), "
                f"above the top level {top}, where no level coordinate exists"
            )
        ends.append((k, r.contact))

    coords = [(levels.coordinate(x), levels.coordinate(y)) for (x, y), _ in pieces]
    order = sorted(
        range(len(pieces)),
        key=lambda k: (coords[k][0].sort_key(), coords[k][1].sort_key(), pieces[k][0]),
    )
    rank = {k: i for i, k in enumerate(order, 1)}
    nodes.sort(key=lambda n: (rank[n[0]], rank[n[1]]))
    ends.sort(key=lambda e: (rank[e[0]], tuple(e[1])))
    graph = LeveledDualGraph(
        levels.m,
        tuple(Piece(f"c{rank[k]}", coords[k], pieces[k][1]) for k in order),
        tuple(
            NodeEdge(f"n{i + 1}", f"c{rank[t]}", f"c{rank[h]}", c)
            for i, (t, h, c) in enumerate(nodes)
        ),
        tuple(EndEdge(f"c{rank[k]}", c) for k, c in ends),
    )
    return Building(graph, levels, {f"c{rank[k]}": pieces[k][0] for k in order})


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
                str(p["id"]),
                tuple(LevelCoordinate.from_json(lc) for lc in p["levels"]),
                _json_typed(p["trivial"], bool),
            )
            for p in data["pieces"]
        )
        nodes = tuple(
            NodeEdge(
                str(n["id"]),
                str(n["tail"]),
                str(n["head"]),
                LatticeVector.from_json(n["contact"]),
            )
            for n in data["nodes"]
        )
        ends = tuple(
            EndEdge(str(e["piece"]), LatticeVector.from_json(e["contact"])) for e in data["ends"]
        )
        return LeveledDualGraph(_json_typed(data["num_levels"], int), pieces, nodes, ends)
    except (KeyError, TypeError, IndexError) as exc:
        raise GraphInvalid(f"malformed graph document: {exc}") from exc
