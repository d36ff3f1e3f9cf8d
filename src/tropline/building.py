"""Level structure of a tropical curve and the leveled dual graph.

A tropical curve determines the list 0 < l_1 < ... < l_m of nonzero
coordinates of its vertices.  Cutting the quadrant by the lines x = l_i and
y = l_i refines the curve: original vertices become non-trivial pieces,
each transversal interior crossing of an edge with a cut line becomes a
trivial cylinder piece, and the edge fragments in between become nodes (or
ends, for the unbounded remainders).  Pieces are indexed by a pair of level
coordinates, each either at an integer level or strictly between two
consecutive ones.  A `LeveledDualGraph` checks its references when it is
built; `validate()` checks its geometry in `graph_from_json` and `build_building`.
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
            raise GraphInvalid(f"levels must be strictly increasing and positive: {values}")

    @property
    def m(self) -> int:
        return len(self.values)

    def phi(self, a: int) -> Fraction:
        if a == 0:
            return Fraction(0)
        return self.values[a - 1]

    def coordinate(self, value: Fraction) -> LevelCoordinate:
        """Level coordinate of an exact position value (0 is level 0)."""
        value = Fraction(value)
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
    num_levels: int
    pieces: tuple[Piece, ...]
    nodes: tuple[NodeEdge, ...]
    ends: tuple[EndEdge, ...]

    def __post_init__(self) -> None:
        ids = [p.id for p in self.pieces]
        if len(set(ids)) != len(ids):
            raise GraphInvalid("duplicate piece ids")
        known = set(ids)
        for piece in self.pieces:
            if len(piece.levels) != 2:
                raise GraphInvalid(f"piece {piece.id} needs exactly 2 level coordinates")
            for lc in piece.levels:
                if lc.hi > self.num_levels:
                    raise GraphInvalid(
                        f"piece {piece.id} level {lc} exceeds num_levels {self.num_levels}"
                    )
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise GraphInvalid("duplicate node ids")
        for n in self.nodes:
            if n.tail not in known or n.head not in known:
                raise GraphInvalid(f"node {n.id} references a missing piece")
        for e in self.ends:
            if e.piece not in known:
                raise GraphInvalid(f"end {e} references a missing piece")

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

    def validate(self) -> None:
        """Geometric check: orientation, triviality, connectivity.  References
        were checked when the graph was built."""
        levels = {p.id: p.levels for p in self.pieces}
        for n in self.nodes:
            for i in (0, 1):
                ci = (n.contact.x, n.contact.y)[i]
                lt, lh = levels[n.tail][i], levels[n.head][i]
                if ci != 0:
                    if lh.sort_key() < lt.sort_key():
                        raise GraphInvalid(
                            f"node {n.id} runs downward in direction {i + 1}"
                        )
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
        if not _connected((p.id for p in self.pieces), ((n.tail, n.head) for n in self.nodes)):
            raise GraphInvalid("graph is not connected")


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


def _multilevel(levels: LevelStructure, x: Fraction, y: Fraction) -> Multilevel:
    return (levels.coordinate(x), levels.coordinate(y))


def build_building(curve: TropicalCurve, extra_levels=()) -> Building:
    """Refine a curve by its level planes into a leveled dual graph.

    `extra_levels` inserts additional cut values; this never changes the
    set of non-trivial pieces, it only adds trivial cylinders (used to
    probe the stability rules).
    """
    base = extract_levels(curve)
    values = sorted(set(base.values) | {Fraction(v) for v in extra_levels})
    if any(v <= 0 for v in values):
        raise GraphInvalid("extra level values must be positive")
    levels = LevelStructure(tuple(values))

    pos = {v.id: (v.position.x, v.position.y) for v in curve.vertices}

    # Raw pieces keyed by a synthetic handle; identity is fixed after sorting.
    raw: list[dict] = []
    handle_of_vertex: dict[str, int] = {}
    for v in curve.vertices:
        handle_of_vertex[v.id] = len(raw)
        raw.append(
            {
                "levels": _multilevel(levels, v.position.x, v.position.y),
                "trivial": False,
                "position": pos[v.id],
            }
        )

    raw_nodes: list[tuple[int, int, LatticeVector]] = []
    raw_ends: list[tuple[int, LatticeVector]] = []

    def crossing_parameters(x0, y0, contact: LatticeVector, t_end: Fraction | None):
        """Interior parameters where the edge meets a cut line, ascending."""
        ts: set[Fraction] = set()
        for value in levels.values:
            if contact.x != 0:
                t = Fraction(value - x0, contact.x)
                if t > 0 and (t_end is None or t < t_end):
                    ts.add(t)
            if contact.y != 0:
                t = Fraction(value - y0, contact.y)
                if t > 0 and (t_end is None or t < t_end):
                    ts.add(t)
        return sorted(ts)

    def fragment(start_handle: int, x0, y0, contact: LatticeVector, t_end: Fraction | None):
        """Split one edge at its crossings, collecting pieces, nodes, ends."""
        prev_handle = start_handle
        for t in crossing_parameters(x0, y0, contact, t_end):
            cx, cy = x0 + t * contact.x, y0 + t * contact.y
            handle = len(raw)
            raw.append(
                {
                    "levels": _multilevel(levels, cx, cy),
                    "trivial": True,
                    "position": (cx, cy),
                }
            )
            raw_nodes.append((prev_handle, handle, contact))
            prev_handle = handle
        if t_end is None:
            raw_ends.append((prev_handle, contact))
            return None
        return prev_handle

    for s in curve.segments:
        x0, y0 = pos[s.tail]
        # Orient the fragmenting walk upward so nodes run tail -> head in
        # the level order whenever the contact is sign-definite.
        if s.contact.x < 0 or (s.contact.x == 0 and s.contact.y < 0):
            x0, y0 = pos[s.head]
            contact = -s.contact
            last = fragment(handle_of_vertex[s.head], x0, y0, contact, s.length)
            raw_nodes.append((last, handle_of_vertex[s.tail], contact))
        else:
            last = fragment(handle_of_vertex[s.tail], x0, y0, s.contact, s.length)
            raw_nodes.append((last, handle_of_vertex[s.head], s.contact))
    for r in curve.rays:
        x0, y0 = pos[r.base]
        fragment(handle_of_vertex[r.base], x0, y0, r.contact, None)

    order = sorted(
        range(len(raw)),
        key=lambda h: (
            raw[h]["levels"][0].sort_key(),
            raw[h]["levels"][1].sort_key(),
            raw[h]["position"],
        ),
    )
    id_of_handle = {h: f"c{i + 1}" for i, h in enumerate(order)}
    pieces = tuple(
        Piece(id_of_handle[h], raw[h]["levels"], raw[h]["trivial"]) for h in order
    )
    index = {id_of_handle[h]: i for i, h in enumerate(order)}

    sorted_nodes = sorted(
        raw_nodes, key=lambda tr: (index[id_of_handle[tr[0]]], index[id_of_handle[tr[1]]])
    )
    nodes = tuple(
        NodeEdge(f"n{i + 1}", id_of_handle[t], id_of_handle[h], c)
        for i, (t, h, c) in enumerate(sorted_nodes)
    )
    ends = tuple(
        EndEdge(id_of_handle[h], c)
        for h, c in sorted(raw_ends, key=lambda e: (index[id_of_handle[e[0]]], tuple(e[1])))
    )
    graph = LeveledDualGraph(levels.m, pieces, nodes, ends)
    graph.validate()
    positions = {id_of_handle[h]: raw[h]["position"] for h in order}
    return Building(graph=graph, levels=levels, positions=positions)


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
        graph = LeveledDualGraph(_json_typed(data["num_levels"], int), pieces, nodes, ends)
    except (KeyError, TypeError, IndexError) as exc:
        raise GraphInvalid(f"malformed graph document: {exc}") from exc
    graph.validate()
    return graph
