"""The matching linear system of a leveled dual graph, and its exact solutions.

Variables are one alpha(y) per node y with nonzero contact vector plus one
alpha_j per positive level j.  For each coordinate direction, every maximal
chain of nodes joining two pieces with well-defined (integer) level in that
direction, passing only through between-level pieces, contributes one
homogeneous equation

    s * (alpha(y_1) + ... + alpha(y_k)) = alpha_{a+1} + ... + alpha_b

where s is the absolute contact component of the chain in that direction
and a <= b are the two anchor levels.  A strictly negative solution is
exactly the data of a tropical curve realizing the graph: levels sit at
phi(a) = -(alpha_1 + ... + alpha_a) and a node y becomes an edge fragment
of length -alpha(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import _linalg
from .building import Building, LeveledDualGraph, NodeEdge
from .geometry import LatticeVector, QuadrantPoint
from .tropical import Ray, Segment, TropicalCurve, Vertex

__all__ = [
    "AmbiguousChain",
    "InconsistentZeroContact",
    "ChainContactMismatch",
    "InfeasibleCone",
    "SolutionNotInCone",
    "Equation",
    "MatchingSystem",
    "SolutionCone",
    "StabilityVerdict",
    "WeightTable",
    "node_var",
    "level_var",
    "build_system",
    "solve",
    "check_stability",
    "torus_weights",
    "realize",
    "building_solution",
]


class AmbiguousChain(ValueError):
    """A between-level piece cannot be traversed unambiguously."""


class InconsistentZeroContact(ValueError):
    """A zero contact component spans a nonzero level gap."""


class ChainContactMismatch(ValueError):
    """Nodes of one trivial-cylinder chain carry different contact vectors."""


class InfeasibleCone(ValueError):
    """An operation needed a strictly negative solution but none exists."""


class SolutionNotInCone(ValueError):
    """A proposed solution fails the system or strict negativity."""


def node_var(node_id: str) -> str:
    return f"alpha({node_id})"


def level_var(j: int) -> str:
    return f"alpha_{j}"


@dataclass(frozen=True)
class Equation:
    """One homogeneous equation, as integer coefficients over the variables."""

    coefficients: tuple[int, ...]
    direction: int  # 1 or 2
    chain: tuple[str, ...]  # node ids, in chain order
    levels: tuple[int, int]  # anchor levels (a, b) with a <= b

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        return sum(Fraction(c) * v for c, v in zip(self.coefficients, values))


@dataclass(frozen=True)
class MatchingSystem:
    variables: tuple[str, ...]
    equations: tuple[Equation, ...]

    def coefficient_rows(self) -> list[list[int]]:
        return [list(eq.coefficients) for eq in self.equations]


@dataclass(frozen=True)
class SolutionCone:
    """Exact kernel of the matching equalities plus a negativity certificate.

    `basis` is the canonical integral kernel basis (one primitive vector per
    free variable of the reduced system, signed so the free coordinate is
    negative).  `witness`, when present, satisfies every equation and has
    every coordinate <= -1.
    """

    variables: tuple[str, ...]
    basis: tuple[tuple[int, ...], ...]
    witness: tuple[Fraction, ...] | None

    @property
    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        return self.basis

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def feasible(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    covered: frozenset[int]
    rule: str


@dataclass(frozen=True)
class WeightTable:
    """Per piece, the integer matrix of its position as a function of the
    kernel parameters: one row per target direction, one column per basis
    vector."""

    dimension: int
    entries: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]

    def rank(self, piece_id: str) -> int:
        rows = [list(r) for r in self.entries[piece_id]]
        return _linalg.rank(rows)

    def lattice(self, piece_id: str) -> tuple[tuple[int, int], ...]:
        rows = self.entries[piece_id]
        columns = [(rows[0][k], rows[1][k]) for k in range(self.dimension)]
        return _linalg.lattice_canonical(columns)


def _level_of(piece, direction: int):
    lc = piece.levels[direction]
    return lc.level if lc.is_integer else None


def _oriented_contact(node: NodeEdge, from_piece: str) -> LatticeVector:
    return node.contact if node.tail == from_piece else -node.contact


def _other_end(node: NodeEdge, piece: str) -> str:
    return node.head if node.tail == piece else node.tail


def build_system(graph: LeveledDualGraph) -> MatchingSystem:
    """Generate the minimal per-direction chain equations of a graph.

    Nodes with zero contact vector carry no variable and no equation.  A
    chain that runs into an end (no anchor on that side) contributes
    nothing; its constraints are implied by the anchored chains.
    """
    graph.check_references()
    active_nodes = [n for n in graph.nodes if not n.contact.is_zero()]
    variables = tuple(node_var(n.id) for n in active_nodes) + tuple(
        level_var(j) for j in range(1, graph.num_levels + 1)
    )
    var_index = {name: i for i, name in enumerate(variables)}
    pieces = {p.id: p for p in graph.pieces}
    incidence = graph.incidences()

    equations: list[Equation] = []
    seen_chains: set[tuple[str, ...]] = set()

    for direction in (0, 1):
        for node in active_nodes:
            for anchor_side in (node.tail, node.head):
                if _level_of(pieces[anchor_side], direction) is None:
                    continue
                chain, terminal = _walk_chain(
                    graph, pieces, incidence, node, anchor_side, direction
                )
                if terminal is None:
                    continue  # ran into an end: no equation
                key = tuple(sorted(n.id for n in chain))
                if (direction, key) in seen_chains:
                    continue
                seen_chains.add((direction, key))
                equation = _chain_equation(
                    chain, anchor_side, terminal, pieces, direction, variables, var_index
                )
                if equation is not None:
                    equations.append(equation)
    return MatchingSystem(variables=variables, equations=tuple(equations))


def _walk_chain(graph, pieces, incidence, first_node, anchor, direction):
    """Follow trivial-cylinder pieces from an anchored node.

    Returns (chain nodes, terminal piece id) where the terminal piece has an
    integer level in `direction`, or (chain, None) when the walk dies in an
    end or an excluded node.
    """
    chain = [first_node]
    prev_edge = first_node
    current = _other_end(first_node, anchor)
    visited = {anchor, current}
    while _level_of(pieces[current], direction) is None:
        edges = incidence[current]
        if len(edges) != 2:
            raise AmbiguousChain(
                f"piece {current} is between levels in direction {direction + 1} "
                f"but has valence {len(edges)}"
            )
        nxt = next((e for k, e in edges if not (k == "node" and e is prev_edge)), None)
        if nxt is None:
            raise AmbiguousChain(f"piece {current} only reaches itself")
        kind = next(k for k, e in edges if e is nxt)
        if kind == "end" or nxt.contact.is_zero():
            return chain, None
        chain.append(nxt)
        prev_edge = nxt
        current = _other_end(nxt, current)
        if current in visited:
            raise AmbiguousChain(f"cycle of between-level pieces at {current}")
        visited.add(current)
    return chain, current


def _chain_equation(chain, anchor, terminal, pieces, direction, variables, var_index):
    # Orient every node along the walk and demand one common contact vector.
    oriented = []
    at = anchor
    for node in chain:
        oriented.append(_oriented_contact(node, at))
        at = _other_end(node, at)
    common = oriented[0]
    for c in oriented[1:]:
        if c != common:
            raise ChainContactMismatch(
                f"chain {[n.id for n in chain]} mixes contacts "
                f"{tuple(common)} and {tuple(c)}"
            )
    s = abs((common.x, common.y)[direction])
    a = _level_of(pieces[anchor], direction)
    b = _level_of(pieces[terminal], direction)
    a, b = min(a, b), max(a, b)
    if s == 0:
        if a != b:
            raise InconsistentZeroContact(
                f"chain {[n.id for n in chain]} has zero contact in direction "
                f"{direction + 1} across levels {a}..{b}"
            )
        return None
    coeffs = [0] * len(variables)
    for node in chain:
        coeffs[var_index[node_var(node.id)]] += s
    for j in range(a + 1, b + 1):
        coeffs[var_index[level_var(j)]] -= 1
    return Equation(
        coefficients=tuple(coeffs),
        direction=direction + 1,
        chain=tuple(n.id for n in chain),
        levels=(a, b),
    )


def solve(system: MatchingSystem) -> SolutionCone:
    """Exact kernel and strict-negativity certificate of a matching system.

    The kernel is computed by exact Gauss-Jordan elimination; feasibility of
    the open all-negative cone is decided by a Bland-rule simplex seeking a
    kernel point with every coordinate <= -1 (homogeneity makes the two
    formulations equivalent).  Infeasibility is a value, not an error.
    """
    nvars = len(system.variables)
    rows = system.coefficient_rows()
    rational_basis = _linalg.kernel_basis(rows, nvars)
    basis = tuple(
        tuple(-c for c in _linalg.integerize(vec)) for vec in rational_basis
    )
    if nvars == 0:
        return SolutionCone(system.variables, (), ())
    if not basis:
        return SolutionCone(system.variables, (), None)
    coordinate_rows = [[vec[i] for vec in basis] for i in range(nvars)]
    t = _linalg.negative_orthant_point(coordinate_rows)
    if t is None:
        return SolutionCone(system.variables, basis, None)
    witness = tuple(
        sum(Fraction(vec[i]) * tk for vec, tk in zip(basis, t)) for i in range(nvars)
    )
    for eq in system.equations:
        if eq.evaluate(witness) != 0:
            raise _linalg.InvariantViolation("witness violates a matching equation")
    return SolutionCone(system.variables, basis, witness)


def check_stability(graph: LeveledDualGraph, rule: str = "union") -> StabilityVerdict:
    """Decide relative stability: every positive level needs a nontrivial piece.

    Under the default union rule a level counts as covered when some
    nontrivial piece holds it in either coordinate.  Under the stricter
    per-direction rule coverage is demanded separately in each direction;
    `covered` then reports the levels covered in both.
    """
    if rule not in ("union", "per-direction"):
        raise ValueError(f"unknown stability rule {rule!r}")
    graph.check_references()
    required = set(range(1, graph.num_levels + 1))
    per_direction: list[set[int]] = [set(), set()]
    for piece in graph.pieces:
        if piece.trivial:
            continue
        for direction in (0, 1):
            lc = piece.levels[direction]
            if lc.is_integer:
                per_direction[direction].add(lc.level)
    if rule == "union":
        covered = per_direction[0] | per_direction[1]
    else:
        covered = per_direction[0] & per_direction[1]
    covered &= required
    return StabilityVerdict(stable=required <= covered, covered=frozenset(covered), rule=rule)


def _solution_values(
    graph: LeveledDualGraph, solution, variables: tuple[str, ...]
) -> list[Fraction]:
    if isinstance(solution, Mapping):
        try:
            return [Fraction(solution[name]) for name in variables]
        except KeyError as exc:
            raise SolutionNotInCone(f"solution is missing variable {exc}") from exc
    values = [Fraction(v) for v in solution]
    if len(values) != len(variables):
        raise SolutionNotInCone(
            f"solution has {len(values)} entries, system has {len(variables)} variables"
        )
    return values


def _piece_positions(
    graph: LeveledDualGraph, values: list[Fraction], variables: tuple[str, ...]
) -> dict[str, tuple[Fraction, Fraction]]:
    """Positions of all pieces induced by a solution vector.

    Fully-integer pieces sit at their level-map values; the rest are reached
    by propagating edge displacements.  Any inconsistency means the vector
    does not solve the system.
    """
    index = {name: i for i, name in enumerate(variables)}

    def phi(a: int) -> Fraction:
        return -sum(
            (values[index[level_var(j)]] for j in range(1, a + 1)), Fraction(0)
        )

    positions: dict[str, tuple[Fraction, Fraction]] = {}
    for piece in graph.pieces:
        if piece.levels[0].is_integer and piece.levels[1].is_integer:
            positions[piece.id] = (phi(piece.levels[0].level), phi(piece.levels[1].level))

    pending = [pid for pid in positions]
    incidence = graph.incidences()
    while pending:
        current = pending.pop()
        for kind, edge in incidence[current]:
            if kind != "node":
                continue
            if edge.contact.is_zero():
                continue
            if node_var(edge.id) not in index:
                continue
            length = -values[index[node_var(edge.id)]]
            other = _other_end(edge, current)
            sign = 1 if edge.tail == current else -1
            cx, cy = positions[current]
            candidate = (
                cx + sign * length * edge.contact.x,
                cy + sign * length * edge.contact.y,
            )
            if other in positions:
                if positions[other] != candidate:
                    raise SolutionNotInCone(
                        f"solution is inconsistent across node {edge.id}"
                    )
            else:
                # Integer coordinates of the reached piece must agree with
                # the level map; check the defined ones.
                piece = graph.piece(other)
                for direction in (0, 1):
                    lc = piece.levels[direction]
                    if lc.is_integer and candidate[direction] != phi(lc.level):
                        raise SolutionNotInCone(
                            f"piece {other} lands at {candidate} but its level "
                            f"pins coordinate {direction + 1} to {phi(lc.level)}"
                        )
                positions[other] = candidate
                pending.append(other)
    missing = [p.id for p in graph.pieces if p.id not in positions]
    if missing:
        raise SolutionNotInCone(f"pieces {missing} have no determined position")
    return positions


def torus_weights(
    graph: LeveledDualGraph,
    cone: SolutionCone,
    basis: Sequence[Sequence[int]] | None = None,
) -> WeightTable:
    """Integer exponents of the residual torus action on each piece.

    The position of a piece is a linear function of the kernel parameters;
    its weight matrix collects the integer coefficients, one column per
    basis vector.  `basis` overrides the cone's canonical basis (used to
    check invariance under unimodular change of basis).
    """
    if not cone.feasible:
        raise InfeasibleCone("torus weights need a feasible solution cone")
    use_basis = tuple(tuple(int(c) for c in vec) for vec in (basis or cone.basis))
    columns = []
    for vec in use_basis:
        values = [Fraction(c) for c in vec]
        columns.append(_piece_positions(graph, values, cone.variables))
    entries: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for piece in graph.pieces:
        row_x = tuple(int(col[piece.id][0]) for col in columns)
        row_y = tuple(int(col[piece.id][1]) for col in columns)
        entries[piece.id] = (row_x, row_y)
    return WeightTable(dimension=len(use_basis), entries=entries)


def realize(
    graph: LeveledDualGraph, solution, keep_trivial: bool = False
) -> TropicalCurve:
    """Build the tropical curve of a strictly negative solution.

    Non-trivial pieces become vertices, nodes become segments of length
    -alpha(y), ends become rays.  Trivial pieces are interior points of
    their chains and are merged away unless `keep_trivial` is set, in which
    case every piece becomes a (possibly bivalent) vertex.
    """
    system = build_system(graph)
    values = _solution_values(graph, solution, system.variables)
    if any(v >= 0 for v in values):
        raise SolutionNotInCone("solution must be strictly negative in every coordinate")
    for eq in system.equations:
        if eq.evaluate(values) != 0:
            raise SolutionNotInCone(
                f"solution violates the direction-{eq.direction} equation of "
                f"chain {list(eq.chain)}"
            )
    for node in graph.nodes:
        if node.contact.is_zero():
            raise SolutionNotInCone(
                f"node {node.id} has zero contact and admits no realized edge"
            )
    positions = _piece_positions(graph, values, system.variables)
    index = {name: i for i, name in enumerate(system.variables)}

    def length_of(node: NodeEdge) -> Fraction:
        return -values[index[node_var(node.id)]]

    keep = {
        p.id
        for p in graph.pieces
        if keep_trivial or not p.trivial
    }
    if not keep:
        keep = {p.id for p in graph.pieces}  # purely trivial graph: keep everything

    incidence = graph.incidences()
    for p in graph.pieces:
        if p.id in keep:
            continue
        if len(incidence[p.id]) != 2:
            keep.add(p.id)  # cannot merge through a piece of valence != 2

    vertex_ids = {pid: f"v{i}" for i, pid in enumerate(p.id for p in graph.pieces if p.id in keep)}
    vertices = tuple(
        Vertex(vertex_ids[pid], QuadrantPoint(positions[pid][0], positions[pid][1]))
        for pid in vertex_ids
    )

    segments: list[Segment] = []
    rays: list[Ray] = []
    visited_edges: set[int] = set()

    for start in vertex_ids:
        for kind, edge in incidence[start]:
            if id(edge) in visited_edges:
                continue
            if kind == "end":
                visited_edges.add(id(edge))
                rays.append(Ray(vertex_ids[start], edge.contact))
                continue
            contact = _oriented_contact(edge, start)
            total = length_of(edge)
            chain = [edge]
            current = _other_end(edge, start)
            ok = True
            while current not in vertex_ids:
                nxt = next(
                    (e for k, e in incidence[current] if not (k == "node" and e is chain[-1])),
                    None,
                )
                if nxt is None:
                    ok = False
                    break
                nxt_kind = next(k for k, e in incidence[current] if e is nxt)
                if nxt_kind == "end":
                    if nxt.contact != contact:
                        ok = False
                        break
                    for e in chain:
                        visited_edges.add(id(e))
                    visited_edges.add(id(nxt))
                    rays.append(Ray(vertex_ids[start], contact))
                    break
                if _oriented_contact(nxt, current) != contact:
                    ok = False
                    break
                chain.append(nxt)
                total += length_of(nxt)
                current = _other_end(nxt, current)
            else:
                for e in chain:
                    visited_edges.add(id(e))
                segments.append(
                    Segment(vertex_ids[start], vertex_ids[current], contact, total)
                )
            if not ok:
                raise SolutionNotInCone(
                    "trivial chain bends; rerun with keep_trivial=True"
                )

    curve = TropicalCurve(vertices, tuple(segments), tuple(rays))
    curve.validate()
    return curve


def building_solution(building: Building) -> dict[str, Fraction]:
    """Read the tautological solution off a building's realized positions.

    Level variables are the negated level gaps and each node variable is the
    negated length of its fragment; realizing this solution reproduces the
    original curve exactly.
    """
    values: dict[str, Fraction] = {}
    levels = building.levels
    for j in range(1, levels.m + 1):
        values[level_var(j)] = levels.phi(j - 1) - levels.phi(j)
    for node in building.graph.nodes:
        if node.contact.is_zero():
            continue
        tx, ty = building.positions[node.tail]
        hx, hy = building.positions[node.head]
        if node.contact.x != 0:
            length = Fraction(hx - tx, node.contact.x)
        else:
            length = Fraction(hy - ty, node.contact.y)
        values[node_var(node.id)] = -length
    return values
