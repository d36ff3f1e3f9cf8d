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
from .building import Building, LeveledDualGraph
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
        return sum(c * v for c, v in zip(self.coefficients, values) if c)


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


def _variables(graph: LeveledDualGraph) -> tuple[str, ...]:
    """The system's variable order: nonzero-contact nodes, then levels."""
    return tuple(node_var(n.id) for n in graph.nodes if not n.contact.is_zero()) + tuple(
        level_var(j) for j in range(1, graph.num_levels + 1)
    )


def build_system(graph: LeveledDualGraph) -> MatchingSystem:
    """Generate the minimal per-direction chain equations of a graph.

    Nodes with zero contact vector carry no variable and no equation.  A
    chain that runs into an end (no anchor on that side) contributes
    nothing; its constraints are implied by the anchored chains.
    """
    active_nodes = [n for n in graph.nodes if not n.contact.is_zero()]
    variables = _variables(graph)
    var_index = {name: i for i, name in enumerate(variables)}
    pieces = {p.id: p for p in graph.pieces}
    incidence = graph.incidences()

    equations: list[Equation] = []
    seen_chains: set[tuple[str, ...]] = set()

    for direction in (0, 1):
        def anchored(piece_id: str) -> bool:
            return _level_of(pieces[piece_id], direction) is not None

        for node in active_nodes:
            for anchor_side in (node.tail, node.head):
                if not anchored(anchor_side):
                    continue
                chain, terminal = _walk_chain(incidence, anchor_side, node, anchored)
                if not isinstance(terminal, str):
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


def _walk_chain(incidence, start, first_node, stop):
    """Follow bivalent pieces from `start` across `first_node` until `stop`.

    Returns (chain nodes, terminal): the terminal is the id of the first
    piece with `stop(piece_id)`, or the end or zero-contact node the walk
    ran into.
    """
    chain = [first_node]
    current = first_node.other_end(start)
    visited = {start, current}
    while not stop(current):
        edges = incidence[current]
        if len(edges) != 2:
            raise AmbiguousChain(
                f"piece {current} inside a chain has valence {len(edges)}"
            )
        # The walk entered `current` from another piece, so `chain[-1]` is
        # listed once and the other edge is the way on.
        nxt = next(e for e in edges if e is not chain[-1])
        following = nxt.other_end(current)
        if following is None or nxt.contact.is_zero():
            return chain, nxt
        chain.append(nxt)
        current = following
        if current in visited:
            raise AmbiguousChain(f"cycle of between-level pieces at {current}")
        visited.add(current)
    return chain, current


def _oriented_chain(chain, start: str) -> list[LatticeVector]:
    """Contact vectors of a walked chain, each oriented along the walk."""
    oriented = []
    for node in chain:
        oriented.append(node.away_from(start))
        start = node.other_end(start)
    return oriented


def _chain_equation(chain, anchor, terminal, pieces, direction, variables, var_index):
    # Demand one common contact vector along the walk.
    oriented = _oriented_chain(chain, anchor)
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

    The kernel is computed by fraction-free Gauss-Jordan elimination and
    gives the basis and dimension; feasibility of the open all-negative cone
    is decided by a Bland-rule simplex on the equations themselves, seeking a
    solution with every coordinate <= -1 (homogeneity makes the two
    formulations equivalent).  Infeasibility is a value, not an error.
    """
    nvars = len(system.variables)
    rows = system.coefficient_rows()
    basis = tuple(map(tuple, _linalg.kernel_basis(rows, nvars)))
    for vec in basis:
        if any(eq.evaluate(vec) != 0 for eq in system.equations):
            raise _linalg.InvariantViolation("kernel vector violates a matching equation")
    witness = _linalg.negative_orthant_point(rows, nvars)
    if witness is None:
        return SolutionCone(system.variables, basis, None)
    if any(eq.evaluate(witness) != 0 for eq in system.equations) or any(
        x > -1 for x in witness
    ):
        raise _linalg.InvariantViolation("witness is not a solution with entries <= -1")
    return SolutionCone(system.variables, basis, tuple(witness))


def check_stability(graph: LeveledDualGraph, rule: str = "union") -> StabilityVerdict:
    """Decide relative stability: every positive level needs a nontrivial piece.

    Under the default union rule a level counts as covered when some
    nontrivial piece holds it in either coordinate.  Under the stricter
    per-direction rule coverage is demanded separately in each direction;
    `covered` then reports the levels covered in both.
    """
    if rule not in ("union", "per-direction"):
        raise ValueError(f"unknown stability rule {rule!r}")
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


def _solution_values(solution, variables: tuple[str, ...]) -> list[Fraction]:
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
    pieces = {p.id: p for p in graph.pieces}
    # Level a sits at height[a] = -(alpha_1 + ... + alpha_a).
    height = [0]
    for j in range(1, graph.num_levels + 1):
        height.append(height[-1] - values[index[level_var(j)]])

    positions: dict[str, tuple[Fraction, Fraction]] = {}
    for piece in graph.pieces:
        if piece.levels[0].is_integer and piece.levels[1].is_integer:
            positions[piece.id] = (height[piece.levels[0].level], height[piece.levels[1].level])

    pending = [pid for pid in positions]
    incidence = graph.incidences()
    while pending:
        current = pending.pop()
        for edge in incidence[current]:
            other = edge.other_end(current)
            if other is None or edge.contact.is_zero():
                continue
            if node_var(edge.id) not in index:
                continue
            length = -values[index[node_var(edge.id)]]
            dx, dy = edge.away_from(current)
            cx, cy = positions[current]
            candidate = (cx + length * dx, cy + length * dy)
            if other in positions:
                if positions[other] != candidate:
                    raise SolutionNotInCone(
                        f"solution is inconsistent across node {edge.id}"
                    )
            else:
                # Integer coordinates of the reached piece must agree with
                # the level map; check the defined ones.
                for direction in (0, 1):
                    lc = pieces[other].levels[direction]
                    if lc.is_integer and candidate[direction] != height[lc.level]:
                        raise SolutionNotInCone(
                            f"piece {other} lands at {candidate} but its level "
                            f"pins coordinate {direction + 1} to {height[lc.level]}"
                        )
                positions[other] = candidate
                pending.append(other)
    missing = [p.id for p in graph.pieces if p.id not in positions]
    if missing:
        raise SolutionNotInCone(f"pieces {missing} have no determined position")
    return positions


def torus_weights(graph: LeveledDualGraph, cone: SolutionCone) -> WeightTable:
    """Integer exponents of the residual torus action on each piece.

    The position of a piece is a linear function of the kernel parameters;
    its weight matrix collects the integer coefficients, one column per
    vector of `cone.basis`.
    """
    if not cone.feasible:
        raise InfeasibleCone("torus weights need a feasible solution cone")
    columns = [_piece_positions(graph, vec, cone.variables) for vec in cone.basis]
    entries: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for piece in graph.pieces:
        row_x = tuple(col[piece.id][0] for col in columns)
        row_y = tuple(col[piece.id][1] for col in columns)
        entries[piece.id] = (row_x, row_y)
    return WeightTable(dimension=len(cone.basis), entries=entries)


def realize(
    graph: LeveledDualGraph, solution, keep_trivial: bool = False
) -> TropicalCurve:
    """Build the tropical curve of a strictly negative solution.

    Non-trivial pieces become vertices, nodes become segments of length
    -alpha(y), ends become rays.  Trivial pieces are interior points of
    their chains and are merged away unless `keep_trivial` is set, in which
    case every piece becomes a (possibly bivalent) vertex.
    """
    variables = _variables(graph)
    values = _solution_values(solution, variables)
    if any(v >= 0 for v in values):
        raise SolutionNotInCone("solution must be strictly negative in every coordinate")
    for node in graph.nodes:
        if node.contact.is_zero():
            raise SolutionNotInCone(
                f"node {node.id} has zero contact and admits no realized edge"
            )
    # Every node displacement and every integer coordinate is checked here,
    # which implies each chain equation of the system.
    positions = _piece_positions(graph, values, variables)
    index = {name: i for i, name in enumerate(variables)}

    # Merged pieces are trivial, so two-valent cylinders: a chain through
    # them keeps one contact vector and becomes one segment or ray.
    keep = {p.id for p in graph.pieces if keep_trivial or not p.trivial}
    if not keep:
        keep = {p.id for p in graph.pieces}  # purely trivial graph: keep everything
    incidence = graph.incidences()
    vertex_ids = {pid: f"v{i}" for i, pid in enumerate(p.id for p in graph.pieces if p.id in keep)}
    vertices = tuple(
        Vertex(vertex_ids[pid], QuadrantPoint(positions[pid][0], positions[pid][1]))
        for pid in vertex_ids
    )

    segments: list[Segment] = []
    rays: list[Ray] = []
    visited_edges: set[int] = set()

    for start in vertex_ids:
        for edge in incidence[start]:
            if id(edge) in visited_edges:
                continue
            visited_edges.add(id(edge))
            contact = edge.away_from(start)
            if edge.other_end(start) is None:
                rays.append(Ray(vertex_ids[start], contact))
                continue
            chain, terminal = _walk_chain(incidence, start, edge, vertex_ids.__contains__)
            visited_edges.update(id(e) for e in chain)
            if isinstance(terminal, str):
                total = -sum(values[index[node_var(e.id)]] for e in chain)
                segments.append(
                    Segment(vertex_ids[start], vertex_ids[terminal], contact, total)
                )
            else:
                visited_edges.add(id(terminal))
                rays.append(Ray(vertex_ids[start], contact))

    return TropicalCurve(vertices, tuple(segments), tuple(rays))


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
