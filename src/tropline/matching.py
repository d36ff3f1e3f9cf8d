"""The matching linear system of a leveled dual graph, and its exact solutions.

Variables are one alpha(y) per node y plus one alpha_j per positive level
j.  For each coordinate direction, every maximal chain of nodes joining two
pieces with well-defined (integer) level in that direction, passing only
through between-level pieces, contributes one homogeneous equation

    s * (alpha(y_1) + ... + alpha(y_k)) = alpha_{a+1} + ... + alpha_b

where s is the contact component of the chain in that direction and a <= b
are the two anchor levels; `build_system` walks each chain once, on the
graph's own tables.  A strictly negative solution is exactly the data of a
tropical curve realizing the graph: levels sit at
phi(a) = -(alpha_1 + ... + alpha_a) and a node y becomes an edge fragment
of length -alpha(y).  The graph's constructor has checked everything these
functions need of its shape, so none of them raises on a graph; they reject
only solutions and cones that do not fit it.

Solutions are handled as integer vectors: `solve` checks its witness w on
the cleared vector (A w = 0, w <= -unit), and `realize` clears the
solution's denominators once and builds fractions only for the curve it
returns.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .building import Building, LeveledDualGraph
from .geometry import QuadrantPoint, _cleared, _fraction
from .tropical import Ray, Segment, TropicalCurve, Vertex

__all__ = [
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


def _variable_index(graph: LeveledDualGraph) -> dict[str, int]:
    """The system's variables in order, nodes then levels, each mapped to
    its place; `tuple(index)` is the variable tuple."""
    names = [node_var(n.id) for n in graph.nodes]
    names += [level_var(j) for j in range(1, graph.num_levels + 1)]
    return {name: i for i, name in enumerate(names)}


def build_system(graph: LeveledDualGraph) -> MatchingSystem:
    """Generate the minimal per-direction chain equations of a graph.

    A chain that runs into an end (no anchor on that side) contributes
    nothing; its constraints are implied by the anchored chains.  A node
    whose contact is 0 in a direction joins two pieces with the same level
    coordinate there, so it lies on no chain of that direction.  A node lies
    on at most one anchored chain per direction, so the nodes of each chain
    walked to an anchor are marked, and a marked node starts no walk.
    """
    index = _variable_index(graph)
    multilevels = graph.multilevels

    equations: list[Equation] = []
    for direction in (0, 1):
        def anchored(piece_id: str) -> bool:
            return multilevels[piece_id][direction].is_integer

        walked: set[str] = set()
        for node in graph.nodes:
            s = (node.contact.x, node.contact.y)[direction]
            if not s:
                continue
            for anchor in (node.tail, node.head):
                if node.id in walked or not anchored(anchor):
                    continue
                chain, terminal = _walk_chain(graph.incidence, anchor, node, anchored)
                if terminal is None:
                    continue  # ran into an end: no equation
                ids = tuple(n.id for n in chain)
                walked.update(ids)
                a, b = sorted(multilevels[p][direction].level for p in (anchor, terminal))
                coeffs = [0] * len(index)
                for node_id in ids:
                    coeffs[index[node_var(node_id)]] += s
                for j in range(a + 1, b + 1):
                    coeffs[index[level_var(j)]] -= 1
                equations.append(Equation(tuple(coeffs), direction + 1, ids, (a, b)))
    return MatchingSystem(variables=tuple(index), equations=tuple(equations))


def _walk_chain(incidence, start, first_node, stop):
    """Follow trivial pieces from `start` across `first_node` until `stop`.

    Returns (chain nodes, terminal): the terminal is the id of the first
    piece with `stop(piece_id)`, or None when the walk runs into an end.
    Every piece it passes is trivial, since a nontrivial piece sits at a
    level in both directions and `realize` keeps it.  A trivial piece is a
    two-valent cylinder, so the walk never branches or closes a cycle, and,
    as no contact has a negative component, every node of the chain has the
    contact of the first.
    """
    chain = [first_node]
    current = first_node.other_end(start)
    while not stop(current):
        # The walk entered `current` from another piece, so `chain[-1]` is
        # listed once and the other edge is the way on.
        nxt = next(e for e in incidence[current] if e is not chain[-1])
        current = nxt.other_end(current)
        if current is None:
            return chain, None
        chain.append(nxt)
    return chain, current


def solve(system: MatchingSystem) -> SolutionCone:
    """Exact kernel and strict-negativity certificate of a matching system.

    The kernel is computed by fraction-free Gauss-Jordan elimination and
    gives the basis and dimension; feasibility of the open all-negative cone
    is decided by a Bland-rule simplex on the equations themselves, seeking a
    solution with every coordinate <= -1 (homogeneity makes the two
    formulations equivalent).  Infeasibility is a value, not an error.
    """
    nvars = len(system.variables)
    rows = [eq.coefficients for eq in system.equations]
    # Column j's nonzeros as (row, coefficient), so A v is summed over the
    # support of v alone.
    columns: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for j, a in enumerate(row):
            if a:
                columns.setdefault(j, []).append((i, a))

    def solves(vec) -> bool:
        residual = [0] * len(rows)
        for j, x in enumerate(vec):
            if x:
                for i, a in columns.get(j, ()):
                    residual[i] += a * x
        return not any(residual)

    basis = tuple(map(tuple, _linalg.kernel_basis(rows, nvars)))
    if not all(map(solves, basis)):
        raise _linalg.InvariantViolation("kernel vector violates a matching equation")
    witness = _linalg.negative_orthant_point(rows, nvars)
    if witness is None:
        return SolutionCone(system.variables, basis, None)
    # Checked on the cleared integer vector: A w = 0 and every w_i <= -unit.
    unit, cleared = _cleared(witness)
    if not solves(cleared) or any(x > -unit for x in cleared):
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


def _solution_values(solution, variables: Collection[str]) -> list[Fraction]:
    if isinstance(solution, Mapping):
        try:
            return [_fraction(solution[name]) for name in variables]
        except KeyError as exc:
            raise SolutionNotInCone(f"solution is missing variable {exc}") from exc
    values = [_fraction(v) for v in solution]
    if len(values) != len(variables):
        raise SolutionNotInCone(
            f"solution has {len(values)} entries, system has {len(variables)} variables"
        )
    return values


def _piece_positions(
    graph: LeveledDualGraph,
    values: Sequence[int],
    index: Mapping[str, int],
    unit: int = 1,
) -> dict[str, tuple[int, int]]:
    """Positions of all pieces induced by an integer solution vector.

    Fully-integer pieces sit at their level-map values; the rest are reached
    by propagating edge displacements, and every piece is, since the graph
    is connected and a nontrivial piece is fully integer.  Any inconsistency
    means the vector does not solve the system.  The values count `1/unit`,
    and so do the positions; messages give the rational values.
    """
    multilevels = graph.multilevels
    # Level a sits at height[a] = -(alpha_1 + ... + alpha_a).
    height = [0]
    for j in range(1, graph.num_levels + 1):
        height.append(height[-1] - values[index[level_var(j)]])
    lengths = {n.id: -values[index[node_var(n.id)]] for n in graph.nodes}

    positions: dict[str, tuple[int, int]] = {}
    for pid, (lx, ly) in multilevels.items():
        if lx.is_integer and ly.is_integer:
            positions[pid] = (height[lx.lo], height[ly.lo])

    pending = list(positions)
    while pending:
        current = pending.pop()
        cx, cy = positions[current]
        for edge in graph.incidence[current]:
            other = edge.other_end(current)
            if other is None:
                continue
            length = lengths[edge.id]
            dx, dy = edge.away_from(current)
            candidate = (cx + length * dx, cy + length * dy)
            if other in positions:
                if positions[other] != candidate:
                    raise SolutionNotInCone(
                        f"solution is inconsistent across node {edge.id}"
                    )
            else:
                # Integer coordinates of the reached piece must agree with
                # the level map; check the defined ones.
                for direction, lc in enumerate(multilevels[other]):
                    if lc.is_integer and candidate[direction] != height[lc.lo]:
                        x, y, pin = (Fraction(c, unit) for c in (*candidate, height[lc.lo]))
                        raise SolutionNotInCone(
                            f"piece {other} lands at ({x}, {y}) but its level "
                            f"pins coordinate {direction + 1} to {pin}"
                        )
                positions[other] = candidate
                pending.append(other)
    return positions


def torus_weights(graph: LeveledDualGraph, cone: SolutionCone) -> WeightTable:
    """Integer exponents of the residual torus action on each piece.

    The position of a piece is a linear function of the kernel parameters;
    its weight matrix collects the integer coefficients, one column per
    vector of `cone.basis`.
    """
    if not cone.feasible:
        raise InfeasibleCone("torus weights need a feasible solution cone")
    index = _variable_index(graph)
    if cone.variables != tuple(index):
        raise SolutionNotInCone(
            f"cone variables {cone.variables} differ from the graph's {tuple(index)}"
        )
    columns = [_piece_positions(graph, vec, index) for vec in cone.basis]
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
    case every piece becomes a (possibly bivalent) vertex.  The solution's
    denominators are cleared once; fractions are built only for the kept
    vertices and the segment lengths.
    """
    index = _variable_index(graph)
    unit, values = _cleared(_solution_values(solution, index))
    if any(v >= 0 for v in values):
        raise SolutionNotInCone("solution must be strictly negative in every coordinate")
    # Every node displacement and every integer coordinate is checked here,
    # which implies each chain equation of the system.
    positions = _piece_positions(graph, values, index, unit)

    # Merged pieces are trivial, so two-valent cylinders: a chain through
    # them keeps one contact vector and becomes one segment or ray.
    keep = {p.id for p in graph.pieces if keep_trivial or not p.trivial}
    incidence = graph.incidence
    vertex_ids = {pid: f"v{i}" for i, pid in enumerate(p.id for p in graph.pieces if p.id in keep)}
    vertices = tuple(
        Vertex(
            vertex_ids[pid],
            QuadrantPoint(Fraction(positions[pid][0], unit), Fraction(positions[pid][1], unit)),
        )
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
            if terminal is None:
                rays.append(Ray(vertex_ids[start], contact))
            else:
                total = -sum(values[index[node_var(e.id)]] for e in chain)
                length = Fraction(total, unit)
                segments.append(Segment(vertex_ids[start], vertex_ids[terminal], contact, length))

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
        tx, ty = building.positions[node.tail]
        hx, hy = building.positions[node.head]
        if node.contact.x != 0:
            length = Fraction(hx - tx, node.contact.x)
        else:
            length = Fraction(hy - ty, node.contact.y)
        values[node_var(node.id)] = -length
    return values
