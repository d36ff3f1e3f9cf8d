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

Each equation is built once as a sparse row, which `_linalg` and the checks
read.  Solutions are integer vectors: `solve` checks its witness w on the
cleared vector (A w = 0, w <= -unit), and one walk of the graph carries all
the vectors it is given, the cleared solution of `realize` or the basis of
`torus_weights`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from . import _linalg
from .building import Building, LeveledDualGraph
from .geometry import QuadrantPoint, _cleared
from .tropical import Ray, Segment, TropicalCurve, Vertex

__all__ = [
    "InfeasibleCone",
    "SolutionNotInCone",
    "Equation",
    "MatchingSystem",
    "SolutionCone",
    "StabilityVerdict",
    "WeightTable",
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


@dataclass(frozen=True)
class Equation:
    """One homogeneous equation: its nonzero integer coefficients as
    `(column, coefficient)` pairs in ascending column order."""

    row: tuple[tuple[int, int], ...]
    direction: int  # 1 or 2
    chain: tuple[str, ...]  # node ids, in chain order
    levels: tuple[int, int]  # anchor levels (a, b) with a <= b


@dataclass(frozen=True)
class MatchingSystem:
    variables: tuple[str, ...]
    equations: tuple[Equation, ...]

    def coefficient_rows(self) -> list[list[int]]:
        """The dense rows: one coefficient per variable, per equation."""
        width, rows = len(self.variables), []
        for eq in self.equations:
            terms = dict(eq.row)
            rows.append([terms.get(j, 0) for j in range(width)])
        return rows


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


def _variable_names(graph: LeveledDualGraph) -> tuple[str, ...]:
    """The system's variables in column order: node i is column i, and level
    j is column len(graph.nodes) + j - 1.  Only callers that hand names back
    build them."""
    return (
        *(f"alpha({n.id})" for n in graph.nodes),
        *(f"alpha_{j}" for j in range(1, graph.num_levels + 1)),
    )


def build_system(graph: LeveledDualGraph) -> MatchingSystem:
    """Generate the minimal per-direction chain equations of a graph.

    A chain that runs into an end (no anchor on that side) contributes
    nothing; its constraints are implied by the anchored chains.  A node
    whose contact is 0 in a direction joins two pieces with the same level
    coordinate there, so it lies on no chain of that direction.  A node lies
    on at most one anchored chain per direction, so the nodes of each chain
    walked to an anchor are marked, and a marked node starts no walk.
    """
    # Node i is column i, and level j + 1 is column levels + j.
    column, levels = {n.id: i for i, n in enumerate(graph.nodes)}, len(graph.nodes)
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
                a, b = sorted([multilevels[p][direction].lo for p in (anchor, terminal)])
                # A chain repeats no node, and node columns precede levels.
                row = [(i, s) for i in sorted([column[node_id] for node_id in ids])]
                row += [(levels + j, -1) for j in range(a, b)]
                equations.append(Equation(tuple(row), direction + 1, ids, (a, b)))
    return MatchingSystem(variables=_variable_names(graph), equations=tuple(equations))


def _walk_chain(incidence, start, first, stop):
    """Follow trivial pieces from `start` across the edge `first` until `stop`.

    Returns (chain edges, terminal): the terminal is the id of the first
    piece with `stop(piece_id)`, or None when the walk runs into an end,
    which is then the chain's last edge.  Every piece it passes is trivial,
    since a nontrivial piece sits at a level in both directions and
    `realize` keeps it.  A trivial piece is a two-valent cylinder, so the
    walk never branches or closes a cycle, and, as no contact has a negative
    component, every edge of the chain has the contact of the first.
    """
    chain = [first]
    current = first.other_end(start)
    while current is not None and not stop(current):
        # The walk entered the two-valent `current` from another piece, so
        # `chain[-1]` is one of its two edges and the other is the way on.
        a, b = incidence[current]
        nxt = b if a is chain[-1] else a
        current = nxt.other_end(current)
        chain.append(nxt)
    return chain, current


def solve(system: MatchingSystem) -> SolutionCone:
    """Exact kernel and strict-negativity certificate of a matching system.

    One fraction-free Gauss-Jordan elimination of [A | -A.1] gives both
    answers.  The kernel basis and dimension are read off its rows.
    Feasibility of the open all-negative cone is decided from its pivots by
    a zero-cost dual simplex, seeking a solution with every coordinate <= -1
    (homogeneity makes the two formulations equivalent).  Infeasibility is
    a value, not an error.  Every basis vector and the cleared witness are
    checked against A row by row, each sparse row summed over its two or
    three terms.
    """
    nvars = len(system.variables)
    rows = [eq.row for eq in system.equations]

    def solves(vec) -> bool:
        for row in rows:
            total = 0
            for j, a in row:
                total += a * vec[j]
            if total:
                return False
        return True

    # The right-hand side -A.1 goes in column nvars.
    reduced, pivots = _linalg.rref([(*row, (nvars, -sum([a for _, a in row]))) for row in rows])
    basis = tuple(map(tuple, _linalg.kernel_basis(reduced, pivots, nvars)))
    if not all(map(solves, basis)):
        raise _linalg.InvariantViolation("kernel vector violates a matching equation")
    witness = _linalg.negative_orthant_point(reduced, pivots, nvars)
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


def _piece_positions(
    graph: LeveledDualGraph,
    vectors: Sequence[Sequence[int]],
    unit: int = 1,
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Positions of all pieces induced by integer solution vectors, found in
    one walk: each coordinate is a tuple with one entry per vector.

    Each vector lists its values in the order of `_variable_names`, the
    nodes and then the levels.  Fully-integer pieces sit at their level-map
    values; the rest are reached by propagating edge displacements, and
    every piece is, since the graph is connected and a nontrivial piece is
    fully integer.  Any inconsistency means a vector does not solve the
    system.  The values count `1/unit`, and so do the positions; messages
    give the rational values of the first vector that fails.
    """
    multilevels, nodes = graph.multilevels, graph.nodes
    # One tuple per variable, holding its value in each vector.
    values = list(zip(*vectors)) or [()] * (len(nodes) + graph.num_levels)
    # Level a sits at height[a] = -(alpha_1 + ... + alpha_a).
    height = [(0,) * len(vectors)]
    for alpha in values[len(nodes):]:
        height.append(tuple(map(sub, height[-1], alpha)))
    alphas = {n.id: alpha for n, alpha in zip(nodes, values)}

    positions: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for pid, (lx, ly) in multilevels.items():
        if lx.is_integer and ly.is_integer:
            positions[pid] = (height[lx.lo], height[ly.lo])

    # Crossing a node a second time checks nothing new: each is crossed once.
    pending, crossed = list(positions), set()
    while pending:
        current = pending.pop()
        cx, cy = positions[current]
        for edge in graph.incidence[current]:
            other = edge.other_end(current)
            if other is None or edge.id in crossed:
                continue
            crossed.add(edge.id)
            # A node's head sits at its tail plus length * contact, and its
            # length is -alpha: the head is the tail minus contact * alpha.
            alpha, sign = alphas[edge.id], (-1 if edge.tail == current else 1)
            x, y = sign * edge.contact.x, sign * edge.contact.y
            candidate = (
                tuple([c + x * a for c, a in zip(cx, alpha)]),
                tuple([c + y * a for c, a in zip(cy, alpha)]),
            )
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
                        at = (*candidate, height[lc.lo])
                        k = [c == h for c, h in zip(at[direction], at[2])].index(False)
                        x, y, pin = (Fraction(c[k], unit) for c in at)
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
    variables = _variable_names(graph)
    if cone.variables != variables:
        raise SolutionNotInCone(
            f"cone variables {cone.variables} differ from the graph's {variables}"
        )
    positions = _piece_positions(graph, cone.basis)
    return WeightTable(len(cone.basis), {piece.id: positions[piece.id] for piece in graph.pieces})


def realize(graph: LeveledDualGraph, solution: Sequence[Fraction | int]) -> TropicalCurve:
    """Build the tropical curve of a strictly negative solution.

    Non-trivial pieces become vertices, nodes become segments of length
    -alpha(y), ends become rays.  Trivial pieces are interior points of
    their chains and are merged away.  The solution's denominators are
    cleared once; fractions are built only for the kept vertices and the
    segment lengths.  The solution is read in column order, so a node's
    length is read by its position among the graph's nodes.
    """
    unit, values = _cleared(solution)
    width = len(graph.nodes) + graph.num_levels
    if len(values) != width:
        raise SolutionNotInCone(
            f"solution has {len(values)} entries, system has {width} variables"
        )
    if values and max(values) >= 0:
        raise SolutionNotInCone("solution must be strictly negative in every coordinate")
    # Every node displacement and every integer coordinate is checked here,
    # which implies each chain equation of the system.
    positions = _piece_positions(graph, [values], unit)

    # Merged pieces are trivial, so two-valent cylinders: a chain through
    # them keeps one contact vector and becomes one segment or ray.
    kept = (p.id for p in graph.pieces if not p.trivial)
    vertex_ids = {pid: f"v{i}" for i, pid in enumerate(kept)}
    vertices = tuple(
        Vertex(vid, QuadrantPoint(Fraction(x, unit), Fraction(y, unit)))
        for pid, vid in vertex_ids.items()
        for (x,), (y,) in [positions[pid]]
    )

    alpha = {n.id: v for n, v in zip(graph.nodes, values)}
    segments: list[Segment] = []
    rays: list[Ray] = []
    visited_edges: set[int] = set()

    for start in vertex_ids:
        for edge in graph.incidence[start]:
            if id(edge) in visited_edges:
                continue
            contact = edge.away_from(start)
            chain, terminal = _walk_chain(graph.incidence, start, edge, vertex_ids.__contains__)
            visited_edges.update(map(id, chain))
            if terminal is None:
                rays.append(Ray(vertex_ids[start], contact))
            else:
                length = Fraction(-sum([alpha[e.id] for e in chain]), unit)
                segments.append(Segment(vertex_ids[start], vertex_ids[terminal], contact, length))

    return TropicalCurve(vertices, tuple(segments), tuple(rays))


def building_solution(building: Building) -> tuple[Fraction, ...]:
    """Read the tautological solution off a building's realized positions.

    In column order, each node variable is the negated length of its
    fragment and each level variable the negated level gap; realizing this
    solution reproduces the original curve exactly.
    """
    values = []
    for node in building.graph.nodes:
        tx, ty = building.positions[node.tail]
        hx, hy = building.positions[node.head]
        if node.contact.x != 0:
            values.append(Fraction(tx - hx, node.contact.x))
        else:
            values.append(Fraction(ty - hy, node.contact.y))
    phi = building.levels.phi
    return (*values, *(phi(j - 1) - phi(j) for j in range(1, building.levels.m + 1)))
