import dataclasses
import random
from fractions import Fraction as F

import pytest

from tropline import _linalg
from tropline.building import (
    EndEdge,
    GraphInvalid,
    LevelCoordinate,
    LeveledDualGraph,
    NodeEdge,
    Piece,
    build_building,
    extract_levels,
)
from tropline.geometry import LatticeVector
from tropline.matching import (
    InconsistentZeroContact,
    InfeasibleCone,
    SolutionNotInCone,
    build_system,
    building_solution,
    check_stability,
    level_var,
    node_var,
    realize,
    solve,
    torus_weights,
)
from tropline.tropical import LineFamily, curves_equal, tropicalize_line

V = LatticeVector
AT = LevelCoordinate.at
BETWEEN = LevelCoordinate.between


def coeff_map(system, eq):
    return {v: c for v, c in zip(system.variables, eq.coefficients) if c}


def row_for(system, terms):
    """Integer row for an equation written as {variable: coefficient}."""
    return [terms.get(name, 0) for name in system.variables]


def example1_system(example1_graph):
    return build_system(example1_graph)


def with_c4_at(graph, x, y):
    """The worked example with its central piece c4 moved to levels (x, y)."""
    pieces = tuple(Piece(p.id, (x, y), p.trivial) if p.id == "c4" else p for p in graph.pieces)
    return LeveledDualGraph(graph.num_levels, pieces, graph.nodes, graph.ends)


# The seven equations of the worked example, as written out in the source
# derivation: five minimal single-chain equations plus two full-chain sums.
MINIMAL_EQS = [
    {"alpha(n1)": 1, "alpha(n2)": 1, "alpha_2": -1},  # direction 1
    {"alpha(n3)": 1, "alpha_3": -1},  # direction 1
    {"alpha(n1)": 1, "alpha_1": -1},  # direction 2
    {"alpha(n2)": 1, "alpha(n3)": 1, "alpha_2": -1},  # direction 2
    {"alpha(n4)": 1, "alpha_3": -1},  # direction 2
]
REDUNDANT_EQS = [
    {"alpha(n1)": 1, "alpha(n2)": 1, "alpha(n3)": 1, "alpha_2": -1, "alpha_3": -1},
    {"alpha(n1)": 1, "alpha(n2)": 1, "alpha(n3)": 1, "alpha_1": -1, "alpha_2": -1},
]


class TestBuildSystem:
    def test_example_minimal_generating_set(self, example1_graph):
        system = example1_system(example1_graph)
        assert system.variables == (
            "alpha(n1)",
            "alpha(n2)",
            "alpha(n3)",
            "alpha(n4)",
            "alpha_1",
            "alpha_2",
            "alpha_3",
        )
        produced = [coeff_map(system, eq) for eq in system.equations]
        assert len(produced) == 5
        for expected in MINIMAL_EQS:
            assert expected in produced

    def test_example_directions(self, example1_graph):
        system = example1_system(example1_graph)
        by_direction = {1: [], 2: []}
        for eq in system.equations:
            by_direction[eq.direction].append(coeff_map(system, eq))
        assert MINIMAL_EQS[0] in by_direction[1] and MINIMAL_EQS[1] in by_direction[1]
        assert len(by_direction[1]) == 2 and len(by_direction[2]) == 3

    def test_full_chain_equations_are_implied(self, example1_graph):
        system = example1_system(example1_graph)
        rows = system.coefficient_rows()
        for redundant in REDUNDANT_EQS:
            assert _linalg.rank(rows + [row_for(system, redundant)]) == _linalg.rank(rows)

    def test_single_piece_empty_system(self):
        b = build_building(tropicalize_line(LineFamily.of(0, 0)))
        system = build_system(b.graph)
        assert system.variables == () and system.equations == ()

    def test_three_two_kernel_dimension(self):
        b = build_building(tropicalize_line(LineFamily.of(3, 2)))
        assert solve(build_system(b.graph)).dimension == 1

    def test_zero_contact_gap_is_inconsistent(self):
        # A single zero-contact node across levels is rejected when built.
        with pytest.raises(GraphInvalid, match="zero contact across levels"):
            LeveledDualGraph(
                num_levels=1,
                pieces=(
                    Piece("a", (AT(0), AT(0)), False),
                    Piece("b", (AT(1), AT(0)), False),
                ),
                nodes=(NodeEdge("n1", "a", "b", V(0, 1)),),
                ends=(),
            )
        # Through a trivial piece between levels, the graph is valid, and the
        # chain in direction 1 has zero contact across levels 0..1.
        graph = LeveledDualGraph(
            num_levels=1,
            pieces=(
                Piece("a", (AT(0), AT(0)), False),
                Piece("t", (BETWEEN(0), BETWEEN(0)), True),
                Piece("b", (AT(1), AT(1)), False),
            ),
            nodes=(NodeEdge("n1", "a", "t", V(0, 1)), NodeEdge("n2", "t", "b", V(0, 1))),
            ends=(),
        )
        with pytest.raises(InconsistentZeroContact):
            build_system(graph)

    def test_zero_contact_vector_is_unconstrained(self):
        graph = LeveledDualGraph(
            num_levels=0,
            pieces=(
                Piece("a", (AT(0), AT(0)), False),
                Piece("b", (AT(0), AT(0)), False),
            ),
            nodes=(NodeEdge("n1", "a", "b", V(0, 0)),),
            ends=(),
        )
        system = build_system(graph)
        assert system.variables == () and system.equations == ()

    def test_multiplicity_scales_node_coefficients(self):
        graph = LeveledDualGraph(
            num_levels=1,
            pieces=(
                Piece("a", (AT(0), AT(0)), False),
                Piece("b", (AT(1), AT(1)), False),
            ),
            nodes=(NodeEdge("n1", "a", "b", V(2, 2)),),
            ends=(),
        )
        system = build_system(graph)
        maps = [coeff_map(system, eq) for eq in system.equations]
        assert {"alpha(n1)": 2, "alpha_1": -1} in maps
        assert len(maps) == 2


class TestSolve:
    def test_example_dimension_and_relations(self, example1_graph):
        cone = solve(example1_system(example1_graph))
        assert cone.dimension == 2
        assert cone.feasible
        idx = {name: i for i, name in enumerate(cone.variables)}
        for vec in cone.basis:
            first = vec[idx[node_var("n1")]]
            for name in ("alpha(n3)", "alpha(n4)", "alpha_1", "alpha_3"):
                assert vec[idx[name]] == first
            assert (
                vec[idx[level_var(2)]]
                == vec[idx[node_var("n1")]] + vec[idx[node_var("n2")]]
            )

    def test_example_witness_strictly_negative(self, example1_graph):
        system = example1_system(example1_graph)
        cone = solve(system)
        assert all(w <= -1 for w in cone.witness)
        for eq in system.equations:
            assert eq.evaluate(cone.witness) == 0

    def test_modified_example_is_infeasible(self, example1_graph):
        # Dropping the central piece to level (3, 1) puts it below c3 in
        # direction 2, where n3 climbs: that graph is rejected when built.
        with pytest.raises(GraphInvalid, match="node n3 runs downward in direction 2"):
            with_c4_at(example1_graph, AT(3), AT(1))
        # Raise the central piece from level (3, 2) to (3, 3): the second
        # direction then forces alpha(n4) = 0 on the node up to c5.
        modified = with_c4_at(example1_graph, AT(3), AT(3))
        system = build_system(modified)
        maps = [coeff_map(system, eq) for eq in system.equations]
        assert {"alpha(n4)": 1} in maps
        cone = solve(system)
        assert not cone.feasible and cone.witness is None

    def test_empty_system_on_zero_variables(self):
        b = build_building(tropicalize_line(LineFamily.of(0, 0)))
        cone = solve(build_system(b.graph))
        assert cone.dimension == 0 and cone.feasible and cone.witness == ()


class TestStability:
    def test_example_stable_under_union(self, example1_graph):
        verdict = check_stability(example1_graph)
        assert verdict.stable and verdict.covered == {1, 2, 3}
        assert verdict.rule == "union"

    def test_example_unstable_per_direction(self, example1_graph):
        verdict = check_stability(example1_graph, rule="per-direction")
        assert not verdict.stable

    def test_extra_level_breaks_stability(self):
        curve = tropicalize_line(LineFamily.of(4, 3))
        refined = build_building(curve, extra_levels=[F(2)])
        verdict = check_stability(refined.graph)
        assert not verdict.stable and 2 not in verdict.covered

    def test_trivial_building_is_stable(self):
        b = build_building(tropicalize_line(LineFamily.of(0, 0)))
        assert check_stability(b.graph).stable

    def test_unknown_rule(self, example1_graph):
        with pytest.raises(ValueError):
            check_stability(example1_graph, rule="both")


class TestTorusWeights:
    def test_ray_type_weight_vectors(self):
        b = build_building(tropicalize_line(LineFamily.of(3, 2)))
        cone = solve(build_system(b.graph))
        assert cone.dimension == 1
        weights = torus_weights(b.graph, cone)
        by_level = {
            (str(p.levels[0]), str(p.levels[1])): weights.entries[p.id]
            for p in b.graph.pieces
        }
        assert by_level[("3", "2")] == ((3,), (2,))
        assert by_level[("1", "0")] == ((1,), (0,))
        assert by_level[("3", "3")] == ((3,), (3,))
        assert by_level[("2", "1")] == ((2,), (1,))

    def test_double_contact_ray_weight_vectors(self):
        # The p = 2q family: pieces at (2,1), (1,0), (2,2) carry weight
        # exponents (2,1), (1,0), (2,2).
        b = build_building(tropicalize_line(LineFamily.of(2, 1)))
        cone = solve(build_system(b.graph))
        assert cone.dimension == 1
        weights = torus_weights(b.graph, cone)
        by_level = {
            (str(p.levels[0]), str(p.levels[1])): weights.entries[p.id]
            for p in b.graph.pieces
        }
        assert by_level == {
            ("1", "0"): ((1,), (0,)),
            ("2", "1"): ((2,), (1,)),
            ("2", "2"): ((2,), (2,)),
        }

    def test_example_ranks(self, example1_graph):
        cone = solve(build_system(example1_graph))
        weights = torus_weights(example1_graph, cone)
        by_level = {
            (str(p.levels[0]), str(p.levels[1])): p.id for p in example1_graph.pieces
        }
        assert weights.rank(by_level[("3", "2")]) == 2
        assert weights.rank(by_level[("1", "0")]) == 1
        assert weights.rank(by_level[("3", "3")]) == 1

    def test_origin_piece_zero_matrix(self):
        b = build_building(tropicalize_line(LineFamily.of(0, 0)))
        cone = solve(build_system(b.graph))
        weights = torus_weights(b.graph, cone)
        assert weights.entries["c1"] == ((), ())

    def test_lattice_invariant_under_unimodular_change(self, example1_graph):
        cone = solve(build_system(example1_graph))
        weights = torus_weights(example1_graph, cone)
        for u in ([[1, 1], [0, 1]], [[0, 1], [-1, 0]], [[2, 1], [1, 1]]):
            changed_basis = [
                [
                    u[0][0] * a + u[0][1] * b
                    for a, b in zip(cone.basis[0], cone.basis[1])
                ],
                [
                    u[1][0] * a + u[1][1] * b
                    for a, b in zip(cone.basis[0], cone.basis[1])
                ],
            ]
            other = torus_weights(example1_graph, dataclasses.replace(cone, basis=changed_basis))
            for piece in example1_graph.pieces:
                assert weights.rank(piece.id) == other.rank(piece.id)
                assert weights.lattice(piece.id) == other.lattice(piece.id)

    def test_weight_columns_match_realize_displacement(self, example1_graph):
        cone = solve(build_system(example1_graph))
        weights = torus_weights(example1_graph, cone)
        witness = list(cone.witness)
        idx = {name: i for i, name in enumerate(cone.variables)}
        for k, basis_vec in enumerate(cone.basis):
            # Scale the step so the perturbed solution stays negative.
            delta = F(1)
            for name, i in idx.items():
                if basis_vec[i] > 0:
                    delta = min(delta, -witness[i] / (2 * basis_vec[i]))
            moved = [w + delta * b for w, b in zip(witness, basis_vec)]
            base_curve = realize(example1_graph, witness, keep_trivial=True)
            moved_curve = realize(example1_graph, moved, keep_trivial=True)
            base_pos = {v.id: v.position for v in base_curve.vertices}
            moved_pos = {v.id: v.position for v in moved_curve.vertices}
            for piece, vid in zip(example1_graph.pieces, base_curve.vertices):
                rows = weights.entries[piece.id]
                dx = (moved_pos[vid.id].x - base_pos[vid.id].x) / delta
                dy = (moved_pos[vid.id].y - base_pos[vid.id].y) / delta
                assert dx == rows[0][k] and dy == rows[1][k]

    def test_infeasible_cone_rejected(self, example1_graph):
        with pytest.raises(GraphInvalid):
            with_c4_at(example1_graph, AT(3), AT(1))
        modified = with_c4_at(example1_graph, AT(3), AT(3))
        cone = solve(build_system(modified))
        with pytest.raises(InfeasibleCone):
            torus_weights(modified, cone)


class TestRealize:
    def test_example_witness_realizes_the_curve(self, example1_graph):
        # The solution with a = b = -1 puts the levels at 1, 3, 4.
        solution = {
            node_var("n1"): F(-1),
            node_var("n2"): F(-1),
            node_var("n3"): F(-1),
            node_var("n4"): F(-1),
            level_var(1): F(-1),
            level_var(2): F(-2),
            level_var(3): F(-1),
        }
        curve = realize(example1_graph, solution)
        assert curves_equal(curve, tropicalize_line(LineFamily.of(4, 3)))

    def test_asymmetric_solution_moves_the_vertex(self, example1_graph):
        # a = -1, b = -2 gives levels 1, 4, 5 and the vertex at (5, 4).
        solution = {
            node_var("n1"): F(-1),
            node_var("n2"): F(-2),
            node_var("n3"): F(-1),
            node_var("n4"): F(-1),
            level_var(1): F(-1),
            level_var(2): F(-3),
            level_var(3): F(-1),
        }
        curve = realize(example1_graph, solution)
        positions = sorted((v.position.x, v.position.y) for v in curve.vertices)
        assert positions == [(1, 0), (5, 4)]

    def test_zero_node_graph(self):
        b = build_building(tropicalize_line(LineFamily.of(0, 0)))
        curve = realize(b.graph, {})
        assert len(curve.vertices) == 1
        assert tuple(curve.vertices[0].position) == (0, 0)
        assert len(curve.rays) == 2

    def test_round_trip_through_building(self):
        rng = random.Random(23)
        for _ in range(30):
            p = F(rng.randint(0, 12), rng.choice([1, 2, 3]))
            q = F(rng.randint(0, 12), rng.choice([1, 2, 3]))
            curve = tropicalize_line(LineFamily.of(p, q))
            b = build_building(curve)
            realized = realize(b.graph, building_solution(b))
            assert curves_equal(realized, curve)

    def test_keep_trivial_retains_all_pieces(self, example1_graph):
        cone = solve(build_system(example1_graph))
        curve = realize(example1_graph, cone.witness, keep_trivial=True)
        assert len(curve.vertices) == len(example1_graph.pieces)

    def test_scale_equivariance(self, example1_graph):
        cone = solve(build_system(example1_graph))
        witness = list(cone.witness)
        curve1 = realize(example1_graph, witness)
        curve2 = realize(example1_graph, [F(3, 2) * w for w in witness])
        pos1 = sorted((v.position.x, v.position.y) for v in curve1.vertices)
        pos2 = sorted((v.position.x, v.position.y) for v in curve2.vertices)
        assert pos2 == [(F(3, 2) * x, F(3, 2) * y) for x, y in pos1]
        assert sorted(s.length for s in curve2.segments) == [
            F(3, 2) * s.length for s in sorted(curve1.segments, key=lambda s: s.length)
        ]

    def test_positive_solution_rejected(self, example1_graph):
        with pytest.raises(SolutionNotInCone):
            realize(example1_graph, [F(1)] * 7)

    def test_non_solution_rejected(self, example1_graph):
        values = [F(-1)] * 7
        values[5] = F(-7)  # breaks alpha(n1) + alpha(n2) = alpha_2
        with pytest.raises(SolutionNotInCone):
            realize(example1_graph, values)

    def test_rejects_exactly_the_equation_violations(self, example1_graph):
        # The system's equations are the reference: realize must raise
        # exactly when one of them evaluates to nonzero.
        system = build_system(example1_graph)
        cone = solve(system)
        witness = list(cone.witness)
        candidates = []
        for i in range(len(witness)):
            moved = list(witness)
            moved[i] -= F(1, 3)
            candidates.append(moved)
        rng = random.Random(11)
        candidates += [[F(-rng.randint(1, 4)) for _ in witness] for _ in range(10)]
        for c1 in (0, F(1, 2), 1):
            for c2 in (0, F(1, 2), 1):
                candidates.append([
                    3 * w + c1 * a + c2 * b
                    for w, a, b in zip(witness, cone.basis[0], cone.basis[1])
                ])
        verdicts = set()
        for values in candidates:
            assert all(v <= -1 for v in values)
            violated = any(eq.evaluate(values) != 0 for eq in system.equations)
            verdicts.add(violated)
            if violated:
                with pytest.raises(SolutionNotInCone):
                    realize(example1_graph, values)
            else:
                realize(example1_graph, values)
        assert verdicts == {True, False}


class TestFeasibilityAcrossTypes:
    def test_pipeline_feasible_on_grid(self):
        rng = random.Random(31)
        for _ in range(25):
            p = F(rng.randint(0, 10), rng.choice([1, 2]))
            q = F(rng.randint(0, 10), rng.choice([1, 2]))
            b = build_building(tropicalize_line(LineFamily.of(p, q)))
            cone = solve(build_system(b.graph))
            assert cone.feasible
