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
    InfeasibleCone,
    SolutionNotInCone,
    build_system,
    building_solution,
    check_stability,
    realize,
    solve,
    torus_weights,
)
from tropline.tropical import LineFamily, tropicalize_line

from oracles import curves_equal, evaluate, piece_lattice, piece_positions, piece_rank, rank

V = LatticeVector
AT = LevelCoordinate.at
BETWEEN = LevelCoordinate.between


def coeff_map(system, eq):
    return {system.variables[j]: c for j, c in eq.row}


def row_for(system, terms):
    """Sparse row for an equation written as {variable: coefficient}."""
    return [(j, terms[name]) for j, name in enumerate(system.variables) if terms.get(name)]


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
        rows = [eq.row for eq in system.equations]
        for redundant in REDUNDANT_EQS:
            assert rank(rows + [row_for(system, redundant)]) == rank(rows)

    def test_single_piece_empty_system(self):
        b = build_building(tropicalize_line(LineFamily(0, 0)))
        system = build_system(b.graph)
        assert system.variables == () and system.equations == ()

    def test_three_two_kernel_dimension(self):
        b = build_building(tropicalize_line(LineFamily(3, 2)))
        assert solve(build_system(b.graph)).dimension == 1

    def test_zero_contact_gap_is_inconsistent(self):
        # A single zero-contact node across levels is rejected when built.
        with pytest.raises(
            GraphInvalid,
            match=r"^node n1 has zero contact in direction 1 but joins level coordinates 0 and 1$",
        ):
            LeveledDualGraph(
                num_levels=1,
                pieces=(
                    Piece("a", (AT(0), AT(0)), False),
                    Piece("b", (AT(1), AT(0)), False),
                ),
                nodes=(NodeEdge("n1", "a", "b", V(0, 1)),),
                ends=(),
            )
        # Through a trivial piece between levels, the chain in direction 1
        # has zero contact across levels 0..1: its first node already joins
        # two level coordinates, so the graph is rejected when built.
        with pytest.raises(
            GraphInvalid,
            match=r"^node n1 has zero contact in direction 1 but joins level coordinates 0 and 0\.\.1$",
        ):
            LeveledDualGraph(
                num_levels=1,
                pieces=(
                    Piece("a", (AT(0), AT(0)), False),
                    Piece("t", (BETWEEN(0), BETWEEN(0)), True),
                    Piece("b", (AT(1), AT(1)), False),
                ),
                nodes=(NodeEdge("n1", "a", "t", V(0, 1)), NodeEdge("n2", "t", "b", V(0, 1))),
                ends=(),
            )

    def test_zero_contact_vector_is_rejected(self):
        # A zero-contact node has no realized edge, so no graph carries one.
        with pytest.raises(
            GraphInvalid,
            match=r"^node n1 has contact \(0, 0\), not nonzero with no negative component$",
        ):
            LeveledDualGraph(
                num_levels=0,
                pieces=(
                    Piece("a", (AT(0), AT(0)), False),
                    Piece("b", (AT(0), AT(0)), False),
                ),
                nodes=(NodeEdge("n1", "a", "b", V(0, 0)),),
                ends=(),
            )

    def test_rows_are_sparse_and_ascending(self):
        """Each row holds only nonzero coefficients, in strictly ascending
        columns, and the dense rows list the same entries."""
        for p, q, cuts in ((4, 3, ()), (F(9, 2), 2, [F(1, 3), 3]),
                           (40, 27, [F(2 * k + 1, 2) for k in range(25)])):
            curve = tropicalize_line(LineFamily(p, q))
            system = build_system(build_building(curve, extra_levels=cuts).graph)
            for eq, dense in zip(system.equations, system.coefficient_rows()):
                columns = [j for j, _ in eq.row]
                assert columns == sorted(set(columns)) and all(a for _, a in eq.row)
                assert len(dense) == len(system.variables)
                assert [(j, a) for j, a in enumerate(dense) if a] == list(eq.row)

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
            first = vec[idx["alpha(n1)"]]
            for name in ("alpha(n3)", "alpha(n4)", "alpha_1", "alpha_3"):
                assert vec[idx[name]] == first
            assert (
                vec[idx["alpha_2"]]
                == vec[idx["alpha(n1)"]] + vec[idx["alpha(n2)"]]
            )

    def test_example_witness_strictly_negative(self, example1_graph):
        system = example1_system(example1_graph)
        cone = solve(system)
        assert all(w <= -1 for w in cone.witness)
        for eq in system.equations:
            assert evaluate(eq, cone.witness) == 0

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

    def test_one_elimination_per_solve(self, example1_graph, monkeypatch):
        # The kernel and the simplex both read the one `rref`, on a feasible
        # and on an infeasible system.
        calls = []
        rref = _linalg.rref
        monkeypatch.setattr(_linalg, "rref", lambda rows: calls.append(rows) or rref(rows))
        for graph in (example1_graph, with_c4_at(example1_graph, AT(3), AT(3))):
            calls.clear()
            solve(build_system(graph))
            assert len(calls) == 1

    def test_empty_system_on_zero_variables(self):
        b = build_building(tropicalize_line(LineFamily(0, 0)))
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
        curve = tropicalize_line(LineFamily(4, 3))
        refined = build_building(curve, extra_levels=[F(2)])
        verdict = check_stability(refined.graph)
        assert not verdict.stable and 2 not in verdict.covered

    def test_trivial_building_is_stable(self):
        b = build_building(tropicalize_line(LineFamily(0, 0)))
        assert check_stability(b.graph).stable

    def test_unknown_rule(self, example1_graph):
        with pytest.raises(ValueError):
            check_stability(example1_graph, rule="both")


class TestTorusWeights:
    def test_ray_type_weight_vectors(self):
        b = build_building(tropicalize_line(LineFamily(3, 2)))
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
        b = build_building(tropicalize_line(LineFamily(2, 1)))
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
        assert piece_rank(weights, by_level[("3", "2")]) == 2
        assert piece_rank(weights, by_level[("1", "0")]) == 1
        assert piece_rank(weights, by_level[("3", "3")]) == 1

    def test_origin_piece_zero_matrix(self):
        b = build_building(tropicalize_line(LineFamily(0, 0)))
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
                assert piece_rank(weights, piece.id) == piece_rank(other, piece.id)
                assert piece_lattice(weights, piece.id) == piece_lattice(other, piece.id)

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
            base_pos = piece_positions(example1_graph, witness)
            moved_pos = piece_positions(example1_graph, moved)
            for piece in example1_graph.pieces:
                rows = weights.entries[piece.id]
                (bx, by), (mx, my) = base_pos[piece.id], moved_pos[piece.id]
                assert (mx - bx) / delta == rows[0][k] and (my - by) / delta == rows[1][k]

    @staticmethod
    def assert_weights_place_the_witness(graph):
        """Every piece's position under the witness, trivial pieces included,
        is its weight matrix applied to the witness's basis coordinates.

        Basis vector k is the only one nonzero at its free column f_k, its
        last nonzero column, so the witness w has coordinate
        lambda_k = w[f_k] / b_k[f_k]; the sum of lambda_k * b_k must give w
        back, which checks the coordinates without trusting that layout.
        """
        cone = solve(build_system(graph))
        weights = torus_weights(graph, cone)
        w = cone.witness
        lam = []
        for vec in cone.basis:
            f = max(j for j, b in enumerate(vec) if b)
            lam.append(w[f] / vec[f])
        assert [sum(c * b[j] for c, b in zip(lam, cone.basis)) for j in range(len(w))] == list(w)
        positions = piece_positions(graph, w)
        assert len(positions) == len(graph.pieces)
        for piece in graph.pieces:
            wx, wy = weights.entries[piece.id]
            placed = (sum(c * x for c, x in zip(lam, wx)), sum(c * y for c, y in zip(lam, wy)))
            assert positions[piece.id] == placed, piece.id

    def test_weights_place_the_witness_on_seeded_families(self):
        """300 seeded families, each cut at 0-10 extra quarter-integer levels."""
        rng = random.Random(2024)
        pieces = 0
        for _ in range(300):
            p = F(rng.randint(0, 10), rng.choice([1, 2]))
            q = F(rng.randint(0, 10), rng.choice([1, 2]))
            cuts = [F(rng.randint(1, 48), 4) for _ in range(rng.randint(0, 10))]
            graph = build_building(tropicalize_line(LineFamily(p, q)), extra_levels=cuts).graph
            if solve(build_system(graph)).feasible:
                self.assert_weights_place_the_witness(graph)
                pieces += len(graph.pieces)
        assert pieces > 2000

    @pytest.mark.parametrize("cuts", [25, 100])
    def test_weights_place_the_witness_on_refined_buildings(self, cuts):
        """`(40, 27)` cut at 25 and 100 half-integer levels."""
        levels = [F(2 * k + 1, 2) for k in range(cuts)]
        graph = build_building(tropicalize_line(LineFamily(40, 27)), extra_levels=levels).graph
        self.assert_weights_place_the_witness(graph)

    def test_infeasible_cone_rejected(self, example1_graph):
        with pytest.raises(GraphInvalid):
            with_c4_at(example1_graph, AT(3), AT(1))
        modified = with_c4_at(example1_graph, AT(3), AT(3))
        cone = solve(build_system(modified))
        with pytest.raises(InfeasibleCone):
            torus_weights(modified, cone)

    def test_basis_vector_outside_the_kernel_rejected(self, example1_graph):
        cone = solve(build_system(example1_graph))
        first, second = cone.basis
        off = (second[0] + 1, *second[1:])
        with pytest.raises(SolutionNotInCone) as info:
            torus_weights(example1_graph, dataclasses.replace(cone, basis=(first, off)))
        assert str(info.value) == "solution is inconsistent across node n1"

    def test_cone_of_another_graph_rejected(self):
        # A cone solved for (4, 3) names variables that (2, 1) lacks.
        cone = solve(build_system(build_building(tropicalize_line(LineFamily(4, 3))).graph))
        other = build_building(tropicalize_line(LineFamily(2, 1))).graph
        with pytest.raises(SolutionNotInCone) as info:
            torus_weights(other, cone)
        message = str(info.value)
        assert str(cone.variables) in message
        assert str(("alpha(n1)", "alpha(n2)", "alpha_1", "alpha_2")) in message


class TestRealize:
    def test_example_witness_realizes_the_curve(self, example1_graph):
        # The solution with a = b = -1 puts the levels at 1, 3, 4.  Columns:
        # alpha(n1), ..., alpha(n4), alpha_1, alpha_2, alpha_3.
        solution = (F(-1), F(-1), F(-1), F(-1), F(-1), F(-2), F(-1))
        curve = realize(example1_graph, solution)
        assert curves_equal(curve, tropicalize_line(LineFamily(4, 3)))

    def test_asymmetric_solution_moves_the_vertex(self, example1_graph):
        # a = -1, b = -2 gives levels 1, 4, 5 and the vertex at (5, 4).
        solution = (F(-1), F(-2), F(-1), F(-1), F(-1), F(-3), F(-1))
        curve = realize(example1_graph, solution)
        positions = sorted((v.position.x, v.position.y) for v in curve.vertices)
        assert positions == [(1, 0), (5, 4)]

    def test_zero_node_graph(self):
        b = build_building(tropicalize_line(LineFamily(0, 0)))
        curve = realize(b.graph, ())
        assert len(curve.vertices) == 1
        assert tuple(curve.vertices[0].position) == (0, 0)
        assert len(curve.rays) == 2

    def test_round_trip_through_building(self):
        rng = random.Random(23)
        for _ in range(30):
            p = F(rng.randint(0, 12), rng.choice([1, 2, 3]))
            q = F(rng.randint(0, 12), rng.choice([1, 2, 3]))
            curve = tropicalize_line(LineFamily(p, q))
            b = build_building(curve)
            realized = realize(b.graph, building_solution(b))
            assert curves_equal(realized, curve)

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

    def test_rejection_messages_give_rationals(self, example1_graph):
        witness = list(solve(build_system(example1_graph)).witness)
        messages = [
            "solution is inconsistent across node n1",
            "piece c2 lands at (5/3, 2/3) but its level pins coordinate 2 to 1",
        ]
        # Lower alpha(n1), then alpha(n2), by 1/3.
        for i, message in enumerate(messages):
            moved = list(witness)
            moved[i] -= F(1, 3)
            with pytest.raises(SolutionNotInCone) as info:
                realize(example1_graph, moved)
            assert str(info.value) == message

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
            violated = any(evaluate(eq, values) != 0 for eq in system.equations)
            verdicts.add(violated)
            if violated:
                with pytest.raises(SolutionNotInCone):
                    realize(example1_graph, values)
            else:
                realize(example1_graph, values)
        assert verdicts == {True, False}

    def test_solution_of_the_wrong_width_rejected(self, example1_graph):
        witness = list(solve(build_system(example1_graph)).witness)
        for values in (witness[:-1], witness + [F(-1)]):
            with pytest.raises(SolutionNotInCone) as info:
                realize(example1_graph, values)
            assert str(info.value) == f"solution has {len(values)} entries, system has 7 variables"


class TestFeasibilityAcrossTypes:
    def test_pipeline_feasible_on_grid(self):
        rng = random.Random(31)
        for _ in range(25):
            p = F(rng.randint(0, 10), rng.choice([1, 2]))
            q = F(rng.randint(0, 10), rng.choice([1, 2]))
            b = build_building(tropicalize_line(LineFamily(p, q)))
            cone = solve(build_system(b.graph))
            assert cone.feasible
