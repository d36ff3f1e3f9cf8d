import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from tropline.building import (
    EndEdge,
    GraphInvalid,
    LevelCoordinate,
    LevelStructure,
    build_building,
    describe_building,
    extract_levels,
    graph_from_json,
    graph_to_json,
)
from tropline.matching import build_system, realize, solve, torus_weights
from tropline.geometry import LatticeVector, QuadrantPoint
from tropline.tropical import LineFamily, Ray, Segment, TropicalCurve, Vertex, tropicalize_line

from oracles import piece_positions


def building_of(p, q, extra=()):
    return build_building(tropicalize_line(LineFamily(p, q)), extra_levels=extra)


def multilevels(graph):
    return {
        p.id: (str(p.levels[0]), str(p.levels[1]), p.trivial) for p in graph.pieces
    }


class TestLevelOrder:
    """`LevelStructure` checks 0 < l_1 < ... < l_m by cross-multiplying."""

    BIG = 10**30

    @pytest.mark.parametrize(
        "values",
        [
            (F(1, BIG), F(1, BIG - 1)),
            (F(BIG + 2, BIG + 1), F(BIG + 1, BIG)),
            (F(1, BIG), F(1), F(BIG)),
        ],
    )
    def test_increasing_levels_accepted(self, values):
        assert LevelStructure(values).values == values

    @pytest.mark.parametrize(
        "values, listed",
        [
            ((F(0), F(1)), "0, 1"),
            ((F(-1, BIG),), f"-1/{BIG}"),
            ((F(1), F(1)), "1, 1"),
            ((F(2), F(1)), "2, 1"),
            ((F(1, BIG - 1), F(1, BIG)), f"1/{BIG - 1}, 1/{BIG}"),
            ((F(BIG + 1, BIG), F(BIG + 2, BIG + 1)), f"{BIG + 1}/{BIG}, {BIG + 2}/{BIG + 1}"),
            ((F(1), F(BIG, BIG - 1), F(BIG, BIG - 1)), f"1, {BIG}/{BIG - 1}, {BIG}/{BIG - 1}"),
        ],
    )
    def test_zero_equal_or_decreasing_levels_refused(self, values, listed):
        with pytest.raises(GraphInvalid) as info:
            LevelStructure(values)
        assert str(info.value) == f"levels must be strictly increasing and positive: {listed}"


class TestLevelCoordinate:
    def test_json_round_trip(self):
        for lc in (LevelCoordinate.at(3), LevelCoordinate.between(0)):
            assert LevelCoordinate.from_json(lc.to_json()) == lc

    def test_bad_between(self):
        with pytest.raises(GraphInvalid):
            LevelCoordinate.from_json({"between": [1, 3]})


class TestExtractLevels:
    def test_example_level_map(self):
        levels = extract_levels(tropicalize_line(LineFamily(4, 3)))
        assert levels.values == (F(1), F(3), F(4))
        assert levels.m == 3
        assert [levels.phi(a) for a in range(4)] == [0, 1, 3, 4]

    def test_ordinary_line(self):
        levels = extract_levels(tropicalize_line(LineFamily(0, 0)))
        assert levels.values == () and levels.m == 0

    def test_three_two(self):
        levels = extract_levels(tropicalize_line(LineFamily(3, 2)))
        assert levels.values == (F(1), F(2), F(3))


class TestBuildBuilding:
    def test_example_building(self):
        b = building_of(4, 3)
        g = b.graph
        assert g.num_levels == 3
        assert multilevels(g) == {
            "c1": ("1", "0", False),
            "c2": ("1..2", "1", True),
            "c3": ("2", "1..2", True),
            "c4": ("3", "2", False),
            "c5": ("3", "3", True),
        }
        assert b.positions == {
            "c1": (F(1), F(0)),
            "c2": (F(2), F(1)),
            "c3": (F(3), F(2)),
            "c4": (F(4), F(3)),
            "c5": (F(4), F(4)),
        }
        assert [(n.id, n.tail, n.head, tuple(n.contact)) for n in g.nodes] == [
            ("n1", "c1", "c2", (1, 1)),
            ("n2", "c2", "c3", (1, 1)),
            ("n3", "c3", "c4", (1, 1)),
            ("n4", "c4", "c5", (0, 1)),
        ]
        assert [(e.piece, tuple(e.contact)) for e in g.ends] == [
            ("c4", (1, 0)),
            ("c5", (0, 1)),
        ]

    def test_ordinary_line_building(self):
        g = building_of(0, 0).graph
        assert len(g.pieces) == 1 and not g.nodes and len(g.ends) == 2
        assert multilevels(g) == {"c1": ("0", "0", False)}

    def test_three_two_building(self):
        g = building_of(3, 2).graph
        assert multilevels(g) == {
            "c1": ("1", "0", False),
            "c2": ("2", "1", True),
            "c3": ("3", "2", False),
            "c4": ("3", "3", True),
        }

    def test_matches_fixture(self, example1_graph):
        assert graph_to_json(building_of(4, 3).graph) == graph_to_json(example1_graph)

    def test_trivial_count_is_crossing_count(self):
        rng = random.Random(11)
        for _ in range(40):
            p = F(rng.randint(0, 16), rng.choice([1, 2, 4]))
            q = F(rng.randint(0, 16), rng.choice([1, 2, 4]))
            curve = tropicalize_line(LineFamily(p, q))
            b = build_building(curve)
            levels = b.levels
            pos = {v.id: v.position for v in curve.vertices}

            def crossing_points(base, contact, length):
                # A point meeting both cut families at once is one crossing.
                points = set()
                for value in levels.values:
                    for coord, delta in ((contact.x, value - base.x), (contact.y, value - base.y)):
                        if coord:
                            t = F(delta, coord)
                            if 0 < t and (length is None or t < length):
                                points.add((base.x + t * contact.x, base.y + t * contact.y))
                return points

            crossings = 0
            for s in curve.segments:
                crossings += len(crossing_points(pos[s.tail], s.contact, s.length))
            for r in curve.rays:
                crossings += len(crossing_points(pos[r.base], r.contact, None))
            trivial = sum(1 for piece in b.graph.pieces if piece.trivial)
            assert trivial == crossings
            # Each edge with k interior crossings contributes k + 1 fragments.
            edges = len(curve.segments) + len(curve.rays)
            fragments = len(b.graph.nodes) + len(b.graph.ends)
            assert fragments == crossings + edges
            assert len(b.graph.pieces) == len(curve.vertices) + trivial

    def test_fragment_lengths_sum(self):
        b = building_of(4, 3)
        seg_nodes = [n for n in b.graph.nodes if n.contact == n.contact.__class__(1, 1)]
        total = F(0)
        for n in seg_nodes:
            tx, _ = b.positions[n.tail]
            hx, _ = b.positions[n.head]
            total += hx - tx
        assert total == F(3)

    def test_extra_level_only_adds_trivial_pieces(self):
        base = building_of(4, 3)
        refined = building_of(4, 3, extra=[F(2)])
        def nontrivial(b):
            return {
                (str(p.levels[0]), str(p.levels[1]))
                for p in b.graph.pieces
                if not p.trivial
            }
        assert {b for b in nontrivial(base)} == {("1", "0"), ("3", "2")}
        assert nontrivial(refined) == {("1", "0"), ("4", "3")}
        base_trivial = sum(1 for p in base.graph.pieces if p.trivial)
        refined_trivial = sum(1 for p in refined.graph.pieces if p.trivial)
        assert refined_trivial >= base_trivial
        # positions of nontrivial pieces unchanged
        base_pos = {
            base.positions[p.id] for p in base.graph.pieces if not p.trivial
        }
        refined_pos = {
            refined.positions[p.id] for p in refined.graph.pieces if not p.trivial
        }
        assert base_pos == refined_pos

    def test_vertex_on_cut_line_is_integer_piece(self):
        # The monovalent vertex (1, 0) sits exactly on the line x = l_1.
        g = building_of(4, 3).graph
        piece = next(p for p in g.pieces if p.id == "c1")
        assert piece.levels[0].is_integer and piece.levels[0].level == 1

    def test_non_unit_contacts_cross_levels_exactly(self):
        # Level crossings (v - c0) / c of the (0, 3) ray and the (2, 1)
        # segment are integers only in a unit that multiplies the lcm of the
        # denominators by the lcm of the contact components.
        curve = TropicalCurve(
            (
                Vertex("a", QuadrantPoint(F(3, 5), F(4))),
                Vertex("b", QuadrantPoint(F(49, 15), F(16, 3))),
            ),
            (Segment("a", "b", LatticeVector(2, 1), F(4, 3)),),
            (
                Ray("a", LatticeVector(0, 3)),
                Ray("b", LatticeVector(1, 0)),
                Ray("b", LatticeVector(0, 1)),
            ),
        )
        assert describe_building(build_building(curve, [F(5, 11)])) == (
            "levels: 5/11 3/5 49/15 4 16/3\n"
            "piece c1 level (2, 4) nontrivial at (3/5, 4)\n"
            "piece c2 level (2, 5) trivial at (3/5, 16/3)\n"
            "piece c3 level (3, 5) nontrivial at (49/15, 16/3)\n"
            "piece c4 level (4, 5) trivial at (4, 16/3)\n"
            "piece c5 level (5, 5) trivial at (16/3, 16/3)\n"
            "node n1 c1 -> c2 contact (0, 3)\n"
            "node n2 c1 -> c3 contact (2, 1)\n"
            "node n3 c3 -> c4 contact (1, 0)\n"
            "node n4 c4 -> c5 contact (1, 0)\n"
            "end from c2 contact (0, 3)\n"
            "end from c3 contact (0, 1)\n"
            "end from c5 contact (1, 0)\n"
        )


class TestDescribeAndJson:
    def test_describe_is_stable(self):
        b = building_of(4, 3)
        assert describe_building(b) == describe_building(building_of(4, 3))
        text = describe_building(b)
        assert text.splitlines()[0] == "levels: 1 3 4"
        assert "piece c4 level (3, 2) nontrivial at (4, 3)" in text

    def test_describe_trivial_building(self):
        text = describe_building(building_of(0, 0))
        assert text.splitlines()[0] == "levels: none"

    def test_graph_json_round_trip(self):
        g = building_of(F(7, 2), F(3, 2)).graph
        doc = json.loads(json.dumps(graph_to_json(g)))
        assert graph_to_json(graph_from_json(doc)) == graph_to_json(g)

    def test_fixture_validates(self, example1_graph):
        # `replace` builds the graph again, through every construction check.
        assert dataclasses.replace(example1_graph) == example1_graph


class TestGraphTables:
    def test_tables_are_the_pieces_levels_and_edges(self, example1_graph):
        g = example1_graph
        assert g.multilevels == {p.id: p.levels for p in g.pieces}
        assert g.incidence["c4"] == (g.nodes[2], g.nodes[3], g.ends[0])
        assert g.incidence["c1"] == (g.nodes[0],)

    def test_replace_rebuilds_the_tables(self, example1_graph):
        g = example1_graph
        origin = dataclasses.replace(g.pieces[0], levels=(LevelCoordinate.at(0),) * 2)
        end = EndEdge("c4", LatticeVector(2, 0))
        moved = dataclasses.replace(g, pieces=(origin, *g.pieces[1:]), ends=(end, g.ends[1]))
        assert moved.multilevels["c1"] == origin.levels
        assert moved.incidence["c4"][-1] is end
        assert g.multilevels["c1"] == g.pieces[0].levels
        assert g.incidence["c4"][-1] is g.ends[0]

    def test_equal_graphs_compare_and_hash_equal(self, example1_graph):
        copy = graph_from_json(graph_to_json(example1_graph))
        assert copy.incidence is not example1_graph.incidence
        assert copy == example1_graph and hash(copy) == hash(example1_graph)

    def test_repr_leaves_the_tables_out(self, example1_graph):
        text = repr(example1_graph)
        assert "multilevels" not in text and "incidence" not in text
        with pytest.raises(dataclasses.FrozenInstanceError):
            example1_graph.incidence = {}

    def test_matching_leaves_the_tables_unchanged(self, example1_graph):
        g = example1_graph
        multilevels = dict(g.multilevels)
        incidence = dict(g.incidence)
        cone = solve(build_system(g))
        torus_weights(g, cone)
        realize(g, cone.witness)
        piece_positions(g, cone.witness)
        assert g.multilevels == multilevels
        assert g.incidence == incidence
        assert all(
            a is b for pid, edges in incidence.items() for a, b in zip(edges, g.incidence[pid])
        )


def _edited(doc, edits):
    """`doc` with `edits[section][i]` merged into entry i of each section
    given as a dict, where an index one past the end appends the entry, and
    with each other section replaced."""
    for section, entries in edits.items():
        if not isinstance(entries, dict):
            doc[section] = entries
            continue
        for i, fields in entries.items():
            if i == len(doc[section]):
                doc[section].append({})
            doc[section][i].update(fields)
    return doc


_CONTACT_RULE = "not nonzero with no negative component"


class TestGraphBoundary:
    @pytest.mark.parametrize(
        "edits, message",
        [
            pytest.param(
                {"ends": {0: {"piece": "zz"}}},
                "end from zz references a missing piece",
                id="end-from-missing-piece",
            ),
            pytest.param(
                {"ends": {0: {"contact": [0, 0]}}},
                f"end from c4 has contact (0, 0), {_CONTACT_RULE}",
                id="zero-end",
            ),
            pytest.param(
                {"ends": {0: {"contact": [1, -1]}}},
                f"end from c4 has contact (1, -1), {_CONTACT_RULE}",
                id="end-leaving-the-quadrant",
            ),
            pytest.param(
                {"nodes": {4: {"id": "m4", "tail": "c4", "head": "c4", "contact": [0, 0]}}},
                f"node m4 has contact (0, 0), {_CONTACT_RULE}",
                id="zero-node",
            ),
            # The levels of n4 rise from c4 to c5 in direction 2, so it does
            # not run downward, but its contact points down.
            pytest.param(
                {"pieces": {4: {"trivial": False}}, "nodes": {3: {"contact": [0, -2]}}},
                f"node n4 has contact (0, -2), {_CONTACT_RULE}",
                id="negative-node",
            ),
            pytest.param(
                {"pieces": {4: {"levels": [{"between": [2, 3]}, {"at": 3}]}}},
                "node n4 has zero contact in direction 1 but joins level coordinates 3 and 2..3",
                id="zero-contact-into-between",
            ),
            pytest.param(
                {"pieces": {1: {"trivial": False}}},
                "nontrivial piece c2 at (1..2, 1) is between levels",
                id="nontrivial-between-levels",
            ),
            # A cycle of two cylinders between levels 0 and 1: no piece has
            # a position that the levels fix.
            pytest.param(
                {
                    "num_levels": 1,
                    "pieces": [
                        {"id": c, "levels": [{"between": [0, 1]}, {"at": 0}], "trivial": True}
                        for c in ("c1", "c2")
                    ],
                    "nodes": [
                        {"id": "n1", "tail": "c1", "head": "c2", "contact": [1, 0]},
                        {"id": "n2", "tail": "c2", "head": "c1", "contact": [1, 0]},
                    ],
                    "ends": [],
                },
                "every piece is trivial",
                id="every-piece-trivial",
            ),
        ],
    )
    def test_constructor_rejects(self, example1_path, edits, message):
        doc = _edited(json.loads(example1_path.read_text()), edits)
        with pytest.raises(GraphInvalid) as info:
            graph_from_json(doc)
        assert str(info.value) == message
