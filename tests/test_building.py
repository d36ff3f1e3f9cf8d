import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from tropline.building import (
    GraphInvalid,
    LevelCoordinate,
    LevelStructure,
    build_building,
    describe_building,
    extract_levels,
    graph_from_json,
    graph_to_json,
)
from tropline.tropical import LineFamily, tropicalize_line


def building_of(p, q, extra=()):
    return build_building(tropicalize_line(LineFamily.of(p, q)), extra_levels=extra)


def multilevels(graph):
    return {
        p.id: (str(p.levels[0]), str(p.levels[1]), p.trivial) for p in graph.pieces
    }


class TestLevelCoordinate:
    def test_ordering_key(self):
        at1 = LevelCoordinate.at(1)
        between12 = LevelCoordinate.between(1)
        at2 = LevelCoordinate.at(2)
        assert at1.sort_key() < between12.sort_key() < at2.sort_key()

    def test_json_round_trip(self):
        for lc in (LevelCoordinate.at(3), LevelCoordinate.between(0)):
            assert LevelCoordinate.from_json(lc.to_json()) == lc

    def test_bad_between(self):
        with pytest.raises(GraphInvalid):
            LevelCoordinate.from_json({"between": [1, 3]})


class TestExtractLevels:
    def test_example_level_map(self):
        levels = extract_levels(tropicalize_line(LineFamily.of(4, 3)))
        assert levels.values == (F(1), F(3), F(4))
        assert levels.m == 3
        assert [levels.phi(a) for a in range(4)] == [0, 1, 3, 4]

    def test_ordinary_line(self):
        levels = extract_levels(tropicalize_line(LineFamily.of(0, 0)))
        assert levels.values == () and levels.m == 0

    def test_three_two(self):
        levels = extract_levels(tropicalize_line(LineFamily.of(3, 2)))
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
            curve = tropicalize_line(LineFamily.of(p, q))
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
