import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from tropline.building import build_building, graph_to_json
from tropline.geometry import (
    LatticeVector,
    complete_fan,
    locate,
    stellar_subdivide,
)
from tropline.matching import build_system, solve
from tropline.moduli import (
    NotSmoothlyFactorizable,
    blowup_sequence,
    classify,
    exploded_fan,
    ionel_fan,
    type_table,
)
from tropline.tropical import LineFamily, tropicalize_line

from oracles import validate_fan

V = LatticeVector
GOLDENS = Path(__file__).parent / "goldens"

# One (p, q) inside each row of the type table.
ROW_SAMPLES = {
    "INTERIOR": (F(0), F(0)),
    "RAY(1,0)": (F(2), F(0)),
    "RAY(0,1)": (F(0), F(2)),
    "CONE((2,1),(1,0))": (F(5), F(1)),
    "CONE((1,2),(0,1))": (F(1), F(5)),
    "RAY(2,1)": (F(4), F(2)),
    "RAY(1,2)": (F(2), F(4)),
    "CONE((3,2),(2,1))": (F(7), F(4)),
    "CONE((2,3),(1,2))": (F(4), F(7)),
    "RAY(3,2)": (F(3), F(2)),
    "RAY(2,3)": (F(2), F(3)),
    "CONE((1,1),(3,2))": (F(4), F(3)),
    "CONE((1,1),(2,3))": (F(3), F(4)),
    "RAY(1,1)": (F(1), F(1)),
}


class TestFans:
    def test_exploded_fan_shape(self):
        fan = exploded_fan()
        assert fan.rays == (V(1, 0), V(1, 1), V(0, 1))
        assert len(fan.cones2d) == 2
        assert validate_fan(fan).smooth

    def test_exploded_locate(self):
        cone = locate(exploded_fan(), (F(4), F(3)))
        assert cone.generators == (V(1, 0), V(1, 1))

    def test_ionel_fan_rays(self):
        fan = ionel_fan()
        assert fan.rays == (
            V(1, 0),
            V(2, 1),
            V(3, 2),
            V(1, 1),
            V(2, 3),
            V(1, 2),
            V(0, 1),
        )
        assert len(fan.cones2d) == 6
        report = validate_fan(fan)
        assert report.smooth and not report.complete

    def test_ionel_fan_mirror_symmetric(self):
        fan = ionel_fan()
        mirrored_rays = sorted((r.y, r.x) for r in fan.rays)
        assert mirrored_rays == sorted((r.x, r.y) for r in fan.rays)
        gens = {frozenset(((u.x, u.y), (v.x, v.y))) for u, v in (c.generators for c in fan.cones2d)}
        swapped = {
            frozenset(((u[1], u[0]), (v[1], v[0])))
            for u, v in (tuple(sorted(g)) for g in gens)
        }
        assert gens == swapped

    def test_completed_fans(self):
        report = validate_fan(complete_fan(ionel_fan()))
        assert report.smooth and report.complete
        report = validate_fan(complete_fan(exploded_fan()))
        assert report.smooth and report.complete


class TestClassify:
    @pytest.mark.parametrize(
        "p,q,label",
        [
            (4, 3, "CONE((1,1),(3,2))"),
            (2, 1, "RAY(2,1)"),
            (0, 0, "INTERIOR"),
            (1, 0, "RAY(1,0)"),
            (0, 1, "RAY(0,1)"),
            (3, 1, "CONE((2,1),(1,0))"),
            (3, 2, "RAY(3,2)"),
            (F(7, 4), 1, "CONE((3,2),(2,1))"),
            (5, 5, "RAY(1,1)"),
            (3, 4, "CONE((1,1),(2,3))"),
            (2, 3, "RAY(2,3)"),
            (1, 2, "RAY(1,2)"),
            (1, 3, "CONE((1,2),(0,1))"),
            (F(5, 4), 2, "CONE((2,3),(1,2))"),
        ],
    )
    def test_labels(self, p, q, label):
        assert classify(p, q).label == label

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-1, 0)

    def test_partition_of_grid(self):
        labels = set()
        for i in range(0, 60):
            for j in range(0, 60):
                labels.add(classify(F(i, 4), F(j, 4)).label)
        assert len(labels) == 14

    def test_grid_golden(self):
        """Label and mirror on every p, q = k/d with k <= 12 and d <= 4."""
        values = sorted({F(k, d) for k in range(13) for d in range(1, 5)})
        lines = []
        for p in values:
            for q in values:
                lt = classify(p, q)
                lines.append(f"{p} {q} {lt.label} {lt.mirror}\n")
        assert "".join(lines) == (GOLDENS / "classify-grid.txt").read_text()

    def test_mirror_equivariance(self):
        rng = random.Random(3)
        for _ in range(200):
            p = F(rng.randint(0, 24), rng.choice([1, 2, 3, 4]))
            q = F(rng.randint(0, 24), rng.choice([1, 2, 3, 4]))
            assert classify(p, q).mirror == classify(q, p).label

    def test_constant_on_cone_interiors(self):
        fan = ionel_fan()
        rng = random.Random(9)
        for cone in fan.cones2d:
            u, v = cone.generators
            labels = set()
            for _ in range(20):
                a = F(rng.randint(1, 40), rng.randint(1, 5))
                b = F(rng.randint(1, 40), rng.randint(1, 5))
                labels.add(classify(a * u.x + b * v.x, a * u.y + b * v.y).label)
            assert len(labels) == 1
        for ray in fan.rays:
            labels = {
                classify(t * ray.x, t * ray.y).label
                for t in (F(1, 3), F(1), F(7, 2), F(12))
            }
            assert len(labels) == 1


class TestBlowupSequence:
    def test_four_steps_in_two_rounds(self):
        steps = blowup_sequence(exploded_fan(), ionel_fan())
        assert [tuple(ray) for _, ray in steps] == [(2, 1), (1, 2), (3, 2), (2, 3)]
        assert [tuple(map(tuple, cone.generators)) for cone, _ in steps] == [
            ((1, 0), (1, 1)),
            ((1, 1), (0, 1)),
            ((2, 1), (1, 1)),
            ((1, 1), (1, 2)),
        ]

    def test_identity_refinement(self):
        assert blowup_sequence(ionel_fan(), ionel_fan()) == []

    def test_replaying_steps_gives_fine_fan(self):
        fan = exploded_fan()
        for _, ray in blowup_sequence(exploded_fan(), ionel_fan()):
            fan = stellar_subdivide(fan, ray)
        assert fan == ionel_fan()
        assert validate_fan(fan).smooth

    def test_non_smooth_refinement_rejected(self):
        coarse = exploded_fan()
        fine = stellar_subdivide(coarse, V(5, 2))
        with pytest.raises(NotSmoothlyFactorizable):
            blowup_sequence(coarse, fine)

    def test_single_generator_sum_step(self):
        coarse = exploded_fan()
        fine = stellar_subdivide(coarse, V(2, 1))
        steps = blowup_sequence(coarse, fine)
        assert len(steps) == 1 and tuple(steps[0][1]) == (2, 1)

    def test_not_a_refinement(self):
        with pytest.raises(NotSmoothlyFactorizable):
            blowup_sequence(ionel_fan(), exploded_fan())


class TestTypeTable:
    def test_fourteen_rows(self):
        rows = type_table()
        assert len(rows) == 14
        assert sum(1 for r in rows if r.kind != "INTERIOR") == 13

    def test_dimension_sum_rule(self):
        for row in type_table():
            assert row.kernel_dim + row.quotient_dim == 2

    def test_specific_rows(self):
        rows = {r.label: r for r in type_table()}
        assert rows["RAY(3,2)"].kernel_dim == 1
        assert rows["RAY(3,2)"].quotient_dim == 1
        assert rows["CONE((1,1),(3,2))"].kernel_dim == 2
        assert rows["CONE((1,1),(3,2))"].quotient_dim == 0
        assert rows["INTERIOR"].kernel_dim == 0
        assert rows["INTERIOR"].quotient_dim == 2

    def test_mirror_labels_close_under_involution(self):
        rows = {r.label: r for r in type_table()}
        for row in rows.values():
            assert rows[row.mirror].mirror == row.label

    def test_conditions_match_classification(self):
        # Spot check that each row's sample point classifies to the row.
        for label, (p, q) in ROW_SAMPLES.items():
            assert classify(p, q).label == label

    def test_thirteen_boundary_types(self):
        """The abstract's 13 types of curves, read as the 13 boundary rows:
        every row but the undegenerate interior.  One sample per row gives
        14 pairwise different leveled dual graphs, and only the interior's
        has no level."""
        graphs = {
            label: build_building(tropicalize_line(LineFamily(p, q))).graph
            for label, (p, q) in ROW_SAMPLES.items()
        }
        boundary = [r.label for r in type_table() if r.kind != "INTERIOR"]
        assert len(boundary) == 13
        assert sorted(boundary) == sorted(label for label, g in graphs.items() if g.num_levels)
        assert len({json.dumps(graph_to_json(g)) for g in graphs.values()}) == 14


class TestKernelDimensionLaw:
    def test_kernel_dimension_matches_types(self):
        rng = random.Random(17)
        rows = {r.label: r for r in type_table()}
        fan = ionel_fan()
        regions = [("INTERIOR", [(F(0), F(0))])]
        for ray in fan.rays:
            pts = [
                (t * ray.x, t * ray.y)
                for t in (F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(8))
            ]
            regions.append((f"RAY({ray.x},{ray.y})", pts))
        for cone in fan.cones2d:
            u, v = cone.generators
            pts = []
            for _ in range(8):
                a = F(rng.randint(1, 9), rng.randint(1, 3))
                b = F(rng.randint(1, 9), rng.randint(1, 3))
                pts.append((a * u.x + b * v.x, a * u.y + b * v.y))
            label = classify(*pts[0]).label
            regions.append((label, pts))
        documents = {}
        for label, pts in regions:
            for p, q in pts:
                assert classify(p, q).label == label
                b = build_building(tropicalize_line(LineFamily(p, q)))
                cone = solve(build_system(b.graph))
                assert cone.dimension == rows[label].kernel_dim, (label, p, q)
                documents.setdefault(label, set()).add(json.dumps(graph_to_json(b.graph)))
        # One leveled dual graph per region, and a different one in each: the
        # 13 boundary types and the interior.
        assert all(len(docs) == 1 for docs in documents.values()), documents
        assert len({docs.pop() for docs in documents.values()}) == len(regions) == 14
