"""Cross-module consistency sweep over random exact families."""

import dataclasses
import random
from fractions import Fraction as F

from tropline.building import build_building, extract_levels
from tropline.matching import (
    build_system,
    building_solution,
    check_stability,
    realize,
    solve,
    torus_weights,
)
from tropline.moduli import classify, type_table
from tropline.tropical import (
    LineFamily,
    curves_equal,
    reflect,
    tropicalize_line,
    validate_curve,
)


def random_rationals(seed, count, max_num=18, dens=(1, 2, 3, 4, 5)):
    rng = random.Random(seed)
    for _ in range(count):
        yield (
            F(rng.randint(0, max_num), rng.choice(dens)),
            F(rng.randint(0, max_num), rng.choice(dens)),
        )


def test_full_pipeline_consistency():
    rows = {r.label: r for r in type_table()}
    for p, q in random_rationals(99, 120):
        family = LineFamily.of(p, q)
        curve = tropicalize_line(family)
        validate_curve(curve)

        b = build_building(curve)
        assert dataclasses.replace(b.graph) == b.graph

        system = build_system(b.graph)
        cone = solve(system)
        assert cone.feasible

        label = classify(p, q).label
        assert cone.dimension == rows[label].kernel_dim

        # The tautological solution reproduces the curve; the witness
        # realizes some curve of the same combinatorial type.
        assert curves_equal(realize(b.graph, building_solution(b)), curve)
        if cone.witness:
            realized = realize(b.graph, cone.witness)
            validate_curve(realized)
            assert len(realized.vertices) == len(curve.vertices)
            assert len(realized.segments) == len(curve.segments)
            assert len(realized.rays) == len(curve.rays)
            subdivided = realize(b.graph, cone.witness, keep_trivial=True)
            assert len(subdivided.vertices) == len(b.graph.pieces)
            weights = torus_weights(b.graph, cone)
            for piece in b.graph.pieces:
                assert weights.rank(piece.id) <= cone.dimension

        # Stability of the un-refined building holds under the union rule.
        assert check_stability(b.graph).stable


def test_reflection_commutes_with_building():
    for p, q in random_rationals(7, 60):
        left = extract_levels(tropicalize_line(LineFamily.of(p, q)))
        right = extract_levels(tropicalize_line(LineFamily.of(q, p)))
        assert left.values == right.values
        mirrored = reflect(tropicalize_line(LineFamily.of(p, q)))
        g1 = build_building(mirrored).graph
        g2 = build_building(tropicalize_line(LineFamily.of(q, p))).graph
        assert {
            (str(x.levels[0]), str(x.levels[1]), x.trivial) for x in g1.pieces
        } == {(str(x.levels[0]), str(x.levels[1]), x.trivial) for x in g2.pieces}


def test_unrefined_buildings_always_stable_refined_mostly_not():
    # Refining by a level that no vertex coordinate uses can only lose
    # stability, never gain it.
    for p, q in random_rationals(13, 40):
        if p == 0 and q == 0:
            continue
        b = build_building(tropicalize_line(LineFamily.of(p, q)))
        assert check_stability(b.graph).stable
        extra = max(b.levels.values) + F(1, 7) if b.levels.m else F(1, 7)
        refined = build_building(
            tropicalize_line(LineFamily.of(p, q)), extra_levels=[extra]
        )
        assert not check_stability(refined.graph).stable
