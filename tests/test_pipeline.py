"""Cross-module consistency sweep over random exact families."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropline.building import GraphInvalid, build_building, extract_levels
from tropline.matching import (
    build_system,
    building_solution,
    check_stability,
    realize,
    solve,
    torus_weights,
)
from tropline.geometry import LatticeVector, QuadrantPoint
from tropline.moduli import classify, type_table
from tropline.tropical import (
    LineFamily,
    Ray,
    Segment,
    TropicalCurve,
    Vertex,
    tropicalize_line,
)

from oracles import curves_equal, piece_positions, piece_rank, reflect


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
        family = LineFamily(p, q)
        curve = tropicalize_line(family)
        curve.validate()

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
            realized.validate()
            assert len(realized.vertices) == len(curve.vertices)
            assert len(realized.segments) == len(curve.segments)
            assert len(realized.rays) == len(curve.rays)
            # Every piece is placed, and the realized vertices sit where
            # their nontrivial pieces do.
            positions = piece_positions(b.graph, cone.witness)
            assert positions.keys() == {piece.id for piece in b.graph.pieces}
            nontrivial = [piece.id for piece in b.graph.pieces if not piece.trivial]
            assert [tuple(v.position) for v in realized.vertices] == [
                positions[pid] for pid in nontrivial
            ]
            weights = torus_weights(b.graph, cone)
            for piece in b.graph.pieces:
                assert piece_rank(weights, piece.id) <= cone.dimension

        # Stability of the un-refined building holds under the union rule.
        assert check_stability(b.graph).stable


def test_reflection_commutes_with_building():
    for p, q in random_rationals(7, 60):
        left = extract_levels(tropicalize_line(LineFamily(p, q)))
        right = extract_levels(tropicalize_line(LineFamily(q, p)))
        assert left.values == right.values
        mirrored = reflect(tropicalize_line(LineFamily(p, q)))
        g1 = build_building(mirrored).graph
        g2 = build_building(tropicalize_line(LineFamily(q, p))).graph
        assert {
            (str(x.levels[0]), str(x.levels[1]), x.trivial) for x in g1.pieces
        } == {(str(x.levels[0]), str(x.levels[1]), x.trivial) for x in g2.pieces}


def test_unrefined_buildings_always_stable_refined_mostly_not():
    # Refining by a level that no vertex coordinate uses can only lose
    # stability, never gain it.
    for p, q in random_rationals(13, 40):
        if p == 0 and q == 0:
            continue
        b = build_building(tropicalize_line(LineFamily(p, q)))
        assert check_stability(b.graph).stable
        extra = max(b.levels.values) + F(1, 7) if b.levels.m else F(1, 7)
        refined = build_building(
            tropicalize_line(LineFamily(p, q)), extra_levels=[extra]
        )
        assert not check_stability(refined.graph).stable


def test_public_fields_keep_their_types():
    # The pipeline runs on integers inside; its public fields stay exact
    # rationals, and torus weights stay integers.
    b = build_building(tropicalize_line(LineFamily(F(7, 2), F(3, 2))), [F(1, 3)])
    cone = solve(build_system(b.graph))
    realized = realize(b.graph, cone.witness)
    weights = torus_weights(b.graph, cone)
    assert {type(c) for xy in b.positions.values() for c in xy} == {F}
    assert {type(w) for w in cone.witness} == {F}
    assert {type(c) for v in realized.vertices for c in v.position} == {F}
    assert {type(s.length) for s in realized.segments} == {F}
    assert {type(e) for rows in weights.entries.values() for r in rows for e in r} == {int}


rationals = st.builds(F, st.integers(0, 24), st.integers(1, 7))


@st.composite
def two_vertex_curves(draw):
    """A segment of contact (a, b) between two quadrant points, axis rays of
    multiplicity up to 3 at either end, and up to three extra levels."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(-3, 3))
    assume((a, b) != (0, 0))
    x0, low = draw(rationals), draw(rationals)
    t = draw(rationals.filter(lambda t: t > 0))
    y0 = low - t * b if b < 0 else low
    rays = [
        Ray(base, LatticeVector(*contact))
        for base in ("v0", "v1")
        for contact in draw(st.sets(st.sampled_from([(1, 0), (0, 1), (2, 0), (0, 3)])))
    ]
    curve = TropicalCurve(
        (
            Vertex("v0", QuadrantPoint(x0, y0)),
            Vertex("v1", QuadrantPoint(x0 + t * a, y0 + t * b)),
        ),
        (Segment("v0", "v1", LatticeVector(a, b), t),),
        tuple(rays),
    )
    extra = draw(st.lists(rationals.filter(lambda v: v > 0), max_size=3))
    return curve, extra


@settings(max_examples=150, deadline=None)
@given(two_vertex_curves())
def test_integer_unit_places_pieces_exactly(drawn):
    curve, extra = drawn
    a, b = curve.segments[0].contact
    if a * b < 0:
        # Every fragment of the segment descends in the second direction.
        with pytest.raises(GraphInvalid, match="runs downward in direction 2"):
            build_building(curve, extra)
        return
    building = build_building(curve, extra)
    for piece in building.graph.pieces:
        # A trivial piece is a level crossing, so it is at a level.
        assert not piece.trivial or any(lc.is_integer for lc in piece.levels)
        for direction, lc in enumerate(piece.levels):
            if lc.is_integer:
                assert building.positions[piece.id][direction] == building.levels.phi(lc.level)
    assert curves_equal(realize(building.graph, building_solution(building)), curve)
