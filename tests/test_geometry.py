import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropline.geometry import (
    Cone,
    Fan,
    LatticeVector,
    PointOutsideSupport,
    RayNotInterior,
    ZERO_CONE,
    complete_fan,
    fan_to_text,
    locate,
    parse_rational,
    rational_str,
    stellar_subdivide,
)

from oracles import validate_fan

V = LatticeVector


def direction(px, py) -> tuple[int, int]:
    """The rational point (px, py) scaled to integers by a positive factor."""
    scale = math.lcm(F(px).denominator, F(py).denominator)
    return int(px * scale), int(py * scale)


def quadrant_fan() -> Fan:
    return Fan((V(1, 0), V(1, 1), V(0, 1)))


class TestLocate:
    def test_open_cone(self):
        fan = quadrant_fan()
        cone = locate(fan, (F(4), F(3)))
        assert cone.generators == (V(1, 0), V(1, 1))

    def test_on_ray(self):
        fan = quadrant_fan()
        assert locate(fan, (F(2), F(2))).generators == (V(1, 1),)

    def test_origin(self):
        assert locate(quadrant_fan(), (F(0), F(0))) is ZERO_CONE

    def test_outside(self):
        with pytest.raises(PointOutsideSupport):
            locate(quadrant_fan(), (F(-1), F(2)))

    def test_ray_beats_adjacent_cones(self):
        # Relative-interior ray points must report the ray, never a 2D cone.
        fan = quadrant_fan()
        for k in range(1, 8):
            assert locate(fan, (F(k, 3), F(k, 3))).dim == 1

    def test_rational_coordinates(self):
        cone = locate(quadrant_fan(), (F(7, 2), F(1, 3)))
        assert cone.generators == (V(1, 0), V(1, 1))


class TestConeSide:
    """`Cone.side` on integer directions: 1 in the relative interior, 0 on the
    relative boundary, -1 outside."""

    @pytest.mark.parametrize(
        "generators, direction, side",
        [
            ((), (0, 0), 1),
            ((), (1, 0), -1),
            (((1, 1),), (2, 2), 1),
            (((1, 1),), (0, 0), 0),
            (((1, 1),), (-1, -1), -1),
            (((1, 1),), (1, 0), -1),
            (((1, 0), (1, 1)), (2, 1), 1),
            (((1, 0), (1, 1)), (3, 0), 0),
            (((1, 0), (1, 1)), (3, 3), 0),
            (((1, 0), (1, 1)), (0, 0), 0),
            (((1, 0), (1, 1)), (1, 2), -1),
            (((1, 0), (1, 1)), (1, -1), -1),
        ],
    )
    def test_side(self, generators, direction, side):
        assert Cone(tuple(V(*g) for g in generators)).side(*direction) == side

    def test_rational_points(self):
        cone = Cone((V(1, 0), V(1, 1)))
        for p in [(F(3, 2), F(0)), (F(2, 3), F(2, 3)), (F(0), F(0))]:
            assert cone.side(*direction(*p)) == 0
        assert cone.side(*direction(F(5, 2), F(1, 3))) > 0
        assert not cone.side(*direction(F(1, 3), F(1, 2))) >= 0


class TestStellarSubdivide:
    def test_insert_mid_ray(self):
        fan = quadrant_fan()
        out = stellar_subdivide(fan, V(2, 1))
        assert out.rays == (V(1, 0), V(2, 1), V(1, 1), V(0, 1))
        gens = {c.generators for c in out.cones2d}
        assert gens == {
            (V(1, 0), V(2, 1)),
            (V(2, 1), V(1, 1)),
            (V(1, 1), V(0, 1)),
        }

    def test_second_round_cone(self):
        fan = stellar_subdivide(quadrant_fan(), V(2, 1))
        out = stellar_subdivide(fan, V(3, 2))
        gens = {c.generators for c in out.cones2d}
        assert (V(2, 1), V(3, 2)) in gens and (V(3, 2), V(1, 1)) in gens

    def test_generator_sum_preserves_smoothness(self):
        fan = quadrant_fan()
        assert validate_fan(fan).smooth
        for cone in fan.cones2d:
            u, v = cone.generators
            fan = stellar_subdivide(fan, u + v)
        assert validate_fan(fan).smooth

    def test_ray_not_interior(self):
        with pytest.raises(RayNotInterior):
            stellar_subdivide(quadrant_fan(), V(-1, 1))

    def test_boundary_ray_not_interior(self):
        with pytest.raises(RayNotInterior):
            stellar_subdivide(quadrant_fan(), V(1, 1))

    def test_support_preserved(self):
        fan = quadrant_fan()
        sub = stellar_subdivide(fan, V(3, 1))
        rng = random.Random(7)
        for _ in range(200):
            p = (F(rng.randint(0, 40), rng.randint(1, 7)), F(rng.randint(0, 40), rng.randint(1, 7)))
            before = locate(fan, p)
            after = locate(sub, p)  # must not raise: same support
            assert before.side(*direction(*p)) >= 0 and after.side(*direction(*p)) >= 0


primitive_rays = (
    st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    .filter(lambda v: math.gcd(*v) == 1)
    .map(lambda v: V(*v))
)

GRID = [(x, y) for x in range(-7, 8) for y in range(-7, 8)]


def covers(fan: Fan, p) -> bool:
    try:
        locate(fan, p)
    except PointOutsideSupport:
        return False
    return True


class TestFanOfRays:
    @given(st.lists(primitive_rays, unique=True, max_size=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_rays(self, rays, data):
        """On any distinct primitive rays, each 2D cone spans a cyclically
        adjacent pair turning by less than a half turn, no integer direction
        lies inside two cones, and subdividing a cone at an interior ray
        keeps the support."""
        fan = Fan(tuple(rays))
        n = len(fan.rays)
        adjacent = {(fan.rays[i], fan.rays[(i + 1) % n]) for i in range(n)}
        for cone in fan.cones2d:
            u, v = cone.generators
            assert (u, v) in adjacent and u.cross(v) > 0
        for x, y in GRID:
            assert sum(cone.side(x, y) > 0 for cone in fan.cones) <= 1
        if fan.cones2d:
            u, v = data.draw(st.sampled_from(fan.cones2d)).generators
            w = u + v
            g = math.gcd(*w)
            sub = stellar_subdivide(fan, V(w.x // g, w.y // g))
            assert [covers(sub, p) for p in GRID] == [covers(fan, p) for p in GRID]


class TestValidateFan:
    def test_quadrant_fan_smooth_not_complete(self):
        report = validate_fan(quadrant_fan())
        assert report.smooth and not report.complete

    def test_completed_fan(self):
        report = validate_fan(complete_fan(quadrant_fan()))
        assert report.smooth and report.complete

    def test_non_smooth_cone(self):
        fan = Fan((V(1, 0), V(1, 2)))
        assert not validate_fan(fan).smooth


class TestSerialization:
    def test_fan_text_shape(self):
        text = fan_to_text(quadrant_fan())
        lines = text.strip().splitlines()
        assert lines[0] == "ray 1 0"
        assert lines[-1] == "cone 1 1 0 1"

    def test_rational_round_trip(self):
        assert parse_rational(rational_str(F(-7, 3))) == F(-7, 3)
        assert parse_rational("4") == 4

    def test_rational_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("3.5")

    @pytest.mark.parametrize("text", ["1/0", "-3/00", " 0/0 "])
    def test_rational_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator in rational literal"):
            parse_rational(text)
