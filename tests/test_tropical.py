import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropline.building import LevelStructure
from tropline.geometry import LatticeVector, QuadrantPoint
from tropline.render import RenderSpec, render_tropical
from tropline.tropical import (
    CurveInvalid,
    LineFamily,
    NegativeExponent,
    Ray,
    Segment,
    TropicalCurve,
    Vertex,
    curve_from_json,
    curve_to_json,
    tropicalize_line,
)

from oracles import corner_locus_oracle, curves_equal, min_squared_distance, reflect

V = LatticeVector


def fam(p, q) -> LineFamily:
    return LineFamily(p, q)


small_rational = st.fractions(min_value=0, max_value=4, max_denominator=4)


class TestTropicalizeCases:
    def test_example_line(self):
        curve = tropicalize_line(fam(4, 3))
        positions = sorted((v.position.x, v.position.y) for v in curve.vertices)
        assert positions == [(1, 0), (4, 3)]
        (seg,) = curve.segments
        assert seg.contact == V(1, 1) and seg.length == 3
        assert sorted(tuple(r.contact) for r in curve.rays) == [(0, 1), (1, 0)]

    def test_ordinary_line(self):
        curve = tropicalize_line(fam(0, 0))
        assert len(curve.vertices) == 1 and not curve.segments
        assert curve.vertices[0].position == QuadrantPoint(F(0), F(0))
        assert sorted(tuple(r.contact) for r in curve.rays) == [(0, 1), (1, 0)]

    def test_diagonal_case(self):
        curve = tropicalize_line(fam(2, 2))
        positions = sorted((v.position.x, v.position.y) for v in curve.vertices)
        assert positions == [(0, 0), (2, 2)]
        (seg,) = curve.segments
        assert seg.contact == V(1, 1) and seg.length == 2

    def test_axis_cases(self):
        for p, q, where in [(3, 0, (3, 0)), (0, 3, (0, 3))]:
            curve = tropicalize_line(fam(p, q))
            assert len(curve.vertices) == 1
            assert tuple(curve.vertices[0].position) == (F(where[0]), F(where[1]))
            assert len(curve.rays) == 2

    def test_mirror_case(self):
        curve = tropicalize_line(fam(3, 4))
        positions = sorted((v.position.x, v.position.y) for v in curve.vertices)
        assert positions == [(0, 1), (3, 4)]

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            LineFamily(-1, 0)

    @given(small_rational, small_rational)
    @settings(max_examples=60, deadline=None)
    def test_vertex_count_matches_case_table(self, p, q):
        curve = tropicalize_line(fam(p, q))
        if p > 0 and q > 0:
            assert len(curve.vertices) == 2 and len(curve.segments) == 1
        else:
            assert len(curve.vertices) == 1 and not curve.segments
        curve.validate()


class TestOracle:
    def test_example_points(self):
        hits = corner_locus_oracle(fam(4, 3), window=F(8), step=F(1, 4), tol=F(0))
        for point in [(1, 0), (4, 3), (4, 4), (6, 3)]:
            assert (F(point[0]), F(point[1])) in hits
        # Every grid point on the open diagonal stretch X - Y = 1, 1 <= X <= 4.
        for k in range(0, 13):
            x = F(1) + F(k, 4)
            assert (x, x - 1) in hits

    def test_ordinary_line_boundary(self):
        hits = corner_locus_oracle(fam(0, 0), window=F(2), step=F(1, 2), tol=F(0))
        expected = {(F(k, 2), F(0)) for k in range(5)} | {(F(0), F(k, 2)) for k in range(5)}
        assert hits == expected

    def test_huge_tolerance_floods_grid(self):
        hits = corner_locus_oracle(fam(1, 1), window=F(2), step=F(1), tol=F(100))
        assert len(hits) == 9

    @given(small_rational, small_rational)
    @settings(max_examples=25, deadline=None)
    def test_oracle_matches_tropicalization(self, p, q):
        step = F(1, 8)
        window = 2 * (p + q) + 2
        curve = tropicalize_line(fam(p, q))
        hits = corner_locus_oracle(fam(p, q), window=window, step=step, tol=step)
        assert oracle_agrees(curve, hits, window, step)


def oracle_agrees(curve, hits, window, step) -> bool:
    """Two-sided one-grid-step agreement between curve and oracle hits."""
    # Oracle -> curve: every near-tie grid point sits within 2 steps.
    for point in hits:
        if min_squared_distance(curve, point) > (2 * step) ** 2:
            return False
    # Curve -> oracle: walk the curve at half-step resolution; some grid
    # point within one step (sup-norm) must be a hit.
    hit_set = set(hits)

    def grid_near(x, y) -> bool:
        gx = F(round(x / step)) * step
        gy = F(round(y / step)) * step
        for dx in (-step, F(0), step):
            for dy in (-step, F(0), step):
                if (gx + dx, gy + dy) in hit_set:
                    return True
        return False

    pos = {v.id: v.position for v in curve.vertices}
    samples = [(v.position.x, v.position.y) for v in curve.vertices]
    for s in curve.segments:
        base = pos[s.tail]
        steps = int(s.length / (step / 2)) + 1
        for k in range(steps + 1):
            t = min(s.length, s.length * k / steps)
            samples.append((base.x + t * s.contact.x, base.y + t * s.contact.y))
    for r in curve.rays:
        base = pos[r.base]
        t = F(0)
        while True:
            x, y = base.x + t * r.contact.x, base.y + t * r.contact.y
            if x > window or y > window:
                break
            samples.append((x, y))
            t += step / 2
    return all(grid_near(x, y) for x, y in samples if x <= window and y <= window)


def fraction_min_squared_distance(curve, point):
    """Reference: the clamped projection onto every edge, in fractions."""
    px, py = F(point[0]), F(point[1])
    pos = {v.id: v.position for v in curve.vertices}
    edges = [(pos[s.tail], s.contact, s.length) for s in curve.segments]
    edges += [(pos[r.base], r.contact, None) for r in curve.rays]
    best = min((px - v.position.x) ** 2 + (py - v.position.y) ** 2 for v in curve.vertices)
    for a, c, tmax in edges:
        t = max(F(0), ((px - a.x) * c.x + (py - a.y) * c.y) / F(c.x * c.x + c.y * c.y))
        if tmax is not None:
            t = min(t, tmax)
        best = min(best, (px - a.x - t * c.x) ** 2 + (py - a.y - t * c.y) ** 2)
    return best


def test_min_squared_distance_against_fractions():
    rng = random.Random(17)
    for _ in range(200):
        p = F(rng.randint(0, 30), rng.randint(1, 7))
        q = F(rng.randint(0, 30), rng.randint(1, 7))
        curve = tropicalize_line(fam(p, q))
        for _ in range(5):
            point = (
                F(rng.randint(-20, 200), rng.randint(1, 13)),
                F(rng.randint(-20, 200), rng.randint(1, 13)),
            )
            expected = fraction_min_squared_distance(curve, point)
            assert min_squared_distance(curve, point) == expected, (p, q, point)


class TestReflect:
    def test_reflect_swaps_family(self):
        assert curves_equal(
            reflect(tropicalize_line(fam(4, 3))), tropicalize_line(fam(3, 4))
        )

    def test_involution(self):
        curve = tropicalize_line(fam(5, 2))
        assert curves_equal(reflect(reflect(curve)), curve)

    def test_diagonal_fixed(self):
        curve = tropicalize_line(fam(2, 2))
        assert curves_equal(reflect(curve), curve)

    @given(small_rational, small_rational)
    @settings(max_examples=40, deadline=None)
    def test_reflect_commutes_with_tropicalization(self, p, q):
        assert curves_equal(
            reflect(tropicalize_line(fam(p, q))), tropicalize_line(fam(q, p))
        )


def render(curve: TropicalCurve) -> str:
    return render_tropical(curve, LevelStructure(()), RenderSpec(window=F(6)))


class TestValidateCurve:
    """A curve checks its structure when it is built, and `validate`, which
    `render_tropical` and `curve_from_json` run, checks head - tail =
    length * contact on every segment."""

    def test_interior_vertices_balanced_for_all_lines(self):
        rng = random.Random(5)
        for _ in range(30):
            p, q = F(rng.randint(0, 12), 3), F(rng.randint(0, 12), 3)
            curve = tropicalize_line(fam(p, q))
            sums = {v.id: V(0, 0) for v in curve.vertices}
            for s in curve.segments:
                sums[s.tail] = sums[s.tail] + s.contact
                sums[s.head] = sums[s.head] + -s.contact
            for r in curve.rays:
                sums[r.base] = sums[r.base] + r.contact
            for v in curve.vertices:
                if v.position.x and v.position.y:
                    assert sums[v.id].is_zero(), (p, q, v.id)

    def test_broken_segment_identity(self):
        curve = TropicalCurve(
            vertices=(
                Vertex("a", QuadrantPoint(F(0), F(0))),
                Vertex("b", QuadrantPoint(F(1), F(2))),
            ),
            segments=(Segment("a", "b", V(1, 1), F(1)),),
            rays=(),
        )
        message = "segment identity broken on a->b: delta (1, 2) != 1 * (1, 1)"
        for check in (TropicalCurve.validate, render, lambda c: curve_from_json(curve_to_json(c))):
            with pytest.raises(CurveInvalid) as info:
                check(curve)
            assert str(info.value) == message

    def test_escaping_ray_rejected(self):
        with pytest.raises(CurveInvalid) as info:
            TropicalCurve(
                vertices=(Vertex("a", QuadrantPoint(F(1), F(1))),),
                segments=(),
                rays=(Ray("a", V(-1, 0)),),
            )
        assert str(info.value) == (
            "ray Ray(base='a', contact=LatticeVector(x=-1, y=0)) eventually leaves the quadrant"
        )


class TestSegmentIdentityBoundary:
    """`validate` cross-multiplies: with tail a, head b and length l, each
    coordinate checks (bn*ad - an*bd) * ld == ln * c * ad * bd.  The curve
    below has the distinct denominators ad = 3, bd = 21 and ld = 7 in x, so
    dropping any factor breaks the identity it satisfies."""

    @staticmethod
    def curve(dx=F(0), dy=F(0)) -> TropicalCurve:
        head = QuadrantPoint(F(10, 21) + dx, F(17, 35) + dy)
        return TropicalCurve(
            vertices=(Vertex("a", QuadrantPoint(F(1, 3), F(1, 5))), Vertex("b", head)),
            segments=(Segment("a", "b", V(1, 2), F(1, 7)),),
            rays=(),
        )

    def test_identity_with_three_denominators_holds(self):
        curve = self.curve()
        curve.validate()
        render(curve)
        assert curves_equal(curve_from_json(curve_to_json(curve)), curve)

    @pytest.mark.parametrize(
        "dx, dy, delta",
        [
            (F(1, 10**40), F(0), f"{F(1, 7) + F(1, 10**40)}, 2/7"),
            (F(0), -F(1, 10**40), f"1/7, {F(2, 7) - F(1, 10**40)}"),
        ],
    )
    def test_miss_by_one_part_in_10_to_the_40_is_refused(self, dx, dy, delta):
        message = f"segment identity broken on a->b: delta ({delta}) != 1/7 * (1, 2)"
        curve = self.curve(dx, dy)
        for check in (TropicalCurve.validate, render, lambda c: curve_from_json(curve_to_json(c))):
            with pytest.raises(CurveInvalid) as info:
                check(curve)
            assert str(info.value) == message


class TestCurveJson:
    def test_round_trip(self):
        curve = tropicalize_line(fam(F(7, 2), F(5, 3)))
        doc = curve_to_json(curve)
        assert curves_equal(curve_from_json(doc), curve)

    def test_exact_strings(self):
        doc = curve_to_json(tropicalize_line(fam(F(1, 3), F(0))))
        assert doc["vertices"][0]["x"] == "1/3"
        assert doc["vertices"][0]["y"] == "0/1"
