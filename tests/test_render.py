import hashlib
import math
import sys
from fractions import Fraction as F
from pathlib import Path
from xml.etree import ElementTree

import pytest

from tropline.building import LevelStructure, build_building, extract_levels
from tropline.moduli import exploded_fan, ionel_fan
from tropline.render import RenderSpec, render_fan, render_tropical
from tropline.geometry import Fan, LatticeVector, QuadrantPoint, complete_fan
from tropline.tropical import (
    LineFamily,
    Ray,
    Segment,
    TropicalCurve,
    Vertex,
    tropicalize_line,
)

GOLDENS = Path(__file__).parent / "goldens"


def curve_svg(p, q, window=6) -> str:
    curve = tropicalize_line(LineFamily(p, q))
    levels = extract_levels(curve)
    return render_tropical(curve, levels, RenderSpec(window=F(window)))


GRID_VALUES = ("0", "1/3", "1/2", "1", "3/2", "2", "5/2", "3", "4", "7")


def render_grid_lines() -> list[str]:
    """`p q window sha256` per SVG: each family of GRID_VALUES^2 drawn with
    its building's levels at window p + q + 2 and at window 3/2."""
    lines = []
    for p in map(F, GRID_VALUES):
        for q in map(F, GRID_VALUES):
            curve = tropicalize_line(LineFamily(p, q))
            levels = build_building(curve).levels
            for window, svg in (
                (p + q + 2, render_tropical(curve, levels, RenderSpec(window=p + q + 2))),
                (F(3, 2), render_tropical(curve, levels, RenderSpec(window=F(3, 2)))),
            ):
                digest = hashlib.sha256(svg.encode()).hexdigest()
                lines.append(f"{p} {q} {window} {digest}")
    return lines


class TestRenderTropical:
    def test_example_feature_counts(self):
        doc = curve_svg(4, 3)
        assert doc.count('class="level"') == 6  # three cut values per direction
        assert doc.count('class="curve"') == 4  # segment, two rays, boundary run

    def test_no_levels_no_dashes(self):
        curve = tropicalize_line(LineFamily(4, 3))
        doc = render_tropical(curve, LevelStructure(()), RenderSpec(window=F(6)))
        assert doc.count('class="level"') == 0

    def test_determinism(self):
        assert curve_svg(4, 3) == curve_svg(4, 3)

    def test_golden_bytes(self):
        assert curve_svg(4, 3) == (GOLDENS / "curve-4-3.svg").read_text()

    def test_valid_xml(self):
        root = ElementTree.fromstring(curve_svg(4, 3))
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_diagonal_case_has_no_boundary_run(self):
        # The (2,2) curve starts at the origin: nothing collapses along an axis.
        doc = curve_svg(2, 2)
        assert doc.count('class="curve"') == 3

    def test_grid_pinned(self):
        """`goldens/render-grid.txt` pins every SVG of `render_grid_lines`."""
        golden = (GOLDENS / "render-grid.txt").read_text().splitlines()
        assert render_grid_lines() == golden

    def test_window_past_float_range_is_refused(self):
        # The canvas draws the side, window * 60 px, and each coordinate up
        # to the window times 60 as floats; the largest float bounds both.
        top = int(sys.float_info.max)
        assert RenderSpec(window=F(top, 61)).window == F(top, 61)
        for window in (F(top, 60), F(top + 1, 60), F(10**400)):
            with pytest.raises(ValueError, match="window is too large to draw"):
                RenderSpec(window=window)

    def test_window_at_the_float_boundary(self):
        # Near sys.float_info.max / 60 the float side decides: the largest
        # float window whose float times 60 is finite is drawn, and the next
        # float is refused.  The exact bound, window * 60 <= max, lets
        # through every window whose side is within one ulp below max.
        largest = float.fromhex("0x1.1111111111110p+1018")
        assert math.isfinite(largest * 60)
        assert RenderSpec(window=F(largest)).window == F(largest)
        below_max = int(math.nextafter(sys.float_info.max, 0))
        assert RenderSpec(window=F(below_max, 60) + 1).window * 60 > below_max
        with pytest.raises(ValueError) as info:
            RenderSpec(window=F(math.nextafter(largest, math.inf)))
        assert str(info.value) == (
            "window is too large to draw: its side, window * 60 px, is past the float range"
        )

    def test_axis_case_boundary_run(self):
        # The (3,0) vertex sits on the x-axis: one run back to the origin.
        doc = curve_svg(3, 0)
        assert doc.count('class="curve"') == 3  # two rays plus the run
        assert 'x1="220.00" y1="400.00" x2="40.00" y2="400.00"' in doc
        # Its mirror (0,3) sits on the y-axis and runs down to the origin.
        doc = curve_svg(0, 3)
        assert doc.count('class="curve"') == 3
        assert 'x1="40.00" y1="220.00" x2="40.00" y2="400.00"' in doc


class TestBoundaryRuns:
    """A vertex with a zero coordinate and a nonzero outgoing contact sum
    draws its run along the boundary toward the origin; on the 6 x 6 window
    a unit is 60 px and the x-axis is at y = 400 px."""

    @staticmethod
    def draw(vertices, segments, rays) -> str:
        curve = TropicalCurve(
            tuple(Vertex(vid, QuadrantPoint(F(x), F(y))) for vid, x, y in vertices),
            tuple(Segment(t, h, LatticeVector(*c), F(length)) for t, h, c, length in segments),
            tuple(Ray(base, LatticeVector(*c)) for base, c in rays),
        )
        return render_tropical(curve, LevelStructure(()), RenderSpec(window=F(6)))

    def test_unbalanced_interior_vertex_draws_no_run(self):
        # Two (1, 0) rays sum to (2, 0), but (1, 1) is off both axes.
        doc = self.draw([("a", 1, 1)], [], [("a", (1, 0)), ("a", (1, 0))])
        assert doc.count('class="curve"') == 2

    def test_segment_head_on_axis_draws_its_run(self):
        # The head (2, 0) takes in a (-1, -1) segment: its sum (1, 1) runs
        # back along the x-axis to the origin.
        doc = self.draw([("b", 3, 1), ("a", 2, 0)], [("b", "a", (-1, -1), 1)], [])
        assert doc.count('class="curve"') == 2
        assert 'x1="160.00" y1="400.00" x2="40.00" y2="400.00"' in doc

    def test_origin_draws_no_run(self):
        # Every step from the origin against (1, 2) leaves the quadrant.
        doc = self.draw([("o", 0, 0), ("a", 1, 2)], [("o", "a", (1, 2), 1)], [])
        assert doc.count('class="curve"') == 1


class TestRenderFan:
    def test_exploded_arrow_count(self):
        doc = render_fan(exploded_fan(), RenderSpec(window=F(3)))
        assert doc.count('class="ray"') == 3

    def test_ionel_arrow_count(self):
        doc = render_fan(ionel_fan(), RenderSpec(window=F(3)))
        assert doc.count('class="ray"') == 7
        assert doc.count('class="cone"') == 6

    def test_empty_fan_axes_only(self):
        doc = render_fan(Fan(()), RenderSpec(window=F(3)))
        assert doc.count('class="axis"') == 2
        assert doc.count('class="ray"') == 0

    def test_golden_bytes(self):
        assert (
            render_fan(ionel_fan(), RenderSpec(window=F(3)))
            == (GOLDENS / "fan-ionel.svg").read_text()
        )
        assert (
            render_fan(exploded_fan(), RenderSpec(window=F(3)))
            == (GOLDENS / "fan-exploded.svg").read_text()
        )

    def test_valid_xml(self):
        ElementTree.fromstring(render_fan(complete_fan(ionel_fan()), RenderSpec(window=F(3))))
