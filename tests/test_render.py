from fractions import Fraction as F
from pathlib import Path
from xml.etree import ElementTree

from tropline.building import extract_levels
from tropline.moduli import exploded_fan, ionel_fan
from tropline.render import RenderSpec, render_fan, render_tropical
from tropline.geometry import Fan
from tropline.tropical import LineFamily, tropicalize_line

GOLDENS = Path(__file__).parent / "goldens"


def curve_svg(p, q, window=6) -> str:
    curve = tropicalize_line(LineFamily.of(p, q))
    levels = extract_levels(curve)
    return render_tropical(curve, levels, RenderSpec(window=F(window)))


class TestRenderTropical:
    def test_example_feature_counts(self):
        doc = curve_svg(4, 3)
        assert doc.count('class="level"') == 6  # three cut values per direction
        assert doc.count('class="curve"') == 4  # segment, two rays, boundary run

    def test_no_levels_no_dashes(self):
        curve = tropicalize_line(LineFamily.of(4, 3))
        doc = render_tropical(curve, None, RenderSpec(window=F(6)))
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

    def test_axis_case_boundary_run(self):
        # The (3,0) vertex sits on the x-axis: one run back to the origin.
        doc = curve_svg(3, 0)
        assert doc.count('class="curve"') == 3  # two rays plus the run
        assert 'x1="220.00" y1="400.00" x2="40.00" y2="400.00"' in doc
        # Its mirror (0,3) sits on the y-axis and runs down to the origin.
        doc = curve_svg(0, 3)
        assert doc.count('class="curve"') == 3
        assert 'x1="40.00" y1="220.00" x2="40.00" y2="400.00"' in doc


class TestRenderFan:
    def test_exploded_arrow_count(self):
        doc = render_fan(exploded_fan(), RenderSpec(window=F(3)))
        assert doc.count('class="ray"') == 3

    def test_ionel_arrow_count(self):
        doc = render_fan(ionel_fan(), RenderSpec(window=F(3)))
        assert doc.count('class="ray"') == 7
        assert doc.count('class="cone"') == 6

    def test_empty_fan_axes_only(self):
        doc = render_fan(Fan(rays=(), cones=()), RenderSpec(window=F(3)))
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
        ElementTree.fromstring(render_fan(ionel_fan(complete=True), RenderSpec(window=F(3))))
