"""Deterministic SVG pictures: tropical curves with level lines, and fans.

Blue strokes for the curve, gray dashed lines for the level subdivision,
black arrows for fan rays.  Rays are truncated at the window boundary.
Every emitted byte is a fixed function of the input, so outputs are golden
testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .building import LevelStructure
from .geometry import Fan, LatticeVector
from .tropical import BalanceReport, TropicalCurve, validate_curve

__all__ = ["RenderSpec", "render_tropical", "render_fan"]

_MARGIN = 40.0
_SCALE = 60  # pixels per unit; an integer, so window * scale stays exact
_CURVE_COLOR = "#1f4fd8"
_LEVEL_COLOR = "#888888"
_AXIS_COLOR = "#222222"
_CONE_FILLS = ("#f2e8d5", "#dbe9f2")


@dataclass(frozen=True)
class RenderSpec:
    window: Fraction = Fraction(6)

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", Fraction(self.window))
        if self.window <= 0:
            raise ValueError("window must be positive")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, spec: RenderSpec):
        self.spec = spec
        side = float(spec.window * _SCALE)
        self.size = side + 2 * _MARGIN
        self.lines: list[str] = []
        self.lines.append(
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.size)}" height="{_fmt(self.size)}" '
            f'viewBox="0 0 {_fmt(self.size)} {_fmt(self.size)}">'
        )

    def map(self, x, y) -> tuple[float, float]:
        return (_MARGIN + float(x) * _SCALE, self.size - _MARGIN - float(y) * _SCALE)

    def line(self, a, b, cls: str, style: str) -> None:
        (x1, y1), (x2, y2) = self.map(*a), self.map(*b)
        self.lines.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'
        )

    def polygon(self, pts, fill: str) -> None:
        mapped = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self.map(*p) for p in pts))
        self.lines.append(f'<polygon class="cone" points="{mapped}" fill="{fill}"/>')

    def axes(self) -> None:
        w = self.spec.window
        style = f'stroke="{_AXIS_COLOR}" stroke-width="1.5"'
        self.line((0, 0), (w, 0), "axis", style)
        self.line((0, 0), (0, w), "axis", style)

    def finish(self) -> str:
        self.lines.append("</svg>")
        return "\n".join(self.lines) + "\n"


def _clip_ray(x0: float, y0: float, dx: float, dy: float, window: float):
    """Largest t > 0 with the ray of direction (dx, dy) >= 0 still inside
    [0, window]^2, or None."""
    limits = [(window - c) / d for c, d in ((x0, dx), (y0, dy)) if d > 0]
    t = min(limits, default=0.0)
    return t if t > 0 else None


def _boundary_shadows(curve: TropicalCurve, report: BalanceReport):
    """Clipped continuations of unbalanced boundary vertices.

    A boundary vertex with outgoing contact sum d has lost an edge of
    direction -d through the quadrant boundary; its image runs along the
    boundary toward the origin.  These strokes are part of the pictures of
    limit curves.
    """
    pos = {v.id: (float(v.position.x), float(v.position.y)) for v in curve.vertices}
    shadows = []
    for entry in report.entries:
        if entry.balanced or entry.stratum == "interior":
            continue
        x, y = pos[entry.vertex]
        dx, dy = float(-entry.contact_sum.x), float(-entry.contact_sum.y)
        # The clamped path max(0, position + t*d) pins a zero coordinate at
        # 0, and a boundary vertex has one, so the path is one straight step
        # until the other coordinate reaches 0.
        if x == 0 and dx < 0:
            dx = 0.0
        if y == 0 and dy < 0:
            dy = 0.0
        if dx < 0:
            t = -x / dx
        elif dy < 0:
            t = -y / dy
        else:
            continue
        shadows.append(((x, y), (x + t * dx, y + t * dy)))
    return shadows


def render_tropical(
    curve: TropicalCurve,
    levels: LevelStructure | None = None,
    spec: RenderSpec | None = None,
) -> str:
    """SVG picture of a curve, with dashed level lines when `levels` given."""
    report = validate_curve(curve)
    spec = spec or RenderSpec()
    canvas = _Canvas(spec)
    window = float(spec.window)
    if levels is not None:
        style = f'stroke="{_LEVEL_COLOR}" stroke-width="1" stroke-dasharray="6 4"'
        for value in levels.values:
            v = float(value)
            if v <= window:
                canvas.line((value, 0), (value, spec.window), "level", style)
        for value in levels.values:
            v = float(value)
            if v <= window:
                canvas.line((0, value), (spec.window, value), "level", style)
    canvas.axes()
    style = f'stroke="{_CURVE_COLOR}" stroke-width="2.5" stroke-linecap="round"'
    pos = {v.id: (float(v.position.x), float(v.position.y)) for v in curve.vertices}
    for s in curve.segments:
        canvas.line(pos[s.tail], pos[s.head], "curve", style)
    for r in curve.rays:
        x0, y0 = pos[r.base]
        t = _clip_ray(x0, y0, float(r.contact.x), float(r.contact.y), window)
        if t is not None:
            canvas.line(
                (x0, y0),
                (x0 + t * r.contact.x, y0 + t * r.contact.y),
                "curve",
                style,
            )
    for a, b in _boundary_shadows(curve, report):
        if a != b:
            canvas.line(a, b, "curve", style)
    return canvas.finish()


def render_fan(fan: Fan, spec: RenderSpec | None = None) -> str:
    """SVG picture of a fan: shaded cones and arrowed rays from the origin."""
    spec = spec or RenderSpec()
    canvas = _Canvas(spec)
    window = float(spec.window)

    def boundary_point(v: LatticeVector):
        # Rays of a fan may leave the positive window; clip on the full box.
        t = window / max(abs(v.x), abs(v.y))
        return (t * v.x, t * v.y)

    for i, cone in enumerate(fan.cones2d):
        u, v = cone.generators
        pu, pv = boundary_point(u), boundary_point(v)
        mid = u + v
        pm = boundary_point(mid)
        canvas.polygon([(0, 0), pu, pm, pv], _CONE_FILLS[i % 2])
    canvas.axes()
    style = f'stroke="{_AXIS_COLOR}" stroke-width="2"'
    for r in fan.rays:
        tip = boundary_point(r)
        canvas.line((0, 0), tip, "ray", style)
        # Small arrowhead, drawn as two barbs.
        tx, ty = canvas.map(*tip)
        ox, oy = canvas.map(0, 0)
        dx, dy = tx - ox, ty - oy
        norm = (dx * dx + dy * dy) ** 0.5 or 1.0
        ux, uy = dx / norm, dy / norm
        px, py = -uy, ux
        for sgn in (1.0, -1.0):
            bx = tx - 10 * ux + sgn * 5 * px
            by = ty - 10 * uy + sgn * 5 * py
            canvas.lines.append(
                f'<line class="arrow" x1="{_fmt(tx)}" y1="{_fmt(ty)}" '
                f'x2="{_fmt(bx)}" y2="{_fmt(by)}" {style}/>'
            )
    return canvas.finish()
