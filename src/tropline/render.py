"""Deterministic SVG pictures: tropical curves with level lines, and fans.

Blue strokes for the curve, gray dashed lines for the level subdivision,
black arrows for fan rays.  Rays are truncated at the window boundary.
Every emitted byte is a fixed function of the input, so outputs are golden
testable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .building import LevelStructure
from .geometry import Fan, LatticeVector, _fraction
from .tropical import TropicalCurve

__all__ = ["RenderSpec", "render_tropical", "render_fan"]

_MARGIN = 40.0
_SCALE = 60  # pixels per unit; an integer, so window * scale stays exact
_CURVE_COLOR = "#1f4fd8"
_LEVEL_COLOR = "#888888"
_AXIS_COLOR = "#222222"
_CONE_FILLS = ("#f2e8d5", "#dbe9f2")


# The largest float is an integer, so a side is compared with it exactly.
_FLOAT_MAX = int(sys.float_info.max)


@dataclass(frozen=True)
class RenderSpec:
    """The window [0, window]^2 to draw.  The canvas draws in float pixels:
    the side, window * _SCALE, and each coordinate up to the window, as a
    float times _SCALE.  So the side may not pass the largest float, which
    is checked in integers, as n * _SCALE > max * d for the window n/d,
    before the window is converted; nor may the float window times _SCALE."""

    window: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", _fraction(self.window))
        n, d = self.window.as_integer_ratio()
        if n <= 0:
            raise ValueError("window must be positive")
        if n * _SCALE > _FLOAT_MAX * d or math.isinf(n / d * _SCALE):
            raise ValueError(
                f"window is too large to draw: its side, window * {_SCALE} px, "
                "is past the float range"
            )


def _fmt(x: float) -> str:
    return f"{x:.2f}"


_LINE = '<line class="%s" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" %s/>'


class _Canvas:
    """SVG lines on the window [0, window]^2; world coordinates are floats."""

    def __init__(self, spec: RenderSpec):
        # Integer true division rounds correctly, so these are
        # float(window) and float(window * _SCALE).
        n, d = spec.window.as_integer_ratio()
        self.window = n / d
        side = n * _SCALE / d
        self.size = side + 2 * _MARGIN
        self.top = self.size - _MARGIN
        self.lines: list[str] = []
        self.lines.append(
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.size)}" height="{_fmt(self.size)}" '
            f'viewBox="0 0 {_fmt(self.size)} {_fmt(self.size)}">'
        )

    def map(self, x: float, y: float) -> tuple[float, float]:
        return (_MARGIN + x * _SCALE, self.top - y * _SCALE)

    def line(self, a, b, cls: str, style: str) -> None:
        (x1, y1), (x2, y2) = a, b
        self.lines.append(_LINE % (
            cls, _MARGIN + x1 * _SCALE, self.top - y1 * _SCALE,
            _MARGIN + x2 * _SCALE, self.top - y2 * _SCALE, style,
        ))

    def polygon(self, pts, fill: str) -> None:
        mapped = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self.map(*p) for p in pts))
        self.lines.append(f'<polygon class="cone" points="{mapped}" fill="{fill}"/>')

    def axes(self) -> None:
        w = self.window
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


def _boundary_shadows(curve: TropicalCurve, pos: dict[str, tuple[float, float]]):
    """Clipped continuations of unbalanced boundary vertices, at the float
    positions `pos`, in vertex order.

    A vertex with a zero coordinate whose outgoing contact sum d is nonzero
    has lost an edge of direction -d through the quadrant boundary; its
    image runs along the boundary toward the origin.  These strokes are
    part of the pictures of limit curves.  Only those vertices are summed.
    """
    sums = {v.id: [0, 0] for v in curve.vertices if not (v.position.x and v.position.y)}
    for s in curve.segments:
        if s.tail in sums:
            sums[s.tail][0] += s.contact.x
            sums[s.tail][1] += s.contact.y
        if s.head in sums:
            sums[s.head][0] -= s.contact.x
            sums[s.head][1] -= s.contact.y
    for r in curve.rays:
        if r.base in sums:
            sums[r.base][0] += r.contact.x
            sums[r.base][1] += r.contact.y
    shadows = []
    for vid, (sx, sy) in sums.items():
        x, y = pos[vid]
        dx, dy = float(-sx), float(-sy)
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


def render_tropical(curve: TropicalCurve, levels: LevelStructure, spec: RenderSpec) -> str:
    """SVG picture of a curve, with a dashed line at each level.

    Each level, vertex and window value is converted to float once.
    """
    curve.validate()
    canvas = _Canvas(spec)
    window = canvas.window
    style = f'stroke="{_LEVEL_COLOR}" stroke-width="1" stroke-dasharray="6 4"'
    values = [v for v in map(float, levels.values) if v <= window]
    for v in values:
        canvas.line((v, 0), (v, window), "level", style)
    for v in values:
        canvas.line((0, v), (window, v), "level", style)
    canvas.axes()
    style = f'stroke="{_CURVE_COLOR}" stroke-width="2.5" stroke-linecap="round"'
    pos = {v.id: (float(v.position.x), float(v.position.y)) for v in curve.vertices}
    for s in curve.segments:
        canvas.line(pos[s.tail], pos[s.head], "curve", style)
    for r in curve.rays:
        x0, y0 = pos[r.base]
        cx, cy = r.contact
        t = _clip_ray(x0, y0, float(cx), float(cy), window)
        if t is not None:
            canvas.line((x0, y0), (x0 + t * cx, y0 + t * cy), "curve", style)
    for a, b in _boundary_shadows(curve, pos):
        if a != b:
            canvas.line(a, b, "curve", style)
    return canvas.finish()


def render_fan(fan: Fan, spec: RenderSpec) -> str:
    """SVG picture of a fan: shaded cones and arrowed rays from the origin."""
    canvas = _Canvas(spec)
    window = canvas.window

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
            canvas.lines.append(_LINE % ("arrow", tx, ty, bx, by, style))
    return canvas.finish()
