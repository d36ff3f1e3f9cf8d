"""Floating-point check that rescaled log images of lines approach their
tropical limits.

A point [z1 : z2 : z3] with nonzero coordinates maps to

    ( max(0, -log|z1/z3| / log n),  max(0, -log|z2/z3| / log n) ),

so coordinates in a compact region collapse to 0 and depth toward a
coordinate divisor becomes distance along an axis.  Sampling the line
family over the Riemann sphere and measuring the Hausdorff distance of the
clipped cloud to the tropical curve exhibits the C / log n decay that
stands in for the Gromov-Hausdorff statement.

The sampler works in log space, so no exponent of n is ever formed for the
image points: the cloud neither underflows nor overflows, whatever (p, q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tropical
from .tropical import LineFamily, TropicalCurve

__all__ = [
    "ZeroCoordinate",
    "EmptySample",
    "AmoebaSample",
    "ConvergenceReport",
    "MAX_BASE",
    "log_image",
    "sample_amoeba",
    "hausdorff",
    "discretize_curve",
    "convergence_report",
]

# Largest rescaling base accepted; the convergence ladders end at 1e8.
MAX_BASE = 1.0e8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Largest window accepted: squared distances inside it stay far below the
# float range.
_MAX_WINDOW = 1.0e150


class ZeroCoordinate(ValueError):
    """log_image needs all three homogeneous coordinates nonzero."""


class EmptySample(ValueError):
    """No sample points survive inside the requested window."""


@dataclass(frozen=True)
class AmoebaSample:
    """Clipped log-image point cloud of one member of the family."""

    n: float
    points: np.ndarray  # shape (k, 2), clipped to the quadrant
    domain: np.ndarray  # shape (k,), the sampled affine chart points w


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[tuple[float, float], ...]  # (n, hausdorff distance)
    decay_constant: float
    r_squared: float
    monotone: bool
    # The cloud of the last base, for callers that also want its points.
    last_sample: AmoebaSample = field(repr=False, compare=False)


def log_image(point, n: float) -> tuple[float, float]:
    """Rescaled log-modulus image of a projective point, clipped to the quadrant."""
    z1, z2, z3 = (complex(z) for z in point)
    if z1 == 0 or z2 == 0 or z3 == 0:
        raise ZeroCoordinate("log image needs nonzero homogeneous coordinates")
    if not n > 1:
        raise ValueError("rescaling base must exceed 1")
    log_n = math.log(n)
    x = -math.log(abs(z1 / z3)) / log_n
    y = -math.log(abs(z2 / z3)) / log_n
    return (max(0.0, x), max(0.0, y))


@functools.lru_cache(maxsize=1)
def _sphere(count: int, max_depth: float, cap: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """The part of a `count`-point sample that does not depend on the base:
    for each end (0, -1, infinity, the last capped at depth `cap`), the
    depths t, their negatives -t, the squared half-angle factor (sin(a/2)^2
    near -1, cos(a/2)^2 elsewhere) and cos a, sin a of the golden angles.
    The arrays are read-only, since every caller with the same key shares
    them."""
    ends = []
    for end, reach in enumerate((max_depth, max_depth, cap)):
        k = np.arange(end, count, 3)
        t = reach * (np.arange(len(k)) + 0.5) / len(k)
        angle = 2.0 * math.pi * ((k * _GOLDEN) % 1.0)
        half = np.sin(0.5 * angle) if end == 1 else np.cos(0.5 * angle)
        arrays = (t, -t, half**2, np.cos(angle), np.sin(angle))
        for a in arrays:
            a.flags.writeable = False
        ends.append(arrays)
    return tuple(ends)


def sample_amoeba(
    family: LineFamily, n: float, count: int, depth: float | None = None
) -> AmoebaSample:
    """Deterministic point cloud of the log image of one line of the family.

    Domain points cover the thrice-marked sphere through its three ends
    (the zeros of the coordinates w1, w1 + w2, w2), at depths spread
    log-uniformly in base n with golden-angle rotation: w = n^(-t) e^(i a)
    near 0, w = -1 + n^(-t) e^(i a) near -1, and w = n^(t) e^(i a) near
    infinity.  The infinity end is capped at depth min(p, q), where its
    image meets the quadrant boundary; the others reach `depth` (default
    p + q + 2).  The scheme is a fixed function of its arguments, so equal
    inputs give bit-identical clouds.

    The image of f_n(w) = [c1 n^(-p) w : c2 n^(-q) (w + 1) : 1] is

        X = p - log|c1| / log n - log|w| / log n
        Y = q - log|c2| / log n - log|w + 1| / log n,

    and on each end one of log|w|, log|w + 1| is +-t log n while the other
    is log|1 +- eps e^(i a)| with eps = n^(-t), taken from the half-angle
    form |1 +- eps e^(i a)|^2 = (1 - eps)^2 + 4 eps (cos or sin (a/2))^2,
    which has no cancellation.  Every sample point is kept; a point at
    infinite depth (a coordinate that is exactly 0) lands at infinity and
    falls outside every window.  `domain` may hold infinities for depths
    beyond the float range.

    A ladder of bases shares all but the base: the depths t and -t, the
    half-angle factors and the cosines and sines of the golden angles come
    from `_sphere`, a memo keyed by (count, depth, min(p, q)).  It holds
    one entry, 5 arrays of about count / 3 floats per end (about 40 B per
    sample), which the next call with another key replaces.  Each base
    computes only eps = n^(-t), the log term, the points and the domain.
    """
    if not n > 1:
        raise ValueError("rescaling base must exceed 1")
    if n > MAX_BASE:
        raise ValueError(f"rescaling base {n} exceeds the supported {MAX_BASE:g}")
    if count < 1:
        raise ValueError("need at least one sample point")
    p, q = float(family.p), float(family.q)
    max_depth = depth if depth is not None else p + q + 2.0
    log_n = math.log(n)
    x0 = p - math.log(abs(family.c1)) / log_n
    y0 = q - math.log(abs(family.c2)) / log_n
    points = np.empty((count, 2))
    domain = np.empty(count, dtype=np.complex128)

    # Sample k lies on end k % 3 (0, -1, infinity), at the (k // 3)-th depth
    # of that end; each end is the strided slice [end::3].
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        sphere = _sphere(count, max_depth, min(p, q))
        for end, (t, minus_t, half2, cos_a, sin_a) in enumerate(sphere):
            eps = np.power(n, minus_t)
            # log|1 - eps e^(i a)| near -1, log|1 + eps e^(i a)| elsewhere, in units of log n.
            rest = 0.5 * np.log((1.0 - eps) ** 2 + 4.0 * eps * half2) / log_n
            if end == 0:
                log_w, log_w1, radius = minus_t, rest, eps
            elif end == 1:
                log_w, log_w1, radius = rest, minus_t, eps
            else:
                log_w, log_w1, radius = t, t + rest, np.power(n, t)
            points[end::3, 0] = x0 - log_w
            points[end::3, 1] = y0 - log_w1
            domain.real[end::3] = radius * cos_a
            domain.imag[end::3] = radius * sin_a
    domain.real[1::3] -= 1.0
    np.maximum(0.0, points, out=points)
    return AmoebaSample(n=float(n), points=points, domain=domain)


def discretize_curve(
    curve: TropicalCurve, window: float, step: float | None = None
) -> np.ndarray:
    """Dense polyline point set of a curve, truncated to [0, window]^2; the
    window must be positive."""
    if not window > 0:
        raise ValueError(f"window {window} must be positive")
    if step is None:
        step = window / 512.0
    pos = {v.id: (float(v.position.x), float(v.position.y)) for v in curve.vertices}
    points = [np.array(list(pos.values()), dtype=np.float64).reshape(-1, 2)]

    def walk(x0, y0, dx, dy, tmax):
        k = max(1, int(math.ceil(tmax / step * math.hypot(dx, dy))))
        t = tmax * np.arange(1, k + 1) / k
        points.append(np.column_stack((x0 + t * dx, y0 + t * dy)))

    for s in curve.segments:
        x0, y0 = pos[s.tail]
        walk(x0, y0, float(s.contact.x), float(s.contact.y), float(s.length))
    for r in curve.rays:
        x0, y0 = pos[r.base]
        dx, dy = float(r.contact.x), float(r.contact.y)
        # Longest parameter keeping the ray inside the window.
        limits = []
        if dx > 0:
            limits.append((window - x0) / dx)
        if dy > 0:
            limits.append((window - y0) / dy)
        tmax = min(limits) if limits else 0.0
        if tmax > 0:
            walk(x0, y0, dx, dy, tmax)
    pts = np.concatenate(points)
    inside = (pts[:, 0] <= window + 1e-12) & (pts[:, 1] <= window + 1e-12)
    return pts[inside]


def _window_pieces(curve: TropicalCurve, window: float) -> tuple[np.ndarray, np.ndarray]:
    """The curve inside [0, window]^2 as segments: start points and
    displacements, one row each, with rays cut where they leave the window.
    The window edge has the tolerance `discretize_curve` gives it."""
    window += 1e-12
    pos = {v.id: (float(v.position.x), float(v.position.y)) for v in curve.vertices}
    edges = [(pos[s.tail], s.contact, float(s.length)) for s in curve.segments]
    edges += [(pos[r.base], r.contact, math.inf) for r in curve.rays]
    starts, moves = [], []
    for (x0, y0), contact, tmax in edges:
        dx, dy = float(contact.x), float(contact.y)
        lo, hi = 0.0, tmax
        for c0, dc in ((x0, dx), (y0, dy)):
            if dc > 0:
                hi = min(hi, (window - c0) / dc)
            elif dc < 0:
                lo = max(lo, (window - c0) / dc)
            elif c0 > window:
                hi = -1.0
        if lo <= hi < math.inf:
            starts.append((x0 + lo * dx, y0 + lo * dy))
            moves.append(((hi - lo) * dx, (hi - lo) * dy))
    return np.array(starts).reshape(-1, 2), np.array(moves).reshape(-1, 2)


def _squared_distance_to_pieces(
    px: np.ndarray, py: np.ndarray, starts: np.ndarray, moves: np.ndarray
) -> np.ndarray:
    """Squared distance from each point (px, py) to the nearest of the segments."""
    best = np.full(len(px), np.inf)
    for (sx, sy), (dx, dy) in zip(starts.tolist(), moves.tolist()):
        length2 = dx * dx + dy * dy
        rel_x, rel_y = px - sx, py - sy
        s = (rel_x * dx + rel_y * dy) / (length2 if length2 > 0 else 1.0)
        np.clip(s, 0.0, 1.0, out=s)
        rel_x -= s * dx
        rel_y -= s * dy
        np.minimum(best, rel_x * rel_x + rel_y * rel_y, out=best)
    return best


def _squared_nearest(
    targets: np.ndarray, cx: np.ndarray, cy: np.ndarray, bound: float
) -> np.ndarray:
    """Squared distance from each target to its nearest cloud point (cx, cy),
    exact where it exceeds `bound` and at most `bound` elsewhere.

    One grid of square cells covers a box holding the targets and the
    cloud, and one cloud point represents each cell.  A target is certified,
    with that distance, when the representative of one of its 3 x 3 cells
    passes the exact test `dx * dx + dy * dy <= bound`; a bound of 0
    certifies none.  The others get `_grid_search` on the same grid.
    """
    lo = min(targets.min(), cx.min(), cy.min())
    extent = max(targets.max(), cx.max(), cy.max()) - lo
    # Side sqrt(bound) / 2, floored so the grid has about 4 cells per point;
    # 1 when every target and cloud point is one point.
    cell = max(math.sqrt(bound) / 2.0, extent / (2.0 * math.sqrt(len(cx)))) or 1.0
    # Cell indices start at 1, leaving an empty border for the 3 x 3 cells.
    side = int(extent / cell) + 3

    def cells(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        column = ((x - lo) / cell).astype(np.int64) + 1
        return column * side + ((y - lo) / cell).astype(np.int64) + 1

    keys = cells(cx, cy)
    tx, ty = targets[:, 0].copy(), targets[:, 1].copy()
    centre = cells(tx, ty)
    best = np.full(len(tx), math.inf)
    if bound > 0:
        rep = np.full(side * side, -1)
        rep[keys] = np.arange(len(cx))
        # Index -1 of an empty cell picks a point at infinity, which never passes.
        rx, ry = np.append(cx, math.inf), np.append(cy, math.inf)
        for offset in (-side - 1, -side, -side + 1, -1, 0, 1, side - 1, side, side + 1):
            r = rep[centre + offset]
            dx = tx - rx[r]
            dy = ty - ry[r]
            np.minimum(best, dx * dx + dy * dy, out=best)
    far = np.flatnonzero(~(best <= bound))
    if len(far):
        best[far] = _grid_search(tx[far], ty[far], centre[far], cx, cy, keys, side, cell)
    return best


def _grid_search(tx, ty, centre, cx, cy, keys, side: int, cell: float) -> np.ndarray:
    """Exact squared distance from each target (tx, ty) in grid cell
    `centre` to its nearest cloud point (cx, cy) in cell `keys`.  The
    square of cells within `radius` of the target's is searched, doubling
    `radius` until the square covers the grid or the best distance is at
    most `radius` cells, which every cloud point outside it exceeds."""
    order = np.argsort(keys)
    keys, sx, sy = keys[order], cx[order], cy[order]
    best = np.full(len(tx), math.inf)
    todo = np.arange(len(tx))
    radius = 1
    while len(todo):
        # Each column of the square, its rows cut to the grid, is one range
        # of the sorted keys.
        c = centre[todo, None]
        r = c % side
        columns = np.arange(-radius, radius + 1) * side
        start = np.searchsorted(keys, (c - np.minimum(r, radius) + columns).ravel())
        top = c + np.minimum(side - 1 - r, radius) + columns
        counts = np.searchsorted(keys, top.ravel(), side="right") - start
        index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start, counts)
        owner = np.repeat(np.repeat(todo, 2 * radius + 1), counts)
        dx = tx[owner] - sx[index]
        dy = ty[owner] - sy[index]
        np.minimum.at(best, owner, dx * dx + dy * dy)
        # The margin covers rounding in the cell index of points near the edge.
        done = (best[todo] <= (radius * cell * (1.0 - 1e-9)) ** 2) | (radius >= side)
        todo = todo[~done]
        radius *= 2
    return best


def hausdorff(sample: AmoebaSample, curve: TropicalCurve, window: float) -> float:
    """Symmetric Hausdorff distance between cloud and curve inside the window.

    Cloud to curve is the exact distance to the curve's segments and
    window-cut rays.  It bounds curve to cloud, measured from the points of
    `discretize_curve` by `_squared_nearest`: a polyline point certified to
    have a cloud point no farther away cannot raise the maximum, and every
    other point gets its exact nearest distance.  The result is the float
    that the full distance matrix gives.  The in-window cloud goes to the
    helpers as two contiguous columns, cx and cy.  `discretize_curve` runs
    first, so a window that is not positive raises its ValueError.
    """
    poly = discretize_curve(curve, window)
    xs, ys = sample.points[:, 0], sample.points[:, 1]
    keep = (xs <= window) & (ys <= window)
    cx, cy = xs[keep], ys[keep]
    if cx.size == 0:
        raise EmptySample("no sample points inside the window")
    if poly.size == 0:
        raise EmptySample("curve has no points inside the window")
    cloud_to_curve = _squared_distance_to_pieces(cx, cy, *_window_pieces(curve, window)).max()
    curve_to_cloud = _squared_nearest(poly, cx, cy, cloud_to_curve).max()
    return float(np.sqrt(max(cloud_to_curve, curve_to_cloud)))


def convergence_report(
    family: LineFamily,
    bases,
    count: int,
    window: float,
) -> ConvergenceReport:
    """Hausdorff distances over a ladder of bases, with a 1/log n fit.

    The fit needs at least two distinct bases, and the window must be
    positive and small enough that squared distances inside it stay finite.
    It may not reach past the sampled depth p + q + 2 either: beyond it the
    cloud is empty and the distance reads the unsampled part of the rays.
    """
    bases = [float(n) for n in bases]
    if len(set(bases)) < 2:
        raise ValueError("a convergence ladder needs at least two distinct bases")
    if not 0 < window <= _MAX_WINDOW:
        raise ValueError(f"window {window} must be positive and at most {_MAX_WINDOW:g}")
    depth = family.p + family.q + 2
    if window > depth:
        raise ValueError(f"window {window:g} reaches past the sampled depth p + q + 2 = {depth}")
    curve = tropical.tropicalize_line(family)
    entries = []
    for n in bases:
        sample = sample_amoeba(family, n, count)
        entries.append((n, hausdorff(sample, curve, window)))
    # Closed-form least squares of the distances on 1 / log n.
    xs = [1.0 / math.log(n) for n in bases]
    ds = [d for _, d in entries]
    mx, my = sum(xs) / len(xs), sum(ds) / len(ds)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (d - my) for x, d in zip(xs, ds))
    syy = sum((d - my) ** 2 for d in ds)
    monotone = all(b < a * 1.1 for (_, a), (_, b) in zip(entries, entries[1:]))
    monotone = monotone and entries[-1][1] < entries[0][1]
    return ConvergenceReport(
        entries=tuple(entries),
        decay_constant=sxy / sxx,
        r_squared=1.0 if syy == 0 else sxy * sxy / (sxx * syy),
        monotone=monotone,
        last_sample=sample,
    )
