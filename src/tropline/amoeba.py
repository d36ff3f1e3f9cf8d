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

import math
from dataclasses import dataclass

import numpy as np

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

# Pair distances computed at once by the brute-force nearest-point search.
_CHUNK = 1 << 20


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
        for end, cap in enumerate((max_depth, max_depth, min(p, q))):
            k = np.arange(end, count, 3)
            t = cap * (np.arange(len(k)) + 0.5) / len(k)
            angle = 2.0 * math.pi * ((k * _GOLDEN) % 1.0)
            eps = np.power(n, -t)
            half = np.sin(0.5 * angle) if end == 1 else np.cos(0.5 * angle)
            # log|1 - eps e^(i a)| near -1, log|1 + eps e^(i a)| elsewhere, in units of log n.
            rest = 0.5 * np.log((1.0 - eps) ** 2 + 4.0 * eps * half**2) / log_n
            if end == 0:
                log_w, log_w1, radius = -t, rest, eps
            elif end == 1:
                log_w, log_w1, radius = rest, -t, eps
            else:
                log_w, log_w1, radius = t, t + rest, np.power(n, t)
            points[end::3, 0] = x0 - log_w
            points[end::3, 1] = y0 - log_w1
            domain.real[end::3] = radius * np.cos(angle)
            domain.imag[end::3] = radius * np.sin(angle)
    domain.real[1::3] -= 1.0
    np.maximum(0.0, points, out=points)
    return AmoebaSample(n=float(n), points=points, domain=domain)


def discretize_curve(
    curve: TropicalCurve, window: float, step: float | None = None
) -> np.ndarray:
    """Dense polyline point set of a curve, truncated to [0, window]^2."""
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
    points: np.ndarray, starts: np.ndarray, moves: np.ndarray
) -> np.ndarray:
    """Squared distance from each point to the nearest of the segments."""
    px, py = points[:, 0].copy(), points[:, 1].copy()
    best = np.full(len(points), np.inf)
    for (sx, sy), (dx, dy) in zip(starts.tolist(), moves.tolist()):
        length2 = dx * dx + dy * dy
        rel_x, rel_y = px - sx, py - sy
        s = (rel_x * dx + rel_y * dy) / (length2 if length2 > 0 else 1.0)
        np.clip(s, 0.0, 1.0, out=s)
        rel_x -= s * dx
        rel_y -= s * dy
        np.minimum(best, rel_x * rel_x + rel_y * rel_y, out=best)
    return best


def _brute_nearest(targets: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Squared distance from each target to its nearest cloud point, in chunks."""
    best = np.empty(len(targets))
    rows = max(1, _CHUNK // len(cloud))
    for i in range(0, len(targets), rows):
        chunk = targets[i : i + rows]
        dx = chunk[:, :1] - cloud[:, 0]
        dy = chunk[:, 1:] - cloud[:, 1]
        best[i : i + rows] = (dx * dx + dy * dy).min(axis=1)
    return best


def _squared_nearest(targets: np.ndarray, cloud: np.ndarray, cell: float) -> np.ndarray:
    """Squared distance from each target to its nearest cloud point.

    Cloud points are bucketed in a grid of side `cell` and each target
    first searches the 3 x 3 cells around its own.  Every cloud point
    within `cell` of a target lies there, so a best distance under `cell`
    is the true minimum; targets without one fall back to a full search.
    The result equals the minimum over the full distance matrix.
    """
    # Only cloud points within `cell` of the targets' bounding box can be
    # within `cell` of a target.
    origin = targets.min(axis=0) - cell
    inner = cloud[((cloud >= origin) & (cloud <= targets.max(axis=0) + cell)).all(axis=1)]
    inner_cells = np.floor((inner - origin) / cell).astype(np.int64) + 1
    target_cells = np.floor((targets - origin) / cell).astype(np.int64) + 1
    stride = int(max(inner_cells[:, 1].max(initial=0), target_cells[:, 1].max() + 1)) + 1
    keys = inner_cells[:, 0] * stride + inner_cells[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    ix, iy = inner[order, 0], inner[order, 1]
    tx, ty = targets[:, 0].copy(), targets[:, 1].copy()
    # The three cells of one column are consecutive keys, so each target
    # needs three ranges of the sorted cloud.
    low_keys = (target_cells[:, :1] + np.array((-1, 0, 1))) * stride + target_cells[:, 1:] - 1
    lo = np.searchsorted(keys, low_keys.ravel(), side="left")
    hi = np.searchsorted(keys, low_keys.ravel() + 2, side="right")
    counts = hi - lo
    firsts = np.cumsum(counts) - counts
    index = np.arange(counts.sum()) - np.repeat(firsts - lo, counts)
    per_target = counts.reshape(-1, 3).sum(axis=1)
    owner = np.repeat(np.arange(len(targets)), per_target)
    dx = tx[owner] - ix[index]
    dy = ty[owner] - iy[index]
    pair = dx * dx + dy * dy
    best = np.full(len(targets), np.inf)
    found = np.flatnonzero(per_target)
    if len(found):
        best[found] = np.minimum.reduceat(pair, firsts[::3][found])
    # The margin covers rounding in the cell index of points near `cell` away.
    far = ~(best <= (cell * (1.0 - 1e-9)) ** 2)
    if far.any():
        best[far] = _brute_nearest(targets[far], cloud)
    return best


def hausdorff(sample: AmoebaSample, curve: TropicalCurve, window: float) -> float:
    """Symmetric Hausdorff distance between cloud and curve inside the window.

    Cloud to curve is the exact distance to the curve's segments and
    window-cut rays; curve to cloud is measured from the points of
    `discretize_curve`.
    """
    pts = sample.points
    keep = (pts[:, 0] <= window) & (pts[:, 1] <= window)
    cloud = pts[keep]
    if cloud.size == 0:
        raise EmptySample("no sample points inside the window")
    poly = discretize_curve(curve, window)
    if poly.size == 0:
        raise EmptySample("curve has no points inside the window")
    cloud_to_curve = _squared_distance_to_pieces(cloud, *_window_pieces(curve, window)).max()
    # Cells of twice the polyline step: few cloud points per cell, and the
    # nearest one is almost always within a cell.
    curve_to_cloud = _squared_nearest(poly, cloud, window / 256.0).max()
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
    """
    from .tropical import tropicalize_line

    bases = [float(n) for n in bases]
    if len(set(bases)) < 2:
        raise ValueError("a convergence ladder needs at least two distinct bases")
    if not 0 < window <= _MAX_WINDOW:
        raise ValueError(f"window {window} must be positive and at most {_MAX_WINDOW:g}")
    curve = tropicalize_line(family)
    entries = []
    for n in bases:
        sample = sample_amoeba(family, n, count)
        entries.append((n, hausdorff(sample, curve, window)))
    xs = np.array([1.0 / math.log(n) for n, _ in entries])
    ys = np.array([d for _, d in entries])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    monotone = all(b < a * 1.1 for (_, a), (_, b) in zip(entries, entries[1:]))
    monotone = monotone and entries[-1][1] < entries[0][1]
    return ConvergenceReport(
        entries=tuple(entries),
        decay_constant=float(slope),
        r_squared=float(r_squared),
        monotone=monotone,
    )
