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
Along a ladder of bases only the in-window part of the cloud and its two
distances are computed per base: the depths and angles of the samples, and
the curve's polyline and pieces inside the window, are built once, and the
samples whose image leaves the window are never formed.  A full cloud, and
the complex domain points behind it, are built only on request
(`sample_amoeba` without a window, `sample_domain`).

numpy is imported at the first amoeba computation, not with this module:
`tropline.cli` imports this module for `trop amoeba`, and every exact
subcommand would otherwise pay for loading numpy at start-up.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import tropical
from .tropical import LineFamily, TropicalCurve


class _DeferredNumpy:
    """Stands in for numpy until its first attribute is read, which
    imports numpy and rebinds the module's `np` to it, so every later
    `np.` lookup in this module is a plain global one."""

    __slots__ = ()

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _DeferredNumpy()

__all__ = [
    "ZeroCoordinate",
    "EmptySample",
    "AmoebaSample",
    "ConvergenceReport",
    "MAX_BASE",
    "log_image",
    "sample_amoeba",
    "sample_domain",
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

# Most steps a polyline piece takes: below 2**53 every step index is an
# exact float.
_MAX_STEPS = 2.0**53

# (target, cloud point) pairs that `_grid_search` expands at once, at about
# 48 B each.
_PAIRS = 1 << 19


class ZeroCoordinate(ValueError):
    """log_image needs all three homogeneous coordinates nonzero."""


class EmptySample(ValueError):
    """No sample points survive inside the requested window."""


@dataclass(frozen=True)
class AmoebaSample:
    """Clipped log-image point cloud of one member of the family."""

    n: float
    # Shape (k, 2), clipped to the quadrant; `sample_amoeba` stores it
    # column-major, so its x and y columns are contiguous.
    points: np.ndarray


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


@functools.lru_cache(maxsize=1)
def _sphere(count: int, max_depth: float, cap: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """The part of a `count`-point sample that does not depend on the base:
    for each end (0, -1, infinity, the last capped at depth `cap`), the
    depths t, their negatives -t, the squared half-angle factor (sin(a/2)^2
    near -1, cos(a/2)^2 elsewhere) and the golden angles a.  Ends 0 and -1
    reach the same depth, so when they hold as many samples (every count
    but those of the form 3m + 1) end -1 shares end 0's t and -t arrays.
    The arrays are read-only, since every caller with the same key shares
    them."""
    ends = []
    for end, reach in enumerate((max_depth, max_depth, cap)):
        k = np.arange(end, count, 3)
        if end == 1 and len(k) == len(ends[0][0]):
            t, minus_t = ends[0][:2]
        else:
            t = reach * (np.arange(len(k)) + 0.5) / len(k)
            minus_t = -t
        # The fractional part, x - floor(x), is x % 1.0 for x >= 0.
        turns = k * _GOLDEN
        turns -= np.floor(turns)
        angle = 2.0 * math.pi * turns
        half = np.sin(0.5 * angle) if end == 1 else np.cos(0.5 * angle)
        arrays = (t, minus_t, half**2, angle)
        for a in arrays:
            a.flags.writeable = False
        ends.append(arrays)
    return tuple(ends)


def _family_sphere(
    family: LineFamily, n: float, count: int, depth: float | None
) -> tuple[tuple[np.ndarray, ...], ...]:
    """Check the sampling arguments and return the family's `_sphere`."""
    if not n > 1:
        raise ValueError("rescaling base must exceed 1")
    if n > MAX_BASE:
        raise ValueError(f"rescaling base {n} exceeds the supported {MAX_BASE:g}")
    if count < 1:
        raise ValueError("need at least one sample point")
    # A negative depth would reverse the order of the depths along an end.
    if depth is not None and not depth >= 0:
        raise ValueError(f"sample depth {depth} must be non-negative")
    p, q = float(family.p), float(family.q)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        return _sphere(count, depth if depth is not None else p + q + 2.0, min(p, q))


def sample_amoeba(
    family: LineFamily,
    n: float,
    count: int,
    depth: float | None = None,
    window: float | None = None,
) -> AmoebaSample:
    """Deterministic point cloud of the log image of one line of the family.

    Domain points cover the thrice-marked sphere through its three ends
    (the zeros of the coordinates w1, w1 + w2, w2), at depths spread
    log-uniformly in base n with golden-angle rotation: w = n^(-t) e^(i a)
    near 0, w = -1 + n^(-t) e^(i a) near -1, and w = n^(t) e^(i a) near
    infinity.  The infinity end is capped at depth min(p, q), where its
    image meets the quadrant boundary; the others reach `depth` (default
    p + q + 2; a negative or NaN depth is refused).  The scheme is a fixed
    function of its arguments, so equal inputs give bit-identical clouds;
    `sample_domain` gives the points w.

    The image of f_n(w) = [c1 n^(-p) w : c2 n^(-q) (w + 1) : 1] is

        X = p - log|c1| / log n - log|w| / log n
        Y = q - log|c2| / log n - log|w + 1| / log n,

    and on each end one of log|w|, log|w + 1| is +-t log n while the other
    is log|1 +- eps e^(i a)| with eps = n^(-t), taken from the half-angle
    form |1 +- eps e^(i a)|^2 = (1 - eps)^2 + 4 eps (cos or sin (a/2))^2,
    which has no cancellation.  Without a window every sample point is
    kept, sample k on end k % 3; a point at infinite depth (a coordinate
    that is exactly 0) lands at infinity and falls outside every window.

    With a `window`, which `_window_step` checks, only the points inside
    [0, window]^2 are returned, listed end by end (0, -1, infinity): the
    same floats as the full cloud's in-window rows.  The deep coordinate
    of end 0 (X = x0 + t) and of end -1 (Y = y0 + t) does not decrease
    with t, so the samples of those ends inside the window are a prefix,
    found by `searchsorted` on that expression; only the prefix is
    computed, and its other coordinate, like both of the infinity end's,
    is tested against the window afterwards.  The full cloud and the
    windowed one run one loop and differ only in each end's prefix length
    and output slice.

    A ladder of bases shares all but the base: the depths t and -t, the
    half-angle factors and the golden angles come from `_sphere`, a memo
    keyed by (count, depth, min(p, q)).  It holds one entry, 4 arrays of
    about count / 3 floats per end, ends 0 and -1 sharing t and -t (about
    27 B per sample), which the next call with another key replaces.  Each
    base computes only eps = n^(-t), (1 - eps)^2 and 4 eps, once for the
    two ends that share their depths (over the longer of their prefixes),
    then the log term and the points.  The points are allocated
    column-major, so the x and y columns are contiguous, and each end
    writes its slice of the two columns in place.
    """
    sphere = _family_sphere(family, n, count, depth)
    if window is not None:
        _window_step(window)
    log_n = math.log(n)
    x0 = float(family.p) - math.log(abs(family.c1)) / log_n
    y0 = float(family.q) - math.log(abs(family.c2)) / log_n

    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if window is None:
            # Sample k lies on end k % 3 (0, -1, infinity), at the (k // 3)-th
            # depth of that end; each end is the strided slice [end::3].
            cuts = [len(t) for t, *_ in sphere]
            points = np.empty((count, 2), order="F")
            slices = [points[end::3] for end in range(3)]
        else:
            # Samples whose deep coordinate, c0 - (-t), is at most the window.
            cuts = [
                int(np.searchsorted(c0 - minus_t, window, side="right"))
                for c0, (_t, minus_t, *_) in zip((x0, y0), sphere)
            ]
            cuts.append(len(sphere[2][0]))
            points = np.empty((sum(cuts), 2), order="F")
            bounds = list(itertools.accumulate(cuts, initial=0))
            slices = [points[a:b] for a, b in zip(bounds, bounds[1:])]
        depths = None
        for end, ((t, minus_t, half2, _angle), cut, out) in enumerate(zip(sphere, cuts, slices)):
            # eps = n^(-t), (1 - eps)^2 and 4 eps, once per depth array, over
            # the longest prefix of the ends that share it.
            if minus_t is not depths:
                reach = max(c for (_t, other, *_), c in zip(sphere, cuts) if other is minus_t)
                depths, eps = minus_t, np.power(n, minus_t[:reach])
                square, four_eps = (1.0 - eps) ** 2, 4.0 * eps
            t, minus_t = t[:cut], minus_t[:cut]
            # log|1 - eps e^(i a)| near -1, log|1 + eps e^(i a)| elsewhere, in
            # units of log n: 0.5 * log((1 - eps)^2 + 4 eps half2) / log n.
            rest = four_eps[:cut] * half2[:cut]
            rest += square[:cut]
            np.log(rest, out=rest)
            rest *= 0.5
            rest /= log_n
            if end == 0:
                log_w, log_w1 = minus_t, rest
            elif end == 1:
                log_w, log_w1 = rest, minus_t
            else:
                rest += t
                log_w, log_w1 = t, rest
            np.subtract(x0, log_w, out=out[:, 0])
            np.subtract(y0, log_w1, out=out[:, 1])
    np.maximum(0.0, points, out=points)
    if window is not None:
        keep = points[:, 0] <= window
        keep &= points[:, 1] <= window
        if not keep.all():
            inside = np.empty((np.count_nonzero(keep), 2), order="F")
            np.compress(keep, points[:, 0], out=inside[:, 0])
            np.compress(keep, points[:, 1], out=inside[:, 1])
            points = inside
    return AmoebaSample(n=float(n), points=points)


def sample_domain(
    family: LineFamily, n: float, count: int, depth: float | None = None
) -> np.ndarray:
    """The affine chart points w that `sample_amoeba` without a window maps
    to its cloud, row for row: n^(-t) e^(i a) near 0, -1 + n^(-t) e^(i a) near -1 and
    n^(t) e^(i a) near infinity.  Depths beyond the float range give
    infinities."""
    sphere = _family_sphere(family, n, count, depth)
    domain = np.empty(count, dtype=np.complex128)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for end, (t, minus_t, _half2, angle) in enumerate(sphere):
            radius = np.power(n, t if end == 2 else minus_t)
            domain.real[end::3] = radius * np.cos(angle)
            domain.imag[end::3] = radius * np.sin(angle)
    domain.real[1::3] -= 1.0
    return domain


def _window_step(window: float, step: float | None = None, longest: float = 0.0) -> float:
    """The polyline step of a window: `step`, or window / 512 by default.

    Raises a ValueError naming the window unless 0 < window <= _MAX_WINDOW
    and the step is usable: positive, and covering a piece of length
    `longest` in at most _MAX_STEPS steps.  A given step must also be
    finite.
    """
    if not 0 < window <= _MAX_WINDOW:
        raise ValueError(f"window {window} must be positive and at most {_MAX_WINDOW:g}")
    if step is None:
        step = window / 512.0
    elif not 0 < step < math.inf:
        raise ValueError(f"step {step} must be a positive finite number")
    if step == 0:
        raise ValueError(f"window {window} is too small: its polyline step rounds to 0")
    if not longest / step <= _MAX_STEPS:
        raise ValueError(
            f"window {window} has no usable polyline step: {step:g} takes more "
            f"than 2**53 steps along a piece of length {longest:g}"
        )
    return step


def discretize_curve(
    curve: TropicalCurve, window: float, step: float | None = None
) -> np.ndarray:
    """Dense polyline point set of a curve, truncated to [0, window]^2.

    Each piece, a segment or a ray cut where it leaves the window, is
    walked in k equal steps of at most `step`, to the points t = tmax i / k
    for i = 1..k, and the vertices are added.  Only the indices i that can
    land inside the window, widened by one on each side, are formed, so a
    tiny window costs no more than a wide one.  `_window_step` checks the
    window and the step.
    """
    edge = window + 1e-12
    pos = {v.id: (float(v.position.x), float(v.position.y)) for v in curve.vertices}
    walks = [
        (*pos[s.tail], float(s.contact.x), float(s.contact.y), float(s.length))
        for s in curve.segments
    ]
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
            walks.append((x0, y0, dx, dy, tmax))
    longest = max((tmax * math.hypot(dx, dy) for *_, dx, dy, tmax in walks), default=0.0)
    step = _window_step(window, step, longest)
    points = [np.array(list(pos.values()), dtype=np.float64).reshape(-1, 2)]
    for x0, y0, dx, dy, tmax in walks:
        k = max(1, int(math.ceil(tmax / step * math.hypot(dx, dy))))
        # The parameters in [lo, hi] keep both coordinates at most the edge.
        lo, hi = 0.0, tmax
        for c0, dc in ((x0, dx), (y0, dy)):
            if dc > 0:
                hi = min(hi, (edge - c0) / dc)
            elif dc < 0:
                lo = max(lo, (edge - c0) / dc)
            elif c0 > edge:
                hi = 0.0
        if tmax > 0:
            lo, hi = (min(max(t, 0.0), tmax) / tmax * k for t in (lo, hi))
        first = max(1, math.ceil(lo) - 1)
        last = min(k, math.floor(hi) + 1)
        if first <= last:
            t = tmax * np.arange(first, last + 1) / k
            points.append(np.column_stack((x0 + t * dx, y0 + t * dy)))
    pts = np.concatenate(points)
    inside = (pts[:, 0] <= edge) & (pts[:, 1] <= edge)
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
    """Squared distance from each point (px, py) to the nearest of the
    segments, folded one segment at a time into four reused buffers.  For
    finite points a zero component of a displacement, as on every
    axis-parallel ray, only adds signed zeros, which the squares drop, so
    its terms are skipped."""
    best = np.full(len(px), np.inf)
    rel_x, rel_y, s, tmp = (np.empty(len(px)) for _ in range(4))
    for (sx, sy), (dx, dy) in zip(starts.tolist(), moves.tolist()):
        length2 = dx * dx + dy * dy
        np.subtract(px, sx, out=rel_x)
        np.subtract(py, sy, out=rel_y)
        terms = [(rel, d) for rel, d in ((rel_x, dx), (rel_y, dy)) if d != 0]
        if terms:
            # s = (rel_x * dx + rel_y * dy) / length2, clipped to [0, 1].
            (rel, d), *more = terms
            np.multiply(rel, d, out=s)
            for rel, d in more:
                np.add(s, np.multiply(rel, d, out=tmp), out=s)
            np.divide(s, length2 if length2 > 0 else 1.0, out=s)
            np.clip(s, 0.0, 1.0, out=s)
            for rel, d in terms:
                rel -= np.multiply(s, d, out=tmp)
        np.multiply(rel_x, rel_x, out=rel_x)
        np.multiply(rel_y, rel_y, out=rel_y)
        np.minimum(best, np.add(rel_x, rel_y, out=rel_x), out=best)
    return best


def _squared_nearest(
    targets: np.ndarray, cx: np.ndarray, cy: np.ndarray, bound: float
) -> np.ndarray:
    """Squared distance from each target to its nearest cloud point (cx, cy),
    exact where it exceeds `bound` and at most `bound` elsewhere.

    One grid of square cells covers a box holding the targets and the
    cloud, and one cloud point represents each cell, the last cloud point
    an empty one.  A target is certified, with that distance, when the
    representative of its own cell, or else of one of the 8 around it,
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
    if bound > 0:
        rep = np.full(side * side, -1)
        rep[keys] = np.arange(len(cx))
        # Index -1 of an empty cell picks the last cloud point: a distance
        # to a cloud point still bounds the nearest one from above.  The
        # centre cell certifies most targets; only the others try the 8
        # cells around theirs, in one gather.
        r = rep[centre]
        dx = tx - cx[r]
        dy = ty - cy[r]
        best = dx * dx + dy * dy
        rest = np.flatnonzero(~(best <= bound))
        if len(rest):
            ring = np.array((-side - 1, -side, -side + 1, -1, 1, side - 1, side, side + 1))
            r = rep[centre[rest] + ring[:, None]]
            dx = tx[rest] - cx[r]
            dy = ty[rest] - cy[r]
            best[rest] = np.minimum(best[rest], (dx * dx + dy * dy).min(axis=0))
    else:
        best = np.full(len(tx), math.inf)
    far = np.flatnonzero(~(best <= bound))
    if len(far):
        best[far] = _grid_search(tx[far], ty[far], centre[far], cx, cy, keys, side, cell)
    return best


def _grid_search(tx, ty, centre, cx, cy, keys, side: int, cell: float) -> np.ndarray:
    """Exact squared distance from each target (tx, ty) in grid cell
    `centre` to its nearest cloud point (cx, cy) in cell `keys`.  The
    square of cells within `radius` of the target's is searched, doubling
    `radius` until the square covers the grid or the best distance is at
    most `radius` cells, which every cloud point outside it exceeds.  Each
    round expands its (target, cloud point) pairs in slices of whole
    targets, about `_PAIRS` pairs each."""
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
        width = len(columns)
        ends = np.cumsum(counts.reshape(-1, width).sum(axis=1))
        lo = 0
        while lo < len(todo):
            below = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, below + _PAIRS, side="right")))
            first, n = start[lo * width : hi * width], counts[lo * width : hi * width]
            index = np.repeat(np.cumsum(n) - n - first, n)
            np.subtract(np.arange(len(index)), index, out=index)
            owner = np.repeat(np.repeat(todo[lo:hi], width), n)
            dx = tx[owner]
            dx -= sx[index]
            dy = ty[owner]
            dy -= sy[index]
            dx *= dx
            dy *= dy
            dx += dy
            np.minimum.at(best, owner, dx)
            lo = hi
        # The margin covers rounding in the cell index of points near the edge.
        done = (best[todo] <= (radius * cell * (1.0 - 1e-9)) ** 2) | (radius >= side)
        todo = todo[~done]
        radius *= 2
    return best


@functools.lru_cache(maxsize=1)
def _curve_in_window(curve: TropicalCurve, window: float) -> tuple[np.ndarray, ...]:
    """The part of `hausdorff` that does not depend on the cloud: the
    `discretize_curve` polyline and the `_window_pieces` starts and
    displacements.  It holds one entry, which the next call with another
    (curve, window) replaces; the arrays are read-only, since every caller
    with the same key shares them."""
    arrays = (discretize_curve(curve, window), *_window_pieces(curve, window))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def hausdorff(sample: AmoebaSample, curve: TropicalCurve, window: float) -> float:
    """Symmetric Hausdorff distance between cloud and curve inside the window.

    Cloud to curve is the exact distance to the curve's segments and
    window-cut rays.  It bounds curve to cloud, measured from the points of
    `discretize_curve` by `_squared_nearest`: a polyline point certified to
    have a cloud point no farther away cannot raise the maximum, and every
    other point gets its exact nearest distance.  The result is the float
    that the full distance matrix gives, whatever the order of the points.
    The in-window cloud goes to the helpers as two columns, cx and cy: the
    sample's own columns when every point is inside, as in a cloud that
    `sample_amoeba` sampled with this window, and otherwise the in-window
    rows taken by index.  The polyline and the pieces come from
    `_curve_in_window`, so a ladder of bases on one curve builds them once.
    `discretize_curve` runs first, so a window that `_window_step` refuses
    raises its ValueError.
    """
    poly, starts, moves = _curve_in_window(curve, window)
    cx, cy = sample.points[:, 0], sample.points[:, 1]
    keep = cx <= window
    keep &= cy <= window
    if not keep.all():
        inside = np.flatnonzero(keep)
        cx, cy = cx.take(inside), cy.take(inside)
    if cx.size == 0:
        raise EmptySample("no sample points inside the window")
    if poly.size == 0:
        raise EmptySample("curve has no points inside the window")
    cloud_to_curve = _squared_distance_to_pieces(cx, cy, starts, moves).max()
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
    positive and small enough that squared distances inside it stay finite,
    as `_window_step` checks.
    It may not reach past the sampled depth p + q + 2 either: beyond it the
    cloud is empty and the distance reads the unsampled part of the rays.
    Each base samples only the points inside the window (`sample_amoeba`
    with `window`), the only ones `hausdorff` measures, so each distance is
    the float that the full cloud gives.
    """
    bases = [float(n) for n in bases]
    if len(set(bases)) < 2:
        raise ValueError("a convergence ladder needs at least two distinct bases")
    _window_step(window)
    depth = family.p + family.q + 2
    if window > depth:
        raise ValueError(f"window {window:g} reaches past the sampled depth p + q + 2 = {depth}")
    curve = tropical.tropicalize_line(family)
    # Each ladder builds its curve's polyline and pieces afresh, once, so
    # what it computes does not depend on an entry left by an earlier call.
    _curve_in_window.cache_clear()
    entries = []
    for n in bases:
        sample = sample_amoeba(family, n, count, window=window)
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
        # Cauchy-Schwarz bounds r^2 by 1, which rounding may overshoot.
        r_squared=1.0 if syy == 0 else min(1.0, sxy * sxy / (sxx * syy)),
        monotone=monotone,
    )
