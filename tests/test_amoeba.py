import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tropline import amoeba
from tropline.amoeba import (
    AmoebaSample,
    EmptySample,
    convergence_report,
    discretize_curve,
    hausdorff,
    sample_amoeba,
    sample_domain,
)
from tropline.geometry import LatticeVector
from tropline.tropical import LineFamily, Segment, tropicalize_line

from oracles import ZeroCoordinate, log_image

GOLDENS = Path(__file__).resolve().parent / "goldens"


def run_fresh(script: str, **env: str) -> None:
    """Run `script` in a fresh interpreter that imports this checkout's
    `tropline`, with `env` added to the environment; it must exit 0."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# The half-angle factors and golden angles that `_sphere` reads from the
# golden-angle table of count 20003 have the bytes of those it builds for
# each smaller count checked alone, under the numpy dispatch that
# NPY_DISABLE_CPU_FEATURES leaves.
GOLDEN_PREFIX_CHECK = """\
import os, sys
import numpy as np
from tropline import amoeba

off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
if any(np._core._multiarray_umath.__cpu_features__[feature] for feature in off):
    sys.exit(f"numpy still dispatches one of {off}")
sphere = amoeba._sphere.__wrapped__
sphere(20003, 5.0, 1.0)
large = amoeba._golden
for count in (*range(1, 200), *range(1999, 2003), *range(19999, 20003)):
    amoeba._golden = large
    prefixes = sphere(count, 5.0, 1.0)
    amoeba._golden = (0, ())
    for read, built in zip(prefixes, sphere(count, 5.0, 1.0)):
        if any(a.tobytes() != b.tobytes() for a, b in zip(read[2:], built[2:])):
            sys.exit(f"the table of count {count} is no prefix of a larger one")
amoeba._golden = large
"""


def test_numpy_loads_on_first_amoeba_name():
    """`import tropline.amoeba` leaves numpy unloaded; the first amoeba
    computation loads it."""
    run_fresh(
        "import sys\n"
        "import tropline.amoeba\n"
        "from tropline.tropical import LineFamily\n"
        "assert 'numpy' not in sys.modules\n"
        "tropline.amoeba.sample_amoeba(LineFamily(1, 2), 1e3, 30)\n"
        "assert tropline.amoeba.np is sys.modules['numpy']\n"
    )


def test_exact_submodules_load_without_numpy():
    """Importing every exact submodule, as a start-up that never samples an
    amoeba does, leaves numpy and the amoeba module unloaded."""
    run_fresh(
        "import sys\n"
        "import tropline.geometry, tropline.tropical, tropline.building\n"
        "import tropline.matching, tropline.moduli, tropline.render, tropline._linalg\n"
        "loaded = {'numpy', 'tropline.amoeba'} & set(sys.modules)\n"
        "sys.exit(f'loaded {sorted(loaded)}' if loaded else 0)\n"
    )


def amoeba_grid_cases():
    """(family, count, window, base) cases: 16 seeded families with p, q <= 3
    over denominators 1-3 at counts 1, 2, 4, 300, 2000 and 2002 (every
    count % 3), three of them also at 20000, then (40, 27) and (200, 150);
    each at windows p + q + 1 and 3/2 and bases 1e3 and 1e8."""
    rng = random.Random(181)

    def exponent():
        d = rng.choice((1, 2, 3))
        return Fraction(rng.randint(0, 3 * d), d)

    families = [(LineFamily(exponent(), exponent()), (1, 2, 4, 300, 2000, 2002)) for _ in range(16)]
    families += [(family, (20000,)) for family, _ in families[:3]]
    families += [
        (LineFamily(40, 27), (2, 300, 2000)),
        (LineFamily(200, 150), (2, 300, 2000)),
    ]
    for family, counts in families:
        for count in counts:
            for window in (float(family.p + family.q + 1), 1.5):
                for n in (1e3, 1e8):
                    yield family, count, window, n


def amoeba_grid_lines() -> list[str]:
    """One JSON line per case of `amoeba_grid_cases`: the Hausdorff distance
    as `float.hex` (or the EmptySample message) and the sha256 of the cloud's
    and of the domain's bytes."""
    lines = []
    for family, count, window, n in amoeba_grid_cases():
        sample = sample_amoeba(family, n, count)
        try:
            distance = hausdorff(sample, tropicalize_line(family), window).hex()
        except EmptySample as exc:
            distance = str(exc)
        domain = sample_domain(family, n, count)
        lines.append(json.dumps({
            "p": str(family.p), "q": str(family.q), "count": count, "window": window, "n": n,
            "hausdorff": distance,
            "points": hashlib.sha256(sample.points.tobytes()).hexdigest(),
            "domain": hashlib.sha256(domain.tobytes()).hexdigest(),
        }))
    return lines


def test_grid_pinned():
    """`goldens/amoeba-grid.txt` pins every cloud, domain and distance of
    `amoeba_grid_cases` bit for bit."""
    golden = (GOLDENS / "amoeba-grid.txt").read_text().splitlines()
    assert amoeba_grid_lines() == golden


class TestLogImage:
    def test_monomial_point_machine_exact(self):
        for n in (10.0, 1e4):
            x, y = log_image((n**-2, n**-1, 1.0), n)
            assert abs(x - 2.0) < 1e-12 and abs(y - 1.0) < 1e-12

    def test_unit_point(self):
        assert log_image((1.0, 1.0, 1.0), 100.0) == (0.0, 0.0)

    def test_coefficient_shift(self):
        n = 1e6
        x, y = log_image((5 * n**-1, 1.0, 1.0), n)
        assert abs(x - (1 - math.log(5) / math.log(n))) < 1e-12
        assert y == 0.0

    def test_clipping(self):
        x, y = log_image((100.0, 1.0, 1.0), 10.0)
        assert x == 0.0 and y == 0.0

    def test_zero_coordinate(self):
        with pytest.raises(ZeroCoordinate):
            log_image((0.0, 1.0, 1.0), 10.0)

    def test_bad_base(self):
        with pytest.raises(ValueError):
            log_image((1.0, 1.0, 1.0), 1.0)


def reference_sample(family, n, count):
    """The sampler as one all-ends formulation: every end is computed for
    every sample and `np.where` keeps the one the sample lies on."""
    p, q = float(family.p), float(family.q)
    caps = np.array((p + q + 2.0, p + q + 2.0, min(p, q)))
    per_end = np.array([len(range(e, count, 3)) for e in range(3)])
    k = np.arange(count)
    end = k % 3
    t = caps[end] * (k // 3 + 0.5) / per_end[end]
    angle = 2.0 * math.pi * ((k * amoeba._GOLDEN) % 1.0)
    log_n = math.log(n)
    near_zero, near_minus_one, near_infinity = end == 0, end == 1, end == 2
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        eps = np.power(n, -t)
        half = np.where(near_minus_one, np.sin(0.5 * angle), np.cos(0.5 * angle))
        rest = 0.5 * np.log((1.0 - eps) ** 2 + 4.0 * eps * half**2) / log_n
        log_w = np.where(near_zero, -t, np.where(near_minus_one, rest, t))
        log_w1 = np.where(near_zero, rest, np.where(near_minus_one, -t, t + rest))
        x = p - log_w
        y = q - log_w1
        radius = np.where(near_infinity, np.power(n, t), eps)
        domain = np.empty(count, dtype=np.complex128)
        domain.real = radius * np.cos(angle) - near_minus_one
        domain.imag = radius * np.sin(angle)
    points = np.column_stack((np.maximum(0.0, x), np.maximum(0.0, y)))
    return points, domain


def reference_distance_to_pieces(points, starts, moves):
    """Squared distance to the nearest piece from one (points x pieces)
    broadcast."""
    rel_x = points[:, :1] - starts[:, 0]
    rel_y = points[:, 1:] - starts[:, 1]
    dx, dy = moves[:, 0], moves[:, 1]
    length2 = dx * dx + dy * dy
    s = (rel_x * dx + rel_y * dy) / np.where(length2 > 0, length2, 1.0)
    np.clip(s, 0.0, 1.0, out=s)
    rel_x -= s * dx
    rel_y -= s * dy
    return (rel_x * rel_x + rel_y * rel_y).min(axis=1)


def reference_hausdorff(sample, curve, window):
    """sqrt(max(cloud -> curve, max over polyline points of the minimum of
    the full distance matrix)), the matrix taken in row blocks."""
    pts = sample.points
    cloud = pts[(pts[:, 0] <= window) & (pts[:, 1] <= window)]
    pieces = amoeba._window_pieces(curve, window)
    cloud_to_curve = reference_distance_to_pieces(cloud, *pieces).max()
    poly = discretize_curve(curve, window)
    curve_to_cloud = max(
        ((poly[i : i + 64, None, :] - cloud[None]) ** 2).sum(-1).min(axis=1).max()
        for i in range(0, len(poly), 64)
    )
    return float(np.sqrt(max(cloud_to_curve, curve_to_cloud)))


@pytest.fixture
def branches(monkeypatch):
    """Counts of polyline points certified within the cloud -> curve
    distance and of those sent to the exact grid search."""
    seen = {"certified": 0, "searched": 0}
    nearest, search = amoeba._squared_nearest, amoeba._grid_search

    def counting_nearest(targets, cx, cy, bound):
        seen["certified"] += len(targets)
        return nearest(targets, cx, cy, bound)

    def counting_search(tx, *grid):
        seen["certified"] -= len(tx)
        seen["searched"] += len(tx)
        return search(tx, *grid)

    monkeypatch.setattr(amoeba, "_squared_nearest", counting_nearest)
    monkeypatch.setattr(amoeba, "_grid_search", counting_search)
    return seen


class TestSampler:
    @pytest.mark.parametrize(
        "family",
        [
            LineFamily(4, 3),
            LineFamily(Fraction(7, 3), 2),
            LineFamily(0, 0),
            LineFamily(40, 27),
            LineFamily(200, 150),
        ],
    )
    def test_per_end_sampler_equals_all_ends_reference(self, family):
        for n in (1e3, 1e8):
            for count in (1, 2, 5, 2000):
                sample = sample_amoeba(family, n, count)
                points, domain = reference_sample(family, n, count)
                assert np.array_equal(sample.points, points)
                got = sample_domain(family, n, count)
                assert np.array_equal(got, domain, equal_nan=True)

    def test_ladder_builds_one_sphere(self, monkeypatch):
        """A ladder builds one sphere.  Ladders of two families at one
        count build the golden-angle table once, and a smaller count
        afterwards reads it without building another."""
        monkeypatch.setattr(amoeba, "_golden", (0, ()))
        amoeba._sphere.cache_clear()
        bases = [1e3, 1e4, 1e6, 1e8]
        convergence_report(LineFamily(1, 2), bases, 2000, 4.0)
        info = amoeba._sphere.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        table = amoeba._golden
        assert table[0] == 2000
        convergence_report(LineFamily(Fraction(3, 2), 2), bases, 2000, 4.0)
        convergence_report(LineFamily(1, 2), bases, 300, 4.0)
        assert amoeba._sphere.cache_info().misses == 3
        assert amoeba._golden is table

    def test_golden_table_prefixes_are_smaller_tables(self):
        """Each array of the golden-angle table built for a larger count
        begins with the bytes of the table built for a smaller one, here and
        in a fresh interpreter with numpy's AVX-512 dispatch targets off."""
        exec(GOLDEN_PREFIX_CHECK, {})
        umath = np._core._multiarray_umath
        found = [
            feature for feature in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
            if feature in umath.__cpu_dispatch__ and umath.__cpu_features__[feature]
        ]
        run_fresh(GOLDEN_PREFIX_CHECK, NPY_DISABLE_CPU_FEATURES=" ".join(found))

    def test_sphere_arrays_are_read_only(self):
        sphere = amoeba._sphere(2000, 5.0, 1.0)
        assert len(sphere) == 3 and all(len(arrays) == 4 for arrays in sphere)
        for arrays in sphere:
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    def test_points_are_column_major(self):
        """The cloud is stored column-major; it equals, byte for byte, the
        reference built row by row."""
        for count in (1, 2, 2000, 2002):
            sample = sample_amoeba(LineFamily(Fraction(3, 2), 3), 1e6, count)
            points, _ = reference_sample(LineFamily(Fraction(3, 2), 3), 1e6, count)
            assert sample.points.flags.f_contiguous and points.flags.c_contiguous
            assert np.array_equal(sample.points, points)
            assert sample.points.tobytes() == points.tobytes()

    def test_sphere_shares_depths_of_equal_ends(self):
        """Ends 0 and -1 reach the same depth, so with as many samples each
        (count 2000 = 3 * 666 + 2) end -1 reuses end 0's t and -t; with one
        sample more on end 0 (count 2002 = 3 * 667 + 1) it has its own."""
        zero, minus_one, _ = amoeba._sphere(2000, 5.0, 1.0)
        assert minus_one[0] is zero[0] and minus_one[1] is zero[1]
        zero, minus_one, _ = amoeba._sphere(2002, 5.0, 1.0)
        assert len(minus_one[0]) == len(zero[0]) - 1
        assert minus_one[0] is not zero[0] and minus_one[1] is not zero[1]

    def test_sphere_key_holds_the_infinity_cap(self):
        # (1, 3) and (2, 2) share p + q + 2 but not min(p, q).
        for p, q in ((1, 3), (2, 2)):
            sample = sample_amoeba(LineFamily(p, q), 1e4, 2000)
            points, domain = reference_sample(LineFamily(p, q), 1e4, 2000)
            assert np.array_equal(sample.points, points)
            assert np.array_equal(sample_domain(LineFamily(p, q), 1e4, 2000), domain)

    def test_deterministic(self):
        a = sample_amoeba(LineFamily(4, 3), 1e4, 500)
        b = sample_amoeba(LineFamily(4, 3), 1e4, 500)
        assert np.array_equal(a.points, b.points)
        domains = [sample_domain(LineFamily(4, 3), 1e4, 500) for _ in range(2)]
        assert np.array_equal(*domains)

    def test_clipped_to_quadrant(self):
        sample = sample_amoeba(LineFamily(2, 1), 1e3, 800)
        assert (sample.points >= 0).all()

    def test_cloud_concentrates_near_curve(self):
        curve = tropicalize_line(LineFamily(4, 3))
        d1 = hausdorff(sample_amoeba(LineFamily(4, 3), 1e4, 2000), curve, 8.0)
        d8 = hausdorff(sample_amoeba(LineFamily(4, 3), 1e8, 2000), curve, 8.0)
        assert d8 < d1

    def test_base_cap(self):
        with pytest.raises(ValueError):
            sample_amoeba(LineFamily(1, 1), 1e9, 10)

    def test_minus_one_end_depth(self):
        # Near -1, w + 1 = n^(-t) e^(i a), so Y = q + t; |w| is near 1
        # there, so X can be checked against the domain point.
        n, count = 1e4, 20000
        family = LineFamily(1, Fraction(5, 2))
        sample = sample_amoeba(family, n, count)
        k = np.arange(1, count, 3)
        max_depth = 1 + 2.5 + 2  # p + q + 2
        t = max_depth * (k // 3 + 0.5) / len(k)
        expected_y = 2.5 + t
        assert np.abs(sample.points[k, 1] - expected_y).max() < 1e-9
        expected_x = 1 - np.log(np.abs(sample_domain(family, n, count)[k])) / math.log(n)
        assert np.abs(sample.points[k, 0] - expected_x).max() < 1e-9

    def test_matches_log_image_off_minus_one(self):
        # Away from w = -1 the linear-space oracle has no cancellation.
        family = LineFamily(Fraction(7, 3), 2)
        n = 1e3
        sample = sample_amoeba(family, n, 3000)
        domain = sample_domain(family, n, 3000)
        x_n = n ** -float(family.p)
        y_n = n ** -float(family.q)
        for k in range(3000):
            if k % 3 == 1:
                continue
            w = complex(domain[k])
            expected = log_image((x_n * w, y_n * (w + 1.0), 1.0), n)
            assert np.abs(sample.points[k] - expected).max() < 1e-9

    def test_extreme_exponents_keep_every_point(self):
        for n in (1e3, 1e8):
            sample = sample_amoeba(LineFamily(200, 150), n, 2000)
            assert sample.points.shape == (2000, 2)
            assert np.isfinite(sample.points).all()

    def test_ordinary_line_cloud(self):
        curve = tropicalize_line(LineFamily(0, 0))
        d = hausdorff(sample_amoeba(LineFamily(0, 0), 1e6, 2000), curve, 2.0)
        assert d < 0.2


def windowed_cases():
    """(family, count, window) cases: every family of `amoeba_grid_cases` at
    counts 1, 2, 2000 and 20000 and windows p + q + 1 and 3/2."""
    families = dict.fromkeys(family for family, *_ in amoeba_grid_cases())
    for family in families:
        for count in (1, 2, 2000, 20000):
            for window in (float(family.p + family.q + 1), 1.5):
                yield family, count, window


def sorted_rows(points) -> bytes:
    """The rows of a (k, 2) float array as a multiset: their bytes, sorted."""
    return np.sort(np.ascontiguousarray(points).view("V16").ravel()).tobytes()


def distance_or_empty(fn, *args):
    try:
        return fn(*args)
    except EmptySample as exc:
        return str(exc)


class TestWindowedSampler:
    def test_rows_are_the_full_clouds_in_window_rows(self):
        """The windowed cloud holds the full cloud's in-window rows, as the
        same floats, listed end by end, in two contiguous columns."""
        for family, count, window in windowed_cases():
            for n in (1e3, 1e8):
                full = sample_amoeba(family, n, count).points
                got = sample_amoeba(family, n, count, window=window).points
                assert got.flags.f_contiguous
                inside = full[(full[:, 0] <= window) & (full[:, 1] <= window)]
                assert sorted_rows(got) == sorted_rows(inside)
                by_end = [full[end::3] for end in range(3)]
                by_end = [e[(e[:, 0] <= window) & (e[:, 1] <= window)] for e in by_end]
                assert got.tobytes() == np.concatenate(by_end).tobytes()

    def test_ladder_equals_full_clouds(self):
        """Each ladder entry is, bit for bit, the distance of the full
        cloud; an empty window raises the same EmptySample."""
        bases = [1e3, 1e4, 1e6, 1e8]
        for family, count, window in windowed_cases():
            curve = tropicalize_line(family)
            expected = [
                distance_or_empty(hausdorff, sample_amoeba(family, n, count), curve, window)
                for n in bases
            ]
            report = distance_or_empty(convergence_report, family, bases, count, window)
            if isinstance(report, str):
                assert report == next(d for d in expected if isinstance(d, str))
            else:
                assert [d for _, d in report.entries] == expected

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf, 1e300, 5e-324])
    def test_refused_window(self, window):
        with pytest.raises(ValueError) as refused:
            amoeba._window_step(window)
        with pytest.raises(ValueError) as info:
            sample_amoeba(LineFamily(1, 2), 1e4, 200, window=window)
        assert str(info.value) == str(refused.value)

    def test_in_window_cloud_is_measured_as_it_is(self, monkeypatch):
        """hausdorff hands a cloud that lies inside the window to the
        distance helpers as the sample's own columns, without a copy."""
        seen = []
        pieces = amoeba._squared_distance_to_pieces

        def recording(px, py, starts, moves):
            seen.append((px, py))
            return pieces(px, py, starts, moves)

        monkeypatch.setattr(amoeba, "_squared_distance_to_pieces", recording)
        curve = tropicalize_line(LineFamily(1, 2))
        for window, shared in ((4.0, True), (2.0, False)):
            sample = sample_amoeba(LineFamily(1, 2), 1e4, 2000, window=4.0)
            hausdorff(sample, curve, window)
            px, py = seen.pop()
            assert np.shares_memory(px, sample.points) is shared
            assert np.shares_memory(py, sample.points) is shared


class TestHausdorff:
    def test_self_distance_is_discretization_level(self):
        curve = tropicalize_line(LineFamily(4, 3))
        poly = discretize_curve(curve, 8.0)
        sample = AmoebaSample(n=10.0, points=poly)
        assert hausdorff(sample, curve, 8.0) < 8.0 / 256
        assert hausdorff(sample, curve, 8.0) >= 0.0

    def test_empty_sample(self):
        sample = AmoebaSample(n=10.0, points=np.array([[9.0, 9.0]]))
        with pytest.raises(EmptySample):
            hausdorff(sample, tropicalize_line(LineFamily(1, 1)), 2.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan])
    def test_non_positive_window(self, window):
        # (1, 2) has a segment, so a zero window once divided by zero.
        curve = tropicalize_line(LineFamily(1, 2))
        sample = sample_amoeba(LineFamily(1, 2), 1e4, 200)
        with pytest.raises(ValueError, match="must be positive"):
            discretize_curve(curve, window)
        with pytest.raises(ValueError, match="must be positive"):
            hausdorff(sample, curve, window)

    @pytest.mark.parametrize("window", [1e300, math.inf])
    def test_window_above_range(self, window):
        curve = tropicalize_line(LineFamily(1, 2))
        sample = sample_amoeba(LineFamily(1, 2), 1e4, 200)
        with pytest.raises(ValueError) as info:
            hausdorff(sample, curve, window)
        assert str(info.value) == f"window {window} must be positive and at most 1e+150"

    def test_tiny_windows_walk_only_inside(self):
        """A window far below the vertices forms no polyline point, however
        small; a window whose step rounds to 0 is refused by name."""
        curve = tropicalize_line(LineFamily(1, 2))
        for window in (1e-5, 1e-7, 1e-13, 1e-300, 1e-310):
            assert discretize_curve(curve, window).shape == (0, 2)
        # The (0, 0) vertex is the origin: each of its two rays is walked in
        # 512 steps, both ends included.
        assert len(discretize_curve(tropicalize_line(LineFamily(0, 0)), 1e-300)) == 2 * (1 + 512)
        with pytest.raises(ValueError, match=r"^window 5e-324 is too small"):
            discretize_curve(curve, 5e-324)

    def test_walk_steps_along_window_pieces(self):
        """The polyline walks each `_window_pieces` piece from end to end in
        steps of at most window / 512, on windows below, between and past
        the vertices and on curves with a reflected segment: every point
        lies on a piece and within one ulp of [0, window]^2, and each piece
        holds points at both its ends and no wider gap than a step."""
        rng = np.random.default_rng(17)
        for p, q in ((1, 2), (4, 3), (0, 0), (Fraction(3, 2), 3), (Fraction(7, 3), 2)):
            curve = tropicalize_line(LineFamily(p, q))
            flipped = tuple(
                Segment(s.head, s.tail, LatticeVector(-s.contact.x, -s.contact.y), s.length)
                for s in curve.segments
            )
            for c in (curve, dataclasses.replace(curve, segments=flipped)):
                top = float(p + q + 2)
                windows = [0.3, float(min(p, q)) or 0.7, float(p) or 0.9, float(p + q + 1), top]
                windows += list(rng.uniform(0.01, top, 6))
                for window in windows:
                    poly = discretize_curve(c, window)
                    starts, moves = amoeba._window_pieces(c, window)
                    # Rounding in the walk and in these checks stays within a few ulps.
                    step, tol = window / 512, 4 * np.spacing(window)
                    if len(starts) == 0:
                        assert poly.shape == (0, 2)
                        continue
                    assert (poly >= np.nextafter(0.0, -1.0)).all()
                    assert (poly <= np.nextafter(window, math.inf)).all()
                    assert (reference_distance_to_pieces(poly, starts, moves) <= tol**2).all()
                    for start, move in zip(starts, moves):
                        length = math.hypot(*move)
                        rel = poly - start
                        along = rel @ move / (length or 1.0)
                        off = np.abs(rel[:, 0] * move[1] - rel[:, 1] * move[0]) / (length or 1.0)
                        on = (off <= tol) & (along >= -tol) & (along <= length + tol)
                        on = np.sort(along[on])
                        assert len(on) > 0 and on[0] <= tol and on[-1] >= length - tol
                        assert (np.diff(on) <= step + tol).all()

    def test_mirror_isometry_is_exact(self):
        sample = sample_amoeba(LineFamily(4, 3), 1e4, 1500)
        swapped = AmoebaSample(n=sample.n, points=sample.points[:, ::-1].copy())
        d = hausdorff(sample, tropicalize_line(LineFamily(4, 3)), 8.0)
        d_swapped = hausdorff(swapped, tropicalize_line(LineFamily(3, 4)), 8.0)
        assert d == d_swapped

    def test_cloud_to_curve_is_exact(self):
        # Far from the curve, the cloud-to-curve side dominates: it must match
        # the distance to a fine polyline, each window piece walked in equal
        # steps of at most 8 / 20000, to within half a step.
        curve = tropicalize_line(LineFamily(4, 3))
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 8.0, (300, 2))
        sample = AmoebaSample(n=10.0, points=points)
        fine = np.concatenate([
            start + move * np.linspace(0.0, 1.0, math.ceil(math.hypot(*move) / 4e-4) + 1)[:, None]
            for start, move in zip(*amoeba._window_pieces(curve, 8.0))
        ])
        nearest = np.sqrt(((sample.points[:, None, :] - fine[None]) ** 2).sum(-1)).min(axis=1)
        d = hausdorff(sample, curve, 8.0)
        assert nearest.max() - 8.0 / 40000 <= d <= nearest.max()

    def test_window_cuts_pieces(self):
        # In the window [0, 2.5]^2, the (4, 3) segment ends at (2.5, 1.5),
        # whichever end it starts from, so the corner is at distance 1; the
        # (1, 3) curve keeps only the segment from (0, 2) to (0.5, 2.5), its
        # ray along y = 3 lying outside, so the corner is at distance 2.
        curve = tropicalize_line(LineFamily(4, 3))
        seg = curve.segments[0]
        flipped = Segment(seg.head, seg.tail, LatticeVector(-1, -1), seg.length)
        cases = (
            (curve, 1.0),
            (dataclasses.replace(curve, segments=(flipped,)), 1.0),
            (tropicalize_line(LineFamily(1, 3)), 2.0),
        )
        for c, expected in cases:
            points = np.vstack([discretize_curve(c, 2.5), [[2.5, 2.5]]])
            sample = AmoebaSample(n=10.0, points=points)
            assert abs(hausdorff(sample, c, 2.5) - expected) < 1e-9

    def test_per_piece_distance_equals_broadcast_reference(self):
        rng = np.random.default_rng(3)
        points = np.concatenate([rng.uniform(-1.0, 9.0, (700, 2)), [[9.0, 9.0]]])
        for p, q, window in ((4, 3, 8.0), (1, 3, 2.5), (0, 0, 3.0), (Fraction(3, 2), 3, 5.5)):
            pieces = amoeba._window_pieces(tropicalize_line(LineFamily(p, q)), window)
            assert np.array_equal(
                amoeba._squared_distance_to_pieces(points[:, 0], points[:, 1], *pieces),
                reference_distance_to_pieces(points, *pieces),
            )

    @pytest.mark.parametrize(
        "start, move",
        [((1.0, 2.0), (3.0, 0.0)), ((1.0, 2.0), (0.0, -2.5)), ((1.0, 2.0), (0.0, 0.0))],
        ids=["horizontal", "vertical", "zero-length"],
    )
    def test_axis_pieces_equal_two_term_formula(self, start, move):
        """Skipping a zero component of the displacement gives the float of
        the two-term formula, also where that formula makes signed zeros."""
        sx, sy = start
        dx, dy = move
        coords = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.5, 4.0, 7.0])
        px, py = (a.ravel() for a in np.meshgrid(coords, coords))
        rel_x, rel_y = px - sx, py - sy
        length2 = dx * dx + dy * dy
        s = np.clip((rel_x * dx + rel_y * dy) / (length2 if length2 > 0 else 1.0), 0.0, 1.0)
        rel_x = rel_x - s * dx
        rel_y = rel_y - s * dy
        expected = rel_x * rel_x + rel_y * rel_y
        got = amoeba._squared_distance_to_pieces(px, py, np.array([start]), np.array([move]))
        assert got.tobytes() == expected.tobytes()

    def test_bucketed_nearest_equals_full_matrix(self):
        # Exact above the bound and at most the bound below it, on a grid of
        # many cells (one outlier) and of one cell (outliers 1e15 away).
        rng = np.random.default_rng(11)
        targets = rng.uniform(0.0, 8.0, (400, 2))
        outliers = np.array([[-50.0, 3.0], [1e12, 1e12], [4.0, -1e15]])
        for size in (5000, 40, 3000, 1, 0):
            points = rng.uniform(0.0, 8.0, (size, 2))
            for far in (outliers[:1], outliers):
                cloud = np.concatenate([points, far])
                full = ((targets[:, None, :] - cloud[None]) ** 2).sum(-1).min(axis=1)
                for bound in (0.0, 1e-4, 0.5):
                    got = amoeba._squared_nearest(targets, cloud[:, 0], cloud[:, 1], bound)
                    above = full > bound
                    assert np.array_equal(got[above], full[above])
                    assert (got[~above] <= bound).all()
                    if bound == 0:
                        assert np.array_equal(got, full)

    @settings(max_examples=200, deadline=None)
    @given(
        targets=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40),
        cloud=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40),
        scale=st.sampled_from([1.0, 8.0, 1e6]),
        bound=st.sampled_from([0.0, 1e-4, 0.5]),
    )
    # The cloud in the far corner: the search stops only when it covers the grid.
    @example(targets=[(0.0, 0.0)], cloud=[(1.0, 1.0)] * 25, scale=1.0, bound=0.0)
    def test_sparse_nearest_equals_full_matrix(self, targets, cloud, scale, bound):
        """Few cloud points, so the nearest one is often many cells away."""
        targets, cloud = scale * np.array(targets), scale * np.array(cloud)
        full = ((targets[:, None, :] - cloud[None]) ** 2).sum(-1).min(axis=1)
        got = amoeba._squared_nearest(targets, cloud[:, 0].copy(), cloud[:, 1].copy(), bound)
        above = full > bound
        assert np.array_equal(got[above], full[above])
        assert (got[~above] <= bound).all()

    @settings(max_examples=60, deadline=None)
    @given(
        pq=st.sampled_from([(1, 2), (4, 3), (Fraction(3, 2), 3), (0, 0), (2, 2)]),
        unit=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30),
        corners=st.booleans(),
        dense=st.booleans(),
    )
    @example(pq=(1, 2), unit=[(0.5, 0.5)], corners=False, dense=False)
    def test_sparse_clouds_equal_full_matrix(self, pq, unit, corners, dense):
        """Few cloud points, optionally with the far corners of the window
        or a 300-point sample: the grid search runs at several radii."""
        p, q = pq
        window = float(p + q + 1)
        points = [window * np.array(unit)]
        if corners:
            points.append([[window, window], [window, 0.0], [0.0, window]])
        if dense:
            points.append(sample_amoeba(LineFamily(p, q), 1e4, 300).points)
        points = np.vstack(points)
        sample = AmoebaSample(n=10.0, points=points)
        curve = tropicalize_line(LineFamily(p, q))
        assert hausdorff(sample, curve, window) == reference_hausdorff(sample, curve, window)

    @pytest.mark.parametrize("p, q", [(2, 1), (Fraction(3, 2), 3)])
    def test_certified_ladder_equals_full_matrix(self, branches, p, q):
        curve = tropicalize_line(LineFamily(p, q))
        for n in (1e3, 1e4, 1e6, 1e8):
            sample = sample_amoeba(LineFamily(p, q), n, 20000)
            window = float(p + q + 1)
            assert hausdorff(sample, curve, window) == reference_hausdorff(sample, curve, window)
        assert branches["certified"] > 0

    def test_deep_family_falls_back_to_exact_search(self, branches):
        # At 2000 samples the (40, 27) polyline has gaps wider than the
        # cloud's distance to the curve, so curve -> cloud decides.
        curve = tropicalize_line(LineFamily(40, 27))
        sample = sample_amoeba(LineFamily(40, 27), 1e4, 2000)
        d = hausdorff(sample, curve, 68.0)
        assert d == reference_hausdorff(sample, curve, 68.0)
        cloud = sample.points[(sample.points <= 68.0).all(axis=1)]
        pieces = amoeba._window_pieces(curve, 68.0)
        cloud_to_curve = amoeba._squared_distance_to_pieces(
            cloud[:, 0], cloud[:, 1], *pieces
        ).max()
        assert d > math.sqrt(cloud_to_curve)
        assert branches["searched"] > 0

    def test_wide_window_falls_back_to_exact_search(self, branches):
        curve = tropicalize_line(LineFamily(1, 2))
        sample = sample_amoeba(LineFamily(1, 2), 1e6, 2000)
        assert hausdorff(sample, curve, 10.0) == reference_hausdorff(sample, curve, 10.0)
        assert branches["searched"] > 0

    @pytest.mark.parametrize("pairs", [1, 50, 4000])
    def test_search_in_slices_equals_full_matrix(self, monkeypatch, branches, pairs):
        # Slices of one target, of a few targets and of many: the nearest
        # distances do not depend on how a round is cut.
        monkeypatch.setattr(amoeba, "_PAIRS", pairs)
        curve = tropicalize_line(LineFamily(1, 2))
        sample = sample_amoeba(LineFamily(1, 2), 1e6, 600)
        assert hausdorff(sample, curve, 10.0) == reference_hausdorff(sample, curve, 10.0)
        assert branches["searched"] > 0

    def test_one_point_cloud(self, branches):
        curve = tropicalize_line(LineFamily(1, 2))
        sample = AmoebaSample(n=10.0, points=np.array([[2.5, 0.5]]))
        assert hausdorff(sample, curve, 4.0) == reference_hausdorff(sample, curve, 4.0)
        assert branches["certified"] > 0 and branches["searched"] > 0

    def test_cloud_on_the_curve_certifies_nothing(self, branches):
        # The polyline points at distance exactly 0 from the pieces: the
        # cloud -> curve distance is 0, so every point is searched.
        curve = tropicalize_line(LineFamily(4, 3))
        poly = discretize_curve(curve, 8.0)
        pieces = amoeba._window_pieces(curve, 8.0)
        points = poly[amoeba._squared_distance_to_pieces(poly[:, 0], poly[:, 1], *pieces) == 0]
        sample = AmoebaSample(n=10.0, points=points)
        d = hausdorff(sample, curve, 8.0)
        assert d == reference_hausdorff(sample, curve, 8.0) and d > 0
        assert branches == {"certified": 0, "searched": len(poly)}

    def test_thinned_probe_searches_the_whole_cloud(self, branches):
        """The probe grid holds every 4th cloud point; a polyline point it
        leaves uncertified is searched over the whole cloud.  Here the
        farthest one's nearest cloud point is not among those the probe
        holds, and without it the distance would be larger."""
        curve = tropicalize_line(LineFamily(1, 2))
        poly = discretize_curve(curve, 4.0)
        points = poly[::60] + 0.01
        sample = AmoebaSample(n=10.0, points=points)
        pieces = amoeba._window_pieces(curve, 4.0)
        bound = amoeba._squared_distance_to_pieces(points[:, 0], points[:, 1], *pieces).max()
        squared = ((poly[:, None, :] - points[None]) ** 2).sum(-1)
        farthest = squared.min(axis=1).argmax()
        assert squared[farthest].argmin() % 4 != 0
        assert squared[farthest].min() > bound > 0
        assert squared[:, ::4].min(axis=1).max() > squared[farthest].min()
        assert hausdorff(sample, curve, 4.0) == reference_hausdorff(sample, curve, 4.0)
        assert branches["searched"] > 0

    def test_mirror_family_statistics(self):
        d1, d2 = (
            hausdorff(sample_amoeba(family, 1e4, 2000), tropicalize_line(family), 8.0)
            for family in (LineFamily(4, 3), LineFamily(3, 4))
        )
        assert abs(d1 - d2) < 0.25 * max(d1, d2)


class TestConvergence:
    def test_example_ladder(self):
        report = convergence_report(LineFamily(4, 3), [1e3, 1e4, 1e6, 1e8], 2000, 8.0)
        distances = [d for _, d in report.entries]
        assert report.monotone
        for a, b in zip(distances, distances[1:]):
            assert b < a * 1.1
        assert distances[-1] < distances[0]
        assert report.decay_constant > 0
        assert report.r_squared >= 0.9

    def test_deep_family_ladder(self):
        # At (40, 27) n^(-p) underflows in linear space; in log space every
        # point is kept and the ladder converges.
        family = LineFamily(40, 27)
        report = convergence_report(family, [1e3, 1e4, 1e6, 1e8], 20000, 68.0)
        distances = [d for _, d in report.entries]
        assert report.monotone
        for a, b in zip(distances, distances[1:]):
            assert b < a * 1.1
        assert report.r_squared >= 0.9
        for n, _ in report.entries:
            assert len(sample_amoeba(family, n, 20000).points) == 20000

    def test_two_bases_fit_exactly(self):
        # Two bases fit a line exactly, and the closed form rounds to
        # 1.0000000000000002 on this ladder (`trop amoeba --p 1 --q 2
        # --n 1e3,1e4`) unless it is kept at or below 1.
        report = convergence_report(LineFamily(1, 2), [1e3, 1e4], 2000, 4.0)
        assert report.r_squared == 1.0

    def test_ladder_builds_one_polyline(self, monkeypatch):
        polylines = []

        def counting(curve, window):
            polylines.append(window)
            return discretize_curve(curve, window)

        monkeypatch.setattr(amoeba, "discretize_curve", counting)
        # The second ladder builds its own, though the first left one behind.
        for _ in range(2):
            convergence_report(LineFamily(1, 2), [1e3, 1e4, 1e6, 1e8], 2000, 4.0)
            info = amoeba._curve_in_window.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert polylines == [4.0, 4.0]
        for a in amoeba._curve_in_window(tropicalize_line(LineFamily(1, 2)), 4.0):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_ladder_builds_no_domain(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ladder reads only the clouds")

        monkeypatch.setattr(amoeba, "sample_domain", refuse)
        report = convergence_report(LineFamily(1, 2), [1e3, 1e4, 1e6, 1e8], 2000, 4.0)
        assert len(report.entries) == 4

    def test_ladder_samples_only_the_window(self, monkeypatch):
        windows = []

        def recording(family, n, count, window=None):
            windows.append(window)
            return sample_amoeba(family, n, count, window)

        monkeypatch.setattr(amoeba, "sample_amoeba", recording)
        convergence_report(LineFamily(1, 2), [1e3, 1e4, 1e6, 1e8], 2000, 4.0)
        assert windows == [4.0] * 4

    def test_ring_probe_certifies_dense_ladder(self, branches):
        """On a dense ladder every polyline point that its own cell leaves
        uncertified is certified by one of the 8 cells around it, so none
        reaches the exact search; without that probe 44 of them would."""
        convergence_report(LineFamily(4, 3), [1e3, 1e4, 1e6, 1e8], 20000, 8.0)
        assert branches == {"certified": 3404, "searched": 0}

    @pytest.mark.parametrize("bases", [[1e3], [1e3, 1e3], []])
    def test_fewer_than_two_distinct_bases(self, bases):
        with pytest.raises(ValueError, match="two distinct bases"):
            convergence_report(LineFamily(1, 2), bases, 200, 4.0)

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -1.0, 1e300])
    def test_window_out_of_range(self, window):
        with pytest.raises(ValueError, match="window .* must be positive"):
            convergence_report(LineFamily(1, 2), [1e3, 1e4], 200, window)

    def test_tiny_window_is_empty_at_once(self):
        """A window far below the curve's vertices builds no polyline, so
        the ladder stops at its empty cloud instead of walking every piece
        at window / 512."""
        with pytest.raises(EmptySample, match="no sample points inside the window"):
            convergence_report(LineFamily(1, 2), [1e3, 1e4], 200, 1e-7)
        with pytest.raises(ValueError, match=r"^window 5e-324 is too small"):
            convergence_report(LineFamily(1, 2), [1e3, 1e4], 200, 5e-324)

    def test_window_beyond_sampled_depth(self):
        """The cloud reaches depth p + q + 2; a wider window would measure the
        unsampled part of the rays, so it is refused, and the bound itself is
        accepted."""
        with pytest.raises(ValueError, match=r"sampled depth p \+ q \+ 2 = 9/2"):
            convergence_report(LineFamily(Fraction(1, 2), 2), [1e3, 1e4], 200, 4.75)
        report = convergence_report(LineFamily(Fraction(1, 2), 2), [1e3, 1e4], 200, 4.5)
        assert len(report.entries) == 2
