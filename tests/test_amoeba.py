import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from tropline import amoeba
from tropline.amoeba import (
    AmoebaSample,
    EmptySample,
    ZeroCoordinate,
    convergence_report,
    discretize_curve,
    hausdorff,
    log_image,
    sample_amoeba,
)
from tropline.geometry import LatticeVector
from tropline.tropical import LineFamily, Segment, tropicalize_line


def fam(p, q, c1=1.0, c2=1.0):
    return LineFamily.of(p, q, c1, c2)


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


def reference_sample(family, n, count, depth=None):
    """The sampler as one all-ends formulation: every end is computed for
    every sample and `np.where` keeps the one the sample lies on."""
    p, q = float(family.p), float(family.q)
    max_depth = depth if depth is not None else p + q + 2.0
    caps = np.array((max_depth, max_depth, min(p, q)))
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
        x = p - math.log(abs(family.c1)) / log_n - log_w
        y = q - math.log(abs(family.c2)) / log_n - log_w1
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


class TestSampler:
    @pytest.mark.parametrize(
        "family, depth",
        [
            (fam(4, 3), None),
            (fam(Fraction(7, 3), 2, c1=3.0 - 1.0j, c2=0.25), None),
            (fam(0, 0), 4.0),
            (fam(40, 27), None),
            (fam(200, 150), None),
        ],
    )
    def test_per_end_sampler_equals_all_ends_reference(self, family, depth):
        for n in (1e3, 1e8):
            for count in (1, 2, 5, 2000):
                sample = sample_amoeba(family, n, count, depth=depth)
                points, domain = reference_sample(family, n, count, depth)
                assert np.array_equal(sample.points, points)
                assert np.array_equal(sample.domain, domain, equal_nan=True)

    def test_deterministic(self):
        a = sample_amoeba(fam(4, 3), 1e4, 500)
        b = sample_amoeba(fam(4, 3), 1e4, 500)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.domain, b.domain)

    def test_clipped_to_quadrant(self):
        sample = sample_amoeba(fam(2, 1), 1e3, 800)
        assert (sample.points >= 0).all()

    def test_cloud_concentrates_near_curve(self):
        curve = tropicalize_line(fam(4, 3))
        d1 = hausdorff(sample_amoeba(fam(4, 3), 1e4, 2000), curve, 8.0)
        d8 = hausdorff(sample_amoeba(fam(4, 3), 1e8, 2000), curve, 8.0)
        assert d8 < d1

    def test_base_cap(self):
        with pytest.raises(ValueError):
            sample_amoeba(fam(1, 1), 1e9, 10)

    @pytest.mark.parametrize("c2", [1.0, 0.5 + 2.0j])
    def test_minus_one_end_depth(self, c2):
        # Near -1, w + 1 = n^(-t) e^(i a), so Y = q + t - log|c2| / log n;
        # |w| is near 1 there, so X can be checked against the domain point.
        n, count = 1e4, 20000
        sample = sample_amoeba(fam(1, Fraction(5, 2), c2=c2), n, count)
        k = np.arange(1, count, 3)
        max_depth = 1 + 2.5 + 2  # p + q + 2
        t = max_depth * (k // 3 + 0.5) / len(k)
        expected_y = 2.5 + t - math.log(abs(c2)) / math.log(n)
        assert np.abs(sample.points[k, 1] - expected_y).max() < 1e-9
        expected_x = 1 - np.log(np.abs(sample.domain[k])) / math.log(n)
        assert np.abs(sample.points[k, 0] - expected_x).max() < 1e-9

    def test_matches_log_image_off_minus_one(self):
        # Away from w = -1 the linear-space oracle has no cancellation.
        family = fam(Fraction(7, 3), 2, c1=3.0 - 1.0j, c2=0.25)
        n = 1e3
        sample = sample_amoeba(family, n, 3000)
        x_n = family.c1 * n ** -float(family.p)
        y_n = family.c2 * n ** -float(family.q)
        for k in range(3000):
            if k % 3 == 1:
                continue
            w = complex(sample.domain[k])
            expected = log_image((x_n * w, y_n * (w + 1.0), 1.0), n)
            assert np.abs(sample.points[k] - expected).max() < 1e-9

    def test_extreme_exponents_keep_every_point(self):
        for n in (1e3, 1e8):
            sample = sample_amoeba(fam(200, 150), n, 2000)
            assert sample.points.shape == (2000, 2)
            assert np.isfinite(sample.points).all()

    def test_ordinary_line_cloud(self):
        curve = tropicalize_line(fam(0, 0))
        d = hausdorff(sample_amoeba(fam(0, 0), 1e6, 2000, depth=4.0), curve, 3.0)
        assert d < 0.2


class TestHausdorff:
    def test_self_distance_is_discretization_level(self):
        curve = tropicalize_line(fam(4, 3))
        poly = discretize_curve(curve, 8.0)
        sample = AmoebaSample(n=10.0, points=poly, domain=np.zeros(len(poly)))
        assert hausdorff(sample, curve, 8.0) < 8.0 / 256
        assert hausdorff(sample, curve, 8.0) >= 0.0

    def test_empty_sample(self):
        sample = AmoebaSample(
            n=10.0, points=np.array([[9.0, 9.0]]), domain=np.zeros(1)
        )
        with pytest.raises(EmptySample):
            hausdorff(sample, tropicalize_line(fam(1, 1)), 2.0)

    def test_mirror_isometry_is_exact(self):
        sample = sample_amoeba(fam(4, 3), 1e4, 1500)
        swapped = AmoebaSample(
            n=sample.n, points=sample.points[:, ::-1].copy(), domain=sample.domain
        )
        d = hausdorff(sample, tropicalize_line(fam(4, 3)), 8.0)
        d_swapped = hausdorff(swapped, tropicalize_line(fam(3, 4)), 8.0)
        assert d == d_swapped

    def test_cloud_to_curve_is_exact(self):
        # Far from the curve, the cloud-to-curve side dominates: it must match
        # the distance to a fine polyline to within half its step.
        curve = tropicalize_line(fam(4, 3))
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 8.0, (300, 2))
        sample = AmoebaSample(n=10.0, points=points, domain=np.zeros(300))
        fine = discretize_curve(curve, 8.0, step=8.0 / 20000)
        nearest = np.sqrt(((sample.points[:, None, :] - fine[None]) ** 2).sum(-1)).min(axis=1)
        d = hausdorff(sample, curve, 8.0)
        assert nearest.max() - 8.0 / 40000 <= d <= nearest.max()

    def test_window_cuts_pieces(self):
        # In the window [0, 2.5]^2, the (4, 3) segment ends at (2.5, 1.5),
        # whichever end it starts from, so the corner is at distance 1; the
        # (1, 3) curve keeps only the segment from (0, 2) to (0.5, 2.5), its
        # ray along y = 3 lying outside, so the corner is at distance 2.
        curve = tropicalize_line(fam(4, 3))
        seg = curve.segments[0]
        flipped = Segment(seg.head, seg.tail, LatticeVector(-1, -1), seg.length)
        cases = (
            (curve, 1.0),
            (dataclasses.replace(curve, segments=(flipped,)), 1.0),
            (tropicalize_line(fam(1, 3)), 2.0),
        )
        for c, expected in cases:
            points = np.vstack([discretize_curve(c, 2.5), [[2.5, 2.5]]])
            sample = AmoebaSample(n=10.0, points=points, domain=np.zeros(len(points)))
            assert abs(hausdorff(sample, c, 2.5) - expected) < 1e-9

    def test_per_piece_distance_equals_broadcast_reference(self):
        rng = np.random.default_rng(3)
        points = np.concatenate([rng.uniform(-1.0, 9.0, (700, 2)), [[9.0, 9.0]]])
        for p, q, window in ((4, 3, 8.0), (1, 3, 2.5), (0, 0, 3.0), (Fraction(3, 2), 3, 5.5)):
            pieces = amoeba._window_pieces(tropicalize_line(fam(p, q)), window)
            assert np.array_equal(
                amoeba._squared_distance_to_pieces(points, *pieces),
                reference_distance_to_pieces(points, *pieces),
            )

    def test_bucketed_nearest_equals_full_matrix(self):
        rng = np.random.default_rng(11)
        targets = rng.uniform(0.0, 8.0, (400, 2))
        outliers = np.array([[-50.0, 3.0], [1e12, 1e12], [4.0, -1e15]])
        for size, cell in ((5000, 8.0 / 256), (40, 8.0 / 256), (3000, 1.0), (1, 0.1), (0, 0.1)):
            cloud = np.concatenate([rng.uniform(0.0, 8.0, (size, 2)), outliers])
            full = ((targets[:, None, :] - cloud[None]) ** 2).sum(-1).min(axis=1)
            assert np.array_equal(amoeba._squared_nearest(targets, cloud, cell), full)

    def test_mirror_family_statistics(self):
        d1 = hausdorff(sample_amoeba(fam(4, 3), 1e4, 2000), tropicalize_line(fam(4, 3)), 8.0)
        d2 = hausdorff(sample_amoeba(fam(3, 4), 1e4, 2000), tropicalize_line(fam(3, 4)), 8.0)
        assert abs(d1 - d2) < 0.25 * max(d1, d2)


class TestConvergence:
    def test_example_ladder(self):
        report = convergence_report(fam(4, 3), [1e3, 1e4, 1e6, 1e8], 2000, 8.0)
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
        family = fam(40, 27)
        report = convergence_report(family, [1e3, 1e4, 1e6, 1e8], 20000, 68.0)
        distances = [d for _, d in report.entries]
        assert report.monotone
        for a, b in zip(distances, distances[1:]):
            assert b < a * 1.1
        assert report.r_squared >= 0.9
        for n, _ in report.entries:
            assert len(sample_amoeba(family, n, 20000).points) == 20000

    @pytest.mark.parametrize("bases", [[1e3], [1e3, 1e3], []])
    def test_fewer_than_two_distinct_bases(self, bases):
        with pytest.raises(ValueError, match="two distinct bases"):
            convergence_report(fam(1, 2), bases, 200, 4.0)

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -1.0, 1e300])
    def test_window_out_of_range(self, window):
        with pytest.raises(ValueError, match="window .* must be positive"):
            convergence_report(fam(1, 2), [1e3, 1e4], 200, window)
