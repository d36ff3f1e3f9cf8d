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


class TestSampler:
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
