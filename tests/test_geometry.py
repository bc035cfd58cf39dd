"""Tests for the upper half-plane primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supnorm.geometry import (
    GeodesicSegment,
    MoebiusMap,
    disk_volume,
    displacement,
    dist_hyp,
)

from conftest import RHO, RHO_LEFT, ROOT3_HALF

I = 1j

points = st.builds(
    complex,
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=1e-3, max_value=20.0),
)


def random_moebius(seed: int) -> MoebiusMap:
    rng = np.random.default_rng(seed)
    while True:
        a, b, c, d = rng.uniform(-3.0, 3.0, size=4)
        if a * d - b * c > 0.1:
            return MoebiusMap.from_unscaled(a, b, c, d)


class TestDisplacement:
    def test_coincident(self):
        assert displacement(I, I) == 1.0

    def test_vertical_pair(self):
        assert displacement(I, 2j) == pytest.approx(9.0 / 8.0, rel=1e-15)

    def test_unit_translation(self):
        # n^2/(4 y^2) + 1 with n = 1, y = 1
        assert displacement(I, 1 + I) == pytest.approx(1.25, rel=1e-15)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            displacement(I, 1 - 1j)

    @given(points, points)
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_distance(self, z, w):
        sigma = displacement(z, w)
        d = dist_hyp(z, w)
        assert math.cosh(d / 2.0) ** 2 == pytest.approx(sigma, rel=1e-12)


class TestDistance:
    def test_zero(self):
        assert dist_hyp(I, I) == 0.0

    def test_vertical(self):
        assert dist_hyp(I, 2j) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_corner_to_center(self):
        # cosh(d) = 2*sqrt(3)/3 between i and the left corner point
        expected = math.acosh(2.0 * math.sqrt(3.0) / 3.0)
        assert dist_hyp(I, RHO_LEFT) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.5493061443340549, abs=1e-12)

    @given(points, points)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, z, w):
        assert dist_hyp(z, w) == pytest.approx(dist_hyp(w, z), abs=1e-12)

    @given(points, points, points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, z, w, v):
        assert dist_hyp(z, w) <= dist_hyp(z, v) + dist_hyp(v, w) + 1e-9


class TestMoebius:
    def test_identity(self):
        assert MoebiusMap.identity().apply(I) == I

    def test_translation(self):
        assert MoebiusMap.translation(1.0).apply(I) == 1 + I

    def test_inversion_fixes_i(self):
        inv = MoebiusMap(0.0, -1.0, 1.0, 0.0)
        assert inv.apply(I) == pytest.approx(I)

    def test_sign_canonicalization(self):
        m = MoebiusMap(-1.0, 0.0, 0.0, -1.0)
        assert m.entries() == (1.0, 0.0, 0.0, 1.0)
        m = MoebiusMap(0.0, 1.0, -1.0, 0.0)
        assert m.entries() == (0.0, -1.0, 1.0, 0.0)

    def test_rejects_bad_determinant(self):
        with pytest.raises(ValueError):
            MoebiusMap(2.0, 0.0, 0.0, 1.0)

    def test_compose_inverse(self):
        m = random_moebius(7)
        assert m.compose(m.inverse()).is_identity(tol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_displacement_invariance(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = random_moebius(seed)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        lhs = displacement(m.apply(z), m.apply(w))
        assert lhs == pytest.approx(displacement(z, w), rel=1e-11)

    @pytest.mark.parametrize("seed", range(6))
    def test_distance_preserved(self, seed):
        m = random_moebius(50 + seed)
        z, w = 0.3 + 1.2j, -0.8 + 0.4j
        assert dist_hyp(m.apply(z), m.apply(w)) == pytest.approx(
            dist_hyp(z, w), abs=1e-12
        )


# Boundary pieces of the standard modular domain.
S1 = GeodesicSegment.vertical(-0.5, ROOT3_HALF)
S2 = GeodesicSegment.arc(0.0, 1.0, -0.5, 0.0)
S3 = GeodesicSegment.vertical(0.5, ROOT3_HALF)
S4 = GeodesicSegment.arc(0.0, 1.0, 0.0, 0.5)


class TestSegmentDistance:
    def test_left_ray_to_i(self):
        # min over y of (y/2 + 5/(8y)) equals sqrt(5)/2
        expected = math.acosh(math.sqrt(5.0) / 2.0)
        assert S1.dist_to(I) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.4812118250596035, abs=1e-12)

    def test_right_ray_to_left_corner(self):
        expected = math.acosh(math.sqrt(7.0 / 3.0))
        assert S3.dist_to(RHO_LEFT) == pytest.approx(expected, rel=1e-11)
        assert expected == pytest.approx(0.9866469610448342, abs=1e-12)

    def test_arc_minimum_sits_at_endpoint(self):
        # closest point of the right arc to the left corner is i itself
        assert S4.dist_to(RHO_LEFT) == pytest.approx(dist_hyp(I, RHO_LEFT), rel=1e-11)

    def test_point_on_segment(self):
        assert S1.dist_to(complex(-0.5, 2.0)) == pytest.approx(0.0, abs=1e-9)
        assert S2.dist_to(RHO_LEFT) == pytest.approx(0.0, abs=1e-7)

    def test_unbounded_ray_above(self):
        # optimal height lies far up the ray, beyond any bounded cut
        p = complex(3.0, 40.0)
        d_ray = S1.dist_to(p)
        d_cut = GeodesicSegment.vertical(-0.5, ROOT3_HALF, 10.0).dist_to(p)
        assert d_ray < d_cut

    @pytest.mark.parametrize("seed", range(10))
    def test_dominated_by_endpoint_distance(self, seed):
        rng = np.random.default_rng(2000 + seed)
        seg = [S1, S2, S3, S4][seed % 4]
        p = complex(rng.uniform(-2, 2), rng.uniform(0.2, 5))
        d = seg.dist_to(p)
        for q in seg.endpoints():
            assert d <= dist_hyp(p, q) + 1e-10

    def test_contains(self):
        assert S1.contains(complex(-0.5, 1.7))
        assert not S1.contains(I)
        assert S2.contains(I)
        assert S2.contains(RHO_LEFT)
        assert not S2.contains(RHO)


class TestDiskVolume:
    def test_zero(self):
        assert disk_volume(0.0) == 0.0

    def test_radius_two(self):
        # 4 pi sinh^2(1) = 2 pi (cosh 2 - 1)
        expected = 2.0 * math.pi * (math.cosh(2.0) - 1.0)
        assert disk_volume(2.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(17.355387381771436, abs=1e-10)

    def test_monotone(self):
        radii = np.linspace(0.1, 6.0, 25)
        vols = [disk_volume(r) for r in radii]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            disk_volume(-0.1)
