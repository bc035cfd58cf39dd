"""Tests for q-expansions, Petersson norms, and the averaged quantity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from supnorm.enumeration import IntegerMoebius
from supnorm.forms import (
    SUPPORTED_WEIGHTS,
    _sliver_integral,
    _strip_integral,
    build_basis,
    cusp_form_coefficients,
    delta_coefficients,
    eisenstein_coefficients,
    evaluate_form,
    mass_integral,
    s2k_eval,
    s2k_on_grid,
    standard_grid,
    tail_bound,
)

# First coefficients of the weight-12 generator (classical values).
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944)

# Petersson norms from a panelled 2-D Gauss-Legendre quadrature of the whole
# domain up to y = 20 (128 coefficients), an independent route to the same values.
SEED_NORMS = {
    12: 1.035362056804322e-06,
    16: 2.169061347590636e-06,
    18: 4.594736197639253e-06,
    20: 8.265541531659709e-06,
    22: 2.009981832743066e-05,
    26: 2.053347168153725e-04,
}


def eta_product_oracle(n: int) -> list[int]:
    """Direct expansion of prod (1 - q^m)^24, shifted by q (term-by-term)."""
    binom24 = [math.comb(24, j) for j in range(25)]
    coeff = [0] * (n + 1)
    coeff[0] = 1
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(25):
            if j * m > n:
                break
            sign = -1 if j % 2 else 1
            for i in range(n + 1 - j * m):
                if coeff[i]:
                    new[i + j * m] += sign * binom24[j] * coeff[i]
        coeff = new
    return [coeff[m - 1] for m in range(1, n + 1)]


class TestQExpansions:
    def test_delta_leading_terms(self):
        got = delta_coefficients(12)
        assert got == TAU

    def test_delta_against_product_oracle(self):
        assert list(delta_coefficients(40)) == eta_product_oracle(40)

    def test_delta_multiplicative(self):
        a = delta_coefficients(15)
        assert a[5] == a[1] * a[2]  # a_6 = a_2 a_3
        assert a[9] == a[1] * a[4]  # a_10 = a_2 a_5
        assert a[14] == a[2] * a[4]  # a_15 = a_3 a_5

    def test_eisenstein_four(self):
        got = eisenstein_coefficients(4, 4)
        assert got == (1, 240, 2160, 6720, 17520)

    def test_eisenstein_six(self):
        got = eisenstein_coefficients(6, 4)
        assert got == (1, -504, -16632, -122976, -532728)

    @pytest.mark.parametrize(
        "weight,a2",
        [(12, -24), (16, 216), (18, -528), (20, 456), (22, -288), (26, -48)],
    )
    def test_second_coefficients(self, weight, a2):
        coeffs = cusp_form_coefficients(weight, 8)
        assert coeffs[0] == 1
        assert coeffs[1] == a2

    @pytest.mark.parametrize("weight", [4, 10, 14, 24, 28])
    def test_unsupported_weights(self, weight):
        with pytest.raises(ValueError):
            cusp_form_coefficients(weight, 8)


class TestEvaluation:
    def test_scalar_matches_vector(self):
        coeffs = delta_coefficients(64)
        z = 0.2 + 1.1j
        scalar = evaluate_form(coeffs, z)
        vector = evaluate_form(np.array([float(a) for a in coeffs]), np.array([z]))
        assert scalar == pytest.approx(vector[0], rel=1e-14)

    def test_tail_shrinks_with_height(self):
        coeffs = delta_coefficients(64)
        assert tail_bound(coeffs, 12, 2.0) < tail_bound(coeffs, 12, 1.0) < 1e-100


class TestPeterssonNorm:
    def test_weight_twelve_value(self):
        basis = build_basis(12)
        assert abs(basis.petersson_norm - 1.0354e-6) <= 1e-9
        assert basis.petersson_norm == pytest.approx(1.0353620568e-6, rel=1e-7)
        assert basis.norm_error < 1e-12

    @pytest.mark.parametrize("weight", [12, 26])
    def test_sliver_order_doubling(self, weight):
        coeffs = cusp_form_coefficients(weight, 128)
        coarse = _sliver_integral(weight, coeffs, 64, 48)
        fine = _sliver_integral(weight, coeffs, 128, 96)
        assert fine == pytest.approx(coarse, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("weight", [12, 26])
    def test_strip_sum_against_quadrature(self, weight):
        # Parseval in x: the strip y >= 1 contributes int_1^inf sum a_n^2 e^{-4 pi n y} y^(w-2)
        coeffs = cusp_form_coefficients(weight, 128)
        a2 = np.array([float(a) for a in coeffs]) ** 2
        n = np.arange(1, len(a2) + 1)

        def integrand(y):
            return float(np.sum(a2 * np.exp(-4.0 * math.pi * n * y))) * y ** (weight - 2)

        oracle, _ = quad(integrand, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert _strip_integral(weight, coeffs) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("weight", sorted(SEED_NORMS))
    def test_matches_seed_quadrature(self, weight):
        norm = build_basis(weight).petersson_norm
        assert norm == pytest.approx(SEED_NORMS[weight], rel=1e-12, abs=0.0)

    def test_all_supported_weights_positive(self):
        for w in SUPPORTED_WEIGHTS:
            basis = build_basis(w, n_coeffs=96)
            assert basis.petersson_norm > 0.0
            assert basis.norm_error < 1e-6 * basis.petersson_norm

    def test_too_few_coefficients(self):
        with pytest.raises(ValueError):
            build_basis(12, n_coeffs=32)


@pytest.fixture(scope="module")
def basis12():
    return build_basis(12)


class TestAveragedQuantity:
    def test_group_invariance(self, basis12):
        words = [
            IntegerMoebius(1, 1, 0, 1),
            IntegerMoebius(1, -1, 0, 1),
            IntegerMoebius(0, -1, 1, 0),
            IntegerMoebius(1, 0, 1, 1),
            IntegerMoebius(0, -1, 1, -1),
            IntegerMoebius(2, 1, 1, 1),
        ]
        samples = [0.23 + 1.1j, -0.41 + 0.95j, 0.05 + 2.2j]
        checked = 0
        for z in samples:
            base = s2k_eval(basis12, z)
            for m in words:
                image = m.apply(z)
                if image.imag < 0.3:
                    continue
                assert s2k_eval(basis12, image) == pytest.approx(base, rel=1e-8)
                checked += 1
        assert checked >= 12

    def test_low_point_rejected(self, basis12):
        with pytest.raises(ValueError, match="coefficients"):
            s2k_eval(basis12, 0.1 + 0.05j)

    def test_mass_identity(self, basis12):
        assert mass_integral(basis12) == pytest.approx(1.0, abs=1e-4)

    def test_grid_evaluation_matches_pointwise(self, basis12):
        grid = standard_grid(20)
        values = s2k_on_grid(basis12, grid.points)
        for idx in (0, 57, 213, 399):
            z = grid.points[idx]
            assert values[idx] == pytest.approx(s2k_eval(basis12, z), rel=1e-12)

    def test_grid_points_inside_domain(self, psl2z):
        grid = standard_grid(30, Y=4.1312, k=26)
        assert len(grid.points) == 30 * 30 + 30
        assert np.all(grid.points.imag > 0.86)
        assert np.all(np.abs(grid.points.real) <= 0.5)
        in_band = grid.tags == 1
        assert in_band.sum() == 30
        assert np.all(np.abs(grid.points[in_band]) >= 1.0)


def test_degenerate_grid_size():
    with pytest.raises(ValueError):
        standard_grid(0)
