"""Tests for q-expansions, Petersson norms, and the averaged quantity."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammaincc

from supnorm import forms
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


#: Delta times these Eisenstein weights spans each supported weight.
MONOMIALS = {12: [], 16: [4], 18: [6], 20: [4, 4], 22: [4, 6], 26: [4, 4, 6]}


def monomial_oracle(weight: int, n: int) -> tuple[int, ...]:
    """Generator coefficients a_1..a_n as Delta times a monomial in E_4 and E_6,
    one schoolbook series product per factor."""
    series = [0, *delta_coefficients(n)]
    for w in MONOMIALS[weight]:
        e = eisenstein_coefficients(w, n)
        series = [sum(series[i] * e[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return tuple(series[1:])


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

    @pytest.mark.parametrize("weight", [2, 12, 16])
    def test_eisenstein_unneeded_weight(self, weight):
        with pytest.raises(ValueError, match="only weights"):
            eisenstein_coefficients(weight, 4)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_generator_matches_monomial_product(self, weight):
        # Delta E_{w-12} against Delta times a monomial in E_4 and E_6
        assert cusp_form_coefficients(weight, 128) == monomial_oracle(weight, 128)

    @pytest.mark.parametrize(
        "weight,a2",
        [(12, -24), (16, 216), (18, -528), (20, 456), (22, -288), (26, -48)],
    )
    def test_second_coefficients(self, weight, a2):
        coeffs = cusp_form_coefficients(weight, 8)
        assert coeffs[0] == 1
        assert coeffs[1] == a2

    @pytest.mark.parametrize("weight", [4, 10, 13, 14, 24, 28])
    def test_unsupported_weights(self, weight):
        message = f"unsupported weight {weight}; choose from (12, 16, 18, 20, 22, 26)"
        with pytest.raises(ValueError) as coeffs_error:
            cusp_form_coefficients(weight, 8)
        with pytest.raises(ValueError) as basis_error:
            build_basis(weight)
        assert str(coeffs_error.value) == str(basis_error.value) == message


class TestEvaluation:
    def test_scalar_matches_vector(self):
        coeffs = delta_coefficients(64)
        z = 0.2 + 1.1j
        scalar = evaluate_form(coeffs, z)
        vector = evaluate_form(np.array([float(a) for a in coeffs]), np.array([z]))
        assert scalar == pytest.approx(vector[0], rel=1e-14)

    @pytest.mark.parametrize("weight", [12, 26])
    def test_matches_power_sum(self, weight):
        # 0-d, 1-D and 2-D inputs against the power sum at 30 digits, away from
        # the zeros at i and rho where a relative comparison means nothing
        coeffs = cusp_form_coefficients(weight, 64)
        inputs = [
            np.asarray(0.2 + 1.1j),
            np.array([-0.45 + 0.9j, 0.05 + 1.2j, 0.31 + 2.4j]),
            np.array([[0.1 + 0.95j, -0.2 + 1.3j, 0.5 + 1.7j],
                      [-0.5 + 1.1j, 0.25 + 1.05j, 0.0 + 3.0j]]),
        ]
        with mpmath.workdps(30):
            for z in inputs:
                got = evaluate_form(coeffs, z)
                assert np.shape(got) == z.shape
                for zi, gi in zip(z.ravel(), np.ravel(got)):
                    q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(zi))
                    exact = complex(mpmath.fsum(a * q**n for n, a in enumerate(coeffs, start=1)))
                    assert abs(gi - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_horner_in_place_matches_allocating_form(self, psl2z_constants, weight):
        # the truncated in-place loop equals the 128-term allocating form bit
        # for bit on every library grid: the verify grid, both sliver rules and
        # the mass rule, plus a 0-d and a 1-D input
        def allocating(coeffs, q):
            val = np.zeros_like(q)
            for a in reversed(coeffs):
                val = val * q + float(a)
            return val

        coeffs = cusp_form_coefficients(weight, 128)
        zs = [standard_grid(100, Y=psl2z_constants.Y, k=weight // 2).points]
        for nx, ny in ((64, 48), (128, 96)):
            xs, _ = forms._gauss_nodes(-0.5, 0.5, nx)
            ys, _ = forms._gauss_nodes(np.sqrt(1.0 - xs * xs)[:, None], 1.0, ny)
            zs.append(xs[:, None] + 1j * ys)
        xs, _ = forms._gauss_nodes(-0.5, 0.5, forms._MASS_ORDER)
        ss, _ = forms._gauss_nodes(0.0, 1.0, forms._MASS_ORDER)
        h = np.sqrt(1.0 - xs * xs)
        zs.append(xs[:, None] + 1j * h[:, None] / ss)
        zs.append(np.asarray(0.2 + 1.1j))
        zs.append(np.array([-0.45 + 0.9j, 0.05 + 1.2j, 0.31 + 2.4j, 0.5 + 0.87j]))
        for z in zs:
            q = np.exp(2j * math.pi * z)
            assert np.array_equal(forms._horner_over_q(coeffs, q), allocating(coeffs, q))

    @pytest.mark.parametrize("weight, zero", [(16, complex(-0.5, math.sqrt(3.0) / 2.0)),
                                              (18, 1j)])
    @pytest.mark.parametrize("offset", [1e-12j, 1e-9, 1e-7j, -1e-7])
    def test_points_near_a_zero_take_all_terms(self, monkeypatch, weight, zero, offset):
        # E_4 vanishes at rho and E_6 at i, so |f/q| is tiny there; those
        # points are evaluated again over all 128 terms, alone (0-d and 1-D),
        # as the one such point among others, and as two of them, and equal
        # the untruncated in-place loop bit for bit
        coeffs = cusp_form_coefficients(weight, 128)
        near = zero + offset
        cases = [np.asarray(near), np.array([near]), np.array([near, 0.1 + 1.3j, 0.3 + 0.97j]),
                 np.array([[near, 0.1 + 1.3j, 0.3 + 0.97j], [zero - offset, 0.2 + 1.1j, 2j]])]
        lengths = []
        inner = forms._horner

        def counting(c, q):
            lengths.append(len(c))
            return inner(c, q)

        for z in cases:
            q = np.exp(2j * math.pi * z)
            oracle = inner(coeffs, q)
            monkeypatch.setattr(forms, "_horner", counting)
            lengths.clear()
            got = forms._horner_over_q(coeffs, q)
            monkeypatch.undo()
            assert lengths[0] < 20 and lengths[1:] == [128]
            assert np.array_equal(got, oracle)

    def test_tail_shrinks_with_height(self):
        coeffs = delta_coefficients(64)
        assert tail_bound(coeffs, 12, 2.0) < tail_bound(coeffs, 12, 1.0) < 1e-100

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_deligne_coefficient_bound(self, weight):
        coeffs = cusp_form_coefficients(weight, 256)
        for n, a in enumerate(coeffs, start=1):
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert abs(a) <= divisors * n ** ((weight - 1) / 2.0) * (1.0 + 1e-12)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_tail_covers_computed_coefficients(self, weight):
        # the bound from 64 stored terms must cover the next 192 computed ones
        coeffs = cusp_form_coefficients(weight, 256)
        y = math.sqrt(3.0) / 2.0
        actual = sum(abs(float(coeffs[n - 1])) * math.exp(-2.0 * math.pi * n * y)
                     for n in range(65, 257))
        assert tail_bound(coeffs[:64], weight, y) >= actual


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

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_strip_sum_against_incomplete_gamma(self, weight):
        # the regularized incomplete gamma function of scipy, against the finite sum
        s = weight - 1.0
        coeffs = cusp_form_coefficients(weight, 128)
        a2 = np.array([float(a) for a in coeffs]) ** 2
        t = 4.0 * math.pi * np.arange(1, len(a2) + 1)
        oracle = float(np.sum(a2 * gamma(s) * gammaincc(s, t) / t**s))
        assert _strip_integral(weight, coeffs) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("weight", sorted(SEED_NORMS))
    def test_matches_seed_quadrature(self, weight):
        norm = build_basis(weight).petersson_norm
        assert norm == pytest.approx(SEED_NORMS[weight], rel=1e-12, abs=0.0)

    def test_all_supported_weights_positive(self):
        for w in SUPPORTED_WEIGHTS:
            basis = build_basis(w)
            assert basis.petersson_norm > 0.0
            assert basis.norm_error < 1e-6 * basis.petersson_norm


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
            base = s2k_on_grid(basis12, np.array([z]))[0]
            for m in words:
                image = m.apply(z)
                if image.imag < 0.3:
                    continue
                assert s2k_on_grid(basis12, np.array([image]))[0] == pytest.approx(
                    base, rel=1e-8
                )
                checked += 1
        assert checked >= 12

    def test_low_point_rejected(self, basis12):
        with pytest.raises(ValueError, match="coefficients"):
            s2k_on_grid(basis12, np.array([0.1 + 0.05j]))

    @pytest.mark.parametrize("weight", [12, 18, 26])
    def test_short_basis_certifies_verify_grid(self, psl2z_constants, weight):
        # 32 coefficients pin every grid value, each against its own tail
        basis = build_basis(weight)
        short = dataclasses.replace(basis, coefficients=basis.coefficients[:32])
        points = standard_grid(100, Y=psl2z_constants.Y, k=weight // 2).points
        assert np.allclose(s2k_on_grid(short, points), s2k_on_grid(basis, points),
                           rtol=1e-12, atol=0.0)

    def test_too_short_basis_rejected(self, psl2z_constants):
        basis = build_basis(26)
        short = dataclasses.replace(basis, coefficients=basis.coefficients[:8])
        points = standard_grid(100, Y=psl2z_constants.Y, k=13).points
        with pytest.raises(ValueError, match="8 terms"):
            s2k_on_grid(short, points)

    @pytest.mark.parametrize("z", [0.3 + 0.9j, 0.1 + 5.0j])
    def test_vanishing_form_rejected(self, basis12, monkeypatch, z):
        # a zero of f certifies nothing, low in the domain or high in the cusp
        monkeypatch.setattr(forms, "_horner_over_q", lambda coeffs, q: np.zeros_like(q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficients"):
                s2k_on_grid(basis12, np.array([z]))

    def test_dropped_terms_enter_the_certificate(self, basis12, psl2z_constants, monkeypatch):
        # Horner cut at N = 4 with no fallback gets values wrong by about 1e-6;
        # Deligne's tail past the stored terms alone would certify them, so
        # only the dropped stored terms in t make s2k_on_grid refuse
        cut = 4
        coeffs = basis12.coefficients
        points = standard_grid(20, Y=psl2z_constants.Y, k=6).points
        q = np.exp(2j * math.pi * points)
        short = forms._horner(coeffs[:cut], q)
        full = forms._horner_over_q(coeffs, q)
        assert np.max(np.abs(short - full) / np.abs(full)) > 1e-7
        tail = forms._tail_over_q(coeffs, 12, points.imag) / np.abs(short)
        assert np.all(tail * (2.0 + tail) <= 1e-10)

        def short_cut(c, r):
            return cut, sum(abs(float(a)) * r ** (n - 1)
                            for n, a in enumerate(c, start=1) if n > cut)

        monkeypatch.setattr(forms, "_cut", short_cut)
        monkeypatch.setattr(forms, "_horner_over_q", lambda c, q: forms._horner(c[:cut], q))
        with pytest.raises(ValueError, match="128 terms cannot certify"):
            s2k_on_grid(basis12, points)

    def test_verify_battery_reads_few_terms(self, monkeypatch):
        # every Horner pass of the six-weight verify battery, grids, sliver and
        # mass rules, reads at most 20 terms, apart from the handful of points
        # near a zero that take all 128; a count, so no timing is needed
        from supnorm.verify import verify_all

        calls = []
        inner = forms._horner

        def counting(c, q):
            calls.append((len(c), np.size(q)))
            return inner(c, q)

        monkeypatch.setattr(forms, "_horner", counting)
        assert verify_all(weights=SUPPORTED_WEIGHTS, grid_size=100).passed
        cut = [size for terms, size in calls if terms < 128]
        assert len(cut) == 24
        assert max(terms for terms, _ in calls if terms < 128) <= 20
        assert sum(size for terms, size in calls if terms == 128) <= 0.001 * sum(cut)

    def test_mass_identity(self, basis12):
        assert mass_integral(basis12) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_mass_identity_all_weights(self, weight):
        # Petersson orthonormality: the exact value is 1 for every weight
        assert abs(mass_integral(build_basis(weight)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_mass_order_doubling(self, weight, monkeypatch):
        basis = build_basis(weight)
        coarse = mass_integral(basis)
        monkeypatch.setattr(forms, "_MASS_ORDER", 2 * forms._MASS_ORDER)
        assert mass_integral(basis) == pytest.approx(coarse, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_mass_against_adaptive_cubature(self, weight):
        # an adaptive Gauss-Kronrod cubature on the same rectangle, an independent route
        cubature = pytest.importorskip("scipy.integrate").cubature
        basis = build_basis(weight)

        def integrand(p):
            x, s = p[:, 0], p[:, 1]
            h = np.sqrt(1.0 - x * x)
            return s2k_on_grid(basis, x + 1j * h / s) / h

        oracle = float(cubature(integrand, [-0.5, 0.0], [0.5, 1.0], rtol=1e-7).estimate)
        assert mass_integral(basis) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_grid_points_inside_domain(self, psl2z):
        grid = standard_grid(30, Y=4.1312, k=26)
        assert len(grid.points) == 30 * 30 + 30
        assert np.all(grid.points.imag > 0.86)
        assert np.all(np.abs(grid.points.real) <= 0.5)
        band = grid.points[-30:]
        assert np.all(band.real == 0.0)
        assert np.all(np.abs(band) >= 1.0)


def test_degenerate_grid_size():
    with pytest.raises(ValueError):
        standard_grid(0, Y=4.1312, k=6)


def loop_grid(n: int, Y: float, k: int):
    """standard_grid as one column of the grid per Python iteration, the reference
    for the array expression."""
    xs = -0.5 + (np.arange(n) + 0.5) / n
    cols = []
    for x in xs:
        floor_y = math.sqrt(max(1.0 - x * x, 0.0))
        u = (np.arange(n) + 0.5) / n * (1.0 / floor_y)
        ys = 1.0 / u
        cols.append(x + 1j * ys)
    if Y < k / (2.0 * math.pi):
        band = np.linspace(Y, k / (2.0 * math.pi), n)
        cols.append(0.0 + 1j * band)
    return np.concatenate(cols)


@pytest.mark.parametrize(
    "n,Y,k",
    [(1, 4.1312, 6), (2, 4.1312, 6), (7, 4.1312, 26), (30, 4.1312, 13), (100, 4.1312, 6),
     (100, 4.1312, 13), (101, 2.0, 40)],
)
def test_grid_matches_loop(n, Y, k):
    grid = standard_grid(n, Y=Y, k=k)
    assert np.array_equal(grid.points, loop_grid(n, Y=Y, k=k))
