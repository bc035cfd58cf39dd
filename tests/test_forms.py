"""Tests for q-expansions, Petersson norms, and the averaged quantity."""

import dataclasses
import math
import warnings
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from supnorm import forms
from supnorm.enumeration import IntegerMoebius
from supnorm.forms import (
    SUPPORTED_WEIGHTS,
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


def library_nodes(weight: int, Y: float) -> list[np.ndarray]:
    """Every array of points the library evaluates the weight's generator on:
    the 100 x 100 verify grid, and the mass rule.  At the Y given, which is
    above k / (2 pi), the grid has no cusp band."""
    xs, _ = forms._gauss_nodes(-0.5, 0.5, forms._ORDER)
    ss, _ = forms._gauss_nodes(0.0, 1.0, forms._ORDER)
    h = np.sqrt(1.0 - xs * xs)
    return [standard_grid(100, Y=Y, k=weight // 2).points, xs[:, None] + 1j * h[:, None] / ss]


def mp_periods(weight: int, coeffs) -> list:
    """Lambda_1..Lambda_{weight-1} in mpmath at the working precision, each
    int_1^inf e^{-ty} y^(s-1) dy = Gamma(s, t) / t^s from mpmath.gammainc."""
    sign = (-1) ** (weight // 2)
    lam = []
    for s in range(1, weight):
        terms = []
        for n, a in enumerate(coeffs, start=1):
            t = 2 * mpmath.pi * n
            g = [mpmath.gammainc(r, t) / t**r for r in (s, weight - s)]
            terms.append(a * (g[0] + sign * g[1]))
        lam.append(mpmath.fsum(terms))
    return lam


def mp_norm(weight: int, coeffs) -> mpmath.mpf:
    """<f, f> from Haberland's formula over mp_periods, with the complex
    periods r_n = i^(n+1) Lambda_{n+1} and the formula as Kohnen and Zagier
    state it: -(6 (2i)^(k-1))^-1 sum 2 (-1)^n C(w, n) C(w-n, a) r_n conj(r_a)
    over n, a >= 0 with n + a <= w - 1 odd, w = k - 2."""
    w, lam = weight - 2, mp_periods(weight, coeffs)
    r = [mpmath.mpc(0, 1) ** (n + 1) * lam[n] for n in range(w + 1)]
    total = mpmath.fsum(2 * (-1) ** n * math.comb(w, n) * math.comb(w - n, a)
                        * r[n] * mpmath.conj(r[a])
                        for n in range(w) for a in range(w - n) if (n + a) % 2)
    value = -total / (6 * mpmath.mpc(0, 2) ** (weight - 1))
    assert abs(value.imag) <= mpmath.mpf(10) ** (5 - mpmath.mp.dps) * abs(value.real)
    return value.real


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

    @pytest.mark.parametrize("weight", [4, 10, 13, 14, 24, 28, 10**9])
    def test_unsupported_weights(self, weight, monkeypatch):
        # build_basis refuses before it sizes the stored count, whose search
        # over the counts 1 to 64 is sized for the supported weights only
        message = f"unsupported weight {weight}; choose from (12, 16, 18, 20, 22, 26)"
        with pytest.raises(ValueError) as coeffs_error:
            cusp_form_coefficients(weight, 8)
        monkeypatch.setattr(forms, "_tail_over_q", None)
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
        # the in-place loop over the stored terms equals the 128-term
        # allocating form bit for bit on every library grid: the verify grid
        # and the mass rule, plus a 0-d and a 1-D input
        def allocating(coeffs, q):
            val = np.zeros_like(q)
            for a in reversed(coeffs):
                val = val * q + float(a)
            return val

        stored = build_basis(weight).coefficients
        coeffs = cusp_form_coefficients(weight, 128)
        zs = library_nodes(weight, psl2z_constants.Y)
        zs.append(np.asarray(0.2 + 1.1j))
        zs.append(np.array([-0.45 + 0.9j, 0.05 + 1.2j, 0.31 + 2.4j, 0.5 + 0.87j]))
        for z in zs:
            q = np.exp(2j * math.pi * z)
            assert np.array_equal(forms._horner(stored, q), allocating(coeffs, q))

    @pytest.mark.parametrize("weight, zero", [(16, complex(-0.5, math.sqrt(3.0) / 2.0)),
                                              (18, 1j)])
    @pytest.mark.parametrize("offset", [1e-12j, 1e-9, 1e-7j, -1e-7])
    def test_points_near_a_zero_take_all_terms(self, weight, zero, offset):
        # E_4 vanishes at rho and E_6 at i, so |f/q| is tiny there; the stored
        # terms still give the 128-term in-place loop bit for bit, alone (0-d
        # and 1-D), as the one such point among others, and as two of them
        stored = build_basis(weight).coefficients
        coeffs = cusp_form_coefficients(weight, 128)
        near = zero + offset
        cases = [np.asarray(near), np.array([near]), np.array([near, 0.1 + 1.3j, 0.3 + 0.97j]),
                 np.array([[near, 0.1 + 1.3j, 0.3 + 0.97j], [zero - offset, 0.2 + 1.1j, 2j]])]
        for z in cases:
            q = np.exp(2j * math.pi * z)
            assert np.array_equal(forms._horner(stored, q), forms._horner(coeffs, q))

    def test_stored_count_is_least_sufficient(self):
        # build_basis stores the least N whose Deligne tail past N terms,
        # divided by |q|, is at most 2^-70 at the domain floor sqrt(3)/2
        y0 = math.sqrt(3.0) / 2.0
        counts = tuple(len(build_basis(w).coefficients) for w in SUPPORTED_WEIGHTS)
        assert counts == (12, 13, 14, 15, 15, 16)
        for w, n in zip(SUPPORTED_WEIGHTS, counts):
            assert forms._tail_over_q(n, w, y0) <= 2.0**-70 < forms._tail_over_q(n - 1, w, y0)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_library_nodes_above_domain_floor(self, psl2z_constants, weight):
        # the stored count is derived at y0 = sqrt(3)/2 and holds only above
        # it: every node of the verify grid and of the mass rule lies
        # strictly higher
        for z in library_nodes(weight, psl2z_constants.Y):
            assert np.all(z.imag > math.sqrt(3.0) / 2.0)

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

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_strip_sum_against_incomplete_gamma(self, weight):
        # each period Lambda_s sums the strip integrals int_1^inf e^{-ty} y^(s-1) dy
        # at s and k - s; from mpmath's incomplete gamma at 60 digits they
        # agree with the Decimal recurrence to its rounding, 1e-45 of top
        coeffs = build_basis(weight).coefficients
        lam, top = forms._periods(weight, coeffs)
        with mpmath.workdps(60):
            oracle = mp_periods(weight, coeffs)
            tol = mpmath.mpf("1e-45") * mpmath.mpf(str(top))
            for got, want in zip(lam, oracle, strict=True):
                assert abs(mpmath.mpf(str(got)) - want) <= tol

    def test_delta_period_ratios(self):
        # Manin's rational period ratios of Delta: Lambda_2 : Lambda_4 : Lambda_6
        # = 1 : 25/48 : 5/12 and Lambda_3 : Lambda_5 = 1 : 9/14, here to the
        # 1e-25 left by 12 stored coefficients
        lam, _ = forms._periods(12, build_basis(12).coefficients)
        for num, den, ratio in [(3, 1, (25, 48)), (5, 1, (5, 12)), (4, 2, (9, 14))]:
            got = lam[num] / lam[den]
            assert abs(got - Decimal(ratio[0]) / Decimal(ratio[1])) <= Decimal("1e-25")

    def test_norm_error_is_a_bound(self):
        # the exact norm, Haberland's formula at 40 digits over 30
        # coefficients, lies within norm_error of the float at every weight;
        # the bound is under one ulp
        for weight in SUPPORTED_WEIGHTS:
            basis = build_basis(weight)
            with mpmath.workdps(40):
                exact = mp_norm(weight, cusp_form_coefficients(weight, 30))
                assert abs(mpmath.mpf(basis.petersson_norm) - exact) <= basis.norm_error
            assert basis.norm_error < math.ulp(basis.petersson_norm)

    def test_weight_twelve_against_strip_and_sliver(self):
        # an oracle with no periods: Parseval in x above y = 1, each term an
        # incomplete gamma value, plus nested mpmath quadrature on the sliver
        # below (Gauss-Legendre raised in degree until it settles; tanh-sinh
        # gives the same value ten times slower), at 22 digits; even in x,
        # so the sliver is twice its half x >= 0
        basis = build_basis(12)
        coeffs = cusp_form_coefficients(12, 30)
        with mpmath.workdps(22):
            t = [4 * mpmath.pi * n for n in range(1, len(coeffs) + 1)]
            strip = mpmath.fsum(a * a * mpmath.gammainc(11, tn) / tn**11
                                for a, tn in zip(coeffs, t))

            def integrand(x, y):
                q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(x, y))
                return abs(mpmath.polyval(coeffs[::-1], q) * q) ** 2 * y**10

            def column(x):
                return mpmath.quad(lambda y: integrand(x, y), [mpmath.sqrt(1 - x * x), 1],
                                   method="gauss-legendre")

            sliver = 2 * mpmath.quad(column, [0, 0.5], method="gauss-legendre")
            oracle = strip + sliver
            gap = abs(mpmath.mpf(basis.petersson_norm) - oracle)
            assert gap <= basis.norm_error + 1e-20 * oracle

    @pytest.mark.parametrize("weight", sorted(SEED_NORMS))
    def test_matches_seed_quadrature(self, weight):
        norm = build_basis(weight).petersson_norm
        assert norm == pytest.approx(SEED_NORMS[weight], rel=1e-12, abs=0.0)

    def test_all_supported_weights_positive(self):
        for w in SUPPORTED_WEIGHTS:
            basis = build_basis(w)
            assert basis.petersson_norm > 0.0
            assert basis.norm_error < 1e-6 * basis.petersson_norm

    def test_library_builds_two_rule_orders(self, monkeypatch):
        # every quadrature of the six-weight battery and the kernel checks
        # takes the rule of order _ORDER; only the kernel panels build
        # _ORDER // 2, as their estimate, and the norm builds none
        from supnorm.kernels import run_kernel_checks
        from supnorm.verify import verify_all

        orders = []
        inner = np.polynomial.legendre.leggauss

        def recording(order):
            orders.append(order)
            return inner(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", recording)
        forms._legendre_rule.cache_clear()
        assert verify_all(weights=SUPPORTED_WEIGHTS, grid_size=100).passed
        assert all(check.passed for check in run_kernel_checks(50))
        assert set(orders) == {24, 48}


@pytest.fixture(scope="module")
def basis12():
    return build_basis(12)


class TestAveragedQuantity:
    def test_group_invariance(self, basis12):
        # images go down to y = 0.3, below the floor the stored count is
        # derived at, so they are evaluated with 128 terms
        basis = dataclasses.replace(basis12, coefficients=cusp_form_coefficients(12, 128))
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
            base = s2k_on_grid(basis, np.array([z]))[0]
            for m in words:
                image = m.apply(z)
                if image.imag < 0.3:
                    continue
                assert s2k_on_grid(basis, np.array([image]))[0] == pytest.approx(
                    base, rel=1e-8
                )
                checked += 1
        assert checked >= 12

    def test_low_point_rejected(self, basis12):
        with pytest.raises(ValueError, match="coefficients"):
            s2k_on_grid(basis12, np.array([0.1 + 0.05j]))

    @pytest.mark.parametrize("weight", [12, 18, 26])
    def test_short_basis_certifies_verify_grid(self, psl2z_constants, weight):
        # the stored coefficients pin every grid value, each against its own
        # tail, to the values of 128 terms
        basis = build_basis(weight)
        full = dataclasses.replace(basis, coefficients=cusp_form_coefficients(weight, 128))
        points = standard_grid(100, Y=psl2z_constants.Y, k=weight // 2).points
        assert np.allclose(s2k_on_grid(basis, points), s2k_on_grid(full, points),
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
        monkeypatch.setattr(forms, "_horner", lambda coeffs, q: np.zeros_like(q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficients"):
                s2k_on_grid(basis12, np.array([z]))

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_one_cut_per_call(self, psl2z_constants, weight):
        # the values are the ones of one Horner pass over the stored terms,
        # bit for bit
        basis = build_basis(weight)
        points = standard_grid(100, Y=psl2z_constants.Y, k=weight // 2).points
        q = np.exp(2j * math.pi * points)
        want = (np.abs(forms._horner(basis.coefficients, q) * q) ** 2
                * points.imag**weight / basis.petersson_norm)
        assert s2k_on_grid(basis, points).tobytes() == want.tobytes()

    def test_verify_battery_reads_few_terms(self, monkeypatch):
        # the six-weight verify battery makes one Horner pass per grid and
        # mass rule, 12 in all, each over the stored count of at most 16
        # terms; a count, so no timing is needed
        from supnorm.verify import verify_all

        stored = [len(build_basis(w).coefficients) for w in SUPPORTED_WEIGHTS]
        calls = []
        inner = forms._horner

        def counting(c, q):
            calls.append(len(c))
            return inner(c, q)

        monkeypatch.setattr(forms, "_horner", counting)
        assert verify_all(weights=SUPPORTED_WEIGHTS, grid_size=100).passed
        assert sorted(calls) == sorted(2 * stored)
        assert max(calls) <= 16

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_shared_q_changes_no_bit(self, psl2z_constants, weight):
        # a caller's q, computed as the function computes it, gives its values
        # bit for bit, on both library node sets and on a lone point
        basis = build_basis(weight)
        for points in [*library_nodes(weight, psl2z_constants.Y), np.array([0.1 + 1.2j])]:
            q = np.exp(2j * math.pi * points)
            assert s2k_on_grid(basis, points, q).tobytes() == s2k_on_grid(basis, points).tobytes()

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_mass_rule_built_once_matches_fresh_nodes(self, weight):
        # the process-wide nodes give the value of a rule built afresh
        basis = build_basis(weight)
        xs, wx = forms._gauss_nodes(-0.5, 0.5, forms._ORDER)
        ss, ws = forms._gauss_nodes(0.0, 1.0, forms._ORDER)
        h = np.sqrt(1.0 - xs * xs)
        values = s2k_on_grid(basis, xs[:, None] + 1j * h[:, None] / ss)
        assert mass_integral(basis) == float((wx / h) @ values @ ws)

    def test_mass_rule_is_read_only(self):
        # no caller can change the process-wide copy
        mass_integral(build_basis(12))
        for a in forms._mass_rule():
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_mass_identity(self, basis12):
        assert mass_integral(basis12) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_mass_identity_all_weights(self, weight):
        # Petersson orthonormality: the exact value is 1 for every weight
        assert abs(mass_integral(build_basis(weight)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("weight", SUPPORTED_WEIGHTS)
    def test_mass_order_doubling(self, weight, monkeypatch):
        # _mass_rule is built once per process, so the doubled rule is built
        # afresh here and dropped again before _ORDER comes back
        basis = build_basis(weight)
        coarse = mass_integral(basis)
        monkeypatch.setattr(forms, "_ORDER", 2 * forms._ORDER)
        forms._mass_rule.cache_clear()
        try:
            fine = mass_integral(basis)
            assert forms._mass_rule()[0].shape == (forms._ORDER, forms._ORDER)
        finally:
            forms._mass_rule.cache_clear()
        assert fine == pytest.approx(coarse, rel=1e-12, abs=0.0)

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
