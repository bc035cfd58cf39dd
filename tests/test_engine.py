"""Tests for the effective-constant pipeline and bound assembly."""

import json
import math
from dataclasses import asdict

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supnorm.domain import EllipticPoint, FundamentalDomain, load_domain
from supnorm.engine import (
    _volume_systole_diameter,
    BoundReport,
    BoundRow,
    EffectiveConstants,
    Y_FLOOR,
    b_k_y0,
    b_k_y0_limit,
    b_y_bound,
    cocompact_constants,
    compute_constants,
    mu_gamma,
    parabolic_sum_bound,
    poincare_bound_compact,
    run_algorithm,
    sigma_y_branches,
    sup_bound_compact,
    sup_bound_cusp,
    sup_lower_bound,
    spectral_gap_bound,
)
from supnorm.geometry import GeodesicSegment

E54 = math.exp(1.25)


def make_constants(B_Y=5.0, sigma_Y=1.1, excess=0, Y0=2.0, B_Y0=4.0, **kw):
    defaults = dict(
        domain_name="synthetic",
        genus=0,
        n_cusps=1,
        covolume=math.pi / 3.0,
        elliptic_excess=excess,
        ell_gamma=1.9,
        theta_gamma=2.0,
        mu_gamma=0.5,
        sigma_Y=sigma_Y,
        sigma_branches={},
        Y0=Y0,
        Y=max(2 * Y0, Y_FLOOR),
        B_Y=B_Y,
        B_Y0=B_Y0,
    )
    defaults.update(kw)
    return EffectiveConstants(**defaults)


class TestMuGamma:
    def test_modular_group(self, psl2z):
        assert mu_gamma(psl2z) == pytest.approx(0.4812118250596035, abs=1e-9)

    def test_no_elliptic_points(self, genus2_domain):
        assert mu_gamma(genus2_domain) == math.inf

    def test_point_on_every_segment(self):
        # one boundary ray carrying the only elliptic point: no admissible pair
        # (built directly, as load_domain refuses a boundary that does not close up)
        d = FundamentalDomain(
            genus=1,
            boundary=(GeodesicSegment.vertical(0.0, 1.0),),
            n_cusps=0,
            elliptic=(EllipticPoint(location=2j, order=2, is_class_rep=True),),
        )
        assert mu_gamma(d) == math.inf


class TestSigmaY:
    def test_modular_branches(self, psl2z, psl2z_constants):
        b = psl2z_constants.sigma_branches
        assert b["hyperbolic"] == pytest.approx(2.25, rel=1e-12)
        assert b["elliptic"] == pytest.approx(1.1875, rel=1e-9)
        assert b["parabolic_other_cusp"] == pytest.approx(1.1875, rel=1e-7)
        assert b["parabolic_own_cusp"] == pytest.approx(1.0146484375, rel=1e-12)
        assert psl2z_constants.sigma_Y == pytest.approx(1.0146484375, rel=1e-12)

    def test_exact_hyperbolic_branch(self):
        # cosh(2 arccosh(3/2)) = 2 (3/2)^2 - 1 = 7/2, so the branch is 9/4
        ell = 2.0 * math.acosh(1.5)
        assert (math.cosh(ell) + 1.0) / 2.0 == pytest.approx(2.25, rel=1e-14)

    def test_cocompact_torsionfree_single_branch(self, genus2_domain):
        ell = 2.0 * math.acosh(1.5)
        branches = sigma_y_branches(genus2_domain, ell, math.inf, None, None)
        assert set(branches) == {"hyperbolic"}

    def test_dropped_elliptic_branch_when_mu_infinite(self, psl2z):
        branches = sigma_y_branches(psl2z, 1.9, math.inf, 0.8, 4.0)
        assert "elliptic" not in branches
        assert {"hyperbolic", "parabolic_other_cusp", "parabolic_own_cusp"} <= set(branches)

    def test_at_least_one(self, psl2z_constants):
        assert psl2z_constants.sigma_Y >= 1.0


class TestCountingConstant:
    def test_volume_scaling(self):
        assert b_y_bound(2.0, 2.0) == pytest.approx(2.0 * b_y_bound(2.0, 4.0), rel=1e-14)

    def test_modular_values(self, psl2z_constants):
        assert psl2z_constants.B_Y == pytest.approx(5.194455, abs=2e-5)
        assert psl2z_constants.B_Y0 == pytest.approx(4.021029, abs=2e-5)


class TestCuspTailConstant:
    def test_limit_continuity(self):
        for k in (2, 10, 26):
            at_eps = b_k_y0(k, 2.0, 4.021, 1e-6)
            limit = b_k_y0_limit(k, 2.0, 4.021)
            assert at_eps == pytest.approx(limit, rel=1e-4)

    def test_extended_precision_recheck(self):
        k, Y0, B = 26, 2.0, 4.0209
        with mpmath.workdps(50):
            expected = (
                2 * mpmath.pi * mpmath.mpf(Y0) ** -4 * mpmath.mpf(B)
                * mpmath.mpf(4) ** (-k + 3) * (k / (2 * mpmath.pi)) ** 4
            )
            assert b_k_y0_limit(k, Y0, B) == pytest.approx(float(expected), rel=1e-13)

    def test_dominated_by_coarse_cap(self, psl2z_constants):
        # with B_Y0 <= 4.022 and Y0 = 2 the tail constant stays below
        # 4^{-k+4} (k / 2 pi)^4
        for k in range(2, 60):
            value = b_k_y0_limit(k, 2.0, psl2z_constants.B_Y0)
            cap = 4.0 ** (-k + 4) * (k / (2 * math.pi)) ** 4
            assert value <= cap


class TestPoincareBound:
    def test_elliptic_excess_term(self, psl2z_constants):
        value = poincare_bound_compact(6, 0.1, psl2z_constants)
        main = (
            4 * math.pi * 2.1 / 1.1 * psl2z_constants.B_Y * psl2z_constants.sigma_Y ** -4
        )
        assert psl2z_constants.elliptic_excess == 5
        assert value == pytest.approx(main + 5.0, rel=1e-14)

    def test_weight_four_ignores_sigma(self):
        a = poincare_bound_compact(2, 0.3, make_constants(sigma_Y=1.2))
        b = poincare_bound_compact(2, 0.3, make_constants(sigma_Y=9.0))
        assert a == b

    def test_rejects_weight_two(self, psl2z_constants):
        with pytest.raises(ValueError):
            poincare_bound_compact(1, 0.1, psl2z_constants)


class TestSpectralGapBound:
    def test_vanishing_series(self):
        for k in (1, 6):
            for eps in (0.1, 0.9):
                expected = (2 * k - 1 + eps) * (1 + eps) / (4 * math.pi)
                assert spectral_gap_bound(k, eps, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_small_eps_limit(self):
        k, P = 7, 3.0
        val = spectral_gap_bound(k, 1e-9, P)
        limit = (2 * k - 1) / (4 * math.pi) + 3 * (2 * k - 1) / (2 * math.pi) * P
        assert val == pytest.approx(limit, rel=1e-7)

    def test_extended_precision_recheck(self):
        k, eps, P = 6, 0.1, 5.0
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            expected = (2 * k - 1 + e) * (1 + e) / (4 * mpmath.pi) + 3 * (2 * k + e) * (
                2 * k - 1 + e
            ) * (1 + e) / (4 * mpmath.pi * (k + e)) * P
            assert spectral_gap_bound(k, eps, P) == pytest.approx(float(expected), rel=1e-14)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            spectral_gap_bound(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            spectral_gap_bound(3, -1e-3, 1.0)


class TestEpsZeroLimit:
    """eps = 0 evaluates each eps-form at its hand-written eps -> 0 limit."""

    def test_matches_written_limits(self, psl2z_constants):
        c = psl2z_constants
        for k in (2, 6, 26):
            P = 3.7
            assert spectral_gap_bound(k, 0.0, P) == pytest.approx(
                (2 * k - 1) / (4 * math.pi) + 3 * (2 * k - 1) / (2 * math.pi) * P,
                rel=1e-14, abs=0.0,
            )
            assert poincare_bound_compact(k, 0.0, c) == pytest.approx(
                8 * math.pi * c.B_Y * c.sigma_Y ** -(k - 2) + c.elliptic_excess,
                rel=1e-14, abs=0.0,
            )
            assert b_k_y0(k, 2.0, c.B_Y0, 0.0) == pytest.approx(
                2 * math.pi * 2.0**-4 * c.B_Y0 * 4.0 ** (-k + 3) * (k / (2 * math.pi)) ** 4,
                rel=1e-14, abs=0.0,
            )
            assert parabolic_sum_bound(k, 0.0) == pytest.approx(
                math.sqrt(k) * E54 / math.sqrt(math.pi), rel=1e-14, abs=0.0
            )

    def test_negative_eps_rejected(self, psl2z_constants):
        # NaN and inf used to pass an eps < 0 test and come out as NaN bounds
        for eps in (-1e-3, -math.inf, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps"):
                poincare_bound_compact(6, eps, psl2z_constants)
            with pytest.raises(ValueError, match="eps"):
                b_k_y0(6, 2.0, 4.0, eps)
            with pytest.raises(ValueError, match="eps"):
                parabolic_sum_bound(6, eps)


class TestCompactBound:
    def test_modular_leading_term(self, psl2z_constants):
        for k in (2, 6, 20):
            value = sup_bound_compact(k, psl2z_constants)
            lead = 31.0 * (2 * k - 1) / (4 * math.pi)
            decay = 12.0 * (2 * k - 1) * psl2z_constants.B_Y * psl2z_constants.sigma_Y ** -(k - 2)
            assert value == pytest.approx(lead + decay, rel=1e-14)

    def test_engine_decay_below_rounded_coefficients(self, psl2z_constants):
        # the sharper computed coefficient must stay below the coarser
        # rounded pair (72, 1.014) at every weight
        for k in range(2, 61):
            mine = 12.0 * psl2z_constants.B_Y * psl2z_constants.sigma_Y ** -(k - 2)
            coarse = 72.0 * 1.014 ** -(k - 2)
            assert mine <= coarse

    def test_torsionfree_collapse(self):
        c = make_constants(B_Y=3.0, sigma_Y=2.0, excess=0)
        k = 5
        expected = (2 * k - 1) / (4 * math.pi) + 12 * (2 * k - 1) * 3.0 * 2.0 ** -(k - 2)
        assert sup_bound_compact(k, c) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_sigma_and_b(self):
        k = 8
        lo = sup_bound_compact(k, make_constants(sigma_Y=1.5))
        hi = sup_bound_compact(k, make_constants(sigma_Y=1.1))
        assert lo < hi
        small = sup_bound_compact(k, make_constants(B_Y=2.0))
        big = sup_bound_compact(k, make_constants(B_Y=4.0))
        assert small < big


class TestCuspBound:
    def test_large_weight_value(self, psl2z_constants):
        k = 26
        value, source = sup_bound_cusp(k, psl2z_constants)
        assert source == "cusp_faddeev_tail"
        tail = b_k_y0_limit(k, 2.0, psl2z_constants.B_Y0)
        expected = (2 * k - 1) / (4 * math.pi) + 3 * (2 * k - 1) / (2 * math.pi) * (
            tail + math.sqrt(k) * E54 / math.sqrt(math.pi)
        )
        assert value == pytest.approx(expected, rel=1e-14)

    def test_redirect_below_threshold(self, psl2z_constants):
        # 2 pi Y = 25.956..., so k = 25 still belongs to the compact branch
        assert sup_bound_cusp(25, psl2z_constants) == (
            sup_bound_compact(25, psl2z_constants), "cusp_max_principle"
        )
        assert sup_bound_cusp(26, psl2z_constants)[1] == "cusp_faddeev_tail"

    def test_growth_rate(self, psl2z_constants):
        target = 3.0 * E54 / (math.pi * math.sqrt(math.pi))
        k = 10**6
        assert sup_bound_cusp(k, psl2z_constants)[0] / k**1.5 == pytest.approx(
            target, rel=1e-3
        )


class TestCocompactConstants:
    def test_decay_exponent(self):
        ell = 2.0 * math.acosh(1.5)
        c = cocompact_constants(2, ell)
        assert c.delta_gamma == pytest.approx(0.5 * math.log(2.25), abs=1e-12)
        assert c.delta_gamma == pytest.approx(0.4054651081, abs=1e-9)

    def test_extended_precision_recheck(self):
        with mpmath.workdps(50):
            ell = mpmath.mpf(1)
            sigma = (mpmath.cosh(ell) + 1) / 2
            expected_C = (
                3 * mpmath.exp(8 * mpmath.pi) / mpmath.pi * (mpmath.cosh(ell) + 1) ** 2
                / mpmath.log(sigma)
            )
            got = cocompact_constants(2, 1.0)
            assert got.C_gamma == pytest.approx(float(expected_C), rel=1e-12)
            assert got.delta_gamma == pytest.approx(float(mpmath.log(sigma) / 2), rel=1e-13)

    def test_delta_increasing(self):
        ells = [0.5, 1.0, 1.9, 3.0, 5.0]
        deltas = [cocompact_constants(2, e).delta_gamma for e in ells]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))

    def test_genus_domain(self):
        with pytest.raises(ValueError):
            cocompact_constants(1, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10**6), st.floats(1e-3, 100.0))
    def test_diameter_above_packing_bound(self, genus, ell):
        # disjoint embedded balls of radius ell/2 along a minimizing geodesic
        packing = ell * (genus - 1) / math.sinh(ell / 4.0) ** 2
        assert _volume_systole_diameter(genus, ell) >= packing

    def test_packing_bound_on_genus2_fixture(self, genus2_domain):
        constants = compute_constants(genus2_domain)
        ell = constants.ell_gamma
        assert ell / math.sinh(ell / 4.0) ** 2 == pytest.approx(7.70, abs=5e-3)
        assert constants.diam_Y == _volume_systole_diameter(2, ell)
        assert constants.diam_Y == pytest.approx(26.11, abs=5e-3)
        assert constants.B_Y == pytest.approx(37271, rel=1e-4)


class TestLowerBound:
    def test_genus_simplification(self, genus2_domain):
        assert sup_lower_bound(6, genus2_domain) == pytest.approx(11.0 / (4 * math.pi), rel=1e-12)

    def test_modular_weight_twelve(self, psl2z):
        assert sup_lower_bound(6, psl2z) == pytest.approx(3.0 / math.pi, rel=1e-12)

    def test_weight_two_rejected(self, genus2_domain, psl2z):
        # the dimension formula fails at weight 2, so no floor is offered there
        for domain in (genus2_domain, psl2z):
            with pytest.raises(ValueError, match="k >= 2"):
                sup_lower_bound(1, domain)


class TestPipeline:
    def test_modular_constants_table(self, psl2z_constants):
        c = psl2z_constants
        assert c.Y == pytest.approx(16.0 / math.sqrt(15.0), rel=1e-14)
        assert c.Y == pytest.approx(4.13118, abs=1e-5)
        assert c.ell_gamma == pytest.approx(1.9248473, abs=1e-7)
        assert c.m_Y == pytest.approx(math.sqrt(3) / 2, abs=1e-6)
        assert c.M_Y == c.Y
        assert c.diam_Y == pytest.approx(2.861696, abs=1e-4)
        assert c.diam_Y0 == pytest.approx(1.577185, abs=1e-4)
        assert c.vol_Y == pytest.approx(0.805136, abs=1e-6)
        assert c.vol_Y0 == pytest.approx(0.547198, abs=1e-6)

    def test_branch_structure(self, psl2z):
        _, report = run_algorithm(psl2z, Y0=2.0, k_min=2, k_max=30)
        cusp_rows = {r.k: r for r in report.rows if r.region == "F_1^Y"}
        compact_rows = {r.k: r for r in report.rows if r.region == "F_Y"}
        threshold = 2.0 * math.pi * (16.0 / math.sqrt(15.0))
        assert threshold == pytest.approx(25.9569835, abs=1e-6)
        for k in range(2, 31):
            assert compact_rows[k].source == "compact_poincare"
            if k <= 25:
                assert cusp_rows[k].source == "cusp_max_principle"
                assert cusp_rows[k].upper == compact_rows[k].upper
            else:
                assert cusp_rows[k].source == "cusp_faddeev_tail"

    def test_threshold_rows_finite(self, psl2z):
        _, report = run_algorithm(psl2z, Y0=2.0, k_min=25, k_max=26)
        by_key = {(r.k, r.region): r for r in report.rows}
        assert 0.0 < by_key[(25, "F_1^Y")].upper < math.inf
        assert 0.0 < by_key[(26, "F_1^Y")].upper < math.inf
        assert 0.0 < by_key[(26, "F_Y")].upper < math.inf

    def test_lower_below_upper(self, psl2z):
        _, report = run_algorithm(psl2z, Y0=2.0, k_min=2, k_max=40)
        for row in report.rows:
            if row.lower is not None:
                assert row.lower <= row.upper

    def test_cocompact_reduces_to_decay_curve(self, genus2_domain):
        constants, report = run_algorithm(genus2_domain, Y0=2.0, k_min=2, k_max=50)
        assert constants.C_gamma is not None
        for row in report.rows:
            assert row.region == "F"
            assert row.source == "cocompact_exponential"
            base = (2 * row.k - 1) / (4 * math.pi)
            expected = base + constants.C_gamma * math.exp(-constants.delta_gamma * row.k)
            assert row.upper == pytest.approx(expected, rel=1e-14)
            assert row.upper >= base  # decay term is positive
            assert row.lower == pytest.approx(base, rel=1e-12)

    def test_cocompact_excess_decreasing(self, genus2_domain):
        constants, report = run_algorithm(genus2_domain, Y0=2.0, k_min=2, k_max=60)
        excess = [r.upper - (2 * r.k - 1) / (4 * math.pi) for r in report.rows]
        assert all(a > b > 0.0 for a, b in zip(excess, excess[1:]))

    def test_empty_range(self, psl2z):
        _, report = run_algorithm(psl2z, Y0=2.0, k_min=5, k_max=4)
        assert report.rows == ()

    def test_rejects_weight_below_four(self, psl2z):
        with pytest.raises(ValueError):
            run_algorithm(psl2z, Y0=2.0, k_min=1, k_max=4)

    def test_y_floor_enforced(self, psl2z):
        constants = compute_constants(psl2z, Y0=1.0)
        assert constants.Y == pytest.approx(Y_FLOOR, rel=1e-15)
        constants = compute_constants(psl2z, Y0=3.0)
        assert constants.Y == 6.0

    def test_truncation_below_floor_rejected(self, psl2z):
        with pytest.raises(ValueError, match="empty"):
            compute_constants(psl2z, Y0=0.5)

    def test_errors_carry_step_labels(self):
        d = load_domain({"genus": 2, "cusps": []})
        with pytest.raises(ValueError, match=r"step 2 \(systole\)"):
            compute_constants(d, Y0=2.0)


class TestReportSerialization:
    def test_json_round_trip(self, psl2z):
        _, report = run_algorithm(psl2z, Y0=2.0, k_min=2, k_max=8)
        doc = json.loads(json.dumps(asdict(report)))
        again = BoundReport(**{**doc, "rows": tuple(BoundRow(**r) for r in doc["rows"])})
        assert again == report

    def test_csv_shape(self, psl2z):
        _, report = run_algorithm(psl2z, Y0=2.0, k_min=2, k_max=2)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "k,region,upper,lower,source"
        assert len(lines) == 3  # one compact row, one cusp row
