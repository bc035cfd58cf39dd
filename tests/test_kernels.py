"""Tests for the special-function layer and kernel integrals."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, erfcx, gammaln

from supnorm import engine, kernels
from supnorm.engine import gamma_ratio_bound, parabolic_sum_bound
from supnorm.forms import _gauss_nodes
from supnorm.kernels import (
    _DUAL_TOL,
    AccuracyError,
    _difference_series,
    _log_chebyshev,
    _radial_integral,
    faddeev_transfer,
    heat_kernel,
    integrated_exponential_lhs,
    resolvent_G,
    resolvent_via_heat,
    run_kernel_checks,
)

E54 = math.exp(1.25)


def stirling_lgamma_oracle(x: float) -> float:
    # shift into the asymptotic regime, then the Stirling series
    shift = 0.0
    while x < 12.0:
        shift += math.log(x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (
        1.0 / 12.0
        - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 / 1188.0)))
    )
    return (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series - shift


LGAMMA_POINTS = [1.0, 1.5, 2.5, 7.3, 10.5, 100.1, 5000.0]


class TestLogGamma:
    # log-gamma routes against the Stirling-series recursion
    @pytest.mark.parametrize("x", LGAMMA_POINTS)
    def test_against_stirling_series(self, x):
        assert float(gammaln(x)) == pytest.approx(
            stirling_lgamma_oracle(x), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("x", LGAMMA_POINTS)
    def test_math_lgamma_against_stirling_series(self, x):
        # math.lgamma backs the kernel prefactors
        assert math.lgamma(x) == pytest.approx(stirling_lgamma_oracle(x), rel=1e-12, abs=1e-12)


def chebyshev_oracle(k: int, x: float) -> float:
    """T_2k(x) = cosh(2k arccosh x) for x >= 1."""
    return math.cosh(2.0 * k * math.acosh(x))


def chebyshev_factor(k, r, rho):
    """T_2k(cosh(r/2)/cosh(rho/2)) from the integrands' log-space factor."""
    return math.exp(float(_log_chebyshev(k, r, rho)))


class TestChebyshev:
    # the integrands' Chebyshev factor against cosh(2k arccosh x)
    def test_at_one(self):
        for k in (1, 2, 10):
            assert chebyshev_oracle(k, 1.0) == 1.0
            for rho in (0.0, 0.7, 4.0):
                assert chebyshev_factor(k, rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_degree_four_polynomial(self):
        # T_4(x) = 8x^4 - 8x^2 + 1
        assert chebyshev_oracle(2, 2.0) == pytest.approx(97.0, rel=1e-12)
        assert chebyshev_factor(2, 2.0 * math.acosh(2.0), 0.0) == pytest.approx(97.0, rel=1e-12)
        # x = 2 again, as cosh(r/2)/cosh(rho/2) at rho > 0
        rho = 1.3
        r = 2.0 * math.acosh(2.0 * math.cosh(rho / 2.0))
        assert chebyshev_factor(2, r, rho) == pytest.approx(97.0, rel=1e-12)

    def test_exponential_domination(self):
        for k in (1, 2, 5, 13, 27, 50):
            for r in np.linspace(0.0, 10.0, 81):
                value = chebyshev_factor(k, r, 0.0)
                assert value == pytest.approx(chebyshev_oracle(k, math.cosh(r / 2.0)), rel=1e-12)
                assert value <= math.exp(k * r) * (1 + 1e-12)

    def test_near_endpoint(self):
        # r = rho + u^2 as the integrands place it, down to u far below sqrt(ulp)
        for k in (1, 6, 50):
            for rho in (0.3, 2.0):
                for u in (1e-9, 1e-5, 1e-2):
                    x = math.cosh((rho + u * u) / 2.0) / math.cosh(rho / 2.0)
                    assert chebyshev_factor(k, rho + u * u, rho) == pytest.approx(
                        chebyshev_oracle(k, x), rel=1e-10
                    )


class TestGammaRatio:
    def test_at_one(self):
        g = gamma_ratio_bound(1.0)
        assert g.ratio == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert g.bound == pytest.approx(E54, rel=1e-14)

    def test_at_ten(self):
        g = gamma_ratio_bound(10.0)
        # Gamma(9.5)/Gamma(10) = sqrt(pi) * prod_{j=0..8}(j+1/2) / 9!
        num = math.sqrt(math.pi)
        for j in range(9):
            num *= j + 0.5
        expected = num / math.factorial(9)
        assert g.ratio == pytest.approx(expected, rel=1e-13)
        assert g.ratio <= g.bound
        assert g.bound == pytest.approx(E54 / math.sqrt(10.0), rel=1e-14)

    def test_asymptotics(self):
        g = gamma_ratio_bound(1e6)
        assert g.ratio * math.sqrt(1e6) == pytest.approx(1.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_ratio_bound(0.5)

    def test_wendel_proves_the_bound(self):
        # the docstring's proof: Wendel's bound sqrt(Z)/(Z - 1/2) lies between
        # the ratio and e^{5/4}/sqrt(Z) from Z = 0.7008 on, here at 30 digits
        # on 200 log-spaced Z in [1, 1e8]
        with mpmath.workdps(30):
            e54 = mpmath.exp(mpmath.mpf(5) / 4)
            assert e54 / (2 * (e54 - 1)) < 1
            for Z in np.logspace(0.0, 8.0, 200):
                Z = mpmath.mpf(float(Z))
                ratio = mpmath.exp(mpmath.loggamma(Z - 0.5) - mpmath.loggamma(Z))
                wendel = mpmath.sqrt(Z) / (Z - 0.5)
                assert ratio <= wendel <= e54 / mpmath.sqrt(Z)


class TestResolvent:
    def test_large_sigma_asymptote(self):
        k, s, sigma = 2, 3.5, 1e8
        lead = math.exp(gammaln(s + k) + gammaln(s - k) - gammaln(2 * s)) / (4 * math.pi)
        assert resolvent_G(k, s, sigma) * sigma**s == pytest.approx(lead, rel=1e-7)

    def test_positive_on_grid(self):
        for k in (1, 2, 6):
            for eps in (0.1, 0.7):
                for sigma in (1.2, 2.0, 50.0):
                    assert resolvent_G(k, k + eps, sigma) > 0.0

    def test_singular_point(self):
        with pytest.raises(ValueError):
            resolvent_G(1, 2.0, 1.0)

    def test_spectral_parameter_domain(self):
        with pytest.raises(ValueError):
            resolvent_G(3, 2.5, 2.0)


def _difference_quadrature(k, s, sigma):
    """kernels._difference_quadratures at one (k, s, sigma)."""
    return float(kernels._difference_quadratures([k], [s], [sigma])[0])


def _difference_routes(k, s, sigma):
    """(series, quadrature) values of G_k(s) - G_k(s+1) at displacement sigma."""
    return _difference_series(k, s, sigma), _difference_quadrature(k, s, sigma)


def _integrated_exponential_k_form(k, eps, rho):
    """The integrated exponential with its own integrand: weight e^{kr} at s = k + eps."""
    s = k + eps
    value, _ = _radial_integral(
        0, rho, lambda r: -(s - 0.5) * r + np.log(-np.expm1(-r)) + k * r,
        kernels._difference_log_tail(0, eps, rho), 1.0,
    )
    return float(value)


class TestDifferenceKernel:
    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("eps", [0.1, 0.5])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 10.0])
    def test_dual_routes_agree(self, k, eps, sigma):
        series_value, quad_value = _difference_routes(k, k + eps, sigma)
        assert series_value > 0.0
        assert abs(series_value - quad_value) <= _DUAL_TOL * series_value

    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("eps", [0.1, 0.5])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 10.0])
    def test_decay_bound(self, k, eps, sigma):
        value, _ = _difference_routes(k, k + eps, sigma)
        assert value <= 3.0 / (2.0 * math.pi * eps) * sigma ** -(k + eps)

    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 10.0])
    def test_integrated_exponential_bound(self, k, eps, sigma):
        # the bound is stated at s = k + eps for every k; the k-independent
        # value must equal the integral written with e^{kr} at each k
        rho = 2.0 * math.acosh(math.sqrt(sigma))
        lhs = integrated_exponential_lhs(eps, rho)
        assert lhs == pytest.approx(_integrated_exponential_k_form(k, eps, rho), rel=1e-13)
        assert lhs <= 3.0 * math.sqrt(2.0) / eps * math.exp(-eps * rho) * (1 + 1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 10.0])
    def test_integrated_exponential_series_route(self, eps, sigma):
        # the k = 0 difference kernel at s = eps, summed as hypergeometric series
        rho = 2.0 * math.acosh(math.sqrt(sigma))
        series = resolvent_G(0, eps, sigma) - resolvent_G(0, eps + 1.0, sigma)
        expected = 2.0 * math.pi * math.sqrt(2.0) * series
        assert integrated_exponential_lhs(eps, rho) == pytest.approx(expected, rel=1e-12)


class TestHeatKernel:
    def test_monotone_in_rho(self):
        for k in (1, 3):
            for t in (0.3, 1.0, 2.5):
                vals = [heat_kernel(k, t, rho) for rho in (0.0, 0.3, 0.8, 1.6, 3.0)]
                assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dominated_by_origin_value(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            t = float(rng.uniform(0.1, 2.0))
            rho = float(rng.uniform(0.05, 4.0))
            assert heat_kernel(k, t, rho) <= heat_kernel(k, t, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            heat_kernel(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            heat_kernel(1, 1.0, -0.5)

    def test_overflow_raises_accuracy_error(self):
        # e^{k r - r^2/(4t)} peaks near e^{10^4} at k = 50, t = 1
        with pytest.raises(AccuracyError, match="not finite"):
            heat_kernel(50, 1.0, 0.4)

    def test_monotone_check_batches_its_times(self, monkeypatch):
        # run_kernel_checks takes t = 0.2 and 1.0 in one call per (k, rho);
        # both times get u-panels of width 1, so each value is its own call's
        for k, rho in itertools.product((1, 3), (0.0, 0.4, 0.9, 1.5)):
            both = heat_kernel(k, np.array([0.2, 1.0]), rho)
            assert both.tolist() == [heat_kernel(k, 0.2, rho), heat_kernel(k, 1.0, rho)]
        sizes = []
        heat = kernels.heat_kernel
        monkeypatch.setattr(kernels, "heat_kernel",
                            lambda k, t, rho: sizes.append(np.size(t)) or heat(k, t, rho))
        results = {r.name: r for r in run_kernel_checks(50)}
        # the eight monotonicity calls, then each of the three transforms'
        # calls through the same public heat_kernel: runs of up to eight time
        # panels from the first one on
        assert sizes == [2] * 8 + [576, 432] * 3
        assert results["heat_kernel_monotone"].passed is True

    def test_array_of_times_matches_scalar_calls(self):
        ts = np.array([0.05, 0.3, 1.0, 4.0])
        values = heat_kernel(2, ts, 0.7)
        assert values.shape == ts.shape
        # each time integrates on its own u-panels, so the array changes no bit
        assert values.tolist() == [heat_kernel(2, float(t), 0.7) for t in ts]

    @pytest.mark.parametrize("k,s,sigma", [(1, 2.0, 2.0), (1, 1.8, 3.5), (2, 3.0, 2.5)])
    def test_transform_recovers_resolvent(self, k, s, sigma):
        direct = resolvent_G(k, s, sigma)
        via_heat = resolvent_via_heat(k, s, sigma)
        assert via_heat == pytest.approx(direct, rel=1e-4)

    @pytest.mark.parametrize("sigma", [1.3, 2.0, 5.0])
    def test_transform_at_width_floor(self, sigma):
        # at k = 1, s = 4.5 the rate (s-1/2)^2 - (k-1/2)^2 that sizes the time
        # panels is 15.75; 3/rate is below 0.25, so the panels take the floor
        width, _, _ = _panel_runs(resolvent_via_heat, 1, 4.5, sigma)[-1]
        assert width == 0.25
        assert resolvent_via_heat(1, 4.5, sigma) == pytest.approx(
            resolvent_G(1, 4.5, sigma), rel=1e-12)

    @pytest.mark.parametrize("k,s,sigma", [(0, 0.5, 1.3), (0, 0.8, 1.3), (0, 1.0, 2.0),
                                           (-1, 2.0, 2.0)])
    def test_transform_refuses_k_below_one_before_any_heat_kernel(self, monkeypatch,
                                                                  k, s, sigma):
        # the transform takes k >= 1; a smaller k is refused by its range
        # check, before any tail bound or heat-kernel call
        calls = []
        monkeypatch.setattr(kernels, "heat_kernel", lambda *args: calls.append(args))
        monkeypatch.setattr(kernels, "_transform_log_tail", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"\bk\b"):
            resolvent_via_heat(k, s, sigma)
        assert calls == []

    def test_transform_error_estimate_gated(self, monkeypatch):
        # the estimate for (1, 2.0, 2.0) is about 3e-8 relative
        monkeypatch.setattr(kernels, "_TRANSFORM_REL_TARGET", 1e-12)
        with pytest.raises(AccuracyError, match="transform"):
            resolvent_via_heat(1, 2.0, 2.0)


def _scalar_radial_integrand(k, rho, log_weight):
    """u -> 2u e^{log_weight(r)} T_2k(cosh(r/2)/cosh(rho/2)) / sqrt(cosh r - cosh rho)
    at r = rho + u^2, in scalar log space."""
    log2 = math.log(2.0)

    def logcosh(x):
        return abs(x) - log2 + math.log1p(math.exp(-2.0 * abs(x)))

    def logsinh(x):
        return x - log2 + math.log(-math.expm1(-2.0 * x))

    def integrand(u):
        r = rho + u * u
        log_ratio = max(logcosh(r / 2.0) - logcosh(rho / 2.0), 0.0)
        a = math.acosh(math.exp(log_ratio)) if log_ratio < 30.0 else log_ratio + log2
        log_gap = log2 + logsinh(rho + u * u / 2.0) + logsinh(u * u / 2.0)
        return 2.0 * u * math.exp(log_weight(r) + logcosh(2 * k * a) - 0.5 * log_gap)

    return integrand


def _adaptive_radial(k, rho, log_weight):
    """The radial integral by adaptive quadrature on unit u-panels, in scalar log space."""
    integrand = _scalar_radial_integrand(k, rho, log_weight)
    total = 0.0
    for i in range(40):
        total += quad(integrand, i, i + 1.0, epsabs=1e-14 * total, epsrel=1e-12, limit=200)[0]
    return total


class TestRadialIntegral:
    # the fixed-node panel rule against scipy's adaptive quadrature
    # each weight with its integrand's tail bound: the difference kernels at
    # s = 2 and 6.1, the integrated exponential at eps = 0.1, heat at t = 1, 0.2
    @pytest.mark.parametrize(
        "k,rho,log_weight,log_tail",
        [
            (1, 1.76, lambda r: -1.5 * r + math.log(-math.expm1(-r)),
             kernels._difference_log_tail(1, 1.0, 1.76)),
            (6, 0.96, lambda r: -5.6 * r + math.log(-math.expm1(-r)),
             kernels._difference_log_tail(6, 0.1, 0.96)),
            (0, 3.6, lambda r: -1.6 * r + math.log(-math.expm1(-r)) + 2 * r,
             kernels._difference_log_tail(0, 0.1, 3.6)),
            (3, 0.4, lambda r: math.log(r) - r * r / 4.0, kernels._heat_log_tail(3, 1.0, 0.4)),
            (1, 1.5, lambda r: math.log(r) - r * r / 0.8, kernels._heat_log_tail(1, 0.2, 1.5)),
        ],
        ids=["difference-k1", "difference-k6", "integrated-exp", "heat-t1", "heat-t0.2"],
    )
    def test_against_adaptive_quad(self, k, rho, log_weight, log_tail):
        vector_weight = np.vectorize(log_weight)
        value, err = _radial_integral(k, rho, vector_weight, log_tail, 1.0)
        assert value == pytest.approx(_adaptive_radial(k, rho, log_weight), rel=1e-10)
        assert err <= 1e-10 * value


def _two_call_panels(f, width, log_tail, run=None):
    """Reference panel loop: f on the 48 nodes for the value, then again on the
    24, one panel per call whatever run allows; the library's row-wise sums
    and tail stop rule."""
    total = 0.0
    err = 0.0
    for i in range(kernels._PANEL_LIMIT):
        lo, hi = i * width, (i + 1) * width
        x, w = _gauss_nodes(lo, hi, 48)
        val = np.vecdot(f(x), w)
        total = total + val
        if not np.all(np.isfinite(total)):
            raise AccuracyError("panel integral is not finite")
        x, w = _gauss_nodes(lo, hi, 24)
        err = err + np.abs(val - np.vecdot(f(x), w))
        if np.all(log_tail(hi) < np.log(kernels._PANEL_TINY * np.maximum(np.abs(total), 1e-300))):
            return total, err
    raise AccuracyError("panel integration did not terminate")


def _quiet_panels(f, width, log_tail, run=None):
    """Reference panel loop with the stop rule the tail bounds replaced: the
    merged 72-node call, one panel per call, stopped once five panels in a
    row each add less than _PANEL_TINY of the running total; log_tail and run
    are ignored."""
    x_full, w_full = kernels._legendre_rule(48)
    x_half, w_half = kernels._legendre_rule(24)
    nodes = np.concatenate((x_full, x_half))
    total = 0.0
    err = 0.0
    quiet = 0
    for i in range(kernels._PANEL_LIMIT):
        lo, hi = i * width, (i + 1) * width
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        fx = f(mid + half * nodes)
        val = np.vecdot(fx[..., :48], half * w_full)
        total = total + val
        if not np.isfinite(total).all():
            raise AccuracyError("panel integral is not finite")
        err = err + np.abs(val - np.vecdot(fx[..., 48:], half * w_half))
        if (np.abs(val) < kernels._PANEL_TINY * np.maximum(np.abs(total), 1e-300)).all():
            quiet += 1
            if quiet >= 5:
                return total, err
        else:
            quiet = 0
    raise AccuracyError("panel integration did not terminate")


_MERGED_PANELS = kernels._integrate_panels


def _run_with_panels(monkeypatch, panels, func, *args):
    """func(*args) with panels as the panel loop; returns it and the outermost (value, err)."""
    depth = 0
    outer = []

    def recording(f, width, log_tail, run=None):
        nonlocal depth
        depth += 1
        try:
            result = panels(f, width, log_tail, run=run)
        finally:
            depth -= 1
        if depth == 0:
            outer.append(result)
        return result

    monkeypatch.setattr(kernels, "_integrate_panels", recording)
    value = func(*args)
    (result,) = outer
    return value, result


class TestMergedPanelRule:
    # one integrand call per panel against the reference loop that made two

    @pytest.mark.parametrize(
        "k,s,sigma", [(1, 2.0, 2.0), (1, 1.8, 3.5), (2, 3.0, 2.5), (3, 4.5, 1.7), (6, 7.0, 5.0)]
    )
    def test_transform_matches_two_call_loop(self, monkeypatch, k, s, sigma):
        new, (_, new_err) = _run_with_panels(monkeypatch, _MERGED_PANELS,
                                             resolvent_via_heat, k, s, sigma)
        old, (_, old_err) = _run_with_panels(monkeypatch, _two_call_panels,
                                             resolvent_via_heat, k, s, sigma)
        assert new == old
        # the estimates' 24-node times may get narrower u-panels than before
        assert new_err == pytest.approx(old_err, rel=1e-2)

    @pytest.mark.parametrize(
        "func,args",
        [
            (_difference_quadrature, (0, 0.1, 1.5)),
            (_difference_quadrature, (0, 0.5, 2.0)),
            (_difference_quadrature, (0, 0.9, 10.0)),
            (_difference_quadrature, (1, 1.1, 1.5)),
            (_difference_quadrature, (2, 2.5, 2.0)),
            (_difference_quadrature, (6, 6.5, 10.0)),
            (heat_kernel, (2, np.array([0.05, 0.3, 1.0, 4.0]), 0.7)),
        ],
        # an intexp id names the (k, eps, sigma) grid point of the integrated
        # exponential, the k = 0 difference kernel at s = eps for every k
        ids=["intexp-1-0.1-1.5", "intexp-2-0.5-2", "intexp-6-0.9-10",
             "difference-1-0.1-1.5", "difference-2-0.5-2", "difference-6-0.5-10", "heat-array"],
    )
    def test_radial_matches_two_call_loop(self, monkeypatch, func, args):
        new, (new_raw, new_err) = _run_with_panels(monkeypatch, _MERGED_PANELS, func, *args)
        old, (old_raw, old_err) = _run_with_panels(monkeypatch, _two_call_panels, func, *args)
        assert np.array_equal(new, old)
        assert np.array_equal(new_raw, old_raw)
        assert np.array_equal(new_err, old_err)

    def test_one_integrand_call_per_panel(self, monkeypatch):
        integrations = []  # (depth, width, node arrays of each f call)
        depth = 0

        def counting(f, width, log_tail, run=None):
            nonlocal depth
            calls = []
            integrations.append((depth, width, calls))

            def counted(x):
                calls.append(np.array(x))
                return f(x)

            depth += 1
            try:
                return _MERGED_PANELS(counted, width, log_tail, run=run)
            finally:
                depth -= 1

        heat_sizes = []
        heat = kernels.heat_kernel

        def counting_heat(k, t, rho):
            heat_sizes.append(np.size(t))
            return heat(k, t, rho)

        monkeypatch.setattr(kernels, "_integrate_panels", counting)
        monkeypatch.setattr(kernels, "heat_kernel", counting_heat)
        resolvent_via_heat(1, 2.0, 2.0)

        for depth, width, calls in integrations:
            # a u-integral gets one panel per call, the time integral a run
            # of panels, one row of 72 nodes each
            assert all(x.shape == ((72,) if depth else (len(x), 72)) for x in calls)
            # every row lies on the next panel: no panel is evaluated twice
            rows = [row for x in calls for row in x.reshape(-1, 72)]
            assert [int(x.min() // width) for x in rows] == list(range(len(rows)))
            assert all(int(x.max() // width) == i for i, x in enumerate(rows))
        (time_calls,) = [calls for d, _, calls in integrations if d == 0]
        # eight time panels to a heat-kernel call up to the 14th, where the
        # tail bound stops the transform
        assert [len(x) for x in time_calls] == [8, 6]
        assert heat_sizes == [72 * len(x) for x in time_calls]


def _transform_through_public_heat(k, s, sigma):
    """resolvent_via_heat's time integral with one public heat_kernel call per
    time panel, nothing shared between panels; returns (value, err)."""
    rho = 2.0 * math.acosh(math.sqrt(sigma))
    rate = (s - 0.5) ** 2 - (k - 0.5) ** 2
    width = max(0.25, min(2.0, 3.0 / rate))
    return _MERGED_PANELS(
        lambda t: np.exp((-((s - 0.5) ** 2) + 0.25) * t) * heat_kernel(k, t, rho), width,
        kernels._transform_log_tail(k, s, rho),
    )


class TestSharedRadialFactors:
    # the radial integrand's bits against the expression it assembles, and the
    # transform's runs of time panels against one public call per panel

    @pytest.mark.parametrize(
        "k,s,sigma", [(1, 2.0, 2.0), (1, 1.8, 3.5), (2, 3.0, 2.5), (3, 4.5, 1.7), (6, 7.0, 5.0)]
    )
    def test_transform_matches_public_heat_loop(self, monkeypatch, k, s, sigma):
        ref_value, ref_err = _transform_through_public_heat(k, s, sigma)
        value, (raw, err) = _run_with_panels(monkeypatch, _MERGED_PANELS,
                                             resolvent_via_heat, k, s, sigma)
        assert value == float(ref_value)
        assert raw == ref_value
        assert err == ref_err

    @pytest.mark.parametrize("t", [0.3, 2.0, np.array([0.7]), np.array([0.05, 0.3, 1.0, 4.0])],
                             ids=["scalar-0.3", "scalar-2", "one-time", "array"])
    def test_tensor_matches_expression(self, monkeypatch, t):
        k, rho = 2, 0.7
        integrands = []

        def capturing(f, width, log_tail, run=None):
            integrands.append(f)
            return _MERGED_PANELS(f, width, log_tail, run=run)

        monkeypatch.setattr(kernels, "_integrate_panels", capturing)
        heat_kernel(k, t, rho)
        (f,) = integrands
        # the integrand takes the times as a column, one row per time
        tt = np.asarray(t, dtype=float).reshape(-1, 1)
        for lo, hi in [(0.0, 0.25), (0.0, 1.0), (3.0, 4.0), (9.0, 10.0)]:
            # the 72 nodes of one panel, as the panel loop passes them
            x = np.concatenate((_gauss_nodes(lo, hi, 48)[0], _gauss_nodes(lo, hi, 24)[0]))
            r = rho + x * x
            log_cheb = _log_chebyshev(k, r, rho)
            gap = kernels._log_sqrt_gap(rho, x)
            log_w = r * r * (-0.25 / tt) + np.log(r)
            expected = np.exp(log_w + (np.log(2.0 * x) + log_cheb - gap))
            for _ in range(2):  # a second call sees nothing the first left behind
                got = f(x.copy())
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [list(itertools.product((1, 2, 6), (0.1, 0.5), (1.5, 2.0, 10.0))), [(2, 0.5, 2.0)]],
        ids=["kernel-check-grid", "one-row"],
    )
    def test_difference_matches_expression(self, monkeypatch, rows):
        integrands = []

        def capturing(f, width, log_tail, run=None):
            # integrate nothing: the panels below are evaluated by the test
            integrands.append(f)
            return np.zeros(len(rows)), np.zeros(len(rows))

        monkeypatch.setattr(kernels, "_integrate_panels", capturing)
        kernels._difference_quadratures(*zip(*[(k, k + eps, sigma) for k, eps, sigma in rows]))
        (f,) = integrands
        k = np.array([row[0] for row in rows], dtype=float)[:, None]
        s = k + np.array([row[1] for row in rows])[:, None]
        rho = np.array([2.0 * math.acosh(math.sqrt(row[2])) for row in rows])[:, None]
        for lo, hi in [(0.0, 0.25), (0.0, 1.0), (3.0, 4.0), (9.0, 10.0)]:
            x = np.concatenate((_gauss_nodes(lo, hi, 48)[0], _gauss_nodes(lo, hi, 24)[0]))
            r = rho + x * x
            log_w = -(s - 0.5) * r + np.log(-np.expm1(-r))
            log_cheb = _log_chebyshev(k, r, rho)
            expected = np.exp(log_w + (np.log(2.0 * x) + log_cheb
                                       - kernels._log_sqrt_gap(rho, x)))
            for _ in range(2):  # a second call sees nothing the first left behind
                got = f(x.copy())
                assert got.shape == expected.shape == (len(rows), 72)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "func,args,time_integrals",
        [
            (heat_kernel, (2, np.array([0.05, 0.3, 1.0, 4.0]), 0.7), 0),
            (heat_kernel, (1, 0.4, 0.0), 0),
            (resolvent_via_heat, (1, 2.0, 2.0), 1),
            (_difference_quadrature, (2, 2.5, 2.0), 0),
        ],
        ids=["heat-array", "heat-scalar", "transform", "difference"],
    )
    def test_every_u_integral_through_radial_integral(self, monkeypatch, func, args,
                                                      time_integrals):
        radial = kernels._radial_integral
        inside = radial_calls = outside = 0

        def counting_radial(*a):
            nonlocal inside, radial_calls
            radial_calls += 1
            inside += 1
            try:
                return radial(*a)
            finally:
                inside -= 1

        def counting_panels(f, width, log_tail, run=None):
            nonlocal outside
            outside += not inside
            return _MERGED_PANELS(f, width, log_tail, run=run)

        monkeypatch.setattr(kernels, "_radial_integral", counting_radial)
        monkeypatch.setattr(kernels, "_integrate_panels", counting_panels)
        func(*args)
        # the only panel integral outside _radial_integral is the transform's in time
        assert radial_calls >= 1
        assert outside == time_integrals


TRANSFORM_PROBES = [(1, 2.0, 2.0), (1, 1.8, 3.5), (2, 3.0, 2.5), (3, 4.5, 1.7), (6, 7.0, 5.0),
                    (1, 1.1, 2.0)]


def _panel_runs(func, *args, panels=_MERGED_PANELS):
    """(width, panels evaluated, log_tail) of each panel integral func(*args)
    makes with panels as the panel loop, in the order they finish, so a
    transform's time integral comes last."""
    runs = []

    def recording(f, width, log_tail, run=None):
        count = 0

        def counted(x):
            nonlocal count
            count += 1 if x.ndim == 1 else len(x)
            return f(x)

        result = panels(counted, width, log_tail, run=run)
        runs.append((width, count, log_tail))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_integrate_panels", recording)
        func(*args)
    return runs


def _heat_calls(func, *args):
    """func(*args) and the time array of each heat_kernel call it makes."""
    times = []
    heat = kernels.heat_kernel

    def recording(k, t, rho):
        times.append(t)
        return heat(k, t, rho)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "heat_kernel", recording)
        value = func(*args)
    return value, times


def _panel_ends(width, count):
    return [width * (i + 1) for i in range(count)]


def _quad(f, a, b):
    return quad(f, a, b, epsabs=1e-300, epsrel=1e-12, limit=200)[0]


def _adaptive_tail(f, start):
    """Integral of f over (start, inf) by scipy quad on unit panels, until a panel adds nothing."""
    total = 0.0
    while True:
        piece = _quad(f, start, start + 1.0)
        total += piece
        start += 1.0
        if piece <= 1e-17 * total:
            return total


def _adaptive_tails(f, ends):
    """Integral of f over (x, inf) for each x of the increasing ends: the pieces
    between ends, summed from the far end inward."""
    tails = [_adaptive_tail(f, ends[-1])]
    for lo, hi in zip(ends[-2::-1], ends[:0:-1]):
        tails.append(tails[-1] + _quad(f, lo, hi))
    return tails[::-1]


def _log_time_tail(big_t, a, b):
    """log of the integral of t^{-3/2} e^{-at-b/t} over t > T (a, b > 0).

    With p = sqrt(a), q = sqrt(b), x = p sqrt(T) - q/sqrt(T) and z = p sqrt(T)
    + q/sqrt(T), the integrand is sqrt(pi)/(2q) times the derivative of
    e^{2pq} erfc(q/sqrt t + p sqrt t) + e^{-2pq} erfc(q/sqrt t - p sqrt t), so
    the integral is sqrt(pi)/(2q) (e^{-2pq} erfc(x) - e^{2pq} erfc(z)),
    written through erfcx so that neither term overflows.
    """
    p, q = math.sqrt(a), math.sqrt(b)
    x = p * math.sqrt(big_t) - q / math.sqrt(big_t)
    z = p * math.sqrt(big_t) + q / math.sqrt(big_t)
    lead = 0.5 * math.log(math.pi) - math.log(2.0 * q)
    if x >= 0.0:
        return lead - a * big_t - b / big_t + math.log(erfcx(x) - erfcx(z))
    return lead - 2.0 * p * q + math.log(erfc(x) - erfcx(z) * math.exp(-x * x))


def _assert_dominates(log_tail, ends, tails):
    for x, tail in zip(ends, tails):
        if tail < 1e-290:  # subnormal tails carry rounding, not the bound
            continue
        with np.errstate(over="ignore"):
            bound = np.exp(log_tail(x))
        # the k = 0 difference bound is exact as R -> inf; the slack is the
        # oracle's relative tolerance
        assert tail <= bound * (1.0 + 1e-12), (x, tail, bound)


class TestTailBounds:
    # every tail bound at or above scipy's tail at each panel end up to the stop

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, 20])
    def test_difference_bound_dominates(self, k):
        for sigma, eps in itertools.product((1.05, 2.0, 10.0, 100.0), (0.05, 0.1, 0.5, 0.9)):
            s = k + eps
            ((width, count, log_tail),) = _panel_runs(_difference_quadrature, k, s, sigma)
            rho = 2.0 * math.acosh(math.sqrt(sigma))
            f = _scalar_radial_integrand(
                k, rho, lambda r: -(s - 0.5) * r + math.log(-math.expm1(-r)))
            ends = _panel_ends(width, count)
            _assert_dominates(log_tail, ends, _adaptive_tails(f, ends))

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_heat_bound_dominates(self, k):
        for rho, t in itertools.product((0.0, 0.1, 0.9, 3.0), (0.01, 0.1, 1.0, 5.0, 30.0)):
            ((width, count, log_tail),) = _panel_runs(heat_kernel, k, t, rho)
            f = _scalar_radial_integrand(k, rho, lambda r: math.log(r) - r * r / (4.0 * t))
            ends = _panel_ends(width, count)
            _assert_dominates(log_tail, ends, _adaptive_tails(f, ends))

    def test_time_tail_closed_form(self):
        for big_t, a, b in [(0.25, 0.09, 0.3), (3.0, 2.25, 4.0), (0.5, 6.0, 30.0),
                            (40.0, 0.09, 1.0)]:
            expected = quad(lambda t: t**-1.5 * math.exp(-a * t - b / t), big_t, np.inf,
                            epsabs=0.0, epsrel=1e-13, limit=500)[0]
            assert math.exp(_log_time_tail(big_t, a, b)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k,s,sigma", TRANSFORM_PROBES)
    def test_transform_bound_dominates(self, k, s, sigma):
        # the true tail by Fubini: the time integral in closed form inside one
        # radial quad, sqrt(2) (4 pi)^{-3/2} T_2k / sqrt-gap times r and the
        # integral of t^{-3/2} e^{-(s-1/2)^2 t - r^2/(4t)} over t > T
        width, count, log_tail = _panel_runs(resolvent_via_heat, k, s, sigma)[-1]
        rho = 2.0 * math.acosh(math.sqrt(sigma))
        mu = (s - 0.5) ** 2
        ends = _panel_ends(width, count)
        tails = []
        for big_t in ends:
            f = _scalar_radial_integrand(
                k, rho, lambda r: math.log(r) + _log_time_tail(big_t, mu, r * r / 4.0))
            tails.append(math.sqrt(2.0) * (4.0 * math.pi) ** -1.5 * _adaptive_tail(f, 0.0))
        _assert_dominates(log_tail, ends, tails)


def _with_quiet_panels(monkeypatch, func, *args):
    """func(*args) under the five-quiet-panel rule and under the library's,
    each with its outermost (value, err)."""
    new, (new_raw, _) = _run_with_panels(monkeypatch, _MERGED_PANELS, func, *args)
    old, (old_raw, _) = _run_with_panels(monkeypatch, _quiet_panels, func, *args)
    return (new, new_raw), (old, old_raw)


class TestTailStopRule:
    # a stop on the tail bound drops only panels that left the total unchanged
    # under the five-quiet-panel rule, so every value is the same bit for bit

    @pytest.mark.parametrize("k,s,sigma", TRANSFORM_PROBES)
    def test_transform_matches_quiet_rule(self, monkeypatch, k, s, sigma):
        new, old = _with_quiet_panels(monkeypatch, resolvent_via_heat, k, s, sigma)
        assert new == old

    @pytest.mark.parametrize("k", [0, 1, 2, 6])
    def test_difference_matches_quiet_rule(self, monkeypatch, k):
        for eps, sigma in itertools.product((0.1, 0.5, 0.9), (1.5, 2.0, 10.0)):
            new, old = _with_quiet_panels(monkeypatch, _difference_quadrature,
                                          k, k + eps, sigma)
            assert new == old, (eps, sigma)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_heat_matches_quiet_rule(self, monkeypatch, k):
        for rho, t in itertools.product((0.0, 0.1, 0.9, 3.0), (0.01, 0.2, 1.0, 5.0, 30.0)):
            new, old = _with_quiet_panels(monkeypatch, heat_kernel, k, t, rho)
            assert new == old, (rho, t)

    def test_heat_array_matches_quiet_rule(self, monkeypatch):
        (new, new_raw), (old, old_raw) = _with_quiet_panels(
            monkeypatch, heat_kernel, 2, np.array([0.05, 0.3, 1.0, 4.0]), 0.7)
        assert np.array_equal(new, old)
        assert np.array_equal(new_raw, old_raw)

    def test_transform_time_panels(self):
        counts = [_panel_runs(resolvent_via_heat, 1, 2.0, 2.0, panels=panels)[-1][1]
                  for panels in (_MERGED_PANELS, _quiet_panels)]
        assert counts == [14, 18]
        # the library's 14 panels take two heat-kernel calls, and runs of
        # panels end at the stop: none is evaluated past it
        _, times = _heat_calls(resolvent_via_heat, 1, 2.0, 2.0)
        assert [t.size for t in times] == [576, 432]

    def test_slow_decay_panel_limit(self, monkeypatch):
        # a bound on the rest still has to fall below 2^-54 of the total
        # within _PANEL_LIMIT time panels; (1, 2.0, 2.0) stops after 14, so a
        # limit of 13 ends it, as the 2,000 panels end a transform with s
        # close enough to k
        _, count, _ = _panel_runs(resolvent_via_heat, 1, 2.0, 2.0)[-1]
        assert count == 14
        monkeypatch.setattr(kernels, "_PANEL_LIMIT", 14)
        resolvent_via_heat(1, 2.0, 2.0)
        monkeypatch.setattr(kernels, "_PANEL_LIMIT", 13)
        with pytest.raises(AccuracyError, match="did not terminate"):
            resolvent_via_heat(1, 2.0, 2.0)


DIFFERENCE_GRID = [(k, k + eps, sigma) for k, eps, sigma
                   in itertools.product((1, 2, 6), (0.1, 0.5), (1.5, 2.0, 10.0))]


class TestBatchedIntegrals:
    # rows integrated together and time panels evaluated together keep the
    # bits each has alone

    def test_grid_rows_match_one_row_integrals(self):
        values = kernels._difference_quadratures(*zip(*DIFFERENCE_GRID))
        assert values.shape == (18,)
        for value, (k, s, sigma) in zip(values, DIFFERENCE_GRID):
            assert value == _difference_quadrature(k, s, sigma), (k, s, sigma)

    def test_kernel_check_grid_is_one_integral(self, monkeypatch):
        calls = []
        batched = kernels._difference_quadratures

        def recording(k, s, sigma):
            calls.append(list(zip(k, s, sigma)))
            return batched(k, s, sigma)

        monkeypatch.setattr(kernels, "_difference_quadratures", recording)
        run_kernel_checks(k_max=2)
        assert calls == [DIFFERENCE_GRID]

    @pytest.mark.parametrize("k,s,sigma", TRANSFORM_PROBES)
    def test_time_runs_match_single_panels(self, monkeypatch, k, s, sigma):
        value = resolvent_via_heat(k, s, sigma)
        monkeypatch.setattr(kernels, "_TIME_RUN", 1)
        assert resolvent_via_heat(k, s, sigma) == value

    def test_runs_keep_one_u_width(self, monkeypatch):
        # at rho = 250 the times of the first two time panels need u-panels
        # narrower than 1, each its own; a heat-kernel call integrates the
        # times of each width on one set of panels, so the runs start at the
        # first time panel
        k, s, rho = 1, 2.0, 250.0
        sigma = math.cosh(rho / 2.0) ** 2
        groups = []  # (times, width) of each radial integral
        heat_log_tail, radial = kernels._heat_log_tail, kernels._radial_integral
        monkeypatch.setattr(kernels, "_heat_log_tail",
                            lambda k, t, rho: groups.append([t]) or heat_log_tail(k, t, rho))
        monkeypatch.setattr(kernels, "_radial_integral",
                            lambda *a: groups[-1].append(a[-1]) or radial(*a))
        value, times = _heat_calls(resolvent_via_heat, k, s, sigma)
        assert [len(t) for t in times[:2]] == [8, 8]
        # every time in one group, and every group's times share their own width
        assert sorted(np.concatenate([t for t, _ in groups])) == sorted(
            np.concatenate([t.ravel() for t in times]))
        assert all(np.all(kernels._heat_width(t, rho) == w) for t, w in groups)
        # the first call's groups, one per width its times need
        n_first = len(set(kernels._heat_width(times[0], rho).flat))
        first_widths = [w for _, w in groups[:n_first]]
        assert len(set(first_widths)) == n_first > 2
        assert min(first_widths) < 0.5 and max(first_widths) == 1.0
        monkeypatch.setattr(kernels, "_TIME_RUN", 1)
        assert resolvent_via_heat(k, s, sigma) == value
        assert resolvent_G(k, s, sigma) == pytest.approx(value, rel=1e-13)

    def test_first_panel_times_match_their_own_calls(self, monkeypatch):
        # the 72 times of the first time panel share a heat-kernel call with
        # seven more panels, yet each value is the one its time has alone
        calls = []
        heat = kernels.heat_kernel
        monkeypatch.setattr(kernels, "heat_kernel",
                            lambda k, t, rho: calls.append((t, heat(k, t, rho))) or calls[-1][1])
        resolvent_via_heat(1, 2.0, 2.0)
        rho = 2.0 * math.acosh(math.sqrt(2.0))
        (first_times, first_values) = calls[0][0][0], calls[0][1][0]
        assert first_times.shape == (72,)
        assert first_values.tolist() == [heat(1, float(t), rho) for t in first_times]


class TestHalfUlpStop:
    # a tail below 2^-54 of the running total leaves the total unchanged, so
    # the stop at 2^-54 gives the values of the old stop at 1e-20

    def test_half_ulp_lemma(self):
        # binades where 2^-54 x is still a normal number, as it is for every
        # total above 2^-968 (about 4e-292)
        rng = np.random.default_rng(54)
        xs = rng.uniform(1.0, 2.0, 4000) * np.exp2(rng.integers(-968, 1023, 4000))
        xs = np.append(xs, [np.nextafter(2.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0**-968])
        assert kernels._PANEL_TINY == 2.0**-54
        assert np.all(xs + kernels._PANEL_TINY * np.abs(xs) == xs)
        # twice the fraction is a full half ulp and moves the total
        assert 1.5 + 2.0**-53 * 1.5 != 1.5

    @pytest.mark.parametrize("k,s,sigma", TRANSFORM_PROBES)
    def test_transform_matches_1e20_stop(self, monkeypatch, k, s, sigma):
        value = resolvent_via_heat(k, s, sigma)
        monkeypatch.setattr(kernels, "_PANEL_TINY", 1e-20)
        assert resolvent_via_heat(k, s, sigma) == value

    def test_heat_grid_matches_1e20_stop(self, monkeypatch):
        ts = np.array([0.01, 0.2, 1.0, 5.0, 30.0])
        cases = list(itertools.product((0, 1, 3), (0.0, 0.1, 0.9, 3.0)))
        values = [heat_kernel(k, ts, rho).tobytes() for k, rho in cases]
        monkeypatch.setattr(kernels, "_PANEL_TINY", 1e-20)
        assert [heat_kernel(k, ts, rho).tobytes() for k, rho in cases] == values

    def test_difference_grid_matches_1e20_stop(self, monkeypatch):
        values = kernels._difference_quadratures(*zip(*DIFFERENCE_GRID))
        monkeypatch.setattr(kernels, "_PANEL_TINY", 1e-20)
        assert kernels._difference_quadratures(*zip(*DIFFERENCE_GRID)).tobytes() == values.tobytes()


class TestParabolicBound:
    def test_value_at_26(self):
        expected = 26.0 * E54 / (math.sqrt(math.pi) * math.sqrt(26.0 + 1e-9))
        assert parabolic_sum_bound(26, 1e-9) == pytest.approx(expected, rel=1e-14)
        # the eps -> 0 shape sqrt(k) e^{5/4} / sqrt(pi)
        assert parabolic_sum_bound(26, 1e-12) == pytest.approx(
            math.sqrt(26.0) * E54 / math.sqrt(math.pi), rel=1e-9
        )

    def test_stirling_step(self):
        # k Gamma(k-1/2+eps)/(sqrt(pi) Gamma(k+eps)) <= bound
        for k in (2, 10, 26):
            for eps in (0.01, 0.5):
                mid = k * math.exp(gammaln(k - 0.5 + eps) - gammaln(k + eps)) / math.sqrt(math.pi)
                assert mid <= parabolic_sum_bound(k, eps)


class TestFaddeevTransfer:
    def test_adjacent_exponents(self):
        # d2 = d1 + 1 kills the 64/15 power
        y0, y, d1 = 1.3, 2.6, 1.2
        expected = y0 ** (-2 * d1 - 2) * y ** (-2 * (d1 + 1) + 4 * d1 + 4)
        assert faddeev_transfer(y0, y, d1, d1 + 1) == pytest.approx(expected, rel=1e-14)

    def test_general_value(self):
        y0, y, d1, d2 = 2.0, 4.0, 1.1, 3.6
        expected = (64 / 15) ** (d2 - d1 - 1) * y0 ** (-2 * d1 - 2) * y ** (-2 * d2 + 4 * d1 + 4)
        assert faddeev_transfer(y0, y, d1, d2) == pytest.approx(expected, rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            faddeev_transfer(2.0, 3.9, 1.0, 2.0)  # y < 2*y0
        with pytest.raises(ValueError):
            faddeev_transfer(2.0, 4.0, 1.0, 1.5)  # d2 < d1 + 1
        with pytest.raises(ValueError):
            faddeev_transfer(0.0, 1.0, 1.0, 2.0)

    def test_height_floor_identity(self):
        # (16/sqrt(15))^2 / 4 equals 64/15 exactly, so the floor height makes
        # (64/15)^(k-2) <= Y^(2k-4)/4^(k-2) an equality
        Y = 16.0 / math.sqrt(15.0)
        assert Y * Y / 4.0 == pytest.approx(64.0 / 15.0, rel=1e-15)
        for k in range(2, 40):
            assert (64.0 / 15.0) ** (k - 2) <= (Y ** (2 * k - 4) / 4.0 ** (k - 2)) * (1 + 1e-12)


@pytest.mark.parametrize(
    "func,args,name",
    [
        (resolvent_G, (1, 2.0, math.nan), "sigma"),
        (resolvent_via_heat, (1, 2.0, math.nan), "sigma"),
        (heat_kernel, (1, 1.0, math.nan), "rho"),
        (heat_kernel, (1, math.nan, 1.0), "t"),
        (integrated_exponential_lhs, (0.5, math.nan), "rho"),
        (faddeev_transfer, (math.nan, 4.0, 1.0, 2.0), "y0"),
        (faddeev_transfer, (2.0, math.nan, 1.0, 2.0), "y"),
        (faddeev_transfer, (2.0, 4.0, math.nan, 2.0), "d1"),
        (faddeev_transfer, (2.0, 4.0, 1.0, math.nan), "d2"),
        (resolvent_G, (1, 2.0, math.inf), "sigma"),
        (resolvent_G, (1, math.inf, 2.0), "s"),
        (resolvent_via_heat, (1, 2.0, math.inf), "sigma"),
        (resolvent_via_heat, (1, math.inf, 2.0), "s"),
        (heat_kernel, (1, 1.0, math.inf), "rho"),
        (heat_kernel, (1, math.inf, 1.0), "t"),
        (heat_kernel, (1, np.array([0.5, math.inf]), 1.0), "t"),
        (heat_kernel, (1, np.array([]), 1.0), "t"),
        (integrated_exponential_lhs, (0.5, math.inf), "rho"),
        (integrated_exponential_lhs, (math.inf, 1.0), "eps"),
        (integrated_exponential_lhs, (math.nan, 1.0), "eps"),
        (integrated_exponential_lhs, (0.0, 1.0), "eps"),
        (integrated_exponential_lhs, (-0.5, 1.0), "eps"),
    ],
    ids=["resolvent_G-sigma", "resolvent_via_heat-sigma", "heat_kernel-rho", "heat_kernel-t",
         "integrated_exponential_lhs-rho", "faddeev_transfer-y0", "faddeev_transfer-y",
         "faddeev_transfer-d1", "faddeev_transfer-d2", "resolvent_G-inf-sigma",
         "resolvent_G-inf-s", "resolvent_via_heat-inf-sigma", "resolvent_via_heat-inf-s",
         "heat_kernel-inf-rho", "heat_kernel-inf-t", "heat_kernel-inf-t-array",
         "heat_kernel-empty-t",
         "integrated_exponential_lhs-inf-rho", "integrated_exponential_lhs-inf-eps",
         "integrated_exponential_lhs-nan-eps", "integrated_exponential_lhs-zero-eps",
         "integrated_exponential_lhs-negative-eps"],
)
def test_nan_argument_raises_value_error(func, args, name):
    # a NaN or infinite argument (or an eps <= 0, or an empty array of times)
    # fails its range check at once, naming the argument, before any series
    # or quadrature runs on it (and before any numpy warning)
    with np.errstate(all="raise"), pytest.raises(ValueError, match=rf"\b{name}\b"):
        func(*args)


def test_check_suite_passes():
    results = run_kernel_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert results[-1].detail.endswith("(tolerance 0.0001)")


def test_nan_gap_fails_and_prints_nan(monkeypatch):
    # a NaN met after the first grid point must reach the printed margin too
    batched = kernels._difference_quadratures

    def nan_at_k2_sigma2(k, s, sigma):
        values = batched(k, s, sigma)
        return np.where((np.array(k) == 2) & (np.array(sigma) == 2.0), math.nan, values)

    monkeypatch.setattr(kernels, "_difference_quadratures", nan_at_k2_sigma2)
    dual = [r for r in run_kernel_checks(k_max=2) if r.name == "difference_kernel_dual_route"]
    assert len(dual) == 1 and not dual[0].passed
    assert "nan" in dual[0].detail


def test_check_suite_fails_on_absurd_tolerance(monkeypatch):
    monkeypatch.setattr(kernels, "_TRANSFORM_TOL", 1e-16)
    results = run_kernel_checks()
    transform = [r for r in results if r.name == "heat_resolvent_transform"]
    assert len(transform) == 1 and not transform[0].passed
    assert transform[0].detail.endswith("(tolerance 1e-16)")


def test_chebyshev_check_evaluates_the_integrand_factor(monkeypatch):
    # a factor 1.01 too large in the integrands' Chebyshev factor must fail the check
    factor = kernels._log_chebyshev
    monkeypatch.setattr(kernels, "_log_chebyshev",
                        lambda k, r, rho: factor(k, r, rho) + math.log(1.01))
    (check,) = [r for r in run_kernel_checks(k_max=2) if r.name == "chebyshev_exp_bound"]
    assert not check.passed
    assert "ratio 1.01 " in check.detail


def test_stirling_check_evaluates_the_bound_tables_evaluator():
    assert kernels.gamma_ratio_bound is engine.gamma_ratio_bound
    for k in range(1, 61):
        for eps in (0.0, 0.01, 0.1):
            expected = k * gamma_ratio_bound(k + eps).bound / math.sqrt(math.pi)
            assert parabolic_sum_bound(k, eps) == expected
