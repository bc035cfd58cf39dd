"""Special-function layer: the hypergeometric resolvent kernel, the
difference kernel, the heat kernel, the integral transform tying them
together, and the kernel-check grids of the paper's inequalities.

All kernel integrals share the same endpoint structure: an integrable
1/sqrt(cosh r - cosh rho) singularity at r = rho, removed by the
substitution r = rho + u^2, and an exponentially decaying tail handled by
fixed-width panels.  Every panel, radial or in time, uses forms._ORDER, the
48-node Gauss-Legendre rule the Petersson norm uses; the change against the
24-node rule on the same panel is the error estimate.  One integrand call
per panel, on the 72 nodes of both rules, covers the two, and each rule's
sum is a row-wise np.vecdot, so a row's value never depends on the rows it
is integrated with.  A panel integral stops at the first panel end past
which a closed-form bound on the integral of |f| is below _PANEL_TINY =
2^-54 of the running total: every integrand is nonnegative, so each later
panel adds less than half an ulp and round-to-nearest leaves the total as
it is.  Each integrand passes its own bound, built from the far factor of
_log_far_factor and elementary Gaussian and exponential tail integrals.
Integrands are numpy array functions assembled in log space because the
Chebyshev factor grows like e^{k r} while the exponential weights shrink
faster, and the two must cancel before exponentiation; _log_chebyshev is
that factor, for the integrands and the Chebyshev check alike.  Every
radial integral goes through one evaluator, _radial_integral, which adds
the weight-free log terms of each u-panel (log 2u, the Chebyshev factor,
the square-root gap) to the log weight as one vector on that panel's nodes
and exponentiates once.  The difference kernel passes its weight with k, s
and rho as columns, so the kernel-check grid is one array integral whose
panels stop when every row's bound passes.  The heat kernel passes
log r - r^2/(4t), one row per time, and integrates the times of each u-panel
width (_heat_width, sized per time) together; resolvent_via_heat calls it
on up to _TIME_RUN time panels per call, the first one included.  The
integrated exponential of the sup-norm argument is the k = 0 difference
kernel, summed as series.  Gamma prefactors use math.lgamma.  The Stirling
check tests engine's gamma_ratio_bound, the one the bound tables use.  A
NaN or infinite sigma, rho, t, s or eps fails its range check, which raises
ValueError naming the argument.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .engine import CheckResult, gamma_ratio_bound
from .forms import _ORDER, _legendre_rule

__all__ = [
    "AccuracyError",
    "resolvent_G",
    "heat_kernel",
    "resolvent_via_heat",
    "integrated_exponential_lhs",
    "faddeev_transfer",
    "run_kernel_checks",
]

_LOG2 = math.log(2.0)
_SERIES_GUARD = 10**6
#: A panel integral stops once the bound on its tail falls below this
#: fraction of the running total, less than half an ulp of it.
_PANEL_TINY = 2.0**-54
_PANEL_LIMIT = 2000
#: Time panels the heat-to-resolvent transform evaluates in one heat-kernel
#: call: 8 x 72 = 576 times, so the heat integrand array on a u-panel holds at
#: most 576 x 72 doubles (332 kB).
_TIME_RUN = 8
#: Largest relative error estimate a heat-kernel value may carry.
_HEAT_REL_TARGET = 1e-8
#: Largest relative error estimate the heat-to-resolvent transform may carry.
_TRANSFORM_REL_TARGET = 1e-7
#: Largest relative gap allowed between the two difference-kernel routes.
_DUAL_TOL = 1e-6
#: Largest relative gap allowed between the resolvent and its heat transform.
_TRANSFORM_TOL = 1e-4


class AccuracyError(RuntimeError):
    """A quadrature or series did not reach its accuracy target."""


# ---------------------------------------------------------------------------
# Elementary pieces


def faddeev_transfer(y0: float, y: float, d1: float, d2: float) -> float:
    """Transfer factor (64/15)^{d2-d1-1} y0^{-2 d1-2} y^{-2 d2+4 d1+4}.

    Multiplying the exponent-(d1+1) sum at height y0 by this factor dominates
    the exponent-d2 sum at height y, provided y >= 2 y0 and d2 >= d1 + 1.
    """
    if not y0 > 0.0:
        raise ValueError(f"need y0 > 0, got {y0}")
    if not y >= 2.0 * y0:
        raise ValueError(f"need y >= 2*y0, got y={y} against y0={y0}")
    if not d2 >= d1 + 1.0:
        raise ValueError(f"need d2 >= d1 + 1, got d1={d1}, d2={d2}")
    return (64.0 / 15.0) ** (d2 - d1 - 1.0) * y0 ** (-2.0 * d1 - 2.0) * y ** (
        -2.0 * d2 + 4.0 * d1 + 4.0
    )


# ---------------------------------------------------------------------------
# Log-space building blocks for the kernel integrands


def _logcosh(x):
    x = np.abs(x)
    return x - _LOG2 + np.log1p(np.exp(-2.0 * x))


def _logsinh(x):
    """log sinh x for x > 0."""
    return x - _LOG2 + np.log(-np.expm1(-2.0 * x))


def _log_sqrt_gap(rho: float, u):
    # cosh(rho+u^2) - cosh(rho) = 2 sinh(rho + u^2/2) sinh(u^2/2); exact, no
    # cancellation near the endpoint.
    h = 0.5 * u * u
    return 0.5 * (_LOG2 + _logsinh(rho + h) + _logsinh(h))


def _acosh_cosh_ratio(r, rho: float):
    """arccosh(cosh(r/2)/cosh(rho/2)) for r >= rho, stable for r near rho and r huge.

    With L = log of the ratio, arccosh(e^L) = L + log(1 + sqrt(1 - e^{-2L})).
    """
    log_x = np.maximum(_logcosh(0.5 * r) - _logcosh(0.5 * rho), 0.0)
    return log_x + np.log1p(np.sqrt(-np.expm1(-2.0 * log_x)))


def _log_chebyshev(k: int, r, rho: float):
    """log T_2k(cosh(r/2)/cosh(rho/2)) for r >= rho; exactly 0 at k = 0."""
    return _logcosh(2.0 * k * _acosh_cosh_ratio(r, rho))


def _integrate_panels(f, width: float, log_tail, run=None):
    """Integrate f over [0, inf) with fixed-width panels and a certified tail.

    f maps an array of nodes to values along its last axis, so the integral
    may be an array.  f is called once per panel, on the _ORDER
    Gauss-Legendre nodes followed by the half-order ones: the first rule
    gives the panel value, and its distance to the second adds to the error
    estimate.  Each rule's sum is np.vecdot over the last axis, the same 1-D
    dot in every row whatever the number of rows, so a row's value does not
    depend on the rows it is integrated with.  log_tail maps a panel end x
    to the log of an upper bound on the integral of |f| over (x, inf), one
    per row of the integral.  Panels stop at the first end where that bound
    is below _PANEL_TINY = 2^-54 of the running total in every row.  For a
    total in [2^e, 2^(e+1)), 2^-54 |total| < 2^(e-53), half an ulp; the
    integrand is nonnegative, so the total only grows and each later panel
    adds less than half an ulp of it, which round-to-nearest drops: further
    panels could not change the total.  (Two caveats, both as for any
    smaller fraction: a panel's rule value may exceed its exact integral by
    the rule's own error, and where 2^-54 |total| is subnormal, below a
    total of 2^-968, or the total is below the 1e-300 floor, the comparison
    is rounded or floored, not exact.)

    run, if given, is the number of panels one call of f may evaluate; f
    then takes the nodes of those panels as one array, a panel per row, and
    returns their values with the panel axis first.  A call never reaches
    past the first panel end whose bound is already below _PANEL_TINY of the
    running total: the total of a nonnegative integrand only grows, so the
    panels stop there at the latest.  The panels used, and so the value, do
    not depend on run.
    Returns (value, error_estimate).  Raises AccuracyError if the
    value is not finite or no bound falls low enough within _PANEL_LIMIT
    panels.
    """
    x_full, w_full = _legendre_rule(_ORDER)
    x_half, w_half = _legendre_rule(_ORDER // 2)
    nodes = np.concatenate((x_full, x_half))

    def panel(i):
        lo, hi = i * width, (i + 1) * width
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return hi, half, mid + half * nodes

    def stops(hi, total):
        return (log_tail(hi) < np.log(_PANEL_TINY * np.maximum(np.abs(total), 1e-300))).all()

    total = 0.0
    err = 0.0
    ahead = []  # values of the panels the last call of f evaluated, in order
    for i in range(_PANEL_LIMIT):
        hi, half, x = panel(i)
        if run is None:
            fx = f(x)
        else:
            if not ahead:
                n = 1
                while n < min(run, _PANEL_LIMIT - i) and not stops((i + n) * width, total):
                    n += 1
                ahead = list(f(np.stack([x] + [panel(j)[2] for j in range(i + 1, i + n)])))
            fx = ahead.pop(0)
        val = np.vecdot(fx[..., :_ORDER], half * w_full)
        total = total + val
        if not np.isfinite(total).all():
            raise AccuracyError("panel integral is not finite")
        err = err + np.abs(val - np.vecdot(fx[..., _ORDER:], half * w_half))
        if stops(hi, total):
            return total, err
    raise AccuracyError("panel integration did not terminate")


def _radial_integral(k, rho, log_weight, log_tail, width: float):
    """Integral over r > rho of e^{log_weight(r)} T_2k(cosh(r/2)/cosh(rho/2))
    / sqrt(cosh r - cosh rho), through r = rho + u^2, on u-panels of the given width.

    k and rho may be arrays of shape (n, 1), one integral per row; log_weight
    maps an array of r to log weights, possibly with leading axes of its own,
    and must return a fresh array of the integrand's full shape, which the
    integrand overwrites.  log_tail is the tail bound in u, one per row, as
    _integrate_panels takes it.  Returns (value, error_estimate).
    """

    def integrand(u):
        r = rho + u * u
        # exp(log_weight(r) + (log 2u + log T_2k - log sqrt-gap)): the weight-free
        # terms make one vector on the nodes, then one pass adds it and one exponentiates
        x = log_weight(r)
        x += np.log(2.0 * u) + _log_chebyshev(k, r, rho) - _log_sqrt_gap(rho, u)
        with np.errstate(over="ignore"):
            return np.exp(x, out=x)

    return _integrate_panels(integrand, width, log_tail)


# ---------------------------------------------------------------------------
# Tail bounds of the kernel integrands


def _log_far_factor(k, rho, u: float):
    """log A(k, rho, u), the far factor of every radial integrand, at a float
    or an array of k and rho: for r >= R = rho + u^2 (u > 0),

        T_2k(cosh(r/2)/cosh(rho/2)) / sqrt(cosh r - cosh rho) <= A e^{(k-1/2) r}.

    Chebyshev factor: T_n(x) = ((x + sqrt(x^2-1))^n + (x - sqrt(x^2-1))^n)/2
    <= (x + sqrt(x^2-1))^n <= (2x)^n for x >= 1, and 2 cosh(r/2) =
    e^{r/2} (1 + e^{-r}) <= e^{r/2} (1 + e^{-R}), so T_2k <= e^{kr}
    ((1 + e^{-R}) / cosh(rho/2))^{2k}.  Gap: cosh r - cosh rho =
    2 sinh((r+rho)/2) sinh((r-rho)/2) = e^r (1 - e^{-(r+rho)})
    (1 - e^{-(r-rho)}) / 2 >= e^r (1 - e^{-(R+rho)}) (1 - e^{-u^2}) / 2, so
    1/sqrt(cosh r - cosh rho) <= e^{-r/2} sqrt(2 / ((1 - e^{-(R+rho)})
    (1 - e^{-u^2}))).  A is the product of the two constants.
    """
    big_r = rho + u * u
    log_cheb = 2.0 * k * (np.log1p(np.exp(-big_r)) - _logcosh(0.5 * rho))
    log_gap = _LOG2 - np.log(-np.expm1(-(big_r + rho))) - math.log(-math.expm1(-u * u))
    return log_cheb + 0.5 * log_gap


def _difference_log_tail(k, eps, rho):
    """Tail bound in u of the difference-kernel integrand at s = k + eps, eps > 0,
    at floats or at equal-length arrays of k, eps and rho, one bound per row.

    The weight is e^{-(s-1/2) r} (1 - e^{-r}) <= e^{-(s-1/2) r}, so past
    R = rho + u^2 the integrand is at most A e^{(k-1/2) r - (s-1/2) r} =
    A e^{-eps r}, whose integral over r > R is A e^{-eps R} / eps.  The
    u-integral past u equals the r-integral past R, since dr = 2u du.
    """
    return lambda u: _log_far_factor(k, rho, u) - eps * (rho + u * u) - np.log(eps)


def _heat_log_tail(k: int, t, rho: float):
    """Tail bound in u of the heat-kernel integrand r e^{-r^2/(4t)} T_2k /
    sqrt-gap, one per time of the array t.

    Past R = rho + u^2 the integrand is at most A r e^{(k-1/2) r - r^2/(4t)}
    = A r e^{(k-1/2)^2 t - (r-m)^2/(4t)} with m = (2k-1) t.  When R > m,
    substitute v = r - m: the integral of (v + m) e^{-v^2/(4t)} over
    v > R - m is 2t e^{-(R-m)^2/(4t)} plus m times the Gaussian tail, which
    is at most 2t/(R-m) e^{-(R-m)^2/(4t)} (Abramowitz & Stegun 7.1.13); for
    m <= 0 that term is not positive and is dropped.  So the tail is at most
    A 2t exp((k-1/2)^2 t - (R-m)^2/(4t)) (1 + max(m, 0)/(R-m)), and +inf
    while R <= m, where the Gaussian has not yet peaked.
    """
    m = (2 * k - 1) * t
    m_plus = np.maximum(m, 0.0)
    four_t = 4.0 * t
    base = np.log(2.0 * t) + (k - 0.5) ** 2 * t

    def log_tail(u):
        gap = rho + u * u - m
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = _log_far_factor(k, rho, u) + base - gap * gap / four_t + np.log1p(m_plus / gap)
        return np.where(gap > 0.0, bound, np.inf)

    return log_tail


def _transform_log_tail(k: int, s: float, rho: float):
    """Tail bound in t of the transform integrand e^{-(s-1/2)^2 t} e^{t/4}
    K_k(t; rho) = sqrt(2) (4 pi t)^{-3/2} e^{-mu t} raw(t), mu = (s-1/2)^2,
    where raw(t) is the heat kernel's radial integral; rho > 0.

    Split raw(t) at r = rho + 1.  Near part: there r T_2k e^{-r^2/(4t)} <=
    (rho+1) T_2k(x(rho+1)) with x(r) = cosh(r/2)/cosh(rho/2), and
    cosh r - cosh rho >= sinh(rho) (r - rho), whose inverse square root
    integrates to 2/sqrt(sinh rho) over (rho, rho+1); so the near part is at
    most N = 2 (rho+1) T_2k(x(rho+1)) / sqrt(sinh rho), for every t.  Far
    part, with A = A(k, rho, 1) and m = (2k-1) t: at most A e^{(k-1/2)^2 t}
    times the integral of (v + m) e^{-v^2/(4t)} over v > -m, which is at
    most 4t + 4(k-1/2) t sqrt(pi t) for k >= 1.  Integrating over t > T with
    t^{-3/2} <= T^{-3/2} and t^{-1/2} <= T^{-1/2}:

        sqrt(2) (4 pi)^{-3/2} [N T^{-3/2} e^{-mu T}/mu
                               + A (4 T^{-1/2} + 4 (k-1/2) sqrt(pi)) e^{-lam T}/lam]

    with lam = mu - (k-1/2)^2 > 0 because s > k.
    """
    mu = (s - 0.5) ** 2
    log_pref = 0.5 * _LOG2 - 1.5 * math.log(4.0 * math.pi)
    log_cheb = float(_log_chebyshev(k, rho + 1.0, rho))
    log_near = _LOG2 + math.log(rho + 1.0) + log_cheb - 0.5 * float(_logsinh(rho))
    log_far = _log_far_factor(k, rho, 1.0)
    log_mu = math.log(mu)
    lam = mu - (k - 0.5) ** 2

    def log_tail(big_t):
        near = log_pref + log_near - 1.5 * math.log(big_t) - mu * big_t - log_mu
        far = (log_pref + log_far
               + math.log(4.0 / math.sqrt(big_t) + 4.0 * (k - 0.5) * math.sqrt(math.pi))
               - lam * big_t - math.log(lam))
        return np.logaddexp(near, far)

    return log_tail


# ---------------------------------------------------------------------------
# Resolvent kernel


def _hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Gauss series sum for |z| < 1, terminated at 1e-16 relative."""
    term = 1.0
    total = 1.0
    for n in range(_SERIES_GUARD):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) < 1e-16 * abs(total):
            return total
    raise AccuracyError(f"hypergeometric series did not converge for z={z}")


def resolvent_G(k: int, s: float, sigma: float) -> float:
    """Radial resolvent kernel value at displacement sigma.

    Evaluates sigma^{-s} Gamma(s+k) Gamma(s-k) / (4 pi Gamma(2s)) times the
    Gauss hypergeometric series F(s+k, s-k; 2s; 1/sigma); the prefactor is
    assembled through log-gamma so large s and k do not overflow.
    """
    if not 1.0 < sigma < math.inf:
        raise ValueError(f"resolvent kernel needs finite sigma > 1, got {sigma}")
    if not k < s < math.inf:
        raise ValueError(f"need finite s > k on the real axis, got s={s}, k={k}")
    log_pref = (
        math.lgamma(s + k)
        + math.lgamma(s - k)
        - math.lgamma(2.0 * s)
        - math.log(4.0 * math.pi)
        - s * math.log(sigma)
    )
    return math.exp(log_pref) * _hyp2f1_series(s + k, s - k, 2.0 * s, 1.0 / sigma)


def _difference_series(k: int, s: float, sigma: float) -> float:
    """Difference kernel G_k(s) - G_k(s+1) at displacement sigma, as series."""
    return resolvent_G(k, s, sigma) - resolvent_G(k, s + 1.0, sigma)


def _difference_quadratures(k, s, sigma) -> np.ndarray:
    """Difference kernel through its radial integral representation, one
    value per (k, s, sigma) of three equal-length sequences: the integral of
    (e^{-(s-1/2)r} - e^{-(s+1/2)r}) T_2k / sqrt-gap over r > rho with
    sigma = cosh^2(rho/2), divided by 2 pi sqrt(2).  The rows are one array
    integral on shared u-panels, which stop when every row's tail bound
    passes; the panels a row gets past its own stop add less than half an
    ulp each, and every sum is a row-wise dot, so each value is the one its
    row gives alone."""
    k = np.asarray(k, dtype=float)
    s = np.asarray(s, dtype=float)
    rho = np.array([2.0 * math.acosh(math.sqrt(x)) for x in sigma])
    value, _ = _radial_integral(k[:, None], rho[:, None],
                                lambda r: -(s[:, None] - 0.5) * r + np.log(-np.expm1(-r)),
                                _difference_log_tail(k, s - k, rho), 1.0)
    return value / (2.0 * math.pi * math.sqrt(2.0))


def integrated_exponential_lhs(eps: float, rho: float) -> float:
    """Radial integral of (e^{-(s-1/2)r} - e^{-(s+1/2)r}) e^{kr} / sqrt-gap at s = k+eps.

    The factor e^{kr} cancels the k in s, so the integral is the same for
    every k: the k = 0 difference-kernel integral at s = eps, which is
    2 pi sqrt(2) (G_0(eps) - G_0(eps+1)) at sigma = cosh^2(rho/2).  Bounded
    above by 3 sqrt(2) e^{-eps rho} / eps for 0 < eps < 1.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"need finite eps > 0, got {eps}")
    if not 0.0 < rho < math.inf:
        raise ValueError(f"need finite rho > 0, got {rho}")
    return 2.0 * math.pi * math.sqrt(2.0) * _difference_series(0, eps, math.cosh(rho / 2.0) ** 2)


# ---------------------------------------------------------------------------
# Heat kernel and the transform back to the resolvent


def heat_kernel(k: int, t, rho: float):
    """Radial heat kernel at time t (a float or an array) and distance rho.

    sqrt(2) e^{-t/4} (4 pi t)^{-3/2} times the radial integral of
    r e^{-r^2/(4t)} / sqrt(cosh r - cosh rho) weighted by the Chebyshev factor.
    An array of times, of any shape, is integrated through _radial_integral
    with the log weight log r - r^2/(4t), one row per time; the times that
    _heat_width gives the same u-panel width share one integral on those
    panels, which stop at the first end where the Gaussian tail bound of
    _heat_log_tail is below _PANEL_TINY of the integral at every time of
    the group.  A time whose own bound passed earlier gets panels that add
    less than half an ulp each, and the prefactor is taken on the times as
    an array, so every value is the one its time has in a call of its own,
    bit for bit.  Raises ValueError unless t is nonempty, every t is finite
    and positive and rho is finite and nonnegative; raises AccuracyError
    when a value is not finite or its error estimate exceeds 1e-8 relative.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0 or not np.all((0.0 < t) & (t < np.inf)):
        raise ValueError(f"heat kernel needs finite t > 0, got {t}")
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"heat kernel needs finite rho >= 0, got {rho}")
    times = t.ravel()
    widths = _heat_width(times, rho)
    raw, err = np.empty_like(times), np.empty_like(times)
    for width in sorted(set(widths.tolist())):
        rows = widths == width
        scale = -0.25 / times[rows, None]

        def log_weight(r):
            x = r * r * scale
            x += np.log(r)
            return x

        raw[rows], err[rows] = _radial_integral(k, rho, log_weight,
                                                _heat_log_tail(k, times[rows], rho), width)
    value = np.sqrt(2.0) * np.exp(-times / 4.0) / (4.0 * np.pi * times) ** 1.5 * raw
    rel = err / np.maximum(np.abs(raw), 1e-300)
    if np.any(rel > _HEAT_REL_TARGET):
        raise AccuracyError(f"heat kernel quadrature reached only {np.max(rel):.2e} relative")
    return float(value[0]) if t.ndim == 0 else value.reshape(t.shape)


def _heat_width(t, rho: float):
    """Width of the heat kernel's u-panels at time t, a float or an array:
    e^{-r^2/(4t)} falls off within min(2t/rho, 2 sqrt t) of r = rho, that is
    within the square root of it in u; eight such lengths fill a panel, of
    width at most 1.  The width does not decrease as t grows."""
    return np.minimum(1.0, 8.0 * np.sqrt(2.0 * np.minimum(t / max(rho, 1e-300), np.sqrt(t))))


def resolvent_via_heat(k: int, s: float, sigma: float) -> float:
    """Resolvent value recovered as the time integral of the heat kernel.

    Integrates e^{-(s-1/2)^2 t} e^{t/4} K_k(t; rho) over t > 0 with
    sigma = cosh^2(rho/2); requires s > k for convergence.  One heat-kernel
    evaluation takes the 72 times, the nodes of both panel rules, of up to
    _TIME_RUN time panels, the first one included, and never of a panel
    past the first end where the running total already proves the stop.
    heat_kernel sizes the u-panels of each time by that time alone, so each
    time's value is the one it has in a call of its own.  The time panels
    stop at the first end where the bound of _transform_log_tail on the rest
    is below _PANEL_TINY of the running total.  Raises ValueError unless
    k >= 1, and sigma > 1 and s > k are finite.  Raises AccuracyError when the
    error estimate exceeds 1e-7 relative (as at small sigma for many (k, s),
    where the first time panel does not resolve the peak near t = rho^2/6)
    or the panels reach their limit.
    """
    if k < 1:
        raise ValueError(f"transform needs k >= 1, got k={k}")
    if not 1.0 < sigma < math.inf:
        raise ValueError(f"transform needs finite sigma > 1, got {sigma}")
    if not k < s < math.inf:
        raise ValueError(f"transform converges only for finite s > k, got s={s}, k={k}")
    rho = 2.0 * math.acosh(math.sqrt(sigma))
    # the tail's decay rate, positive for s > k >= 1
    rate = (s - 0.5) ** 2 - (k - 0.5) ** 2
    width = max(0.25, min(2.0, 3.0 / rate))
    log_tail = _transform_log_tail(k, s, rho)

    def integrand(t):
        return np.exp((-((s - 0.5) ** 2) + 0.25) * t) * heat_kernel(k, t, rho)

    value, err = _integrate_panels(integrand, width, log_tail, run=_TIME_RUN)
    if err > _TRANSFORM_REL_TARGET * abs(value):
        raise AccuracyError(
            f"heat-to-resolvent transform reached only {err / abs(value):.2e} relative"
        )
    return float(value)


# ---------------------------------------------------------------------------
# Property-grid suite (also driven by the CLI kernel-check command)


def run_kernel_checks(k_max: int = 12) -> list[CheckResult]:
    """Run the kernel inequality and consistency grids; returns one result each.

    The grids follow the validity ranges of the underlying statements:
    0 < eps < 1 for the difference-kernel bounds, Z >= 1 for the Stirling
    ratio, x >= 1 for the Chebyshev comparison.  Each grid check passes when
    its worst ratio or relative gap, the value its detail prints, is within
    the check's limit; np.max carries a NaN into that value, so the check
    fails and prints nan.  The monotonicity check has no ratio.  Raises
    ValueError unless k_max >= 1.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    results: list[CheckResult] = []
    ks = sorted({1, 2, 3, 6} | {min(k_max, 50)})

    # Chebyshev growth: T_{2k}(cosh(r/2)) <= e^{k r}, in log space through
    # the factor the radial integrands use, at rho = 0.
    rs = np.array([0.0] + [0.25 * i for i in range(1, 41)])
    worst = np.exp(np.max([_log_chebyshev(k, rs, 0.0) - k * rs for k in ks]))
    results.append(
        CheckResult(
            "chebyshev_exp_bound",
            worst <= 1.0 + 1e-12,
            f"max T/e^(kr) ratio {worst:.6g} over k in {ks}, r in [0,10]",
        )
    )

    # Stirling ratio bound on a logarithmic Z grid.
    zs = [1.0, 1.5, 2.0, 5.0, 10.0, 100.0, 1e4, 1e6]
    worst = np.max([g.ratio / g.bound for g in map(gamma_ratio_bound, zs)])
    results.append(
        CheckResult(
            "stirling_ratio_bound",
            worst <= 1.0,
            f"max ratio/bound {worst:.6g} on Z grid, n={len(zs)}",
        )
    )

    # Difference-kernel decay bound and dual-evaluation agreement.
    grid = list(itertools.product((1, 2, 6), (0.1, 0.5), (1.5, 2.0, 10.0)))
    quad_values = _difference_quadratures(*zip(*[(k, k + eps, sigma) for k, eps, sigma in grid]))
    gaps = []
    decays = []
    for (k, eps, sigma), quad_value in zip(grid, quad_values):
        series_value = _difference_series(k, k + eps, sigma)
        gaps.append(abs(series_value - quad_value) / max(abs(series_value), 1e-30))
        cap = 3.0 / (2.0 * math.pi * eps) * sigma ** -(k + eps)
        decays.append(series_value / cap)
    worst = np.max(gaps)
    results.append(
        CheckResult(
            "difference_kernel_dual_route",
            worst <= _DUAL_TOL,
            f"max relative gap {worst:.3e} (tolerance {_DUAL_TOL:g})",
        )
    )
    worst = np.max(decays)
    results.append(
        CheckResult(
            "difference_kernel_decay_bound",
            worst <= 1.0 + 1e-12,
            f"max value/bound {worst:.6g} on the (k, eps, sigma) grid",
        )
    )

    # Integrated exponential bound at s = k + eps.  The integral does not
    # depend on k, so the grid runs over (eps, sigma) only; the detail keeps
    # naming the (k, eps, sigma) grid the bound is stated on.
    ratios = []
    for eps, sigma in itertools.product((0.1, 0.5, 0.9), (1.5, 2.0, 10.0)):
        rho = 2.0 * math.acosh(math.sqrt(sigma))
        cap = 3.0 * math.sqrt(2.0) / eps * math.exp(-eps * rho)
        ratios.append(integrated_exponential_lhs(eps, rho) / cap)
    worst = np.max(ratios)
    results.append(
        CheckResult(
            "integrated_exponential_bound",
            worst <= 1.0 + 1e-12,
            f"max lhs/bound {worst:.6g} on the (k, eps, sigma) grid",
        )
    )

    # Heat-kernel monotonicity in rho, one call for both times; then the transform to the resolvent.
    mono_ok, times = True, np.array([0.2, 1.0])
    for k in (1, 3):
        values = np.array([heat_kernel(k, times, rho) for rho in (0.0, 0.4, 0.9, 1.5)])
        mono_ok = mono_ok and bool(np.all(values[:-1] >= values[1:] - 1e-14))
    results.append(
        CheckResult("heat_kernel_monotone", mono_ok, "nonincreasing in rho on the sample grid")
    )

    triples = [(1, 2.0, 2.0), (1, 1.8, 3.5), (2, 3.0, 2.5)]
    gaps = []
    for k, s, sigma in triples:
        direct = resolvent_G(k, s, sigma)
        gaps.append(abs(direct - resolvent_via_heat(k, s, sigma)) / abs(direct))
    worst = np.max(gaps)
    results.append(
        CheckResult(
            "heat_resolvent_transform",
            worst <= _TRANSFORM_TOL,
            f"max relative gap {worst:.3e} over {len(triples)} triples (tolerance {_TRANSFORM_TOL:g})",
        )
    )
    return results
