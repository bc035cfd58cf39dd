"""Cusp forms for the modular group as explicit q-expansions.

Each supported weight has a one-dimensional space, generated by the
discriminant form (weight 12) times monomials in the weight 4 and weight 6
Eisenstein series.  Coefficients are exact integers.  A Petersson norm is an
exact incomplete-gamma sum over the strip above y = 1 plus one fixed
Gauss-Legendre rule on the sliver below it, cross-checked at doubled order.
The averaged quantity S_{2k}(z) = |f(z)|^2 y^{2k} / <f, f> is what the
verifier compares against the closed-form bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, gammaincc

from . import domain as dom
from .geometry import require_point

__all__ = [
    "SUPPORTED_WEIGHTS",
    "delta_coefficients",
    "eisenstein_coefficients",
    "cusp_form_coefficients",
    "CuspFormBasis",
    "build_basis",
    "evaluate_form",
    "tail_bound",
    "s2k_eval",
    "s2k_on_grid",
    "SampleGrid",
    "standard_grid",
    "mass_integral",
]

SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)


def _series_multiply(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        top = min(n - i, len(b) - 1)
        for j in range(top + 1):
            out[i + j] += ai * b[j]
    return out


@lru_cache(maxsize=None)
def _eta_cube(n: int) -> tuple[int, ...]:
    # prod (1-q^m)^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2}
    out = [0] * (n + 1)
    m = 0
    while m * (m + 1) // 2 <= n:
        out[m * (m + 1) // 2] = (2 * m + 1) * (-1 if m % 2 else 1)
        m += 1
    return tuple(out)


@lru_cache(maxsize=None)
def delta_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients a_1..a_n of the discriminant form q prod (1-q^m)^24.

    The 24th power is assembled as the 8th power of the cubic product series,
    whose sparse expansion is classical.
    """
    cube = list(_eta_cube(n))
    power = cube
    for _ in range(3):  # cube^(2^3) = 24th root power
        power = _series_multiply(power, power, n)
    # multiply by q: a_m of Delta is coefficient m-1 of the product
    return tuple(power[m - 1] for m in range(1, n + 1))


def _divisor_power_sum(n: int, p: int) -> int:
    return sum(d**p for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def eisenstein_coefficients(weight: int, n: int) -> tuple[int, ...]:
    """Constant-term-1 Eisenstein q-expansion of weight 4 or 6, terms 0..n."""
    if weight == 4:
        return tuple([1] + [240 * _divisor_power_sum(m, 3) for m in range(1, n + 1)])
    if weight == 6:
        return tuple([1] + [-504 * _divisor_power_sum(m, 5) for m in range(1, n + 1)])
    raise ValueError(f"only weights 4 and 6 are needed here, got {weight}")


def cusp_form_coefficients(weight: int, n: int) -> tuple[int, ...]:
    """Coefficients a_1..a_n of the normalized generator in weight 12..26."""
    if weight not in SUPPORTED_WEIGHTS:
        k = weight // 2
        try:
            d = dom.dimension_d2k(dom.modular_group(), k) if k >= 2 else 0
        except ValueError:
            d = 0
        raise ValueError(
            f"weight {weight} has no one-dimensional cusp form space (dimension {d})"
        )
    delta = [0] + list(delta_coefficients(n))  # shift to absolute exponents
    factors = {
        12: [],
        16: [4],
        18: [6],
        20: [4, 4],
        22: [4, 6],
        26: [4, 4, 6],
    }[weight]
    series = delta
    for w in factors:
        series = _series_multiply(series, list(eisenstein_coefficients(w, n)), n)
    return tuple(series[1 : n + 1])


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_form(coeffs, z):
    """Value of sum a_n q^n at z (scalar complex or complex ndarray)."""
    if isinstance(z, np.ndarray):
        q = np.exp(2j * math.pi * z)
        val = np.zeros_like(q)
        for a in reversed(coeffs):
            val = val * q + float(a)
        return val * q
    q = cmath.exp(2j * math.pi * complex(z))
    val = 0j
    for a in reversed(coeffs):
        val = val * q + float(a)
    return val * q


def _hecke_constant(coeffs, weight: int) -> float:
    # Crude empirical Hecke constant: |a_n| <= C n^(weight/2 + 1/2) over the
    # stored range, padded by a factor 2 for the unseen tail.
    k_half = weight / 2.0 + 0.5
    best = max(abs(float(a)) / (n + 1.0) ** k_half for n, a in enumerate(coeffs))
    return 2.0 * best


def tail_bound(coeffs, weight: int, y: float) -> float:
    """Upper bound for sum_{n > N} |a_n| e^{-2 pi n y} beyond the stored terms."""
    n = len(coeffs)
    c = _hecke_constant(coeffs, weight)
    k_half = weight / 2.0 + 0.5
    first = c * (n + 1.0) ** k_half * math.exp(-2.0 * math.pi * (n + 1.0) * y)
    ratio = ((n + 2.0) / (n + 1.0)) ** k_half * math.exp(-2.0 * math.pi * y)
    if ratio >= 1.0:
        return math.inf
    return first / (1.0 - ratio)


# ---------------------------------------------------------------------------
# Petersson norm
#
# The standard domain splits at y = 1 into the full strip |x| <= 1/2 above
# and the sliver sqrt(1 - x^2) <= y <= 1 below.


def _gauss_nodes(lo, hi, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _strip_integral(weight: int, coeffs) -> float:
    """Integral of |f|^2 y^(weight-2) over the strip |x| <= 1/2, y >= 1.

    Parseval in x leaves sum a_n^2 int_1^inf e^{-4 pi n y} y^(w-2) dy
    = sum a_n^2 Gamma(w-1, 4 pi n) / (4 pi n)^(w-1), exact up to rounding.
    """
    s = weight - 1.0
    a = np.array([float(c) for c in coeffs])
    t = 4.0 * math.pi * np.arange(1, len(a) + 1)
    return float(np.sum(a * a * (gamma(s) * gammaincc(s, t) / t**s)))


def _sliver_integral(weight: int, coeffs, nx: int = 64, ny: int = 48) -> float:
    """Integral of |f|^2 y^(weight-2) over sqrt(1 - x^2) <= y <= 1, |x| <= 1/2.

    One tensor Gauss-Legendre rule: nx nodes in x, ny nodes in y on each
    column; the integrand and the floor curve are analytic on the region.
    """
    xs, wx = _gauss_nodes(-0.5, 0.5, nx)
    ys, wy = _gauss_nodes(np.sqrt(1.0 - xs * xs)[:, None], 1.0, ny)
    fv = evaluate_form(coeffs, xs[:, None] + 1j * ys)
    return float(wx @ np.sum(wy * np.abs(fv) ** 2 * ys ** (weight - 2), axis=1))


def _truncation_error(weight: int, coeffs) -> float:
    """Bound, via tail_bound, on the norm part of the coefficients beyond the stored ones.

    On the standard domain y >= y0 = sqrt(3)/2.  With T = tail_bound and
    S(y) = sum |a_n| e^{-2 pi n y}, the truncated form f_N obeys
    ||f|^2 - |f_N|^2| <= T(y) (2 S(y0) + T(y)), and T(y) e^{2 pi (N+1) y}
    decreases in y; with y^m <= y0^m e^{m (y - y0) / y0} the domain integral
    is at most T(y0) (2 S(y0) + T(y0)) y0^m / (2 pi (N+1) - m / y0), m = w-2.
    """
    y0 = math.sqrt(3.0) / 2.0
    n = len(coeffs)
    m = weight - 2.0
    t0 = tail_bound(coeffs, weight, y0)
    s0 = sum(abs(float(a)) * math.exp(-2.0 * math.pi * (j + 1) * y0)
             for j, a in enumerate(coeffs))
    return t0 * (2.0 * s0 + t0) * y0**m / (2.0 * math.pi * (n + 1) - m / y0)


@dataclass(frozen=True)
class CuspFormBasis:
    """Normalized generator of a one-dimensional cusp-form space."""

    weight: int
    coefficients: tuple[int, ...]
    petersson_norm: float
    norm_error: float

    def __post_init__(self) -> None:
        if self.coefficients[0] != 1:
            raise ValueError("generator must be normalized with first coefficient 1")
        if self.petersson_norm <= 0.0:
            raise ValueError("Petersson norm must be positive")


def build_basis(weight: int, n_coeffs: int = 128) -> CuspFormBasis:
    """Generator coefficients plus its Petersson norm with an error estimate.

    The norm is the exact strip sum above y = 1 plus a 64 x 48 Gauss-Legendre
    rule on the sliver below.  The error estimate adds the change of the
    sliver under a 128 x 96 rule to the bound for the coefficients beyond the
    stored ones.
    """
    if n_coeffs < 64:
        raise ValueError(f"need at least 64 coefficients, got {n_coeffs}")
    if dom.dimension_d2k(dom.modular_group(), weight // 2) != 1:
        raise ValueError(f"weight {weight} space is not one-dimensional")
    coeffs = cusp_form_coefficients(weight, n_coeffs)
    sliver = _sliver_integral(weight, coeffs)
    err = abs(_sliver_integral(weight, coeffs, 128, 96) - sliver)
    err += _truncation_error(weight, coeffs)
    return CuspFormBasis(
        weight=weight,
        coefficients=coeffs,
        petersson_norm=_strip_integral(weight, coeffs) + sliver,
        norm_error=err,
    )


# ---------------------------------------------------------------------------
# The averaged sup-norm quantity


def s2k_eval(basis: CuspFormBasis, z: complex) -> float:
    """S_{2k}(z) = |f(z)|^2 y^{2k} / <f, f> with a certified truncation error.

    Raises when the stored coefficients cannot pin the value to 1e-10
    relative (the point sits too low for the expansion length).
    """
    z = require_point(z)
    f = evaluate_form(basis.coefficients, z)
    tail = tail_bound(basis.coefficients, basis.weight, z.imag)
    mag = abs(f)
    if not tail * (2.0 * mag + tail) <= 1e-10 * mag * mag:
        raise ValueError(
            f"q-expansion with {len(basis.coefficients)} terms cannot certify the value "
            f"at Im z = {z.imag:.4g}; more coefficients needed"
        )
    return mag * mag * z.imag ** basis.weight / basis.petersson_norm


def s2k_on_grid(basis: CuspFormBasis, points: np.ndarray) -> np.ndarray:
    """Vectorized S_{2k} over grid points (tail certified at the lowest point)."""
    y_min = float(np.min(points.imag))
    probe = evaluate_form(basis.coefficients, points)
    tail = tail_bound(basis.coefficients, basis.weight, y_min)
    mags = np.abs(probe)
    smallest = float(np.min(mags))
    if not tail * (2.0 * smallest + tail) <= 1e-10 * smallest * smallest:
        raise ValueError("grid reaches too low for the stored expansion length")
    return mags**2 * points.imag ** basis.weight / basis.petersson_norm


@dataclass(frozen=True)
class SampleGrid:
    """Evaluation points inside the standard domain, with their region tags."""

    points: np.ndarray
    tags: np.ndarray


def standard_grid(n: int = 100, Y: float | None = None, k: int | None = None) -> SampleGrid:
    """n x n grid over the standard domain, uniform in (x, 1/y) coordinates.

    When Y and k are given with Y < k/(2 pi), an extra vertical line of n
    points spans the cusp-zone band y in [Y, k/(2 pi)], where the maximum
    principle localizes the cusp supremum.
    """
    if n < 1:
        raise ValueError("grid size must be at least 1")
    xs = -0.5 + (np.arange(n) + 0.5) / n
    cols = []
    tags = []
    for x in xs:
        floor_y = math.sqrt(max(1.0 - x * x, 0.0))
        u = (np.arange(n) + 0.5) / n * (1.0 / floor_y)
        ys = 1.0 / u
        cols.append(x + 1j * ys)
        tags.append(np.zeros(n, dtype=int))
    if Y is not None and k is not None and Y < k / (2.0 * math.pi):
        band = np.linspace(Y, k / (2.0 * math.pi), n)
        cols.append(0.0 + 1j * band)
        tags.append(np.ones(n, dtype=int))
    return SampleGrid(points=np.concatenate(cols), tags=np.concatenate(tags))


def mass_integral(basis: CuspFormBasis, rel_tol: float = 1e-7) -> float:
    """Integral of S_{2k} over the standard domain against the hyperbolic area.

    Petersson orthonormality forces the exact value d_{2k} = 1, which makes
    this the strongest end-to-end consistency check of the normalization.
    Uses nested adaptive quadrature in (x, 1/y), independent of the
    Gauss-Legendre scheme behind the stored norm.
    """
    coeffs = [float(a) for a in basis.coefficients]
    weight = basis.weight
    norm = basis.petersson_norm

    def s_value(x: float, t: float) -> float:
        y = 1.0 / t
        return abs(evaluate_form(coeffs, complex(x, y))) ** 2 * y**weight / norm

    def column(x: float) -> float:
        top = 1.0 / math.sqrt(max(1.0 - x * x, 1e-300))
        # d(mu) = dx dy / y^2 = dx dt under t = 1/y
        val, _ = quad(lambda t: s_value(x, t), 0.0, top, epsabs=1e-12,
                      epsrel=rel_tol, limit=200)
        return val

    total, _ = quad(column, -0.5, 0.5, epsabs=1e-10, epsrel=rel_tol, limit=200)
    return total
