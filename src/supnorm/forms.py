"""Cusp forms for the modular group as explicit q-expansions.

Each supported weight w has a one-dimensional space, generated by the
discriminant form (weight 12) times the Eisenstein series of weight w - 12
(none for w = 12).  Coefficients are exact integers, 128 stored; Horner reads
the N of them whose dropped rest is at most 2^-70 (12 to 16 on the standard
domain) and all of them near a zero of f.  A Petersson norm is an
incomplete-gamma sum over the strip above y = 1, finite because the weight is
an integer, plus one fixed Gauss-Legendre rule on the sliver below it,
cross-checked at doubled order; the kernel panels use the same cached rule.
The averaged quantity S_{2k}(z) = |f(z)|^2 y^{2k} / <f, f> is what the
verifier compares against the closed-form bounds; s2k_on_grid is its one
evaluator.  The mass integral, the independent check of the norm, is one
tensor rule of the same kind over the whole domain mapped to a rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SUPPORTED_WEIGHTS",
    "delta_coefficients",
    "eisenstein_coefficients",
    "cusp_form_coefficients",
    "CuspFormBasis",
    "build_basis",
    "evaluate_form",
    "tail_bound",
    "s2k_on_grid",
    "SampleGrid",
    "standard_grid",
    "mass_integral",
]

SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)
#: Stored q-expansion coefficients of each basis generator.
_N_COEFFS = 128
#: Gauss-Legendre nodes per axis of the tensor rule in mass_integral.
_MASS_ORDER = 48


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


#: -2k / B_k, the factor of sigma_{k-1}(m) in the Eisenstein series of weight k.
_EISENSTEIN_FACTORS = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


@lru_cache(maxsize=None)
def eisenstein_coefficients(weight: int, n: int) -> tuple[int, ...]:
    """Constant-term-1 Eisenstein q-expansion of weight 4, 6, 8, 10 or 14, terms 0..n."""
    if weight not in _EISENSTEIN_FACTORS:
        raise ValueError(f"only weights {tuple(_EISENSTEIN_FACTORS)} are needed, got {weight}")
    factor = _EISENSTEIN_FACTORS[weight]
    return tuple([1] + [factor * _divisor_power_sum(m, weight - 1) for m in range(1, n + 1)])


def cusp_form_coefficients(weight: int, n: int) -> tuple[int, ...]:
    """Coefficients a_1..a_n of the normalized generator Delta E_{weight-12} in weight 12..26.

    M_8, M_10 and M_14 are one-dimensional, so E_8 = E_4^2, E_10 = E_4 E_6 and
    E_14 = E_4^2 E_6: one series product gives Delta times any monomial in E_4, E_6.
    """
    if weight not in SUPPORTED_WEIGHTS:
        raise ValueError(f"unsupported weight {weight}; choose from {SUPPORTED_WEIGHTS}")
    series = [0] + list(delta_coefficients(n))  # shift to absolute exponents
    if weight > 12:
        series = _series_multiply(series, eisenstein_coefficients(weight - 12, n), n)
    return tuple(series[1 : n + 1])


# ---------------------------------------------------------------------------
# Evaluation


def _horner(coeffs, q):
    """sum a_n q^(n-1) over every given coefficient, in place."""
    val = np.zeros_like(q)
    for a in reversed(coeffs):
        val *= q
        val += float(a)
    return val


def _cut(coeffs, r: float) -> tuple[int, float]:
    """Least N with stored terms sum_{N<n} |a_n| r^(n-1) <= 2^-70, and that sum."""
    if not r < 1.0:
        return len(coeffs), 0.0
    dropped = 0.0
    for n in range(len(coeffs), 0, -1):
        wider = dropped + abs(float(coeffs[n - 1])) * r ** (n - 1)
        if not wider <= 2.0**-70:
            return n, dropped
        dropped = wider
    return 0, dropped


def _horner_over_q(coeffs, q):
    """sum a_n q^(n-1) at every point of the array q: the form's value divided by q.

    Only the first N terms, N from _cut at the call's largest |q|; a point
    where the dropped sum exceeds 2^-60 |f_N/q| is redone over all of them.
    A cut at 2^-60 or 2^-64 flipped last bits, as a small real or imaginary
    part has a finer ulp than |f/q|; at 2^-70 the library grids match the
    full sum bit for bit.
    """
    q = np.asarray(q)
    n, dropped = _cut(coeffs, float(np.max(np.abs(q), initial=0.0)))
    val = _horner(coeffs[:n], q)
    redo = ~(dropped <= 2.0**-60 * np.abs(val))
    if np.count_nonzero(redo) == 1:
        # numpy rounds a lone complex product apart from its vector loop
        redo = np.ones(q.shape, dtype=bool)
    if np.any(redo):
        val[redo] = _horner(coeffs, q[redo])
    return val


def evaluate_form(coeffs, z):
    """Value of sum a_n q^n, q = e^{2 pi i z}, at every point of the array z."""
    q = np.exp(2j * math.pi * np.asarray(z))
    return _horner_over_q(coeffs, q) * q


def _tail_over_q(coeffs, weight: int, y):
    """tail_bound divided by |q| = e^{-2 pi y}, at every height of the array y.

    Every supported space is one-dimensional, so its generator is a Hecke
    eigenform and Deligne's bound |a_n| <= d(n) n^((w-1)/2) applies; with
    d(n) <= 2 sqrt(n) this gives |a_n| <= 2 n^(w/2).  The term ratio of the
    majorant decreases in n, so a geometric series caps the tail; where that
    ratio reaches 1 the bound is infinite.  Flooring the exponent at -700
    only raises the bound, and keeps exp off its slow underflow path.
    """
    n = len(coeffs)
    w_half = weight / 2.0
    first = 2.0 * (n + 1.0) ** w_half * np.exp(np.maximum(-2.0 * math.pi * n * y, -700.0))
    ratio = ((n + 2.0) / (n + 1.0)) ** w_half * np.exp(-2.0 * math.pi * y)
    with np.errstate(divide="ignore"):
        return np.where(ratio < 1.0, first / (1.0 - ratio), math.inf)


def tail_bound(coeffs, weight: int, y: float) -> float:
    """Upper bound for sum_{n > N} |a_n| e^{-2 pi n y} beyond the stored terms."""
    return float(_tail_over_q(coeffs, weight, y)) * math.exp(-2.0 * math.pi * y)


# ---------------------------------------------------------------------------
# Petersson norm
#
# The standard domain splits at y = 1 into the full strip |x| <= 1/2 above
# and the sliver sqrt(1 - x^2) <= y <= 1 below.


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one eigensolve per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_nodes(lo, hi, order: int):
    x, w = _legendre_rule(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _strip_integral(weight: int, coeffs) -> float:
    """Integral of |f|^2 y^(weight-2) over the strip |x| <= 1/2, y >= 1.

    Parseval in x leaves sum a_n^2 int_1^inf e^{-4 pi n y} y^(w-2) dy
    = sum a_n^2 Gamma(w-1, 4 pi n) / (4 pi n)^(w-1).  For the integer
    s = w - 1 that ratio is the finite positive sum
    e^{-t} sum_{m=1}^{s} (s-1)!/(s-m)! t^{-m} at t = 4 pi n, here in Horner form.
    """
    a = np.array([float(c) for c in coeffs])
    t = 4.0 * math.pi * np.arange(1, len(a) + 1)
    acc = np.ones_like(t)
    for i in range(1, weight - 1):
        acc = 1.0 + i / t * acc
    return float(np.sum(a * a * np.exp(-t) * acc / t))


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


def build_basis(weight: int) -> CuspFormBasis:
    """Generator coefficients a_1..a_128 plus its Petersson norm with an error estimate.

    The norm is the exact strip sum above y = 1 plus a 64 x 48 Gauss-Legendre
    rule on the sliver below.  The error estimate adds the change of the
    sliver under a 128 x 96 rule to the bound for the coefficients beyond the
    stored ones.
    """
    coeffs = cusp_form_coefficients(weight, _N_COEFFS)
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


def s2k_on_grid(basis: CuspFormBasis, points: np.ndarray) -> np.ndarray:
    """S_{2k}(z) = |f(z)|^2 y^{2k} / <f, f> over an array of points.

    Raises unless the stored coefficients pin every value to 1e-10
    relative.  At each point, with T the tail bound at its own height plus
    the stored terms Horner dropped (_cut's sum, at most 2^-70) and
    t = T / |f(z)|, the true |f|^2 lies within t (2 + t) |f(z)|^2 of the
    computed one.  T and |f(z)| are both taken divided by |q| = e^{-2 pi y},
    so neither underflows high in the cusp; a zero of f fails the check.
    """
    y = points.imag
    q = np.exp(2j * math.pi * points)
    f_over_q = _horner_over_q(basis.coefficients, q)
    _, dropped = _cut(basis.coefficients, float(np.max(np.abs(q), initial=0.0)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (_tail_over_q(basis.coefficients, basis.weight, y) + dropped) / np.abs(f_over_q)
        uncertified = ~(t * (2.0 + t) <= 1e-10)
    if np.any(uncertified):
        raise ValueError(
            f"q-expansion with {len(basis.coefficients)} terms cannot certify the values "
            f"at Im z = {float(np.min(y[uncertified])):.4g}; more coefficients needed"
        )
    return np.abs(f_over_q * q) ** 2 * y**basis.weight / basis.petersson_norm


@dataclass(frozen=True)
class SampleGrid:
    """Evaluation points inside the standard domain."""

    points: np.ndarray


def standard_grid(n: int, Y: float, k: int) -> SampleGrid:
    """n x n grid over the standard domain, uniform in (x, 1/y) coordinates.

    When Y < k/(2 pi), an extra vertical line of n points spans the
    cusp-zone band y in [Y, k/(2 pi)], where the maximum principle localizes
    the cusp supremum.
    """
    if n < 1:
        raise ValueError("grid size must be at least 1")
    xs = -0.5 + (np.arange(n) + 0.5) / n
    floor_y = np.sqrt(np.maximum(1.0 - xs * xs, 0.0))
    ys = 1.0 / ((np.arange(n) + 0.5) / n * (1.0 / floor_y[:, None]))
    cols = [(xs[:, None] + 1j * ys).ravel()]
    if Y < k / (2.0 * math.pi):
        band = np.linspace(Y, k / (2.0 * math.pi), n)
        cols.append(0.0 + 1j * band)
    return SampleGrid(points=np.concatenate(cols))


def mass_integral(basis: CuspFormBasis) -> float:
    """Integral of S_{2k} over the standard domain against the hyperbolic area.

    Petersson orthonormality forces the exact value d_{2k} = 1, which makes
    this the strongest end-to-end consistency check of the normalization.
    With h(x) = sqrt(1 - x^2) and y = h(x)/s the domain becomes the rectangle
    |x| <= 1/2, 0 < s <= 1 with dx dy / y^2 = dx ds / h(x).  One 48 x 48
    Gauss-Legendre tensor rule over it, with no split at y = 1 and so
    independent of the strip sum and the sliver rule behind the stored norm,
    evaluates S_{2k} through s2k_on_grid only.
    """
    xs, wx = _gauss_nodes(-0.5, 0.5, _MASS_ORDER)
    ss, ws = _gauss_nodes(0.0, 1.0, _MASS_ORDER)
    h = np.sqrt(1.0 - xs * xs)
    values = s2k_on_grid(basis, xs[:, None] + 1j * h[:, None] / ss)
    return float((wx / h) @ values @ ws)
