"""Cusp forms for the modular group as explicit q-expansions.

Each supported weight w has a one-dimensional space, generated by the
discriminant form (weight 12) times the Eisenstein series of weight w - 12
(none for w = 12).  Coefficients are exact integers, and each generator
stores the least N whose Deligne tail is at most 2^-70 at the lowest height
of the standard domain (12 to 16); one Horner pass reads all of them.  A
Petersson norm is one finite sum over the periods of the form (Haberland;
Kohnen and Zagier), summed in Decimal, with a proven error under one ulp.
The averaged quantity S_{2k}(z) = |f(z)|^2 y^{2k} / <f, f> is what the
verifier compares against the closed-form bounds; s2k_on_grid is its one
evaluator, and takes q = e^{2 pi i z} from a caller that shares it between
weights.  The mass integral, the independent check of the norm, is one
Gauss-Legendre tensor rule over the whole domain mapped to a rectangle,
whose nodes and their q are built once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
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
#: Lowest height of the standard domain, where the stored count is fixed.
_Y0 = math.sqrt(3.0) / 2.0
#: Gauss-Legendre nodes per axis of every rule in the library; the kernel
#: panels estimate their error by the change against order _ORDER // 2.
_ORDER = 48
#: pi to 60 digits, and the 50-digit context the Petersson norm is summed in.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_CONTEXT = Context(prec=50, rounding=ROUND_HALF_EVEN)


def _series_multiply(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        top = min(n - i, len(b) - 1)
        for j in range(top + 1):
            out[i + j] += ai * b[j]
    return out


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
    """The form's value divided by q, sum a_n q^(n-1) over every given
    coefficient at every point of the array q, in place."""
    val = np.zeros_like(q)
    for a in reversed(coeffs):
        val *= q
        val += float(a)
    return val


def evaluate_form(coeffs, z):
    """Value of sum a_n q^n, q = e^{2 pi i z}, at every point of the array z."""
    q = np.exp(2j * math.pi * np.asarray(z))
    return _horner(coeffs, q) * q


def _tail_over_q(n, weight: int, y):
    """tail_bound past n terms divided by |q| = e^{-2 pi y}, broadcast over arrays n and y.

    Every supported space is one-dimensional, so its generator is a Hecke
    eigenform and Deligne's bound |a_n| <= d(n) n^((w-1)/2) applies; with
    d(n) <= 2 sqrt(n) this gives |a_n| <= 2 n^(w/2).  The term ratio of the
    majorant decreases in n, so a geometric series caps the tail; where that
    ratio reaches 1 the bound is infinite.  Flooring the exponent at -700
    only raises the bound, and keeps exp off its slow underflow path.
    """
    w_half = weight / 2.0
    first = 2.0 * (n + 1.0) ** w_half * np.exp(np.maximum(-2.0 * math.pi * n * y, -700.0))
    ratio = ((n + 2.0) / (n + 1.0)) ** w_half * np.exp(-2.0 * math.pi * y)
    with np.errstate(divide="ignore"):
        return np.where(ratio < 1.0, first / (1.0 - ratio), math.inf)


def tail_bound(coeffs, weight: int, y: float) -> float:
    """Upper bound for sum_{n > N} |a_n| e^{-2 pi n y} beyond the stored terms."""
    return float(_tail_over_q(len(coeffs), weight, y)) * math.exp(-2.0 * math.pi * y)


# ---------------------------------------------------------------------------
# Petersson norm


def _periods(weight: int, coeffs) -> tuple[list[Decimal], Decimal]:
    """Lambda_s = int_0^inf f(iy) y^(s-1) dy for s = 1..weight-1, and top, in Decimal.

    Split at y = 1 and fold with f(-1/z) = z^k f(z): Lambda_s is
    sum a_n (G_s + i^k G_{k-s}) at t = 2 pi n, G_s = int_1^inf e^{-ty} y^(s-1) dy,
    with G_1 = e^-t / t and G_{s+1} = (s G_s + e^-t) / t.  G_s grows with s,
    so top = 2 sum |a_n| G_{k-1} is at least every sum |a_n| (G_s + G_{k-s}).
    """
    with localcontext(_CONTEXT):
        e = (-2 * _PI).exp()
        h, top, q = [Decimal(0)] * (weight - 1), Decimal(0), Decimal(1)
        for n, a in enumerate(coeffs, start=1):  # h[s - 1] = sum a_n G_s
            q, t = q * e, 2 * _PI * n
            g = q / t
            h[0] += a * g
            for s in range(1, weight - 1):
                g = (s * g + q) / t
                h[s] += a * g
            top += 2 * abs(a) * g
        lam = [h[s] + (-1) ** (weight // 2) * h[-1 - s] for s in range(weight - 1)]
    return lam, top


def _petersson(weight: int, coeffs) -> tuple[float, float]:
    """<f, f> over the standard domain as a float, and a proven bound on its error.

    Haberland's formula (Math. Nachr. 112, 1983; Kohnen and Zagier, Modular
    forms with rational periods, 1984) in the periods r_n = i^(n+1) Lambda_{n+1},
    with w = k - 2 and r_n conj(r_a) = i^(n-a) Lambda_{n+1} Lambda_{a+1}, reads
        <f, f> = sum_{j < w odd} (-1)^((j+1)/2 + k/2) C(w, j)
                 sum_{n <= j} C(j, n) Lambda_{n+1} Lambda_{j+1-n} / (3 2^(k-1)),
    whose absolute coefficients sum to K = (3^w - 1) / (6 2^(k-1)).  It is
    summed in Decimal at 50 digits and rounded to a float once.
    - Coefficients past N: the majorant T of tail_bound (before its exp
      floor) has T(y) e^{2 pi (N+1) y} decreasing, and y^(s-1) <= y^w <=
      e^{w (y-1)} for y >= 1, so each Lambda_s moves by at most
      pad = 2 T(1) / (2 pi (N+1) - w), and <f, f> by K pad (2 top + pad).
    - Decimal rounding: each operation, exp too, is within u = 10^-49 / 2
      relative.  Counting e^{-2 pi} as 8, e^{-2 pi n} as 9 n and a recurrence
      step as 5, no term of the expanded sum meets more than
      2 (10 N + 5 k - 6) + 2 + w (w + 2) / 4 <= 726 of them (N <= 16, k <= 26),
      so the sum moves by at most 1001 u K top^2 <= 1e-46 K top^2 (Higham,
      Accuracy and Stability of Numerical Algorithms, ch. 3).
    Both are doubled, which covers their own evaluation, and stay below 1e-20
    relative; the float adds half an ulp, and nextafter rounds the sum up.
    """
    w = weight - 2
    lam, top = _periods(weight, coeffs)
    pad = Decimal(2.0 * tail_bound(coeffs, weight, 1.0) / (2.0 * math.pi * (len(coeffs) + 1) - w))
    with localcontext(_CONTEXT):
        total = sum((-1) ** ((j + 1) // 2 + weight // 2) * math.comb(w, j) * math.comb(j, n)
                    * lam[n] * lam[j - n] for j in range(1, w, 2) for n in range(j + 1))
        scale = 3 * 2 ** (weight - 1)  # (3^w - 1) / scale = 2 K doubles both terms
        norm = float(total / scale)
        err = float((3**w - 1) * (pad * (2 * top + pad) + Decimal("1e-46") * top * top) / scale)
    return norm, math.nextafter(math.ulp(norm) / 2.0 + err, math.inf)


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
    """Generator coefficients a_1..a_N plus its Petersson norm and a proven error bound.

    N is the least of 1..64 whose Deligne tail, divided by |q|, is at most
    2^-70 at _Y0: 12, 13, 14, 15, 15 and 16 for weights 12 to 26.  Every
    node the library evaluates lies above _Y0, and the majorant bounds each
    |a_n|, so the terms past N add less than 2^-70 |q| there.  The norm is
    _petersson's sum over the periods, and its error bound, under one ulp,
    covers the terms past N, the Decimal rounding and the final float.
    """
    if weight not in SUPPORTED_WEIGHTS:  # before the count, searched only up to 64
        raise ValueError(f"unsupported weight {weight}; choose from {SUPPORTED_WEIGHTS}")
    tails = _tail_over_q(np.arange(1, 65), weight, _Y0)
    coeffs = cusp_form_coefficients(weight, 1 + int(np.argmax(tails <= 2.0**-70)))
    norm, err = _petersson(weight, coeffs)
    return CuspFormBasis(weight=weight, coefficients=coeffs, petersson_norm=norm, norm_error=err)


# ---------------------------------------------------------------------------
# The averaged sup-norm quantity


def s2k_on_grid(
    basis: CuspFormBasis, points: np.ndarray, q: np.ndarray | None = None
) -> np.ndarray:
    """S_{2k}(z) = |f(z)|^2 y^{2k} / <f, f> over an array of points.

    q, if given, is e^{2 pi i z} at the same points, computed by the caller
    as np.exp(2j * math.pi * points) so that several weights share it; it is
    taken as given, not checked.  Without it the function computes it so.

    Raises unless the stored coefficients pin every value to 1e-10
    relative.  At each point, with T the tail bound past the stored terms
    at its own height and t = T / |f(z)|, the true |f|^2 lies within
    t (2 + t) |f(z)|^2 of the computed one.  T and |f(z)| are both taken
    divided by |q| = e^{-2 pi y}, so neither underflows high in the cusp; a
    zero of f fails the check.
    """
    y = points.imag
    if q is None:
        q = np.exp(2j * math.pi * points)
    f_over_q = _horner(basis.coefficients, q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _tail_over_q(len(basis.coefficients), basis.weight, y) / np.abs(f_over_q)
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


@lru_cache(maxsize=None)
def _mass_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only nodes of mass_integral's rule of order _ORDER, their q, wx / h and ws, once."""
    xs, wx = _gauss_nodes(-0.5, 0.5, _ORDER)
    ss, ws = _gauss_nodes(0.0, 1.0, _ORDER)
    h = np.sqrt(1.0 - xs * xs)
    points = xs[:, None] + 1j * h[:, None] / ss
    rule = points, np.exp(2j * math.pi * points), wx / h, ws
    for a in rule:
        a.flags.writeable = False
    return rule


def mass_integral(basis: CuspFormBasis) -> float:
    """Integral of S_{2k} over the standard domain against the hyperbolic area.

    Petersson orthonormality forces the exact value d_{2k} = 1, which makes
    this the strongest end-to-end consistency check of the normalization.
    With h(x) = sqrt(1 - x^2) and y = h(x)/s the domain becomes the rectangle
    |x| <= 1/2, 0 < s <= 1 with dx dy / y^2 = dx ds / h(x).  One 48 x 48
    Gauss-Legendre tensor rule over it, independent of the period sum
    behind the stored norm, evaluates S_{2k} through s2k_on_grid only.  The
    rule's nodes, their q and its weights depend on no weight, so _mass_rule
    builds them once per process, read-only.
    """
    points, q, wxh, ws = _mass_rule()
    return float(wxh @ s2k_on_grid(basis, points, q) @ ws)
