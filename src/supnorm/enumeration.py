"""Exact enumeration of modular-group elements by displacement, and the
direct series evaluations built on it.

The ball {gamma : sigma(z, gamma z) <= R} is enumerated row by row over the
bottom-row entry c.  Expanding 4 y^2 (sigma - 1) = |c z^2 + (d-a) z - b|^2 and
discarding nonnegative squares gives sigma >= |c z + d|^2 / 4 + 1/2, so c and
then d run over finite ranges.  Each coprime (c, d) is one coset T^n gamma_0
of the translations T, and sigma(z, gamma_0 z + n) <= R confines n to an
interval around Re(z - gamma_0 z).  Each row is one array pass: coset bases,
shift intervals, flattened elements and their exact displacements.  A raw
entry-bounded search stays in the test suite as the oracle for this
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EffectiveConstants, poincare_bound_compact
from .geometry import require_point

__all__ = [
    "VerificationFailure",
    "IntegerMoebius",
    "enumerate_ball",
    "displacement_values",
    "CountingCheck",
    "counting_check",
    "PoincareCheck",
    "poincare_direct",
    "parabolic_direct",
]


class VerificationFailure(AssertionError):
    """A direct numerical check contradicted a claimed bound."""


@dataclass(frozen=True)
class IntegerMoebius:
    """Integer matrix of determinant one, sign-normalized for PSL(2,Z).

    The canonical representative makes the first nonzero entry among
    (c, d, a, b) positive, matching the real-matrix convention.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"integer matrix determinant must be 1, got {det}")
        for entry in (self.c, self.d, self.a, self.b):
            if entry != 0:
                if entry < 0:
                    object.__setattr__(self, "a", -self.a)
                    object.__setattr__(self, "b", -self.b)
                    object.__setattr__(self, "c", -self.c)
                    object.__setattr__(self, "d", -self.d)
                break

    def apply(self, z: complex) -> complex:
        z = require_point(z)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def _sigma_batch(a, b, c: int, d, z: complex) -> np.ndarray:
    """Displacement via 4 y^2 (sigma - 1) = |c z^2 + (d - a) z - b|^2, in real parts.

    One call covers one bottom row c; a, b, d are integer arrays holding its
    elements.  The raw-entry test oracle evaluates the same identity in
    complex arithmetic.
    """
    x, y = z.real, z.imag
    re = c * (x * x - y * y) + (d - a) * x - b
    im = y * (2.0 * c * x + d - a)
    return 1.0 + (re * re + im * im) / (4.0 * y * y)


def _coset_bases(c: int, x: float, y: float, pad: float):
    """Coset representatives (a0, b0, d) of row c whose d can reach the ball.

    Row 0 is the translation coset of the identity.  For c >= 1 the d come
    from sigma >= |c z + d|^2 / 4 + 1/2 and are kept when coprime to c.
    """
    if c == 0:
        return np.ones(1, np.int64), np.zeros(1, np.int64), np.ones(1, np.int64)
    spread = math.sqrt(max(4.0 * pad - 2.0 - (c * y) ** 2, 0.0))
    d = np.arange(math.ceil(-c * x - spread), math.floor(-c * x + spread) + 1)
    d = d[np.gcd(d, c) == 1]
    a0 = np.array([pow(v, -1, c) for v in d.tolist()], dtype=np.int64)
    return a0, (a0 * d - 1) // c, d


def _scan(z: complex, R: float):
    """Yield (a, b, c, d, sigmas) per bottom row c = 0, 1, ..., c_max.

    One array pass per row: the coset bases, their images w = gamma_0 z, the
    shift ranges [lo, hi] that a padded necessary condition leaves for the
    elements T^n gamma_0 (its discriminant clipped at zero), and one
    displacement batch cut exactly at R.  Within a row the elements come in
    ascending d, then ascending shift; row 0 holds the translations, the
    identity among them.
    """
    z = require_point(z)
    x, y = z.real, z.imag
    pad = R * (1.0 + 1e-9) + 1e-9
    c_max = math.floor(math.sqrt(max(4.0 * pad - 2.0, 0.0)) / y)
    for c in range(c_max + 1):
        a0, b0, d = _coset_bases(c, x, y, pad)
        w = (a0 * z + b0) / (c * z + d)
        spread = np.sqrt(np.maximum(4.0 * pad * y * w.imag - (y + w.imag) ** 2, 0.0))
        lo = np.ceil(x - w.real - spread).astype(np.int64)
        counts = np.maximum(np.floor(x - w.real + spread).astype(np.int64) - lo + 1, 0)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        n = np.repeat(lo, counts) + np.arange(len(starts)) - starts
        a = np.repeat(a0, counts) + n * c
        d = np.repeat(d, counts)
        b = np.repeat(b0, counts) + n * d
        sigmas = _sigma_batch(a, b, c, d, z)
        keep = sigmas <= R
        yield a[keep], b[keep], c, d[keep], sigmas[keep]


def enumerate_ball(z: complex, R: float) -> list[IntegerMoebius]:
    """All modular-group elements with displacement(z, gamma z) <= R.

    Returns the empty list for R < 1 (the displacement never drops below 1).
    """
    out = []
    for a, b, c, d, _ in _scan(z, R):
        out.extend(
            IntegerMoebius(ai, bi, c, di) for ai, bi, di in zip(a.tolist(), b.tolist(), d.tolist())
        )
    return out


def displacement_values(z: complex, R: float, include_identity: bool = False) -> np.ndarray:
    """Displacements sigma(z, gamma z) <= R over the ball, as a sorted array."""
    chunks = [
        sigmas if c or include_identity else sigmas[b != 0]
        for _, b, c, _, sigmas in _scan(z, R)
    ]
    return np.sort(np.concatenate(chunks))


@dataclass(frozen=True)
class CountingCheck:
    count: int
    bound: float


def counting_check(z: complex, r: float, constants: EffectiveConstants) -> CountingCheck:
    """Compare the exact ball count against the counting bound 4 pi B_Y r.

    Valid for z in the truncated region the constants were computed on;
    raises VerificationFailure when the enumeration exceeds the bound.
    """
    count = len(displacement_values(z, r, include_identity=True))
    bound = 4.0 * math.pi * constants.B_Y * r
    if count > bound:
        raise VerificationFailure(
            f"ball count {count} exceeds counting bound {bound:.6g} at z={z}, r={r}"
        )
    return CountingCheck(count=count, bound=bound)


@dataclass(frozen=True)
class PoincareCheck:
    partial: float
    tail_bound: float
    series_bound: float


def poincare_direct(
    z: complex,
    k: int,
    eps: float,
    R_cut: float,
    constants: EffectiveConstants,
) -> PoincareCheck:
    """Directly summed displacement series against its compact-region bound.

    partial sums sigma^{-(k+eps)} over the enumerated nontrivial elements with
    sigma <= R_cut; the remainder is dominated Stieltjes-style by
    4 pi B_Y (2+eps)/(1+eps) R_cut^{-(k+eps-1)}.  Raises VerificationFailure
    if partial + tail exceeds the closed-form series bound.
    """
    if R_cut < max(constants.sigma_Y, 1.0):
        raise ValueError(f"cutoff {R_cut} below the displacement floor")
    sigmas = displacement_values(z, R_cut, include_identity=False)
    partial = float(np.sum(sigmas ** -(k + eps)))
    tail = (
        4.0
        * math.pi
        * constants.B_Y
        * (2.0 + eps)
        / (1.0 + eps)
        * R_cut ** -(k + eps - 1.0)
    )
    bound = poincare_bound_compact(k, eps, constants)
    if partial + tail > bound:
        raise VerificationFailure(
            f"direct series {partial:.6g} + tail {tail:.6g} exceeds bound {bound:.6g} "
            f"at z={z}, k={k}, eps={eps}"
        )
    return PoincareCheck(partial=partial, tail_bound=tail, series_bound=bound)


def parabolic_direct(z: complex, k: int, eps: float) -> float:
    """Two-sided translation sum 2 sum_{n>=1} (1 + (n/(2y))^2)^{-(k+eps)}.

    Terms are added until they drop below 1e-18 of the running total.
    """
    z = require_point(z)
    y = z.imag
    total = 0.0
    n = 1
    while True:
        term = (1.0 + (n / (2.0 * y)) ** 2) ** -(k + eps)
        total += term
        if term < 1e-18 * total or term == 0.0:
            break
        n += 1
    return 2.0 * total
