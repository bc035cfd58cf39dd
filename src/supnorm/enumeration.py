"""Exact enumeration of modular-group elements by displacement, and the
direct series evaluations built on it.

The ball {gamma : sigma(z, gamma z) <= R} is enumerated through the coset
structure over bottom rows: expanding 4 y^2 (sigma - 1) = |c z^2 + (d-a) z - b|^2
and discarding nonnegative squares gives sigma >= |c z + d|^2 / 4 + 1/2 for
every group element, so |c| and then d run over finite ranges; within a coset
the elements differ by integer translations, for which the displacement is an
explicit quadratic in the shift.  A raw entry-bounded search stays in the test
suite as the oracle for this enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EffectiveConstants, poincare_bound_compact
from .geometry import require_point
from .kernels import parabolic_sum_bound

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

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def _sigma_batch(a, b, c: int, d: int, z: complex) -> np.ndarray:
    """Displacement via 4 y^2 (sigma - 1) = |c z^2 + (d - a) z - b|^2.

    a, b may be integer arrays (one coset, several translation shifts); the
    same expression serves as the final filter in the raw-entry test oracle,
    so boundary cases are decided identically on both routes.
    """
    x, y = z.real, z.imag
    re = c * (x * x - y * y) + (d - a) * x - b
    im = y * (2.0 * c * x + d - a)
    return 1.0 + (re * re + im * im) / (4.0 * y * y)


def _scan(z: complex, R: float):
    """Yield (c, d, a0, b0, shifts, sigmas) per coset intersecting the ball.

    The c = 0 coset is reported with (c, d, a0, b0) = (0, 1, 1, 0) and shifts
    running over the translation exponents (shift 0 is the identity).  The
    candidate ranges come from padded necessary-condition envelopes; the
    exact displacement identity makes the final cut.
    """
    z = require_point(z)
    if R < 1.0:
        return
    x, y = z.real, z.imag
    pad = R * (1.0 + 1e-9) + 1e-9

    n_max = math.floor(math.sqrt(max(4.0 * (pad - 1.0), 0.0)) * y)
    shifts = np.arange(-n_max, n_max + 1)
    sigmas = _sigma_batch(1, shifts, 0, 1, z)
    keep = sigmas <= R
    if np.any(keep):
        yield 0, 1, 1, 0, shifts[keep], sigmas[keep]

    c_max = math.floor(math.sqrt(max(4.0 * pad - 2.0, 0.0)) / y)
    for c in range(1, c_max + 1):
        rem = 4.0 * pad - 2.0 - (c * y) ** 2
        if rem < 0.0:
            continue
        spread = math.sqrt(rem)
        for d in range(math.ceil(-c * x - spread), math.floor(-c * x + spread) + 1):
            if math.gcd(c, d) != 1:
                continue
            a0 = pow(d, -1, c)
            b0 = (a0 * d - 1) // c
            w = (a0 * z + b0) / (c * z + d)
            wx, wy = w.real, w.imag
            disc = 4.0 * pad * y * wy - (y + wy) ** 2
            if disc < 0.0:
                continue
            spread_n = math.sqrt(disc)
            lo = math.ceil(x - wx - spread_n)
            hi = math.floor(x - wx + spread_n)
            if lo > hi:
                continue
            shifts = np.arange(lo, hi + 1)
            sigmas = _sigma_batch(a0 + shifts * c, b0 + shifts * d, c, d, z)
            keep = sigmas <= R
            if np.any(keep):
                yield c, d, a0, b0, shifts[keep], sigmas[keep]


def enumerate_ball(z: complex, R: float) -> list[IntegerMoebius]:
    """All modular-group elements with displacement(z, gamma z) <= R.

    Returns the empty list for R < 1 (the displacement never drops below 1).
    """
    out = []
    for c, d, a0, b0, shifts, _ in _scan(z, R):
        for n in shifts:
            n = int(n)
            out.append(IntegerMoebius(a0 + n * c, b0 + n * d, c, d))
    return out


def displacement_values(z: complex, R: float, include_identity: bool = False) -> np.ndarray:
    """Displacements sigma(z, gamma z) <= R over the ball, as a sorted array."""
    chunks = []
    for c, d, a0, b0, shifts, sigmas in _scan(z, R):
        if c == 0 and not include_identity:
            sigmas = sigmas[shifts != 0]
        chunks.append(sigmas)
    if not chunks:
        return np.empty(0)
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


def parabolic_direct(z: complex, k: int, eps: float, Y: float | None = None) -> float:
    """Two-sided translation sum 2 sum_{n>=1} (1 + (n/(2y))^2)^{-(k+eps)}.

    Terms are added until they drop below 1e-18 of the running total.  When Y
    is supplied and Y <= Im z <= k/(2*pi), the result is checked against the
    closed Stirling-based bound.
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
    total *= 2.0
    if Y is not None and Y <= y <= k / (2.0 * math.pi):
        cap = parabolic_sum_bound(k, eps)
        if total > cap:
            raise VerificationFailure(
                f"translation sum {total:.6g} exceeds its bound {cap:.6g} at y={y}, k={k}"
            )
    return total
