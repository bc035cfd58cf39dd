"""Exact-formula primitives of upper half-plane hyperbolic geometry.

Points are plain complex numbers with positive imaginary part.  Everything
here is a pure function of its arguments, so the module is safe to use from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import minimize_scalar

__all__ = [
    "MoebiusMap",
    "GeodesicSegment",
    "require_point",
    "displacement",
    "dist_hyp",
    "disk_volume",
]

# Tolerance for the unit-determinant check after sign normalization.
_DET_TOL = 1e-12
_SIGN_TOL = 1e-12


def require_point(z: complex) -> complex:
    """Validate an upper half-plane point and return it as a complex number."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"point has non-finite coordinates: {z!r}")
    if z.imag <= 0.0:
        raise ValueError(f"point must have positive imaginary part: {z!r}")
    return z


def displacement(z: complex, w: complex) -> float:
    """Displacement |z - conj(w)|^2 / (4 Im z Im w); equals cosh^2 of half the distance.

    Always >= 1, with equality exactly when z == w.
    """
    z = require_point(z)
    w = require_point(w)
    return abs(z - w.conjugate()) ** 2 / (4.0 * z.imag * w.imag)


def dist_hyp(z: complex, w: complex) -> float:
    """Hyperbolic distance, via cosh(d) = 1 + |z-w|^2 / (2 Im z Im w)."""
    z = require_point(z)
    w = require_point(w)
    c = 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
    # Guard against cosh values dipping below 1 through rounding.
    return math.acosh(max(c, 1.0))


def disk_volume(r: float) -> float:
    """Hyperbolic area of a disk of radius r: 4*pi*sinh^2(r/2)."""
    if r < 0.0:
        raise ValueError(f"disk radius must be nonnegative, got {r}")
    return 4.0 * math.pi * math.sinh(r / 2.0) ** 2


@dataclass(frozen=True)
class MoebiusMap:
    """Unit-determinant real 2x2 matrix acting by fractional linear maps.

    The matrix and its negation act identically, so the constructor picks a
    canonical sign: the first entry among (c, d, a, b) larger than 1e-12 in
    absolute value is made positive.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        a, b, c, d = (float(self.a), float(self.b), float(self.c), float(self.d))
        det = a * d - b * c
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"matrix determinant {det!r} is not 1")
        sign = 1.0
        for entry in (c, d, a, b):
            if abs(entry) > _SIGN_TOL:
                sign = 1.0 if entry > 0.0 else -1.0
                break
        object.__setattr__(self, "a", sign * a)
        object.__setattr__(self, "b", sign * b)
        object.__setattr__(self, "c", sign * c)
        object.__setattr__(self, "d", sign * d)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, t: float) -> "MoebiusMap":
        return cls(1.0, float(t), 0.0, 1.0)

    @classmethod
    def from_unscaled(cls, a: float, b: float, c: float, d: float) -> "MoebiusMap":
        """Build from any matrix with positive determinant by rescaling to det 1."""
        det = a * d - b * c
        if det <= 0.0:
            raise ValueError(f"matrix determinant {det!r} must be positive")
        s = math.sqrt(det)
        return cls(a / s, b / s, c / s, d / s)

    def apply(self, z: complex) -> complex:
        """Image (a z + b) / (c z + d) of an upper half-plane point."""
        z = require_point(z)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product self * other (apply other first)."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def is_identity(self, tol: float = 1e-12) -> bool:
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.d - 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
        )

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class GeodesicSegment:
    """A geodesic boundary piece: a vertical ray or a Euclidean circle arc.

    Vertical segments run along x = foot with y in [y_min, y_max]; y_max may
    be infinite (unbounded ray toward the cusp at infinity).  Arcs live on a
    circle centered on the real axis and are cut out by an x-interval.
    """

    kind: str  # "vertical" | "arc"
    foot: float = 0.0
    y_min: float = 0.0
    y_max: float = math.inf
    center: float = 0.0
    radius: float = 0.0
    x_min: float = 0.0
    x_max: float = 0.0

    @classmethod
    def vertical(cls, x: float, y_min: float, y_max: float = math.inf) -> "GeodesicSegment":
        if y_min <= 0.0:
            raise ValueError("vertical segment needs y_min > 0")
        if not y_max > y_min:
            raise ValueError("vertical segment needs y_max > y_min")
        return cls(kind="vertical", foot=float(x), y_min=float(y_min), y_max=float(y_max))

    @classmethod
    def arc(cls, center: float, radius: float, x_min: float, x_max: float) -> "GeodesicSegment":
        if radius <= 0.0:
            raise ValueError("arc radius must be positive")
        if not (center - radius <= x_min < x_max <= center + radius):
            raise ValueError("arc x-range must be a nonempty subinterval of the circle span")
        return cls(
            kind="arc",
            center=float(center),
            radius=float(radius),
            x_min=float(x_min),
            x_max=float(x_max),
        )

    @property
    def unbounded(self) -> bool:
        return self.kind == "vertical" and math.isinf(self.y_max)

    def endpoints(self) -> list[complex]:
        """Finite endpoints of the segment (an ideal endpoint is omitted)."""
        if self.kind == "vertical":
            pts = [complex(self.foot, self.y_min)]
            if not self.unbounded:
                pts.append(complex(self.foot, self.y_max))
            return pts
        return [self._arc_point(self.x_min), self._arc_point(self.x_max)]

    def _arc_point(self, x: float) -> complex:
        y2 = self.radius**2 - (x - self.center) ** 2
        return complex(x, math.sqrt(max(y2, 0.0)))

    def contains(self, p: complex, tol: float = 1e-9) -> bool:
        p = require_point(p)
        if self.kind == "vertical":
            return (
                abs(p.real - self.foot) <= tol
                and self.y_min - tol <= p.imag <= self.y_max + tol
            )
        on_circle = abs(abs(p - self.center) - self.radius) <= tol
        return on_circle and self.x_min - tol <= p.real <= self.x_max + tol

    def sample(self, n: int) -> list[complex]:
        """n points spread along the segment (unbounded rays sampled geometrically)."""
        if n < 2:
            raise ValueError("need at least two sample points")
        if self.kind == "vertical":
            if self.unbounded:
                # Geometric spacing reaches far up the ray without wasting points.
                top = max(10.0 * self.y_min, 100.0)
                ratio = (top / self.y_min) ** (1.0 / (n - 1))
                return [complex(self.foot, self.y_min * ratio**i) for i in range(n)]
            step = (self.y_max - self.y_min) / (n - 1)
            return [complex(self.foot, self.y_min + i * step) for i in range(n)]
        xs = [self.x_min + i * (self.x_max - self.x_min) / (n - 1) for i in range(n)]
        return [self._arc_point(x) for x in xs]

    def dist_to(self, p: complex) -> float:
        """Infimum of dist_hyp(p, q) over points q of the segment."""
        p = require_point(p)
        if self.kind == "vertical":
            return self._dist_vertical(p)
        return self._dist_arc(p)

    def _dist_vertical(self, p: complex) -> float:
        # cosh d(p, foot+iy) = (C + y^2) / (2 Im(p) y) with C = (Re p - foot)^2 + Im(p)^2,
        # minimized at y = sqrt(C); clamp into the parameter range.
        c_sq = (p.real - self.foot) ** 2 + p.imag**2
        y_star = math.sqrt(c_sq)
        y = min(max(y_star, self.y_min), self.y_max)
        cosh_d = (c_sq + y * y) / (2.0 * p.imag * y)
        return math.acosh(max(cosh_d, 1.0))

    def _dist_arc(self, p: complex) -> float:
        # Parameterize by the circle angle; the distance to a point is convex
        # along a geodesic, so a bounded scalar minimization is reliable.  The
        # endpoint values are evaluated exactly as a safeguard.
        th_hi = math.acos(min(max((self.x_min - self.center) / self.radius, -1.0), 1.0))
        th_lo = math.acos(min(max((self.x_max - self.center) / self.radius, -1.0), 1.0))

        def cosh_dist(theta: float) -> float:
            q = complex(
                self.center + self.radius * math.cos(theta),
                self.radius * math.sin(theta),
            )
            return 1.0 + abs(p - q) ** 2 / (2.0 * p.imag * q.imag)

        best = min(cosh_dist(th_lo), cosh_dist(th_hi))
        if th_hi - th_lo > 1e-13:
            res = minimize_scalar(
                cosh_dist,
                bounds=(th_lo, th_hi),
                method="bounded",
                options={"xatol": 1e-13},
            )
            best = min(best, float(res.fun))
        return math.acosh(max(best, 1.0))
