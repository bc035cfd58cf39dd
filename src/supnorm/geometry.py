"""Exact-formula primitives of upper half-plane hyperbolic geometry.

Points are plain complex numbers with positive imaginary part.  Everything
here is a pure function of its arguments, so the module is safe to use from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GeodesicSegment",
    "require_point",
    "displacement",
    "dist_hyp",
]

# Tolerance of GeodesicSegment.contains.
_MATCH_TOL = 1e-9


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
    """Hyperbolic distance, via sinh(d/2) = |z-w| / (2 sqrt(Im z Im w)).

    The half-angle form keeps its digits for near points, where
    cosh(d) = 1 + |z-w|^2 / (2 Im z Im w) rounds to 1 and arccosh cancels.
    """
    z = require_point(z)
    w = require_point(w)
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


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

    def contains(self, p: complex) -> bool:
        """Whether p lies on the segment, to within 1e-9."""
        p = require_point(p)
        tol = _MATCH_TOL
        if self.kind == "vertical":
            return (
                abs(p.real - self.foot) <= tol
                and self.y_min - tol <= p.imag <= self.y_max + tol
            )
        on_circle = abs(abs(p - self.center) - self.radius) <= tol
        return on_circle and self.x_min - tol <= p.real <= self.x_max + tol

    def dist_to(self, p: complex) -> float:
        """dist_hyp(p, q) at the point q of the segment nearest to p, found in closed form."""
        p = require_point(p)
        if self.kind == "vertical":
            # cosh d(p, foot+iy) = (C + y^2) / (2 Im(p) y) with
            # C = (Re p - foot)^2 + Im(p)^2, minimized at y = sqrt(C).
            c_sq = (p.real - self.foot) ** 2 + p.imag**2
            y = min(max(math.sqrt(c_sq), self.y_min), self.y_max)
            return dist_hyp(p, complex(self.foot, y))
        # With q = center + r e^{i theta} and u = Re p - center,
        # cosh d(p, q) = (|p - center|^2 + r^2 - 2 r u cos theta) / (2 Im(p) r sin theta),
        # whose only critical point on (0, pi) is the minimum at
        # cos theta* = 2 r u / (|p - center|^2 + r^2).
        r = self.radius
        u = p.real - self.center
        cos_star = 2.0 * r * u / (u * u + p.imag**2 + r * r)
        cos_t = min(max(cos_star, (self.x_min - self.center) / r), (self.x_max - self.center) / r)
        return dist_hyp(p, complex(self.center + r * cos_t, r * math.sqrt(1.0 - cos_t * cos_t)))
