"""End-to-end numerical verification for the modular group.

The built-in PSL(2,Z) domain is the only target: the q-expansions, the
sample grid and the rounded reference constants all belong to it.  Every
item compares an independently computed quantity (exact ball counts,
directly summed series, quadrature integrals of |f|^2 y^{2k}) against the
closed-form bounds produced by the engine.  The checks use the engine's own
constants; a coarser rounded coefficient set for the modular group is checked
alongside as a reference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import engine
from .domain import modular_group
from .enumeration import (  # counting_check stays a name here for perfbench's span
    VerificationFailure,
    _checked_count,
    ball_counts,
    counting_check,
    parabolic_direct,
    poincare_direct,
)
from .forms import SUPPORTED_WEIGHTS, build_basis, mass_integral, s2k_on_grid, standard_grid

__all__ = [
    "VerificationItem",
    "VerificationReport",
    "verify_all",
    "ROUNDED_MODULAR_COEFFS",
]

#: Coarser rounded constants for the modular-group compact bound
#: (leading coefficient multiplier, decay coefficient, decay base); the
#: engine's sharper values must stay below the bounds these produce.
ROUNDED_MODULAR_COEFFS = (31.0, 72.0, 1.014)
#: Displacement cutoff of the directly summed Poincare series.
_R_CUT = 1e4


@dataclass(frozen=True)
class VerificationItem(engine.CheckResult):
    """A check verdict, tagged with its weight unless the check is global."""

    weight: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    items: tuple[VerificationItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, **asdict(self)}

    def to_text(self) -> str:
        lines = [item.line() for item in self.items]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} ({len(self.items)} checks)")
        return "\n".join(lines)


def rounded_modular_bound(k: int) -> float:
    """Compact-region bound for the modular group with the rounded constants."""
    lead, coef, base = ROUNDED_MODULAR_COEFFS
    return lead * (2.0 * k - 1.0) / (4.0 * math.pi) + coef * (2.0 * k - 1.0) * base ** -(k - 2)


def _counting_item(constants, rng) -> VerificationItem:
    """counting_check's verdict on 50 seeded (z, r) pairs, all balls counted in one pass.

    The pairs are walked in order after ball_counts, so the first one over
    its bound fails the item with counting_check's message.
    """
    n_pairs = 50
    points, radii = [], []
    for _ in range(n_pairs):
        x = rng.uniform(-0.5, 0.5)
        y_low = math.sqrt(max(1.0 - x * x, 0.0))
        y = y_low * math.exp(rng.uniform(0.0, math.log(constants.Y / y_low)))
        r = math.exp(rng.uniform(0.0, math.log(30.0)))
        points.append(complex(x, y))
        radii.append(max(r, 1.0))
    worst = 0.0
    try:
        for z, r, count in zip(points, radii, ball_counts(points, radii)):
            res = _checked_count(z, r, count, constants)
            worst = max(worst, res.count / res.bound)
    except VerificationFailure as exc:
        return VerificationItem("counting_bound", False, str(exc))
    return VerificationItem(
        "counting_bound", True, f"{n_pairs} (z, r) pairs, max count/bound {worst:.3f}"
    )


def _poincare_item(constants, k: int, eps: float) -> VerificationItem:
    name = f"poincare_series_bound[k={k}]"
    try:
        res = poincare_direct(1j, k, eps, _R_CUT, constants)
    except VerificationFailure as exc:
        return VerificationItem(name, False, str(exc))
    return VerificationItem(
        name,
        True,
        f"partial {res.partial:.6g} + tail {res.tail_bound:.3g} <= bound {res.series_bound:.6g}",
    )


def _parabolic_item(k: int, eps: float) -> VerificationItem:
    total = parabolic_direct(complex(0.0, k / (2.0 * math.pi)), k, eps)
    cap = engine.parabolic_sum_bound(k, eps)
    return VerificationItem(
        f"translation_sum_bound[k={k}]",
        total <= cap,
        f"sum {total:.6g} <= bound {cap:.6g} at y = k/(2*pi)",
    )


def _weight_items(weight: int, constants, domain, grid, q) -> list[VerificationItem]:
    k = weight // 2
    items: list[VerificationItem] = []
    basis = build_basis(weight)
    items.append(
        VerificationItem(
            "petersson_norm",
            basis.norm_error <= 1e-6 * basis.petersson_norm,
            f"norm {basis.petersson_norm:.10g} (error bound {basis.norm_error:.2g})",
            weight,
        )
    )

    mass = mass_integral(basis)
    items.append(
        VerificationItem(
            "mass_identity",
            abs(mass - 1.0) <= 1e-4,
            f"integral of S over the domain = {mass:.8f} (target 1 within 1e-4)",
            weight,
        )
    )

    values = s2k_on_grid(basis, grid.points, q)
    grid_max = float(np.max(values))
    argmax = grid.points[int(np.argmax(values))]

    upper_engine = engine.sup_bound_compact(k, constants)
    cusp_bound, source = engine.sup_bound_cusp(k, constants)
    upper = max(upper_engine, cusp_bound)
    if source == "cusp_max_principle":
        branch = "cusp zone inherits the compact bound (Y >= k/(2*pi))"
    else:
        branch = f"cusp zone uses the tail bound {cusp_bound:.6g}"
    items.append(
        VerificationItem(
            "upper_bound",
            grid_max <= upper,
            f"grid max {grid_max:.6g} at {argmax:.4g} <= engine bound {upper:.6g}; {branch}",
            weight,
        )
    )
    reference = rounded_modular_bound(k)
    items.append(
        VerificationItem(
            "upper_bound_reference",
            grid_max <= reference and upper_engine <= reference,
            f"grid max {grid_max:.6g} and engine bound {upper_engine:.6g} "
            f"<= rounded reference {reference:.6g}",
            weight,
        )
    )

    floor = engine.sup_lower_bound(k, domain)
    items.append(
        VerificationItem(
            "lower_bound",
            grid_max >= floor - 0.05,
            f"grid max {grid_max:.6g} >= dimension/volume floor {floor:.6g} - 0.05",
            weight,
        )
    )
    return items


def verify_all(weights=(12,), grid_size: int = 100, Y0: float = 2.0) -> VerificationReport:
    """Run the full battery on the modular group; empty weight list yields an empty pass.

    The global checks come first, then each distinct weight's checks in
    ascending weight order, computed one weight after another.  Every weight
    reads one sample grid and one q = e^{2 pi i z} on it, built once per
    call.  standard_grid depends on k only through its cusp band line, added
    when Y < k/(2 pi); the engine's Y is at least 16/sqrt(15) > 4.13, and
    every supported k is at most 13, with 13/(2 pi) < 2.07, so the line never
    appears here.  The grid takes k of the largest weight all the same.
    """
    weights = tuple(weights)
    for w in weights:
        if w not in SUPPORTED_WEIGHTS:
            raise ValueError(f"unsupported weight {w}; choose from {SUPPORTED_WEIGHTS}")
    if not weights:
        return VerificationReport(items=())

    domain = modular_group()
    constants = engine.compute_constants(domain, Y0)
    rng = np.random.default_rng(20260809)
    items = [
        _counting_item(constants, rng),
        _poincare_item(constants, k=2, eps=0.1),
        _parabolic_item(k=26, eps=0.01),
    ]

    grid = standard_grid(grid_size, Y=constants.Y, k=max(weights) // 2)
    q = np.exp(2j * math.pi * grid.points)
    for w in sorted(set(weights)):
        items.extend(_weight_items(w, constants, domain, grid, q))
    return VerificationReport(items=tuple(items))
