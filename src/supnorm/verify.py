"""End-to-end numerical verification for the modular group.

Every item compares an independently computed quantity (exact ball counts,
directly summed series, quadrature integrals of |f|^2 y^{2k}) against the
closed-form bounds produced by the engine.  The checks use the engine's own
constants; a coarser rounded coefficient set for the modular group is checked
alongside as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .domain import FundamentalDomain, covolume, dimension_d2k, is_modular_group, modular_group
from .enumeration import (
    VerificationFailure,
    counting_check,
    parabolic_direct,
    poincare_direct,
)
from .forms import SUPPORTED_WEIGHTS, build_basis, mass_integral, s2k_on_grid, standard_grid
from .kernels import parabolic_sum_bound

__all__ = [
    "UnsupportedDomainError",
    "VerificationItem",
    "VerificationReport",
    "verify_all",
    "ROUNDED_MODULAR_COEFFS",
]

#: Coarser rounded constants for the modular-group compact bound
#: (leading coefficient multiplier, decay coefficient, decay base); the
#: engine's sharper values must stay below the bounds these produce.
ROUNDED_MODULAR_COEFFS = (31.0, 72.0, 1.014)


class UnsupportedDomainError(ValueError):
    """verify_all only covers the modular-group fixture."""


@dataclass(frozen=True)
class VerificationItem:
    name: str
    passed: bool
    detail: str
    weight: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class VerificationReport:
    items: tuple[VerificationItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "items": [
                {
                    "name": i.name,
                    "passed": i.passed,
                    "detail": i.detail,
                    "weight": i.weight,
                }
                for i in self.items
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "VerificationReport":
        return cls(
            items=tuple(
                VerificationItem(
                    name=i["name"], passed=i["passed"], detail=i["detail"], weight=i["weight"]
                )
                for i in doc["items"]
            )
        )

    def to_text(self) -> str:
        lines = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            lines.append(f"[{status}] {item.name}: {item.detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} ({len(self.items)} checks)")
        return "\n".join(lines)


def rounded_modular_bound(k: int) -> float:
    """Compact-region bound for the modular group with the rounded constants."""
    lead, coef, base = ROUNDED_MODULAR_COEFFS
    return lead * (2.0 * k - 1.0) / (4.0 * math.pi) + coef * (2.0 * k - 1.0) * base ** -(k - 2)


def _counting_item(constants, rng) -> VerificationItem:
    n_pairs = 50
    worst = 0.0
    try:
        for _ in range(n_pairs):
            x = rng.uniform(-0.5, 0.5)
            y_low = math.sqrt(max(1.0 - x * x, 0.0))
            y = y_low * math.exp(rng.uniform(0.0, math.log(constants.Y / y_low)))
            r = math.exp(rng.uniform(0.0, math.log(30.0)))
            res = counting_check(complex(x, y), max(r, 1.0), constants)
            worst = max(worst, res.count / res.bound)
    except VerificationFailure as exc:
        return VerificationItem("counting_bound", False, str(exc))
    return VerificationItem(
        "counting_bound", True, f"{n_pairs} (z, r) pairs, max count/bound {worst:.3f}"
    )


def _poincare_item(constants, k: int, eps: float, r_cut: float) -> VerificationItem:
    name = f"poincare_series_bound[k={k}]"
    try:
        res = poincare_direct(1j, k, eps, r_cut, constants)
    except VerificationFailure as exc:
        return VerificationItem(name, False, str(exc))
    return VerificationItem(
        name,
        True,
        f"partial {res.partial:.6g} + tail {res.tail_bound:.3g} <= bound {res.series_bound:.6g}",
    )


def _parabolic_item(constants, k: int, eps: float) -> VerificationItem:
    name = f"translation_sum_bound[k={k}]"
    y = k / (2.0 * math.pi)
    try:
        total = parabolic_direct(complex(0.0, y), k, eps, Y=constants.Y)
    except VerificationFailure as exc:
        return VerificationItem(name, False, str(exc))
    cap = parabolic_sum_bound(k, eps)
    return VerificationItem(name, True, f"sum {total:.6g} <= bound {cap:.6g} at y = k/(2*pi)")


def _weight_items(weight: int, constants, domain, grid_size: int) -> list[VerificationItem]:
    k = weight // 2
    items: list[VerificationItem] = []
    basis = build_basis(weight)
    items.append(
        VerificationItem(
            "petersson_norm",
            basis.norm_error <= 1e-6 * basis.petersson_norm,
            f"norm {basis.petersson_norm:.10g} (error estimate {basis.norm_error:.2g})",
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

    grid = standard_grid(grid_size, Y=constants.Y, k=k)
    values = s2k_on_grid(basis, grid.points)
    grid_max = float(np.max(values))
    argmax = grid.points[int(np.argmax(values))]

    upper_engine = engine.sup_bound_compact(k, constants)
    try:
        cusp_bound = engine.sup_bound_cusp(k, constants)
        branch = f"cusp zone uses the tail bound {cusp_bound:.6g}"
        upper = max(upper_engine, cusp_bound)
    except engine.CompactBranchApplies:
        branch = "cusp zone inherits the compact bound (Y >= k/(2*pi))"
        upper = upper_engine
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

    floor = dimension_d2k(domain, k) / covolume(domain)
    items.append(
        VerificationItem(
            "lower_bound",
            grid_max >= floor - 0.05,
            f"grid max {grid_max:.6g} >= dimension/volume floor {floor:.6g} - 0.05",
            weight,
        )
    )
    return items


def verify_all(
    weights=(12,),
    grid_size: int = 100,
    Y0: float = 2.0,
    r_cut: float = 1e4,
    domain: FundamentalDomain | None = None,
) -> VerificationReport:
    """Run the full verification battery; empty weight list yields an empty pass.

    The global checks come first, then each weight's checks in ascending
    weight order, computed one weight after another.
    """
    if domain is None:
        domain = modular_group()
    if not is_modular_group(domain):
        raise UnsupportedDomainError(
            f"verification fixtures cover only the modular group, got {domain.name!r}"
        )
    weights = tuple(weights)
    for w in weights:
        if w not in SUPPORTED_WEIGHTS:
            raise ValueError(f"unsupported weight {w}; choose from {SUPPORTED_WEIGHTS}")
    if not weights:
        return VerificationReport(items=())

    constants = engine.compute_constants(domain, Y0)
    rng = np.random.default_rng(20260809)
    items = [
        _counting_item(constants, rng),
        _poincare_item(constants, k=2, eps=0.1, r_cut=r_cut),
        _parabolic_item(constants, k=26, eps=0.01),
    ]

    for w in sorted(weights):
        items.extend(_weight_items(w, constants, domain, grid_size))
    return VerificationReport(items=tuple(items))
