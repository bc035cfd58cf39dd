"""Effective-constant pipeline and sup-norm bound assembly.

The pipeline runs in a fixed order (the "steps" quoted in the constants
ledger): (1) ingest the domain, (2) systole from the minimal hyperbolic
trace, (3) truncation heights for Y = max(2*Y0, 16/sqrt(15)), (4) smallest
segment-to-elliptic distance, (5) displacement lower bound over the
truncated region, (6) diameter bounds, (7) truncation volumes, (8) the
counting constants built from them, then per-weight bound rows (9)-(10).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import domain as dom
from .domain import FundamentalDomain

__all__ = [
    "CompactBranchApplies",
    "EffectiveConstants",
    "CocompactConstants",
    "LowerBound",
    "BoundRow",
    "BoundReport",
    "Y_FLOOR",
    "mu_gamma",
    "sigma_y_branches",
    "b_y_bound",
    "b_k_y0",
    "b_k_y0_limit",
    "poincare_bound_compact",
    "spectral_gap_bound",
    "sup_bound_compact",
    "sup_bound_cusp",
    "cocompact_constants",
    "sup_bound_weight2",
    "minimize_weight2",
    "sup_lower_bound",
    "compute_constants",
    "run_algorithm",
    "format_float",
]

#: Smallest admissible truncation height: the cusp-tail estimate needs
#: Y^2/4 >= 64/15, i.e. Y >= 16/sqrt(15).
Y_FLOOR = 16.0 / math.sqrt(15.0)

_E54 = math.exp(1.25)


class CompactBranchApplies(Exception):
    """Signal that the cusp zone inherits the compact bound (Y >= k/(2*pi))."""

    def __init__(self, k: int, Y: float):
        super().__init__(
            f"for k={k} the truncation height Y={Y:.6g} is at least k/(2*pi); "
            "the compact-region bound covers the cusp zones"
        )
        self.k = k
        self.Y = Y


@dataclass(frozen=True)
class CocompactConstants:
    C_gamma: float
    delta_gamma: float


@dataclass(frozen=True)
class LowerBound:
    """Lower bound d_{2k}/vol for the sup, with the genus simplification if any."""

    value: float | None
    genus_simplified: float | None = None


@dataclass(frozen=True)
class EffectiveConstants:
    """Ledger of every constant the bound assembly consumes.

    Cusp-related fields are None on cocompact domains; the cocompact decay
    constants are None on cofinite ones.
    """

    domain_name: str
    genus: int
    n_cusps: int
    covolume: float
    elliptic_excess: int
    ell_gamma: float
    theta_gamma: float
    mu_gamma: float
    sigma_Y: float
    sigma_branches: dict = field(default_factory=dict)
    Y0: float | None = None
    Y: float | None = None
    m_Y: float | None = None
    M_Y: float | None = None
    diam_Y: float | None = None
    diam_Y0: float | None = None
    vol_Y: float | None = None
    vol_Y0: float | None = None
    B_Y: float | None = None
    B_Y0: float | None = None
    C_gamma: float | None = None
    delta_gamma: float | None = None

    def to_ledger(self) -> list[dict]:
        """Rows (name, value, pipeline step) for the constants report."""
        rows = [
            ("genus", self.genus, 1),
            ("n_cusps", self.n_cusps, 1),
            ("covolume", self.covolume, 1),
            ("elliptic_excess", self.elliptic_excess, 1),
            ("ell_gamma", self.ell_gamma, 2),
            ("theta_gamma", self.theta_gamma, 2),
            ("Y0", self.Y0, 3),
            ("Y", self.Y, 3),
            ("m_Y", self.m_Y, 3),
            ("M_Y", self.M_Y, 3),
            ("mu_gamma", self.mu_gamma, 4),
            ("sigma_Y", self.sigma_Y, 5),
        ]
        rows += [(f"sigma_branch[{k}]", v, 5) for k, v in sorted(self.sigma_branches.items())]
        rows += [
            ("diam_Y", self.diam_Y, 6),
            ("diam_Y0", self.diam_Y0, 6),
            ("vol_Y", self.vol_Y, 7),
            ("vol_Y0", self.vol_Y0, 7),
            ("B_Y", self.B_Y, 8),
            ("B_Y0", self.B_Y0, 8),
            ("C_gamma", self.C_gamma, 8),
            ("delta_gamma", self.delta_gamma, 8),
        ]
        return [{"name": n, "value": v, "step": s} for n, v, s in rows]

    def to_dict(self) -> dict:
        out = {
            "domain_name": self.domain_name,
            "genus": self.genus,
            "n_cusps": self.n_cusps,
            "covolume": self.covolume,
            "elliptic_excess": self.elliptic_excess,
            "ell_gamma": self.ell_gamma,
            "theta_gamma": self.theta_gamma,
            "mu_gamma": None if math.isinf(self.mu_gamma) else self.mu_gamma,
            "sigma_Y": self.sigma_Y,
            "sigma_branches": dict(sorted(self.sigma_branches.items())),
        }
        for name in (
            "Y0", "Y", "m_Y", "M_Y", "diam_Y", "diam_Y0",
            "vol_Y", "vol_Y0", "B_Y", "B_Y0", "C_gamma", "delta_gamma",
        ):
            out[name] = getattr(self, name)
        return out


# ---------------------------------------------------------------------------
# Individual constants


def mu_gamma(domain: FundamentalDomain) -> float:
    """Smallest distance between a boundary segment and an elliptic point off it.

    Returns +inf when no admissible (segment, point) pair exists, which drops
    the elliptic branch from the displacement bound.
    """
    best = math.inf
    for segment in domain.boundary:
        for point in domain.elliptic:
            if segment.contains(point.location):
                continue
            best = min(best, segment.dist_to(point.location))
    return best


def sigma_y_branches(
    domain: FundamentalDomain,
    ell: float,
    mu: float,
    m_y: float | None,
    M_y: float | None,
) -> dict[str, float]:
    """Displacement lower bounds per conjugacy type of the moving element.

    Branches without matching group elements are omitted: no parabolic
    branches on cocompact domains, no elliptic branch when mu is infinite.
    """
    branches = {"hyperbolic": (math.cosh(ell) + 1.0) / 2.0}
    if domain.elliptic and math.isfinite(mu):
        theta = domain.theta_gamma()
        branches["elliptic"] = math.sinh(mu) ** 2 * math.sin(theta / 2.0) ** 2 + 1.0
    if domain.cusps:
        if m_y is None or M_y is None:
            raise ValueError("parabolic branches need the truncation heights m_Y, M_Y")
        branches["parabolic_other_cusp"] = m_y**2 / 4.0 + 1.0
        branches["parabolic_own_cusp"] = 1.0 / (4.0 * M_y**2) + 1.0
    return branches


def b_y_bound(diam: float, vol: float) -> float:
    """Counting constant e^{diam/2} / vol; an upper diameter bound keeps it valid."""
    if vol <= 0.0:
        raise ValueError(f"region volume must be positive, got {vol}")
    return math.exp(diam / 2.0) / vol


def b_k_y0(k: int, Y0: float, B_Y0: float, eps: float) -> float:
    """Cusp-zone tail constant at positive eps."""
    if k < 1 or Y0 <= 0.0 or eps <= 0.0:
        raise ValueError(f"need k >= 1, Y0 > 0, eps > 0; got k={k}, Y0={Y0}, eps={eps}")
    return (
        math.pi
        * Y0 ** (-4.0 - 2.0 * eps)
        * B_Y0
        * 4.0 ** (-k + 3)
        * (2.0 + eps)
        / (1.0 + eps)
        * (k / (2.0 * math.pi)) ** (4.0 + 2.0 * eps)
    )


def b_k_y0_limit(k: int, Y0: float, B_Y0: float) -> float:
    """eps -> 0 limit: 2 pi Y0^{-4} B_{Y0} 4^{-k+3} (k/(2 pi))^4."""
    if k < 1 or Y0 <= 0.0:
        raise ValueError(f"need k >= 1 and Y0 > 0; got k={k}, Y0={Y0}")
    return 2.0 * math.pi * Y0**-4.0 * B_Y0 * 4.0 ** (-k + 3) * (k / (2.0 * math.pi)) ** 4


def poincare_bound_compact(k: int, eps: float, constants: EffectiveConstants) -> float:
    """Upper bound for the displacement sum over nontrivial elements, on the
    compact part: 4 pi (2+eps)/(1+eps) B_Y sigma_Y^{-(k-2)} plus the elliptic
    stabilizer excess."""
    if k < 2:
        raise ValueError(f"compact series bound needs k >= 2, got {k}")
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    main = (
        4.0 * math.pi * (2.0 + eps) / (1.0 + eps) * constants.B_Y * constants.sigma_Y ** -(k - 2)
    )
    return main + constants.elliptic_excess


def spectral_gap_bound(k: int, eps: float, poincare_value: float) -> float:
    """Sup-norm bound given a Poincare-series bound P, at positive eps.

    (2k-1+eps)(1+eps)/(4 pi) + 3 (2k+eps)(2k-1+eps)(1+eps) / (4 pi (k+eps)) * P.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"the difference-kernel bound needs 0 < eps < 1, got {eps}")
    if poincare_value < 0.0:
        raise ValueError(f"series bound must be nonnegative, got {poincare_value}")
    lead = (2.0 * k - 1.0 + eps) * (1.0 + eps) / (4.0 * math.pi)
    factor = (
        3.0
        * (2.0 * k + eps)
        * (2.0 * k - 1.0 + eps)
        * (1.0 + eps)
        / (4.0 * math.pi * (k + eps))
    )
    return lead + factor * poincare_value


def sup_bound_compact(k: int, constants: EffectiveConstants) -> float:
    """eps -> 0 bound on the compact part:
    (2k-1)/(4 pi) (1 + 6 * elliptic excess) + 12 (2k-1) B_Y sigma_Y^{-(k-2)}."""
    if k < 2:
        raise ValueError(f"compact bound needs k >= 2, got {k}")
    if constants.B_Y is None:
        raise ValueError("constants carry no B_Y; run the pipeline first")
    lead = (2.0 * k - 1.0) / (4.0 * math.pi) * (1.0 + 6.0 * constants.elliptic_excess)
    return lead + 12.0 * (2.0 * k - 1.0) * constants.B_Y * constants.sigma_Y ** -(k - 2)


def sup_bound_cusp(k: int, constants: EffectiveConstants) -> float:
    """Large-weight cusp-zone bound, valid only when Y < k/(2 pi).

    Raises CompactBranchApplies when Y >= k/(2 pi): there the maximum
    principle pushes the cusp supremum into the compact part.
    """
    if k < 2:
        raise ValueError(f"cusp bound needs k >= 2, got {k}")
    if constants.Y is None or constants.Y0 is None or constants.B_Y0 is None:
        raise ValueError("constants carry no cusp data; the domain is cocompact")
    if constants.Y >= k / (2.0 * math.pi):
        raise CompactBranchApplies(k, constants.Y)
    tail = b_k_y0_limit(k, constants.Y0, constants.B_Y0)
    return (2.0 * k - 1.0) / (4.0 * math.pi) + 3.0 * (2.0 * k - 1.0) / (2.0 * math.pi) * (
        tail + math.sqrt(k) * _E54 / math.sqrt(math.pi)
    )


def cocompact_constants(genus: int, ell: float) -> CocompactConstants:
    """Decay constants for cocompact torsionfree groups of genus >= 2."""
    if genus < 2:
        raise ValueError(f"the cocompact packaging needs genus >= 2, got {genus}")
    if ell <= 0.0:
        raise ValueError(f"systole must be positive, got {ell}")
    sigma = (math.cosh(ell) + 1.0) / 2.0
    delta = 0.5 * math.log(sigma)
    C = (
        3.0
        * math.exp(4.0 * math.pi * genus / ell)
        / (math.pi * (genus - 1))
        * (math.cosh(ell) + 1.0) ** 2
        / math.log(sigma)
    )
    return CocompactConstants(C_gamma=C, delta_gamma=delta)


def sup_bound_weight2(eps: float, Y: float, B_Y: float) -> float:
    """Global weight-2 bound (1+eps)^2/(4 pi) + 3 (1+eps)^2 (2+eps)/eps * B_Y.

    Valid for Y >= 1/(2 pi), where the cusp zones inherit the compact bound.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    if Y < 1.0 / (2.0 * math.pi):
        raise ValueError(f"weight-2 bound needs Y >= 1/(2*pi), got Y={Y}")
    return (1.0 + eps) ** 2 / (4.0 * math.pi) + 3.0 * (1.0 + eps) ** 2 * (2.0 + eps) / eps * B_Y


def minimize_weight2(Y: float, B_Y: float, grid: int = 200) -> tuple[float, float]:
    """Grid argmin of the weight-2 bound over a log grid of eps in (1e-3, 1-1e-3)."""
    lo, hi = 1e-3, 1.0 - 1e-3
    best_eps, best_val = lo, math.inf
    for i in range(grid):
        eps = lo * (hi / lo) ** (i / (grid - 1))
        val = sup_bound_weight2(eps, Y, B_Y)
        if val < best_val:
            best_eps, best_val = eps, val
    return best_eps, best_val


def sup_lower_bound(k: int, domain: FundamentalDomain) -> LowerBound:
    """Lower bound d_{2k}/vol for the supremum; (k-1)/(2 pi) when genus >= 1."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    simplified = (k - 1) / (2.0 * math.pi) if domain.genus >= 1 else None
    if k == 1:
        # The dimension formula is wrong at weight 2; only the vacuous
        # genus bound survives.
        return LowerBound(value=0.0 if domain.genus >= 1 else None,
                          genus_simplified=simplified)
    value = dom.dimension_d2k(domain, k) / dom.covolume(domain)
    return LowerBound(value=value, genus_simplified=simplified)


# ---------------------------------------------------------------------------
# Pipeline


def _stage(step: int, label: str, fn, *args):
    """Run one pipeline stage, tagging failures with the step that produced them."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"step {step} ({label}): {exc}") from exc


def compute_constants(domain: FundamentalDomain, Y0: float = 2.0) -> EffectiveConstants:
    """Run the constants pipeline on a validated domain."""
    if Y0 <= 0.0:
        raise ValueError(f"need Y0 > 0, got {Y0}")
    ell = _stage(2, "systole", dom.shortest_geodesic_length, domain)
    mu = mu_gamma(domain)
    theta = domain.theta_gamma()
    vol = dom.covolume(domain)
    excess = domain.elliptic_excess()

    if domain.cocompact:
        if domain.bounding_rect is not None:
            diam = _stage(6, "diameter bound", dom.diameter_upper_bound, domain, math.inf)
        elif domain.genus >= 2:
            # Volume/systole diameter estimate; Gauss-Bonnet caps the volume.
            diam = 8.0 * math.pi * domain.genus / ell
        else:
            raise ValueError(
                "cocompact genus <= 1 domains need an explicit bounding_rect"
            )
        branches = sigma_y_branches(domain, ell, mu, None, None)
        sigma = max(min(branches.values()), 1.0)
        B_Y = b_y_bound(diam, vol)
        decay = None
        if domain.torsionfree and domain.genus >= 2:
            decay = cocompact_constants(domain.genus, ell)
        return EffectiveConstants(
            domain_name=domain.name,
            genus=domain.genus,
            n_cusps=0,
            covolume=vol,
            elliptic_excess=excess,
            ell_gamma=ell,
            theta_gamma=theta,
            mu_gamma=mu,
            sigma_Y=sigma,
            sigma_branches=branches,
            diam_Y=diam,
            vol_Y=vol,
            B_Y=B_Y,
            C_gamma=None if decay is None else decay.C_gamma,
            delta_gamma=None if decay is None else decay.delta_gamma,
        )

    Y = max(2.0 * Y0, Y_FLOOR)
    m_y, M_y = _stage(3, "truncation heights", dom.truncation_heights, domain, Y)
    branches = _stage(5, "displacement floor", sigma_y_branches, domain, ell, mu, m_y, M_y)
    sigma = max(min(branches.values()), 1.0)
    diam_y = _stage(6, "diameter bound", dom.diameter_upper_bound, domain, Y)
    diam_y0 = _stage(6, "diameter bound", dom.diameter_upper_bound, domain, Y0)
    vol_y = _stage(7, "region volume", dom.volume_region, domain, Y)
    vol_y0 = _stage(7, "region volume", dom.volume_region, domain, Y0)
    return EffectiveConstants(
        domain_name=domain.name,
        genus=domain.genus,
        n_cusps=domain.n_cusps,
        covolume=vol,
        elliptic_excess=excess,
        ell_gamma=ell,
        theta_gamma=theta,
        mu_gamma=mu,
        sigma_Y=sigma,
        sigma_branches=branches,
        Y0=Y0,
        Y=Y,
        m_Y=m_y,
        M_Y=M_y,
        diam_Y=diam_y,
        diam_Y0=diam_y0,
        vol_Y=vol_y,
        vol_Y0=vol_y0,
        B_Y=b_y_bound(diam_y, vol_y),
        B_Y0=b_y_bound(diam_y0, vol_y0),
    )


@dataclass(frozen=True)
class BoundRow:
    k: int
    region: str
    upper: float
    lower: float | None
    source: str


@dataclass(frozen=True)
class BoundReport:
    domain_name: str
    Y0: float | None
    Y: float | None
    rows: tuple[BoundRow, ...]

    def to_csv(self) -> str:
        lines = ["k,region,upper,lower,source"]
        for row in self.rows:
            lower = "" if row.lower is None else format_float(row.lower)
            lines.append(f"{row.k},{row.region},{format_float(row.upper)},{lower},{row.source}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "domain_name": self.domain_name,
            "Y0": self.Y0,
            "Y": self.Y,
            "rows": [
                {
                    "k": r.k,
                    "region": r.region,
                    "upper": r.upper,
                    "lower": r.lower,
                    "source": r.source,
                }
                for r in self.rows
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BoundReport":
        rows = tuple(
            BoundRow(
                k=r["k"],
                region=r["region"],
                upper=r["upper"],
                lower=r["lower"],
                source=r["source"],
            )
            for r in doc["rows"]
        )
        return cls(domain_name=doc["domain_name"], Y0=doc["Y0"], Y=doc["Y"], rows=rows)

    def regions(self) -> list[str]:
        return sorted({r.region for r in self.rows})

    def plot_series(self, region: str) -> list[tuple[int, float]]:
        return [(r.k, r.upper) for r in self.rows if r.region == region]


def format_float(x: float) -> str:
    """Fixed 12-significant-digit rendering for reproducible artifacts."""
    return f"{x:.12g}"


def run_algorithm(
    domain: FundamentalDomain,
    Y0: float = 2.0,
    k_min: int = 2,
    k_max: int = 30,
) -> tuple[EffectiveConstants, BoundReport]:
    """Full pipeline: constants, then one bound row per (weight, region).

    Cofinite domains get a compact-region row plus one row per cusp zone;
    the cusp row inherits the compact value while Y >= k/(2*pi) and switches
    to the tail bound above that.  Cocompact torsionfree domains get the
    exponential-decay packaging instead.
    """
    if k_min < 2:
        raise ValueError(f"bounds start at k = 2 (weight 4), got k_min={k_min}")
    constants = compute_constants(domain, Y0)
    rows: list[BoundRow] = []
    for k in range(k_min, k_max + 1):
        lower = sup_lower_bound(k, domain)
        if domain.cocompact:
            if constants.C_gamma is not None:
                upper = (2.0 * k - 1.0) / (4.0 * math.pi) + constants.C_gamma * math.exp(
                    -constants.delta_gamma * k
                )
                source = "cocompact_exponential"
            else:
                upper = sup_bound_compact(k, constants)
                source = "compact_poincare"
            rows.append(BoundRow(k=k, region="F", upper=upper, lower=lower.value, source=source))
            continue
        compact_upper = sup_bound_compact(k, constants)
        rows.append(
            BoundRow(k=k, region="F_Y", upper=compact_upper, lower=lower.value,
                     source="compact_poincare")
        )
        for j in range(1, domain.n_cusps + 1):
            try:
                upper = sup_bound_cusp(k, constants)
                source = "cusp_faddeev_tail"
            except CompactBranchApplies:
                upper = compact_upper
                source = "cusp_max_principle"
            rows.append(
                BoundRow(k=k, region=f"F_{j}^Y", upper=upper, lower=None, source=source)
            )
    rows.sort(key=lambda r: (r.k, r.region))
    return constants, BoundReport(
        domain_name=domain.name, Y0=constants.Y0, Y=constants.Y, rows=tuple(rows)
    )
