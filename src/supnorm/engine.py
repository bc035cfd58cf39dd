"""Effective-constant pipeline and sup-norm bound assembly.

The pipeline runs in a fixed order (the "steps" quoted in the constants
ledger): (1) ingest the domain, (2) systole from the minimal hyperbolic
trace, (3) truncation heights for Y = max(2*Y0, 16/sqrt(15)), (4) smallest
segment-to-elliptic distance, (5) displacement lower bound over the
truncated region, (6) diameter bounds, (7) truncation volumes, (8) the
counting constants built from them, then per-weight bound rows (9)-(10).

Every constant and bound here is a closed form in ``math``, the Stirling
ratio bound and the translation-sum bound built on it included, so this
module and the domain layer under it load no numpy.  CheckResult, the
verdict line shared by the kernel checks and the verifier, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from . import domain as dom
from .domain import FundamentalDomain

__all__ = [
    "EffectiveConstants",
    "CocompactConstants",
    "GammaRatio",
    "BoundRow",
    "BoundReport",
    "CheckResult",
    "Y_FLOOR",
    "mu_gamma",
    "sigma_y_branches",
    "b_y_bound",
    "b_k_y0",
    "b_k_y0_limit",
    "gamma_ratio_bound",
    "parabolic_sum_bound",
    "poincare_bound_compact",
    "spectral_gap_bound",
    "sup_bound_compact",
    "sup_bound_cusp",
    "cocompact_constants",
    "sup_lower_bound",
    "compute_constants",
    "run_algorithm",
    "format_float",
]

#: Smallest admissible truncation height: the cusp-tail estimate needs
#: Y^2/4 >= 64/15, i.e. Y >= 16/sqrt(15).
Y_FLOOR = 16.0 / math.sqrt(15.0)


@dataclass(frozen=True)
class CocompactConstants:
    C_gamma: float
    delta_gamma: float


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
        return {
            **asdict(self),
            "mu_gamma": None if math.isinf(self.mu_gamma) else self.mu_gamma,
            "sigma_branches": dict(sorted(self.sigma_branches.items())),
        }


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


def _hyperbolic_floor(ell: float) -> float:
    """(cosh ell + 1)/2, the displacement floor of hyperbolic elements."""
    return (math.cosh(ell) + 1.0) / 2.0


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
    branches = {"hyperbolic": _hyperbolic_floor(ell)}
    if domain.elliptic and math.isfinite(mu):
        theta = domain.theta_gamma()
        branches["elliptic"] = math.sinh(mu) ** 2 * math.sin(theta / 2.0) ** 2 + 1.0
    if domain.n_cusps:
        if m_y is None or M_y is None:
            raise ValueError("parabolic branches need the truncation heights m_Y, M_Y")
        branches["parabolic_other_cusp"] = m_y**2 / 4.0 + 1.0
        branches["parabolic_own_cusp"] = 1.0 / (4.0 * M_y**2) + 1.0
    return branches


def _volume_systole_diameter(genus: int, ell: float) -> float:
    """Diameter bound 8 pi g / ell of a cocompact torsion-free surface of genus g >= 2.

    Without torsion the injectivity radius is at least ell/2, so balls of
    radius ell/2 are embedded.  Centred on a minimizing geodesic of length
    diam at spacing ell, more than diam/ell of them are disjoint, each of
    area 4 pi sinh^2(ell/4), inside the area 4 pi (g - 1) of the surface.
    So diam < ell (g - 1) / sinh^2(ell/4) < 16 (g - 1) / ell < 8 pi g / ell,
    since sinh x > x (Buser, Geometry and Spectra of Compact Riemann
    Surfaces, ch. 4).  The packing bound is much the sharper (7.70 against
    26.11 on the genus-2 fixture, which would cut B_Y from 37,271 to 3.74),
    but the tables keep the paper's 8 pi g / ell.
    """
    return 8.0 * math.pi * genus / ell


def b_y_bound(diam: float, vol: float) -> float:
    """Counting constant e^{diam/2} / vol; an upper diameter bound keeps it valid."""
    if vol <= 0.0:
        raise ValueError(f"region volume must be positive, got {vol}")
    return math.exp(diam / 2.0) / vol


def b_k_y0(k: int, Y0: float, B_Y0: float, eps: float) -> float:
    """Cusp-zone tail constant
    pi Y0^{-4-2 eps} B_{Y0} 4^{-k+3} (2+eps)/(1+eps) (k/(2 pi))^{4+2 eps}.

    The theorem states it for 0 < eps < 1; eps = 0 gives its limit, which is
    the value the bounds use (see spectral_gap_bound).
    """
    if k < 1 or Y0 <= 0.0 or not 0.0 <= eps < math.inf:
        raise ValueError(f"need k >= 1, Y0 > 0, finite eps >= 0; got k={k}, Y0={Y0}, eps={eps}")
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
    """eps -> 0 limit of b_k_y0: 2 pi Y0^{-4} B_{Y0} 4^{-k+3} (k/(2 pi))^4."""
    return b_k_y0(k, Y0, B_Y0, 0.0)


@dataclass(frozen=True)
class GammaRatio:
    ratio: float
    bound: float


def gamma_ratio_bound(Z: float) -> GammaRatio:
    """Gamma(Z-1/2)/Gamma(Z) with its effective Stirling bound e^{5/4}/sqrt(Z).

    The bound holds for every Z >= 1, in exact arithmetic (the rounding of
    the floats is not covered).  Wendel's inequality (Amer. Math. Monthly
    55, 1948), Gamma(x+s) >= (x/(x+s))^(1-s) x^s Gamma(x), at x = Z - 1/2
    and s = 1/2 gives Gamma(Z-1/2)/Gamma(Z) <= sqrt(Z)/(Z - 1/2).  That is
    at most e^{5/4}/sqrt(Z) exactly when Z (e^{5/4} - 1) >= e^{5/4}/2, that
    is Z >= 0.7008, so on the whole domain.
    """
    if Z < 1.0:
        raise ValueError(f"Stirling ratio bound requires Z >= 1, got {Z}")
    ratio = math.exp(math.lgamma(Z - 0.5) - math.lgamma(Z))
    bound = math.exp(1.25) / math.sqrt(Z)
    return GammaRatio(ratio=ratio, bound=bound)


def parabolic_sum_bound(k: int, eps: float) -> float:
    """Closed bound k e^{5/4} / (sqrt(pi) sqrt(k+eps)) for the translation sum:
    k / sqrt(pi) times the Stirling bound of Gamma(k+eps-1/2)/Gamma(k+eps).

    The theorem states it for 0 < eps < 1; eps = 0 gives its limit
    sqrt(k) e^{5/4} / sqrt(pi), which the eps -> 0 sup-norm bound uses.
    """
    if k < 1 or not 0.0 <= eps < math.inf:
        raise ValueError(f"need k >= 1 and finite eps >= 0, got k={k}, eps={eps}")
    return k * gamma_ratio_bound(k + eps).bound / math.sqrt(math.pi)


def poincare_bound_compact(k: int, eps: float, constants: EffectiveConstants) -> float:
    """Upper bound for the displacement sum over nontrivial elements, on the
    compact part: 4 pi (2+eps)/(1+eps) B_Y sigma_Y^{-(k-2)} plus the elliptic
    stabilizer excess.

    The theorem states it for 0 < eps < 1; eps = 0 gives its limit,
    8 pi B_Y sigma_Y^{-(k-2)} plus the excess (see spectral_gap_bound).
    """
    if k < 2:
        raise ValueError(f"compact series bound needs k >= 2, got {k}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"need finite eps >= 0, got eps={eps}")
    main = (
        4.0 * math.pi * (2.0 + eps) / (1.0 + eps) * constants.B_Y * constants.sigma_Y ** -(k - 2)
    )
    return main + constants.elliptic_excess


def spectral_gap_bound(k: int, eps: float, poincare_value: float) -> float:
    """Sup-norm bound given a Poincare-series bound P:

    (2k-1+eps)(1+eps)/(4 pi) + 3 (2k+eps)(2k-1+eps)(1+eps) / (4 pi (k+eps)) * P.

    The theorem proves it for every 0 < eps < 1, with P the eps-form of the
    series bound.  S_2k does not depend on eps and the bound is continuous at
    eps = 0, so its value there, (2k-1)/(4 pi) + 3 (2k-1)/(2 pi) * P(0), bounds
    S_2k too; that is the bound the tables report.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"the difference-kernel bound needs 0 <= eps < 1, got {eps}")
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
    """eps -> 0 bound on the compact part, spectral_gap_bound of
    poincare_bound_compact at eps = 0:
    (2k-1)/(4 pi) (1 + 6 * elliptic excess) + 12 (2k-1) B_Y sigma_Y^{-(k-2)}."""
    if k < 2:
        raise ValueError(f"compact bound needs k >= 2, got {k}")
    if constants.B_Y is None:
        raise ValueError("constants carry no B_Y; run the pipeline first")
    return spectral_gap_bound(k, 0.0, poincare_bound_compact(k, 0.0, constants))


def sup_bound_cusp(k: int, constants: EffectiveConstants) -> tuple[float, str]:
    """Cusp-zone bound with the branch that gives it, as (bound, source).

    When Y >= k/(2 pi) the maximum principle pushes the cusp supremum into
    the compact part: (sup_bound_compact, "cusp_max_principle").  Below that,
    spectral_gap_bound at eps = 0 of the cusp tail b_k_y0_limit plus the
    translation-sum bound: (tail bound, "cusp_faddeev_tail").
    """
    if k < 2:
        raise ValueError(f"cusp bound needs k >= 2, got {k}")
    if constants.Y is None or constants.Y0 is None or constants.B_Y0 is None:
        raise ValueError("constants carry no cusp data; the domain is cocompact")
    if constants.Y >= k / (2.0 * math.pi):
        return sup_bound_compact(k, constants), "cusp_max_principle"
    tail = b_k_y0_limit(k, constants.Y0, constants.B_Y0)
    return spectral_gap_bound(k, 0.0, tail + parabolic_sum_bound(k, 0.0)), "cusp_faddeev_tail"


def cocompact_constants(genus: int, ell: float) -> CocompactConstants:
    """Decay constants for cocompact torsionfree groups of genus >= 2."""
    if genus < 2:
        raise ValueError(f"the cocompact packaging needs genus >= 2, got {genus}")
    if ell <= 0.0:
        raise ValueError(f"systole must be positive, got {ell}")
    sigma = _hyperbolic_floor(ell)
    delta = 0.5 * math.log(sigma)
    C = (
        3.0
        * math.exp(4.0 * math.pi * genus / ell)
        / (math.pi * (genus - 1))
        * (2.0 * sigma) ** 2
        / math.log(sigma)
    )
    return CocompactConstants(C_gamma=C, delta_gamma=delta)


def sup_lower_bound(k: int, domain: FundamentalDomain) -> float:
    """Lower bound d_{2k}/vol for the supremum, for weight 2k >= 4."""
    if k < 2:
        raise ValueError(f"need k >= 2, the dimension formula fails at weight 2; got k={k}")
    return dom.dimension_d2k(domain, k) / dom.covolume(domain)


# ---------------------------------------------------------------------------
# Pipeline


def _stage(step: int, label: str, fn, *args):
    """Run one pipeline stage, tagging failures with the step that produced them."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"step {step} ({label}): {exc}") from exc
    except OverflowError as exc:
        raise ValueError(
            f"step {step} ({label}): a value overflows the float range; "
            "use a smaller Y0 or a less extreme domain"
        ) from exc


def compute_constants(domain: FundamentalDomain, Y0: float = 2.0) -> EffectiveConstants:
    """Run the constants pipeline on a validated domain."""
    if not (math.isfinite(Y0) and Y0 > 0.0):
        raise ValueError(f"need a finite Y0 > 0, got {Y0}")
    ell = _stage(2, "systole", dom.shortest_geodesic_length, domain)
    mu = _stage(4, "elliptic distance", mu_gamma, domain)
    if domain.elliptic and math.isinf(mu):
        # an infinite mu would drop the elliptic branch of the displacement floor
        raise ValueError(
            "step 4 (elliptic distance): no boundary segment lies off an elliptic point; "
            "domains with torsion need their boundary segments"
        )
    vol = dom.covolume(domain)

    if domain.cocompact:
        if domain.torsionfree:
            diam = _volume_systole_diameter(domain.genus, ell)
        else:
            diam = _stage(6, "diameter bound", dom.diameter_upper_bound, domain, math.inf)
        branches = _stage(5, "displacement floor", sigma_y_branches, domain, ell, mu, None, None)
        region = dict(
            diam_Y=diam, vol_Y=vol, B_Y=_stage(8, "counting constants", b_y_bound, diam, vol)
        )
        if domain.torsionfree:
            decay = _stage(8, "counting constants", cocompact_constants, domain.genus, ell)
            region.update(asdict(decay))
    else:
        Y = max(2.0 * Y0, Y_FLOOR)
        m_y, M_y = _stage(3, "truncation heights", dom.truncation_heights, domain, Y)
        branches = _stage(5, "displacement floor", sigma_y_branches, domain, ell, mu, m_y, M_y)
        diam_y = _stage(6, "diameter bound", dom.diameter_upper_bound, domain, Y)
        diam_y0 = _stage(6, "diameter bound", dom.diameter_upper_bound, domain, Y0)
        vol_y = _stage(7, "region volume", dom.volume_region, domain, Y)
        vol_y0 = _stage(7, "region volume", dom.volume_region, domain, Y0)
        region = dict(
            Y0=Y0,
            Y=Y,
            m_Y=m_y,
            M_Y=M_y,
            diam_Y=diam_y,
            diam_Y0=diam_y0,
            vol_Y=vol_y,
            vol_Y0=vol_y0,
            B_Y=_stage(8, "counting constants", b_y_bound, diam_y, vol_y),
            B_Y0=_stage(8, "counting constants", b_y_bound, diam_y0, vol_y0),
        )
    return EffectiveConstants(
        domain_name=domain.name,
        genus=domain.genus,
        n_cusps=domain.n_cusps,
        covolume=vol,
        elliptic_excess=domain.elliptic_excess(),
        ell_gamma=ell,
        theta_gamma=domain.theta_gamma(),
        mu_gamma=mu,
        sigma_Y=max(min(branches.values()), 1.0),
        sigma_branches=branches,
        **region,
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

    def regions(self) -> list[str]:
        return sorted({r.region for r in self.rows})

    def plot_series(self, region: str) -> list[tuple[int, float]]:
        return [(r.k, r.upper) for r in self.rows if r.region == region]


def format_float(x: float) -> str:
    """Fixed 12-significant-digit rendering for reproducible artifacts."""
    return f"{x:.12g}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self) -> str:
        """The report line ``[PASS] name: detail`` (or ``[FAIL]``)."""
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


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
            rows.append(BoundRow(k=k, region="F", upper=upper, lower=lower, source=source))
            continue
        rows.append(
            BoundRow(k=k, region="F_Y", upper=sup_bound_compact(k, constants), lower=lower,
                     source="compact_poincare")
        )
        upper, source = sup_bound_cusp(k, constants)
        rows += [
            BoundRow(k=k, region=f"F_{j}^Y", upper=upper, lower=None, source=source)
            for j in range(1, domain.n_cusps + 1)
        ]
    rows.sort(key=lambda r: (r.k, r.region))
    return constants, BoundReport(
        domain_name=domain.name, Y0=constants.Y0, Y=constants.Y, rows=tuple(rows)
    )
