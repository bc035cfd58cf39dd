"""Fundamental-domain data model and its derived geometric quantities.

A domain is loaded from a JSON document (see ``load_domain``) or taken from
the built-in modular-group instance.  Once constructed it is immutable, and
all derived quantities (covolume, truncation constants, region volumes) are
pure functions of it.  Every one of them is a closed form: region volumes
are sums of arcsines between breakpoints of the region floor.  No quadrature
runs here.

A domain is cocompact or has exactly one cusp, at infinity of the base
chart; the document's one scaling matrix is the identity (up to sign).
The boundary segments are the only description of the domain's shape.
They must close up: each finite end meets one other, and there are two
unbounded rays (the sides of the cusp) or none.  No end lies on the real
axis, a point the one cusp is not.  The region in the base
chart is derived from them: the strip between the least and the greatest
foot of the rays, outside the disks whose circles carry the arc segments.
Its area must equal the Gauss-Bonnet covolume of the signature.  The
diameter bound uses the box that holds the segments.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .geometry import GeodesicSegment, require_point

__all__ = [
    "LoadError",
    "EllipticPoint",
    "FundamentalDomain",
    "load_domain",
    "modular_group",
    "covolume",
    "dimension_d2k",
    "shortest_geodesic_length",
    "truncation_heights",
    "diameter_upper_bound",
    "volume_region",
]

_MEMBERSHIP_TOL = 1e-6
# Entrywise tolerance of a cusp's scaling matrix against +-identity.
_IDENTITY_TOL = 1e-9
# Relative tolerance of the region area against the Gauss-Bonnet covolume.
_AREA_RTOL = 1e-9


class LoadError(ValueError):
    """A domain document violates the schema or a domain invariant."""


@dataclass(frozen=True)
class EllipticPoint:
    location: complex
    order: int
    is_class_rep: bool


@dataclass(frozen=True)
class FundamentalDomain:
    """Closed connected fundamental domain of a Fuchsian group of the first kind.

    ``n_cusps`` is 0 (cocompact) or 1: the one cusp sits at infinity of the
    base chart.
    """

    genus: int
    boundary: tuple[GeodesicSegment, ...]
    n_cusps: int
    elliptic: tuple[EllipticPoint, ...]
    min_hyperbolic_trace: float | None = None
    name: str = "domain"

    @property
    def cocompact(self) -> bool:
        return self.n_cusps == 0

    @property
    def torsionfree(self) -> bool:
        return not self.elliptic

    def elliptic_class_reps(self) -> tuple[EllipticPoint, ...]:
        return tuple(e for e in self.elliptic if e.is_class_rep)

    def theta_gamma(self) -> float:
        """Smallest rotation angle 2*pi/n over all elliptic points (pi if none)."""
        if not self.elliptic:
            return math.pi
        return min(2.0 * math.pi / e.order for e in self.elliptic)

    def elliptic_excess(self) -> int:
        """Sum of (order - 1) over the full elliptic list."""
        return sum(e.order - 1 for e in self.elliptic)

    @property
    def has_region(self) -> bool:
        """Whether the boundary fixes a region in the base chart: it has an unbounded ray."""
        return any(seg.unbounded for seg in self.boundary)

    def strip_bounds(self) -> tuple[float, float]:
        """Least and greatest foot of the unbounded vertical boundary rays."""
        if not self.has_region:
            raise LoadError(
                f"domain {self.name!r} has no region description; region geometry unavailable"
            )
        feet = [seg.foot for seg in self.boundary if seg.unbounded]
        return min(feet), max(feet)

    def disks(self) -> tuple[tuple[float, float], ...]:
        """(center, radius) of the circle of each arc segment; the region lies outside."""
        return tuple((seg.center, seg.radius) for seg in self.boundary if seg.kind == "arc")

    def contains(self, z: complex) -> bool:
        z = require_point(z)
        x0, x1 = self.strip_bounds()
        tol = _MEMBERSHIP_TOL
        return x0 - tol <= z.real <= x1 + tol and all(
            abs(z - c) >= r - tol for c, r in self.disks()
        )


# ---------------------------------------------------------------------------
# Loading and validation


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LoadError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise LoadError(f"{what} must be a finite number, got {value!r}")
    return number


def _as_integer(value, lowest: int, what: str) -> int:
    # Integers enter float arithmetic downstream, so they must be exact there.
    if isinstance(value, bool) or not isinstance(value, int) or not lowest <= value < 2**53:
        raise LoadError(f"{what} must be an integer in [{lowest}, 2**53), got {value!r}")
    return value


def _as_list(doc: dict, key: str, item_type: type, what: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, item_type) for v in value):
        raise LoadError(f"{key} must be a list of {what}, got {value!r}")
    return value


def _count_cusps(doc: dict) -> int:
    """Check the cusps' scaling matrices: at most one, and that one +-identity."""
    matrices = _as_list(doc, "cusps", list, "scaling matrices")
    for index, rows in enumerate(matrices, 1):
        if index > 1:
            raise LoadError(
                f"cusp {index}: a domain has at most one cusp, at infinity of the base chart"
            )
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError):
            raise LoadError(f"cusp {index}: scaling matrix must be two rows of two numbers")
        entries = [_as_number(v, f"cusp {index}: scaling entry") for v in (a, b, c, d)]
        sign = math.copysign(1.0, entries[0])
        if any(abs(sign * v - e) > _IDENTITY_TOL for v, e in zip(entries, (1, 0, 0, 1))):
            raise LoadError(
                f"cusp {index}: scaling matrix {rows!r} is not +-identity; "
                "the one cusp must sit at infinity of the base chart"
            )
    return len(matrices)


def _parse_segment(desc: dict, index: int) -> GeodesicSegment:
    kind = desc.get("type")
    try:
        if kind == "vertical":
            return GeodesicSegment.vertical(
                _as_number(desc["x"], "vertical x"),
                _as_number(desc["y_min"], "vertical y_min"),
                _as_number(desc["y_max"], "vertical y_max") if "y_max" in desc else math.inf,
            )
        if kind == "arc":
            return GeodesicSegment.arc(
                _as_number(desc["center"], "arc center"),
                _as_number(desc["radius"], "arc radius"),
                _as_number(desc["x_min"], "arc x_min"),
                _as_number(desc["x_max"], "arc x_max"),
            )
    except (KeyError, ValueError) as exc:
        raise LoadError(f"boundary segment {index}: {exc}") from exc
    raise LoadError(f"boundary segment {index}: unknown type {kind!r}")


def load_domain(source) -> FundamentalDomain:
    """Build a validated FundamentalDomain from a JSON file path or a dict."""
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise LoadError(f"domain file {source} is not valid JSON: {exc}") from exc
        except (OSError, ValueError) as exc:
            # ValueError: undecodable bytes in the file or a NUL in the path
            raise LoadError(f"cannot read domain file {source}: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise LoadError(f"unsupported domain source {type(source).__name__}")
    if not isinstance(doc, dict):
        raise LoadError(f"domain document must be a JSON object, got {doc!r}")

    if "genus" not in doc:
        raise LoadError("domain document lacks the required field 'genus'")
    genus = _as_integer(doc["genus"], 0, "genus")

    n_cusps = _count_cusps(doc)

    elliptic = []
    for i, desc in enumerate(_as_list(doc, "elliptic", dict, "objects")):
        try:
            x = _as_number(desc["x"], "elliptic x")
            y = _as_number(desc["y"], "elliptic y")
            order = _as_integer(desc["order"], 2, f"elliptic point {i + 1}: order")
            rep = bool(desc.get("is_class_rep", True))
        except KeyError as exc:
            raise LoadError(f"elliptic point {i + 1}: missing field {exc}") from exc
        if y <= 0.0:
            raise LoadError(f"elliptic point {i + 1}: must lie in the upper half-plane")
        elliptic.append(EllipticPoint(location=complex(x, y), order=order, is_class_rep=rep))
    elliptic = tuple(elliptic)

    boundary = tuple(
        _parse_segment(s, i + 1) for i, s in enumerate(_as_list(doc, "boundary", dict, "objects"))
    )

    trace = doc.get("min_hyperbolic_trace")
    if trace is not None:
        trace = _as_number(trace, "min_hyperbolic_trace")

    domain = FundamentalDomain(
        genus=genus,
        boundary=boundary,
        n_cusps=n_cusps,
        elliptic=elliptic,
        min_hyperbolic_trace=trace,
        name=str(doc.get("name", "domain")),
    )
    _validate(domain)
    return domain


def _validate(domain: FundamentalDomain) -> None:
    volume = covolume(domain)
    if volume <= 0.0:
        raise LoadError(
            f"domain {domain.name!r} has nonpositive Gauss-Bonnet covolume {volume:.6g}; "
            "no Fuchsian group of the first kind has this signature"
        )
    rays = sum(seg.unbounded for seg in domain.boundary)
    if rays not in ((0,) if domain.cocompact else (0, 2)):
        raise LoadError(
            f"boundary has {rays} unbounded rays; a cusp at infinity has two sides, "
            "a cocompact domain none"
        )
    try:
        ends = [(i + 1, p) for i, seg in enumerate(domain.boundary) for p in seg.endpoints()]
        # each end meets itself too
        meets = [sum(abs(p - q) <= _MEMBERSHIP_TOL for _, q in ends) - 1 for _, p in ends]
    except OverflowError as exc:
        raise LoadError(f"a boundary segment overflows the float range: {exc}") from exc
    for (i, p), n in zip(ends, meets):
        if n != 1:
            raise LoadError(
                f"boundary segment {i}: its end at {p} meets {n} other ends, "
                "not one; the boundary does not close up"
            )
    if domain.has_region:
        for i, e in enumerate(domain.elliptic):
            if not domain.contains(e.location):
                raise LoadError(
                    f"elliptic point {i + 1} at {e.location} lies outside the domain region"
                )
        try:
            area = volume_region(domain, math.inf)
        except ValueError as exc:
            raise LoadError(f"domain {domain.name!r}: {exc}") from exc
        if not math.isclose(area, volume, rel_tol=_AREA_RTOL):
            raise LoadError(
                f"domain {domain.name!r}: region area {area:.12g} does not match the "
                f"Gauss-Bonnet covolume {volume:.12g} of its signature"
            )
    for i, p in ends:
        if p.imag <= _MEMBERSHIP_TOL:
            raise LoadError(
                f"boundary segment {i}: its end at {p} lies on the real axis; "
                "the one cusp sits at infinity of the base chart"
            )


_PSL2Z_RESOURCE = "psl2z.json"


def modular_group() -> FundamentalDomain:
    """The built-in PSL(2,Z) domain: |z| >= 1, |Re z| <= 1/2."""
    with resources.files("supnorm.data").joinpath(_PSL2Z_RESOURCE).open("r") as fh:
        return load_domain(json.load(fh))


# ---------------------------------------------------------------------------
# Derived quantities


def covolume(domain: FundamentalDomain) -> float:
    """Hyperbolic volume 2*pi*((2g-2) + h + sum over classes of (1 - 1/n))."""
    total = (2 * domain.genus - 2) + domain.n_cusps
    total += sum(1.0 - 1.0 / e.order for e in domain.elliptic_class_reps())
    return 2.0 * math.pi * total


def dimension_d2k(domain: FundamentalDomain, k: int) -> int:
    """Dimension of the weight-2k cusp form space, for k >= 2.

    The closed formula (2k-1)(g-1) + (k-1)h + sum of floor(k(1-1/n)) is wrong
    at k = 1 (weight 2 has dimension g), so that weight is refused here.
    """
    if k < 2:
        raise ValueError(f"dimension formula requires k >= 2, got k={k}")
    dim = (2 * k - 1) * (domain.genus - 1) + (k - 1) * domain.n_cusps
    dim += sum(math.floor(k * (1.0 - 1.0 / e.order)) for e in domain.elliptic_class_reps())
    return dim


def shortest_geodesic_length(domain: FundamentalDomain) -> float:
    """Length of the shortest closed geodesic, from the minimal hyperbolic trace."""
    trace = domain.min_hyperbolic_trace
    if trace is None:
        raise ValueError(
            f"domain {domain.name!r} carries no min_hyperbolic_trace; the systole is an input"
        )
    if trace <= 2.0:
        raise ValueError(f"trace {trace} does not belong to a hyperbolic element (need > 2)")
    return 2.0 * math.acosh(trace / 2.0)


def _truncated_boundary(domain: FundamentalDomain, Y: float) -> list[GeodesicSegment]:
    """Boundary segments of the truncated region (rays cut at height Y)."""
    pieces = []
    for seg in domain.boundary:
        if seg.kind == "vertical":
            top = min(seg.y_max, Y)
            if top > seg.y_min:
                pieces.append(GeodesicSegment.vertical(seg.foot, seg.y_min, top))
        else:
            pieces.append(seg)
    return pieces


def truncation_heights(domain: FundamentalDomain, Y: float) -> tuple[float, float]:
    """Constants (m_Y, M_Y) framing Im z on the region truncated at height Y.

    The domain's one cusp sits at infinity, so the height function is Im z
    itself.  It is harmonic, so its minimum over the compact region sits on
    the boundary.  Along a vertical segment Im is monotone and along an arc
    it has a single interior maximum, so the minimum over a piece is
    attained at one of its endpoints and m_Y is an exact endpoint minimum.
    The horizontal cut y = Y has the same endpoints as the tops of the cut
    vertical rays, so it adds no candidates.  M_Y equals Y by construction
    of the cusp zone.
    """
    if domain.cocompact:
        raise ValueError("truncation heights only apply to domains with cusps")
    domain.strip_bounds()  # refuses a boundary that fixes no region
    heights = [p.imag for seg in _truncated_boundary(domain, Y) for p in seg.endpoints()]
    m_y = min([Y, *heights])
    if not 0.0 < m_y < Y:
        raise ValueError(
            f"m_Y={m_y!r} does not lie in (0, Y={Y!r}): the truncated region is empty"
        )
    return m_y, Y


def diameter_upper_bound(domain: FundamentalDomain, Y: float) -> float:
    """Diameter bound from the bounding box [x0,x1] x [a,b] of the truncated boundary.

    The boundary closes up, so the region cut at Y lies in the box of its
    segments (rays cut at Y).  y is monotone along a vertical and concave
    along an arc, so a is the lowest endpoint, and b, capped at Y, the highest
    endpoint or the top of an arc whose x-range holds its center.  Any z, w in
    the box have |z-w|^2 <= (x1-x0)^2 + (b-a)^2 and Im(z) Im(w) >= a^2, so
    arccosh(1 + ((x1-x0)^2+(b-a)^2)/(2a^2)) bounds the diameter from above.
    """
    pieces = _truncated_boundary(domain, Y)
    if not pieces:
        raise ValueError(f"domain {domain.name!r} has no boundary segments")
    ends = [p for seg in pieces for p in seg.endpoints()]
    ys = [p.imag for p in ends]
    ys += [s.radius for s in pieces if s.kind == "arc" and s.x_min <= s.center <= s.x_max]
    x0, x1 = min(p.real for p in ends), max(p.real for p in ends)
    a, b = min(ys), min(max(ys), Y)
    if not 0.0 < a < b:
        raise ValueError(f"the truncated region is empty or degenerate: a={a!r}, b={b!r}")
    return math.acosh(1.0 + ((x1 - x0) ** 2 + (b - a) ** 2) / (2.0 * a * a))


def volume_region(domain: FundamentalDomain, Y: float) -> float:
    """Hyperbolic volume of the region truncated at height Y (full domain if Y is inf).

    The region is the one the boundary fixes: the strip between the feet of
    the unbounded rays, outside the circles of the arc segments (see
    ``FundamentalDomain.strip_bounds`` and ``disks``).  Above abscissa x the
    area form dx dy / y^2 integrates to 1/h(x) - 1/Y, where the floor h is
    the highest excluded arc sqrt(r^2 - (x-c)^2).  The
    strip edges, each disk's c - r, c and c + r, the points where a circle
    crosses height Y and the pairwise circle intersections cut the strip into
    pieces on which one arc is highest and h stays on one side of Y, so each
    piece integrates in closed form through arcsin((x-c)/r).
    """
    x0, x1 = domain.strip_bounds()
    disks = domain.disks()
    cuts = {x0, x1}
    for c, r in disks:
        cuts.update((c - r, c, c + r))
        if r > Y:
            h = math.sqrt(r * r - Y * Y)
            cuts.update((c - h, c + h))
    for (c1, r1), (c2, r2) in itertools.combinations(disks, 2):
        if c1 != c2:
            cuts.add((r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1)))
    breaks = sorted(v for v in cuts if x0 <= v <= x1)

    def arc(x: float, c: float, r: float) -> float:
        return math.asin(min(max((x - c) / r, -1.0), 1.0))

    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        floor, c, r = max(
            ((math.sqrt(r * r - (mid - c) ** 2), c, r) for c, r in disks if abs(mid - c) < r),
            default=(0.0, 0.0, 0.0),
        )
        if floor <= 0.0:
            raise ValueError(f"region is not bounded away from the real axis at x={mid}")
        if floor < Y:
            total += arc(hi, c, r) - arc(lo, c, r) - (hi - lo) / Y
    if total <= 0.0:
        raise ValueError(
            f"truncation height {Y} sits below the domain floor; the region is empty"
        )
    return total
