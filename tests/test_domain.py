"""Tests for domain loading, validation, and derived geometric quantities."""

import ast
import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from supnorm.domain import (
    LoadError,
    covolume,
    diameter_upper_bound,
    dimension_d2k,
    load_domain,
    modular_group,
    shortest_geodesic_length,
    truncation_heights,
    volume_region,
)
from supnorm.engine import compute_constants
from supnorm.geometry import GeodesicSegment

from conftest import ROOT3_HALF

Y_STD = 16.0 / math.sqrt(15.0)
ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "supnorm" / "data"
PSL2Z_DOC = json.loads((DATA / "psl2z.json").read_text())

#: A closed cocompact boundary between x = -1 and 1 and the circles |z| = sqrt(1.25)
#: and sqrt(10), with an order-7 point at 2i.
CLOSED_TORSION_DOC = {
    "genus": 2,
    "cusps": [],
    "min_hyperbolic_trace": 3.0,
    "elliptic": [{"x": 0.0, "y": 2.0, "order": 7}],
    "boundary": [
        {"type": "vertical", "x": -1.0, "y_min": 0.5, "y_max": 3.0},
        {"type": "arc", "center": 0.0, "radius": math.sqrt(1.25), "x_min": -1.0, "x_max": 1.0},
        {"type": "vertical", "x": 1.0, "y_min": 0.5, "y_max": 3.0},
        {"type": "arc", "center": 0.0, "radius": math.sqrt(10.0), "x_min": -1.0, "x_max": 1.0},
    ],
}
#: A closed boundary between x = 1 and 3 on circles about 0, whose arcs do not
#: reach their tops: the highest point is the corner 1 + i sqrt(24).
OFF_CENTER_DOC = {
    "genus": 2,
    "cusps": [],
    "boundary": [
        {"type": "vertical", "x": 1.0, "y_min": math.sqrt(12.0), "y_max": math.sqrt(24.0)},
        {"type": "arc", "center": 0.0, "radius": math.sqrt(13.0), "x_min": 1.0, "x_max": 3.0},
        {"type": "vertical", "x": 3.0, "y_min": 2.0, "y_max": 4.0},
        {"type": "arc", "center": 0.0, "radius": 5.0, "x_min": 1.0, "x_max": 3.0},
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every position in a JSON document, as the key path leading to it."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_fixtures(draw):
    """psl2z.json with one to three positions replaced by a random value or deleted."""
    doc = copy.deepcopy(PSL2Z_DOC)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


class TestLoading:
    def test_builtin_modular_group(self, psl2z):
        assert psl2z.genus == 0
        assert psl2z.n_cusps == 1
        assert psl2z.cusps[0].scaling.is_identity()
        orders = sorted(e.order for e in psl2z.elliptic)
        assert orders == [2, 3, 3]
        locs = sorted((e.location.real, e.location.imag) for e in psl2z.elliptic)
        assert locs[0] == pytest.approx((-0.5, ROOT3_HALF))
        assert locs[1] == pytest.approx((0.0, 1.0))
        assert locs[2] == pytest.approx((0.5, ROOT3_HALF))
        assert len(psl2z.elliptic_class_reps()) == 2

    def test_order_one_rejected(self):
        doc = {
            "genus": 0,
            "cusps": [[[1, 0], [0, 1]]],
            "elliptic": [{"x": 0.0, "y": 1.0, "order": 1, "is_class_rep": True}],
        }
        with pytest.raises(LoadError):
            load_domain(doc)

    def test_cocompact_valid(self, genus2_domain):
        assert genus2_domain.cocompact
        assert genus2_domain.torsionfree
        assert genus2_domain.genus == 2

    def test_gauss_bonnet_guard(self):
        # genus 0 with a single cusp and no torsion has negative area
        with pytest.raises(LoadError, match="Gauss-Bonnet"):
            load_domain({"genus": 0, "cusps": [[[1, 0], [0, 1]]], "elliptic": []})

    def test_non_unit_scaling_rejected(self):
        doc = {"genus": 1, "cusps": [[[2, 0], [0, 1]]]}
        with pytest.raises(LoadError):
            load_domain(doc)

    def test_missing_genus(self):
        with pytest.raises(LoadError, match="genus"):
            load_domain({"cusps": []})

    def test_elliptic_outside_region_rejected(self):
        # rays at x = +-0.4 leave the corner rho = -1/2 + i sqrt(3)/2 outside the strip
        corner = math.sqrt(1.0 - 0.4**2)
        doc = {
            **PSL2Z_DOC,
            "boundary": [
                {"type": "vertical", "x": -0.4, "y_min": corner},
                {"type": "arc", "center": 0.0, "radius": 1.0, "x_min": -0.4, "x_max": 0.4},
                {"type": "vertical", "x": 0.4, "y_min": corner},
            ],
        }
        with pytest.raises(LoadError, match="elliptic point 1 .* outside"):
            load_domain(doc)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("region", [{"type": "strip", "x_min": -0.6, "x_max": 0.6},
                        {"type": "outside_disk", "center": 0.0, "radius": 0.95}]),
            ("bounding_rect", {"x_min": -0.1, "x_max": 0.1, "y_min": 1.2}),
        ],
        ids=["region", "bounding_rect"],
    )
    def test_region_key_ignored(self, psl2z, key, value):
        # an older file's shape key, here at odds with the boundary, changes no constant
        constants = compute_constants(load_domain({**PSL2Z_DOC, key: value}))
        assert constants == compute_constants(psl2z)
        assert constants.B_Y == pytest.approx(5.194, abs=5e-4)

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({**PSL2Z_DOC, "boundary": PSL2Z_DOC["boundary"][:3]},
             "segment 2: its end at 1j meets 0 "),
            ({**PSL2Z_DOC, "boundary": PSL2Z_DOC["boundary"] + PSL2Z_DOC["boundary"][1:2]},
             "meets 2 other ends"),
            ({**CLOSED_TORSION_DOC, "boundary": PSL2Z_DOC["boundary"]}, "has 2 unbounded rays"),
            ({"genus": 2, "boundary": [{"type": "arc", "center": 0.0, "radius": 1e200,
                                        "x_min": -1.0, "x_max": 1.0}]}, "overflows"),
        ],
        ids=["open_end", "three_ends_meet", "cocompact_rays", "overflowing_arc"],
    )
    def test_open_boundary_refused(self, doc, match):
        with pytest.raises(LoadError, match=match):
            load_domain(doc)

    @given(mutated_fixtures())
    @settings(max_examples=300, deadline=None)
    def test_mutated_fixture_raises_only_load_error(self, doc):
        try:
            load_domain(doc)
        except LoadError:
            pass

    def test_shipped_fixture_file(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "src" / "supnorm" / "data" / "psl2z.json"
        assert load_domain(path) == modular_group()


class TestCovolume:
    def test_modular_group(self, psl2z):
        assert covolume(psl2z) == pytest.approx(math.pi / 3.0, rel=1e-14)

    def test_genus_two(self, genus2_domain):
        assert covolume(genus2_domain) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_genus_one_cusp(self):
        d = load_domain({"genus": 1, "cusps": [[[1, 0], [0, 1]]]})
        assert covolume(d) == pytest.approx(2.0 * math.pi, rel=1e-15)


class TestDimension:
    @pytest.mark.parametrize(
        "k,expected",
        [(2, 0), (3, 0), (4, 0), (5, 0), (6, 1), (7, 0), (8, 1), (9, 1),
         (10, 1), (11, 1), (12, 2), (13, 1)],
    )
    def test_modular_group_weights(self, psl2z, k, expected):
        assert dimension_d2k(psl2z, k) == expected

    def test_genus_two(self, genus2_domain):
        assert dimension_d2k(genus2_domain, 2) == 3

    def test_weight_two_refused(self, psl2z):
        with pytest.raises(ValueError, match="k >= 2"):
            dimension_d2k(psl2z, 1)

    def test_volume_comparison_for_positive_genus(self, genus2_domain):
        d = load_domain({"genus": 1, "cusps": [[[1, 0], [0, 1]]]})
        for domain in (genus2_domain, d):
            vol = covolume(domain)
            for k in range(2, 20):
                assert dimension_d2k(domain, k) >= (k - 1) * vol / (2.0 * math.pi) - 1e-12


class TestTruncation:
    def test_modular_heights(self, psl2z):
        m_y, M_y = truncation_heights(psl2z, Y_STD)
        assert m_y == pytest.approx(ROOT3_HALF, rel=1e-15, abs=0.0)
        assert M_y == Y_STD

    @pytest.mark.parametrize("Y", [1.0, 1.5, 2.0, Y_STD, 10.0])
    def test_endpoints_match_dense_sampling(self, psl2z, Y):
        # Im is monotone or concave along each boundary geodesic, so no sampled
        # point may sit below the endpoint minimum, and the corners attain it.
        m_y, _ = truncation_heights(psl2z, Y)
        sampled = Y
        for seg in psl2z.boundary:
            if seg.kind == "vertical":
                ys = np.linspace(seg.y_min, min(seg.y_max, Y), 4096)
            else:
                xs = np.linspace(seg.x_min, seg.x_max, 4096)
                ys = np.sqrt(np.maximum(seg.radius**2 - (xs - seg.center) ** 2, 0.0))
            sampled = min(sampled, float(ys.min()))
        assert m_y <= sampled
        assert m_y == pytest.approx(sampled, rel=1e-15, abs=0.0)

    def test_empty_region_rejected(self, psl2z):
        # at Y = sqrt(3)/2 only the corners remain below the cut
        with pytest.raises(ValueError, match="empty"):
            truncation_heights(psl2z, ROOT3_HALF)
        with pytest.raises(ValueError, match="empty"):
            truncation_heights(psl2z, 0.5)

    def test_cocompact_rejected(self, genus2_domain):
        with pytest.raises(ValueError):
            truncation_heights(genus2_domain, Y_STD)


class TestSystole:
    def test_modular_group(self, psl2z):
        expected = 2.0 * math.acosh(1.5)
        assert shortest_geodesic_length(psl2z) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.9248473002384139, abs=1e-12)

    def test_parabolic_trace_rejected(self):
        d = load_domain({"genus": 2, "cusps": [], "min_hyperbolic_trace": 2.0})
        with pytest.raises(ValueError, match="hyperbolic"):
            shortest_geodesic_length(d)

    def test_intermediate_trace(self):
        d = load_domain({"genus": 2, "cusps": [], "min_hyperbolic_trace": 2.5})
        assert shortest_geodesic_length(d) == pytest.approx(2.0 * math.acosh(1.25), rel=1e-15)

    def test_missing_trace(self):
        d = load_domain({"genus": 2, "cusps": []})
        with pytest.raises(ValueError, match="systole"):
            shortest_geodesic_length(d)


class TestDiameter:
    def test_truncated_at_y(self, psl2z):
        expected = math.acosh(1.0 + (1.0 + (Y_STD - ROOT3_HALF) ** 2) / (2.0 * 0.75))
        assert diameter_upper_bound(psl2z, Y_STD) == pytest.approx(expected, abs=1e-5)
        assert expected == pytest.approx(2.8616956361331516, abs=1e-10)

    def test_truncated_at_two(self, psl2z):
        expected = math.acosh(1.0 + (1.0 + (2.0 - ROOT3_HALF) ** 2) / (2.0 * 0.75))
        assert diameter_upper_bound(psl2z, 2.0) == pytest.approx(expected, abs=1e-5)
        assert expected == pytest.approx(1.5771850970294625, abs=1e-10)

    @pytest.mark.parametrize("Y", [1.0, 1.5, 2.0, Y_STD, 16.0])
    def test_cusp_box_is_strip_times_heights(self, psl2z, Y):
        # the boundary box of a cusp at infinity is the strip times [m_Y, Y], bit for bit
        (x0, x1), (m_y, _) = psl2z.strip_bounds(), truncation_heights(psl2z, Y)
        expected = math.acosh(1.0 + ((x1 - x0) ** 2 + (Y - m_y) ** 2) / (2.0 * m_y * m_y))
        assert diameter_upper_bound(psl2z, Y) == expected

    def test_closed_torsion_boundary(self):
        # box [-1, 1] x [1/2, sqrt(10)]: the outer arc's top is the highest point
        d = load_domain(CLOSED_TORSION_DOC)
        expected = math.acosh(1.0 + (4.0 + (math.sqrt(10.0) - 0.5) ** 2) / (2.0 * 0.25))
        assert diameter_upper_bound(d, math.inf) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.835774692814, abs=1e-11)
        # 8 pi g / ell holds only without torsion, so the constants take this box
        constants = compute_constants(d)
        assert constants.diam_Y == diameter_upper_bound(d, math.inf)
        assert constants.C_gamma is None

    def test_arc_top_outside_its_range(self):
        # box [1, 3] x [2, sqrt(24)]: neither arc reaches the top of its circle
        d = load_domain(OFF_CENTER_DOC)
        expected = math.acosh(1.0 + (4.0 + (math.sqrt(24.0) - 2.0) ** 2) / (2.0 * 4.0))
        assert diameter_upper_bound(d, math.inf) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("doc", [CLOSED_TORSION_DOC, OFF_CENTER_DOC])
    def test_bound_exceeds_boundary_distances(self, doc):
        # distance from a point has no interior maximum, so the diameter is
        # attained on the boundary, and no two boundary points may exceed the bound
        d = load_domain(doc)
        zs = []
        for seg in d.boundary:
            if seg.kind == "vertical":
                zs += [complex(seg.foot, y) for y in np.linspace(seg.y_min, seg.y_max, 200)]
            else:
                xs = np.linspace(seg.x_min, seg.x_max, 200)
                ys = np.sqrt(np.maximum(seg.radius**2 - (xs - seg.center) ** 2, 0.0))
                zs += [complex(x, y) for x, y in zip(xs, ys)]
        z = np.array(zs)
        cosh = 1.0 + np.abs(z[:, None] - z[None, :]) ** 2 / (2.0 * np.outer(z.imag, z.imag))
        assert np.arccosh(cosh.max()) <= diameter_upper_bound(d, math.inf)

    def test_cocompact_without_data(self):
        d = load_domain({"genus": 1, "cusps": [], "elliptic": [
            {"x": 0.0, "y": 1.0, "order": 2, "is_class_rep": True}]})
        with pytest.raises(ValueError, match="has no boundary segments"):
            diameter_upper_bound(d, math.inf)


class TestVolumeRegion:
    def test_truncated_at_y(self, psl2z):
        exact = math.pi / 3.0 - math.sqrt(15.0) / 16.0
        assert volume_region(psl2z, Y_STD) == pytest.approx(exact, rel=1e-8)
        assert exact == pytest.approx(0.805136092058634, abs=1e-10)

    def test_truncated_at_two(self, psl2z):
        exact = math.pi / 3.0 - 0.5
        assert volume_region(psl2z, 2.0) == pytest.approx(exact, rel=1e-8)
        assert exact == pytest.approx(0.5471975511965976, abs=1e-10)

    def test_full_domain_matches_covolume(self, psl2z):
        # quadrature against the closed Gauss-Bonnet value
        assert volume_region(psl2z, math.inf) == pytest.approx(covolume(psl2z), rel=1e-6)

    def test_psl2z_region_from_boundary(self, psl2z):
        assert psl2z.has_region
        assert psl2z.strip_bounds() == (-0.5, 0.5)
        arcs = [seg for seg in psl2z.boundary if seg.kind == "arc"]
        assert len(arcs) == 2
        assert psl2z.disks() == tuple((seg.center, seg.radius) for seg in arcs)
        assert psl2z.disks() == ((0.0, 1.0), (0.0, 1.0))
        assert psl2z.contains(2j) and psl2z.contains(complex(-0.5, ROOT3_HALF))
        assert not psl2z.contains(0.9j) and not psl2z.contains(complex(0.6, 2.0))

    def test_cocompact_has_no_region(self, genus2_domain):
        # the engine takes a cocompact domain's volume from covolume
        with pytest.raises(ValueError, match="no region description"):
            volume_region(genus2_domain, math.inf)


def adaptive_volume(x0, x1, disks, Y):
    """Region volume by adaptive quadrature of 1/floor - 1/Y in x.

    The integrand has kinks where two arcs cross and where an arc crosses Y;
    without them among the breakpoints the quadrature can miss by percents.
    A cut within 1e-9 of the break before it or of x1 is dropped: a crossing
    found from both disks of a pair in two roundings, or a center 1e-306 off
    another, leaves a piece too thin for quad, which then warns of bad
    behavior.
    """

    def column(x):
        floor = max((math.sqrt(r * r - (x - c) ** 2) for c, r in disks if abs(x - c) < r),
                    default=0.0)
        return max(1.0 / floor - 1.0 / Y, 0.0)

    cuts = {v for c, r in disks for v in (c - r, c, c + r)}
    cuts |= {c + s * math.sqrt(r * r - Y * Y) for c, r in disks for s in (-1, 1)
             if r > Y}
    cuts |= {(r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1))
             for (c1, r1) in disks for (c2, r2) in disks if c1 != c2}
    breaks = [x0]
    for v in sorted(v for v in cuts if x0 < v < x1):
        if v - breaks[-1] > 1e-9 and x1 - v > 1e-9:
            breaks.append(v)
    breaks.append(x1)
    return sum(quad(column, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
               for lo, hi in zip(breaks[:-1], breaks[1:]))


@st.composite
def disk_regions(draw):
    """A strip covered by one to four excluded disks, and a cap height near one radius."""
    x0 = draw(st.floats(-1.0, 0.0))
    x1 = x0 + draw(st.floats(0.2, 1.5))
    disks = draw(st.lists(st.tuples(st.floats(x0 - 0.5, x1 + 0.5), st.floats(0.2, 2.0)),
                          min_size=1, max_size=4))
    # every abscissa of the strip lies 0.02 inside some disk, which keeps the
    # floor off zero and the quadrature off the 1/sqrt endpoint singularity
    reach = x0
    for lo, hi in sorted((c - r, c + r) for c, r in disks):
        if lo < reach - 0.02:
            reach = max(reach, hi)
    assume(reach > x1 + 0.02)
    radius = draw(st.sampled_from([r for _, r in disks]))
    Y = draw(st.sampled_from([math.inf, 0.7 * radius, radius, 1.3 * radius]))
    return x0, x1, disks, Y


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=60, deadline=None)
@given(disk_regions())
@example((-0.9100510347800284, 0.41817815956291415,
          [(0.2700081302300872, 1.25), (-0.9100510347800284, 0.4918769136532404),
           (-0.29144811229960643, 0.4918769136532404)], 0.4918769136532404))
@example((-0.3, 0.3, [(-1.85e-306, 0.6), (0.0, 0.6)], math.inf))
def test_volume_region_matches_adaptive_quadrature(case):
    x0, x1, disks, Y = case
    boundary = (GeodesicSegment.vertical(x0, 1.0), GeodesicSegment.vertical(x1, 1.0)) + tuple(
        GeodesicSegment.arc(c, r, c - r, c + r) for c, r in disks
    )
    domain = dataclasses.replace(modular_group(), boundary=boundary)
    want = adaptive_volume(x0, x1, disks, Y)
    if want <= 1e-12:
        with pytest.raises(ValueError, match="below the domain floor"):
            volume_region(domain, Y)
    else:
        assert volume_region(domain, Y) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_theta_gamma(psl2z, genus2_domain):
    assert psl2z.theta_gamma() == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)
    assert genus2_domain.theta_gamma() == math.pi


def test_elliptic_excess(psl2z):
    assert psl2z.elliptic_excess() == 5


def _keys_read_by_load_domain() -> set[str]:
    """String keys domain.py reads from a document: doc.get, doc[...] and _as_list(doc, ...)."""
    tree = ast.parse((ROOT / "src" / "supnorm" / "domain.py").read_text(encoding="utf-8"))

    def is_doc(node):
        return isinstance(node, ast.Name) and node.id == "doc"

    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_doc(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" and is_doc(func.value):
                key = node.args[0]
            elif isinstance(func, ast.Name) and func.id == "_as_list" and is_doc(node.args[0]):
                key = node.args[1]
            else:
                continue
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def test_documented_keys_cover_the_shipped_data():
    """README's domain bullets are the keys load_domain reads, and cover the packaged files."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Domain description files", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE))
    assert documented == _keys_read_by_load_domain()
    for path in sorted(DATA.glob("*.json")):
        assert set(json.loads(path.read_text())) <= documented, path.name
