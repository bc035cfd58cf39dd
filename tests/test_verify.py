"""Tests for the verification orchestration layer."""

import json
import math

import pytest

from supnorm import verify
from supnorm.domain import modular_group
from supnorm.engine import compute_constants
from supnorm.forms import SUPPORTED_WEIGHTS, standard_grid
from supnorm.verify import (
    VerificationItem,
    VerificationReport,
    rounded_modular_bound,
    verify_all,
)


def test_empty_weight_list_passes():
    report = verify_all(weights=())
    assert report.items == ()
    assert report.passed


def test_unknown_weight():
    with pytest.raises(ValueError, match="unsupported weight"):
        verify_all(weights=(14,))


def test_rounded_bound_weight_twelve():
    import math

    expected = 31 * 11 / (4 * math.pi) + 72 * 11 * 1.014**-4
    assert rounded_modular_bound(6) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(776.2938, abs=1e-3)


@pytest.fixture(scope="module")
def weight12_report():
    return verify_all(weights=(12,), grid_size=60)


def test_weight12_passes(weight12_report):
    assert weight12_report.passed, weight12_report.to_text()


def test_repeated_weight_runs_once(weight12_report):
    twice = verify_all(weights=(12, 12), grid_size=60)
    assert twice == weight12_report
    assert len(twice.items) == 8


def test_item_inventory(weight12_report):
    names = {(i.name, i.weight) for i in weight12_report.items}
    assert ("counting_bound", None) in names
    assert ("poincare_series_bound[k=2]", None) in names
    assert ("translation_sum_bound[k=26]", None) in names
    for check in ("petersson_norm", "mass_identity", "upper_bound",
                  "upper_bound_reference", "lower_bound"):
        assert (check, 12) in names


def test_branch_is_labeled(weight12_report):
    upper = [i for i in weight12_report.items if i.name == "upper_bound"][0]
    assert "inherits the compact bound" in upper.detail


def test_json_round_trip(weight12_report):
    doc = json.loads(json.dumps(weight12_report.to_json_dict()))
    again = VerificationReport(items=tuple(VerificationItem(**i) for i in doc["items"]))
    assert again == weight12_report
    assert doc["passed"] is True


def test_all_supported_weights():
    report = verify_all(weights=(12, 16, 18, 20, 22, 26), grid_size=50)
    assert report.passed, report.to_text()
    per_weight = [i for i in report.items if i.weight is not None]
    assert len(per_weight) == 6 * 5
    # weight 26 means k = 13, still below the branch threshold 2*pi*Y
    w26 = [i for i in report.items if i.weight == 26 and i.name == "upper_bound"][0]
    assert "inherits the compact bound" in w26.detail


def test_one_grid_per_call(monkeypatch):
    # every weight reads the same grid and q, built once per call; a count,
    # so no timing is needed
    calls = []
    inner = verify.standard_grid

    def counting(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(verify, "standard_grid", counting)
    assert verify_all(weights=SUPPORTED_WEIGHTS, grid_size=100).passed
    assert calls == [13]


@pytest.mark.parametrize("Y0", [0.87, 2.0, 3.0, 10.0])
def test_one_grid_fits_every_weight(Y0):
    # the engine's Y keeps every supported weight's cusp band line, added
    # for Y < k/(2 pi) with k <= 13, out of the grid
    Y = compute_constants(modular_group(), Y0).Y
    assert Y >= 16 / math.sqrt(15)
    assert max(SUPPORTED_WEIGHTS) // 2 / (2 * math.pi) < 16 / math.sqrt(15)
    assert len(standard_grid(100, 16 / math.sqrt(15), 13).points) == 10_000
