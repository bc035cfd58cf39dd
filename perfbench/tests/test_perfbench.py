"""Self-tests of the benchmark: span arithmetic, output checks, input generators.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads as wl

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def span(id, name, thread, parent, start, end, cpu=0.0):
    return spans.Span(id, name, thread, parent, start, end, cpu)


class TestSpanArithmetic:
    def test_union_length(self):
        assert spans.union_length([]) == 0.0
        assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
        assert spans.union_length([(0, 10), (2, 3), (4, 5)]) == 10.0

    def test_self_time_counts_same_thread_children_only(self):
        trace = [
            span(0, "verify.verify_all", 1, None, 0.0, 10.0, cpu=2.0),
            span(1, "engine.compute_constants", 1, 0, 1.0, 4.0, cpu=3.0),
            span(2, "engine.mu_gamma", 1, 1, 2.0, 3.0, cpu=1.0),
            span(3, "cli.main", 1, 0, 5.0, 7.0, cpu=2.0),
            # A worker-thread root whose causal parent is verify_all.
            span(4, "forms.build_basis", 2, 0, 0.5, 9.5, cpu=8.0),
            span(5, "forms.evaluate_form", 2, 4, 1.0, 2.0, cpu=1.0),
        ]
        stats = spans.summarize(trace)
        assert stats["verify.verify_all"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0)
        assert stats["engine.compute_constants"]["self_s"] == pytest.approx(2.0)
        assert stats["engine.mu_gamma"]["self_s"] == pytest.approx(1.0)
        assert stats["forms.build_basis"]["self_s"] == pytest.approx(8.0)
        assert stats["verify.verify_all"]["wait_s"] == pytest.approx(8.0)
        assert stats["forms.build_basis"]["wait_s"] == pytest.approx(1.0)

        metrics = spans.layer_metrics(trace, [10.0])
        # Children of verify_all: compute_constants, cli.main and the worker root.
        assert metrics["verify.concurrency"] == pytest.approx((3.0 + 2.0 + 9.0) / 10.0)
        assert metrics["forms.share"] == pytest.approx(0.9)
        assert metrics["engine.compute_constants.calls"] == 1.0
        assert metrics["kernels.heat_kernel.calls"] == 0.0

    def test_tracer_wraps_and_restores(self, reference):
        from supnorm import enumeration

        original = enumeration.counting_check
        ball = wl.BallEnumeration(reference, ROOT)
        point = ball.strata[0][0]
        tracer = spans.Tracer()
        with spans.installed(tracer):
            assert enumeration.counting_check is not original
            ops = ball.run([[0, 0]])
        assert enumeration.counting_check is original
        assert all(op.ok for op in ops)
        names = [s.name for s in tracer.spans]
        assert names.count("enumeration.counting_check") == len(point["radii"])
        assert names.count("enumeration.poincare_direct") == 1
        # Every counting_check and the Poincare sum enumerate once each.
        assert names.count("enumeration.displacement_values") == len(point["radii"]) + 1
        by_id = {s.id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.name == "enumeration.displacement_values":
                assert by_id[s.parent].name in ("enumeration.counting_check",
                                                "enumeration.poincare_direct")


def report_text(lines, scale=None):
    """A report in the CLI's format whose first number is each recorded value."""
    out = []
    for line in lines:
        value = line.get("value", "ok")
        if scale and scale[0] == (line["name"], line.get("weight")):
            value *= scale[1]
        out.append(f"[PASS] {line['name']}: {value!r} (detail)")
    return "\n".join(out) + "\n"


class TestOutputChecks:
    def test_verify_report_passes_and_perturbed_norm_fails(self, reference):
        lines = reference["verify_battery"]["lines"]
        assert len(lines) == 33
        ops = wl.check_report(report_text(lines), 0, lines)
        assert all(op.ok for op in ops)
        ops = wl.check_report(report_text(lines, (("petersson_norm", 12), 1 + 1e-6)), 0, lines)
        assert [op.name for op in ops if not op.ok] == ["value petersson_norm"]
        ops = wl.check_report(report_text(lines), 1, lines)
        assert [op.name for op in ops if not op.ok] == ["cli exit code"]
        failing = report_text(lines).replace("[PASS] lower_bound", "[FAIL] lower_bound", 1)
        assert sum(not op.ok for op in wl.check_report(failing, 0, lines)) == 1

    def test_mass_outside_tolerance_fails(self, reference):
        lines = reference["verify_battery"]["lines"]
        ops = wl.check_report(report_text(lines, (("mass_identity", 20), 1 + 2e-4)), 0, lines)
        assert [op.name for op in ops if not op.ok] == ["value mass_identity"]

    def test_kernel_item_count(self, reference):
        lines = reference["kernel_grids"]["lines"]
        assert len(lines) == 7
        missing = report_text(lines[:-1])
        assert not all(op.ok for op in wl.check_report(missing, 0, lines))

    def test_ball_dropped_element_and_partial_drift_fail(self, reference):
        point = reference["ball_enumeration"]["strata"][1][3]
        counts = list(point["counts"])
        assert all(op.ok for op in wl.check_ball_point(point, point["partial"], counts))
        counts[-1] -= 1
        bad = [op for op in wl.check_ball_point(point, point["partial"], counts) if not op.ok]
        assert len(bad) == 1 and bad[0].name.startswith("ball count")
        drifted = point["partial"] * (1 + 1e-10)
        bad = [op for op in wl.check_ball_point(point, drifted, point["counts"]) if not op.ok]
        assert len(bad) == 1 and bad[0].name.startswith("poincare partial")
        assert not all(op.ok for op in wl.check_ball_point(point, None, point["counts"]))

    def test_ledger_tolerates_small_drift_only(self, reference):
        entry = reference["ledger_sweep"]["psl2z"][0]
        want = entry["bounds"]
        row = want[5].split(",")

        def with_upper(factor):
            cells = list(row)
            cells[2] = repr(float(cells[2]) * factor)
            return "\n".join(want[:5] + [",".join(cells)] + want[6:]) + "\n"

        rtol = reference["ledger_sweep"]["rtol"]
        assert wl.check_csv("\n".join(want) + "\n", want, "bounds", rtol).ok
        assert wl.check_csv(with_upper(1 + 1e-9), want, "bounds", rtol).ok
        assert not wl.check_csv(with_upper(1 + 1e-6), want, "bounds", rtol).ok
        assert not wl.check_csv("\n".join(want[:-1]) + "\n", want, "bounds", rtol).ok


class TestInputs:
    def test_ball_points_lie_in_truncated_region(self, reference):
        ref = reference["ball_enumeration"]
        Y = ref["Y"]
        tops = []
        for stratum in ref["strata"]:
            for point in stratum:
                x, y = point["z"]
                assert abs(x) <= 0.5
                assert math.hypot(x, y) >= 1.0 - 1e-12
                assert y <= Y
                assert all(1.0 <= r <= 30.0 for r in point["radii"])
            tops.append(max(p["z"][1] for p in stratum))
        assert tops == sorted(tops)

    def test_ball_jobs_take_one_point_per_stratum(self, reference):
        ball = wl.BallEnumeration(reference, ROOT)
        assert ball.constants.Y == reference["ball_enumeration"]["Y"]
        for job in itertools.islice(ball.inputs(np.random.default_rng(7)), 50):
            assert [s for s, _ in job] == list(range(len(ball.strata)))
            assert all(0 <= i < len(ball.strata[s]) for s, i in job)

    def test_ledger_y0_in_range(self, reference):
        sweep = wl.LedgerSweep(reference, ROOT)
        assert all(1.0 <= float(e["Y0"]) <= 8.0 for e in sweep.pool)
        for job in itertools.islice(sweep.inputs(np.random.default_rng(7)), 50):
            assert len(job) == sweep.sweep
            assert all(0 <= i < len(sweep.pool) for i in job)

    @pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
    def test_same_seed_same_inputs(self, reference, name):
        workload = wl.WORKLOADS[name](reference, ROOT)

        def first(seed):
            return list(itertools.islice(workload.inputs(np.random.default_rng(seed)), 5))

        assert first(3) == first(3)

    def test_verify_weights_are_a_permutation(self, reference):
        battery = wl.VerifyBattery(reference, ROOT)
        for job in itertools.islice(battery.inputs(np.random.default_rng(1)), 10):
            assert sorted(job) == list(wl.WEIGHTS)
