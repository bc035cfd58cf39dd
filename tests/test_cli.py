"""Tests for the command-line front end and its exit-status contract."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supnorm import cli, engine, kernels
from supnorm.cli import main
from supnorm.domain import modular_group
from supnorm.engine import BoundReport, BoundRow, run_algorithm

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "supnorm" / "data"
PSL2Z_DOC = json.loads((DATA / "psl2z.json").read_text())


#: Genus 2 with one order-7 point at i and no boundary segments.
TORSION_DOC = {"genus": 2, "cusps": [], "min_hyperbolic_trace": 3.0,
               "elliptic": [{"x": 0.0, "y": 1.0, "order": 7}]}
#: A boundary segment off the elliptic point, which makes mu_gamma finite.
TORSION_SEGMENT = {"type": "vertical", "x": 1.0, "y_min": 0.5, "y_max": 2.0}
#: A closed boundary around the point 2i: x = +-1 between |z| = sqrt(1.25) and sqrt(10).
CLOSED_BOUNDARY = [
    {"type": "vertical", "x": -1.0, "y_min": 0.5, "y_max": 3.0},
    {"type": "arc", "center": 0.0, "radius": math.sqrt(1.25), "x_min": -1.0, "x_max": 1.0},
    {"type": "vertical", "x": 1.0, "y_min": 0.5, "y_max": 3.0},
    {"type": "arc", "center": 0.0, "radius": math.sqrt(10.0), "x_min": -1.0, "x_max": 1.0},
]
#: One cusp at infinity with a single side: one ray at x = -0.5 and one arc.
ONE_RAY_DOC = {"genus": 1, "cusps": [[[1.0, 0.0], [0.0, 1.0]]], "min_hyperbolic_trace": 3.0,
               "boundary": [{"type": "vertical", "x": -0.5, "y_min": math.sqrt(1.21 - 0.25)},
                            {"type": "arc", "center": 0.0, "radius": 1.1,
                             "x_min": -0.5, "x_max": 0.5}]}
#: The scaling matrix of a cusp at infinity.
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
#: |x| <= 1 outside |z + 1| = 1 and |z - 1| = 1, area pi as three order-2 points ask,
#: but the arcs meet at 0 on the real axis.
REAL_AXIS_DOC = {
    "genus": 0, "cusps": [IDENTITY], "min_hyperbolic_trace": 3.0,
    "elliptic": [{"x": x, "y": y, "order": 2} for x, y in ((-0.5, 0.9), (0.0, 1.5), (0.5, 0.9))],
    "boundary": [
        {"type": "vertical", "x": -1.0, "y_min": 1.0},
        {"type": "arc", "center": -1.0, "radius": 1.0, "x_min": -1.0, "x_max": 0.0},
        {"type": "arc", "center": 1.0, "radius": 1.0, "x_min": 0.0, "x_max": 1.0},
        {"type": "vertical", "x": 1.0, "y_min": 1.0},
    ],
}
#: psl2z's elliptic points with the order-3 pair relabelled order 4: covolume pi/2, area pi/3.
ORDER_FOUR_ELLIPTIC = [
    {**e, "order": 4} if e["order"] == 3 else e for e in PSL2Z_DOC["elliptic"]
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, out, err):
    """Exit 2 with a one-line message and no traceback."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestConstants:
    def test_default_domain_csv(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,value,step"
        table = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
        assert float(table["ell_gamma"]) == pytest.approx(1.9248473, abs=1e-6)
        assert float(table["B_Y"]) == pytest.approx(5.194455, abs=1e-4)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "constants", "--domain", "/nonexistent/file.json")
        assert code == 2
        assert "error" in err

    def test_cocompact_marks_cusp_fields_absent(self, capsys):
        code, out, _ = run(capsys, "constants", "--domain", str(DATA / "genus2_cocompact.json"))
        assert code == 0
        table = {row.split(",")[0]: row.split(",")[1] for row in out.strip().split("\n")[1:]}
        assert table["m_Y"] == "absent"
        assert table["B_Y0"] == "absent"
        assert float(table["delta_gamma"]) == pytest.approx(0.405465, abs=1e-6)

    @pytest.mark.parametrize("y0", ["inf", "nan", "-1", "1e200"])
    def test_invalid_y0(self, capsys, y0):
        assert_input_error(*run(capsys, "constants", "--Y0", y0))

    @pytest.mark.parametrize("command", ["constants", "bounds", "verify"])
    def test_overflowing_y0_message(self, capsys, command):
        # a plain statement, not the errno tuple of the float OverflowError
        code, out, err = run(capsys, command, "--Y0", "1e200")
        assert_input_error(code, out, err)
        assert "(34," not in err
        assert "overflows the float range" in err and "Y0" in err

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            {**PSL2Z_DOC, "cusps": 5},
            {**PSL2Z_DOC, "boundary": [5]},
            {**PSL2Z_DOC, "elliptic": [5]},
            {**PSL2Z_DOC, "elliptic": {"x": 1}},
        ],
        ids=["top_level_number", "cusps_number", "boundary_item", "elliptic_item",
             "elliptic_object"],
    )
    def test_malformed_domain_document(self, capsys, tmp_path, doc):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        assert_input_error(*run(capsys, "constants", "--domain", str(path)))

    @pytest.mark.parametrize("command", ["constants", "bounds"])
    @pytest.mark.parametrize(
        "doc,step",
        [
            ({"genus": 1000, "cusps": [], "min_hyperbolic_trace": 3.0}, 8),
            ({"genus": 3, "cusps": [], "min_hyperbolic_trace": 2.0000001}, 8),
            ({"genus": 2, "cusps": [], "min_hyperbolic_trace": 1e300}, 5),
        ],
        ids=["large_genus", "short_systole", "long_systole"],
    )
    def test_cocompact_overflow(self, capsys, tmp_path, doc, step, command):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--domain", str(path))
        assert_input_error(code, out, err)
        assert err.startswith(f"error: step {step} ")

    @pytest.mark.parametrize("command", ["constants", "bounds"])
    def test_torsion_without_boundary_refused(self, capsys, tmp_path, command):
        # the infinite mu_gamma would drop the order-7 point's elliptic branch
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(TORSION_DOC))
        code, out, err = run(capsys, command, "--domain", str(path))
        assert_input_error(code, out, err)
        assert err.startswith("error: step 4 (elliptic distance): ")

    @pytest.mark.parametrize("command", ["constants", "bounds"])
    def test_torsion_needs_closed_boundary(self, capsys, tmp_path, command):
        # 8 pi g / ell bounds the diameter only without torsion; the boundary box does
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({**TORSION_DOC, "boundary": [TORSION_SEGMENT]}))
        code, out, err = run(capsys, command, "--domain", str(path))
        assert_input_error(code, out, err)
        assert "the boundary does not close up" in err

        point = {"x": 0.0, "y": 2.0, "order": 7}
        path.write_text(json.dumps({**TORSION_DOC, "elliptic": [point],
                                    "boundary": CLOSED_BOUNDARY}))
        assert run(capsys, command, "--domain", str(path))[0] == 0

    @pytest.mark.parametrize("command", ["constants", "bounds"])
    def test_single_ray_refused_at_load(self, capsys, tmp_path, command):
        # a cusp at infinity has two sides; one ray gave a zero-width strip
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(ONE_RAY_DOC))
        code, out, err = run(capsys, command, "--domain", str(path))
        assert_input_error(code, out, err)
        assert "has 1 unbounded rays" in err and "step" not in err

    @pytest.mark.parametrize("command", ["constants", "bounds"])
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({**PSL2Z_DOC, "cusps": [[[0, -1], [1, 0]]]}, "error: cusp 1: scaling matrix"),
            ({**PSL2Z_DOC, "cusps": [IDENTITY, IDENTITY]}, "error: cusp 2: "),
            ({**PSL2Z_DOC, "genus": 1}, "does not match the Gauss-Bonnet covolume"),
            ({**PSL2Z_DOC, "elliptic": ORDER_FOUR_ELLIPTIC},
             "does not match the Gauss-Bonnet covolume"),
            (REAL_AXIS_DOC, "error: boundary segment 2: its end at 0j lies on the real axis"),
        ],
        ids=["inversion_cusp", "two_cusps", "genus_one", "order_four", "real_axis"],
    )
    def test_cusp_and_signature_refused_at_load(self, capsys, tmp_path, command, doc, message):
        # refused by load_domain, so no pipeline step runs
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--domain", str(path))
        assert_input_error(code, out, err)
        assert message in err and "step" not in err

    def test_cusp_without_region_refused_as_such(self, capsys, tmp_path):
        # no boundary rays, so no region: said so, not as an m_Y out of range
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({"genus": 1, "cusps": [IDENTITY],
                                    "min_hyperbolic_trace": 3.0}))
        code, out, err = run(capsys, "constants", "--domain", str(path))
        assert_input_error(code, out, err)
        assert err.startswith("error: step 3 (truncation heights): ")
        assert "has no region description" in err and "m_Y" not in err

    @pytest.mark.parametrize(
        "argv",
        [("constants",), ("constants", "--format", "json"),
         ("bounds", "--k-max", "60"), ("bounds", "--k-max", "60", "--format", "json")],
        ids=["constants_csv", "constants_json", "bounds_csv", "bounds_json"],
    )
    def test_negated_identity_cusp_matches_builtin(self, capsys, tmp_path, argv):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({**PSL2Z_DOC, "cusps": [[[-1, 0], [0, -1]]]}))
        code, out, err = run(capsys, *argv, "--domain", str(path))
        assert (code, err) == (0, "")
        assert out == run(capsys, *argv)[1]

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "constants.json"
        code, _, _ = run(capsys, "constants", "--format", "json", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["constants"]["sigma_Y"] == pytest.approx(1.0146484375)


class TestBounds:
    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "bounds", "--k-min", "2", "--k-max", "40",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.json"
        code, _, _ = run(capsys, "bounds", "--format", "json", "--k-min", "2",
                         "--k-max", "30", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        report = BoundReport(**{**doc, "rows": tuple(BoundRow(**r) for r in doc["rows"])})
        assert report == run_algorithm(modular_group(), Y0=2.0, k_min=2, k_max=30)[1]
        sources = {r.source for r in report.rows}
        assert sources == {"compact_poincare", "cusp_max_principle", "cusp_faddeev_tail"}

    def test_single_row_range(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k-min", "2", "--k-max", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3  # header + compact + cusp zone

    def test_inverted_weight_range(self, capsys):
        assert_input_error(*run(capsys, "bounds", "--k-min", "5", "--k-max", "3"))

    def test_plot_files(self, capsys, tmp_path):
        prefix = tmp_path / "curve"
        code, _, _ = run(capsys, "bounds", "--k-min", "2", "--k-max", "5",
                         "--plot-prefix", str(prefix))
        assert code == 0
        made = sorted(p.name for p in tmp_path.glob("curve_*.csv"))
        assert made == ["curve_F_1Y.csv", "curve_F_Y.csv"]
        lines = (tmp_path / "curve_F_Y.csv").read_text().strip().split("\n")
        assert lines[0] == "k,bound"
        assert len(lines) == 5

    def test_cocompact_curve(self, capsys):
        code, out, _ = run(capsys, "bounds", "--domain", str(DATA / "genus2_cocompact.json"),
                           "--k-min", "2", "--k-max", "10")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        uppers = [float(r.split(",")[2]) for r in rows]
        ks = [int(r.split(",")[0]) for r in rows]
        for k, upper in zip(ks, uppers):
            assert upper > (2 * k - 1) / (4 * math.pi)


class TestVerify:
    def test_bad_weight_exit_code(self, capsys):
        code, _, err = run(capsys, "verify", "--weights", "14")
        assert code == 2

    def test_non_integer_weight(self, capsys):
        assert_input_error(*run(capsys, "verify", "--weights", "12,abc"))

    def test_infinite_y0(self, capsys):
        assert_input_error(*run(capsys, "verify", "--Y0", "inf"))

    def test_huge_y0_reports_its_verdict(self, capsys):
        # heights up to Y = 2e9 reach the counting check, whose translation
        # row there holds about 1e10 elements; it is counted in closed form
        code, out, err = run(capsys, "verify", "--Y0", "1e9", "--weights", "12", "--grid", "10")
        assert code == 1
        assert err == ""
        assert "[PASS] counting_bound" in out
        assert "[FAIL] upper_bound_reference" in out
        assert out.rstrip().endswith("overall: FAIL (8 checks)")

    @pytest.mark.parametrize(
        "exc,message",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                         "(1000000, 1000000) and data type float64"),
             "error: Unable to allocate 7.28 TiB"),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_input_too_large_for_memory(self, capsys, monkeypatch, exc, message):
        # stands in for a grid too large to allocate; no test allocates one
        def exhausted(**_):
            raise exc

        monkeypatch.setattr("supnorm.cli.verify_all", exhausted)
        code, out, err = run(capsys, "verify", "--weights", "12", "--grid", "1000000")
        assert_input_error(code, out, err)
        assert err.startswith(message)

    @pytest.mark.parametrize(
        "option", [["--format", "json"], ["--domain", str(DATA / "psl2z.json")]],
        ids=["format", "domain"],
    )
    def test_no_format_option(self, capsys, option):
        # verify runs on the built-in modular group only and writes no tables
        with pytest.raises(SystemExit) as exc:
            main(["verify", *option])
        assert exc.value.code == 2

    def test_small_verify_run(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", "--weights", "12", "--grid", "40",
                           "--out", str(out_path))
        assert code == 0
        assert "overall: PASS" in out
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True


class TestParserOnce:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_in_one_process_match_fresh_processes(self, capsys):
        # the shared parser carries nothing from one call to the next
        argvs = [["constants"], ["bounds", "--k-max", "12"], ["constants"]]
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            alone = subprocess.run([sys.executable, "-m", "supnorm.cli", *argv],
                                   capture_output=True, text=True, check=True,
                                   env=dict(os.environ, PYTHONPATH=path))
            assert (code, out, err) == (0, alone.stdout, alone.stderr)

    def test_bad_argument_after_a_good_call(self, capsys, monkeypatch):
        # argparse wraps its usage line to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "constants")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "",
            "usage: supnorm verify [-h] [--Y0 Y0] [--out PATH] [--grid GRID]\n"
            "                      [--weights WEIGHTS]\n"
            "supnorm verify: error: argument --grid: invalid int value: 'x'\n",
        )


class TestKernelCheck:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "kernel-check")
        assert code == 0
        assert "[PASS] heat_resolvent_transform" in out

    def test_absurd_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(kernels, "_TRANSFORM_TOL", 1e-16)
        code, out, _ = run(capsys, "kernel-check")
        assert code == 4
        assert "[FAIL] heat_resolvent_transform" in out

    @pytest.mark.parametrize("tol", ["1e-3", "nan", "-1", "0", "inf"])
    def test_no_transform_tol_option(self, capsys, tol):
        # the transform tolerance is fixed; the option is an unknown argument
        with pytest.raises(SystemExit) as exc:
            main(["kernel-check", "--transform-tol", tol])
        assert exc.value.code == 2

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_invalid_k_max(self, capsys, k_max):
        assert_input_error(*run(capsys, "kernel-check", f"--k-max={k_max}"))

    def test_stirling_violation_is_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(kernels, "gamma_ratio_bound",
                            lambda Z: engine.GammaRatio(ratio=2.0, bound=1.0))
        code, out, _ = run(capsys, "kernel-check", "--k-max", "2")
        assert code == 4
        assert "[FAIL] stirling_ratio_bound" in out

    def test_accuracy_error_is_one_line_exit_4(self, capsys, monkeypatch):
        # the transform estimate for (1, 2.0, 2.0) is about 3e-8 relative
        monkeypatch.setattr(kernels, "_TRANSFORM_REL_TARGET", 1e-12)
        code, out, err = run(capsys, "kernel-check")
        assert code == 4
        assert out == ""
        assert err.startswith("error: heat-to-resolvent transform") and err.count("\n") == 1
        assert "Traceback" not in err


#: `kernel-check --k-max 50` standard output, as the five-quiet-panel stop
#: rule printed it; every gap and ratio is pinned to its last printed digit.
KERNEL_CHECK_50 = [
    "[PASS] chebyshev_exp_bound: max T/e^(kr) ratio 1 over k in [1, 2, 3, 6, 50], r in [0,10]",
    "[PASS] stirling_ratio_bound: max ratio/bound 0.507817 on Z grid, n=8",
    "[PASS] difference_kernel_dual_route: max relative gap 5.788e-15 (tolerance 1e-06)",
    "[PASS] difference_kernel_decay_bound: max value/bound 0.160168 on the (k, eps, sigma) grid",
    "[PASS] integrated_exponential_bound: max lhs/bound 0.629726 on the (k, eps, sigma) grid",
    "[PASS] heat_kernel_monotone: nonincreasing in rho on the sample grid",
    "[PASS] heat_resolvent_transform: max relative gap 2.008e-11 over 3 triples "
    "(tolerance 0.0001)",
]


def test_kernel_check_k_max_50_output_pinned(capsys, tmp_path):
    out_path = tmp_path / "kernels.json"
    code, out, err = run(capsys, "kernel-check", "--k-max", "50", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in KERNEL_CHECK_50)
    rows = [re.fullmatch(r"\[PASS\] (\w+): (.*)", line).groups() for line in KERNEL_CHECK_50]
    expected = [{"name": name, "passed": True, "detail": detail} for name, detail in rows]
    assert out_path.read_text() == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--out"],
        ["bounds", "--k-max", "4", "--out"],
        ["bounds", "--k-max", "4", "--plot-prefix"],
        ["verify", "--grid", "10", "--out"],
        ["kernel-check", "--k-max", "2", "--out"],
    ],
    ids=["constants", "bounds", "bounds_plot_prefix", "verify", "kernel_check"],
)
def test_unwritable_output_path(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "out"))
    assert code == 2
    if "--out" in argv:
        assert out == ""  # the path fails before any work is reported
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


EARLIER_REPORT = b'{"passed": true, "items": []}\n'


@pytest.mark.parametrize(
    "argv",
    [["verify", "--weights", "7"], ["kernel-check", "--k-max", "0"],
     ["bounds", "--k-max", "4", "--plot-prefix", "{tmp}/missing/plot"]],
    ids=["verify", "kernel_check", "bounds_plot_prefix"],
)
def test_failed_run_keeps_existing_output(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    path.write_bytes(EARLIER_REPORT)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert_input_error(*run(capsys, *argv, "--out", str(path)))
    assert path.read_bytes() == EARLIER_REPORT
    fresh = tmp_path / "fresh.json"
    assert_input_error(*run(capsys, *argv, "--out", str(fresh)))
    assert not fresh.exists()


def test_accuracy_error_keeps_existing_output(capsys, monkeypatch, tmp_path):
    # kernel-check maps its accuracy error after --out is closed and, if new, removed
    monkeypatch.setattr(kernels, "_TRANSFORM_REL_TARGET", 1e-12)
    path = tmp_path / "report.json"
    path.write_bytes(EARLIER_REPORT)
    fresh = tmp_path / "fresh.json"
    for out_path in (path, fresh):
        code, out, err = run(capsys, "kernel-check", "--k-max", "2", "--out", str(out_path))
        assert (code, out) == (4, "")
        assert err.startswith("error: heat-to-resolvent transform") and err.count("\n") == 1
    assert path.read_bytes() == EARLIER_REPORT
    assert not fresh.exists()


def test_finished_run_replaces_existing_output(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(EARLIER_REPORT * 1000)
    code, out, _ = run(capsys, "kernel-check", "--k-max", "2", "--out", str(path))
    assert code == 0
    assert len(json.loads(path.read_text())) == len(out.splitlines())


def _documented_exit_codes(text: str, code_pattern: str) -> set[int]:
    paragraph = text.split("Exit status:", 1)[1].split("\n\n", 1)[0]
    return {int(code) for code in re.findall(code_pattern, paragraph)}


def test_documented_exit_codes_match_the_constants():
    """README and the cli docstring list exactly the EXIT_* codes, none removed or added."""
    codes = {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _documented_exit_codes(readme, r"`(\d+)` [a-z]") == codes
    assert _documented_exit_codes(cli.__doc__, r"\b(\d+) [a-z]") == codes


def test_json_key_order(capsys, tmp_path):
    """Key order of every JSON document, as the hand-written serializers had it."""
    ledger_keys = [
        "domain_name", "genus", "n_cusps", "covolume", "elliptic_excess", "ell_gamma",
        "theta_gamma", "mu_gamma", "sigma_Y", "sigma_branches", "Y0", "Y", "m_Y", "M_Y",
        "diam_Y", "diam_Y0", "vol_Y", "vol_Y0", "B_Y", "B_Y0", "C_gamma", "delta_gamma",
    ]
    for extra in ([], ["--domain", str(DATA / "genus2_cocompact.json")]):
        code, out, _ = run(capsys, "constants", "--format", "json", *extra)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["domain", "constants", "ledger"]
        assert list(doc["constants"]) == ledger_keys
        branches = list(doc["constants"]["sigma_branches"])
        assert branches == sorted(branches)
        assert all(list(row) == ["name", "value", "step"] for row in doc["ledger"])
    assert doc["constants"]["mu_gamma"] is None

    code, out, _ = run(capsys, "bounds", "--k-max", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["domain_name", "Y0", "Y", "rows"]
    assert all(list(r) == ["k", "region", "upper", "lower", "source"] for r in doc["rows"])

    out_path = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--weights", "12", "--grid", "20", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert list(doc) == ["passed", "items"]
    assert all(list(i) == ["name", "passed", "detail", "weight"] for i in doc["items"])

    out_path = tmp_path / "kernels.json"
    code, _, _ = run(capsys, "kernel-check", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert all(list(r) == ["name", "passed", "detail"] for r in doc)
