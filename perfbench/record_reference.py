"""Record the reference values that the benchmark's checks compare against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It draws the ball_enumeration points and the ledger_sweep Y0 values from a
fixed seed, runs the library once on each input, and writes
``perfbench/reference.json`` with a tolerance next to every value.  A job
input in a benchmark run is a seeded pick from these recorded inputs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from supnorm import engine, enumeration  # noqa: E402
from supnorm.domain import modular_group  # noqa: E402

import workloads as wl  # noqa: E402
from run import git_sha  # noqa: E402

MASTER_SEED = 20261017
BALL_Y0 = 2.0
STRATA = 4
POINTS_PER_STRATUM = 12
RADII_PER_POINT = 8
R_CUT = 1e4
K, EPS = 2, 0.1
Y0_POOL = 16
#: Ledger and bound values carry 12 significant digits; 1e-7 leaves room for
#: the ~1e-9 drift an exact m_Y introduces while catching any real change.
LEDGER_RTOL = 1e-7

#: <Delta, Delta> for the discriminant form (weight 12), classical value.
DELTA_NORM = 1.0353620568e-6
#: Values printed with 6 significant digits may differ by one unit in the last.
SIX_DIGITS = 2e-5

VERIFY_RULES = {
    "poincare_series_bound[k=2]": {"rtol": SIX_DIGITS},
    "translation_sum_bound[k=26]": {"rtol": SIX_DIGITS},
    "petersson_norm": {"rtol": 1e-8},
    "mass_identity": {"value": 1.0, "atol": 1e-4},
    "upper_bound": {"rtol": SIX_DIGITS},
}
#: The dual-route and transform gaps measure quadrature error, which a change
#: of quadrature may move legitimately; only their verdicts are checked.
KERNEL_RULES = {
    "chebyshev_exp_bound": {"rtol": SIX_DIGITS},
    "stirling_ratio_bound": {"rtol": SIX_DIGITS},
    "difference_kernel_decay_bound": {"rtol": SIX_DIGITS},
    "integrated_exponential_bound": {"rtol": SIX_DIGITS},
}


def report_lines(text: str, rules: dict, weights=()) -> list[dict]:
    lines = []
    items = wl.report_items(text)
    n_global = len(items) - 5 * len(weights)
    for i, (status, name, detail) in enumerate(items):
        if status != "PASS":
            raise SystemExit(f"refusing to record a failing item: {name}: {detail}")
        line = {"name": name}
        if i >= n_global:
            line["weight"] = sorted(weights)[(i - n_global) // 5]
        rule = dict(rules.get(name, {}))
        if rule:
            rule.setdefault("value", wl.first_number(detail))
        if name == "petersson_norm" and line["weight"] == 12:
            rule = {"value": DELTA_NORM, "rtol": 1e-9, "source": "classical <Delta, Delta>"}
        lines.append({**line, **rule})
    return lines


def cli_text(argv) -> str:
    code, text = wl.call_cli(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}:\n{text}")
    return text


def csv_lines(argv) -> list[str]:
    return cli_text(argv).splitlines()


def ball_strata(rng, constants) -> list[list[dict]]:
    """Points of F_Y, log-uniform in height between the floor and Y as in
    verify's counting item, split into equal strata of log-height."""
    strata = []
    for s in range(STRATA):
        points = []
        for _ in range(POINTS_PER_STRATUM):
            x = float(rng.uniform(-0.5, 0.5))
            y_low = math.sqrt(1.0 - x * x)
            u = rng.uniform(s / STRATA, (s + 1) / STRATA)
            y = float(y_low * math.exp(u * math.log(constants.Y / y_low)))
            radii = sorted(float(math.exp(v)) for v in rng.uniform(0.0, math.log(30.0),
                                                                    RADII_PER_POINT))
            z = complex(x, y)
            partial = enumeration.poincare_direct(z, K, EPS, R_CUT, constants).partial
            counts = [enumeration.counting_check(z, r, constants).count for r in radii]
            points.append({"z": [x, y], "partial": partial, "radii": radii, "counts": counts})
        strata.append(points)
    return strata


def main() -> None:
    rng = np.random.default_rng(MASTER_SEED)
    sha = git_sha()

    text = cli_text(wl.verify_argv(wl.WEIGHTS))
    verify = {"argv": wl.verify_argv(wl.WEIGHTS),
              "lines": report_lines(text, VERIFY_RULES, wl.WEIGHTS)}

    text = cli_text(wl.KERNEL_ARGV)
    kernel = {"argv": list(wl.KERNEL_ARGV), "lines": report_lines(text, KERNEL_RULES)}

    constants = engine.compute_constants(modular_group(), BALL_Y0)
    ball = {"Y0": BALL_Y0, "Y": constants.Y, "k": K, "eps": EPS, "R_cut": R_CUT,
            "strata": ball_strata(rng, constants)}

    fixture = str(ROOT / wl.GENUS2_FIXTURE)
    pool = []
    for _ in range(Y0_POOL):
        y0 = f"{rng.uniform(1.0, 8.0):.6f}"
        pool.append({"Y0": y0,
                     "constants": csv_lines(["constants", "--Y0", y0]),
                     "bounds": csv_lines(["bounds", *wl.BOUNDS_ARGS, "--Y0", y0])})
    ledger = {"rtol": LEDGER_RTOL, "psl2z": pool,
              "genus2": {"constants": csv_lines(["constants", "--domain", fixture]),
                         "bounds": csv_lines(["bounds", *wl.BOUNDS_ARGS, "--domain", fixture])}}

    reference = {"recorded_at": sha, "master_seed": MASTER_SEED,
                 "verify_battery": verify, "kernel_grids": kernel,
                 "ball_enumeration": ball, "ledger_sweep": ledger}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
