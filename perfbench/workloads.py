"""The benchmark's four workloads: seeded job inputs, one job, and its checks.

Each workload turns a seeded generator into an endless stream of job inputs
and runs one job at a time (a closed loop with one client).  A job returns a
list of operations, each passed or failed; the checks compare the library's
outputs against values recorded at the seed commit (``reference.json``),
each with the tolerance stored next to it.

Workloads and why they were chosen:

- ``verify_battery``: the README's six-weight ``verify`` command, the verdict
  users run.  ``forms.build_basis`` is nearly all of it.
- ``ball_enumeration``: ``poincare_direct`` and ``counting_check`` at seeded
  points of the truncated region, one point per height stratum, so both the
  per-coset overhead (low points) and the per-element work (high points) of
  the enumeration show.  ``forms`` does no work here.
- ``kernel_grids``: ``kernel-check --k-max 50``, the only workload that runs
  the kernel quadratures.
- ``ledger_sweep``: ``constants`` and ``bounds`` for seeded Y0 on the
  modular group plus the genus-2 cocompact fixture; the constants pipeline
  (engine, domain, geometry) and CLI formatting with no heavy numerics.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path
from typing import NamedTuple

from supnorm import cli, engine, enumeration
from supnorm.domain import modular_group

WEIGHTS = (12, 16, 18, 20, 22, 26)
KERNEL_ARGV = ("kernel-check", "--k-max", "50")
BOUNDS_ARGS = ("--k-min", "2", "--k-max", "60")
GENUS2_FIXTURE = Path("src", "supnorm", "data", "genus2_cocompact.json")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_ITEM = re.compile(r"^\[(PASS|FAIL)\] ([^:]+): (.*)$")


class Op(NamedTuple):
    """One checked operation of a job."""

    name: str
    ok: bool
    detail: str = ""


def call_cli(argv) -> tuple[int, str]:
    """Run ``supnorm.cli.main`` in-process and capture what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def close(got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return got == want or abs(got - want) <= atol + rtol * abs(want)


def first_number(text: str) -> float | None:
    match = _NUMBER.search(text)
    return float(match.group()) if match else None


def report_items(text: str) -> list[tuple[str, str, str]]:
    """(status, name, detail) of each ``[PASS] name: detail`` line of a CLI report."""
    return [m.groups() for m in map(_ITEM.match, text.splitlines()) if m]


def check_report(text: str, code: int, lines: list[dict]) -> list[Op]:
    """Check a report and its exit code (0) against its recorded lines.

    Each recorded line has a ``name`` and optionally a ``value`` with
    ``rtol``/``atol``, compared against the first number of the detail.
    """
    ops = [Op("cli exit code", code == 0, f"got {code}")]
    items = report_items(text)
    names = [name for _, name, _ in items]
    want_names = [line["name"] for line in lines]
    ops.append(Op("item names", names == want_names, f"{len(names)} items, want {len(want_names)}"))
    for (status, name, detail), line in zip(items, lines):
        ops.append(Op(f"verdict {name}", status == "PASS", detail))
        if "value" in line:
            got = first_number(detail)
            ok = got is not None and close(got, line["value"], line.get("rtol", 0.0),
                                           line.get("atol", 0.0))
            ops.append(Op(f"value {name}", ok, f"got {got}, want {line['value']}"))
    return ops


def check_csv(got: str, want_lines: list[str], what: str, rtol: float) -> Op:
    """One CSV output against its record: numbers within rtol, other cells equal."""
    got_lines = got.splitlines()
    if len(got_lines) != len(want_lines):
        return Op(what, False, f"{len(got_lines)} rows, want {len(want_lines)}")
    for got_row, want_row in zip(got_lines, want_lines):
        if not _row_matches(got_row, want_row, rtol):
            return Op(what, False, f"{got_row!r}, want {want_row!r}")
    return Op(what, True)


def _row_matches(got_row: str, want_row: str, rtol: float) -> bool:
    got_cells, want_cells = got_row.split(","), want_row.split(",")
    if len(got_cells) != len(want_cells):
        return False
    for g, w in zip(got_cells, want_cells):
        try:
            gf, wf = float(g), float(w)
        except ValueError:
            if g != w:
                return False
            continue
        if not close(gf, wf, rtol):
            return False
    return True


def check_ball_point(point: dict, partial: float | None, counts: list[int | None]) -> list[Op]:
    """Compare one point's Poincare partial sum and ball counts with the record.

    ``None`` stands for a check that raised VerificationFailure.
    """
    where = f"z={point['z']}"
    ops = [Op(f"poincare_direct {where}", partial is not None)]
    if partial is not None:
        ops.append(Op(f"poincare partial {where}", close(partial, point["partial"], 1e-12),
                      f"got {partial!r}, want {point['partial']!r}"))
    for r, want, got in zip(point["radii"], point["counts"], counts):
        ops.append(Op(f"counting_check {where} r={r}", got is not None))
        if got is not None:
            ops.append(Op(f"ball count {where} r={r}", got == want, f"got {got}, want {want}"))
    return ops


def verify_argv(weights) -> list[str]:
    return ["verify", "--weights", ",".join(map(str, weights)), "--grid", "100"]


class VerifyBattery:
    name = "verify_battery"

    def __init__(self, reference: dict, root: Path) -> None:
        self.lines = reference[self.name]["lines"]

    def inputs(self, rng):
        """The seed only orders the weights; the report must not depend on it."""
        while True:
            yield [int(w) for w in rng.permutation(WEIGHTS)]

    def run(self, weights) -> list[Op]:
        code, text = call_cli(verify_argv(weights))
        return check_report(text, code, self.lines)


class KernelGrids:
    name = "kernel_grids"

    def __init__(self, reference: dict, root: Path) -> None:
        self.lines = reference[self.name]["lines"]

    def inputs(self, rng):
        """The README command has no free input; the seed does not change it."""
        while True:
            yield list(KERNEL_ARGV)

    def run(self, argv) -> list[Op]:
        code, text = call_cli(argv)
        return check_report(text, code, self.lines)


class BallEnumeration:
    name = "ball_enumeration"

    def __init__(self, reference: dict, root: Path) -> None:
        ref = reference[self.name]
        self.strata = ref["strata"]
        self.k, self.eps, self.r_cut = ref["k"], ref["eps"], ref["R_cut"]
        self.constants = engine.compute_constants(modular_group(), ref["Y0"])

    def inputs(self, rng):
        """One recorded point per height stratum, drawn by the seed."""
        while True:
            yield [[s, int(rng.integers(len(points)))] for s, points in enumerate(self.strata)]

    def run(self, picks) -> list[Op]:
        ops = []
        for s, i in picks:
            point = self.strata[s][i]
            z = complex(*point["z"])
            try:
                partial = enumeration.poincare_direct(
                    z, self.k, self.eps, self.r_cut, self.constants).partial
            except enumeration.VerificationFailure:
                partial = None
            counts = []
            for r in point["radii"]:
                try:
                    counts.append(enumeration.counting_check(z, r, self.constants).count)
                except enumeration.VerificationFailure:
                    counts.append(None)
            ops += check_ball_point(point, partial, counts)
        return ops


class LedgerSweep:
    name = "ledger_sweep"
    #: Y0 values per job; single Y0 values differ in cost by up to 1.6x.
    sweep = 8

    def __init__(self, reference: dict, root: Path) -> None:
        ref = reference[self.name]
        self.pool = ref["psl2z"]
        self.genus2 = ref["genus2"]
        self.rtol = ref["rtol"]
        self.fixture = str(root / GENUS2_FIXTURE)

    def inputs(self, rng):
        """A sweep over recorded Y0 values in [1, 8], drawn by the seed."""
        while True:
            yield [int(i) for i in rng.integers(len(self.pool), size=self.sweep)]

    def run(self, indices) -> list[Op]:
        calls = []
        for i in indices:
            entry = self.pool[i]
            calls += [
                (["constants", "--Y0", entry["Y0"]], entry["constants"]),
                (["bounds", *BOUNDS_ARGS, "--Y0", entry["Y0"]], entry["bounds"]),
            ]
        calls += [
            (["constants", "--domain", self.fixture], self.genus2["constants"]),
            (["bounds", *BOUNDS_ARGS, "--domain", self.fixture], self.genus2["bounds"]),
        ]
        ops = []
        for argv, want in calls:
            code, text = call_cli(argv)
            what = " ".join(argv)
            ops.append(Op(f"{what}: exit code", code == 0, f"got {code}"))
            ops.append(check_csv(text, want, what, self.rtol))
        return ops


WORKLOADS = {w.name: w for w in (VerifyBattery, BallEnumeration, KernelGrids, LedgerSweep)}

