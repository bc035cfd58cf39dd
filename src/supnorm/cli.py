"""Command-line front end.

Subcommands: ``constants`` (effective-constants ledger), ``bounds``
(per-weight bound table), ``verify`` (direct numerical verification on the
modular group), ``kernel-check`` (kernel inequality grids).  Each command
imports only the layer it runs: ``constants`` and ``bounds`` load no numpy.

Exit status: 0 success, 1 verification failure, 2 input error (an input too
large for memory included) or unwritable output path, 4 kernel-check
failure: a failed check, or a kernel quadrature that missed its accuracy
target (one ``error:`` line, mapped by ``kernel-check`` itself).  A run
ending in an error keeps an existing ``--out`` file and creates none.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import engine
from .domain import LoadError, load_domain, modular_group
from .engine import format_float

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_KERNEL = 4


def _load(args) -> object:
    if args.domain is None:
        return modular_group()
    return load_domain(args.domain)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


@contextlib.contextmanager
def _open_out(path: str | None):
    """The --out file, opened untruncated before the work so an unwritable path fails first.

    A run that ends in an error removes the file again if it did not exist before.
    """
    if not path:
        yield None
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8") as out:
            yield out
    except BaseException:
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write_out(out, text: str) -> None:
    """Write text to the --out file in place of what it held, or to stdout without one."""
    if out:
        out.truncate(0)
        out.write(text)
    else:
        sys.stdout.write(text)


def cmd_constants(args) -> int:
    with _open_out(args.out) as out:
        constants = engine.compute_constants(_load(args), Y0=args.Y0)
        if args.format == "json":
            text = _json_dumps({"domain": constants.domain_name, "constants": constants.to_dict(),
                                "ledger": constants.to_ledger()})
        else:
            lines = ["name,value,step"]
            for row in constants.to_ledger():
                value = row["value"]
                if value is None:
                    rendered = "absent"
                elif isinstance(value, float):
                    rendered = format_float(value)
                else:
                    rendered = str(value)
                lines.append(f"{row['name']},{rendered},{row['step']}")
            text = "\n".join(lines) + "\n"
        _write_out(out, text)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.k_min > args.k_max:
        raise ValueError(f"empty weight range: --k-min {args.k_min} exceeds --k-max {args.k_max}")
    with _open_out(args.out) as out:
        _, report = engine.run_algorithm(
            _load(args), Y0=args.Y0, k_min=args.k_min, k_max=args.k_max
        )
        if args.plot_prefix:
            for region in report.regions():
                lines = ["k,bound"]
                lines += [f"{k},{format_float(b)}" for k, b in report.plot_series(region)]
                safe = region.replace("^", "").replace("/", "_")
                Path(f"{args.plot_prefix}_{safe}.csv").write_text(
                    "\n".join(lines) + "\n", encoding="utf-8"
                )
        _write_out(out, _json_dumps(asdict(report)) if args.format == "json" else report.to_csv())
    return EXIT_OK


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in text.split(",")) if text else (12,)
    except ValueError:
        raise ValueError(f"--weights takes comma-separated integers, got {text!r}") from None


def verify_all(**kwargs):
    """Import and run ``verify.verify_all``; a module global, so traces and patches see it."""
    from .verify import verify_all as run

    return run(**kwargs)


def cmd_verify(args) -> int:
    weights = _parse_weights(args.weights)
    with _open_out(args.out) as out:
        report = verify_all(weights=weights, grid_size=args.grid, Y0=args.Y0)
        print(report.to_text())
        if out:
            _write_out(out, _json_dumps(report.to_json_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_kernel_check(args) -> int:
    from . import kernels

    try:
        with _open_out(args.out) as out:
            results = kernels.run_kernel_checks(k_max=args.k_max)
            for res in results:
                print(res.line())
            if out:
                _write_out(out, _json_dumps([asdict(r) for r in results]))
    except kernels.AccuracyError as exc:
        return _fail(exc, EXIT_KERNEL)
    return EXIT_OK if all(res.passed for res in results) else EXIT_KERNEL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The four-subcommand parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="supnorm",
        description="Effective averaged sup-norm bounds for even-weight cusp forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", metavar="PATH", default=None,
                       help="domain description file (default: built-in modular group)")
        p.add_argument("--Y0", type=float, default=2.0, help="base truncation height")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None, help="write output here")

    p = sub.add_parser("constants", help="compute the effective-constants ledger")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bounds", help="emit the per-weight bound table")
    common(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=30)
    p.add_argument("--plot-prefix", metavar="PATH", default=None,
                   help="also write per-region k,bound CSV files with this prefix")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the direct numerical verification")
    p.add_argument("--Y0", type=float, default=2.0, help="base truncation height")
    p.add_argument("--out", metavar="PATH", default=None, help="write output here")
    p.add_argument("--grid", type=int, default=100, help="grid resolution per axis")
    p.add_argument("--weights", default="12",
                   help="comma-separated weights from 12,16,18,20,22,26")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kernel-check", help="run the kernel inequality grids")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_kernel_check)
    return parser


def _fail(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand; bad input, inputs too large for memory and
    unwritable output paths end in a one-line error (``kernel-check`` maps
    its own kernel accuracy errors)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, ValueError, OSError) as exc:
        return _fail(exc, EXIT_INPUT)
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory", EXIT_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())
