"""Benchmark of the supnorm library: four closed-loop workloads, one job at a time.

Run from the repository root:

    python3 perfbench/run.py --workload kernel_grids --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload untraced and then traced, each in a
fresh interpreter, and prints all their metrics.

With ``--trace 0`` it measures the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it runs the same job inputs with every
public layer function wrapped in a span, and reports the per-layer metrics
(sums per traced job).  The tracing overhead is ``trace.job_s`` of a traced
run against ``job_s`` of an untraced run with the same seed.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records and spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import supnorm\n"
    "from supnorm.domain import load_domain, modular_group\n"
    "modular_group()\n"
    "load_domain({fixture!r})\n"
    "print(supnorm.__file__)\n"
)


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_supnorm() -> None:
    """Import the library from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "supnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import supnorm

    if SRC not in Path(supnorm.__file__).resolve().parents:
        raise SystemExit(f"error: imported supnorm from {supnorm.__file__}, not {SRC}")


def measure_setup(fixture: Path) -> list[float]:
    """Wall time of fresh interpreters that import supnorm and load both fixtures."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(fixture=str(fixture))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0 or SRC not in Path(proc.stdout.strip()).resolve().parents:
            raise SystemExit(f"error: set-up interpreter failed: {proc.stderr.strip()}")
    return samples


def run_jobs(workload, inputs, seconds: float, consumed: list) -> list[dict]:
    """Closed loop: run jobs one after another until `seconds` have passed (at least one)."""
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        job_input = next(inputs)
        consumed.append(job_input)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            ops = workload.run(job_input)
        except Exception as exc:  # one failed job must not stop the run
            ops = [(f"job raised {type(exc).__name__}", False, traceback.format_exc())]
        t1, c1 = time.perf_counter(), time.process_time()
        jobs.append({"wall": t1 - t0, "cpu": c1 - c0, "ops": len(ops),
                     "failed": [op for op in ops if not op[1]]})
    return jobs


def src_line_counts() -> dict[str, int]:
    counts = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((SRC / "supnorm").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def metadata(args, consumed, reference_text: str) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256(json.dumps([args.workload, consumed]).encode()).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "reference_sha256": hashlib.sha256(reference_text.encode()).hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_lines": src_line_counts(),
    }


def run_all(names, args) -> int:
    """Every workload untraced, then traced, each in its own interpreter.

    Exits 1 if any run crashed or reported an incorrect output.
    """
    all_ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            all_ok = all_ok and proc.returncode == 0 and json.loads(last[0]).get("correct", False)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    import_supnorm()
    import numpy as np

    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)

    reference_text = (BENCH / "reference.json").read_text(encoding="utf-8")
    workload = workloads.WORKLOADS[args.workload](json.loads(reference_text), ROOT)
    consumed: list = []

    inputs = workload.inputs(np.random.default_rng(args.seed))
    if args.trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            jobs = run_jobs(workload, inputs, args.seconds, consumed)
        walls = [j["wall"] for j in jobs]
        values = spans.layer_metrics(tracer.spans, walls)
        values["trace.job_s"] = statistics.median(walls)
        wanted = spec["per_layer"]
        summary = [f"traced jobs {len(jobs)}: trace.job_s median {values['trace.job_s']:.6g}"]
    else:
        setup = measure_setup(ROOT / workloads.GENUS2_FIXTURE)
        jobs = run_jobs(workload, inputs, args.seconds, consumed)
        walls = [j["wall"] for j in jobs]
        values = {
            "setup_s": statistics.median(setup),
            "job_s": statistics.median(walls),
            "cpu_s": statistics.median(j["cpu"] for j in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        summary = [f"jobs {len(jobs)}: job_s min {min(walls):.6g} median {values['job_s']:.6g} "
                   f"max {max(walls):.6g}",
                   f"setup_s samples {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup)]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(j["ops"] for j in jobs)
    failed = [op for j in jobs for op in j["failed"]]
    meta = metadata(args, consumed, reference_text)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": metrics, "attempted": attempted,
              "failed": [list(op) for op in failed],
              "jobs": [{k: j[k] for k in ("wall", "cpu", "ops")} for j in jobs]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.dump():
                fh.write(json.dumps(span) + "\n")

    print("meta " + json.dumps(meta))
    for line in summary:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {len(failed) / attempted:.6g} ({len(failed)} of {attempted} operations)")
    for name, ok, detail in failed[:10]:
        print(f"FAILED {name}: {detail.strip().splitlines()[-1] if detail.strip() else ''}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
