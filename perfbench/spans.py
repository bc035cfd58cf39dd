"""Per-thread spans around the library's public functions, for traced runs.

While ``installed`` is active, each target attribute is replaced by a
wrapper that records one span per call: name, thread, start, end, thread
CPU time and the span that caused it.  A target is wrapped under the name
its caller looks it up by (``supnorm.verify.build_basis`` is what
``verify`` calls, not ``supnorm.forms.build_basis``), and every original
attribute is put back when the block ends.

A span opened on a thread with no open span of its own (a worker of
``verify_all``'s thread pool) takes the innermost open span of the main
thread as its parent.  Self time is derived per thread: a span's wall time
minus the part of it covered by its children on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

#: (module, attribute path, span name).  The span name is
#: ``<module>.<function>`` of the function's home module.
TARGETS = (
    ("supnorm.cli", "main", "cli.main"),
    ("supnorm.cli", "verify_all", "verify.verify_all"),
    ("supnorm.cli", "load_domain", "domain.load_domain"),
    ("supnorm.verify", "build_basis", "forms.build_basis"),
    ("supnorm.verify", "mass_integral", "forms.mass_integral"),
    ("supnorm.verify", "s2k_on_grid", "forms.s2k_on_grid"),
    ("supnorm.verify", "counting_check", "enumeration.counting_check"),
    ("supnorm.verify", "poincare_direct", "enumeration.poincare_direct"),
    ("supnorm.forms", "evaluate_form", "forms.evaluate_form"),
    ("supnorm.enumeration", "counting_check", "enumeration.counting_check"),
    ("supnorm.enumeration", "poincare_direct", "enumeration.poincare_direct"),
    ("supnorm.enumeration", "displacement_values", "enumeration.displacement_values"),
    ("supnorm.kernels", "run_kernel_checks", "kernels.run_kernel_checks"),
    ("supnorm.kernels", "resolvent_via_heat", "kernels.resolvent_via_heat"),
    ("supnorm.kernels", "heat_kernel", "kernels.heat_kernel"),
    ("supnorm.kernels", "resolvent_G", "kernels.resolvent_G"),
    ("supnorm.kernels", "integrated_exponential_lhs", "kernels.integrated_exponential_lhs"),
    ("supnorm.engine", "compute_constants", "engine.compute_constants"),
    ("supnorm.engine", "run_algorithm", "engine.run_algorithm"),
    ("supnorm.engine", "mu_gamma", "engine.mu_gamma"),
    ("supnorm.domain", "load_domain", "domain.load_domain"),
    ("supnorm.domain", "truncation_heights", "domain.truncation_heights"),
    ("supnorm.domain", "diameter_upper_bound", "domain.diameter_upper_bound"),
    ("supnorm.domain", "volume_region", "domain.volume_region"),
    ("supnorm.geometry", "GeodesicSegment.dist_to", "geometry.GeodesicSegment.dist_to"),
)

LAYERS = ("cli", "verify", "forms", "enumeration", "kernels", "engine", "domain", "geometry")

#: Statistics summed over a span name and reported per traced job.
PER_JOB_STATS = ("calls", "s", "self_s", "cpu_s", "wait_s", "points", "elements")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: Work counts taken from a call's arguments and result, by span name.
COUNTERS = {
    "forms.evaluate_form": lambda a, kw, r: {"points": int(np.size(_arg(a, kw, 1, "z")))},
    "forms.s2k_on_grid": lambda a, kw, r: {"points": len(_arg(a, kw, 1, "points"))},
    "forms.build_basis": lambda a, kw, r: {"norm_rel_error": r.norm_error / r.petersson_norm},
    "enumeration.displacement_values": lambda a, kw, r: {"elements": len(r)},
    "enumeration.counting_check": lambda a, kw, r: {"count_over_bound": r.count / r.bound},
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps finished spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str) -> Span:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1].id
            else:
                main = self._stacks.get(self._main)
                parent = main[-1].id if main and ident != self._main else None
            span = Span(next(self._ids), name, ident, parent, time.perf_counter())
            stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        with self._lock:
            self._stacks[span.thread].pop()
            self.spans.append(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - cpu0
                span.end = time.perf_counter()
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, path, name in targets:
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive wall s, self_s, thread cpu_s, wait_s and summed counts."""
    by_id = {s.id: s for s in spans}
    same_thread_children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            same_thread_children[parent.id].append((s.start, s.end))
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        st = stats[s.name]
        st["calls"] += 1
        st["s"] += s.wall
        st["self_s"] += s.wall - union_length(same_thread_children[s.id])
        st["cpu_s"] += s.cpu
        st["wait_s"] += s.wall - s.cpu
        for key, value in s.counts.items():
            st[key] += value
    return stats


def layer_metrics(spans: list[Span], job_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run; sums are per traced job."""
    names = {name for _, _, name in TARGETS}
    stats = summarize(spans)
    n_jobs = len(job_walls)
    out = {}
    for name in names:
        for stat in PER_JOB_STATS:
            out[f"{name}.{stat}"] = stats[name][stat] / n_jobs if name in stats else 0.0

    def span_max(name, key):
        return max((s.counts.get(key, 0.0) for s in spans if s.name == name), default=0.0)

    def ratio(num, den):
        return num / den if den > 0.0 else 0.0

    out["forms.norm_rel_error_max"] = span_max("forms.build_basis", "norm_rel_error")
    out["enumeration.count_over_bound_max"] = span_max("enumeration.counting_check",
                                                       "count_over_bound")
    disp = stats.get("enumeration.displacement_values", {})
    out["enumeration.elements_per_s"] = ratio(disp.get("elements", 0.0), disp.get("s", 0.0))
    verify_ids = {s.id for s in spans if s.name == "verify.verify_all"}
    child_wall = sum(s.wall for s in spans if s.parent in verify_ids)
    out["verify.concurrency"] = ratio(child_wall, stats.get("verify.verify_all", {}).get("s", 0.0))
    total = sum(job_walls)
    for layer in LAYERS:
        covered = union_length((s.start, s.end) for s in spans if s.name.split(".")[0] == layer)
        out[f"{layer}.share"] = ratio(covered, total)
    return out
