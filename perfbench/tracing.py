"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's side only: ``Tracer.installed``
wraps every public function of the seven ``bnndep`` modules and rebinds
each name wherever a module looks it up (``experiments`` imports
``sample_units`` by name, ``cli`` imports ``write_grid_csv`` by name,
``estimators.kendall_tau`` calls ``kendall_tau_arrays`` through its own
globals).  Nothing inside ``src/`` changes, so work below a public function
(the per-network-layer draw and activation) is not visible here.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

MODULES = ("cli", "experiments", "sampling", "network", "estimators", "exact", "gridio")

# sampler entry points that draw prior samples (sample_replicas delegates to
# sample_units, so counting these two counts every draw exactly once)
DRAWS = ("sampling.sample_units", "sampling.sample_layer")
SAMPLERS = DRAWS + ("sampling.sample_replicas",)

SWEEP_CELLS = tuple((d, w) for d in (2, 3, 4) for w in (2, 5, 10))

# operation id of spans recorded during set-up, outside the timed phase
SETUP_OP = "setup"


@dataclass
class Span:
    sid: int
    name: str               # "module.function"
    parent: Optional[int]   # sid of the enclosing span in the same thread
    op: str                 # workload operation the span belongs to
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0      # process CPU seconds (all threads) during the span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent, "op": self.op,
                "start": self.start, "end": self.end, "cpu_s": self.cpu_s, "attrs": self.attrs}


def _sampler_attrs(args: dict, result) -> dict:
    config, layer = args["config"], args["layer"]
    return {"n": args["n"], "depth": config.depth, "width": config.widths[layer]}


def _tap_attrs(args: dict, result) -> dict:
    return {"tap": args["batch"].tap}


def _text_attrs(args: dict, result) -> dict:
    return {"bytes": len(result.encode())}


# extra attributes recorded for a few functions, from their bound arguments
# or result; no references to the (large) arguments themselves are kept
ANNOTATORS: dict[str, Callable[[dict, object], dict]] = {
    "sampling.sample_units": _sampler_attrs,
    "sampling.sample_layer": _sampler_attrs,
    "estimators.kendall_tau": _tap_attrs,
    "estimators.spearman_rho": _tap_attrs,
    "gridio.grid_csv_text": _text_attrs,
    "gridio.heatmap_svg_text": _text_attrs,
}


class Tracer:
    """In-memory span recorder; spans are written out after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, stack[-1].sid if stack else None, self.op)
            stack.append(span)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.process_time() - cpu0
                stack.pop()
                self.spans.append(span)
            if annotate:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = annotate(bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public bnndep function wherever its name is bound."""
        modules = [importlib.import_module(f"bnndep.{m}") for m in MODULES]
        wrappers: dict[Callable, Callable] = {}
        for short, mod in zip(MODULES, modules):
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        patched = []
        for mod in [importlib.import_module("bnndep")] + modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    @contextlib.contextmanager
    def operation(self, op: str):
        previous, self.op = self.op, op
        try:
            yield
        finally:
            self.op = previous


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.sid: s.duration - covered_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid])
        for s in spans
    }


def module_of(span: Span) -> str:
    return span.name.split(".", 1)[0]


def per_layer_metrics(spans: list[Span], phase_wall_s: float, untraced_wall_s: float,
                      speedup_2w: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Counts and busy times cover every span of the traced run (set-up
    included, which is where ``estimate`` samples); ``*.share`` is a
    module's self time inside the timed phase over that phase's wall time.
    """
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)

    def parent_name(s: Span) -> str:
        return by_id[s.parent].name if s.parent in by_id else ""

    def busy(module: str, timed_only: bool = False) -> float:
        return sum((own[s.sid] for s in spans
                    if module_of(s) == module and not (timed_only and s.op == SETUP_OP)), 0.0)

    def inclusive(names: tuple[str, ...], **attrs) -> float:
        # outermost spans only, so nested calls of the same group count once
        return sum((s.duration for s in spans
                    if s.name in names and parent_name(s) not in names
                    and all(s.attrs.get(k) == v for k, v in attrs.items())), 0.0)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def share(module: str) -> float:
        return busy(module, timed_only=True) / phase_wall_s

    draws = [s for s in spans if s.name in DRAWS]
    outer = [s for s in spans if s.name in SAMPLERS and parent_name(s) not in SAMPLERS]
    outer_wall = sum(s.duration for s in outer)
    sampling_busy = busy("sampling")
    m: dict[str, tuple[float, str]] = {
        "sampling.calls": (len(draws), "count"),
        "sampling.draws": (sum(s.attrs["n"] for s in draws), "count"),
        "sampling.busy_s": (sampling_busy, "s"),
        "sampling.draws_per_s": (
            sum(s.attrs["n"] for s in draws) / sampling_busy if sampling_busy else 0.0, "1/s"),
        "sampling.share": (share("sampling"), "fraction"),
        "sampling.call_p50_s": (
            statistics.median(s.duration for s in draws) if draws else 0.0, "s"),
        "sampling.cpu_per_wall": (
            sum(s.cpu_s for s in outer) / outer_wall if outer_wall else 0.0, "ratio"),
    }
    for d, w in SWEEP_CELLS:
        m[f"sampling.cell.L{d}H{w}_s"] = (sum((
            s.duration for s in draws
            if parent_name(s) == "experiments.run_sweep"
            and s.attrs["depth"] == d and s.attrs["width"] == w), 0.0), "s")
    m["sampling.speedup_2w"] = (speedup_2w, "ratio")
    m.update({
        "estimators.busy_s": (busy("estimators"), "s"),
        "estimators.share": (share("estimators"), "fraction"),
        "estimators.delta_grid_s": (inclusive(("estimators.delta_grid",)), "s"),
        "estimators.delta_grid_calls": (calls("estimators.delta_grid"), "count"),
        "estimators.scalar_delta_s": (inclusive(
            ("estimators.delta_upper", "estimators.delta_lower", "estimators.delta_combo")), "s"),
        "estimators.covariance_s": (inclusive(("estimators.covariance",)), "s"),
        "estimators.kendall_tau_pre_s": (inclusive(("estimators.kendall_tau",), tap="pre"), "s"),
        "estimators.kendall_tau_post_s": (inclusive(("estimators.kendall_tau",), tap="post"), "s"),
        "estimators.spearman_rho_pre_s": (inclusive(("estimators.spearman_rho",), tap="pre"), "s"),
        "estimators.spearman_rho_post_s": (
            inclusive(("estimators.spearman_rho",), tap="post"), "s"),
        "estimators.rao_blackwell_s": (inclusive(("estimators.rao_blackwell_delta",)), "s"),
        "estimators.rao_blackwell_calls": (calls("estimators.rao_blackwell_delta"), "count"),
        "estimators.pd_profile_s": (inclusive(("estimators.pd_profile",)), "s"),
        "exact.busy_s": (busy("exact"), "s"),
        "exact.share": (share("exact"), "fraction"),
        "exact.brute_force_tau_s": (inclusive(("exact.brute_force_tau",)), "s"),
        "exact.brute_force_tau_calls": (calls("exact.brute_force_tau"), "count"),
        "exact.enumerate_s": (inclusive(("exact.enumerate_exact_delta",)), "s"),
        "exact.sample_discrete_net_s": (inclusive(("exact.sample_discrete_net",)), "s"),
        "gridio.csv_s": (inclusive(("gridio.write_grid_csv", "gridio.grid_csv_text")), "s"),
        "gridio.svg_s": (inclusive(("gridio.render_heatmap", "gridio.heatmap_svg_text")), "s"),
        "gridio.bytes": (sum(s.attrs.get("bytes", 0) for s in spans
                             if module_of(s) == "gridio"), "bytes"),
        "gridio.share": (share("gridio"), "fraction"),
        "experiments.self_s": (busy("experiments"), "s"),
        "cli.self_s": (busy("cli"), "s"),
        "trace.overhead_s": (phase_wall_s - untraced_wall_s, "s"),
    })
    return m
