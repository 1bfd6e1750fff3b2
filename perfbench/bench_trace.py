"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps every public function of the six tribell layer modules
in every tribell namespace that binds it, so ``from .x import f`` aliases
such as ``entanglement.herm_eig`` and ``cli.multistart_maximize`` are
traced too.  Each call becomes a span (name, start, end, parent index),
kept in memory and written out when the run ends.  Nothing in tribell
queues or waits on another thread, so spans carry no wait time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

LAYER_MODULES = ("qcore", "entanglement", "bell", "optimize", "montecarlo",
                 "cli")

# scipy's minimize is not a tribell function, but counting it through the
# name bell imports counts the L-BFGS-B runs of smax_w.
FOREIGN = (("bell", "minimize"),)

KEPT = ("optimize.multistart_maximize", "montecarlo.estimate_correlator")
ROW_SPANS = ("optimize.ghz_verification_row", "optimize.w_verification_row")

# What each workload is expected to show, from the profile that motivated
# the benchmark.  "0 calls" entries are checked; the rest are for reading.
PREDICTIONS: Dict[str, Dict[str, str]] = {
    "sweep-ghz": {
        "optimize.multistart_maximize": "~97% incl, dominant",
        "qcore.herm_eig": "0 calls",
        "montecarlo.estimate_correlator": "0 calls",
    },
    "analyze-mix": {
        "optimize.multistart_maximize": "dominant, ~440 cycles/call",
        "bell.smax_w": "~140 ms per W item",
        "entanglement.entanglement_profile": "~2% incl",
        "montecarlo.estimate_correlator": "0 calls",
    },
    "verify": {
        "qcore.herm_eig": "~71% self, dominant",
        "bell.bell_operators": "~15% incl with svetlichny_value_direct",
        "bell.svetlichny_value_direct": "see bell_operators",
        "optimize.multistart_maximize": "0 calls",
        "montecarlo.estimate_correlator": "0 calls",
    },
    "simulate": {
        "montecarlo.estimate_correlator": "~96% incl, dominant",
        "qcore.herm_eig": "0 calls",
        "optimize.multistart_maximize": "0 calls",
    },
}

Span = List  # [name, start, end, parent index or -1]


class Recorder:
    """Collects spans from the functions it wraps while they are installed.

    For the names in `keep` it also keeps (args, kwargs, result) of every
    call, so metrics can be read from results such as iteration counts.
    """

    def __init__(self, keep: Iterable[str] = (), clock=time.perf_counter):
        self.spans: List[Span] = []
        self.kept: Dict[str, list] = {name: [] for name in keep}
        self.traced: set = set()  # span names of every function wrapped
        self._stack: List[int] = []
        self._clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        kept = self.kept.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append((args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Replace each traced function in every tribell namespace that
        binds it, and restore the originals on exit."""
        layers = [getattr(package, name) for name in LAYER_MODULES]
        names = {}
        for module in layers:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    names[id(obj)] = (f"{short}.{attr}", obj)
        for short, attr in FOREIGN:
            obj = getattr(getattr(package, short), attr)
            names[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self.wrap(name, obj)
                    for key, (name, obj) in names.items()}
        self.traced.update(name for name, _ in names.values())
        saved = []
        try:
            for module in [package] + layers:
                namespace = vars(module)
                for attr, obj in list(namespace.items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        saved.append((namespace, attr, obj))
                        namespace[attr] = wrapper
            yield self
        finally:
            for namespace, attr, obj in reversed(saved):
                namespace[attr] = obj

    def dump(self, path: str):
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    [name, round(start - origin, 9), round(end - origin, 9),
                     parent]) + "\n")


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """Per span name: (calls, self seconds, inclusive seconds).

    A span's self time is its duration minus the part of its interval that
    the union of its child spans covers.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats: Dict[str, Tuple[int, float, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, own, total = stats.get(name, (0, 0.0, 0.0))
        stats[name] = (calls + 1, own + (end - start - covered),
                       total + (end - start))
    return stats


def escalations(spans: List[Span]) -> Tuple[int, int]:
    """(rows, rows retried) over the sweep verification-row spans; a row is
    retried when it ran multistart_maximize more than once."""
    runs: Dict[int, int] = {}
    rows = [i for i, span in enumerate(spans) if span[0] in ROW_SPANS]
    row_set = set(rows)
    for name, _, _, parent in spans:
        if name == "optimize.multistart_maximize" and parent in row_set:
            runs[parent] = runs.get(parent, 0) + 1
    return len(rows), sum(1 for count in runs.values() if count > 1)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, stats, passes: int,
                  names: Iterable[str]) -> Dict[str, float]:
    """Per-pass span metrics, averaged over `passes` traced passes, from
    the recorder and its `self_times` statistics.

    Each `<span>.calls` and `<span>.self_s` in `names` is that span's call
    count or self time.  A ratio whose base is zero (no calls on this
    workload) reads 0; its base is reported next to it.
    """
    metrics: Dict[str, float] = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            if span not in recorder.traced:
                raise KeyError(f"{name}: {span} is not a traced function")
            calls, own, _ = stats.get(span, (0, 0.0, 0.0))
            metrics[name] = (calls if kind == "calls" else own) / passes
    results = [r for _, _, r in recorder.kept["optimize.multistart_maximize"]]
    cycles = sum(r.iterations_used for r in results)
    metrics["optimize.cycles_per_call"] = _ratio(cycles, len(results))
    metrics["optimize.cycle_us"] = _ratio(
        stats.get("optimize.multistart_maximize", (0, 0.0, 0.0))[1] * 1e6,
        cycles)
    metrics["optimize.converged_frac"] = _ratio(
        sum(1 for r in results if r.converged), len(results))
    rows, retried = escalations(recorder.spans)
    metrics["optimize.escalation_frac"] = _ratio(retried, rows)
    shots = sum(r.shots for _, _, r
                in recorder.kept["montecarlo.estimate_correlator"])
    metrics["montecarlo.shots_per_s"] = _ratio(
        shots, stats.get("montecarlo.estimate_correlator", (0, 0.0, 0.0))[2])
    metrics["trace.self_sum_s"] = sum(
        own for _, own, _ in stats.values()) / passes
    return metrics


def share_table(workload: str, stats, passes: int, traced_wall: float,
                untraced_wall: float) -> str:
    """Layer shares of one traced pass next to the workload's predictions."""
    self_sum = sum(own for _, own, _ in stats.values()) / passes
    predictions = PREDICTIONS.get(workload, {})
    shown = [name for name, (_, own, _) in stats.items()
             if own / passes >= 0.01 * self_sum]
    shown += [name for name in predictions if name not in shown]
    shown.sort(key=lambda name: -stats.get(name, (0, 0.0, 0.0))[1])
    lines = [
        f"layer shares on {workload}: traced pass {traced_wall:.3f} s, "
        f"untraced {untraced_wall:.3f} s, tracing overhead "
        f"{traced_wall - untraced_wall:+.3f} s, self-time sum "
        f"{self_sum:.3f} s",
        f"{'span':40s} {'calls':>9s} {'self_s':>9s} {'self%':>6s} "
        f"{'incl%':>6s}  predicted",
    ]
    for name in shown:
        calls, own, total = (
            v / passes for v in stats.get(name, (0, 0.0, 0.0)))
        prediction = predictions.get(name, "")
        if prediction == "0 calls":
            prediction += " ok" if calls == 0 else " MISMATCH"
        lines.append(
            f"{name:40s} {calls:9.0f} {own:9.4f} "
            f"{100 * _ratio(own, self_sum):5.1f}% "
            f"{100 * _ratio(total, self_sum):5.1f}%  {prediction}")
    return "\n".join(lines)
