"""The traced benchmark's per-layer metrics name functions that exist.

A metric `<span>.calls` or `<span>.self_s` in BENCHMARK.json needs `<span>`
to be a function the span recorder wraps; deleting or renaming one would
otherwise surface only when `perfbench/run.py --trace 1` raises.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench_trace  # noqa: E402

import tribell  # noqa: E402
import tribell.cli  # noqa: E402,F401


def test_every_span_metric_names_a_traced_function():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = [m["name"] for m in json.load(f)["per_layer"]]
    spans = {name.rpartition(".")[0] for name in metrics
             if name.rpartition(".")[2] in ("calls", "self_s")}
    recorder = bench_trace.Recorder()
    with recorder.installed(tribell):
        pass
    assert spans, "no span metrics found"
    assert sorted(spans - recorder.traced) == []
