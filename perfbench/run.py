"""Benchmark of the tribell CLI: four workloads timed in one process.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each pass calls ``tribell.cli.main(argv)`` in-process, with ``--jobs 1``,
for every job the seed generated (see bench_inputs.py), and every output is
checked by an independent oracle (bench_oracles.py).  Passes repeat at
least MIN_PASSES times, and then while one more pass would still end
within ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics:
  wall_s       median time of one pass, after warm-up and imports
  setup_s      median over SETUP_LAUNCHES fresh interpreters of the time to
               import tribell.cli and call build_parser()
  peak_rss_mb  peak resident memory of this process, which imports tribell
               and runs the passes
Both times are corrected for the host's speed at the moment they were
taken (bench_speed.py); the raw seconds and the speed factors are printed.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics that BENCHMARK.json lists (computed in bench_trace.py),
prints a layer-share table, and writes the spans to
.bench_work/spans-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Operations that raise or fail their oracle
count as failed; their share of those attempted is the failure fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc

import bench_inputs
import bench_oracles
import bench_speed
import bench_trace

MIN_PASSES = 3
SETUP_LAUNCHES = 9
SETUP_CODE = "import tribell.cli; tribell.cli.build_parser()"
WORK_DIR = ".bench_work"
# Workload and metric names, with their units, come from BENCHMARK.json.
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")
# Touches every layer once, including scipy's first L-BFGS-B call, whose
# one-off start-up cost would otherwise land in the first timed pass.
WARM_UP = (
    ("--jobs", "1", "analyze", "--w", "0.6", "0.64", "0.48"),
    ("--jobs", "1", "simulate", "--ghz", "pi/4", "pi/2", "--shots", "1000"),
)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def setup_launches(root: str, src: str) -> list:
    """(seconds, host-speed factor) of each fresh interpreter that imports
    the CLI, timed while a bench_speed sampler runs.  The child runs while
    the sampler's slices do, so they are not taken out of its time."""
    launches = []
    for _ in range(SETUP_LAUNCHES):
        sampler = bench_speed.Sampler()
        with sampler.active():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                           env=_child_env(src), check=True,
                           stdout=subprocess.DEVNULL)
            seconds = time.perf_counter() - start
        launches.append((seconds, sampler.factor()))
    return launches


def import_seconds(root: str, src: str) -> dict:
    """Seconds spent executing numpy, scipy and tribell modules while a
    fresh interpreter imports the CLI, from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tribell.cli"],
        cwd=root, env=_child_env(src), check=True, capture_output=True,
        text=True)
    totals = {"numpy": 0.0, "scipy": 0.0, "tribell": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":", 1)[1])
        except ValueError:
            continue  # the column header
        package = parts[2].strip().split(".", 1)[0]
        if package in totals:
            totals[package] += self_us / 1e6
    return totals


def run_job(cli, job) -> tuple:
    """(exit code or None, stdout) of one in-process CLI call."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(list(job.argv))
        except Exception:  # a crash is a failed operation; keep going
            traceback.print_exc()
            code = None
    return code, buffer.getvalue()


def run_pass(cli, jobs, sampler=None) -> tuple:
    """Run every job once: (seconds, [(exit code or None, stdout), ...]).

    The slices of an active `sampler` (bench_speed) are not counted.
    """
    sampler = sampler or bench_speed.Sampler()
    seconds, outputs = 0.0, []
    for job in jobs:
        job_seconds, output = bench_speed.timed(
            sampler, lambda: run_job(cli, job))
        seconds += job_seconds
        outputs.append(output)
    return seconds, outputs


class Tally:
    """Checked operations and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def check(self, jobs, outputs):
        for job, (code, stdout) in zip(jobs, outputs):
            attempted, errors = bench_oracles.check_job(job, code, stdout)
            self.attempted += attempted
            self.errors += errors


def peak_alloc_mb(recorder, montecarlo) -> float:
    """Peak traced allocation of one estimate_correlator call, replayed on
    the arguments of the first traced call so the timed spans stay free of
    tracemalloc."""
    calls = recorder.kept["montecarlo.estimate_correlator"]
    if not calls:
        return 0.0
    args, kwargs, _ = calls[0]
    tracemalloc.start()
    try:
        montecarlo.estimate_correlator(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def _more(start: float, seconds: float, passes: list, minimum: int) -> bool:
    """Whether to run another pass: until `minimum` passes, then while one
    of the mean length so far still ends within `seconds` of `start`."""
    if len(passes) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / len(passes) <= seconds


def _scaled(timings) -> list:
    return [seconds * factor for seconds, factor in timings]


def _show(label: str, timings) -> str:
    return (f"{label}: raw s " + " ".join(f"{s:.4f}" for s, _ in timings)
            + "; speed factors " + " ".join(f"{f:.3f}" for _, f in timings))


def timed_run(args, cli, jobs, tally, launches) -> dict:
    passes = []
    start = time.perf_counter()
    while _more(start, args.seconds, passes, MIN_PASSES):
        sampler = bench_speed.Sampler()
        with sampler.active():
            seconds, outputs = run_pass(cli, jobs, sampler)
        passes.append((seconds, sampler.factor()))
        tally.check(jobs, outputs)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(_show(f"passes ({len(passes)} x {len(jobs)} jobs)", passes))
    print(_show("setup launches", launches))
    return {"wall_s": statistics.median(_scaled(passes)),
            "setup_s": statistics.median(_scaled(launches)),
            "peak_rss_mb": peak_rss}


def traced_run(args, spec, package, cli, jobs, tally, imports,
               span_path) -> dict:
    recorder = bench_trace.Recorder(keep=bench_trace.KEPT)
    untraced, traced = [], []
    start = time.perf_counter()
    while _more(start, args.seconds, traced, 1):
        seconds, outputs = run_pass(cli, jobs)
        untraced.append(seconds)
        tally.check(jobs, outputs)
        with recorder.installed(package):
            seconds, outputs = run_pass(cli, jobs)
        traced.append(seconds)
        tally.check(jobs, outputs)
    passes = len(traced)
    stats = bench_trace.self_times(recorder.spans)
    metrics = bench_trace.layer_metrics(
        recorder, stats, passes, [m["name"] for m in spec["per_layer"]])
    metrics["montecarlo.estimate_correlator.peak_alloc_mb"] = (
        peak_alloc_mb(recorder, package.montecarlo))
    for package_name, seconds in imports.items():
        metrics[f"setup.import_s.{package_name}"] = seconds
    # Means, like the span metrics, so the self-time sum and the traced
    # wall time cover the same passes.
    traced_wall = statistics.mean(traced)
    untraced_wall = statistics.mean(untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(bench_trace.share_table(args.workload, stats, passes, traced_wall,
                                  untraced_wall))
    rows, retried = bench_trace.escalations(recorder.spans)
    print(f"ratio bases per traced pass: {rows // passes} verification rows "
          f"({retried // passes} retried), "
          f"{metrics['optimize.multistart_maximize.calls']:.0f} multistart "
          f"calls, {metrics['montecarlo.estimate_correlator.calls']:.0f} "
          "sampled correlators")
    recorder.dump(span_path)
    print(f"spans: {len(recorder.spans)} written to {span_path}")
    return metrics


def measure(args, spec, root: str, src: str, workdir: str) -> int:
    jobs = bench_inputs.generate(args.workload, args.seed, workdir)
    if args.trace:
        imports = import_seconds(root, src)
    else:
        launches = setup_launches(root, src)
    sys.path.insert(0, src)
    package = importlib.import_module("tribell")
    cli = importlib.import_module("tribell.cli")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        print(f"error: imported tribell from {package.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in WARM_UP:
            cli.main(list(argv))
    tally = Tally()
    if args.trace:
        span_path = os.path.join(
            root, WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = traced_run(args, spec, package, cli, jobs, tally, imports,
                             span_path)
        listed = spec["per_layer"]
    else:
        metrics = timed_run(args, cli, jobs, tally, launches)
        listed = spec["end_to_end"]
    failed = len(tally.errors)
    print(f"failure fraction: {failed}/{tally.attempted} checked operations")
    for message in list(dict.fromkeys(tally.errors))[:10]:
        print(f"  failed: {message}")
    print("wait time: none to report; nothing in tribell queues")
    print(json.dumps({
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tribell", "cli.py")):
        print(f"error: no tribell sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(root, WORK_DIR))
    try:
        return measure(args, spec, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
