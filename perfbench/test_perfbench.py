"""Tests of the benchmark itself: inputs, oracles, span arithmetic and the
host-speed sampler."""

import contextlib
import io
import math
import os
import re
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_inputs  # noqa: E402
import bench_oracles  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402

import tribell  # noqa: E402
from tribell import cli  # noqa: E402


def _cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _snapshot(workload, seed, workdir):
    workdir.mkdir()
    jobs = bench_inputs.generate(workload, seed, str(workdir))
    files = {name: (workdir / name).read_bytes()
             for name in sorted(os.listdir(workdir))}
    argv = [tuple(a.replace(str(workdir), "<dir>") for a in job.argv)
            for job in jobs]
    return argv, files


@pytest.mark.parametrize("workload", list(bench_inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    second = _snapshot(workload, 7, tmp_path / "b")
    other = _snapshot(workload, 8, tmp_path / "c")
    assert first == second
    assert first != other


def _invariants(job):
    psi = job.expect["amplitudes"]
    pairs = sorted(bench_oracles.pair_concurrence(psi, pair)
                   for pair in ((1, 2), (2, 3), (1, 3)))
    return tuple(round(v, 9) for v in [bench_oracles.three_tangle(psi)]
                 + pairs)


def test_analyze_seeds_share_local_unitary_classes(tmp_path):
    """Seeds change the files but not the classes, so not the work."""
    first = bench_inputs.generate("analyze-mix", 1, str(tmp_path))
    second = bench_inputs.generate("analyze-mix", 2, str(tmp_path))
    assert len(first) == bench_inputs.ANALYZE_HAAR + bench_inputs.ANALYZE_W
    assert sorted(map(_invariants, first)) == sorted(
        map(_invariants, second))
    assert [j.expect["family"] for j in first] != \
        [j.expect["family"] for j in second]


def test_simulate_seeds_share_the_states(tmp_path):
    first = bench_inputs.generate("simulate", 1, str(tmp_path))
    second = bench_inputs.generate("simulate", 2, str(tmp_path))
    states = [sorted((j.expect["theta"], j.expect["theta3"]) for j in jobs)
              for jobs in (first, second)]
    assert states[0] == states[1] == sorted(bench_inputs.simulate_pool())
    assert [j.argv for j in first] != [j.argv for j in second]


def _sweep_csv(bump_line=None, drop_line=None):
    """A Fig.-1 CSV in the CLI's format, numeric 1e-7 above closed."""
    lines = [",".join(bench_oracles.SWEEP_HEADER)]
    for theta3 in bench_oracles.SWEEP_THETA3:
        for theta in np.linspace(0.0, math.pi / 2, 21):
            tau, c12_sq = bench_oracles.ghz_terms(theta, theta3)
            closed = bench_oracles.ghz_smax_closed(theta, theta3)
            numeric = closed + 1e-7
            values = [theta, theta3, tau, c12_sq, closed, numeric]
            lines.append(",".join(f"{v:.9g}" for v in values)
                         + f",low-branch,{numeric - closed:.9g}")
    if bump_line is not None:
        fields = lines[bump_line].split(",")
        fields[7] = f"{float(fields[7]) + 0.01:.9g}"
        lines[bump_line] = ",".join(fields)
    if drop_line is not None:
        del lines[drop_line]
    return "\n".join(lines) + "\n"


def test_sweep_oracle_counts_a_bumped_gap():
    assert bench_oracles.check_sweep_ghz(_sweep_csv()) == (63, [])
    attempted, errors = bench_oracles.check_sweep_ghz(_sweep_csv(bump_line=5))
    assert attempted == 63 and len(errors) == 1 and "gap" in errors[0]
    attempted, errors = bench_oracles.check_sweep_ghz(_sweep_csv(drop_line=9))
    assert attempted == 63 and len(errors) == 1 and "missing" in errors[0]


def test_sweep_oracle_accepts_the_real_sweep(tmp_path):
    out = str(tmp_path / "fig1.csv")
    code, _ = _cli(["--jobs", "1", "sweep-ghz", "--out", out])
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        assert bench_oracles.check_sweep_ghz(handle.read()) == (63, [])


def _perturb(stdout, label, delta):
    match = re.search(rf"^({re.escape(label)}:\s*)(\S+)", stdout, re.MULTILINE)
    value = float(match.group(2)) + delta
    return stdout[:match.start(2)] + f"{value:.9g}" + stdout[match.end(2):]


@pytest.mark.parametrize("family", ["raw", "w"])
def test_analyze_oracle_counts_a_perturbed_tau(family, tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "state.txt"
    if family == "raw":
        psi = bench_inputs.haar_amplitudes(rng)
        path.write_text(bench_inputs.raw_state_text(psi))
    else:
        amps = bench_inputs.w_amplitudes(rng)
        psi = bench_inputs.w_vector(amps)
        path.write_text(bench_inputs.w_state_text(amps))
    code, stdout = _cli(["--jobs", "1", "analyze", "--state", str(path)])
    assert code == 0
    assert bench_oracles.check_analyze(stdout, psi, family) == (1, [])
    tampered = _perturb(stdout, "tau", 1e-6)
    attempted, errors = bench_oracles.check_analyze(tampered, psi, family)
    assert attempted == 1 and "hyperdeterminant" in errors[0]
    tampered = _perturb(stdout, "c12 c23 c31", 1e-6)
    assert bench_oracles.check_analyze(tampered, psi, family)[1]
    tampered = _perturb(stdout, "smax numeric", 2.0)
    assert bench_oracles.check_analyze(tampered, psi, family)[1]


def test_concurrence_and_tangle_oracles_on_known_states():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    assert bench_oracles.three_tangle(ghz) == pytest.approx(1.0, abs=1e-15)
    w = bench_inputs.w_vector(np.full(3, 1 / math.sqrt(3)))
    assert bench_oracles.three_tangle(w) == pytest.approx(0.0, abs=1e-15)
    for pair in ((1, 2), (2, 3), (1, 3)):
        assert bench_oracles.pair_concurrence(w, pair) == pytest.approx(2 / 3)
        assert bench_oracles.pair_concurrence(ghz, pair) == pytest.approx(0.0)


def test_verify_oracle_counts_a_wrong_suite_count():
    good = "pass  eq12-oracle\n8/8 suites passed\n"
    assert bench_oracles.check_verify(0, good) == (1, [])
    assert bench_oracles.check_verify(0, good.replace("8/8", "7/8"))[1]
    assert bench_oracles.check_verify(1, good)[1]


def test_simulate_oracle_counts_a_tampered_value():
    code, stdout = _cli(["--jobs", "1", "simulate", "--ghz", "0.5", "1.1",
                         "--shots", "20000"])
    assert code == 0
    assert bench_oracles.check_simulate(stdout, 0.5, 1.1) == (1, [])
    assert bench_oracles.check_simulate(
        _perturb(stdout, "exact value", 1e-6), 0.5, 1.1)[1]
    assert bench_oracles.check_simulate(
        _perturb(stdout, "z-score", 10.0), 0.5, 1.1)[1]


def test_simulate_settings_files_reach_the_closed_form(tmp_path):
    """Every pool state, at the settings the benchmark writes for it."""
    for job in bench_inputs.generate("simulate", 3, str(tmp_path)):
        argv = list(job.argv)
        argv[argv.index("--shots") + 1] = "1000"
        code, stdout = _cli(argv)
        assert code == 0
        assert bench_oracles.check_simulate(
            stdout, job.expect["theta"], job.expect["theta3"]) == (1, [])


@pytest.mark.xfail(strict=True, reason=(
    "simulate --settings optimal builds GHZ settings from the entanglement "
    "profile, which maps theta > pi/4 to pi/2 - theta; on the low branch "
    "those settings fall short of the closed-form maximum"))
def test_simulate_optimal_settings_reach_the_closed_form_above_pi_over_4():
    code, stdout = _cli(["--jobs", "1", "simulate", "--ghz", "1.2", "0.2",
                         "--shots", "1000"])
    assert code == 0
    assert bench_oracles.check_simulate(stdout, 1.2, 0.2) == (1, [])


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],     # overlaps a: the union 1..6 counts once
        ["c", 8.0, 12.0, 0],    # runs past root: only 8..10 is covered
        ["leaf", 7.0, 7.5, 0],
    ]
    stats = bench_trace.self_times(spans)
    assert stats["root"] == (1, pytest.approx(10 - 5 - 0.5 - 2), 10.0)
    assert stats["a"] == (1, pytest.approx(2.0), 3.0)
    assert stats["b"] == (1, pytest.approx(3.0), 3.0)
    assert stats["c"] == (1, pytest.approx(4.0), 4.0)
    assert stats["leaf"] == (2, pytest.approx(1.5), 1.5)
    assert sum(own for _, own, _ in stats.values()) == pytest.approx(13.0)


def test_recorder_nests_spans_with_a_fake_clock():
    ticks = iter(range(100))
    recorder = bench_trace.Recorder(keep=["outer"], clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert recorder.spans == [["outer", 0, 5, -1], ["inner", 1, 2, 0],
                              ["inner", 3, 4, 0]]
    assert recorder.kept["outer"] == [((2,), {}, 9)]
    assert bench_trace.self_times(recorder.spans)["outer"] == (1, 3, 5)


def test_installed_wraps_aliases_and_restores_them():
    originals = (tribell.entanglement.herm_eig, cli.multistart_maximize,
                 tribell.bell.minimize, tribell.herm_eig)
    recorder = bench_trace.Recorder(keep=bench_trace.KEPT)
    with recorder.installed(tribell):
        assert tribell.entanglement.herm_eig is not originals[0]
        assert cli.multistart_maximize is not originals[1]
        assert tribell.bell.minimize is not originals[2]
        state = tribell.ghz_state(tribell.GhzClassParams(0.4, 0.9))
        tribell.entanglement_profile(state)
    assert (tribell.entanglement.herm_eig, cli.multistart_maximize,
            tribell.bell.minimize, tribell.herm_eig) == originals
    stats = bench_trace.self_times(recorder.spans)
    assert stats["entanglement.entanglement_profile"][0] == 1
    assert stats["entanglement.concurrence_two_qubit"][0] == 3
    assert stats["qcore.herm_eig"][0] >= 6
    names = {span[0] for span in recorder.spans}
    assert all(name.split(".")[0] in bench_trace.LAYER_MODULES
               for name in names)
    metrics = bench_trace.layer_metrics(
        recorder, stats, 1,
        ["entanglement.entanglement_profile.calls", "bell.minimize.calls"])
    assert metrics["entanglement.entanglement_profile.calls"] == 1
    assert metrics["bell.minimize.calls"] == 0
    with pytest.raises(KeyError):
        bench_trace.layer_metrics(recorder, stats, 1, ["bell.no_such.calls"])


def test_escalations_count_rows_that_ran_twice():
    spans = [
        ["optimize.ghz_verification_row", 0, 4, -1],
        ["optimize.multistart_maximize", 0, 1, 0],
        ["optimize.ghz_verification_row", 4, 9, -1],
        ["optimize.multistart_maximize", 4, 5, 2],
        ["optimize.multistart_maximize", 5, 8, 2],
    ]
    assert bench_trace.escalations(spans) == (2, 1)


def test_sampler_slices_are_left_out_of_the_timing():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = bench_speed.Sampler()
    with sampler.active():
        start = time.perf_counter()
        seconds, result = bench_speed.timed(sampler, lambda: time.sleep(0.2))
        elapsed = time.perf_counter() - start
    assert result is None
    assert sampler.slices >= 5
    assert seconds == pytest.approx(elapsed - sampler.seconds, abs=0.01)
    assert 0.15 < seconds <= elapsed
    assert sampler.factor() > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
