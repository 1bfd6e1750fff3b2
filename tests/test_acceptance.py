"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one `criterion-NN PASS|FAIL ...` line with
capture suspended so the gate status is always visible, then asserts.
"""

import math
import sys

import numpy as np

from tribell import bell, cli, entanglement, montecarlo, optimize, qcore


R2 = math.sqrt(2.0)
R3 = 1 / math.sqrt(3.0)
W_SYM_MAX = (16.0 / 3.0) * math.sqrt(2.0 / 3.0)


def _report(capsys, num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion-{num:02d} {status} {detail}")
        sys.stdout.flush()


def test_criterion_01_symmetric_w_maximum(capsys):
    code = cli.main(["analyze", "--w", *[str(R3)] * 3])
    printed = dict(line.split(":", 1)
                   for line in capsys.readouterr().out.splitlines())
    closed = float(printed["smax closed"].split()[0])
    numeric = float(printed["smax numeric"])
    tilts = [float(t) for t in printed["theta-tilde (deg)"].split()]
    ok = (code == 0 and abs(closed - W_SYM_MAX) <= 5e-4
          and abs(numeric - W_SYM_MAX) <= 5e-4
          and all(abs(t - 54.736) <= 1e-3 for t in tilts))
    _report(capsys, 1, ok, f"symmetric W: closed={closed:.7f} numeric={numeric:.7f} "
            f"theta_tilde={tilts[0]:.5f}deg (tol 5e-4 / 0.001deg)")
    assert ok


def test_criterion_02_ghz_maximum(capsys):
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    state = qcore.ghz_state(params)
    numeric = optimize.multistart_maximize(state, seed=0).best_value
    at_settings = bell.svetlichny_value_direct(
        state, bell.optimal_settings_ghz(params))
    ok = (abs(numeric - 4.0 * R2) <= 1e-4
          and abs(at_settings - 4.0 * R2) <= 1e-9)
    _report(capsys, 2, ok, f"GHZ maximum: numeric={numeric:.9f} "
            f"settings={at_settings:.12f} vs 4sqrt2={4.0 * R2:.12f} "
            f"(tol 1e-4 / 1e-9)")
    assert ok


def test_criterion_03_ghz_grid_and_fig1(capsys, tmp_path):
    rows = optimize.verify_grid_ghz(
        21, np.linspace(0.0, math.pi / 2, 21), seed=0)
    below = [r for r in rows if r.flag == "numeric-below"]
    unflagged_bad = [r for r in rows
                     if abs(r.gap) > 1e-3 and r.flag == "match"]
    out = tmp_path / "fig1_ghz.csv"
    csv_ok = cli.main(["sweep-ghz", "--out", str(out)]) == 0
    lines = out.read_text().splitlines() if out.exists() else []
    csv_ok = csv_ok and len(lines) == 1 + 3 * 21
    boundary_worst = max(
        abs(4.0 * math.sqrt(1.0 - tau)
            - 4.0 * math.sqrt((1.0 - 3.0 * tau) + 2.0 * tau))
        for tau in np.linspace(0.0, 1.0 / 3.0, 100))
    ok = (not below and not unflagged_bad and csv_ok
          and boundary_worst <= 1e-12)
    worst_gap = max(abs(r.gap) for r in rows)
    _report(capsys, 3, ok, f"Eq.(19) 21x21 grid: worst|gap|={worst_gap:.2e} "
            f"numeric-below={len(below)} fig1-rows={max(len(lines) - 1, 0)} "
            f"branch-boundary={boundary_worst:.1e} (tol 1e-3 / 1e-12)")
    assert ok


def test_criterion_04_fig2_reproduction(capsys, tmp_path):
    out = tmp_path / "fig2_w.csv"
    csv_ok = cli.main(["sweep-w", "--out", str(out)]) == 0
    lines = out.read_text().splitlines() if out.exists() else []
    rows = [line.split(",") for line in lines[1:]]
    by_curve = {}
    for row in rows:
        by_curve.setdefault(round(float(row[0]), 6), []).append(
            [float(v) for v in row[1:]])
    gaps = [abs(float(row[6])) for row in rows]
    start_vals = [curve[0][3] for curve in by_curve.values()]
    symmetric = [curve[-1] for curve in by_curve.values()
                 if abs(curve[-1][2] - 2.0) < 1e-6]
    ok = (csv_ok and len(by_curve) == 3
          and all(abs(v - 4.0) <= 1e-6 for v in start_vals)
          and len(symmetric) == 1
          and abs(symmetric[0][3] - 4.3546) <= 1e-4
          and max(gaps) <= 1e-3)
    _report(capsys, 4, ok, f"Fig.2 sweep: curves={len(by_curve)} "
            f"start values={['%.6f' % v for v in start_vals]} "
            f"symmetric endpoint={symmetric[0][3] if symmetric else None} "
            f"worst|gap|={max(gaps) if gaps else 1:.2e} (tol 1e-3)")
    assert ok


def test_criterion_05_boundary_states(capsys):
    product = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    tri = optimize.multistart_maximize(product, seed=0).best_value
    biseparable = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, 0.0))
    bi = optimize.multistart_maximize(biseparable, seed=0).best_value
    ok = abs(tri - 4.0) <= 1e-6 and abs(bi - 4.0) <= 1e-6
    _report(capsys, 5, ok, f"boundary states: tri-separable={tri:.9f} "
            f"bi-separable={bi:.9f} vs 4 (tol 1e-6)")
    assert ok


def _pair_residual(s):
    c12 = entanglement.concurrence_two_qubit(qcore.partial_trace(s, (1, 2)))
    c31 = entanglement.concurrence_two_qubit(qcore.partial_trace(s, (1, 3)))
    return entanglement.concurrence_bipartition(s, 1) ** 2 - c12 ** 2 - c31 ** 2


def test_criterion_06_monogamy(capsys):
    rng = np.random.default_rng(2024)
    haar_min = min(_pair_residual(qcore.haar_random_state(rng))
                   for _ in range(10_000))
    # W states in a random local basis, rotated from a stream of their own.
    rotations = np.random.default_rng(qcore._derived_seed(2024, 1))
    w_worst = 0.0
    for _ in range(1000):
        amps = np.abs(rng.normal(size=3))
        amps /= np.linalg.norm(amps)
        w = qcore.w_state(qcore.WClassParams(*amps)).amplitudes
        res = _pair_residual(qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rotations) @ w))
        w_worst = max(w_worst, abs(res))
    ok = haar_min >= -1e-9 and w_worst < 1e-9
    _report(capsys, 6, ok, f"monogamy: min residual over 1e4 Haar={haar_min:.2e} "
            f"worst |residual| over 1e3 W={w_worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_07_oracle_equivalence(capsys):
    rng = np.random.default_rng(7)
    worst12 = worst24 = worst_red = 0.0
    for _ in range(1000):
        params = qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))
        dirs = [qcore.UnitVector(*(v / np.linalg.norm(v)))
                for v in rng.normal(size=(3, 3))]
        op = qcore.tensor3(*(qcore.spin_observable(d) for d in dirs))
        worst12 = max(worst12, abs(
            bell.ghz_correlator_closed(params, *dirs)
            - qcore.expectation(qcore.ghz_state(params), op)))
        amps = np.abs(rng.normal(size=3))
        amps /= np.linalg.norm(amps)
        w_params = qcore.WClassParams(*amps)
        profile = entanglement.w_profile_closed(w_params)
        w = qcore.w_state(w_params)
        worst24 = max(worst24, abs(
            bell.w_correlator_closed(profile, *dirs)
            - qcore.expectation(w, op)))
        tilde = rng.uniform(0.0, math.pi, size=3)
        s_op = bell.bell_operators(bell.settings_from_w_angles(*tilde))[0]
        worst_red = max(worst_red, abs(
            bell.w_reduced_value(profile, *tilde) - qcore.expectation(w, s_op)))
    ok = max(worst12, worst24, worst_red) <= 1e-10
    _report(capsys, 7, ok, f"oracles on 1e3 draws: eq12={worst12:.2e} "
            f"eq24={worst24:.2e} reduced={worst_red:.2e} (tol 1e-10)")
    assert ok


def test_criterion_08_mermin_factor(capsys):
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 10):
        for theta3 in np.linspace(0.0, math.pi / 2, 10):
            params = qcore.GhzClassParams(float(theta), float(theta3))
            state = qcore.ghz_state(params)
            s_op, m_op, _ = bell.bell_operators(
                bell.optimal_settings_ghz(params))
            worst = max(worst, abs(qcore.expectation(state, s_op)
                                   - 2.0 * qcore.expectation(state, m_op)))
    ok = worst <= 1e-9
    _report(capsys, 8, ok, f"Mermin factor on 10x10 grid: worst |<S>-2<M>|="
            f"{worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_09_ceiling(capsys):
    rng = np.random.default_rng(9)
    ceiling = bell.ALGEBRAIC_CEILING + 1e-9
    worst_spec = 0.0
    for _ in range(1000):
        vectors = rng.normal(size=(6, 3))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        s_op = bell.bell_operators(bell.settings_from_vectors(vectors))[0]
        worst_spec = max(worst_spec,
                         float(np.max(np.abs(np.linalg.eigvalsh(s_op)))))
    worst_opt = max(
        optimize.multistart_maximize(qcore.haar_random_state(rng), seed=9,
                                     n_starts=10).best_value
        for _ in range(100))
    ok = worst_spec <= ceiling and worst_opt <= ceiling
    _report(capsys, 9, ok, f"ceiling: max spectrum={worst_spec:.9f} "
            f"max optimizer={worst_opt:.9f} vs 4sqrt2={4.0 * R2:.9f}")
    assert ok


def test_criterion_10_monte_carlo(capsys):
    ghz_params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    ghz = qcore.ghz_state(ghz_params)
    ghz_ms = bell.optimal_settings_ghz(ghz_params)
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    tilt = math.acos(1 / math.sqrt(3))
    w_ms = bell.settings_from_w_angles(tilt, tilt, tilt)
    cases = [("ghz", ghz, ghz_ms, 4.0 * R2),
             ("w", w, w_ms, bell.svetlichny_value(w, w_ms))]
    hits = {}
    for name, state, ms, exact in cases:
        good = 0
        for seed in range(20):
            est = montecarlo.estimate_svetlichny(state, ms, 1_000_000, seed)
            if abs(abs(est.mean) - exact) <= 5.0 * est.stderr:
                good += 1
        hits[name] = good
    ok = all(v >= 19 for v in hits.values())
    _report(capsys, 10, ok, f"Monte Carlo 1e6 shots x 20 seeds: within 5 stderr "
            f"ghz={hits['ghz']}/20 w={hits['w']}/20 (need >=19)")
    assert ok
