import argparse
import csv
import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest

from tribell import bell, cli, entanglement, optimize, qcore


R3 = 1 / math.sqrt(3)


def _assert_parse_number(accepted, rejected):
    """A reject names its field and the whole literal."""
    for text, what, value in accepted:
        assert cli.parse_number(text, what) == value, text
    for text, what in rejected:
        with pytest.raises(qcore.ValidationError,
                           match=re.escape(f"{what} literal {text!r}")):
            cli.parse_number(text, what)


def test_parse_angle_fractions():
    """Angle flags read multiples and fractions of pi."""
    _assert_parse_number(
        accepted=[
            ("pi/4", "theta", math.pi / 4),
            ("3pi/8", "theta", 3 * math.pi / 8),
            ("2*pi", "theta", 2 * math.pi),
            ("-pi/2", "theta", -math.pi / 2),
            ("pi", "theta", math.pi),
            ("0.75", "theta", 0.75),
            ("2/3", "theta", 2.0 / 3.0),
        ],
        rejected=[("four", "theta"), ("pi/0", "theta3")])


def test_eval_fraction():
    """Every other number flag and file field reads the same literals."""
    _assert_parse_number(
        accepted=[
            ("2/3", "c12", 2.0 / 3.0),
            ("0.45", "c12", 0.45),
            ("pi/8", "c12", math.pi / 8),
            ("1e-3", "alpha", 1e-3),
            ("-2/3", "amp0", -2.0 / 3.0),
        ],
        rejected=[("abc", "c12"), ("1/0", "c12"), ("2/", "c12"),
                  ("1/2/3", "c12")])


def test_parse_state_spec_ghz():
    spec = cli.parse_state_spec("family: ghz\ntheta: pi/4\ntheta3: pi/2\n")
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    assert np.array_equal(spec.state.amplitudes,
                          qcore.ghz_state(params).amplitudes)
    assert spec.closed() == bell.smax_ghz_closed(
        entanglement.ghz_profile_closed(params))


def test_parse_state_spec_w():
    text = f"family: w\nalpha: {R3}\nbeta: {R3}\ngamma: {R3}\n"
    spec = cli.parse_state_spec(text)
    params = qcore.WClassParams(R3, R3, R3)
    assert np.array_equal(spec.state.amplitudes,
                          qcore.w_state(params).amplitudes)
    assert spec.closed() == bell.smax_w(entanglement.w_profile_closed(params))


@pytest.mark.parametrize("flags, fields", [
    (["--ghz", "1.2", "pi/8"], "family: ghz\ntheta: 1.2\ntheta3: pi/8\n"),
    (["--w", "0.6", "0.64", "0.48"],
     "family: w\nalpha: 0.6\nbeta: 0.64\ngamma: 0.48\n"),
])
def test_state_flags_and_state_files_build_the_same_spec(flags, fields):
    args = cli.build_parser().parse_args(["analyze", *flags])
    from_flags = cli._spec_from_args(args)
    from_file = cli.parse_state_spec(fields)
    assert np.array_equal(from_flags.state.amplitudes,
                          from_file.state.amplitudes)
    assert from_flags.closed() == from_file.closed()


def test_w_errors_name_the_field_from_flags_and_files(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text("family: w\nalpha: 0.6\nbeta: x\ngamma: 0.48\n")
    for argv in (["--w", "0.6", "x", "0.48"], ["--state", str(path)]):
        assert cli.main(["analyze", *argv]) == 2
        assert capsys.readouterr().err == (
            "input error: cannot parse beta literal 'x'\n")


def test_parse_state_spec_raw():
    text = "family: raw\namp0: [0.6, 0]\namp7: [0, 0.8]\n"
    spec = cli.parse_state_spec(text)
    amps = spec.state.amplitudes
    assert amps[0] == pytest.approx(0.6)
    assert amps[7] == pytest.approx(0.8j)
    assert spec.closed is None


def test_parse_state_spec_rejects_unknown_family():
    with pytest.raises(qcore.ValidationError):
        cli.parse_state_spec("family: cluster\n")
    with pytest.raises(qcore.ValidationError):
        cli.parse_state_spec("theta: pi/4\n")


def test_parse_settings_file():
    lines = "\n".join(
        f"{name}: pi/2 0" for name in
        ("a", "a_prime", "b", "b_prime", "c", "c_prime"))
    ms = cli.parse_settings_file(lines + "\n")
    assert np.allclose(ms.vectors()[0], [1.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(qcore.ValidationError):
        cli.parse_settings_file("a: pi/2 0\n")
    with pytest.raises(qcore.ValidationError):
        cli.parse_settings_file(lines.replace("a: pi/2 0", "a: pi/2"))
    for bad in ("4 0", "nan 0", "inf 0", "pi/2 nan"):
        with pytest.raises(qcore.ValidationError):
            cli.parse_settings_file(lines.replace("a: pi/2 0", f"a: {bad}"))
    for extra in ("a: 0 0", "d: 0 0", "a': 0 0"):
        with pytest.raises(qcore.ValidationError):
            cli.parse_settings_file(lines + "\n" + extra + "\n")


def test_parse_settings_file_takes_any_azimuth():
    names = ("a", "a_prime", "b", "b_prime", "c", "c_prime")
    wrapped = cli.parse_settings_file("\n".join(
        f"{name}: 1.1 {2 * math.pi + 0.1!r}" for name in names))
    expected = qcore._angle_components(1.1, 0.1)
    assert np.allclose(wrapped.vectors(), expected, rtol=0.0, atol=1e-15)
    # An azimuth in range reaches _angle_components unchanged.
    rng = np.random.default_rng(9)
    angles = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
              for _ in names]
    ms = cli.parse_settings_file("\n".join(
        f"{name}: {polar!r} {azimuth!r}"
        for name, (polar, azimuth) in zip(names, angles)))
    assert np.array_equal(ms.vectors(), [
        qcore._angle_components(*pair) for pair in angles])


def test_analyze_ghz(capsys):
    code = cli.main(["analyze", "--ghz", "pi/4", "pi/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "GHZ-class" in out
    assert "5.65685425" in out
    assert "violates" in out


def test_analyze_w_symmetric(capsys):
    code = cli.main(["analyze", "--w", str(R3), str(R3), str(R3)])
    out = capsys.readouterr().out
    assert code == 0
    assert "W-class" in out
    assert "4.35464843" in out
    assert "54.73561" in out
    # Five decimals of a degree: the optimizer resolves about 1e-6 degree.
    assert "theta-tilde (deg): 54.73561 54.73561 54.73561\n" in out


def test_analyze_bell_pair_times_a_qubit_does_not_violate(capsys):
    # A bi-separable state sits at S = 4; roundoff must not make it violate.
    code = cli.main(["analyze", "--ghz", "pi/4", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict:           no violation (threshold 4)\n" in out


@pytest.mark.parametrize("argv, expected", [
    (["--ghz", "pi/4", "pi/2"], "GHZ-class"),
    (["--w", "0.6", "0.64", "0.48"], "W-class"),
    # A Bell pair on qubits 1 and 2 times |0>.
    (["--ghz", "pi/4", "0"], "bi-separable"),
    (["--ghz", "0", "pi/2"], "product"),
])
def test_analyze_classifies_from_the_profile(argv, expected, capsys):
    assert cli.main(["analyze", *argv]) == 0
    assert f"classification:    {expected}\n" in capsys.readouterr().out


def test_analyze_reads_a_rotated_w_state_as_the_w_input(tmp_path, capsys):
    assert cli.main(["analyze", "--w", "0.6", "0.64", "0.48"]) == 0
    concurrences = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("c12 c23 c31:")]
    assert concurrences == ["c12 c23 c31:       0.6144 0.768 0.576"]
    w = qcore.w_state(qcore.WClassParams(0.6, 0.64, 0.48)).amplitudes
    rng = np.random.default_rng(23)
    path = tmp_path / "rotated.txt"
    for _ in range(20):
        amps = qcore.haar_local_unitary(rng) @ w
        path.write_text("family: raw\n" + "".join(
            f"amp{k}: [{a.real:.17g}, {a.imag:.17g}]\n"
            for k, a in enumerate(amps)))
        assert cli.main(["analyze", "--state", str(path)]) == 0
        out = capsys.readouterr().out
        assert "classification:    W-class\n" in out
        assert f"{concurrences[0]}\n" in out


def test_analyze_prints_the_optimality_residual_after_the_maximum(capsys):
    assert cli.main(["analyze", "--w", "0.6", "0.64", "0.48"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = [k for k, line in enumerate(lines)
          if line.startswith("smax numeric:")][0]
    assert lines[at + 1].startswith("optimality residual: ")
    value, status = lines[at + 1].split(": ")[1].split(" ", 1)
    assert float(value) <= 1e-9
    assert status == "(converged)"


@pytest.mark.parametrize("argv, status", [
    (["--ghz", "1.2", "0.2"], "certified"),
    (["--w", "0.6", "0.64", "0.48"], "not certified"),
])
def test_analyze_states_the_global_certificate_after_the_residual(
        argv, status, capsys):
    assert cli.main(["analyze", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = [k for k, line in enumerate(lines)
          if line.startswith("optimality residual:")][0]
    label, bound = lines[at + 1].split(":")
    assert label == "upper bound"
    numeric = float(lines[at - 1].split(":")[1])
    assert numeric <= float(bound) + 1e-8
    assert lines[at + 2] == f"global maximum:    {status}"


def test_analyze_claims_no_global_maximum_without_convergence(
        monkeypatch, capsys):
    def uncertified(state, seed):
        result = optimize.multistart_maximize(state, seed)
        return dataclasses.replace(result, converged=False, residual=1e-3)

    monkeypatch.setattr(cli, "multistart_maximize", uncertified)
    assert cli.main(["analyze", "--ghz", "1.2", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "optimality residual: 1.000e-03 (not converged)\n" in out
    assert "global maximum:    not certified\n" in out


@pytest.mark.parametrize("argv", [
    ["sweep-ghz", "--theta-steps", str(10 ** 12)],
    ["sweep-w", "--sum-steps", str(10 ** 12)],
])
def test_a_huge_sweep_grid_exits_2_before_any_row_runs(argv, tmp_path,
                                                       capsys, monkeypatch):
    _assert_rejected_before_any_point(
        argv, f"[2, {optimize.MAX_GRID_STEPS}]", tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["sweep-ghz", "--theta-steps", "10000", "--theta3",
     ",".join(["0.1"] * 11)],
    ["sweep-w", "--sum-steps", "10000", "--c12", ",".join(["0.5"] * 11)],
    ["sweep-ghz", "--theta-steps", "2", "--theta3",
     ",".join(["0.1"] * 50_001)],
])
def test_a_sweep_with_too_many_curves_exits_2_before_any_point_is_built(
        argv, tmp_path, capsys, monkeypatch):
    _assert_rejected_before_any_point(
        argv, f"{optimize.MAX_GRID_POINTS}-point grid bound", tmp_path,
        capsys, monkeypatch)


def _assert_rejected_before_any_point(argv, message, tmp_path, capsys,
                                      monkeypatch):
    built = []

    def no_rows(*args, **kwargs):
        built.append(args)
        raise AssertionError("a grid of this size must not be built")

    monkeypatch.setattr(cli.np, "linspace", no_rows)
    monkeypatch.setattr(optimize, "_ghz_point", no_rows)
    monkeypatch.setattr(optimize, "_w_point", no_rows)
    monkeypatch.setattr(optimize, "_verification_rows", no_rows)
    out_path = tmp_path / "grid.csv"
    assert cli.main([*argv, "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert message in err
    assert built == []
    assert not out_path.exists()


@pytest.mark.parametrize("command", [["analyze"],
                                     ["simulate", "--shots", "1000"]])
def test_w_state_with_two_near_vanishing_concurrences(command, capsys):
    code = cli.main([*command, "--w", "1e-12", "0.1", "0.99498743710662"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""


def test_analyze_raw_product(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text("family: raw\namp0: [1, 0]\n")
    code = cli.main(["analyze", "--state", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no violation" in out


def test_analyze_missing_file_is_input_error(capsys):
    code = cli.main(["analyze", "--state", "/nonexistent/state.txt"])
    assert code == 3
    assert "cannot read state file" in capsys.readouterr().err


def test_unreadable_input_file_is_io_error(tmp_path, capsys):
    settings = tmp_path / "settings.txt"
    settings.write_text("".join(f"{name}: pi/2 0\n" for name in
                                ("a", "a_prime", "b", "b_prime", "c",
                                 "c_prime")))
    assert cli.main(["analyze", "--state", str(tmp_path)]) == 3
    assert cli.main(["simulate", "--state", str(tmp_path), "--settings",
                     str(settings), "--shots", "1"]) == 3
    assert cli.main(["simulate", "--ghz", "pi/4", "pi/2", "--settings",
                     str(tmp_path), "--shots", "1"]) == 3
    assert "cannot read settings file" in capsys.readouterr().err


def test_non_utf8_input_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xfffamily: ghz\ntheta: pi/4\ntheta3: pi/2\n")
    assert cli.main(["analyze", "--state", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert cli.main(["simulate", "--ghz", "pi/4", "pi/2", "--settings",
                     str(path), "--shots", "1"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_analyze_malformed_spec_is_input_error(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text("family: ghz\ntheta: pi/4\ntheta3: junk\n")
    assert cli.main(["analyze", "--state", str(path)]) == 2


@pytest.mark.parametrize("argv, state_text", [
    (["--w", "abc", "0.5", "0.5"], None),
    (["--ghz", "pi/0", "0"], None),
    (None, "family: ghz\ntheta: pi/4\n"),
    (None, "family: ghz\ntheta3: pi/4\n"),
    (None, "family: w\nbeta: 0.6\ngamma: 0.8\n"),
    (None, "family: w\nalpha: 0.6\ngamma: 0.8\n"),
    (None, "family: w\nalpha: 0.6\nbeta: 0.8\n"),
    (None, "family: w\nalpha: x\nbeta: 0.6\ngamma: 0.8\n"),
    (None, "family: raw\namp0: [1, 0, 0]\n"),
    (None, "family: raw\namp0: [1]\n"),
    (None, "family: raw\namp0: 1 0\n"),
    (None, "family: raw\namp0: [one, 0]\n"),
    (None, "family: ghz\ntheta: pi/4\ntheta3: pi/2\ntheta3: 0.1\n"),
    (None, "family: ghz\ntheta: pi/4\ntheta3: pi/2\nthetta: 3\n"),
    (None, "family: ghz\nfamily: ghz\ntheta: pi/4\ntheta3: pi/2\n"),
    (None, "family: w\nalpha: 0.6\nbeta: 0.8\ngamma: 0\ntheta: 1\n"),
    (None, "family: raw\namp0: [1, 0]\namp0: [0, 1]\n"),
    (None, "family: raw\namp0: [1, 0]\namp 7: [0, 1]\n"),
    (None, "family: raw\namp0: [1, 0]\namp8: [0, 1]\n"),
])
def test_analyze_malformed_input_is_input_error(argv, state_text, tmp_path,
                                                capsys):
    if state_text is not None:
        path = tmp_path / "state.txt"
        path.write_text(state_text)
        argv = ["--state", str(path)]
    assert cli.main(["analyze", *argv]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_jobs_other_than_1_exits_2(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--jobs", "2", "sweep-ghz", "--theta-steps", "2",
                  "--theta3", "pi/2", "--out", str(out_path)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out_path.exists()


# Every option each parser declares, besides -h; each is read by its command.
PARSER_OPTIONS = {
    "tribell": {"--seed", "--jobs"},
    "analyze": {"--seed", "--state", "--ghz", "--w"},
    "sweep-ghz": {"--seed", "--theta-steps", "--theta3", "--out"},
    "sweep-w": {"--seed", "--c12", "--sum-steps", "--out"},
    "verify": {"--seed"},
    "simulate": {"--seed", "--state", "--ghz", "--w", "--settings",
                 "--shots"},
}


def test_each_command_accepts_only_the_flags_it_reads(tmp_path, capsys):
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    options = {name: {option for action in each._actions
                      for option in action.option_strings}
               for name, each in {"tribell": parser, **sub.choices}.items()}
    assert options == {name: {"-h", "--help", *flags}
                       for name, flags in PARSER_OPTIONS.items()}
    out = str(tmp_path / "F")
    for argv in (["verify", "--out", out],
                 ["analyze", "--ghz", "pi/4", "pi/2", "--out", out],
                 ["simulate", "--ghz", "pi/4", "pi/2", "--shots", "1",
                  "--tol", "1"],
                 ["sweep-ghz", "--tol", "1e-6", "--out", out],
                 ["sweep-ghz", "--theta-steps", "2", "--jobs", "1",
                  "--out", out]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tribell") and (
            "error: unrecognized arguments: " in err), argv
        assert list(tmp_path.iterdir()) == [], argv


def test_sweep_w_with_no_realizable_point_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    args = ["sweep-w", "--c12", "1.5", "--sum-steps", "3",
            "--out", str(out_path)]
    assert cli.main(args) == 2
    assert "input error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_sweep_ghz_rejects_a_bad_theta3_before_any_row_runs(
        tmp_path, capsys, monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("no row may run before every point is checked")

    monkeypatch.setattr(optimize, "multistart_maximize", no_ascent)
    out_path = tmp_path / "fig1.csv"
    args = ["sweep-ghz", "--theta-steps", "200", "--theta3", "pi/8,pi/4,2",
            "--out", str(out_path)]
    assert cli.main(args) == 2
    assert "input error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_sweep_w_writes_the_sums_past_the_turn_of_a_low_c12_curve(
        tmp_path, capsys):
    # Below c12 = 1/3, c23 + c31 peaks before beta and gamma stop being
    # real, so every sum up to 1 + 2 c12 = 1.2 is realizable.
    out_path = tmp_path / "fig2.csv"
    args = ["sweep-w", "--c12", "0.1", "--sum-steps", "11",
            "--out", str(out_path)]
    assert cli.main(args) == 0
    capsys.readouterr()
    rows = [line.split(",")
            for line in out_path.read_text().splitlines()[1:]]
    assert len(rows) == 11
    assert float(rows[-1][3]) == pytest.approx(1.2, abs=1e-9)
    # The sum = 1.2 state violates the inequality.
    assert float(rows[-1][4]) > 4.0


def test_sweep_ghz_csv(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    args = ["sweep-ghz", "--theta-steps", "5", "--theta3", "pi/2",
            "--out", str(out_path)]
    assert cli.main(args) == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert lines[0] == ("theta,theta3,tau,c12_sq,smax_closed,smax_numeric,"
                        "branch,gap")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == pytest.approx(4.0)
    # Byte-identical rerun under the same seed.
    blob = out_path.read_bytes()
    assert cli.main(args) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == blob


def test_sweep_w_csv(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    args = ["sweep-w", "--c12", "2/3", "--sum-steps", "6",
            "--out", str(out_path)]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "skipping" not in out
    assert "wrote 6 rows" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "c12,c23,c31,sum_c,smax_closed,smax_numeric,gap"
    rows = [line.split(",") for line in lines[1:]]
    assert all(float(r[0]) == pytest.approx(2.0 / 3.0, abs=1e-8)
               for r in rows)
    # The curve starts at sum = c12, where c23 = c31 = 0 and S = 4.
    assert float(rows[0][3]) == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert float(rows[0][4]) == pytest.approx(4.0, abs=1e-6)
    # The sum = 2 endpoint is the symmetric state at the global maximum.
    assert float(rows[-1][3]) == pytest.approx(2.0, abs=1e-8)
    assert float(rows[-1][4]) == pytest.approx(4.3546, abs=1e-4)
    # Closed-form values are non-decreasing along the curve.
    closed = [float(r[4]) for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(closed, closed[1:]))


def test_default_sweep_w_matches_the_reduced_form_to_1e_9(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    assert cli.main(["sweep-w", "--out", str(out_path)]) == 0
    capsys.readouterr()
    with out_path.open(newline="") as handle:
        gaps = [float(row["gap"]) for row in csv.DictReader(handle)]
    assert len(gaps) == 63
    assert max(abs(gap) for gap in gaps) < 1e-9


def test_sweep_unwritable_path_is_io_error(capsys):
    args = ["sweep-ghz", "--theta-steps", "2", "--theta3", "pi/2",
            "--out", "/nonexistent/dir/out.csv"]
    assert cli.main(args) == 3
    assert "cannot write" in capsys.readouterr().err


def test_simulate_ghz(capsys):
    code = cli.main(["simulate", "--ghz", "pi/4", "pi/2",
                     "--shots", "20000", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact value:          5.65685425" in out
    z_line = [l for l in out.splitlines() if l.startswith("z-score")][0]
    assert abs(float(z_line.split(":")[1])) < 5.0


def test_simulate_prints_the_recorded_estimate_of_a_generic_state(capsys):
    # A generic GHZ-class state's Born table holds few round numbers, so a
    # moved bit in it or in the sampler's stream changes these lines.
    code = cli.main(["--seed", "3", "simulate", "--ghz", "0.5", "1.1",
                     "--shots", "100000"])
    assert code == 0
    assert capsys.readouterr().out == (
        "shots per correlator: 100000\n"
        "estimate:             4.49884 +/- 7.374e-03\n"
        "exact value:          4.50858936\n"
        "z-score:              -1.322\n")


def test_simulate_settings_file(tmp_path, capsys):
    path = tmp_path / "settings.txt"
    path.write_text("\n".join(
        f"{name}: pi/2 0" for name in
        ("a", "a_prime", "b", "b_prime", "c", "c_prime")) + "\n")
    code = cli.main(["simulate", "--ghz", "pi/4", "pi/2", "--shots", "100",
                     "--settings", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "shots per correlator: 100" in out


def test_simulate_with_a_settings_file_never_computes_the_closed_form(
        tmp_path, monkeypatch, capsys):
    # The W closed form is an L-BFGS-B run; a settings file makes it moot.
    def fail(profile):
        raise AssertionError("smax_w ran")

    monkeypatch.setattr(cli, "smax_w", fail)
    path = tmp_path / "settings.txt"
    path.write_text("".join(f"{name}: pi/2 0\n" for name in
                            ("a", "a_prime", "b", "b_prime", "c", "c_prime")))
    assert cli.main(["simulate", "--w", "0.6", "0.64", "0.48",
                     "--shots", "100", "--settings", str(path)]) == 0
    assert "shots per correlator: 100" in capsys.readouterr().out


def test_simulate_rejects_a_shot_count_past_int64(capsys):
    code = cli.main(["simulate", "--ghz", "pi/4", "pi/2",
                     "--shots", "100000000000000000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: shots must be at most 2**63 - 1")
    assert "Traceback" not in err


def test_simulate_missing_settings_file(capsys):
    code = cli.main(["simulate", "--ghz", "pi/4", "pi/2",
                     "--settings", "/nonexistent/settings.txt"])
    assert code == 3


def test_global_flags_accepted_on_both_sides(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["--seed", "9", "sweep-ghz", "--theta-steps", "2",
                     "--theta3", "pi/2", "--out", str(out_a)]) == 0
    assert cli.main(["sweep-ghz", "--theta-steps", "2", "--theta3", "pi/2",
                     "--seed", "9", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verification_battery_suites():
    results = cli.verification_battery(seed=123)
    names = [r.name for r in results]
    assert names == ["eq12-oracle", "eq24-oracle", "w-reduced-oracle",
                     "tensor-vs-direct", "monogamy", "branch-continuity",
                     "mermin-factor", "ceiling"]
    assert all(r.passed for r in results)


def test_monogamy_suite_reports_the_w_class_residuals(monkeypatch):
    profiles = cli.entanglement_profiles

    def w_residual_off_by_5e_10(states):
        # The suite's W-class states have tau = 0 in any local basis; its
        # Haar states at this seed have tau >= 7e-3.
        return [dataclasses.replace(result, monogamy_residual=5e-10)
                if result.tau < 1e-6 else result
                for result in profiles(states)]

    monkeypatch.setattr(cli, "entanglement_profiles", w_residual_off_by_5e_10)
    monogamy = cli.verification_battery(seed=0)[4]
    assert monogamy.name == "monogamy"
    assert monogamy.passed
    assert monogamy.worst == 5e-10


def test_worst_case_reports_the_worst_case_and_its_detail():
    cases = [(1e-12, "a"), (3e-10, "b"), (2e-10, "c")]
    result = cli._worst_case("demo", 1e-9, iter(cases), lambda k: f"case {k}")
    assert result == cli.SuiteResult("demo", True, 3, 3e-10, "case b")
    at_tol = cli._worst_case("demo", 1e-9, [(1e-9, 0)], str)
    assert at_tol.passed and at_tol.worst == 1e-9
    above = cli._worst_case("demo", 1e-9, [(0.0, 0), (2e-9, 1)], str)
    assert not above.passed and above.detail == "1"
    empty = cli._worst_case("demo", 1e-9, iter(()), str)
    assert empty == cli.SuiteResult("demo", True, 0, 0.0, "")
    nan = cli._worst_case("demo", 1e-9, [(0.0, 0), (math.nan, 1), (2e-9, 2),
                                         (math.nan, 3)], str)
    assert not nan.passed and math.isnan(nan.worst) and nan.detail == "1"


def test_nan_fails_the_continuity_and_ceiling_suites(monkeypatch):
    monkeypatch.setattr(bell, "math", types.SimpleNamespace(
        sqrt=lambda x: math.nan))
    continuity = cli._worst_case("branch-continuity", 1e-13,
                                 cli._branch_continuity_cases(5), str)
    assert not continuity.passed and math.isnan(continuity.worst)
    monkeypatch.setattr(cli.np.linalg, "eigvalsh",
                        lambda m: np.full(m.shape[:-1], math.nan))
    ceiling = cli._worst_case("ceiling", cli.ALGEBRAIC_CEILING + 1e-9,
                              cli._ceiling_cases(np.random.default_rng(0), 3),
                              lambda k, s_top, m_top: f"case {k}")
    assert not ceiling.passed and ceiling.count == 3
    assert ceiling.worst == math.inf


def test_an_m_spectrum_above_4_fails_the_ceiling_suite(monkeypatch):
    """|M| <= 4 is checked on its own: shifting M by 4.5 (M is traceless,
    so its top eigenvalue passes 4.5) fails the suite while |S| stays
    within 4 sqrt 2."""
    operators = cli.bell_operators

    def shifted(settings):
        s_op, m_op, m_prime_op = operators(settings)
        return s_op, m_op + 4.5 * np.eye(8), m_prime_op

    monkeypatch.setattr(cli, "bell_operators", shifted)
    ceiling, = [result for result in cli.verification_battery(0)
                if result.name == "ceiling"]
    assert not ceiling.passed and "|M|=" in ceiling.detail



# The stacked suites' cases as they were computed one at a time, from
# single-input calls on checked states and directions: the stacked suites
# must give the same stream.
def _correlator_cases_alone(rng, n, draw, closed, amplitudes):
    for _ in range(n):
        params = draw(rng)
        a, b, c = (v.tolist() for v in optimize._random_directions(rng, 3))
        op = qcore.tensor3(*(qcore.spin_observable(v) for v in (a, b, c)))
        state = qcore.ThreeQubitPureState(amplitudes(params))
        yield (abs(closed(params, a, b, c) - qcore.expectation(state, op)),
               params, a, b, c)


def _w_reduced_cases_alone(rng, n):
    for _ in range(n):
        params = cli._random_w_params(rng)
        tilde = rng.uniform(0.0, math.pi, size=3)
        reduced = bell.w_reduced_value(
            entanglement.w_profile_closed(params), *tilde)
        direct = qcore.expectation(qcore.w_state(params), bell.bell_operators(
            bell.settings_from_w_angles(*tilde))[0])
        yield abs(reduced - direct), params, tilde


def _tensor_vs_direct_cases_alone(rng, n):
    for k in range(n):
        state = qcore.haar_random_state(rng)
        ms = bell.settings_from_vectors(optimize._random_directions(rng, 6))
        yield (abs(bell.svetlichny_value(state, ms)
                   - bell.svetlichny_value_direct(state, ms)), k)


def _monogamy_cases_alone(rng, rotations, n_haar, n_w):
    for k in range(n_haar):
        residual = entanglement.entanglement_profile(
            qcore.haar_random_state(rng)).monogamy_residual
        yield -residual, "haar", k, residual
    for k in range(n_w):
        w = qcore.w_state(cli._random_w_params(rng)).amplitudes
        state = qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rotations) @ w)
        residual = entanglement.entanglement_profile(state).monogamy_residual
        yield abs(residual), "w", k, residual


def _mermin_factor_cases_alone(n_side):
    grid = np.linspace(0.0, math.pi / 2, n_side)
    for theta in grid:
        for theta3 in grid:
            params = qcore.GhzClassParams(float(theta), float(theta3))
            state = qcore.ghz_state(params)
            s_op, m_op, _ = bell.bell_operators(
                bell.optimal_settings_ghz(params))
            yield (abs(qcore.expectation(state, s_op)
                       - 2.0 * qcore.expectation(state, m_op)), params)


def _ceiling_cases_alone(rng, n):
    for k in range(n):
        s_op, m_op, _ = bell.bell_operators(bell.settings_from_vectors(
            optimize._random_directions(rng, 6)))
        s_top = float(np.max(np.abs(np.linalg.eigvalsh(s_op))))
        m_top = float(np.max(np.abs(np.linalg.eigvalsh(m_op))))
        yield s_top if m_top <= 4.0 + 1e-9 else math.inf, k, s_top, m_top


def _w_closed(params, *dirs):
    return bell.w_correlator_closed(entanglement.w_profile_closed(params),
                                    *dirs)


# Each suite's stacked and one-at-a-time cases, and a call of either at
# the suite's `verify` size; the Mermin grid, which draws nothing, is one
# point wider so that it spans two slices.  The correlator suites take the
# amplitude builders, and the monogamy suite a fixed rotation stream.
OPERATOR_SUITES = {
    "eq12-oracle": (cli._correlator_cases, _correlator_cases_alone,
                    lambda cases, rng: cases(
                        rng, 1000, cli._random_ghz_params,
                        bell.ghz_correlator_closed, qcore._ghz_amplitudes)),
    "eq24-oracle": (cli._correlator_cases, _correlator_cases_alone,
                    lambda cases, rng: cases(
                        rng, 1000, cli._random_w_params, _w_closed,
                        qcore._w_amplitudes)),
    "w-reduced-oracle": (cli._w_reduced_cases, _w_reduced_cases_alone,
                         lambda cases, rng: cases(rng, 500)),
    "tensor-vs-direct": (cli._tensor_vs_direct_cases,
                         _tensor_vs_direct_cases_alone,
                         lambda cases, rng: cases(rng, 1000)),
    "monogamy": (cli._monogamy_cases, _monogamy_cases_alone,
                 lambda cases, rng: cases(rng, np.random.default_rng(1),
                                          1000, 200)),
    "mermin-factor": (cli._mermin_factor_cases, _mermin_factor_cases_alone,
                      lambda cases, rng: cases(11)),
    "ceiling": (cli._ceiling_cases, _ceiling_cases_alone,
                lambda cases, rng: cases(rng, 200)),
}


def _plain(case):
    """A case with each number as the bytes of its float64 values, so that
    cases compare bit for bit: an error, a family's parameters, angles, and
    a direction's components."""
    def bits(value):
        if isinstance(value, (qcore.GhzClassParams, qcore.WClassParams)):
            value = dataclasses.astuple(value)
        if isinstance(value, (float, tuple, list, np.ndarray)):
            return np.asarray(value, dtype=float).tobytes()
        return value
    return tuple(bits(v) for v in case)


@pytest.mark.parametrize("seed", [0, 5, 123])
@pytest.mark.parametrize("suite", list(OPERATOR_SUITES))
def test_a_stacked_suite_yields_the_cases_of_its_one_at_a_time_loop(
        suite, seed):
    stacked, alone, run = OPERATOR_SUITES[suite]
    got = [_plain(case) for case in run(stacked, np.random.default_rng(seed))]
    expected = [_plain(case)
                for case in run(alone, np.random.default_rng(seed))]
    assert len(got) > cli.CASE_SLICE
    assert got == expected


def test_a_failing_correlator_suite_names_its_parameters_and_directions(
        monkeypatch):
    def off(params, a, d, c):
        return bell.ghz_correlator_closed(params, a, d, c) + params.theta

    monkeypatch.setattr(cli, "ghz_correlator_closed", off)
    eq12 = cli.verification_battery(0)[0]
    assert eq12.name == "eq12-oracle" and not eq12.passed
    cases = cli._correlator_cases(np.random.default_rng(0), 1000,
                                  cli._random_ghz_params, off,
                                  qcore._ghz_amplitudes)
    error, params, a, b, c = max(cases, key=lambda case: case[0])
    assert eq12.worst == error
    assert eq12.detail == f"params={params} a={a} b={b} c={c}"
    assert repr(params) in eq12.detail
    for name, direction in zip("abc", (a, b, c)):
        assert len(direction) == 3
        assert f"{name}={[float(v) for v in direction]}" in eq12.detail


def test_the_tensor_vs_direct_suite_needs_memory_that_does_not_grow():
    def peak(n):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            for _ in cli._tensor_vs_direct_cases(rng, n):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The first pass also pays one-off costs, such as numpy's caches.
    peak(100)
    one_slice = peak(100)
    assert peak(1000) <= 1.2 * one_slice

@pytest.mark.parametrize("argv", [
    ["analyze", "--ghz", "pi/4", "pi/2", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["simulate", "--ghz", "pi/4", "pi/2", "--shots", "1", "--seed", "-3"],
])
def test_negative_seed_is_input_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


def test_verify_command_exit_code(capsys, monkeypatch):
    sample = [cli.SuiteResult("demo", True, 5, 1e-12, "")]
    monkeypatch.setattr(cli, "verification_battery", lambda seed: sample)
    assert cli.main(["verify"]) == 0
    assert "pass" in capsys.readouterr().out
    failing = [cli.SuiteResult("demo", False, 5, 1.0, "case 3")]
    monkeypatch.setattr(cli, "verification_battery", lambda seed: failing)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "case 3" in out


def test_main_builds_the_parser_once_and_runs_the_current_command(
        capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "verification_battery",
                        lambda seed: seeds.append(seed) or [])
    assert cli.main(["--seed", "9", "verify"]) == 0
    assert cli.main(["verify"]) == 0
    assert seeds == [9, 0]
    assert cli.build_parser() is cli.build_parser()
    ran = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: ran.append(args) or 0)
    assert cli.main(["verify"]) == 0
    assert len(ran) == 1 and ran[0].seed == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["analyze", "--ghz", "0", "0"],
    ["sweep-ghz"],
    ["sweep-w"],
    ["verify"],
    ["simulate", "--ghz", "0", "0"],
])
def test_main_returns_the_exit_code_of_every_command(argv, monkeypatch):
    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(cli, name, lambda args: 7)
    assert cli.main(argv) == 7
