"""Command-line interface: analyze, sweep-ghz, sweep-w, verify, simulate.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 I/O error.
All randomness flows from the --seed flag, so every command is
deterministic and CSV outputs are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .qcore import (
    GhzClassParams,
    ThreeQubitPureState,
    UnitVector,
    ValidationError,
    WClassParams,
    _derived_seed,
    expectation,
    ghz_state,
    haar_local_unitary,
    haar_random_state,
    spin_observable,
    tensor3,
    w_state,
)
from .entanglement import (
    entanglement_profile,
    entanglement_profiles,
    ghz_profile_closed,
    w_profile_closed,
)
from .bell import (
    ALGEBRAIC_CEILING,
    MeasurementSettings,
    SmaxReport,
    _ghz_branches,
    bell_operators,
    ghz_correlator_closed,
    optimal_settings_ghz,
    settings_from_w_angles,
    smax_ghz_closed,
    smax_w,
    svetlichny_value,
    svetlichny_value_direct,
    w_correlator_closed,
    w_reduced_value,
)
from .optimize import (
    MAX_GRID_STEPS,
    _random_directions,
    multistart_maximize,
    verify_grid_ghz,
    verify_grid_w,
)
from .montecarlo import estimate_svetlichny

GHZ_CLASS_TAU_THRESHOLD = 1e-9
# A bipartition concurrence below this counts as zero: it is read as
# sqrt(2 (1 - purity)), so roundoff in a purity of 1 alone gives ~1e-8.
SEPARABLE_CONCURRENCE_TOL = 1e-7
# A maximum must pass 4 by more than roundoff to count as a violation.
VIOLATION_MARGIN = 1e-9
# Cases per stacked slice of a verify operator suite: enough that numpy's
# per-call overhead is spread thin, few enough that a slice's 8x8
# operators stay near 0.3 MB.
CASE_SLICE = 100

_PI_PATTERN = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_number(text: str, what: str) -> float:
    """Parse every number the CLI reads: a float literal, a pi multiple
    '[-][N][*]pi[/D]' such as 'pi/4' or '3pi/8', or a fraction 'N/D' of
    float literals such as '2/3'.  `what` names the field in errors."""
    match = _PI_PATTERN.match(text)
    try:
        if match:
            sign, num, den = match.groups()
            value = (-math.pi if sign else math.pi) * float(num or 1.0)
        else:
            num, sep, den = text.partition("/")
            value = float(num)
            den = den if sep else None
        den_value = 1.0 if den is None else float(den)
    except ValueError:
        raise ValidationError(f"cannot parse {what} literal {text!r}")
    if den_value == 0.0:
        raise ValidationError(f"zero denominator in {what} literal {text!r}")
    return value / den_value


@dataclass(frozen=True)
class StateSpec:
    """An input state and, for the GHZ and W families, a thunk computing
    the family's closed-form report; raw amplitudes have none."""

    state: ThreeQubitPureState
    closed: Optional[Callable[[], SmaxReport]] = None


_SETTINGS_NAMES = ("a", "a_prime", "b", "b_prime", "c", "c_prime")
_STATE_KEYS = {"ghz": ("theta", "theta3"), "w": ("alpha", "beta", "gamma"),
               "raw": tuple(f"amp{k}" for k in range(8))}


def _parse_keyvalue(text: str) -> dict:
    """'key: value' lines; a repeated key raises."""
    entries = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValidationError(f"malformed line {line!r}: expected key: value")
        key, value = (part.strip() for part in line.split(":", 1))
        if key in entries:
            raise ValidationError(f"repeated key {key!r}")
        entries[key] = value
    return entries


def _check_schema(entries: dict, schema) -> None:
    unknown = [key for key in entries if key not in schema]
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r}")


def parse_state_spec(text: str) -> StateSpec:
    """Parse the structured state document (family: ghz | w | raw).

    Besides `family`, a file may hold only its family's keys: theta and
    theta3, alpha, beta and gamma, or amp0 to amp7.
    """
    entries = _parse_keyvalue(text)
    family = entries.get("family")
    if family not in _STATE_KEYS:
        raise ValidationError(f"unknown or missing family {family!r}")
    _check_schema(entries, ("family",) + _STATE_KEYS[family])
    if family == "raw":
        amps = []
        for k in range(8):
            pair = entries.get(f"amp{k}", "[0, 0]").strip().strip("[]")
            parts = [parse_number(v, f"amp{k}") for v in pair.split(",")]
            if len(parts) != 2:
                raise ValidationError(f"amp{k} needs [re, im], got {pair!r}")
            amps.append(complex(*parts))
        return StateSpec(ThreeQubitPureState(amps))
    missing = [key for key in _STATE_KEYS[family] if key not in entries]
    if missing:
        raise ValidationError(f"{family} state file missing {missing[0]}")
    return _family_spec(family, [entries[key] for key in _STATE_KEYS[family]])


def _family_spec(family: str, values: Sequence[str]) -> StateSpec:
    """A GHZ spec from theta and theta3 literals, or a W spec from alpha,
    beta and gamma literals."""
    numbers = [parse_number(value, key)
               for key, value in zip(_STATE_KEYS[family], values)]
    if family == "ghz":
        ghz = GhzClassParams(*numbers)
        return StateSpec(ghz_state(ghz),
                         lambda: smax_ghz_closed(ghz_profile_closed(ghz)))
    w = WClassParams(*numbers)
    return StateSpec(w_state(w), lambda: smax_w(w_profile_closed(w)))


def parse_settings_file(text: str) -> MeasurementSettings:
    """Six lines 'name: polar azimuth' for a, a', b, b', c, c'."""
    entries = _parse_keyvalue(text)
    _check_schema(entries, _SETTINGS_NAMES)
    vectors = {}
    for name in _SETTINGS_NAMES:
        if name not in entries:
            raise ValidationError(f"settings file missing vector {name}")
        parts = entries[name].split()
        if len(parts) != 2:
            raise ValidationError(f"vector {name} needs 'polar azimuth'")
        vectors[name] = UnitVector.from_angles(
            parse_number(parts[0], f"{name} polar"),
            parse_number(parts[1], f"{name} azimuth"))
    return MeasurementSettings(**vectors)


def _read_input(path: str, what: str) -> str:
    """Text of an input file: exit 3 if it cannot be read, 2 if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} file {path} is not UTF-8: {exc}")
    except OSError as exc:
        print(f"error: cannot read {what} file: {exc}", file=sys.stderr)
        raise SystemExit(3)


def _spec_from_args(args) -> StateSpec:
    if args.state:
        return parse_state_spec(_read_input(args.state, "state"))
    if args.ghz:
        return _family_spec("ghz", args.ghz)
    if args.w:
        return _family_spec("w", args.w)
    raise ValidationError("provide one of --state, --ghz or --w")


def classify(profile) -> str:
    """The SLOCC class of a profile (Dur, Vidal and Cirac, PRA 62, 062314).

    product when every c_i(jk) vanishes, bi-separable when one does (two
    vanishing force the third), else GHZ-class when tau > 0 and W-class
    when tau = 0.
    """
    cuts = (profile.c1_23, profile.c2_13, profile.c3_12)
    vanishing = sum(c <= SEPARABLE_CONCURRENCE_TOL for c in cuts)
    if vanishing == len(cuts):
        return "product"
    if vanishing:
        return "bi-separable"
    return "GHZ-class" if profile.tau > GHZ_CLASS_TAU_THRESHOLD else "W-class"


def cmd_analyze(args) -> int:
    spec = _spec_from_args(args)
    profile = entanglement_profile(spec.state)
    classification = classify(profile)
    closed = spec.closed() if spec.closed is not None else None
    numeric = multistart_maximize(spec.state, args.seed)
    violates = numeric.best_value > 4.0 + VIOLATION_MARGIN
    print(f"tau:               {profile.tau:.9g}")
    print(f"c12 c23 c31:       {profile.c12:.9g} {profile.c23:.9g} "
          f"{profile.c31:.9g}")
    print(f"c1(23) c2(13) c3(12): {profile.c1_23:.9g} {profile.c2_13:.9g} "
          f"{profile.c3_12:.9g}")
    print(f"monogamy residual: {profile.monogamy_residual:.9g}")
    print(f"classification:    {classification}")
    if closed is not None:
        print(f"smax closed:       {closed.closed_value:.9g} ({closed.branch})")
        if closed.theta_tilde is not None:
            degs = " ".join(f"{math.degrees(t):.5f}" for t in closed.theta_tilde)
            print(f"theta-tilde (deg): {degs}")
    print(f"smax numeric:      {numeric.best_value:.9g}")
    print(f"optimality residual: {numeric.residual:.3e} "
          f"({'converged' if numeric.converged else 'not converged'})")
    print(f"upper bound:       {numeric.upper_bound:.9g}")
    print(f"global maximum:    "
          f"{'certified' if numeric.global_maximum else 'not certified'}")
    print(f"verdict:           "
          f"{'violates' if violates else 'no violation'} (threshold 4)")
    return 0


def _write_sweep(path: str, header: Sequence[str],
                 out_rows: Sequence[Sequence], rows: Sequence):
    """Write a sweep CSV of out_rows, then report the flagged rows."""
    def fmt(value):
        if isinstance(value, float):
            return f"{value:.9g}"
        return str(value)

    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in out_rows:
                writer.writerow([fmt(v) for v in row])
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(3)
    flagged = [r for r in rows if r.flag != "match"]
    print(f"wrote {len(rows)} rows to {path}; {len(flagged)} flagged")
    for row in flagged:
        print(f"finding: params={row.params} gap={row.gap:.3e} flag={row.flag}")


def cmd_sweep_ghz(args) -> int:
    theta3_values = [parse_number(v, "theta3") for v in args.theta3.split(",")]
    rows = verify_grid_ghz(args.theta_steps, theta3_values, args.seed)
    out_rows = [[*row.params, row.profile.tau, row.profile.c12 ** 2,
                 row.closed.closed_value, row.numeric_value, row.closed.branch,
                 row.gap] for row in rows]
    _write_sweep(args.out, ["theta", "theta3", "tau", "c12_sq", "smax_closed",
                            "smax_numeric", "branch", "gap"], out_rows, rows)
    return 0


def cmd_sweep_w(args) -> int:
    c12_values = [parse_number(v, "c12") for v in args.c12.split(",")]
    rows = verify_grid_w(c12_values, args.sum_steps, args.seed)
    out_rows = [[*row.params, sum(row.params), row.closed.closed_value,
                 row.numeric_value, row.gap] for row in rows]
    _write_sweep(args.out, ["c12", "c23", "c31", "sum_c", "smax_closed",
                            "smax_numeric", "gap"], out_rows, rows)
    return 0


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    count: int
    worst: float
    detail: str


def _worst_case(name: str, tol: float, cases: Iterable[tuple],
                describe: Callable[..., str]) -> SuiteResult:
    """Largest error over `(error, *case)` tuples; passes when it is <= tol.

    `describe(*case)` is formatted only for a new worst case.  A NaN error
    is worse than any number, so it is reported and fails the suite.
    """
    worst, detail, count = 0.0, "", 0
    for error, *case in cases:
        count += 1
        if error > worst or (math.isnan(error) and not math.isnan(worst)):
            worst, detail = error, describe(*case)
    return SuiteResult(name, worst <= tol, count, worst, detail)


def _random_ghz_params(rng: np.random.Generator) -> GhzClassParams:
    return GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))


def _random_w_params(rng: np.random.Generator) -> WClassParams:
    amps = np.abs(rng.normal(size=3))
    amps /= np.linalg.norm(amps)
    return WClassParams(*amps)


def _in_slices(cases: Iterable[tuple],
               compute: Callable[[list], Iterable]) -> Iterator[tuple]:
    """Each case of `cases` paired with its entry of compute(slice).

    The cases are drawn CASE_SLICE at a time, and `compute` takes a list
    of them to one result per case through stacked calls.  A slice's pairs
    are yielded before the next slice is drawn, so the memory stays
    bounded for any number of cases.
    """
    cases = iter(cases)
    while batch := list(itertools.islice(cases, CASE_SLICE)):
        yield from zip(batch, compute(batch))


def _correlator_cases(rng: np.random.Generator, n: int, draw, closed, state):
    """Closed correlator `closed(params, a, b, c)` vs. the 8x8 operator."""
    def direct(batch):
        params, dirs = zip(*batch)
        ops = np.moveaxis(spin_observable(np.stack(dirs)), -3, 0)
        return expectation(np.stack([state(p).amplitudes for p in params]),
                           tensor3(*ops)).tolist()

    draws = ((draw(rng), _random_directions(rng, 3)) for _ in range(n))
    for (params, dirs), value in _in_slices(draws, direct):
        a, b, c = (UnitVector(*v) for v in dirs)
        yield abs(closed(params, a, b, c) - value), params, a, b, c


def _w_reduced_cases(rng: np.random.Generator, n: int):
    def direct(batch):
        params, tildes = zip(*batch)
        s_op = bell_operators(np.stack([
            settings_from_w_angles(*tilde).vectors() for tilde in tildes]))[0]
        return expectation(np.stack([w_state(p).amplitudes for p in params]),
                           s_op).tolist()

    draws = ((_random_w_params(rng), rng.uniform(0.0, math.pi, size=3))
             for _ in range(n))
    for (params, tilde), value in _in_slices(draws, direct):
        reduced = w_reduced_value(w_profile_closed(params), *tilde)
        yield abs(reduced - value), params, tilde


def _tensor_vs_direct_cases(rng: np.random.Generator, n: int):
    def errors(batch):
        amps, vectors = (np.stack(column) for column in zip(*batch))
        return np.abs(svetlichny_value(amps, vectors)
                      - svetlichny_value_direct(amps, vectors)).tolist()

    draws = ((haar_random_state(rng).amplitudes, _random_directions(rng, 6))
             for _ in range(n))
    for k, (_, error) in enumerate(_in_slices(draws, errors)):
        yield error, k


def _monogamy_cases(rng: np.random.Generator, rotations: np.random.Generator,
                    n_haar: int, n_w: int):
    """A Haar residual must not be negative; a W-class residual must vanish
    in any local basis, here one drawn from `rotations` for each W state.

    The draws stream through `entanglement_profiles`, all Haar states
    first, so at most one of its slices is alive."""
    def w_rotated() -> ThreeQubitPureState:
        w = w_state(_random_w_params(rng)).amplitudes
        return ThreeQubitPureState(haar_local_unitary(rotations) @ w)

    for kind, n, draw, error in (
            ("haar", n_haar, lambda: haar_random_state(rng), lambda r: -r),
            ("w", n_w, w_rotated, abs)):
        draws = (draw() for _ in range(n))
        for k, profile in enumerate(entanglement_profiles(draws)):
            residual = profile.monogamy_residual
            yield error(residual), kind, k, residual


def _branch_continuity_cases(n: int):
    """The two GHZ branches at the boundary 3 tau + c12^2 = 1."""
    for tau in np.linspace(0.0, 1.0 / 3.0, n):
        _, low, high = _ghz_branches(tau, 1.0 - 3.0 * tau)
        yield abs(low - high), tau


def _mermin_factor_cases(n_side: int):
    def errors(params):
        amps = np.stack([ghz_state(p).amplitudes for p in params])
        s_op, m_op, _ = bell_operators(np.stack([
            optimal_settings_ghz(p).vectors() for p in params]))
        return np.abs(expectation(amps, s_op)
                      - 2.0 * expectation(amps, m_op)).tolist()

    grid = np.linspace(0.0, math.pi / 2, n_side)
    draws = (GhzClassParams(float(theta), float(theta3))
             for theta, theta3 in itertools.product(grid, grid))
    for params, error in _in_slices(draws, errors):
        yield error, params


def _ceiling_cases(rng: np.random.Generator, n: int):
    """|S| <= 4 sqrt 2 and |M| <= 4 on random settings.  The error is the
    |S| spectrum, made infinite when |M| is not within 4 (also when it is
    NaN), so either bound fails the suite."""
    def tops(batch):
        s_op, m_op, _ = bell_operators(np.stack(batch))
        return zip(*(np.max(np.abs(np.linalg.eigvalsh(op)), axis=-1).tolist()
                     for op in (s_op, m_op)))

    draws = (_random_directions(rng, 6) for _ in range(n))
    for k, (_, (s_top, m_top)) in enumerate(_in_slices(draws, tops)):
        yield s_top if m_top <= 4.0 + 1e-9 else math.inf, k, s_top, m_top


def verification_battery(seed: int = 0) -> List[SuiteResult]:
    """The full invariant battery behind the verify command."""
    rng = np.random.default_rng(seed)
    # The W rotations' own stream, so the other suites' draws do not move.
    rotations = np.random.default_rng(_derived_seed(seed, 1))

    def correlator(p, a, b, c):
        return f"params={p} a={a} b={b} c={c}"

    return [
        _worst_case("eq12-oracle", 1e-10, _correlator_cases(
            rng, 1000, _random_ghz_params, ghz_correlator_closed, ghz_state),
            correlator),
        _worst_case("eq24-oracle", 1e-10, _correlator_cases(
            rng, 1000, _random_w_params,
            lambda p, *dirs: w_correlator_closed(w_profile_closed(p), *dirs),
            w_state), correlator),
        _worst_case("w-reduced-oracle", 1e-9, _w_reduced_cases(rng, 500),
                    lambda p, tilde: f"params={p} tilde={tilde.tolist()}"),
        _worst_case("tensor-vs-direct", 1e-10,
                    _tensor_vs_direct_cases(rng, 1000), lambda k: f"case {k}"),
        _worst_case("monogamy", 1e-9,
                    _monogamy_cases(rng, rotations, 1000, 200),
                    lambda kind, k, r: f"{kind} case {k}: residual {r}"),
        _worst_case("branch-continuity", 1e-13, _branch_continuity_cases(100),
                    lambda tau: f"tau={tau}"),
        _worst_case("mermin-factor", 1e-9, _mermin_factor_cases(10),
                    lambda p: f"params={p}"),
        _worst_case("ceiling", ALGEBRAIC_CEILING + 1e-9,
                    _ceiling_cases(rng, 200),
                    lambda k, s, m: f"case {k}: |S|={s} |M|={m}"),
    ]


def cmd_verify(args) -> int:
    results = verification_battery(args.seed)
    failures = 0
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"{status}  {result.name:20s} cases={result.count:5d} "
              f"worst={result.worst:.3e}")
        if not result.passed:
            failures += 1
            print(f"      failing case: {result.detail}")
    print(f"{len(results) - failures}/{len(results)} suites passed")
    return 0 if failures == 0 else 1


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    if args.settings != "optimal":
        settings = parse_settings_file(_read_input(args.settings, "settings"))
    elif spec.closed is not None:
        settings = spec.closed().achieving_settings
    else:
        settings = multistart_maximize(spec.state, args.seed).best_settings
    exact = svetlichny_value(spec.state, settings)
    estimate = estimate_svetlichny(spec.state, settings, args.shots, args.seed)
    z_score = ((abs(estimate.mean) - exact) / estimate.stderr
               if estimate.stderr > 0 else 0.0)
    print(f"shots per correlator: {estimate.shots}")
    print(f"estimate:             {estimate.mean:.9g} "
          f"+/- {estimate.stderr:.3e}")
    print(f"exact value:          {exact:.9g}")
    print(f"z-score:              {z_score:.3f}")
    return 0


def _add_state_flags(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="state spec file")
    group.add_argument("--ghz", nargs=2, metavar=("THETA", "THETA3"))
    group.add_argument("--w", nargs=3, metavar=("ALPHA", "BETA", "GAMMA"))


def _add_seed_flag(parser: argparse.ArgumentParser, default):
    # --seed lives on the main parser (default 0) and on every subparser
    # (default SUPPRESS), so it is accepted on either side of the
    # subcommand without one side clobbering the other.
    parser.add_argument("--seed", type=int, default=default,
                        help="seed for every random draw (default 0)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Tripartite nonlocality of three-qubit pure states.")
    _add_seed_flag(parser, 0)
    parser.add_argument("--jobs", type=int, choices=(1,), default=1,
                        help="sweeps run in one process; only 1 is "
                             "accepted, and only before the command")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="entanglement and S_max report")
    _add_state_flags(analyze)
    _add_seed_flag(analyze, argparse.SUPPRESS)

    sweep_ghz = sub.add_parser("sweep-ghz", help="Fig.-1 style GHZ sweep CSV")
    sweep_ghz.add_argument("--theta-steps", type=int, default=21,
                           help="theta points per curve, 2 to "
                                f"{MAX_GRID_STEPS} (default 21)")
    sweep_ghz.add_argument("--theta3", default="pi/8,pi/4,pi/2",
                           help="comma-separated theta3 curve values")
    sweep_ghz.add_argument("--out", default="fig1_ghz.csv",
                           help="CSV output path (default fig1_ghz.csv)")
    _add_seed_flag(sweep_ghz, argparse.SUPPRESS)

    sweep_w = sub.add_parser("sweep-w", help="Fig.-2 style W sweep CSV")
    sweep_w.add_argument("--c12", default="0.35,0.45,2/3",
                         help="comma-separated fixed c12 curve values")
    sweep_w.add_argument("--sum-steps", type=int, default=21,
                         help="sums per curve, 2 to "
                              f"{MAX_GRID_STEPS} (default 21)")
    sweep_w.add_argument("--out", default="fig2_w.csv",
                         help="CSV output path (default fig2_w.csv)")
    _add_seed_flag(sweep_w, argparse.SUPPRESS)

    verify = sub.add_parser("verify", help="run the invariant battery")
    _add_seed_flag(verify, argparse.SUPPRESS)

    simulate = sub.add_parser("simulate", help="finite-shot Born sampling")
    _add_state_flags(simulate)
    simulate.add_argument("--settings", default="optimal",
                          help="'optimal' or a settings file path")
    simulate.add_argument("--shots", type=int, default=1_000_000,
                          help="shots per correlator, 1 to 2**63 - 1 "
                               "(default 1000000)")
    _add_seed_flag(simulate, argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        # Looked up per call, so a rebound cmd_* function is the one run.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
