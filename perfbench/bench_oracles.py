"""Output oracles for the benchmark, computed without the tribell package.

Each check returns ``(attempted, errors)``: the number of operations it
checked and one message per operation that failed.  The closed forms are
written out here from the source paper and from Coffman, Kundu and
Wootters, PRA 61, 052306 (2000), so they are independent of the code
under test.  The CLI prints values with 9 significant digits, so every
comparison against printed output adds half a unit in that last digit.
"""

from __future__ import annotations

import csv
import io
import math
import re
from typing import List, Optional, Tuple

import numpy as np

CEILING = 4.0 * math.sqrt(2.0)
GAP_TOL = 1e-3
EXACT_TOL = 1e-9
Z_MAX = 5.0
SWEEP_HEADER = ["theta", "theta3", "tau", "c12_sq", "smax_closed",
                "smax_numeric", "branch", "gap"]
SWEEP_THETA_STEPS = 21
SWEEP_THETA3 = (math.pi / 8, math.pi / 4, math.pi / 2)
SWEEP_ROWS = SWEEP_THETA_STEPS * len(SWEEP_THETA3)

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

Check = Tuple[int, List[str]]


def printed_tol(value: float) -> float:
    """Half a unit in the 9th significant digit of `value`."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def _close(printed: float, exact: float, tol: float) -> bool:
    return abs(printed - exact) <= tol + printed_tol(printed)


def ghz_terms(theta: float, theta3: float) -> Tuple[float, float]:
    """(tau, c12^2) of the GHZ-class state
    cos(t)|000> + sin(t)cos(t3)|110> + sin(t)sin(t3)|111>."""
    s2 = math.sin(2.0 * theta) ** 2
    return s2 * math.sin(theta3) ** 2, s2 * math.cos(theta3) ** 2


def ghz_smax_closed(theta: float, theta3: float) -> float:
    """4 sqrt(1 - tau) when 3 tau + c12^2 <= 1, else 4 sqrt(c12^2 + 2 tau)."""
    tau, c12_sq = ghz_terms(theta, theta3)
    if 3.0 * tau + c12_sq <= 1.0:
        return 4.0 * math.sqrt(max(0.0, 1.0 - tau))
    return 4.0 * math.sqrt(c12_sq + 2.0 * tau)


def three_tangle(psi: np.ndarray) -> float:
    """tau = 4 |d1 - 2 d2 + 4 d3|, the Cayley hyperdeterminant form."""
    a = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
          + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def pair_concurrence(psi: np.ndarray, pair: Tuple[int, int]) -> float:
    """C = sqrt(|M|_F^2 - 2 |det M|) with M = Psi^T (sy x sy) Psi.

    Psi is the 4x2 matrix of amplitudes over (pair, remaining qubit), so
    Psi Psi^+ is the rank-2 reduced state of the pair (Wootters 1998).
    """
    solo = ({1, 2, 3} - set(pair)).pop()
    order = [pair[0] - 1, pair[1] - 1, solo - 1]
    big = np.asarray(psi, dtype=complex).reshape(2, 2, 2).transpose(order)
    big = big.reshape(4, 2)
    m = big.T @ _SPIN_FLIP @ big
    frob_sq = float(np.sum(np.abs(m) ** 2))
    return math.sqrt(max(0.0, frob_sq - 2.0 * abs(np.linalg.det(m))))


def _floats(text: str) -> List[float]:
    return [float(v) for v in text.split()]


def _field(stdout: str, label: str) -> Optional[str]:
    match = re.search(rf"^{re.escape(label)}:\s*(.*)$", stdout, re.MULTILINE)
    return match.group(1) if match else None


def check_sweep_ghz(csv_text: str) -> Check:
    """Every row of the Fig.-1 grid, checked against the closed form.

    Rows are matched to the expected (theta, theta3) grid; a missing or
    unexpected row counts as one failed operation.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return SWEEP_ROWS, [f"bad CSV header {rows[:1]}"] * SWEEP_ROWS
    grid = [(theta, theta3) for theta3 in SWEEP_THETA3
            for theta in np.linspace(0.0, math.pi / 2, SWEEP_THETA_STEPS)]
    unmatched = list(range(len(grid)))
    errors = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            theta, theta3, tau, c12_sq, closed, numeric = (
                float(v) for v in row[:6])
            gap = float(row[7])
        except (ValueError, IndexError):
            errors.append(f"line {line}: unparsable row {row}")
            continue
        hit = next((k for k in unmatched
                    if _close(theta, grid[k][0], 1e-12)
                    and _close(theta3, grid[k][1], 1e-12)), None)
        if hit is None:
            errors.append(f"line {line}: ({theta}, {theta3}) not on the grid")
            continue
        unmatched.remove(hit)
        exact_tau, exact_c12_sq = ghz_terms(*grid[hit])
        exact = ghz_smax_closed(*grid[hit])
        problems = []
        if not (_close(tau, exact_tau, EXACT_TOL)
                and _close(c12_sq, exact_c12_sq, EXACT_TOL)):
            problems.append("tau/c12_sq")
        if not _close(closed, exact, EXACT_TOL):
            problems.append(f"smax_closed {closed} != {exact:.12g}")
        if abs(numeric - exact) > GAP_TOL:
            problems.append(f"|numeric - closed| = {abs(numeric - exact):.3e}")
        gap_tol = printed_tol(numeric) + printed_tol(closed) + printed_tol(gap)
        if abs(gap - (numeric - closed)) > gap_tol:
            problems.append(f"gap {gap} != numeric - closed")
        if problems:
            errors.append(f"line {line}: " + "; ".join(problems))
    errors += [f"grid point {grid[k]} missing" for k in unmatched]
    return max(SWEEP_ROWS, len(rows) - 1), errors


def check_analyze(stdout: str, amplitudes: np.ndarray, family: str) -> Check:
    """tau against the hyperdeterminant, pair concurrences against the
    rank-2 formula, S_max under the ceiling, and for W items the closed
    value against the numeric one."""
    fields = {label: _field(stdout, label) for label in
              ("tau", "c12 c23 c31", "smax numeric", "smax closed")}
    needed = ["tau", "c12 c23 c31", "smax numeric"]
    if family == "w":
        needed.append("smax closed")
    missing = [label for label in needed if fields[label] is None]
    if missing:
        return 1, [f"analyze output lacks {missing}"]
    problems = []
    tau = float(fields["tau"])
    exact_tau = three_tangle(amplitudes)
    if not _close(tau, exact_tau, EXACT_TOL):
        problems.append(f"tau {tau} != hyperdeterminant {exact_tau:.12g}")
    for label, value, pair in zip(("c12", "c23", "c31"),
                                  _floats(fields["c12 c23 c31"]),
                                  ((1, 2), (2, 3), (1, 3))):
        exact = pair_concurrence(amplitudes, pair)
        if not _close(value, exact, EXACT_TOL):
            problems.append(f"{label} {value} != {exact:.12g}")
    numeric = float(fields["smax numeric"])
    if numeric - printed_tol(numeric) > CEILING + EXACT_TOL:
        problems.append(f"smax numeric {numeric} above 4 sqrt 2")
    if family == "w":
        closed = _floats(fields["smax closed"].split("(")[0])[0]
        if abs(closed - numeric) > GAP_TOL:
            problems.append(f"W closed {closed} vs numeric {numeric}")
    return 1, (["; ".join(problems)] if problems else [])


def check_verify(returncode: int, stdout: str) -> Check:
    """Exit code 0 and the battery's own summary line, all 8 suites."""
    if returncode != 0:
        return 1, [f"verify exited {returncode}"]
    if not re.search(r"^8/8 suites passed$", stdout, re.MULTILINE):
        return 1, ["verify did not report 8/8 suites passed"]
    return 1, []


def check_simulate(stdout: str, theta: float, theta3: float) -> Check:
    """The exact value equals the GHZ closed form and |z| <= 5."""
    exact_text = _field(stdout, "exact value")
    z_text = _field(stdout, "z-score")
    if exact_text is None or z_text is None:
        return 1, ["simulate output lacks exact value or z-score"]
    problems = []
    exact = float(exact_text)
    closed = ghz_smax_closed(theta, theta3)
    if not _close(exact, closed, EXACT_TOL):
        problems.append(f"exact {exact} != closed {closed:.12g}")
    z = float(z_text)
    if not abs(z) <= Z_MAX:
        problems.append(f"|z| = {abs(z)} > {Z_MAX}")
    return 1, (["; ".join(problems)] if problems else [])


def check_job(job, returncode: Optional[int], stdout: str) -> Check:
    """Dispatch one finished job to its oracle.  `returncode` is None when
    the command raised."""
    expected_ops = SWEEP_ROWS if job.command == "sweep-ghz" else 1
    if returncode is None:
        return expected_ops, [f"{job.command} raised"] * expected_ops
    if job.command == "verify":
        return check_verify(returncode, stdout)
    if returncode != 0:
        message = f"{job.command} exited {returncode}"
        return expected_ops, [message] * expected_ops
    if job.command == "sweep-ghz":
        with open(job.expect["csv"], "r", encoding="utf-8") as handle:
            return check_sweep_ghz(handle.read())
    if job.command == "analyze":
        return check_analyze(stdout, job.expect["amplitudes"],
                             job.expect["family"])
    return check_simulate(stdout, job.expect["theta"], job.expect["theta3"])
