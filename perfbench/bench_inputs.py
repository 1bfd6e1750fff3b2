"""Seeded inputs for the benchmark workloads.

A workload is a list of jobs.  Each job is one ``tribell.cli.main`` argv
plus what the oracles need to check its output.  The benchmark seed and the
fixed POOL_SEED are the only sources of randomness: the program receives
the generated argv, state files and CLI seeds, never the benchmark seed
itself, and the same seed always yields byte-identical files and argv.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

# The analyze-mix states are local-unitary images of fixed representatives
# drawn once from POOL_SEED: ANALYZE_HAAR Haar-random raw states and
# ANALYZE_W W-class triples.  The see-saw starts uniformly on the Bloch
# spheres, so its work on a state is set by the state's local-unitary class
# (to about 10%), and that work differs by up to 6x between Haar-random
# classes.  With fresh classes on every seed, the pass time varied with the
# seed by 26% (IQR/median over ten seeds).  So each seed draws fresh local
# unitaries for the raw states, a qubit relabelling of each W triple, fresh
# CLI seeds and a fresh job order, over the same classes.
#
# The simulate states are SIMULATE_STATES fixed GHZ-class (theta, theta3)
# pairs, drawn once from POOL_SEED over the family's whole range.  The
# time to sample 10^6 shots depends on the state's outcome distribution,
# by up to 1.8x between states.  With fresh states on every seed, the work
# of a pass varied with the seed by 3-13% (IQR/median over two groups of
# seeds, each state timed against a fixed reference state to cancel host
# drift), and that was most of the spread of wall_s.  So each seed draws
# fresh CLI seeds, and with them fresh samples, and a fresh job order.
#
# Each simulate job reads its measurement settings from a file: the
# closed-form optimal settings of its (theta, theta3), computed here.  The
# CLI's own "--settings optimal" rebuilds theta from the entanglement
# profile, which maps theta > pi/4 to pi/2 - theta, so on the low branch it
# measures at settings short of the maximum; test_perfbench pins that
# defect with a strict xfail.  The file keeps the sampler's work the same
# and the whole (theta, theta3) range in the workload.
POOL_SEED = 2009
ANALYZE_HAAR = 8
ANALYZE_W = 4
SIMULATE_STATES = 8
SIMULATE_SHOTS = 1_000_000


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the inputs its oracle checks against."""

    command: str
    argv: Tuple[str, ...]
    expect: dict


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2 ** 31 - 1)))


def _head(rng: np.random.Generator, command: str) -> Tuple[str, ...]:
    return ("--seed", _cli_seed(rng), "--jobs", "1", command)


def haar_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """Uniform pure state: 8 complex standard normals, normalized."""
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    return z / np.linalg.norm(z)


def w_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """(alpha, beta, gamma), each at least 0.2 / sqrt(2.04) = 0.14 after
    normalizing, so every pair concurrence stays clear of zero."""
    amps = rng.uniform(0.2, 1.0, size=3)
    return amps / np.linalg.norm(amps)


def raw_state_text(amplitudes: np.ndarray) -> str:
    lines = ["family: raw"]
    lines += [f"amp{k}: [{float(a.real)!r}, {float(a.imag)!r}]"
              for k, a in enumerate(amplitudes)]
    return "\n".join(lines) + "\n"


def w_state_text(amps: np.ndarray) -> str:
    alpha, beta, gamma = (float(a) for a in amps)
    return f"family: w\nalpha: {alpha!r}\nbeta: {beta!r}\ngamma: {gamma!r}\n"


def w_vector(amps: np.ndarray) -> np.ndarray:
    """alpha|001> + beta|010> + gamma|100> as 8 amplitudes."""
    psi = np.zeros(8, dtype=complex)
    psi[1], psi[2], psi[4] = amps
    return psi


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2))
                        + 1j * rng.normal(size=(2, 2)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def local_unitary_image(psi: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """psi under a Haar-random unitary on each qubit."""
    u = np.kron(np.kron(haar_unitary(rng), haar_unitary(rng)),
                haar_unitary(rng))
    return u @ psi


def analyze_pool() -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The fixed representatives: (raw amplitude vectors, W triples)."""
    rng = np.random.default_rng(POOL_SEED)
    return ([haar_amplitudes(rng) for _ in range(ANALYZE_HAAR)],
            [w_amplitudes(rng) for _ in range(ANALYZE_W)])


def _analyze_jobs(rng: np.random.Generator, workdir: str) -> List[Job]:
    haar, w_triples = analyze_pool()
    states = [("raw", local_unitary_image(psi, rng)) for psi in haar]
    states += [("w", amps[rng.permutation(3)]) for amps in w_triples]
    jobs = []
    for k in rng.permutation(len(states)):
        family, values = states[k]
        path = os.path.join(workdir, f"state{len(jobs):03d}.txt")
        if family == "w":
            _write(path, w_state_text(values))
            expect = {"family": "w", "amplitudes": w_vector(values)}
        else:
            _write(path, raw_state_text(values))
            expect = {"family": "raw", "amplitudes": values}
        jobs.append(Job("analyze", _head(rng, "analyze") + ("--state", path),
                        expect))
    return jobs


def simulate_pool() -> List[Tuple[float, float]]:
    """The fixed (theta, theta3) pairs, uniform on [0, pi/2]^2."""
    rng = np.random.default_rng(POOL_SEED)
    return [tuple(float(v) for v in rng.uniform(0.0, math.pi / 2, 2))
            for _ in range(SIMULATE_STATES)]


def ghz_settings_text(theta: float, theta3: float) -> str:
    """The closed-form optimal settings of a GHZ-class state, as a settings
    file of 'name: polar azimuth' lines.

    Low branch (3 tau + C12^2 <= 1): a = a' = b = z, b' = -z, and c = c'
    in the x-z plane at polar angle atan2(Q, P), with
    P = 1 - 2 sin^2(theta) sin^2(theta3), Q = sin^2(theta) sin(2 theta3).
    High branch: a = b = x, a' = b' = -y, and c, c' at polar angle
    atan2(sqrt(2) sin(theta3), cos(theta3)) and azimuths +-pi/4.
    """
    sin_sq_2t = math.sin(2.0 * theta) ** 2
    tau = sin_sq_2t * math.sin(theta3) ** 2
    c12_sq = sin_sq_2t * math.cos(theta3) ** 2
    if 3.0 * tau + c12_sq <= 1.0:
        sin_sq = math.sin(theta) ** 2
        polar_c = math.atan2(sin_sq * math.sin(2.0 * theta3),
                             1.0 - 2.0 * sin_sq * math.sin(theta3) ** 2)
        vectors = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (math.pi, 0.0),
                   (polar_c, 0.0), (polar_c, 0.0))
    else:
        polar_c = math.atan2(math.sqrt(2.0) * math.sin(theta3),
                             math.cos(theta3))
        x, minus_y = (math.pi / 2, 0.0), (math.pi / 2, 1.5 * math.pi)
        vectors = (x, minus_y, x, minus_y, (polar_c, math.pi / 4),
                   (polar_c, 1.75 * math.pi))
    names = ("a", "a_prime", "b", "b_prime", "c", "c_prime")
    return "".join(f"{name}: {polar!r} {azimuth!r}\n"
                   for name, (polar, azimuth) in zip(names, vectors))


def _simulate_jobs(rng: np.random.Generator, workdir: str) -> List[Job]:
    pool = simulate_pool()
    jobs = []
    for k in rng.permutation(len(pool)):
        theta, theta3 = pool[k]
        path = os.path.join(workdir, f"settings{len(jobs):03d}.txt")
        _write(path, ghz_settings_text(theta, theta3))
        argv = _head(rng, "simulate") + (
            "--ghz", repr(theta), repr(theta3), "--settings", path,
            "--shots", str(SIMULATE_SHOTS))
        jobs.append(Job("simulate", argv, {"theta": theta, "theta3": theta3}))
    return jobs


def _sweep_jobs(rng: np.random.Generator, workdir: str) -> List[Job]:
    out = os.path.join(workdir, "fig1_ghz.csv")
    return [Job("sweep-ghz", _head(rng, "sweep-ghz") + ("--out", out),
                {"csv": out})]


def _verify_jobs(rng: np.random.Generator, workdir: str) -> List[Job]:
    return [Job("verify", _head(rng, "verify"), {})]


# Each workload's generator; its position also picks the workload's random
# stream, so the workloads of one seed draw independent inputs.
GENERATORS = {
    "sweep-ghz": _sweep_jobs,
    "analyze-mix": _analyze_jobs,
    "verify": _verify_jobs,
    "simulate": _simulate_jobs,
}


def generate(workload: str, seed: int, workdir: str) -> List[Job]:
    """The jobs of one pass of `workload`, with input files in `workdir`."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, workdir)
