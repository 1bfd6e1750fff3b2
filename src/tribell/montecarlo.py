"""Finite-shot Born-rule simulation of the Svetlichny correlators.

Joint outcomes of three local spin measurements are sampled from the exact
eight-way distribution, giving correlator estimates with standard errors;
the Svetlichny value combines eight independently sampled correlators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    IDENTITY_2,
    ThreeQubitPureState,
    UnitVector,
    ValidationError,
    _derived_seed,
    spin_observable,
)
from .bell import SVETLICHNY_SIGNS, MeasurementSettings

# Outcome index encodes the three signs: bit 0 means the +1 result, so
# index = 4*i1 + 2*i2 + i3 with i = 0 for +1 and 1 for -1.
_OUTCOME_PRODUCTS = np.array(
    [(-1.0) ** (bin(k).count("1")) for k in range(8)])


@dataclass(frozen=True)
class ShotEstimate:
    mean: float
    stderr: float
    shots: int
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValidationError("shots must be at least 1")
        if self.stderr < 0:
            raise ValidationError("stderr must be non-negative")


def outcome_distribution(s: ThreeQubitPureState, a: UnitVector, b: UnitVector,
                         c: UnitVector) -> np.ndarray:
    """Born probabilities of the 8 joint outcomes of (a, b, c) measurements.

    P(r1, r2, r3) = <psi| prod_i (I + r_i n_i . sigma) / 2 |psi>, contracted
    in one einsum over each party's stacked (2, 2, 2) projector pair.
    """
    observables = [spin_observable(n) for n in (a, b, c)]
    pairs = [np.stack([IDENTITY_2 + o, IDENTITY_2 - o]) / 2.0
             for o in observables]
    psi = s.amplitudes.reshape(2, 2, 2)
    probs = np.einsum("abc,rad,sbe,tcf,def->rst", psi.conj(), *pairs,
                      psi).reshape(8)
    if np.max(np.abs(probs.imag)) > 1e-10:
        raise ValidationError("outcome probabilities have an imaginary residue")
    probs = probs.real
    if np.min(probs) < -1e-12:
        raise ValidationError(f"negative Born probability {np.min(probs)}")
    probs = np.maximum(probs, 0.0)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValidationError("outcome probabilities do not sum to 1")
    return probs


def estimate_correlator(s: ThreeQubitPureState, a: UnitVector, b: UnitVector,
                        c: UnitVector, shots: int, seed: int) -> ShotEstimate:
    """Sample the product of the three outcomes and report mean and stderr."""
    if shots < 1:
        raise ValidationError("shots must be at least 1")
    probs = outcome_distribution(s, a, b, c)
    rng = np.random.default_rng(seed)
    # Inverse-CDF sampling on the 8-way categorical.
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    samples = _OUTCOME_PRODUCTS[draws]
    mean = float(samples.mean())
    if shots > 1:
        stderr = float(samples.std(ddof=1) / math.sqrt(shots))
    else:
        # A single shot carries no spread information; report the a-priori
        # worst-case scale of a +-1 variable instead.
        stderr = 1.0
    return ShotEstimate(mean=mean, stderr=stderr, shots=shots, seed=seed)


def estimate_svetlichny(s: ThreeQubitPureState, ms: MeasurementSettings,
                        shots_per_correlator: int, seed: int) -> ShotEstimate:
    """Estimate <S> from eight independently sampled correlators.

    Each correlator runs on its own derived sub-seed; the combined standard
    error is the quadrature sum of the per-correlator errors.
    """
    a, b, c = (ms.a, ms.a_prime), (ms.b, ms.b_prime), (ms.c, ms.c_prime)
    mean = 0.0
    var = 0.0
    # The sub-seed index runs over b's choice fastest, then c's, then a's.
    for index, (x, z, y) in enumerate(itertools.product((0, 1), repeat=3)):
        est = estimate_correlator(s, a[x], b[y], c[z], shots_per_correlator,
                                  _derived_seed(seed, index))
        mean += float(SVETLICHNY_SIGNS[x, y, z]) * est.mean
        var += est.stderr ** 2
    return ShotEstimate(mean=mean, stderr=math.sqrt(var),
                        shots=shots_per_correlator, seed=seed)
