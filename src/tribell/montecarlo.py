"""Finite-shot Born-rule simulation of the Svetlichny correlators.

Each correlator draws exact multinomial counts of the eight joint outcomes
of three local spin measurements from their Born distribution, so time and
memory do not grow with the number of shots. The counts give the estimate
and its standard error in closed form; the Svetlichny value combines eight
independently sampled correlators.  A state is a ThreeQubitPureState or
one vector of 8 amplitudes, a direction a row of three components, and a
setting a MeasurementSettings or one (6, 3) array, each read through the
library's one check of its kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    IDENTITY_2,
    ValidationError,
    _amplitudes,
    _derived_seed,
    spin_observable,
)
from .bell import SVETLICHNY_SIGNS, _settings_vectors

# Outcome index encodes the three signs: bit 0 means the +1 result, so
# index = 4*i1 + 2*i2 + i3 with i = 0 for +1 and 1 for -1.
_OUTCOME_PRODUCTS = np.array(
    [(-1.0) ** (bin(k).count("1")) for k in range(8)])
# The largest count numpy's multinomial takes (int64).
_MAX_SHOTS = 2 ** 63 - 1


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


def outcome_distribution(s, a, b, c) -> np.ndarray:
    """Born probabilities of the 8 joint outcomes of (a, b, c) measurements.

    P(r1, r2, r3) = <psi| prod_i (I + r_i n_i . sigma) / 2 |psi>, contracted
    in one einsum over each party's stacked (..., 2, 2, 2) projector pairs.
    Each party's argument is one direction or an (..., 3) stack of them; the
    result has the stack axes of a, then b, then c, and last the 8 outcomes,
    so three single directions give the (8,) vector.  Every entry equals,
    bit for bit, the call on its own three directions: the contraction stays
    unoptimized, as a reordered one would move bits and so sampled counts.
    """
    amps = _amplitudes(s)
    if amps.shape != (8,):
        raise ValidationError("expected one state of 8 amplitudes")
    observables = [spin_observable(n) for n in (a, b, c)]
    pairs = [(np.stack([IDENTITY_2 + o, IDENTITY_2 - o], axis=-3) / 2.0)
             .reshape(-1, 2, 2, 2) for o in observables]
    psi = amps.reshape(2, 2, 2)
    probs = np.einsum("abc,xrad,ysbe,ztcf,def->xyzrst", psi.conj(), *pairs,
                      psi).reshape(sum((o.shape[:-2] for o in observables),
                                       ()) + (8,))
    if np.max(np.abs(probs.imag)) > 1e-10:
        raise ValidationError("outcome probabilities have an imaginary residue")
    probs = probs.real
    if np.min(probs) < -1e-12:
        raise ValidationError(f"negative Born probability {np.min(probs)}")
    probs = np.maximum(probs, 0.0)
    if np.max(np.abs(probs.sum(axis=-1) - 1.0)) > 1e-10:
        raise ValidationError("outcome probabilities do not sum to 1")
    return probs


def _check_shots(shots: int) -> None:
    """Shots must lie in [1, 2**63 - 1], the counts numpy's multinomial
    takes (int64)."""
    if shots < 1:
        raise ValidationError("shots must be at least 1")
    if shots > _MAX_SHOTS:
        raise ValidationError(f"shots must be at most 2**63 - 1, got {shots}")


def _sample(probs: np.ndarray, shots: int, seed: int) -> ShotEstimate:
    """Sample the product of the three outcomes of one (8,) distribution.

    One multinomial draw gives the counts of the 8 outcomes; only n+, the
    count with an even number of -1 results, matters. With n- = N - n+,
    the mean is (n+ - n-)/N and the sample standard error of the +-1
    products is 2 sqrt(n+ n- / (N - 1)) / N, evaluated on exact integers.
    """
    rng = np.random.default_rng(seed)
    # outcome_distribution allows a sum 1e-10 off 1; multinomial does not.
    counts = rng.multinomial(shots, probs / probs.sum())
    n_plus = int(counts[_OUTCOME_PRODUCTS > 0].sum())
    n_minus = shots - n_plus
    mean = (n_plus - n_minus) / shots
    if shots > 1:
        stderr = 2.0 * math.sqrt(n_plus * n_minus / (shots - 1)) / shots
    else:
        # A single shot carries no spread information; report the a-priori
        # worst-case scale of a +-1 variable instead.
        stderr = 1.0
    return ShotEstimate(mean=mean, stderr=stderr, shots=shots, seed=seed)


def estimate_correlator(s, a, b, c, shots: int, seed: int) -> ShotEstimate:
    """Sample the product of the three outcomes and report mean and stderr.

    Each of a, b and c is one direction.  Memory is O(1) in `shots`, which
    must lie in [1, 2**63 - 1].
    """
    _check_shots(shots)
    if any(np.shape(n) != (3,) for n in (a, b, c)):
        raise ValidationError("expected one direction of 3 components")
    return _sample(outcome_distribution(s, a, b, c), shots, seed)


def estimate_svetlichny(s, ms, shots_per_correlator: int,
                        seed: int) -> ShotEstimate:
    """Estimate <S> from eight independently sampled correlators.

    The eight outcome distributions are the entries of one (2, 2, 2, 8)
    Born table, contracted once from the settings' (6, 3) array.  Each
    correlator runs on its own derived sub-seed; the combined standard
    error is the quadrature sum of the per-correlator errors.
    """
    _check_shots(shots_per_correlator)
    vectors = _settings_vectors(ms)
    if vectors.shape != (6, 3):
        raise ValidationError("expected one setting of six 3-vectors")
    table = outcome_distribution(s, *vectors.reshape(3, 2, 3))
    mean = 0.0
    var = 0.0
    # The sub-seed index runs over b's choice fastest, then c's, then a's.
    for index, (x, z, y) in enumerate(itertools.product((0, 1), repeat=3)):
        est = _sample(table[x, y, z], shots_per_correlator,
                      _derived_seed(seed, index))
        mean += float(SVETLICHNY_SIGNS[x, y, z]) * est.mean
        var += est.stderr ** 2
    return ShotEstimate(mean=mean, stderr=math.sqrt(var),
                        shots=shots_per_correlator, seed=seed)
