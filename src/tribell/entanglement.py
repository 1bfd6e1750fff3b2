"""Entanglement measures for three-qubit pure states.

Implements the Wootters concurrence of two-qubit reduced states, and a
state's profile: the concurrence across each 1-vs-2 cut, the three-tangle
and the monogamy residual beside the pairwise concurrences, together with
the closed-form profiles of the GHZ-class and W-class families.

The concurrence takes two Hermitian solves: one factors rho = F F+, and
one reads Wootters' lambdas as the singular values of F^T (sy x sy) F,
through the eigenvalues of its Hermitian dilation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .qcore import (
    GhzClassParams,
    SIGMA_Y,
    ThreeQubitPureState,
    ValidationError,
    WClassParams,
    _amplitudes,
    _reduced,
    herm_eig,
)

# Negative values closer to zero than this are treated as roundoff and
# clamped; anything more negative indicates a genuine bug upstream.
CLAMP_TOL = 1e-9
# Eigenvalues of rho (trace 1) up to this are roundoff of a rank-deficient
# state, read as zeros: their square roots would enter the lambdas at ~1e-8.
RANK_CUTOFF = 1e-13
# States per stacked profile slice: large enough that numpy's per-call
# overhead is spread thin, small enough to keep the temporaries bounded.
PROFILE_SLICE = 100

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True, slots=True)
class EntanglementProfile:
    """Tangle, pairwise concurrences and bipartition concurrences of a state.

    `monogamy_residual` is c1_23**2 - c12**2 - c31**2, which equals the
    three-tangle for pure states.
    """

    tau: float
    c12: float
    c23: float
    c31: float
    c1_23: float
    c2_13: float
    c3_12: float
    monogamy_residual: float


def _clamp_nonneg(value: float, what: str) -> float:
    if value < -CLAMP_TOL:
        raise ValidationError(f"{what} = {value} is negative beyond roundoff")
    return max(0.0, value)


def _check_density(rho) -> np.ndarray:
    """`rho` as a complex 4x4 density matrix or (..., 4, 4) stack of them,
    finite and of unit trace; `herm_eig` checks that it is Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValidationError("expected a 4x4 density matrix")
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix has a non-finite entry")
    if not np.all(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)
                  <= 1e-9):
        raise ValidationError("density matrix trace deviates from 1")
    return rho


def concurrence_two_qubit(rho):
    """Wootters concurrence of a two-qubit density matrix.

    With rho = F F+ for the factor F = V diag(sqrt(eigenvalues)), the matrix
    M = F^T (sy x sy) F has M+ M similar to rho rho~, where
    rho~ = (sy x sy) rho* (sy x sy).  So the singular values of M are
    Wootters' l1 >= l2 >= l3 >= l4, and C = max(0, l1 - l2 - l3 - l4).
    They are read as the top four eigenvalues of the Hermitian dilation
    [[0, M], [M+, 0]], whose spectrum is +-l_i with error linear in
    roundoff.  One 4x4 rho gives a float; a (..., 4, 4) stack gives an
    array of concurrences, each equal to that of its matrix alone.
    """
    rho = _check_density(rho)
    vals, vecs = herm_eig(rho)
    if np.any(vals[..., -1] < -1e-9):
        raise ValidationError("density matrix has a negative eigenvalue")
    roots = np.sqrt(np.where(vals > RANK_CUTOFF, vals, 0.0))
    factor = vecs * roots[..., None, :]
    m = factor.swapaxes(-1, -2) @ _SPIN_FLIP @ factor
    dilation = np.zeros(rho.shape[:-2] + (8, 8), dtype=complex)
    dilation[..., :4, 4:] = m
    dilation[..., 4:, :4] = m.conj().swapaxes(-1, -2)
    lams = herm_eig(dilation)[0]
    c = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2]
                   - lams[..., 3])
    return float(c) if c.ndim == 0 else c


def _cut_concurrences(amplitudes: np.ndarray, solo: int) -> list:
    """Concurrences across the cut of qubit `solo` for a stack (n, 8) of
    amplitude vectors, as floats: sqrt(2 (1 - tr rho_solo^2))."""
    rho = _reduced(amplitudes, (solo,))
    purities = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return [math.sqrt(_clamp_nonneg(2.0 * (1.0 - purity),
                                    "bipartition concurrence^2"))
            for purity in purities.tolist()]


def _profile(c12: float, c23: float, c31: float, c1_23: float,
             c2_13: float, c3_12: float) -> EntanglementProfile:
    taus = (
        c1_23 ** 2 - c12 ** 2 - c31 ** 2,
        c2_13 ** 2 - c12 ** 2 - c23 ** 2,
        c3_12 ** 2 - c31 ** 2 - c23 ** 2,
    )
    if max(taus) - min(taus) > 1e-8:
        raise ValidationError(f"tangle permutation spread {max(taus) - min(taus)}")
    residual = taus[0]
    tau = _clamp_nonneg(residual, "three-tangle")
    return EntanglementProfile(
        tau=tau, c12=c12, c23=c23, c31=c31,
        c1_23=c1_23, c2_13=c2_13, c3_12=c3_12,
        monogamy_residual=residual,
    )


def entanglement_profiles(states: Iterable) -> Iterator[EntanglementProfile]:
    """Full entanglement profiles, with a permutation-consistency check on tau.

    `states` may be any iterable, a generator included, of states or of
    amplitude vectors: it is drawn PROFILE_SLICE items at a time, each
    slice's amplitudes are checked once, as one stack (`qcore._amplitudes`),
    and its profiles are yielded before the next slice is drawn.  A slice's
    reduced states are formed with one einsum per pair or qubit and go
    through the concurrence as one stack, so the memory stays bounded for
    any number of states.  Each tangle is recomputed from all three solo
    choices; a spread above 1e-8 between them signals a numerical failure
    and raises.
    """
    states = iter(states)
    while batch := list(itertools.islice(states, PROFILE_SLICE)):
        # A state's amplitudes, or an item that is an amplitude vector.
        items = [getattr(s, "amplitudes", s) for s in batch]
        if any(np.shape(item) != (8,) for item in items):
            raise ValidationError("state needs exactly 8 amplitudes")
        amplitudes = _amplitudes(np.stack(items))
        pairs = [concurrence_two_qubit(_reduced(amplitudes, keep)).tolist()
                 for keep in ((1, 2), (2, 3), (1, 3))]
        cuts = [_cut_concurrences(amplitudes, solo) for solo in (1, 2, 3)]
        for values in zip(*pairs, *cuts):
            yield _profile(*values)


def entanglement_profile(s: ThreeQubitPureState) -> EntanglementProfile:
    """The profile of one state: `entanglement_profiles` of a batch of one."""
    return next(entanglement_profiles([s]))


def ghz_profile_closed(p: GhzClassParams) -> EntanglementProfile:
    """Closed-form profile of the GHZ-class family.

    tau = sin^2(2 theta) sin^2(theta3), C12^2 = sin^2(2 theta) cos^2(theta3),
    C23 = C31 = 0.
    """
    s2 = math.sin(2.0 * p.theta) ** 2
    tau = s2 * math.sin(p.theta3) ** 2
    c12 = math.sqrt(s2) * abs(math.cos(p.theta3))
    c1_23 = math.sqrt(tau + c12 ** 2)
    c3_12 = math.sqrt(tau)
    return EntanglementProfile(
        tau=tau, c12=c12, c23=0.0, c31=0.0,
        c1_23=c1_23, c2_13=c1_23, c3_12=c3_12,
        monogamy_residual=tau,
    )


def w_profile_closed(p: WClassParams) -> EntanglementProfile:
    """Closed-form profile of the W-class family.

    With alpha, beta, gamma the amplitudes of |001>, |010>, |100>, the
    excitations of qubits 1, 2, 3 carry gamma, beta, alpha respectively,
    so the pairwise concurrences are c12 = 2 beta gamma, c23 = 2 alpha
    beta, c31 = 2 gamma alpha (verified against the Wootters evaluation
    of the reduced states).
    """
    c12 = 2.0 * p.beta * p.gamma
    c23 = 2.0 * p.alpha * p.beta
    c31 = 2.0 * p.gamma * p.alpha
    return EntanglementProfile(
        tau=0.0, c12=c12, c23=c23, c31=c31,
        c1_23=math.sqrt(c12 ** 2 + c31 ** 2),
        c2_13=math.sqrt(c12 ** 2 + c23 ** 2),
        c3_12=math.sqrt(c31 ** 2 + c23 ** 2),
        monogamy_residual=0.0,
    )
