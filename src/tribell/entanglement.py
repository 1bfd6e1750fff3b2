"""Entanglement measures for three-qubit pure states.

Implements the Wootters concurrence of two-qubit reduced states, the
bipartite concurrence across a 1-vs-2 cut, the three-tangle and the
monogamy residual, together with the closed-form profiles of the
GHZ-class and W-class families.

The concurrence takes two Hermitian solves: one factors rho = F F+, and
one reads Wootters' lambdas as the singular values of F^T (sy x sy) F,
through the eigenvalues of its Hermitian dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    GhzClassParams,
    SIGMA_Y,
    ThreeQubitPureState,
    ValidationError,
    WClassParams,
    herm_eig,
    partial_trace,
    reduced_single,
)

# Negative values closer to zero than this are treated as roundoff and
# clamped; anything more negative indicates a genuine bug upstream.
CLAMP_TOL = 1e-9
# Eigenvalues of rho (trace 1) up to this are roundoff of a rank-deficient
# state, read as zeros: their square roots would enter the lambdas at ~1e-8.
RANK_CUTOFF = 1e-13

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


def _check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError("expected a 4x4 density matrix")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValidationError("density matrix trace deviates from 1")
    return rho


def concurrence_two_qubit(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    With rho = F F+ for the factor F = V diag(sqrt(eigenvalues)), the matrix
    M = F^T (sy x sy) F has M+ M similar to rho rho~, where
    rho~ = (sy x sy) rho* (sy x sy).  So the singular values of M are
    Wootters' l1 >= l2 >= l3 >= l4, and C = max(0, l1 - l2 - l3 - l4).
    They are read as the top four eigenvalues of the Hermitian dilation
    [[0, M], [M+, 0]], whose spectrum is +-l_i with error linear in
    roundoff.
    """
    rho = _check_density(rho)
    vals, vecs = herm_eig(rho)
    if vals[-1] < -1e-9:
        raise ValidationError("density matrix has a negative eigenvalue")
    factor = vecs * np.sqrt(np.where(vals > RANK_CUTOFF, vals, 0.0))
    m = factor.T @ _SPIN_FLIP @ factor
    zero = np.zeros((4, 4), dtype=complex)
    lams = herm_eig(np.block([[zero, m], [m.conj().T, zero]]))[0][:4]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def concurrence_bipartition(s: ThreeQubitPureState, solo: int) -> float:
    """Concurrence across the cut separating `solo` from the other two.

    For a pure state this is sqrt(2 (1 - tr rho_solo^2)).
    """
    rho = reduced_single(s, solo)
    purity = float(np.trace(rho @ rho).real)
    return math.sqrt(_clamp_nonneg(2.0 * (1.0 - purity), "bipartition concurrence^2"))


def entanglement_profile(s: ThreeQubitPureState) -> EntanglementProfile:
    """Full entanglement profile with a permutation-consistency check on tau.

    The tangle is recomputed from all three solo choices; a spread above
    1e-8 between them signals a numerical failure and raises.
    """
    c12 = concurrence_two_qubit(partial_trace(s, (1, 2)))
    c23 = concurrence_two_qubit(partial_trace(s, (2, 3)))
    c31 = concurrence_two_qubit(partial_trace(s, (1, 3)))
    c1_23 = concurrence_bipartition(s, 1)
    c2_13 = concurrence_bipartition(s, 2)
    c3_12 = concurrence_bipartition(s, 3)
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
