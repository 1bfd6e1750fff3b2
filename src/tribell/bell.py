"""Svetlichny and Mermin operators, correlation tensors and closed-form maxima.

The Svetlichny operator is S = A(DC + D'C') + A'(D'C - DC') with D = B + B'
and D' = B - B'; the two halves are the Mermin operators M and M'.
Expanded, <S> = sum over x, y, z of G[x, y, z] <A_x B_y C_z>, where index 0
is a party's unprimed direction, 1 its primed one, and G is the sign tensor
SVETLICHNY_SIGNS.  Every correlator is a contraction of the 3x3x3
correlation tensor, which is the fast path used by the optimizer; the
explicit 8x8 operators of `bell_operators` are kept as the slow oracle, and
the GHZ and W families also have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from .qcore import (
    GhzClassParams,
    PAULIS,
    ThreeQubitPureState,
    UnitVector,
    ValidationError,
    WClassParams,
    X_HAT,
    expectation,
    ghz_state,
    spin_observable,
    tensor3,
    w_state,
)
from .entanglement import EntanglementProfile

ALGEBRAIC_CEILING = 4.0 * math.sqrt(2.0)

# smax_w: seeded L-BFGS-B starts, each run for both signs of <S>.
_W_STARTS = 20
_W_SEED = 0

# G[x, y, z]: the sign of <A_x B_y C_z> in <S>, with 0 the unprimed and 1
# the primed direction of each party.
SVETLICHNY_SIGNS = np.array([[[1.0, 1.0], [1.0, -1.0]],
                             [[1.0, -1.0], [-1.0, -1.0]]])


@dataclass(frozen=True)
class MeasurementSettings:
    """The six measurement directions (a, a', b, b', c, c')."""

    a: UnitVector
    a_prime: UnitVector
    b: UnitVector
    b_prime: UnitVector
    c: UnitVector
    c_prime: UnitVector

    def vectors(self) -> np.ndarray:
        """Cartesian stack of shape (6, 3) in the field order above."""
        return np.stack([
            self.a.cartesian, self.a_prime.cartesian,
            self.b.cartesian, self.b_prime.cartesian,
            self.c.cartesian, self.c_prime.cartesian,
        ])


def settings_from_vectors(vectors) -> MeasurementSettings:
    """Build MeasurementSettings from six Cartesian vectors."""
    vecs = [UnitVector.from_cartesian(v) for v in vectors]
    if len(vecs) != 6:
        raise ValidationError("expected exactly six vectors")
    return MeasurementSettings(*vecs)


@dataclass(frozen=True)
class DecomposedB:
    """Orthogonal split b + b' = 2 d cos t, b - b' = 2 d' sin t."""

    d: UnitVector
    d_prime: UnitVector
    t: float


@dataclass(frozen=True)
class CorrelationTensor:
    """T[i, j, k] = <sigma_i x sigma_j x sigma_k> over the x, y, z axes."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (3, 3, 3):
            raise ValidationError("correlation tensor must be 3x3x3")
        if np.max(np.abs(entries)) > 1.0 + 1e-10:
            raise ValidationError("correlation tensor entry outside [-1, 1]")
        object.__setattr__(self, "entries", entries)
        entries.setflags(write=False)

    def correlator(self, x, y, z) -> float:
        """Trilinear contraction <(x.sigma)(y.sigma)(z.sigma)>."""
        return float(np.einsum("ijk,i,j,k->", self.entries, x, y, z))


@dataclass(frozen=True)
class GhzClosedTerms:
    """P = 1 - 2 sin^2(theta) sin^2(theta3) and Q = sin^2(theta) sin(2 theta3)."""

    P: float
    Q: float


@dataclass(frozen=True)
class SmaxReport:
    """Closed-form maximum with the settings that achieve it."""

    closed_value: float
    branch: str
    achieving_settings: MeasurementSettings
    operator_value_at_settings: float
    theta_tilde: Optional[Tuple[float, float, float]] = None


def _orthogonal_companion(d: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to d: z-hat projected off d, x-hat fallback."""
    comp = np.array([0.0, 0.0, 1.0]) - d[2] * d
    norm = np.linalg.norm(comp)
    if norm < 1e-7:
        comp = np.array([1.0, 0.0, 0.0]) - d[0] * d
        norm = np.linalg.norm(comp)
    return comp / norm


def decompose_b(b: UnitVector, b_prime: UnitVector) -> DecomposedB:
    """Split (b, b') into orthogonal d, d' with mixing angle t."""
    bv = b.cartesian
    bpv = b_prime.cartesian
    total = bv + bpv
    diff = bv - bpv
    norm_total = np.linalg.norm(total)
    norm_diff = np.linalg.norm(diff)
    t = math.acos(min(1.0, norm_total / 2.0))
    if norm_diff < 1e-9:
        d = total / norm_total
        d_prime = _orthogonal_companion(d)
    elif norm_total < 1e-9:
        d_prime = diff / norm_diff
        d = _orthogonal_companion(d_prime)
    else:
        d = total / norm_total
        d_prime = diff / norm_diff
    if abs(float(d @ d_prime)) > 1e-10:
        raise ValidationError("decomposed directions failed orthogonality")
    return DecomposedB(
        d=UnitVector.from_cartesian(d),
        d_prime=UnitVector.from_cartesian(d_prime),
        t=t,
    )


def bell_operators(ms: MeasurementSettings):
    """8x8 matrices (S, M, M') with S = M + M'."""
    a, ap, b, bp, c, cp = (spin_observable(v) for v in (
        ms.a, ms.a_prime, ms.b, ms.b_prime, ms.c, ms.c_prime))
    d = b + bp
    dp = b - bp
    m = tensor3(a, d, c) + tensor3(a, dp, cp)
    m_prime = tensor3(ap, dp, c) - tensor3(ap, d, cp)
    s = m + m_prime
    for op in (s, m, m_prime):
        if np.max(np.abs(op - op.conj().T)) > 1e-12:
            raise ValidationError("Bell operator lost Hermiticity")
    return s, m, m_prime


def correlation_tensor(s: ThreeQubitPureState) -> CorrelationTensor:
    """All 27 Pauli-triple expectations in one contraction."""
    psi = s.amplitudes.reshape(2, 2, 2)
    entries = np.einsum(
        "abc,iad,jbe,kcf,def->ijk", psi.conj(), PAULIS, PAULIS, PAULIS, psi)
    if np.max(np.abs(entries.imag)) > 1e-10:
        raise ValidationError("correlation tensor has an imaginary residue")
    return CorrelationTensor(entries.real)


def _party_coefficients(t: np.ndarray, parties: np.ndarray,
                        k: int) -> np.ndarray:
    """Coefficient vectors of <S> in both directions of party k.

    `t` is the 3x3x3 correlation tensor and `parties` a (3, 2, n, 3) stack
    (party, unprimed/primed, start, axis).  <S> is linear in each
    direction, so row x of the (2, n, 3) result dotted with direction x of
    party k, summed over x, gives <S> for each of the n starts.  Every sum
    is an explicit elementwise addition in a fixed order, so a start's
    coefficients do not depend on how many starts share the batch.
    """
    p, q = (j for j in range(3) if j != k)
    # Folding the +-1 signs into party q is exact in any summation order.
    signed = np.einsum("xyz,znl->xynl", np.moveaxis(SVETLICHNY_SIGNS, k, 0),
                       parties[q])
    # terms[i, j, y, n, l] = t[i, j, l] P[y, n, j] for the other party p.
    terms = (np.moveaxis(t, k, 0)[:, :, None, None, :]
             * parties[p].transpose(2, 0, 1)[None, :, :, :, None])
    partial = terms[:, 0] + terms[:, 1] + terms[:, 2]
    terms = partial * signed[:, None]
    coeff = terms[:, :, 0] + terms[:, :, 1]
    return (coeff[..., 0] + coeff[..., 1] + coeff[..., 2]).transpose(0, 2, 1)


def svetlichny_value(s: ThreeQubitPureState, ms: MeasurementSettings) -> float:
    """|<S>| via the correlation-tensor contraction."""
    parties = ms.vectors().reshape(3, 2, 1, 3)
    coeff = _party_coefficients(correlation_tensor(s).entries, parties, 0)
    return abs(float(np.sum(coeff * parties[0])))


def svetlichny_value_direct(s: ThreeQubitPureState, ms: MeasurementSettings) -> float:
    """|<S>| via the explicit 8x8 operator; the slow verification oracle."""
    op, _, _ = bell_operators(ms)
    return abs(expectation(s, op))


def ghz_closed_terms(p: GhzClassParams) -> GhzClosedTerms:
    sin_sq = math.sin(p.theta) ** 2
    return GhzClosedTerms(
        P=1.0 - 2.0 * sin_sq * math.sin(p.theta3) ** 2,
        Q=sin_sq * math.sin(2.0 * p.theta3),
    )


def ghz_correlator_closed(p: GhzClassParams, a: UnitVector, d: UnitVector,
                          c: UnitVector) -> float:
    """Closed-form <A D C> for the GHZ-class family."""
    terms = ghz_closed_terms(p)
    ta, pa = a.polar, a.azimuth
    td, pd = d.polar, d.azimuth
    tc, pc = c.polar, c.azimuth
    first = math.cos(ta) * math.cos(td) * (
        terms.P * math.cos(tc) + terms.Q * math.cos(pc) * math.sin(tc))
    second = math.sin(2.0 * p.theta) * math.sin(ta) * math.sin(td) * (
        math.cos(p.theta3) * math.cos(pa + pd) * math.cos(tc)
        + math.sin(p.theta3) * math.cos(pa + pd + pc) * math.sin(tc))
    return first + second


def _ghz_params_from_profile(profile: EntanglementProfile) -> GhzClassParams:
    sin_two_theta = math.sqrt(min(1.0, profile.tau + profile.c12 ** 2))
    theta = 0.5 * math.asin(sin_two_theta)
    theta3 = math.atan2(math.sqrt(max(profile.tau, 0.0)), profile.c12)
    return GhzClassParams(theta=theta, theta3=theta3)


def optimal_settings_ghz(p: GhzClassParams) -> MeasurementSettings:
    """Measurement directions achieving the Eq.-(19)-style closed maximum.

    The low branch (3 tau + C12^2 <= 1) measures along z on the first two
    qubits with b' = -b, and tilts the third-party direction by
    arctan(Q / P); the high branch puts the primed directions along -y and
    splits the third party symmetrically about the x-z plane with
    tan(theta_c) = sqrt(2) tan(theta3).  Both sets satisfy <S> = 2 <M>.
    """
    tau = math.sin(2.0 * p.theta) ** 2 * math.sin(p.theta3) ** 2
    c12_sq = math.sin(2.0 * p.theta) ** 2 * math.cos(p.theta3) ** 2
    if 3.0 * tau + c12_sq <= 1.0:
        terms = ghz_closed_terms(p)
        theta_c = math.atan2(terms.Q, terms.P)
        c = UnitVector.from_cartesian(
            [math.sin(theta_c), 0.0, math.cos(theta_c)])
        z = UnitVector(0.0, 0.0)
        minus_z = UnitVector(math.pi, 0.0)
        return MeasurementSettings(a=z, a_prime=z, b=z, b_prime=minus_z,
                                   c=c, c_prime=c)
    theta_c = math.atan2(math.sqrt(2.0) * math.sin(p.theta3), math.cos(p.theta3))
    minus_y = UnitVector(math.pi / 2, 3.0 * math.pi / 2)
    return MeasurementSettings(
        a=X_HAT, a_prime=minus_y, b=X_HAT, b_prime=minus_y,
        c=UnitVector(theta_c, math.pi / 4),
        c_prime=UnitVector(theta_c, 2.0 * math.pi - math.pi / 4),
    )


def smax_ghz_closed(profile: EntanglementProfile) -> SmaxReport:
    """Closed-form Svetlichny maximum of a GHZ-class profile.

    4 sqrt(1 - tau) on the low branch (3 tau + C12^2 <= 1), else
    4 sqrt(C12^2 + 2 tau).
    """
    if abs(profile.c23) > 1e-8 or abs(profile.c31) > 1e-8:
        raise ValidationError("GHZ-class profile requires c23 = c31 = 0")
    tau = profile.tau
    c12_sq = profile.c12 ** 2
    if 3.0 * tau + c12_sq <= 1.0:
        branch = "low-branch"
        value = 4.0 * math.sqrt(max(0.0, 1.0 - tau))
    else:
        branch = "high-branch"
        value = 4.0 * math.sqrt(c12_sq + 2.0 * tau)
    params = _ghz_params_from_profile(profile)
    settings = optimal_settings_ghz(params)
    achieved = svetlichny_value(ghz_state(params), settings)
    return SmaxReport(closed_value=value, branch=branch,
                      achieving_settings=settings,
                      operator_value_at_settings=achieved)


def w_correlator_closed(profile: EntanglementProfile, a: UnitVector,
                        b: UnitVector, c: UnitVector) -> float:
    """Closed-form <A B C> for a W-class profile."""
    ta, pa = a.polar, a.azimuth
    tb, pb = b.polar, b.azimuth
    tc, pc = c.polar, c.azimuth
    return (
        math.cos(tb) * (
            -math.cos(ta) * math.cos(tc)
            + profile.c31 * math.sin(ta) * math.sin(tc) * math.cos(pa - pc))
        + math.sin(tb) * (
            profile.c23 * math.cos(ta) * math.sin(tc) * math.cos(pb - pc)
            + profile.c12 * math.sin(ta) * math.cos(tc) * math.cos(pa - pb))
    )


def w_reduced_value(profile: EntanglementProfile, tilde_a: float,
                    tilde_b: float, tilde_c: float) -> float:
    """<S> of a W-class state at theta_bar = pi/2, phi = 0, as four sines.

    Flipping one party's angle flips the sign of the constant and of the
    concurrence between the other two parties.  Scalar math, since this is
    the L-BFGS-B objective of `smax_w`.
    """
    c12, c23, c31 = profile.c12, profile.c23, profile.c31
    return (math.sin(tilde_a + tilde_b + tilde_c) * (c12 + c23 + c31 - 1.0)
            + math.sin(-tilde_a + tilde_b + tilde_c) * (1.0 + c12 - c23 + c31)
            + math.sin(tilde_a - tilde_b + tilde_c) * (1.0 + c12 + c23 - c31)
            + math.sin(tilde_a + tilde_b - tilde_c) * (1.0 - c12 + c23 + c31))


def settings_from_w_angles(tilde_a: float, tilde_b: float,
                           tilde_c: float) -> MeasurementSettings:
    """Unprimed/primed directions at polar pi/2 -/+ theta-tilde, azimuth 0."""
    def pair(tilde):
        return (UnitVector.from_cartesian(
                    [math.cos(tilde), 0.0, math.sin(tilde)]),
                UnitVector.from_cartesian(
                    [math.cos(tilde), 0.0, -math.sin(tilde)]))
    a, ap = pair(tilde_a)
    b, bp = pair(tilde_b)
    c, cp = pair(tilde_c)
    return MeasurementSettings(a=a, a_prime=ap, b=b, b_prime=bp,
                               c=c, c_prime=cp)


def w_params_from_concurrences(c12: float, c23: float, c31: float) -> WClassParams:
    """Invert (C12, C23, C31) = (2bg, 2ab, 2ga) back to amplitudes.

    Raises when the three concurrences do not correspond to a normalized
    amplitude triple.
    """
    cs = (c12, c23, c31)
    if any(c < -1e-12 for c in cs):
        raise ValidationError("concurrences must be non-negative")
    tol = 1e-12
    nonzero = [c > tol for c in cs]
    if all(nonzero):
        alpha_sq = c23 * c31 / (2.0 * c12)
        beta_sq = c12 * c23 / (2.0 * c31)
        gamma_sq = c12 * c31 / (2.0 * c23)
        amps = [math.sqrt(v) for v in (alpha_sq, beta_sq, gamma_sq)]
    elif sum(nonzero) == 2:
        raise ValidationError(
            "exactly one vanishing concurrence is not realizable")
    elif sum(nonzero) == 1:
        # One product survives, so the third amplitude vanishes; the split
        # between the two roots is fixed deterministically.
        idx = nonzero.index(True)
        c = cs[idx]
        disc = max(0.0, 1.0 - c * c)
        hi = math.sqrt((1.0 + math.sqrt(disc)) / 2.0)
        lo = math.sqrt(max(0.0, (1.0 - math.sqrt(disc)) / 2.0))
        amps = [[0.0, hi, lo], [hi, lo, 0.0], [hi, 0.0, lo]][idx]
    else:
        amps = [1.0, 0.0, 0.0]
    norm_sq = sum(a * a for a in amps)
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValidationError(
            f"concurrences imply squared norm {norm_sq}, not realizable")
    return WClassParams(*amps)


def smax_w(profile: EntanglementProfile) -> SmaxReport:
    """Numeric maximum of the reduced W-class expression over theta-tilde.

    Multistart local ascent on the smooth 3-angle objective; both signs of
    the expression are explored so the reported value is max |S|.
    """
    rng = np.random.default_rng(_W_SEED)

    def negated(x, sign):
        return -sign * w_reduced_value(profile, x[0], x[1], x[2])

    best_value = -math.inf
    best_angles = (0.0, 0.0, 0.0)
    bounds = [(0.0, math.pi)] * 3
    for _ in range(_W_STARTS):
        x0 = rng.uniform(0.0, math.pi, size=3)
        for sign in (1.0, -1.0):
            res = minimize(negated, x0, args=(sign,), method="L-BFGS-B",
                           bounds=bounds, tol=1e-14,
                           options={"maxiter": 500, "ftol": 1e-15,
                                    "gtol": 1e-12})
            value = sign * w_reduced_value(profile, *res.x)
            if value > best_value:
                best_value = value
                best_angles = tuple(float(v) for v in res.x)
    # The objective is invariant under flipping all three angles to
    # pi - theta; report the representative with the smaller sum.
    if sum(best_angles) > 1.5 * math.pi:
        best_angles = tuple(math.pi - v for v in best_angles)
    settings = settings_from_w_angles(*best_angles)
    params = w_params_from_concurrences(profile.c12, profile.c23, profile.c31)
    achieved = svetlichny_value(w_state(params), settings)
    return SmaxReport(closed_value=best_value, branch="w-class",
                      achieving_settings=settings,
                      operator_value_at_settings=achieved,
                      theta_tilde=best_angles)


W_SYMMETRIC_TILT = math.acos(1.0 / math.sqrt(3.0))


def optimal_settings_w_symmetric() -> MeasurementSettings:
    """The symmetric-W directions x cos(t) +/- z sin(t) at t = arccos(1/sqrt 3)."""
    return settings_from_w_angles(W_SYMMETRIC_TILT, W_SYMMETRIC_TILT,
                                  W_SYMMETRIC_TILT)
