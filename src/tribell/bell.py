"""Svetlichny and Mermin operators, correlation tensors and closed-form maxima.

The Svetlichny operator is S = A(DC + D'C') + A'(D'C - DC') with D = B + B'
and D' = B - B'; the two halves are the Mermin operators M and M'.
Expanded, <S> = sum over x, y, z of G[x, y, z] <A_x B_y C_z>, where index 0
is a party's unprimed direction, 1 its primed one, and G is the sign tensor
SVETLICHNY_SIGNS.  Every correlator is a contraction of the 3x3x3
correlation tensor, the fast path used by the optimizer; the signs meet
the tensor in one place, `_block`.  The explicit 8x8 operators of
`bell_operators` are kept as the slow oracle, and the GHZ and W families
also have closed forms.  The flattenings of the correlation tensor bound
<S> over all settings (`smax_upper_bound`); on the GHZ family the bound
is the closed-form maximum itself.  scipy is imported on the first
`smax_w` call, its only user, so no other path loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .qcore import (
    GhzClassParams,
    PAULIS,
    UnitVector,
    ValidationError,
    X_HAT,
    Z_HAT,
    _amplitudes,
    _directions,
    expectation,
    spin_observable,
    tensor3,
)
from .entanglement import EntanglementProfile, ghz_profile_closed

ALGEBRAIC_CEILING = 4.0 * math.sqrt(2.0)

# smax_w: seeded starts, each ascended for both signs of <S>; the 2 *
# _W_STARTS ascents are the blocks of one L-BFGS-B problem.
_W_STARTS = 20
_W_SEED = 0
# The reduced W value is w . sin(_W_MIX theta_tilde): row i holds the signs
# of the three angles in the i-th sine, whose weight is _w_weights(...)[i].
_W_MIX = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
                   [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
# smax_w's bound on a profile's |tau| and on its W-family identity residual.
_W_PROFILE_TOL = 1e-8

# G[x, y, z]: the sign of <A_x B_y C_z> in <S>, with 0 the unprimed and 1
# the primed direction of each party.
SVETLICHNY_SIGNS = np.array([[[1.0, 1.0], [1.0, -1.0]],
                             [[1.0, -1.0], [-1.0, -1.0]]])
# SVETLICHNY_SIGNS with party r's axis last, for each r: views of the
# same +-1 values.
_SIGNS_BY_PARTY = tuple(np.moveaxis(SVETLICHNY_SIGNS, r, 2) for r in range(3))


@dataclass(frozen=True, slots=True)
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
        return np.array([(v.x, v.y, v.z) for v in (
            self.a, self.a_prime, self.b, self.b_prime, self.c, self.c_prime)])


def settings_from_vectors(vectors) -> MeasurementSettings:
    """MeasurementSettings holding six Cartesian unit vectors exactly."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != (6, 3):
        raise ValidationError("expected six 3-vectors")
    return MeasurementSettings(*(UnitVector(*v) for v in vectors))


@dataclass(frozen=True, slots=True)
class SmaxReport:
    """Closed-form maximum with the settings that achieve it.

    For the GHZ class, `achieving_settings` belong to the representative
    state of `_ghz_params_from_profile` (theta <= pi/4), not necessarily to
    the state the profile came from: at theta = 1.2, theta3 = 0.2 they
    reach 3.7906 on the input state against the closed form's 3.9638.
    """

    closed_value: float
    branch: str
    achieving_settings: MeasurementSettings
    theta_tilde: Optional[Tuple[float, float, float]] = None


def _settings_vectors(ms) -> np.ndarray:
    """The (6, 3) vectors of a MeasurementSettings, or an (..., 6, 3) stack
    of settings vectors as given; their directions are checked where they
    are read."""
    if isinstance(ms, MeasurementSettings):
        return ms.vectors()
    vectors = np.asarray(ms, dtype=float)
    if vectors.ndim < 2 or vectors.shape[-2:] != (6, 3):
        raise ValidationError("expected six 3-vectors")
    return vectors


def bell_operators(ms):
    """8x8 matrices (S, M, M') with S = M + M'.

    `ms` is a MeasurementSettings or an (..., 6, 3) stack of settings
    vectors, each row a unit direction; a stack gives (..., 8, 8) stacks,
    each equal to the operators of its settings alone.
    """
    a, ap, b, bp, c, cp = np.moveaxis(
        spin_observable(_settings_vectors(ms)), -3, 0)
    d = b + bp
    dp = b - bp
    m = tensor3(a, d, c) + tensor3(a, dp, cp)
    m_prime = tensor3(ap, dp, c) - tensor3(ap, d, cp)
    s = m + m_prime
    for op in (s, m, m_prime):
        if not np.all(np.abs(op - op.conj().swapaxes(-1, -2)) <= 1e-12):
            raise ValidationError("Bell operator lost Hermiticity")
    return s, m, m_prime


def correlation_tensor(s) -> np.ndarray:
    """T[i, j, k] = <sigma_i x sigma_j x sigma_k> over the x, y, z axes.

    All 27 Pauli-triple expectations in one contraction, as a read-only
    (3, 3, 3) array, or (..., 3, 3, 3) for an (..., 8) stack of amplitude
    vectors, each equal to the tensor of its state alone.
    """
    amps = _amplitudes(s)
    psi = amps.reshape(amps.shape[:-1] + (2, 2, 2))
    entries = np.einsum("...abc,iad,jbe,kcf,...def->...ijk",
                        psi.conj(), PAULIS, PAULIS, PAULIS, psi)
    if not np.all(np.abs(entries.imag) <= 1e-10):
        raise ValidationError("correlation tensor has an imaginary residue")
    t = entries.real
    if not np.all(np.abs(t) <= 1.0 + 1e-10):
        raise ValidationError("correlation tensor entry outside [-1, 1]")
    t.setflags(write=False)
    return t


def _block(t: np.ndarray, parties: np.ndarray, r: int) -> np.ndarray:
    """<S> with party r held at its pair, a bilinear form in the others.

    `t` is the 3x3x3 correlation tensor shared by every start, or an
    (n, 3, 3, 3) stack of one tensor per start, and `parties` a
    (3, 2, n, 3) stack (party, unprimed/primed, start, axis).  With p < q
    the other parties, B[x, y, n, i, j] = d^2 <S> / dP_x[i] dQ_y[j], of
    shape (2, 2, n, 3, 3).  Every <S> value, coefficient vector and Hessian
    block is read from it.  Every sum is in a fixed order, so a start's
    block does not depend on how many starts share the batch.
    """
    # Folding the +-1 signs into party r's pair is exact in any order.
    signed = np.einsum("xyz,znl->xynl", _SIGNS_BY_PARTY[r], parties[r])
    # t with party r's axis, counted from the end, fixed at l is a (p, q)
    # matrix, or one per start.
    fixed = (slice(None),) * (2 - r)
    block = signed[..., 0, None, None] * t[(Ellipsis, 0) + fixed]
    for l in (1, 2):
        block += signed[..., l, None, None] * t[(Ellipsis, l) + fixed]
    return block


def _contract(block: np.ndarray, pair: np.ndarray,
              q_side: bool) -> np.ndarray:
    """Party p's coefficient vectors (2, n, 3) in a `_block`, from party
    q's `pair`; with `q_side`, party q's from party p's."""
    if q_side:
        block = block.transpose(1, 0, 2, 4, 3)
    pair = pair[:, :, None, :]
    terms = block[..., 0] * pair[..., 0]
    for j in (1, 2):
        terms += block[..., j] * pair[..., j]
    return terms[:, 0] + terms[:, 1]


def _party_coefficients(t: np.ndarray, parties: np.ndarray,
                        k: int) -> np.ndarray:
    """Coefficient vectors of <S> in both directions of party k.

    `parties` is a (3, 2, n, 3) stack as in `_block`.  <S> is linear in
    each direction, so row x of the (2, n, 3) result dotted with direction
    x of party k, summed over x, gives <S> for each of the n starts.  It
    is the `_block` of another party applied to the third party's pair.
    """
    # Party 0 is side p of party 2's block, at party 1's pair; parties 1
    # and 2 are side q of the blocks of 2 and 1, at party 0's pair.
    block = _block(t, parties, 1 if k == 2 else 2)
    return _contract(block, parties[0 if k else 1], k > 0)


def smax_upper_bound(t: np.ndarray) -> float:
    """4 min_k sigma_max(T_(k)), an upper bound on |<S>| over all settings.

    T_(k) is the 3x9 flattening of the correlation tensor `t` on party k.
    SVETLICHNY_SIGNS is symmetric under any permutation of the parties, so
    contracting it with the other two parties' unit directions p, p', q, q'
    leaves one 9-vector per direction x of party k:
    w_0 = p (x) (q + q') + p' (x) (q - q') and w_1 = p (x) (q - q') -
    p' (x) (q + q').  Since |q + q'|^2 + |q - q'|^2 = 4 and
    (q + q') . (q - q') = 0, |w_0| = |w_1| = 2, so with u_0, u_1 party k's
    own directions,
    <S> = u_0 . T_(k) w_0 + u_1 . T_(k) w_1 <= |T_(k) w_0| + |T_(k) w_1|
    <= 4 sigma_max(T_(k)).  The bound holds for each k, so for their
    minimum.  On the GHZ family it equals Eq. (19)'s maximum; compare Li,
    Shen, Jing, Fei and Li-Jost, PRA 96, 042323 (2017).
    """
    flattenings = np.stack([np.moveaxis(t, k, 0).reshape(3, 9)
                            for k in range(3)])
    return 4.0 * float(np.min(
        np.linalg.svd(flattenings, compute_uv=False)[:, 0]))


def svetlichny_value(s, ms):
    """|<S>| via the correlation-tensor contraction.

    `s` is a state or an (..., 8) stack of amplitude vectors and `ms` a
    MeasurementSettings or an (..., 6, 3) stack of settings vectors of the
    same batch shape.  One of each gives a float, stacks an array.  Each
    case's six terms are summed as one contiguous row, in the order of a
    single case, so a stacked value equals the value alone.
    """
    vectors = _settings_vectors(ms)
    if not isinstance(ms, MeasurementSettings):
        # A MeasurementSettings' UnitVectors were checked when it was built.
        vectors = _directions(vectors)
    t = correlation_tensor(s)
    if t.shape[:-3] != vectors.shape[:-2]:
        raise ValidationError("state and settings stacks differ in shape")
    parties = vectors.reshape(-1, 3, 2, 3).transpose(1, 2, 0, 3)
    coeff = _party_coefficients(t.reshape(-1, 3, 3, 3), parties, 0)
    terms = (coeff * parties[0]).transpose(1, 0, 2).reshape(-1, 6)
    values = np.abs(np.sum(terms, axis=-1)).reshape(t.shape[:-3])
    return float(values) if values.ndim == 0 else values


def svetlichny_value_direct(s, ms):
    """|<S>| via the explicit 8x8 operator; the slow verification oracle.

    Takes what `svetlichny_value` takes, and gives the same shape.
    """
    return abs(expectation(s, bell_operators(ms)[0]))


def _ghz_closed_terms(p: GhzClassParams) -> Tuple[float, float]:
    """(P, Q) with P = 1 - 2 sin^2(theta) sin^2(theta3) and
    Q = sin^2(theta) sin(2 theta3)."""
    sin_sq = math.sin(p.theta) ** 2
    return (1.0 - 2.0 * sin_sq * math.sin(p.theta3) ** 2,
            sin_sq * math.sin(2.0 * p.theta3))


def ghz_correlator_closed(p: GhzClassParams, a: UnitVector, d: UnitVector,
                          c: UnitVector) -> float:
    """Closed-form <A D C> for the GHZ-class family."""
    P, Q = _ghz_closed_terms(p)
    ta, pa = a.polar, a.azimuth
    td, pd = d.polar, d.azimuth
    tc, pc = c.polar, c.azimuth
    first = math.cos(ta) * math.cos(td) * (
        P * math.cos(tc) + Q * math.cos(pc) * math.sin(tc))
    second = math.sin(2.0 * p.theta) * math.sin(ta) * math.sin(td) * (
        math.cos(p.theta3) * math.cos(pa + pd) * math.cos(tc)
        + math.sin(p.theta3) * math.cos(pa + pd + pc) * math.sin(tc))
    return first + second


def _ghz_branches(tau: float, c12_sq: float) -> Tuple[bool, float, float]:
    """Eq. (19): whether 3 tau + C12^2 <= 1 (the low branch), then the low
    branch 4 sqrt(1 - tau) and the high branch 4 sqrt(C12^2 + 2 tau)."""
    return (3.0 * tau + c12_sq <= 1.0, 4.0 * math.sqrt(max(0.0, 1.0 - tau)),
            4.0 * math.sqrt(max(0.0, c12_sq + 2.0 * tau)))


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
    profile = ghz_profile_closed(p)
    if _ghz_branches(profile.tau, profile.c12 ** 2)[0]:
        P, Q = _ghz_closed_terms(p)
        theta_c = math.atan2(Q, P)
        c = UnitVector(math.sin(theta_c), 0.0, math.cos(theta_c))
        minus_z = UnitVector.from_angles(math.pi, 0.0)
        return MeasurementSettings(a=Z_HAT, a_prime=Z_HAT, b=Z_HAT,
                                   b_prime=minus_z, c=c, c_prime=c)
    theta_c = math.atan2(math.sqrt(2.0) * math.sin(p.theta3), math.cos(p.theta3))
    minus_y = UnitVector.from_angles(math.pi / 2, 3.0 * math.pi / 2)
    return MeasurementSettings(
        a=X_HAT, a_prime=minus_y, b=X_HAT, b_prime=minus_y,
        c=UnitVector.from_angles(theta_c, math.pi / 4),
        c_prime=UnitVector.from_angles(theta_c, 2.0 * math.pi - math.pi / 4),
    )


def smax_ghz_closed(profile: EntanglementProfile) -> SmaxReport:
    """Closed-form Svetlichny maximum of a GHZ-class profile.

    4 sqrt(1 - tau) on the low branch (3 tau + C12^2 <= 1), else
    4 sqrt(C12^2 + 2 tau), from the profile alone.  The report's settings
    are `optimal_settings_ghz` of the representative state from
    `_ghz_params_from_profile` (theta <= pi/4), not of the input state;
    see `SmaxReport`.
    """
    if abs(profile.c23) > 1e-8 or abs(profile.c31) > 1e-8:
        raise ValidationError("GHZ-class profile requires c23 = c31 = 0")
    low, low_value, high_value = _ghz_branches(profile.tau, profile.c12 ** 2)
    branch, value = (("low-branch", low_value) if low
                     else ("high-branch", high_value))
    return SmaxReport(closed_value=value, branch=branch,
                      achieving_settings=optimal_settings_ghz(
                          _ghz_params_from_profile(profile)))


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


def _w_weights(profile: EntanglementProfile) -> np.ndarray:
    """The weights of the four sines of the reduced W value, row by row."""
    c12, c23, c31 = profile.c12, profile.c23, profile.c31
    return np.array([c12 + c23 + c31 - 1.0, 1.0 + c12 - c23 + c31,
                     1.0 + c12 + c23 - c31, 1.0 - c12 + c23 + c31])


def w_reduced_value(profile: EntanglementProfile, tilde_a: float,
                    tilde_b: float, tilde_c: float) -> float:
    """<S> of a W-class state at theta_bar = pi/2, phi = 0, as four sines.

    The value is w . sin(M theta_tilde), with w = `_w_weights(profile)` and
    M = `_W_MIX`.  Flipping one party's angle flips the sign of the constant
    and of the concurrence between the other two parties.
    """
    return float(np.sin(_W_MIX @ (tilde_a, tilde_b, tilde_c))
                 @ _w_weights(profile))


def settings_from_w_angles(tilde_a: float, tilde_b: float,
                           tilde_c: float) -> MeasurementSettings:
    """Unprimed/primed directions at polar pi/2 -/+ theta-tilde, azimuth 0."""
    def pair(tilde):
        return (UnitVector(math.cos(tilde), 0.0, math.sin(tilde)),
                UnitVector(math.cos(tilde), 0.0, -math.sin(tilde)))
    return MeasurementSettings(*pair(tilde_a), *pair(tilde_b), *pair(tilde_c))


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def smax_w(profile: EntanglementProfile) -> SmaxReport:
    """Numeric maximum of the reduced W-class expression over theta-tilde.

    The profile must be of the d = 0 W family: tau = 0 and C23^2 C31^2 +
    C12^2 C23^2 + C12^2 C31^2 = 2 C12 C23 C31, both within _W_PROFILE_TOL,
    else ValidationError.  A d > 0 state breaks the identity, and the
    reduced form would overstate its maximum.

    Multistart local ascent on the smooth 3-angle objective, which depends
    on the profile's C12, C23 and C31 alone; each start is ascended for
    both signs of the expression, so the reported value is max |S|.  The
    2 * _W_STARTS ascents are the blocks of one separable problem, solved
    by a single L-BFGS-B call with the analytic gradient
    (w o cos(M x)) M of each block's value w . sin(M x), so each block
    still converges to a stationary point of its own start.  The report
    carries the maximizing angles and their `settings_from_w_angles`
    directions.
    """
    c12, c23, c31 = profile.c12, profile.c23, profile.c31
    identity = ((c23 * c31) ** 2 + (c12 * c23) ** 2 + (c12 * c31) ** 2
                - 2.0 * c12 * c23 * c31)
    if abs(profile.tau) > _W_PROFILE_TOL or abs(identity) > _W_PROFILE_TOL:
        raise ValidationError("smax_w requires a d = 0 W-family profile")
    weights = _w_weights(profile)
    # Block 2k is start k ascending <S>, block 2k + 1 the same start
    # ascending -<S>.
    signs = np.tile([1.0, -1.0], _W_STARTS)
    starts = np.random.default_rng(_W_SEED).uniform(0.0, math.pi,
                                                    size=(_W_STARTS, 3))

    def negated(x):
        mixed = x.reshape(-1, 3) @ _W_MIX.T
        value = signs @ (np.sin(mixed) @ weights)
        grad = (signs[:, None] * weights * np.cos(mixed)) @ _W_MIX
        return -value, -grad.ravel()

    # ftol = 0: a relative stop on the sum over all blocks would end short
    # of each block's own maximum, so the run ends once the projected
    # gradient is within gtol or the sum stops decreasing.
    res = minimize(negated, np.repeat(starts, 2, axis=0).ravel(), jac=True,
                   method="L-BFGS-B", bounds=[(0.0, math.pi)] * signs.size * 3,
                   options={"maxiter": 15000, "ftol": 0.0, "gtol": 1e-12})
    angles = res.x.reshape(-1, 3)
    values = signs * (np.sin(angles @ _W_MIX.T) @ weights)
    # argmax picks the first of equal values: the earliest start, and its
    # +<S> block before its -<S> block.
    best = int(np.argmax(values))
    best_value = float(values[best])
    best_angles = tuple(float(v) for v in angles[best])
    # The objective is invariant under flipping all three angles to
    # pi - theta; report the representative with the smaller sum.
    if sum(best_angles) > 1.5 * math.pi:
        best_angles = tuple(math.pi - v for v in best_angles)
    return SmaxReport(closed_value=best_value, branch="w-class",
                      achieving_settings=settings_from_w_angles(*best_angles),
                      theta_tilde=best_angles)
