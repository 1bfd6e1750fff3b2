"""Svetlichny and Mermin operators, correlation tensors and closed-form maxima.

The Svetlichny operator is S = A(DC + D'C') + A'(D'C - DC') with D = B + B'
and D' = B - B'; the two halves are the Mermin operators M and M'.
Expanded, <S> = sum over x, y, z of G[x, y, z] <A_x B_y C_z>, where index 0
is a party's unprimed direction, 1 its primed one, and G is the sign tensor
SVETLICHNY_SIGNS.  Every correlator is a contraction of the 3x3x3
correlation tensor, the fast path used by the optimizer; the signs meet
the tensor in one place, `_block`, which takes each party's view of the
tensor (`_tensor_views`) and gives the blocks of any of the three parties
in one pass: the optimizer makes one such pass per step.  The explicit 8x8
operators of `bell_operators` are kept as the slow oracle, and the GHZ and
W families also have closed forms.  The flattenings of the correlation
tensor bound <S> over all settings (`smax_upper_bound`, of one tensor or
a stack); on the GHZ family the bound is the closed-form maximum itself.
A setting is one checked, read-only (6, 3) array of directions
(`MeasurementSettings`), whose rows are its directions, and a stack of
them is checked at once.  The closed-form correlators read any three
directions' angles through `qcore._angles`.
The W-family maximum `smax_w` solves its stationarity conditions in numpy,
so no path loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .qcore import (
    GhzClassParams,
    PAULIS,
    ValidationError,
    _amplitudes,
    _angle_components,
    _angles,
    _directions,
    expectation,
    spin_observable,
    tensor3,
)
from .entanglement import EntanglementProfile, ghz_profile_closed

ALGEBRAIC_CEILING = 4.0 * math.sqrt(2.0)

# smax_w brackets the roots of its branch equations in lambda on this grid,
# scaled by min |w_i|; on the profiles its docstring names, 257 points give
# the maxima of 8193 within 1e-15.
_W_LAMBDA_GRID = np.linspace(-1.0, 1.0, 257)
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
# SVETLICHNY_SIGNS with party r's axis last, stacked over r: (3, 2, 2, 2).
_SIGNS_BY_PARTY = np.stack([np.moveaxis(SVETLICHNY_SIGNS, r, 2)
                            for r in range(3)])


class MeasurementSettings:
    """The six measurement directions (a, a', b, b', c, c') as one read-only
    (6, 3) array of their Cartesian components, in that order.

    The constructor copies a (6, 3) array-like and checks its directions
    by `qcore._directions`; `settings_from_vectors` also takes a stack of
    them, which it checks once, as one stack.  Equality and hash go by
    value.
    """

    __slots__ = ("_vectors",)

    def __init__(self, vectors):
        """Settings of a (6, 3) array-like, copied and checked."""
        self._vectors = _checked_vectors(vectors, (2,))

    @classmethod
    def _of(cls, checked: np.ndarray) -> "MeasurementSettings":
        """Settings of a read-only (6, 3) array that was checked, with no
        second check."""
        settings = object.__new__(cls)
        settings._vectors = checked
        return settings

    def vectors(self) -> np.ndarray:
        """The read-only (6, 3) array itself, not a copy."""
        return self._vectors

    def __eq__(self, other):
        return (isinstance(other, MeasurementSettings)
                and self._vectors.tolist() == other._vectors.tolist())

    def __hash__(self):
        return hash(tuple(self._vectors.ravel().tolist()))

    def __repr__(self):
        return f"MeasurementSettings({self._vectors.tolist()})"

    def __reduce__(self):
        # A pickled or copied setting is rebuilt, checked and read-only.
        return MeasurementSettings, (self._vectors,)


def _checked_vectors(vectors, ndims=(2, 3)) -> np.ndarray:
    """A read-only copy of a (6, 3) array-like or an (n, 6, 3) stack, of a
    number of axes in `ndims`, whose directions are checked once, as one
    stack."""
    vectors = np.array(vectors, dtype=float)
    if vectors.ndim not in ndims or vectors.shape[-2:] != (6, 3):
        raise ValidationError("expected six 3-vectors")
    _directions(vectors)
    vectors.setflags(write=False)
    return vectors


def settings_from_vectors(vectors):
    """MeasurementSettings holding six Cartesian unit vectors exactly, from
    a (6, 3) array-like, or a list of them from an (n, 6, 3) stack, whose
    directions are checked once, as one stack."""
    vectors = _checked_vectors(vectors)
    if vectors.ndim == 2:
        return MeasurementSettings._of(vectors)
    return [MeasurementSettings._of(row) for row in vectors]


@dataclass(frozen=True, slots=True)
class SmaxReport:
    """Closed-form maximum with the settings that achieve it.

    From `smax_ghz_closed`, `achieving_settings` belong to the
    representative state of `_ghz_params_from_profile` (theta <= pi/4), not
    necessarily to the state the profile came from: at theta = 1.2,
    theta3 = 0.2 they reach 3.7906 on the input state against the closed
    form's 3.9638.  A GHZ sweep row's report is `_ghz_report` of the row's
    own (theta, theta3), whose settings reach its closed value.
    """

    closed_value: float
    branch: str
    achieving_settings: MeasurementSettings
    theta_tilde: Optional[Tuple[float, float, float]] = None


def _settings_vectors(ms) -> np.ndarray:
    """The (6, 3) array of a MeasurementSettings, checked when it was built,
    or an (..., 6, 3) stack of settings vectors, checked here."""
    if isinstance(ms, MeasurementSettings):
        return ms.vectors()
    vectors = np.asarray(ms, dtype=float)
    if vectors.ndim < 2 or vectors.shape[-2:] != (6, 3):
        raise ValidationError("expected six 3-vectors")
    return _directions(vectors)


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


def _tensor_views(t: np.ndarray) -> np.ndarray:
    """Each party's view of the correlation tensors `t`, (3, 3, n, 3, 3).

    `t` is one 3x3x3 tensor, shared by every start, or an (n, 3, 3, 3)
    stack of one tensor per start.  V[r, l] holds each tensor with party
    r's axis fixed at l: a (p, q) matrix, p < q the other two parties.  One
    tensor gives n = 1, which broadcasts over the starts.
    """
    t = t.reshape(-1, 3, 3, 3)
    return np.stack([t.transpose(1, 0, 2, 3), t.transpose(2, 0, 1, 3),
                     t.transpose(3, 0, 1, 2)])


def _block(views: np.ndarray, parties: np.ndarray,
           r: slice = slice(None)) -> np.ndarray:
    """<S> with a party held at its pair, a bilinear form in the others.

    `views` is a `_tensor_views` stack and `parties` a (3, 2, ..., 3) stack
    (party, unprimed/primed, start axes, axis) whose start axes broadcast
    against the views'.  For each party of the slice `r`, all three by
    default, with p < q the other parties, B[x, y, ..., i, j] =
    d^2 <S> / dP_x[i] dQ_y[j]: a stack of shape (parties in r, 2, 2, ...,
    3, 3).  One party's block is the one-party slice.  Every <S> value,
    coefficient vector and Hessian block is read from it.  Every sum is in
    a fixed order, so a start's block does not depend on how many starts
    share the batch.
    """
    signs, pairs, views = _SIGNS_BY_PARTY[r], parties[r], views[r]
    spread = (Ellipsis,) + (None,) * (pairs.ndim - 2)
    pairs = pairs[:, None, None]
    # The +-1 signs folded into each held pair: the products are exact, and
    # the sum starts from +0.0, as einsum's sum of products does, so two
    # zero terms give +0.0 whatever their signs.
    signed = ((0.0 + signs[..., 0][spread] * pairs[:, :, :, 0])
              + signs[..., 1][spread] * pairs[:, :, :, 1])
    block = signed[..., 0, None, None] * views[:, 0, None, None]
    for l in (1, 2):
        block += signed[..., l, None, None] * views[:, l, None, None]
    return block


def _contract(block: np.ndarray, pair: np.ndarray,
              q_side: bool) -> np.ndarray:
    """Party p's coefficient vectors (2, ..., 3) in one party's `_block`,
    from party q's `pair`; with `q_side`, party q's from party p's."""
    if q_side:
        block = block.swapaxes(0, 1).swapaxes(-1, -2)
    pair = pair[..., None, :]
    terms = block[..., 0] * pair[..., 0]
    for j in (1, 2):
        terms += block[..., j] * pair[..., j]
    return terms[:, 0] + terms[:, 1]


def _party_coefficients(views: np.ndarray, parties: np.ndarray,
                        k: int) -> np.ndarray:
    """Coefficient vectors of <S> in both directions of party k.

    `views` and `parties` are as in `_block`.  <S> is linear in each
    direction, so row x of the (2, ..., 3) result dotted with direction x
    of party k, summed over x, gives <S> for each start.  It is the
    `_block` of another party applied to the third party's pair.
    """
    # Party 0 is side p of party 2's block, at party 1's pair; parties 1
    # and 2 are side q of the blocks of 2 and 1, at party 0's pair.
    held = 1 if k == 2 else 2
    block = _block(views, parties, slice(held, held + 1))[0]
    return _contract(block, parties[0 if k else 1], k > 0)


def smax_upper_bound(t: np.ndarray):
    """4 min_k sigma_max(T_(k)), an upper bound on |<S>| over all settings.

    T_(k) is the 3x9 flattening of the correlation tensor `t` on party k.
    One 3x3x3 tensor gives a float, an (..., 3, 3, 3) stack an array of
    the stack's shape, each entry equal to the bound of its tensor alone.
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
    t = np.asarray(t)
    flattenings = np.stack([np.moveaxis(t, k - 3, -3).reshape(
        t.shape[:-3] + (3, 9)) for k in range(3)], axis=-3)
    bounds = 4.0 * np.min(
        np.linalg.svd(flattenings, compute_uv=False)[..., 0], axis=-1)
    return float(bounds) if bounds.ndim == 0 else bounds


def svetlichny_value(s, ms):
    """|<S>| via the correlation-tensor contraction.

    `s` is a state or an (..., 8) stack of amplitude vectors and `ms` a
    MeasurementSettings or an (..., 6, 3) stack of settings vectors of the
    same batch shape.  One of each gives a float, stacks an array.  Each
    case's six terms are summed as one contiguous row, in the order of a
    single case, so a stacked value equals the value alone.
    """
    vectors = _settings_vectors(ms)
    t = correlation_tensor(s)
    if t.shape[:-3] != vectors.shape[:-2]:
        raise ValidationError("state and settings stacks differ in shape")
    parties = vectors.reshape(-1, 3, 2, 3).transpose(1, 2, 0, 3)
    # Party 0's coefficients read party 2's block alone, as in
    # `_party_coefficients`.  Party 2 is the last party, so its view alone,
    # as a one-entry stack, is the slice [-1:] that `_block` reads.
    view = t.reshape(-1, 3, 3, 3).transpose(3, 0, 1, 2)[None]
    coeff = _contract(_block(view, parties, slice(-1, None))[0], parties[1],
                      False)
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


def ghz_correlator_closed(p: GhzClassParams, a, d, c) -> float:
    """Closed-form <A D C> for the GHZ-class family, at any three
    directions of three components each, such as rows of a setting."""
    P, Q = _ghz_closed_terms(p)
    (ta, pa), (td, pd), (tc, pc) = _angles(*a), _angles(*d), _angles(*c)
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


def _ghz_report(p: GhzClassParams,
                profile: EntanglementProfile) -> SmaxReport:
    """Eq. (19)'s maximum of the GHZ-class point `p`, whose profile is
    `profile`, with the settings of `p` that reach it.

    The branch is read once, from `profile`.  The low branch
    (3 tau + C12^2 <= 1), 4 sqrt(1 - tau), measures along z on the first
    two qubits with b' = -b, and tilts the third-party direction by
    arctan(Q / P); the high branch, 4 sqrt(C12^2 + 2 tau), puts the primed
    directions along -y and splits the third party symmetrically about the
    x-z plane with tan(theta_c) = sqrt(2) tan(theta3).  Both sets satisfy
    <S> = 2 <M>.
    """
    low, low_value, high_value = _ghz_branches(profile.tau, profile.c12 ** 2)
    if low:
        P, Q = _ghz_closed_terms(p)
        theta_c = math.atan2(Q, P)
        z = _angle_components(0.0, 0.0)
        c = (math.sin(theta_c), 0.0, math.cos(theta_c))
        vectors = [z, z, z, _angle_components(math.pi, 0.0), c, c]
    else:
        theta_c = math.atan2(math.sqrt(2.0) * math.sin(p.theta3),
                             math.cos(p.theta3))
        x = _angle_components(math.pi / 2, 0.0)
        minus_y = _angle_components(math.pi / 2, 3.0 * math.pi / 2)
        vectors = [x, minus_y, x, minus_y,
                   _angle_components(theta_c, math.pi / 4),
                   _angle_components(theta_c, 2.0 * math.pi - math.pi / 4)]
    return SmaxReport(closed_value=low_value if low else high_value,
                      branch="low-branch" if low else "high-branch",
                      achieving_settings=settings_from_vectors(vectors))


def optimal_settings_ghz(p: GhzClassParams) -> MeasurementSettings:
    """Measurement directions of `p` achieving Eq. (19)'s maximum; see
    `_ghz_report`."""
    return _ghz_report(p, ghz_profile_closed(p)).achieving_settings


def smax_ghz_closed(profile: EntanglementProfile) -> SmaxReport:
    """Closed-form Svetlichny maximum of a GHZ-class profile, from the
    profile alone.  The report's settings are those of the representative
    state from `_ghz_params_from_profile` (theta <= pi/4), not of the input
    state; see `SmaxReport`.
    """
    if abs(profile.c23) > 1e-8 or abs(profile.c31) > 1e-8:
        raise ValidationError("GHZ-class profile requires c23 = c31 = 0")
    return _ghz_report(_ghz_params_from_profile(profile), profile)


def w_correlator_closed(profile: EntanglementProfile, a, b, c) -> float:
    """Closed-form <A B C> for a W-class profile, at any three directions
    of three components each, such as rows of a setting."""
    (ta, pa), (tb, pb), (tc, pc) = _angles(*a), _angles(*b), _angles(*c)
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


def _w_angle_vectors(*tildes: float) -> np.ndarray:
    """The (6, 3) vectors of `settings_from_w_angles`, unchecked."""
    return np.array([(math.cos(tilde), 0.0, sign * math.sin(tilde))
                     for tilde in tildes for sign in (1.0, -1.0)])


def settings_from_w_angles(tilde_a: float, tilde_b: float,
                           tilde_c: float) -> MeasurementSettings:
    """Unprimed/primed directions at polar pi/2 -/+ theta-tilde, azimuth 0."""
    return settings_from_vectors(_w_angle_vectors(tilde_a, tilde_b, tilde_c))


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.  Nothing in
    tribell calls it.  It stays only because two tests name it:
    `test_installed_wraps_aliases_and_restores_them` in
    `perfbench/test_perfbench.py`, and `tests/test_benchmark_spans.py`
    through the metric `bell.minimize.calls` in BENCHMARK.json."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def smax_w(profile: EntanglementProfile) -> SmaxReport:
    """Maximum of the reduced W-class expression over theta-tilde.

    The profile must be of the d = 0 W family: tau = 0 and C23^2 C31^2 +
    C12^2 C23^2 + C12^2 C31^2 = 2 C12 C23 C31, both within _W_PROFILE_TOL,
    else ValidationError.  A d > 0 state breaks the identity, and the
    reduced form would overstate its maximum.

    With (p, q, r) = _W_MIX[1:] theta-tilde, the value is
    f = w0 sin(p + q + r) + w1 sin p + w2 sin q + w3 sin r, w =
    `_w_weights(profile)`.  f is 2 pi-periodic in p, q and r, so its
    maximum is a stationary point, where w1 cos p = w2 cos q = w3 cos r =
    -w0 cos(p + q + r) = lambda, with |lambda| <= m = min |w_i|, i >= 1.
    Each of the 8 sign choices (p, q, r) = +-arccos(lambda / w_i) makes
    this one equation, lambda + w0 cos(p + q + r) = 0, so every stationary
    point solves one of the 8.  Their roots are bracketed on
    `_W_LAMBDA_GRID` times m and bisected together until the brackets stop
    shrinking; lambda = 0, theta-tilde = (pi/2)^3, where f = 4 on every W
    profile, is the first candidate, and the whole answer when m = 0,
    which the identity allows only where w0 = 0.  On 41 Fig.-2 curves of
    41 sums each and 1000 random W profiles, the grid's maxima agree with
    an 8193-point grid's within 1e-15.  f changes sign when one angle of
    theta-tilde moves by pi, so its maximum is max |S| over angles in
    [0, pi], where the report takes them, with their
    `settings_from_w_angles` directions.
    """
    c12, c23, c31 = profile.c12, profile.c23, profile.c31
    identity = ((c23 * c31) ** 2 + (c12 * c23) ** 2 + (c12 * c31) ** 2
                - 2.0 * c12 * c23 * c31)
    if abs(profile.tau) > _W_PROFILE_TOL or abs(identity) > _W_PROFILE_TOL:
        raise ValidationError("smax_w requires a d = 0 W-family profile")
    weights = _w_weights(profile)
    w0, w = weights[0], weights[1:]
    # Row k holds the signs of (p, q, r) in branch k.
    signs = 1.0 - 2.0 * (np.arange(8)[:, None] >> np.arange(3) & 1)

    def angles(lam, branch_signs):
        return branch_signs * np.arccos(lam[..., None] / w)

    def residual(lam, branch_signs):
        return lam + w0 * np.cos(angles(lam, branch_signs).sum(axis=-1))

    pqr = np.full((1, 3), math.pi / 2)
    grid = np.min(np.abs(w)) * _W_LAMBDA_GRID
    if grid[-1] > 0.0:
        neg = np.signbit(residual(grid, signs[:, None]))
        branch, k = np.nonzero(neg[:, :-1] != neg[:, 1:])
        signs, lo, hi = signs[branch], grid[k], grid[k + 1]
        mid = 0.5 * (lo + hi)
        # Each bracket keeps the residual's sign at lo and the other at hi.
        while np.any((lo < mid) & (mid < hi)):
            left = np.signbit(residual(mid, signs)) == neg[branch, k]
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
            mid = 0.5 * (lo + hi)
        pqr = np.concatenate([pqr, angles(lo, signs)])
    values = w0 * np.sin(pqr.sum(axis=-1)) + np.sin(pqr) @ w
    # argmax picks the first of equal values: the corner.
    p, q, r = pqr[np.argmax(values)].tolist()
    best_angles = tuple(0.5 * v % math.pi for v in (q + r, p + r, p + q))
    # The objective is invariant under flipping all three angles to
    # pi - theta; report the representative with the smaller sum.
    if sum(best_angles) > 1.5 * math.pi:
        best_angles = tuple(math.pi - v for v in best_angles)
    return SmaxReport(float(values.max()), "w-class",
                      settings_from_w_angles(*best_angles), best_angles)
