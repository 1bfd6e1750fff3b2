"""Certified maximization of the Svetlichny value and grid verification.

<S> is linear in each party's pair of directions, so with the other two
parties held fixed the best pair is the normalized pair of coefficient
vectors.  The see-saw cycle updates the three parties in turn and never
lowers <S>, but near a maximum it converges only linearly, and on a flat
maximum very slowly.  So each start runs _HANDOVER see-saw cycles and
then takes Riemannian Newton steps on the product of the six unit
spheres (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008).  <S> is multilinear, so its gradient and Hessian there
have closed forms, both read from `bell._block`, the one place the signs
meet the correlation tensor.  The safeguard: a Newton step that would
lower <S> is replaced by a see-saw cycle, so the ascent stays monotone.
A start stops when its residual, the norm of the Riemannian gradient, is
within CONVERGENCE_TOL, or after _MAX_STEPS steps; a seeded multistart
makes the search global in practice.

The whole batch stops as soon as one start is certified within BOUND_TOL
of `bell.smax_upper_bound`, the correlation-tensor bound on every
setting's |<S>|: that start is provably the global maximum, so no other
start can beat it.  The bound is tight on the GHZ family, so there the
certificate is global; elsewhere it is loose and the batch runs until
every start stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .qcore import (
    GhzClassParams,
    ThreeQubitPureState,
    ValidationError,
    WClassParams,
    _derived_seed,
    ghz_state,
    w_state,
)
from .bell import (
    MeasurementSettings,
    SmaxReport,
    _block,
    _contract,
    _party_coefficients,
    correlation_tensor,
    settings_from_vectors,
    smax_ghz_closed,
    smax_upper_bound,
    smax_w,
)
from .entanglement import (
    EntanglementProfile,
    ghz_profile_closed,
    w_profile_closed,
)

# A start is certified, and stops, once its residual is within this.
CONVERGENCE_TOL = 1e-9
# A certified start within this of the upper bound is a global maximum,
# and stops the whole batch.
BOUND_TOL = 1e-12
# The most steps a start runs, see-saw cycles and Newton steps together.
_MAX_STEPS = 500
# See-saw cycles each start runs before it may take Newton steps.
_HANDOVER = 10
# Hessian eigenvalues of smaller magnitude mark flat directions, along
# which an undamped Newton step does not move.
_FLAT_CURVATURE = 1e-8
# Levenberg-Marquardt shifts added to the curvature.  Every Newton step
# tries each and keeps the best, so a start far from its maximum, where
# the undamped step overshoots, still gains.
_DAMPING = (0.0, 1e-3, 1e-2, 1e-1, 1.0)
# The largest Hessian eigenvalue that still counts as non-positive.  On a
# continuous family of maxima the flat directions measure up to ~1e-10.
_NSD_TOL = 1e-7
# A sweep row matches when its numeric maximum is within this of the
# closed form; a larger gap flags it numeric-above or numeric-below.
REPORT_TOL = 1e-3
# Seeded starts per multistart ascent; a numeric-below sweep row retries
# with four times as many.
N_STARTS = 50


@dataclass(frozen=True)
class OptimizationResult:
    """Best |<S>| over the starts and the settings that reach it.

    `iterations_used` counts the steps the batch ran until it stopped:
    _HANDOVER see-saw cycles, then safeguarded Newton steps, each of which
    may have given way to a see-saw cycle.  The certificate: `residual` is
    the best start's Riemannian gradient norm, `converged` says it is
    within CONVERGENCE_TOL, and `hessian_nsd` says the projected Hessian at
    the reported settings is negative semidefinite, as at a local maximum.
    `upper_bound` is `bell.smax_upper_bound` of the state, and
    `global_maximum` says the best value is certified within BOUND_TOL of
    it, so no settings do better.
    """

    best_value: float
    best_settings: MeasurementSettings
    iterations_used: int
    converged: bool
    residual: float
    hessian_nsd: bool
    upper_bound: float

    @property
    def global_maximum(self) -> bool:
        return bool(_at_bound(self.best_value, self.residual,
                              self.upper_bound))


# Slotted, as are the profile, report and directions it holds: a sweep
# keeps every row, and its report, until the CSV is written.
@dataclass(frozen=True, slots=True)
class VerificationRow:
    """One grid point of a closed-form vs. numeric comparison: the point's
    family profile and its closed-form report, against the numeric
    maximum."""

    params: Tuple[float, ...]
    profile: EntanglementProfile
    closed: SmaxReport
    numeric_value: float
    gap: float
    flag: str


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, summed in a fixed order."""
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2])


def _gradients(t: np.ndarray, parties: np.ndarray) -> np.ndarray:
    """Euclidean gradient of <S> in each of the six directions: (3, 2, n, 3).

    Parties 0 and 1 read theirs from one block, at party 2's pair."""
    block = _block(t, parties, 2)
    return np.stack([_contract(block, parties[1], False),
                     _contract(block, parties[0], True),
                     _party_coefficients(t, parties, 2)])


def _value(coeff: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """<S> of each start from the last party's coefficients and its pair."""
    return sum(_dot(coeff, pair))


def _residual(grad: np.ndarray, parties: np.ndarray) -> np.ndarray:
    """Norm of the Riemannian gradient of each start on the six spheres.

    The radial part is subtracted as a vector, not as |g|^2 - (g . v)^2,
    which would cancel to roundoff well above the tolerance.
    """
    tangent = grad - _dot(grad, parties)[..., None] * parties
    return np.sqrt(sum(_dot(tangent, tangent).reshape(6, -1)))


def _tangent_bases(parties: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the six tangent planes: (3, 2, n, 2, 3)."""
    x, y, z = parties[..., 0], parties[..., 1], parties[..., 2]
    zero = np.zeros_like(x)
    # z x v, or x x v for a direction within 26 degrees of the z axis.
    first = np.where((np.abs(z) > 0.9)[..., None],
                     np.stack([zero, -z, y], axis=-1),
                     np.stack([-y, x, zero], axis=-1))
    first = first / np.sqrt(_dot(first, first))[..., None]
    return np.stack([first, np.cross(parties, first)], axis=-2)


def _hessian(t: np.ndarray, parties: np.ndarray, grad: np.ndarray,
             bases: np.ndarray) -> np.ndarray:
    """Riemannian Hessian of <S> in tangent coordinates: (n, 12, 12).

    Coordinates run over (party, direction, basis vector).  <S> is linear
    in each party, so the Euclidean Hessian has blocks only between the
    directions of different parties, each a `bell._block` at the third
    party's pair.  On a sphere each direction v also gains -(v . g) I from
    its curvature.
    """
    n = parties.shape[2]
    hess = np.zeros((n, 3, 2, 2, 3, 2, 2))
    for r in range(3):
        p, q = (j for j in range(3) if j != r)
        # block[x, y, n, i, j]: d^2 <S> / dP_x[i] dQ_y[j].
        block = _block(t, parties, r)
        left = _dot(bases[p][:, None, :, :, None, :],
                    np.swapaxes(block, -1, -2)[:, :, :, None, :, :])
        projected = _dot(left[:, :, :, :, None, :],
                         bases[q][None, :, :, None, :, :])
        hess[:, p, :, :, q, :, :] = projected.transpose(2, 0, 3, 1, 4)
        hess[:, q, :, :, p, :, :] = projected.transpose(2, 1, 4, 0, 3)
    hess = hess.reshape(n, 12, 12)
    diagonal = np.arange(12)
    hess[:, diagonal, diagonal] = -np.repeat(
        _dot(grad, parties).reshape(6, n), 2, axis=0).T
    return hess


def _newton_step(t: np.ndarray, parties: np.ndarray,
                 grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each start's best Newton trial and its <S>, without the safeguard.

    There is one trial per damping mu in _DAMPING.  Along each eigenvector
    of the Hessian a trial steps by the gradient's component over
    |eigenvalue| + mu.  Undamped, that is the Newton step -H^-1 g where H
    is negative definite, and an ascent step along any direction of
    positive curvature; directions flatter than _FLAT_CURVATURE are left
    alone.  Every sum over the 12 coordinates runs in a fixed order.
    """
    n = parties.shape[2]
    bases = _tangent_bases(parties)
    eigenvalues, vectors = np.linalg.eigh(
        _hessian(t, parties, grad, bases))
    coords = _dot(bases, grad[:, :, :, None, :]).transpose(2, 0, 1, 3)
    coords = coords.reshape(n, 12)
    along = sum(vectors[:, m, :] * coords[:, m, None] for m in range(12))
    curvature = np.abs(eigenvalues) + np.reshape(_DAMPING, (-1, 1, 1))
    along = np.where(curvature > _FLAT_CURVATURE,
                     along / np.maximum(curvature, _FLAT_CURVATURE), 0.0)
    step = sum(vectors[:, :, i] * along[:, :, None, i] for i in range(12))
    step = step.reshape(-1, n, 3, 2, 2).transpose(0, 2, 3, 1, 4)
    trials = (parties + bases[..., 0, :] * step[..., 0, None]
              + bases[..., 1, :] * step[..., 1, None])
    trials = trials / np.sqrt(_dot(trials, trials))[..., None]
    stacked = np.concatenate(trials, axis=2)
    values = _value(_party_coefficients(t, stacked, 2), stacked[2])
    values = values.reshape(len(_DAMPING), n)
    pick = np.argmax(values, axis=0)
    index = np.arange(n)
    return (trials[pick, :, :, index].transpose(1, 2, 0, 3),
            values[pick, index])


def _seesaw_cycle(t: np.ndarray, parties: np.ndarray, moving: np.ndarray,
                  coeff: np.ndarray) -> None:
    """One see-saw cycle in place on the starts in `moving`: each party in
    turn takes its normalized coefficient vectors as its pair.

    `coeff` holds the first party's coefficients at the current directions
    of the moving starts.
    """
    for k in range(3):
        if k:
            coeff = _party_coefficients(t, parties, k)
        norms = np.sqrt(_dot(coeff, coeff))
        # Degenerate coefficient vectors keep their previous direction.
        usable = moving & (norms > 1e-14)
        parties[k][usable] = coeff[usable] / norms[usable, None]


def _at_bound(value, residual, bound):
    """Which starts are certified within BOUND_TOL of the upper bound."""
    return (residual <= CONVERGENCE_TOL) & (np.abs(value) >= bound - BOUND_TOL)


def _ascend(t: np.ndarray, parties: np.ndarray, bound: float):
    """Run the ascent in place on a (3, 2, n, 3) batch of starts.

    Each step of a start is a see-saw cycle for the first _HANDOVER steps
    and a Newton step after that, replaced by a see-saw cycle whenever it
    would lower <S>.  A start is frozen once its residual is within
    CONVERGENCE_TOL, and the whole batch stops once a start is certified
    at the upper bound `bound`.  Every sum runs in a fixed order, so
    batched and one-at-a-time execution follow the same paths.  Returns
    (value, residual, steps): each start's final <S> and Riemannian
    gradient norm, and the number of steps the batch ran.
    """
    grad = _gradients(t, parties)
    value = _value(grad[2], parties[2])
    residual = _residual(grad, parties)
    steps = 0
    while steps < _MAX_STEPS:
        live = np.flatnonzero(residual > CONVERGENCE_TOL)
        if live.size == 0 or _at_bound(value, residual, bound).any():
            break
        batch = parties[:, :, live]
        seesaw = np.ones(live.size, dtype=bool)
        if steps >= _HANDOVER:
            moved, moved_value = _newton_step(t, batch, grad[:, :, live])
            # The safeguard: a step that would lower <S> (or is NaN) gives
            # way to a see-saw cycle.
            gains = moved_value >= value[live]
            batch[:, :, gains] = moved[:, :, gains]
            seesaw = ~gains
        if seesaw.any():
            _seesaw_cycle(t, batch, seesaw, grad[0][:, live])
        fresh = _gradients(t, batch)
        parties[:, :, live] = batch
        grad[:, :, live] = fresh
        value[live] = _value(fresh[2], batch[2])
        residual[live] = _residual(fresh, batch)
        steps += 1
    return value, residual, steps


def _result(t: np.ndarray, bound: float, parties: np.ndarray,
            value: np.ndarray, residual: np.ndarray,
            steps: int) -> OptimizationResult:
    """The best start's |<S>|, its settings and certificate.

    When starts are certified at the bound, the best of those is reported:
    a start still moving may sit a few ulps higher, uncertified.
    """
    magnitude = np.abs(value)
    at_bound = _at_bound(value, residual, bound)
    if at_bound.any():
        magnitude = np.where(at_bound, magnitude, -1.0)
    best = int(np.argmax(magnitude))
    vectors = parties[:, :, best].reshape(6, 3).copy()
    if value[best] < 0.0:
        # Flipping one party's directions flips the sign, so report |<S>|.
        vectors[:2] = -vectors[:2]
    reported = vectors.reshape(3, 2, 1, 3)
    hessian = _hessian(t, reported, _gradients(t, reported),
                       _tangent_bases(reported))
    return OptimizationResult(
        best_value=abs(float(value[best])),
        best_settings=settings_from_vectors(vectors),
        iterations_used=steps,
        converged=bool(residual[best] <= CONVERGENCE_TOL),
        residual=float(residual[best]),
        hessian_nsd=bool(np.linalg.eigvalsh(hessian)[0, -1] <= _NSD_TOL),
        upper_bound=bound,
    )


def _random_directions(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform directions on the sphere: an array of shape `shape + (3,)`.

    Sampling is inverse-CDF on the sphere: the cosine of the polar angle is
    uniform on [-1, 1] and the azimuth uniform on [0, 2 pi).
    """
    cos_polar = rng.uniform(-1.0, 1.0, size=shape)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    sin_polar = np.sqrt(1.0 - cos_polar ** 2)
    return np.stack([
        sin_polar * np.cos(azimuth),
        sin_polar * np.sin(azimuth),
        cos_polar,
    ], axis=-1)


def multistart_maximize(s: ThreeQubitPureState, seed: int,
                        n_starts: int = N_STARTS) -> OptimizationResult:
    """Best of n_starts certified ascents from settings drawn with seed."""
    if n_starts < 1:
        raise ValidationError("n_starts must be at least 1")
    rng = np.random.default_rng(seed)
    parties = _random_directions(rng, (6, n_starts)).reshape(3, 2, -1, 3)
    t = correlation_tensor(s)
    bound = smax_upper_bound(t)
    return _result(t, bound, parties, *_ascend(t, parties, bound))


def _flag_for_gap(gap: float) -> str:
    if abs(gap) <= REPORT_TOL:
        return "match"
    return "numeric-above" if gap > 0 else "numeric-below"


def _verification_row(index: int, params: Tuple[float, ...],
                       state: ThreeQubitPureState,
                       profile: EntanglementProfile, closed: SmaxReport,
                       seed: int) -> VerificationRow:
    """Closed value vs. escalating multistart numeric at one grid point.

    A numeric-below flag is retried with four times the starts before it
    sticks; numeric-above rows are findings, not failures.
    """
    # The row's own seed keeps its result independent of the rows before it.
    row_seed = _derived_seed(seed, index)
    value = closed.closed_value
    numeric = multistart_maximize(state, row_seed).best_value
    flag = _flag_for_gap(numeric - value)
    if flag == "numeric-below":
        numeric = max(numeric, multistart_maximize(
            state, row_seed, 4 * N_STARTS).best_value)
        flag = _flag_for_gap(numeric - value)
    return VerificationRow(params=params, profile=profile, closed=closed,
                           numeric_value=numeric, gap=numeric - value,
                           flag=flag)


def ghz_verification_row(index: int, theta: float, theta3: float,
                         seed: int) -> VerificationRow:
    """One GHZ grid point: closed form vs. escalating multistart numeric."""
    params = GhzClassParams(float(theta), float(theta3))
    profile = ghz_profile_closed(params)
    return _verification_row(index, (params.theta, params.theta3),
                             ghz_state(params), profile,
                             smax_ghz_closed(profile), seed)


# The most points a sweep curve may take, and the most a whole grid may
# take (ten full curves).  Every grid point runs a multistart ascent, and
# the grid and its rows are held in memory, so a larger grid is rejected
# before any point is built.
MAX_GRID_STEPS = 10_000
MAX_GRID_POINTS = 100_000


def _check_grid(name: str, steps: int, curves: int) -> None:
    if not 2 <= steps <= MAX_GRID_STEPS:
        raise ValidationError(
            f"{name} must lie in [2, {MAX_GRID_STEPS}], got {steps}")
    if curves * steps > MAX_GRID_POINTS:
        raise ValidationError(f"{curves} curves of {steps} points exceed "
                              f"the {MAX_GRID_POINTS}-point grid bound")


def ghz_grid_points(theta_steps: int,
                    theta3_values: Sequence[float]) -> list:
    """Fig.-1 grid, every point validated before any row runs its ascent."""
    _check_grid("theta_steps", theta_steps, len(theta3_values))
    points = [(float(theta), float(theta3))
              for theta3 in theta3_values
              for theta in np.linspace(0.0, math.pi / 2, theta_steps)]
    for theta, theta3 in points:
        GhzClassParams(theta, theta3)
    return points


def verify_grid_ghz(theta_steps: int, theta3_values: Sequence[float],
                    seed: int = 0) -> list:
    """Compare the numeric maximum against the GHZ closed form on a grid."""
    return [ghz_verification_row(index, theta, theta3, seed)
            for index, (theta, theta3) in enumerate(
                ghz_grid_points(theta_steps, theta3_values))]


def w_sum_max(c12: float) -> float:
    """The largest c12 + c23 + c31 of a W-class state with concurrence c12.

    c23 + c31 = 2 alpha sqrt(p - alpha^2) with p = 1 + c12 grows with
    alpha^2 up to p / 2, and alpha^2 cannot pass 1 - c12, where beta and
    gamma stop being real.
    """
    if not 0.0 <= c12 <= 1.0:
        raise ValidationError("c12 must lie in [0, 1]")
    p = 1.0 + c12
    alpha_sq_max = min(1.0 - c12, p / 2.0)
    return c12 + 2.0 * math.sqrt(alpha_sq_max * (p - alpha_sq_max))


def w_params_for_sum(c12: float, sum_c: float) -> WClassParams:
    """Amplitudes realizing pairwise concurrence c12 and total sum sum_c.

    With beta gamma = c12 / 2, (beta + gamma)^2 = 1 - alpha^2 + c12, so
    t = sum_c - c12 = c23 + c31 = 2 alpha (beta + gamma) gives
    t^2 = 4 alpha^2 (p - alpha^2) with p = 1 + c12.  alpha^2 is the smaller
    root, capped where beta and gamma stop being real (1 - c12) or where
    t peaks (p / 2).  Raises when the sum is outside the realizable range
    [c12, w_sum_max(c12)].
    """
    sum_max = w_sum_max(c12)
    target = sum_c - c12
    if target < -1e-9 or sum_c > sum_max + 1e-9:
        raise ValidationError(
            f"sum {sum_c} outside realizable range [{c12}, {sum_max}]")
    p = 1.0 + c12
    t_sq = max(0.0, target) ** 2
    # The rationalized root has no cancellation when t is small.
    alpha_sq = min(t_sq / (2.0 * (p + math.sqrt(max(0.0, p * p - t_sq)))),
                   1.0 - c12, p / 2.0)
    alpha = math.sqrt(alpha_sq)
    one_minus = 1.0 - alpha_sq
    disc = math.sqrt(max(0.0, one_minus * one_minus - c12 * c12))
    beta = math.sqrt((one_minus + disc) / 2.0)
    # beta gamma = c12 / 2 with beta^2 >= 1/6; the other root would cancel.
    gamma = c12 / (2.0 * beta)
    norm = math.sqrt(alpha ** 2 + beta ** 2 + gamma ** 2)
    return WClassParams(alpha / norm, beta / norm, gamma / norm)


def w_verification_row(index: int, c12: float, sum_c: float,
                       seed: int) -> VerificationRow:
    """One W grid point: reduced W form vs. escalating multistart numeric."""
    params = w_params_for_sum(float(c12), float(sum_c))
    profile = w_profile_closed(params)
    return _verification_row(index, (profile.c12, profile.c23, profile.c31),
                             w_state(params), profile, smax_w(profile), seed)


def w_grid_points(c12_values: Sequence[float], sum_steps: int) -> list:
    """Fig.-2 grid: each curve's sum swept from c12 to w_sum_max(c12).

    A curve whose range is one point (c12 = 1) gives one grid point.
    """
    _check_grid("sum_steps", sum_steps, len(c12_values))
    return [(float(c12), float(sum_c))
            for c12 in c12_values
            for sum_c in np.unique(
                np.linspace(c12, w_sum_max(c12), sum_steps))]


def verify_grid_w(c12_values: Sequence[float], sum_steps: int,
                  seed: int = 0) -> list:
    """Compare numeric maxima against the reduced W form along Fig.-2 curves."""
    return [w_verification_row(index, c12, sum_c, seed)
            for index, (c12, sum_c) in enumerate(
                w_grid_points(c12_values, sum_steps))]
