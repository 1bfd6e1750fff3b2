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
meet the correlation tensor.  Each step makes one block pass: the three
parties' blocks at the step's directions, computed as one stack, which
the gradient, the next Hessian, the see-saw and the certificate all read.
The safeguard: a Newton step that would lower <S> is replaced by a
see-saw cycle, so the ascent stays monotone.  A start stops when its
residual, the norm of the Riemannian gradient, is within CONVERGENCE_TOL,
or after _MAX_STEPS steps; a seeded multistart makes the search global in
practice.

A state's starts all stop as soon as one of them is certified within
BOUND_TOL of `bell.smax_upper_bound`, the correlation-tensor bound on
every setting's |<S>|: that start is provably the global maximum, so no
other start can beat it.  The bound is tight on the GHZ family, so there
the certificate is global; elsewhere it is loose and the starts run until
each one stops.

One ascent loop serves every caller.  A batch holds the starts of one or
more rows, one state each, and each row stops at its own certificate and
counts its own steps.  `multistart_maximize` is a batch of one row.  A
grid builds and checks its points in chunks of BATCH_ROWS * N_STARTS,
one start per row, as many as one ascent batch holds.  Every row is
first tried at the settings of its closed-form report: one evaluation
there that meets the certificate proves the row's maximum, with no
ascent.  The rows that fail it ascend together in batches of BATCH_ROWS
rows, with per-start sums in a fixed order, so each row's result is
bit-identical to its result alone.  Either way a chunk's or a batch's
certificate is read in one stacked pass, with one
`bell.smax_upper_bound` call for its rows' bounds.
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
    _ghz_amplitudes,
    _w_amplitudes,
)
from .bell import (
    MeasurementSettings,
    SmaxReport,
    _block,
    _contract,
    _ghz_report,
    _party_coefficients,
    _tensor_views,
    correlation_tensor,
    settings_from_vectors,
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
# The most grid rows that ascend as one batch, so a grid of any size needs
# bounded memory: the ascent's one memory bound.  A grid checks its rows
# at their settings BATCH_ROWS * N_STARTS at a time, one start per row.
BATCH_ROWS = 8


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


def _gradients(blocks: np.ndarray, parties: np.ndarray) -> np.ndarray:
    """Euclidean gradient of <S> in each of the six directions: (3, 2, n, 3).

    `blocks` is the `bell._block` stack of all three parties at `parties`.
    Parties 0 and 1 read theirs from party 2's block, and party 2 its
    coefficient vectors from party 1's.
    """
    return np.stack([_contract(blocks[2], parties[1], False),
                     _contract(blocks[2], parties[0], True),
                     _contract(blocks[1], parties[0], True)])


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


# The sides (p, q), p < q, of each party's block: (1, 2), (0, 2), (0, 1).
_P_SIDE = [1, 0, 0]
_Q_SIDE = [2, 2, 1]


def _hessian(blocks: np.ndarray, parties: np.ndarray, grad: np.ndarray,
             bases: np.ndarray) -> np.ndarray:
    """Riemannian Hessian of <S> in tangent coordinates: (n, 12, 12).

    Coordinates run over (party, direction, basis vector).  <S> is linear
    in each party, so the Euclidean Hessian has blocks only between the
    directions of different parties: each party r's `bell._block`, read
    from the stack `blocks`.  On a sphere each direction v also gains
    -(v . g) I from its curvature.
    """
    n = parties.shape[2]
    hess = np.zeros((n, 3, 2, 2, 3, 2, 2))
    # blocks[r, x, y, n, i, j]: d^2 <S> / dP_x[i] dQ_y[j], projected on the
    # tangent bases of P_x and Q_y for all three r at once.
    left = _dot(bases[_P_SIDE][:, :, None, :, :, None, :],
                blocks.swapaxes(-1, -2)[:, :, :, :, None, :, :])
    projected = _dot(left[..., None, :],
                     bases[_Q_SIDE][:, None, :, :, None, :, :])
    hess[:, _P_SIDE, :, :, _Q_SIDE] = projected.transpose(0, 3, 1, 4, 2, 5)
    hess[:, _Q_SIDE, :, :, _P_SIDE] = projected.transpose(0, 3, 2, 5, 1, 4)
    hess = hess.reshape(n, 12, 12)
    diagonal = np.arange(12)
    hess[:, diagonal, diagonal] = -np.repeat(
        _dot(grad, parties).reshape(6, n), 2, axis=0).T
    return hess


def _damped_steps(hessian: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Each start's step in tangent coordinates for each damping mu in
    _DAMPING: (len(_DAMPING), n, 12), from its (n, 12, 12) Hessian and the
    (n, 12) tangent coordinates of its gradient.

    Each sum over the 12 coordinates runs in order from +0.0, as a numpy
    reduction does, so a sum of -0.0 terms is +0.0.
    """
    eigenvalues, vectors = np.linalg.eigh(hessian)
    # along[n, k] = sum over m of vectors[n, m, k] coords[n, m].
    along = sum(vectors[:, m] * coords[:, m, None] for m in range(12))
    curvature = np.abs(eigenvalues) + np.reshape(_DAMPING, (-1, 1, 1))
    along = np.where(curvature > _FLAT_CURVATURE,
                     along / np.maximum(curvature, _FLAT_CURVATURE), 0.0)
    # step[d, n, k] = sum over i of vectors[n, k, i] along[d, n, i].
    return sum(vectors[:, :, i] * along[..., i, None] for i in range(12))


def _newton_step(views: np.ndarray, parties: np.ndarray, grad: np.ndarray,
                 blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each start's best Newton trial and its <S>, without the safeguard.

    `views` holds the `bell._tensor_views` of each start's tensor, and
    `blocks` the block stack at `parties`.  There is one trial per damping
    mu in _DAMPING, and the whole batch's trials are valued in one
    evaluation, with the views broadcast over the damping axis: a batch is
    at most BATCH_ROWS rows of N_STARTS starts.  Along each eigenvector of
    the Hessian a trial steps by the gradient's component over
    |eigenvalue| + mu.  Undamped, that is the Newton step -H^-1 g where H
    is negative definite, and an ascent step along any direction of
    positive curvature; directions flatter than _FLAT_CURVATURE are left
    alone.
    """
    n = parties.shape[2]
    bases = _tangent_bases(parties)
    coords = _dot(bases, grad[:, :, :, None, :]).transpose(2, 0, 1, 3)
    step = _damped_steps(_hessian(blocks, parties, grad, bases),
                         coords.reshape(n, 12))
    # (party, direction, damping, start, basis vector).
    step = step.reshape(-1, n, 3, 2, 2).transpose(2, 3, 0, 1, 4)
    trials = (parties[:, :, None]
              + bases[:, :, None, :, 0, :] * step[..., 0, None]
              + bases[:, :, None, :, 1, :] * step[..., 1, None])
    trials = trials / np.sqrt(_dot(trials, trials))[..., None]
    values = _value(_party_coefficients(views[:, :, None], trials, 2),
                    trials[2])
    pick = np.argmax(values, axis=0)
    index = np.arange(n)
    return trials[:, :, pick, index], values[pick, index]


def _seesaw_cycle(views: np.ndarray, parties: np.ndarray,
                  moving: np.ndarray, coeff: np.ndarray,
                  held: np.ndarray) -> None:
    """One see-saw cycle in place on the starts in `moving`: each party in
    turn takes its normalized coefficient vectors as its pair.

    `coeff` holds party 0's coefficients, and `held` party 2's block, at
    the current directions of the moving starts.  A party's block depends
    on its own pair alone, so party 1 reads its coefficients from `held`
    after party 0 has moved; party 2 reads them from party 1's block at
    its new pair.
    """
    for k in range(3):
        if k == 1:
            coeff = _contract(held, parties[0], True)
        elif k == 2:
            coeff = _party_coefficients(views, parties, 2)
        norms = np.sqrt(_dot(coeff, coeff))
        # Degenerate coefficient vectors keep their previous direction.
        usable = moving & (norms > 1e-14)
        parties[k][usable] = coeff[usable] / norms[usable, None]


def _at_bound(value, residual, bound):
    """Which starts are certified within BOUND_TOL of the upper bound."""
    return (residual <= CONVERGENCE_TOL) & (np.abs(value) >= bound - BOUND_TOL)


def _ascend(tensors: np.ndarray, bounds: np.ndarray, rows: np.ndarray,
            parties: np.ndarray):
    """Run the ascent in place on a (3, 2, n, 3) batch of starts.

    Start i belongs to row rows[i]: it ascends the correlation tensor
    tensors[rows[i]] under the upper bound bounds[rows[i]].  Each step of a
    start is a see-saw cycle for the first _HANDOVER steps and a Newton
    step after that, replaced by a see-saw cycle whenever it would lower
    <S>.  A start is frozen once its residual is within CONVERGENCE_TOL,
    and all the starts of a row once one of them is certified at the row's
    bound.  The tensor views are built once, and each step makes one block
    pass: the three parties' `bell._block` stack at the new directions,
    carried beside the gradient for the starts still live, from which the
    gradient and the next step's Hessian and see-saw read.  Every sum runs
    in a fixed order, so a row follows the same paths alone as in a batch
    of rows.  Returns (value, residual, steps): each start's final <S> and
    Riemannian gradient norm, and the number of steps each row ran.
    """
    start_bounds = bounds[rows]
    # The views and blocks of the live starts; a frozen start never moves
    # again, so the live set only shrinks.
    live = np.arange(len(rows))
    views = _tensor_views(tensors)[:, :, rows]
    held = _block(views, parties)
    grad = _gradients(held, parties)
    value = _value(grad[2], parties[2])
    residual = _residual(grad, parties)
    steps = np.zeros(len(bounds), dtype=int)
    for step in range(_MAX_STEPS):
        certified = np.zeros(len(bounds), dtype=bool)
        certified[rows[_at_bound(value, residual, start_bounds)]] = True
        still = np.flatnonzero((residual > CONVERGENCE_TOL) & ~certified[rows])
        if still.size == 0:
            break
        if still.size < live.size:
            kept = np.searchsorted(live, still)
            views, held, live = views[:, :, kept], held[:, :, :, kept], still
        batch = parties[:, :, live]
        seesaw = np.ones(live.size, dtype=bool)
        if step >= _HANDOVER:
            moved, moved_value = _newton_step(views, batch, grad[:, :, live],
                                              held)
            # The safeguard: a step that would lower <S> (or is NaN) gives
            # way to a see-saw cycle.
            gains = moved_value >= value[live]
            batch[:, :, gains] = moved[:, :, gains]
            seesaw = ~gains
        if seesaw.any():
            _seesaw_cycle(views, batch, seesaw, grad[0][:, live], held[2])
        held = _block(views, batch)
        fresh = _gradients(held, batch)
        parties[:, :, live] = batch
        grad[:, :, live] = fresh
        value[live] = _value(fresh[2], batch[2])
        residual[live] = _residual(fresh, batch)
        steps[rows[live]] = step + 1
    return value, residual, steps


def _results(tensors: np.ndarray, bounds: np.ndarray, parties: np.ndarray,
             value: np.ndarray, residual: np.ndarray,
             steps: np.ndarray) -> list:
    """Each row's best start: its |<S>|, settings and certificate.

    Row i is the correlation tensor tensors[i] under the bound bounds[i],
    run for steps[i] steps, and owns the i-th run of equally many
    consecutive starts in `parties`, `value` and `residual`.  When a row's
    starts are certified at its bound, the best of those is reported: a
    start still moving may sit a few ulps higher, uncertified.  The
    certificates at the reported settings are read for the whole batch in
    one block pass and one stacked Hessian eigensolve, and the settings are
    checked as one stack.
    """
    rows = len(bounds)
    magnitude = np.abs(value).reshape(rows, -1)
    at_bound = _at_bound(value.reshape(rows, -1), residual.reshape(rows, -1),
                         bounds[:, None])
    magnitude = np.where(at_bound | ~at_bound.any(axis=1, keepdims=True),
                         magnitude, -1.0)
    best = np.argmax(magnitude, axis=1) + magnitude.shape[1] * np.arange(rows)
    reported = parties[:, :, best]
    # Flipping one party's directions flips the sign, so report |<S>|.
    negative = value[best] < 0.0
    reported[0][:, negative] = -reported[0][:, negative]
    blocks = _block(_tensor_views(tensors), reported)
    hessian = _hessian(blocks, reported, _gradients(blocks, reported),
                       _tangent_bases(reported))
    nsd = np.linalg.eigvalsh(hessian)[:, -1] <= _NSD_TOL
    settings = settings_from_vectors(
        reported.transpose(2, 0, 1, 3).reshape(rows, 6, 3))
    return [OptimizationResult(
        best_value=abs(float(value[k])),
        best_settings=settings[i],
        iterations_used=int(steps[i]),
        converged=bool(residual[k] <= CONVERGENCE_TOL),
        residual=float(residual[k]),
        hessian_nsd=bool(nsd[i]),
        upper_bound=float(bounds[i]),
    ) for i, k in enumerate(best)]


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


def _maximize_rows(tensors: np.ndarray, seeds: Sequence[int],
                   n_starts: int) -> list:
    """One certified ascent for several states at once: row i, of
    correlation tensor tensors[i], takes n_starts starts drawn with
    seeds[i] and stops at its own certificate.  One OptimizationResult per
    row, each the one the row would give alone."""
    bounds = smax_upper_bound(tensors)
    parties = np.concatenate([
        _random_directions(np.random.default_rng(seed),
                           (6, n_starts)).reshape(3, 2, -1, 3)
        for seed in seeds], axis=2)
    value, residual, steps = _ascend(
        tensors, bounds, np.repeat(np.arange(len(seeds)), n_starts), parties)
    return _results(tensors, bounds, parties, value, residual, steps)


def multistart_maximize(s: ThreeQubitPureState, seed: int,
                        n_starts: int = N_STARTS) -> OptimizationResult:
    """Best of n_starts certified ascents from settings drawn with seed:
    the batched ascent on a batch of one row.  `s` is a state or its
    amplitude vector."""
    if n_starts < 1:
        raise ValidationError("n_starts must be at least 1")
    return _maximize_rows(correlation_tensor(s)[None], [seed], n_starts)[0]


def _flag_for_gap(gap: float) -> str:
    if abs(gap) <= REPORT_TOL:
        return "match"
    return "numeric-above" if gap > 0 else "numeric-below"


def _certified_at_settings(tensors: np.ndarray, settings: Sequence) -> list:
    """Each row's |<S>| at its own settings if they meet the certificate.

    Row i is evaluated once at settings[i], all rows in one pass: <S>
    there witnesses the value, and `_at_bound` proves that no settings do
    better.  A row whose settings fall short gives None.
    """
    parties = np.stack([ms.vectors().reshape(3, 2, 3) for ms in settings],
                       axis=2)
    grad = _gradients(_block(_tensor_views(tensors), parties), parties)
    value = _value(grad[2], parties[2])
    certified = _at_bound(value, _residual(grad, parties),
                          smax_upper_bound(tensors))
    return [abs(float(v)) if ok else None
            for v, ok in zip(value, certified)]


def _verification_rows(points: Sequence[tuple], first: int,
                        seed: int) -> list:
    """Closed value vs. certified numeric maximum at a chunk of grid
    points, rows first, first + 1, ... of a grid.

    Each point is its (params, amplitude vector, profile, closed-form
    report); the chunk's amplitudes are checked once, as one stack, and
    its rows' report settings are tried in one stacked pass.  A row whose
    settings meet the certificate at the bound takes its value there, with
    no ascent; the other rows run the multistart ascent in batches of
    BATCH_ROWS, in row order.  A numeric-below flag is retried by itself
    with four times the starts before it sticks; numeric-above rows are
    findings, not failures.  Only a row that ascends or retries derives
    its seed.
    """
    tensors = correlation_tensor(np.stack([point[1] for point in points]))
    values = _certified_at_settings(
        tensors, [point[3].achieving_settings for point in points])
    ascend = [i for i, numeric in enumerate(values) if numeric is None]
    for start in range(0, len(ascend), BATCH_ROWS):
        batch = ascend[start:start + BATCH_ROWS]
        # A row's own seed keeps its result independent of its batch.
        seeds = [_derived_seed(seed, first + i) for i in batch]
        for i, result in zip(batch, _maximize_rows(tensors[batch], seeds,
                                                   N_STARTS)):
            values[i] = result.best_value
    rows = []
    for i, ((params, state, profile, closed), numeric) in enumerate(
            zip(points, values)):
        value = closed.closed_value
        flag = _flag_for_gap(numeric - value)
        if flag == "numeric-below":
            numeric = max(numeric, multistart_maximize(
                state, _derived_seed(seed, first + i),
                4 * N_STARTS).best_value)
            flag = _flag_for_gap(numeric - value)
        rows.append(VerificationRow(
            params=params, profile=profile, closed=closed,
            numeric_value=numeric, gap=numeric - value, flag=flag))
    return rows


def _verify_grid(point, grid: Sequence[tuple], seed: int) -> list:
    """One row per grid point, each point built by `point`.  The points are
    built and checked in chunks of BATCH_ROWS * N_STARTS: a check at the
    settings takes one start per row, so a chunk holds as many starts as
    one ascent batch, and the memory a grid needs beyond its rows does not
    grow with its size."""
    chunk = BATCH_ROWS * N_STARTS
    rows = []
    for first in range(0, len(grid), chunk):
        rows += _verification_rows(
            [point(*p) for p in grid[first:first + chunk]], first, seed)
    return rows


def _ghz_point(theta: float, theta3: float) -> tuple:
    """A GHZ grid point, whose report carries the point's own settings."""
    params = GhzClassParams(float(theta), float(theta3))
    profile = ghz_profile_closed(params)
    return ((params.theta, params.theta3), _ghz_amplitudes(params), profile,
            _ghz_report(params, profile))


# The most points a sweep curve may take, and the most a whole grid may
# take (ten full curves).  A grid point may run a multistart ascent, and
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
    """Fig.-1 grid, every point validated before any row runs."""
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
    return _verify_grid(_ghz_point,
                        ghz_grid_points(theta_steps, theta3_values), seed)


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


def _w_point(c12: float, sum_c: float) -> tuple:
    params = w_params_for_sum(float(c12), float(sum_c))
    profile = w_profile_closed(params)
    return ((profile.c12, profile.c23, profile.c31), _w_amplitudes(params),
            profile, smax_w(profile))


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
    return _verify_grid(_w_point, w_grid_points(c12_values, sum_steps), seed)
