"""See-saw maximization of the Svetlichny value and grid verification.

<S> is linear in each party's pair of directions, so with the other two
parties held fixed the best pair is the normalized pair of coefficient
vectors.  The alternating ascent updates one party per step, three steps
per cycle; the per-cycle objective is non-decreasing by construction, and
a seeded multistart makes the search global in practice.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

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
    _party_coefficients,
    correlation_tensor,
    settings_from_vectors,
    smax_ghz_closed,
    smax_w,
)
from .entanglement import ghz_profile_closed, w_profile_closed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptimizationConfig:
    n_starts: int = 50
    max_iterations: int = 500
    convergence_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValidationError("n_starts must be at least 1")
        if self.convergence_tol <= 0:
            raise ValidationError("convergence_tol must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """Best |<S>| over the starts and the settings that reach it.

    `iterations_used` counts the cycles the batch ran; `trace` is the best
    start's signed <S> before the first cycle and after each cycle it ran.
    """

    best_value: float
    best_settings: MeasurementSettings
    iterations_used: int
    converged: bool
    trace: Tuple[float, ...]


@dataclass(frozen=True)
class VerificationRow:
    """One grid point of a closed-form vs. numeric comparison."""

    params: Tuple[float, ...]
    closed_value: float
    numeric_value: float
    gap: float
    flag: str


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, summed in a fixed order."""
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2])


def _ascend(t: np.ndarray, parties: np.ndarray, cfg: OptimizationConfig):
    """Run the alternating ascent in place on a (3, 2, n, 3) batch of starts.

    Converged starts are frozen, and every sum runs in a fixed order, so
    batched and one-at-a-time execution follow the same ascent paths.
    Returns (history, cycles, converged): history[c] holds <S> of every
    start after c cycles, and cycles[i] is the number of cycles start i
    ran before it converged or ran out.
    """
    active = np.ones(parties.shape[2], dtype=bool)
    cycles = np.zeros(parties.shape[2], dtype=int)
    # <S> is the sum over the last party's two directions of coeff . c.
    coeff = _party_coefficients(t, parties, 2)
    history = [sum(_dot(coeff, parties[2]))]
    for _ in range(cfg.max_iterations):
        for k in range(3):
            coeff = _party_coefficients(t, parties, k)
            norms = np.sqrt(_dot(coeff, coeff))
            # Degenerate coefficient vectors keep their previous direction.
            usable = active & (norms > 1e-14)
            parties[k][usable] = coeff[usable] / norms[usable, None]
        # The last party's coefficients do not depend on its own directions.
        history.append(sum(_dot(coeff, parties[2])))
        cycles[active] += 1
        active &= history[-1] - history[-2] >= cfg.convergence_tol
        if not active.any():
            break
    return np.array(history), cycles, not active.any()


def _result(parties: np.ndarray, history: np.ndarray, cycles: np.ndarray,
            converged: bool) -> OptimizationResult:
    """The best start's |<S>|, its settings and its per-cycle trace."""
    final = history[-1]
    best = int(np.argmax(np.abs(final)))
    vectors = parties[:, :, best].reshape(6, 3).copy()
    if final[best] < 0.0:
        # Flipping one party's directions flips the sign, so report |<S>|.
        vectors[:2] = -vectors[:2]
    return OptimizationResult(
        best_value=abs(float(final[best])),
        best_settings=settings_from_vectors(vectors),
        iterations_used=len(history) - 1,
        converged=converged,
        trace=tuple(float(v) for v in history[:cycles[best] + 1, best]),
    )


def seesaw_maximize(s: ThreeQubitPureState, init: MeasurementSettings,
                    cfg: OptimizationConfig) -> OptimizationResult:
    """Alternating ascent of <S> from one initial settings choice."""
    parties = init.vectors().reshape(3, 2, 1, 3)
    return _result(parties, *_ascend(correlation_tensor(s).entries, parties,
                                     cfg))


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


def multistart_maximize(s: ThreeQubitPureState,
                        cfg: OptimizationConfig) -> OptimizationResult:
    """Best of n_starts see-saw ascents from seeded random settings."""
    rng = np.random.default_rng(cfg.seed)
    parties = _random_directions(rng, (6, cfg.n_starts)).reshape(3, 2, -1, 3)
    return _result(parties, *_ascend(correlation_tensor(s).entries, parties,
                                     cfg))


def _flag_for_gap(gap: float, report_tol: float) -> str:
    if abs(gap) <= report_tol:
        return "match"
    return "numeric-above" if gap > 0 else "numeric-below"


def _verification_row(index: int, params: Tuple[float, ...],
                       state: ThreeQubitPureState, closed: float,
                       cfg: OptimizationConfig,
                       report_tol: float) -> VerificationRow:
    """Closed value vs. escalating multistart numeric at one grid point.

    A numeric-below flag is retried with four times the starts before it
    sticks; numeric-above rows are findings, not failures.
    """
    # Each row derives its own seed, so parallel and serial sweeps agree.
    row_cfg = replace(cfg, seed=_derived_seed(cfg.seed, index))
    numeric = multistart_maximize(state, row_cfg).best_value
    flag = _flag_for_gap(numeric - closed, report_tol)
    if flag == "numeric-below":
        escalated = replace(row_cfg, n_starts=row_cfg.n_starts * 4)
        numeric = max(numeric, multistart_maximize(state, escalated).best_value)
        flag = _flag_for_gap(numeric - closed, report_tol)
    return VerificationRow(params=params, closed_value=closed,
                           numeric_value=numeric, gap=numeric - closed,
                           flag=flag)


def ghz_verification_row(index: int, theta: float, theta3: float,
                         cfg: OptimizationConfig,
                         report_tol: float = 1e-3) -> VerificationRow:
    """One GHZ grid point: closed form vs. escalating multistart numeric."""
    params = GhzClassParams(float(theta), float(theta3))
    closed = smax_ghz_closed(ghz_profile_closed(params)).closed_value
    return _verification_row(index, (params.theta, params.theta3),
                             ghz_state(params), closed, cfg, report_tol)


def ghz_grid_points(theta_steps: int,
                    theta3_values: Sequence[float]) -> list:
    if theta_steps < 2:
        raise ValidationError("theta_steps must be at least 2")
    return [(float(theta), float(theta3))
            for theta3 in theta3_values
            for theta in np.linspace(0.0, math.pi / 2, theta_steps)]


def verify_grid_ghz(theta_steps: int, theta3_values: Sequence[float],
                    cfg: Optional[OptimizationConfig] = None,
                    report_tol: float = 1e-3) -> list:
    """Compare the numeric maximum against the GHZ closed form on a grid."""
    cfg = cfg or OptimizationConfig()
    return [ghz_verification_row(index, theta, theta3, cfg, report_tol)
            for index, (theta, theta3)
            in enumerate(ghz_grid_points(theta_steps, theta3_values))]


def w_params_for_sum(c12: float, sum_c: float) -> WClassParams:
    """Amplitudes realizing pairwise concurrence c12 and total sum sum_c.

    With beta gamma = c12 / 2, (beta + gamma)^2 = 1 - alpha^2 + c12, so
    t = sum_c - c12 = c23 + c31 = 2 alpha (beta + gamma) gives
    t^2 = 4 alpha^2 (p - alpha^2) with p = 1 + c12.  alpha^2 is the smaller
    root, capped where beta and gamma stop being real (1 - c12) or where
    t peaks (p / 2).  Raises when the sum is outside the realizable range.
    """
    if not 0.0 <= c12 <= 1.0:
        raise ValidationError("c12 must lie in [0, 1]")
    p = 1.0 + c12
    alpha_sq_max = min(1.0 - c12, p / 2.0)
    sum_max = c12 + 2.0 * math.sqrt(alpha_sq_max * (p - alpha_sq_max))
    target = sum_c - c12
    if target < -1e-9 or sum_c > sum_max + 1e-9:
        raise ValidationError(
            f"sum {sum_c} outside realizable range [{c12}, {sum_max}]")
    t_sq = max(0.0, target) ** 2
    # The rationalized root has no cancellation when t is small.
    alpha_sq = min(t_sq / (2.0 * (p + math.sqrt(max(0.0, p * p - t_sq)))),
                   alpha_sq_max)
    alpha = math.sqrt(alpha_sq)
    one_minus = 1.0 - alpha_sq
    disc = math.sqrt(max(0.0, one_minus * one_minus - c12 * c12))
    beta = math.sqrt((one_minus + disc) / 2.0)
    gamma = math.sqrt(max(0.0, (one_minus - disc) / 2.0))
    norm = math.sqrt(alpha ** 2 + beta ** 2 + gamma ** 2)
    return WClassParams(alpha / norm, beta / norm, gamma / norm)


def w_verification_row(index: int, c12: float, sum_c: float,
                       cfg: OptimizationConfig,
                       report_tol: float = 1e-3) -> Optional[VerificationRow]:
    """One W grid point, or None when (c12, sum) is not realizable."""
    try:
        params = w_params_for_sum(float(c12), float(sum_c))
    except ValidationError as exc:
        logger.info("skipping c12=%g sum=%g: %s", c12, sum_c, exc)
        return None
    profile = w_profile_closed(params)
    return _verification_row(index, (profile.c12, profile.c23, profile.c31),
                             w_state(params), smax_w(profile).closed_value,
                             cfg, report_tol)


def w_grid_points(c12_values: Sequence[float], sum_steps: int) -> list:
    """Fig.-2 style grid: the concurrence sum swept over [0, 2] per curve."""
    if sum_steps < 2:
        raise ValidationError("sum_steps must be at least 2")
    return [(float(c12), float(sum_c))
            for c12 in c12_values
            for sum_c in np.linspace(0.0, 2.0, sum_steps)]


def verify_grid_w(c12_values: Sequence[float], sum_steps: int,
                  cfg: Optional[OptimizationConfig] = None,
                  report_tol: float = 1e-3) -> list:
    """Compare numeric maxima against the reduced W form along Fig.-2 curves.

    Grid points outside the realizable range for their c12 are skipped
    with a log line.
    """
    cfg = cfg or OptimizationConfig()
    rows = []
    for index, (c12, sum_c) in enumerate(w_grid_points(c12_values, sum_steps)):
        row = w_verification_row(index, c12, sum_c, cfg, report_tol)
        if row is not None:
            rows.append(row)
    return rows
