import math
import types

import numpy as np
import pytest

from tribell import bell, entanglement, optimize, qcore


R2 = math.sqrt(2.0)
R3 = 1 / math.sqrt(3)


def ghz(theta=math.pi / 4, theta3=math.pi / 2):
    return qcore.ghz_state(qcore.GhzClassParams(theta, theta3))


def random_settings(rng):
    return bell.settings_from_vectors(
        [v / np.linalg.norm(v) for v in rng.normal(size=(6, 3))])


def test_config_validation():
    with pytest.raises(qcore.ValidationError):
        optimize.OptimizationConfig(n_starts=0)
    with pytest.raises(qcore.ValidationError):
        optimize.OptimizationConfig(convergence_tol=0.0)


def test_seesaw_trace_monotone():
    rng = np.random.default_rng(40)
    cfg = optimize.OptimizationConfig()
    for _ in range(25):
        s = qcore.haar_random_state(rng)
        result = optimize.seesaw_maximize(s, random_settings(rng), cfg)
        # The raw ascent is monotone; flat ridges may exhaust the iteration
        # budget without formally converging, which is not a failure.
        assert np.min(np.diff(result.trace)) >= -1e-13
        assert result.converged or result.iterations_used == cfg.max_iterations


def test_seesaw_ghz_reaches_ceiling():
    rng = np.random.default_rng(41)
    cfg = optimize.OptimizationConfig()
    best = 0.0
    for _ in range(10):
        result = optimize.seesaw_maximize(ghz(), random_settings(rng), cfg)
        best = max(best, result.best_value)
    assert best == pytest.approx(4.0 * R2, abs=1e-6)


def test_multistart_product_state():
    product = qcore.make_state([1, 0, 0, 0, 0, 0, 0, 0])
    result = optimize.multistart_maximize(
        product, optimize.OptimizationConfig(seed=1))
    assert result.best_value == pytest.approx(4.0, abs=1e-6)


def test_multistart_w_symmetric():
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    result = optimize.multistart_maximize(
        w, optimize.OptimizationConfig(seed=2))
    assert result.best_value == pytest.approx(4.3546, abs=1e-4)


def test_multistart_biseparable_ghz():
    state = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, 0.0))
    result = optimize.multistart_maximize(
        state, optimize.OptimizationConfig(seed=3))
    assert result.best_value == pytest.approx(4.0, abs=1e-6)


def test_multistart_deterministic():
    rng = np.random.default_rng(42)
    s = qcore.haar_random_state(rng)
    cfg = optimize.OptimizationConfig(seed=7)
    first = optimize.multistart_maximize(s, cfg)
    second = optimize.multistart_maximize(s, cfg)
    assert first.best_value == second.best_value
    assert first.iterations_used == second.iterations_used
    assert np.array_equal(first.best_settings.vectors(),
                          second.best_settings.vectors())
    assert first.trace == second.trace


def test_multistart_never_exceeds_ceiling():
    rng = np.random.default_rng(43)
    cfg = optimize.OptimizationConfig(n_starts=10, seed=4)
    for _ in range(20):
        s = qcore.haar_random_state(rng)
        result = optimize.multistart_maximize(s, cfg)
        assert 0.0 <= result.best_value <= bell.ALGEBRAIC_CEILING + 1e-9


@pytest.mark.parametrize("state", [
    qcore.haar_random_state(np.random.default_rng(45)),
    ghz(0.6, 1.1),
])
def test_multistart_matches_the_best_single_seesaw(state, monkeypatch):
    cfg = optimize.OptimizationConfig(n_starts=8, seed=9)
    inits = [random_settings(np.random.default_rng(seed)) for seed in range(8)]
    # Hand the batch exactly the directions each single run starts from.
    starts = np.stack([ms.vectors() for ms in inits], axis=1)
    monkeypatch.setattr(optimize, "_random_directions",
                        lambda rng, shape: starts.copy())
    runs = [optimize.seesaw_maximize(state, ms, cfg) for ms in inits]
    single = max(runs, key=lambda r: r.best_value)
    batched = optimize.multistart_maximize(state, cfg)
    assert batched.best_value == pytest.approx(single.best_value, abs=1e-12)
    # Sums run in a fixed order, so the paths agree to the last bit.
    assert batched.trace == single.trace
    assert np.array_equal(batched.best_settings.vectors(),
                          single.best_settings.vectors())
    assert batched.iterations_used == max(r.iterations_used for r in runs)


def _random_local_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_multistart_local_unitary_invariance():
    rng = np.random.default_rng(44)
    # A deep iteration budget so flat-ridge landscapes settle to the same
    # maximum from both presentations of the state.
    cfg = optimize.OptimizationConfig(seed=5, max_iterations=3000)
    # Drawing six cases but checking three keeps the flat-ridge landscape
    # at index 5 (the hardest of this stream) in the sample cheaply.
    for index in range(6):
        s = qcore.haar_random_state(rng)
        u = qcore.tensor3(*(_random_local_unitary(rng) for _ in range(3)))
        if index not in (0, 2, 5):
            continue
        rotated = qcore.make_state(u @ s.amplitudes)
        assert optimize.multistart_maximize(rotated, cfg).best_value == (
            pytest.approx(optimize.multistart_maximize(s, cfg).best_value,
                          abs=1e-6))


def test_ghz_grid_points_shape():
    points = optimize.ghz_grid_points(5, [0.3, 0.7])
    assert len(points) == 10
    assert points[0] == (0.0, 0.3)
    with pytest.raises(qcore.ValidationError):
        optimize.ghz_grid_points(1, [0.3])


def test_verify_grid_ghz_small():
    rows = optimize.verify_grid_ghz(
        5, [math.pi / 2], cfg=optimize.OptimizationConfig(seed=6))
    assert len(rows) == 5
    for row in rows:
        assert row.flag == "match"
        assert abs(row.gap) <= 1e-3
    # The theta = 0 product row sits at the separable value 4.
    assert rows[0].closed_value == pytest.approx(4.0)
    assert rows[0].numeric_value == pytest.approx(4.0, abs=1e-6)


def w_sum_max(c12):
    """c12 + c23 + c31 at its peak: 1 + 2 c12 below c12 = 1/3."""
    if c12 < 1.0 / 3.0:
        return 1.0 + 2.0 * c12
    return c12 + 2.0 * math.sqrt(2.0 * c12 * (1.0 - c12))


def test_w_params_for_sum_round_trip():
    for c12 in (0.1, 0.2, 0.35, 0.45, 2.0 / 3.0):
        for sum_c in np.linspace(c12, w_sum_max(c12), 9):
            params = optimize.w_params_for_sum(c12, float(sum_c))
            profile = entanglement.w_profile_closed(params)
            assert profile.c12 == pytest.approx(c12, abs=1e-9)
            total = profile.c12 + profile.c23 + profile.c31
            assert total == pytest.approx(float(sum_c), abs=1e-9)


def test_w_params_for_sum_rejects_unrealizable():
    with pytest.raises(qcore.ValidationError):
        optimize.w_params_for_sum(0.35, 2.0)
    with pytest.raises(qcore.ValidationError):
        optimize.w_params_for_sum(0.35, 0.1)
    with pytest.raises(qcore.ValidationError):
        optimize.w_params_for_sum(1.5, 1.5)
    for c12 in (0.1, 0.2, 0.35, 0.45, 2.0 / 3.0):
        with pytest.raises(qcore.ValidationError):
            optimize.w_params_for_sum(c12, w_sum_max(c12) + 1e-6)


def test_w_params_for_sum_symmetric_endpoint():
    params = optimize.w_params_for_sum(2.0 / 3.0, 2.0)
    for amp in (params.alpha, params.beta, params.gamma):
        assert amp == pytest.approx(R3, abs=1e-9)


def test_verify_grid_w_small():
    rows = optimize.verify_grid_w(
        [2.0 / 3.0], 6, cfg=optimize.OptimizationConfig(seed=8))
    assert 0 < len(rows) <= 6
    for row in rows:
        assert row.flag != "numeric-below"
        assert row.numeric_value >= row.closed_value - 1e-6
        assert abs(row.gap) <= 1e-3
    # The realizable sums for this curve start at c12 itself.
    assert all(row.params[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
               for row in rows)


def test_verification_row_flags():
    assert optimize._flag_for_gap(0.0, 1e-3) == "match"
    assert optimize._flag_for_gap(2e-3, 1e-3) == "numeric-above"
    assert optimize._flag_for_gap(-2e-3, 1e-3) == "numeric-below"


@pytest.mark.parametrize("row, point, closed", [
    (optimize.ghz_verification_row, (0.6, 1.1),
     lambda: bell.smax_ghz_closed(entanglement.ghz_profile_closed(
         qcore.GhzClassParams(0.6, 1.1))).closed_value),
    (optimize.w_verification_row, (2.0 / 3.0, 1.5),
     lambda: bell.smax_w(entanglement.w_profile_closed(
         optimize.w_params_for_sum(2.0 / 3.0, 1.5))).closed_value),
])
def test_numeric_below_row_retries_with_four_times_the_starts(
        row, point, closed, monkeypatch):
    target = closed()
    starts = []

    def below_then_matching(state, cfg):
        starts.append(cfg.n_starts)
        value = target - 1e-2 if len(starts) == 1 else target
        return types.SimpleNamespace(best_value=value)

    monkeypatch.setattr(optimize, "multistart_maximize", below_then_matching)
    result = row(4, *point, optimize.OptimizationConfig(n_starts=7))
    assert starts == [7, 28]
    assert result.flag == "match"
    assert result.numeric_value == target and result.gap == 0.0
