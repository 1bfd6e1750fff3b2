import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest

from tribell import bell, cli, entanglement, optimize, qcore


R2 = math.sqrt(2.0)
R3 = 1 / math.sqrt(3)


def ghz(theta=math.pi / 4, theta3=math.pi / 2):
    return qcore.ghz_state(qcore.GhzClassParams(theta, theta3))


def random_settings(rng):
    return bell.settings_from_vectors(
        [v / np.linalg.norm(v) for v in rng.normal(size=(6, 3))])


def perturbed_settings(params):
    """A GHZ point's closed-form settings, each direction tilted off its
    maximum, so they miss the certificate and the point's row ascends."""
    vectors = bell.optimal_settings_ghz(params).vectors() + 1e-3
    return bell.settings_from_vectors(
        vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


def single_ascent(state, ms):
    """The certified ascent from the one start `ms`, through the multistart."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_random_directions",
                      lambda rng, shape: ms.vectors()[:, None, :])
        return optimize.multistart_maximize(state, 0, n_starts=1)


def test_config_validation():
    with pytest.raises(qcore.ValidationError):
        optimize.multistart_maximize(ghz(), 0, n_starts=0)
    assert optimize.N_STARTS == 50
    assert optimize.CONVERGENCE_TOL == 1e-9


def test_the_ascent_never_lowers_a_start(monkeypatch):
    # The ascent is deterministic, so rerunning it from the same starts
    # with a cap of k steps, for k = 0, 1, 2, ..., reads each start's <S>
    # after every step.  With no bound only convergence stops the batch.
    rng = np.random.default_rng(40)
    max_steps = optimize._MAX_STEPS
    for _ in range(8):
        t = bell.correlation_tensor(qcore.haar_random_state(rng))
        starts = optimize._random_directions(rng, (6, 8)).reshape(3, 2, -1, 3)
        previous = None
        for k in range(max_steps + 1):
            monkeypatch.setattr(optimize, "_MAX_STEPS", k)
            value, residual, (steps,) = optimize._ascend(
                t[None], np.array([math.inf]), np.zeros(8, dtype=int),
                starts.copy())
            if previous is not None:
                assert np.min(value - previous) >= -1e-13
                assert np.min(np.abs(value) - np.abs(previous)) >= -1e-13
            if steps < k:
                break
            previous = value
        assert np.all(residual <= optimize.CONVERGENCE_TOL)


def test_seesaw_ghz_reaches_ceiling():
    rng = np.random.default_rng(41)
    best = 0.0
    for _ in range(10):
        result = single_ascent(ghz(), random_settings(rng))
        best = max(best, result.best_value)
    assert best == pytest.approx(4.0 * R2, abs=1e-6)


def test_multistart_product_state():
    product = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    result = optimize.multistart_maximize(product, seed=1)
    assert result.best_value == pytest.approx(4.0, abs=1e-6)


def test_multistart_w_symmetric():
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    result = optimize.multistart_maximize(w, seed=2)
    assert result.best_value == pytest.approx(4.3546, abs=1e-4)


def test_multistart_biseparable_ghz():
    state = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, 0.0))
    result = optimize.multistart_maximize(state, seed=3)
    assert result.best_value == pytest.approx(4.0, abs=1e-6)


def test_multistart_deterministic():
    rng = np.random.default_rng(42)
    s = qcore.haar_random_state(rng)
    first = optimize.multistart_maximize(s, seed=7)
    second = optimize.multistart_maximize(s, seed=7)
    assert first.best_value == second.best_value
    assert first.iterations_used == second.iterations_used
    assert np.array_equal(first.best_settings.vectors(),
                          second.best_settings.vectors())
    assert first.residual == second.residual


def test_multistart_never_exceeds_ceiling():
    rng = np.random.default_rng(43)
    for _ in range(20):
        s = qcore.haar_random_state(rng)
        result = optimize.multistart_maximize(s, seed=4, n_starts=10)
        assert 0.0 <= result.best_value <= bell.ALGEBRAIC_CEILING + 1e-9


@pytest.mark.parametrize("state, tight", [
    (qcore.haar_random_state(np.random.default_rng(45)), False),
    (ghz(0.6, 1.1), True),
    # Exact zeros in the tensor, and a bound that never stops the batch.
    (qcore.w_state(qcore.WClassParams(0.6, 0.64, 0.48)), False),
], ids=["state0", "state1", "state2"])
def test_multistart_matches_the_best_single_seesaw(state, tight, monkeypatch):
    inits = [random_settings(np.random.default_rng(seed)) for seed in range(8)]
    # Hand the batch exactly the directions each single run starts from.
    starts = np.stack([ms.vectors() for ms in inits], axis=1)
    monkeypatch.setattr(optimize, "_random_directions",
                        lambda rng, shape: starts.copy())
    runs = [single_ascent(state, ms) for ms in inits]
    single = max(runs, key=lambda r: r.best_value)
    batched = optimize.multistart_maximize(state, seed=9, n_starts=8)
    assert batched.best_value == pytest.approx(single.best_value, abs=1e-12)
    certified = [r for r in runs if r.global_maximum]
    # The bound is tight on the GHZ family only.
    assert bool(certified) == tight
    if certified:
        # The batch stops at the first step a start is certified at the
        # bound, and reports the best start certified at that step.
        first = min(r.iterations_used for r in certified)
        reported = max((r for r in certified if r.iterations_used == first),
                       key=lambda r: r.best_value)
        assert batched.global_maximum
    else:
        reported = single
        first = max(r.iterations_used for r in runs)
    # Sums run in a fixed order, so the paths agree to the last bit.
    assert batched.best_value == reported.best_value
    assert batched.residual == reported.residual
    assert np.array_equal(batched.best_settings.vectors(),
                          reported.best_settings.vectors())
    assert batched.iterations_used == first


def test_best_settings_are_the_final_directions_of_the_ascent():
    state = qcore.haar_random_state(np.random.default_rng(46))
    parties = optimize._random_directions(
        np.random.default_rng(4), (6, 6)).reshape(3, 2, -1, 3)
    t = bell.correlation_tensor(state)
    value, residual, (steps,) = optimize._ascend(
        t[None], np.array([bell.smax_upper_bound(t)]), np.zeros(6, dtype=int),
        parties)
    best = int(np.argmax(np.abs(value)))
    expected = parties[:, :, best].reshape(6, 3).copy()
    if value[best] < 0.0:
        expected[:2] = -expected[:2]
    result = optimize.multistart_maximize(state, seed=4, n_starts=6)
    # The directions after the last see-saw cycle or Newton step, exactly.
    assert np.array_equal(result.best_settings.vectors(), expected)
    assert result.best_value == abs(value[best])
    assert result.residual == residual[best] <= optimize.CONVERGENCE_TOL
    assert result.iterations_used == steps


def test_the_ascent_moves_no_axis_per_step(monkeypatch):
    state = qcore.haar_random_state(np.random.default_rng(55))
    moveaxis = np.moveaxis
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return moveaxis(*args, **kwargs)

    counts = []
    for max_steps in (1, 40):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "_MAX_STEPS", max_steps)
            patch.setattr(np, "moveaxis", counted)
            result = optimize.multistart_maximize(state, seed=11, n_starts=4)
        counts.append(len(calls))
    # The longer run takes Newton steps too; only the bound moves axes,
    # once per call, never once per step.
    assert result.iterations_used > optimize._HANDOVER
    assert counts[0] == counts[1]


def haar_and_w_states():
    rng = np.random.default_rng(53)
    w = qcore.w_state(qcore.WClassParams(0.6, 0.64, 0.48))
    states = [qcore.haar_random_state(rng) for _ in range(3)] + [w]
    return states + [qcore.ThreeQubitPureState(
        qcore.haar_local_unitary(rng) @ s.amplitudes) for s in states]


@pytest.mark.parametrize("state", haar_and_w_states())
def test_the_bound_caps_the_maximum_and_stops_no_loose_batch(
        state, monkeypatch):
    result = optimize.multistart_maximize(state, seed=10, n_starts=10)
    assert result.best_value <= result.upper_bound + 1e-12
    assert result.upper_bound == bell.smax_upper_bound(
        bell.correlation_tensor(state))
    assert not result.global_maximum
    monkeypatch.setattr(optimize, "smax_upper_bound",
                        lambda t: np.full(np.shape(t)[:-3], math.inf))
    unbounded = optimize.multistart_maximize(state, seed=10, n_starts=10)
    assert unbounded.best_value == result.best_value
    assert unbounded.residual == result.residual
    assert np.array_equal(unbounded.best_settings.vectors(),
                          result.best_settings.vectors())
    assert unbounded.iterations_used == result.iterations_used


def test_a_ghz_batch_stops_at_a_start_certified_at_the_bound(monkeypatch):
    # Row 24 of the default sweep-ghz grid, where one start's slow escape
    # from a saddle kept the whole batch running.
    state = ghz(3 * math.pi / 40, math.pi / 4)
    seed = qcore._derived_seed(0, 24)
    stopped = optimize.multistart_maximize(state, seed)
    assert stopped.converged and stopped.hessian_nsd
    assert stopped.global_maximum
    assert stopped.best_value >= stopped.upper_bound - optimize.BOUND_TOL
    monkeypatch.setattr(optimize, "smax_upper_bound",
                        lambda t: np.full(np.shape(t)[:-3], math.inf))
    unstopped = optimize.multistart_maximize(state, seed)
    assert stopped.iterations_used < unstopped.iterations_used
    assert stopped.best_value == pytest.approx(unstopped.best_value,
                                               abs=1e-12)


def _plain_seesaw(tensors, parties, cycles):
    """|<S>| of every start after `cycles` plain see-saw cycles.

    An independent reference written with matmul and einsum: `tensors` is
    (states, 3, 3, 3) and `parties` (3, 2, states, starts, 3).
    """
    n_states, n_starts = parties.shape[2:4]
    for cycle in range(cycles + 1):
        for k in range(3):
            p, q = (j for j in range(3) if j != k)
            t_k = np.moveaxis(tensors, (1 + k, 1 + p, 1 + q), (1, 2, 3))
            signs = np.moveaxis(bell.SVETLICHNY_SIGNS, (k, p, q), (0, 1, 2))
            # partial[s, i, j, z, n] = sum_l t_k[s, i, j, l] Q[z, s, n, l]
            partial = (t_k.reshape(n_states, 9, 3)
                       @ parties[q].transpose(1, 3, 0, 2).reshape(
                           n_states, 3, 2 * n_starts))
            partial = np.einsum(
                "sijzn,ysnj->yzsni",
                partial.reshape(n_states, 3, 3, 2, n_starts), parties[p])
            coeff = np.einsum("xyz,yzsni->xsni", signs, partial)
            if cycle == cycles:
                return np.abs(np.einsum("xsni,xsni->sn", coeff, parties[k]))
            parties[k] = coeff / np.linalg.norm(coeff, axis=-1, keepdims=True)


def test_certified_ascent_reaches_a_long_plain_seesaw():
    rng = np.random.default_rng(47)
    states = [qcore.haar_random_state(rng) for _ in range(200)]
    starts = np.stack([
        optimize._random_directions(np.random.default_rng(seed),
                                    (6, 8)).reshape(3, 2, -1, 3)
        for seed in range(len(states))], axis=2)
    tensors = np.stack([bell.correlation_tensor(s) for s in states])
    reference = _plain_seesaw(tensors, starts, 3000).max(axis=1)
    for seed, (state, plain) in enumerate(zip(states, reference)):
        result = optimize.multistart_maximize(state, seed=seed, n_starts=8)
        assert result.best_value >= plain - 1e-12
        assert result.residual <= 1e-9 and result.converged
        assert result.hessian_nsd


def test_hessian_matches_second_differences_on_the_spheres():
    rng = np.random.default_rng(48)
    t = bell.correlation_tensor(qcore.haar_random_state(rng))
    parties = optimize._random_directions(rng, (6, 1)).reshape(3, 2, 1, 3)
    views = bell._tensor_views(t)
    blocks = bell._block(views, parties)
    bases = optimize._tangent_bases(parties)
    grad = optimize._gradients(blocks, parties)
    hessian = optimize._hessian(blocks, parties, grad, bases)[0]

    def value(eta):
        # <S> at the normalized point v + E eta: a second-order retraction,
        # so its Hessian at eta = 0 is the Riemannian Hessian.
        step = np.einsum("pxnai,pxa->pxni", bases, eta.reshape(3, 2, 2))
        moved = parties + step
        moved = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
        return float(optimize._value(
            bell._party_coefficients(views, moved, 2), moved[2])[0])

    h = 1e-4
    unit = np.eye(12) * h
    numeric = np.array([[
        (value(unit[a] + unit[b]) - value(unit[a] - unit[b])
         - value(unit[b] - unit[a]) + value(-unit[a] - unit[b])) / (4 * h * h)
        for b in range(12)] for a in range(12)])
    assert np.allclose(hessian, hessian.T, atol=1e-15)
    assert np.max(np.abs(hessian - numeric)) < 1e-6
    gradient = np.array([(value(unit[a]) - value(-unit[a])) / (2 * h)
                         for a in range(12)])
    tangent = np.einsum("pxnai,pxni->pxa", bases, grad).reshape(12)
    assert np.max(np.abs(tangent - gradient)) < 1e-7
    assert optimize._residual(grad, parties)[0] == pytest.approx(
        np.linalg.norm(tangent), rel=1e-12)


def test_a_newton_step_that_would_lower_the_value_gives_way_to_a_cycle(
        monkeypatch):
    state = qcore.haar_random_state(np.random.default_rng(51))
    init = random_settings(np.random.default_rng(52))
    monkeypatch.setattr(optimize, "_MAX_STEPS", 40)
    monkeypatch.setattr(optimize, "_HANDOVER", 40)
    cycles_only = single_ascent(state, init)

    def downhill(views, parties, grad, blocks):
        # After one cycle <S> >= 0, so flipping a party's pair lowers it.
        moved = parties.copy()
        moved[0] = -moved[0]
        return moved, optimize._value(
            bell._party_coefficients(views, moved, 2), moved[2])

    monkeypatch.setattr(optimize, "_HANDOVER", 1)
    monkeypatch.setattr(optimize, "_newton_step", downhill)
    guarded = single_ascent(state, init)
    assert guarded.best_value == cycles_only.best_value
    assert guarded.residual == cycles_only.residual
    assert guarded.iterations_used == cycles_only.iterations_used == 40
    assert np.array_equal(guarded.best_settings.vectors(),
                          cycles_only.best_settings.vectors())


def test_a_newton_step_gives_each_start_its_step_alone():
    # 400 starts, a whole grid batch: BATCH_ROWS rows of N_STARTS each.
    n = optimize.BATCH_ROWS * optimize.N_STARTS
    rng = np.random.default_rng(53)
    t = np.stack([bell.correlation_tensor(qcore.haar_random_state(rng))
                  for _ in range(n)])
    parties = optimize._random_directions(rng, (6, n)).reshape(3, 2, n, 3)
    views = bell._tensor_views(t)
    blocks = bell._block(views, parties)
    grad = optimize._gradients(blocks, parties)
    trials, values = optimize._newton_step(views, parties, grad, blocks)
    for i in range(n):
        one = slice(i, i + 1)
        trial, value = optimize._newton_step(
            views[:, :, one], parties[:, :, one], grad[:, :, one],
            blocks[:, :, :, one])
        assert np.array_equal(trials[:, :, one], trial)
        assert values[i] == value[0]


def test_a_random_start_is_not_certified(monkeypatch):
    state = qcore.haar_random_state(np.random.default_rng(49))
    init = random_settings(np.random.default_rng(50))
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_MAX_STEPS", 0)
        result = single_ascent(state, init)
    assert result.residual > 1e-3
    assert not result.converged
    assert not result.hessian_nsd
    polished = single_ascent(state, init)
    assert polished.converged and polished.hessian_nsd
    assert polished.residual <= 1e-9


def test_seesaw_reports_its_start_exactly_with_one_party_flipped_if_negative(
        monkeypatch):
    state = ghz(0.6, 1.1)
    t = bell.correlation_tensor(state)
    monkeypatch.setattr(optimize, "_MAX_STEPS", 0)
    signs = set()
    for seed in range(20):
        init = random_settings(np.random.default_rng(seed))
        parties = init.vectors().reshape(3, 2, 1, 3)
        start = optimize._value(bell._party_coefficients(
            bell._tensor_views(t), parties, 2), parties[2])[0]
        result = single_ascent(state, init)
        expected = init.vectors().copy()
        if start < 0.0:
            expected[:2] = -expected[:2]
        signs.add(start < 0.0)
        assert np.array_equal(result.best_settings.vectors(), expected)
        assert result.best_value == abs(start)
        assert result.iterations_used == 0
    assert signs == {True, False}


def test_iterations_used_counts_the_steps_up_to_the_cap(monkeypatch):
    state = qcore.haar_random_state(np.random.default_rng(56))
    uncapped = optimize.multistart_maximize(state, seed=12, n_starts=4)
    for cap in (0, 1, optimize._HANDOVER, optimize._HANDOVER + 3):
        assert cap < uncapped.iterations_used
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "_MAX_STEPS", cap)
            result = optimize.multistart_maximize(state, seed=12, n_starts=4)
        assert result.iterations_used == cap


def test_multistart_local_unitary_invariance():
    rng = np.random.default_rng(44)
    # Drawing six cases but checking three keeps the flat-ridge landscape
    # at index 5 (the hardest of this stream) in the sample cheaply.
    for index in range(6):
        s = qcore.haar_random_state(rng)
        u = qcore.haar_local_unitary(rng)
        if index not in (0, 2, 5):
            continue
        rotated = qcore.ThreeQubitPureState(u @ s.amplitudes)
        assert optimize.multistart_maximize(rotated, seed=5).best_value == (
            pytest.approx(optimize.multistart_maximize(s, seed=5).best_value,
                          abs=1e-6))


def test_ghz_grid_points_shape():
    points = optimize.ghz_grid_points(5, [0.3, 0.7])
    assert len(points) == 10
    assert points[0] == (0.0, 0.3)
    with pytest.raises(qcore.ValidationError):
        optimize.ghz_grid_points(1, [0.3])


def test_a_grid_at_the_point_bound_is_built(monkeypatch):
    batches = []

    def row_indices(points, first, seed):
        batches.append(len(points))
        return list(range(first, first + len(points)))

    # The points are built and their rows run chunk by chunk, a chunk as
    # many rows as one ascent batch has starts.
    monkeypatch.setattr(optimize, "_ghz_point", lambda *point: point)
    monkeypatch.setattr(optimize, "_w_point", lambda *point: point)
    monkeypatch.setattr(optimize, "_verification_rows", row_indices)
    curves = optimize.MAX_GRID_POINTS // optimize.MAX_GRID_STEPS
    rows = list(range(optimize.MAX_GRID_POINTS))
    assert optimize.verify_grid_ghz(optimize.MAX_GRID_STEPS,
                                    [0.3] * curves) == rows
    assert optimize.verify_grid_w([0.5] * curves,
                                  optimize.MAX_GRID_STEPS) == rows
    assert max(batches) == optimize.BATCH_ROWS * optimize.N_STARTS
    assert sum(batches) == 2 * optimize.MAX_GRID_POINTS
    with pytest.raises(qcore.ValidationError):
        optimize.ghz_grid_points(optimize.MAX_GRID_STEPS, [0.3] * (curves + 1))


def check_ghz_report(row):
    """A GHZ row's report: Eq. (19)'s value and branch, as smax_ghz_closed
    gives them, with the row's own settings, which reach that value.
    Returns the value smax_ghz_closed's representative settings reach."""
    params = qcore.GhzClassParams(*row.params)
    closed = bell.smax_ghz_closed(row.profile)
    assert row.closed.closed_value == closed.closed_value
    assert row.closed.branch == closed.branch
    assert row.closed.achieving_settings == bell.optimal_settings_ghz(params)
    state = qcore.ghz_state(params)
    assert abs(bell.svetlichny_value(state, row.closed.achieving_settings)
               - row.closed.closed_value) <= 1e-12
    return bell.svetlichny_value(state, closed.achieving_settings)


def test_verify_grid_ghz_small():
    rows = optimize.verify_grid_ghz(5, [math.pi / 2], seed=6)
    assert len(rows) == 5
    for row in rows:
        assert row.flag == "match"
        assert abs(row.gap) <= 1e-3
    # Each row carries its point's profile and closed-form report, with the
    # point's own settings.
    for row in rows:
        params = qcore.GhzClassParams(*row.params)
        assert row.profile == entanglement.ghz_profile_closed(params)
        check_ghz_report(row)
    # The theta = 0 product row sits at the separable value 4.
    assert rows[0].closed.closed_value == pytest.approx(4.0)
    assert rows[0].numeric_value == pytest.approx(4.0, abs=1e-6)


def test_a_sweep_row_reports_settings_that_reach_its_closed_value():
    rows = optimize.verify_grid_ghz(
        21, [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2])
    short = 0
    for row in rows:
        # The representative's settings, which smax_ghz_closed reports,
        # fall short of the closed value on some rows with theta > pi/4.
        if abs(check_ghz_report(row) - row.closed.closed_value) > 1e-3:
            assert row.params[0] > math.pi / 4
            short += 1
    assert short > 0


def w_sum_max(c12):
    """c12 + c23 + c31 at its peak: 1 + 2 c12 below c12 = 1/3."""
    if c12 < 1.0 / 3.0:
        return 1.0 + 2.0 * c12
    return c12 + 2.0 * math.sqrt(2.0 * c12 * (1.0 - c12))


def test_w_params_for_sum_round_trip():
    for c12 in (0.0, 0.1, 1.0 / 3.0, 0.45, 2.0 / 3.0, 1.0):
        assert optimize.w_sum_max(c12) == pytest.approx(w_sum_max(c12),
                                                        abs=1e-12)
    for c12 in (0.1, 0.2, 0.35, 0.45, 2.0 / 3.0):
        for sum_c in np.linspace(c12, w_sum_max(c12), 9):
            params = optimize.w_params_for_sum(c12, float(sum_c))
            profile = entanglement.w_profile_closed(params)
            assert profile.c12 == pytest.approx(c12, abs=1e-9)
            total = profile.c12 + profile.c23 + profile.c31
            assert total == pytest.approx(float(sum_c), abs=1e-9)
    # A small c12 comes back to full relative precision.
    for c12 in (1e-13, 1e-9, 1e-6):
        for sum_c in np.linspace(c12, w_sum_max(c12), 9):
            params = optimize.w_params_for_sum(c12, float(sum_c))
            profile = entanglement.w_profile_closed(params)
            assert profile.c12 == pytest.approx(c12, rel=1e-9)


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
    rows = optimize.verify_grid_w([2.0 / 3.0], 6, seed=8)
    assert len(rows) == 6
    for row in rows:
        assert row.flag != "numeric-below"
        assert row.numeric_value >= row.closed.closed_value - 1e-6
        assert row.params == (row.profile.c12, row.profile.c23,
                              row.profile.c31)
        assert row.closed.branch == "w-class"
        assert abs(row.gap) <= 1e-3
    # The curve runs from sum = c12, where S = 4, to the symmetric state.
    assert all(row.params[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
               for row in rows)
    assert sum(rows[0].params) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rows[0].closed.closed_value == pytest.approx(4.0, abs=1e-6)
    assert sum(rows[-1].params) == pytest.approx(2.0, abs=1e-9)


def test_verification_row_flags():
    assert optimize._flag_for_gap(0.0) == "match"
    assert optimize._flag_for_gap(2e-3) == "numeric-above"
    assert optimize._flag_for_gap(-2e-3) == "numeric-below"


@pytest.mark.parametrize("point, args, closed", [
    (optimize._ghz_point, (0.6, 1.1),
     lambda: bell.smax_ghz_closed(entanglement.ghz_profile_closed(
         qcore.GhzClassParams(0.6, 1.1))).closed_value),
    (optimize._w_point, (2.0 / 3.0, 1.5),
     lambda: bell.smax_w(entanglement.w_profile_closed(
         optimize.w_params_for_sum(2.0 / 3.0, 1.5))).closed_value),
], ids=["ghz", "w"])
def test_numeric_below_row_retries_with_four_times_the_starts(
        point, args, closed, monkeypatch):
    target = closed()
    calls = []

    def below(tensors, seeds, n_starts):
        calls.append((*seeds, n_starts))
        return [types.SimpleNamespace(best_value=target - 1e-2)]

    def matching(state, seed, n_starts=optimize.N_STARTS):
        calls.append((seed, n_starts))
        return types.SimpleNamespace(best_value=target)

    # The row's batched ascent falls short; its retry runs by itself.  A
    # GHZ row reaches the ascent only when its settings miss the certificate.
    monkeypatch.setattr(optimize, "optimal_settings_ghz", perturbed_settings)
    monkeypatch.setattr(optimize, "_maximize_rows", below)
    monkeypatch.setattr(optimize, "multistart_maximize", matching)
    (result,) = optimize._verification_rows([point(*args)], 4, 7)
    seeds, starts = zip(*calls)
    assert starts == (optimize.N_STARTS, 4 * optimize.N_STARTS)
    # Both runs draw from the row's own seed.
    assert seeds == (qcore._derived_seed(7, 4),) * 2
    assert result.flag == "match"
    assert result.numeric_value == target and result.gap == 0.0


def test_a_certified_row_that_flags_below_retries_from_its_own_seed(
        monkeypatch):
    forced = (math.pi / 4, 3 * math.pi / 8)
    built = optimize._ghz_point
    derived, retries, ascents, states = [], [], [], {}

    def raised(*where):
        # The row is certified at its settings, but its closed value is
        # raised, so it flags numeric-below and retries by itself.
        params, state, profile, closed, settings = built(*where)
        states[params] = state
        if where == forced:
            closed = dataclasses.replace(
                closed, closed_value=closed.closed_value + 1e-2)
        return params, state, profile, closed, settings

    def derived_seed(*args):
        derived.append(args)
        return qcore._derived_seed(*args)

    def retry(state, seed, n_starts=optimize.N_STARTS):
        retries.append((state, seed, n_starts))
        return maximize(state, seed, n_starts)

    def ascent(tensors, seeds, n_starts):
        ascents.append((list(seeds), n_starts))
        return maximize_rows(tensors, seeds, n_starts)

    maximize, maximize_rows = (optimize.multistart_maximize,
                               optimize._maximize_rows)
    monkeypatch.setattr(optimize, "_ghz_point", raised)
    monkeypatch.setattr(optimize, "_derived_seed", derived_seed)
    monkeypatch.setattr(optimize, "multistart_maximize", retry)
    monkeypatch.setattr(optimize, "_maximize_rows", ascent)
    rows = optimize.verify_grid_ghz(5, [math.pi / 8, 3 * math.pi / 8], seed=3)
    index = [row.params for row in rows].index(forced)
    # Only the retried row derives its seed, and only for its retry.
    assert derived == [(3, index)]
    ((state, seed, n_starts),) = retries
    assert state is states[forced]
    assert seed == qcore._derived_seed(3, index)
    assert n_starts == 4 * optimize.N_STARTS
    # No row ran the grid's ascent: the one ascent is the retry's.
    assert ascents == [([seed], 4 * optimize.N_STARTS)]
    assert [row.flag for row in rows].count("numeric-below") == 1
    assert rows[index].flag == "numeric-below"


def test_the_default_sweep_ghz_derives_no_seed(tmp_path, monkeypatch):
    derived = []
    monkeypatch.setattr(optimize, "_derived_seed",
                        lambda *args: derived.append(args))
    assert cli.main(["sweep-ghz", "--out", str(tmp_path / "ghz.csv")]) == 0
    assert derived == []


def _spied_grid(grid, monkeypatch):
    """The rows of `grid()` and the (tensors, seeds, n_starts, results) of
    every batched ascent it ran."""
    batches = []
    maximize_rows = optimize._maximize_rows

    def spy(tensors, seeds, n_starts):
        results = maximize_rows(tensors, seeds, n_starts)
        batches.append((tensors, seeds, n_starts, results))
        return results

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_maximize_rows", spy)
        return grid(), batches


def _assert_same_result(batched, alone):
    assert batched.best_value == alone.best_value
    assert np.array_equal(batched.best_settings.vectors(),
                          alone.best_settings.vectors())
    assert batched.iterations_used == alone.iterations_used
    assert batched.residual == alone.residual
    assert batched.converged == alone.converged
    assert batched.hessian_nsd == alone.hessian_nsd
    assert batched.upper_bound == alone.upper_bound


@pytest.mark.parametrize("family", ["ghz", "w"])
def test_a_batched_grid_gives_each_row_its_result_alone(family, monkeypatch):
    if family == "ghz":
        point, grid = "_ghz_point", lambda: optimize.verify_grid_ghz(
            21, [math.pi / 8, 3 * math.pi / 8], seed=3)
        forced = (math.pi / 4, math.pi / 8)
    else:
        point, grid = "_w_point", lambda: optimize.verify_grid_w(
            [0.45, 2.0 / 3.0], 9, seed=3)
        forced = (0.45, 0.45)
    built = getattr(optimize, point)
    states = {}

    def raised(*where):
        # One row's closed value is raised, so it flags numeric-below and
        # retries by itself.
        params, state, profile, closed, settings = built(*where)
        states[params] = state
        if where == forced:
            closed = dataclasses.replace(
                closed, closed_value=closed.closed_value + 1e-2)
        return params, state, profile, closed, settings

    # Every GHZ row misses the certificate at its settings, so it ascends.
    monkeypatch.setattr(optimize, "optimal_settings_ghz", perturbed_settings)
    monkeypatch.setattr(optimize, point, raised)
    rows, batches = _spied_grid(grid, monkeypatch)
    grid_batches = [b for b in batches if b[2] == optimize.N_STARTS]
    retries = [b for b in batches if b[2] == 4 * optimize.N_STARTS]
    assert len(grid_batches) >= 2
    assert [len(b[1]) for b in grid_batches[:-1]] == (
        [optimize.BATCH_ROWS] * (len(grid_batches) - 1))
    assert sum(len(b[1]) for b in grid_batches) == len(rows)
    assert [row.flag for row in rows].count("numeric-below") == 1
    assert len(retries) == 1 and len(retries[0][1]) == 1
    seeds = [seed for b in grid_batches for seed in b[1]]
    results = [r for b in grid_batches for r in b[3]]
    for index, (row, seed, result) in enumerate(zip(rows, seeds, results)):
        assert seed == qcore._derived_seed(3, index)
        state = states[row.params]
        _assert_same_result(result, optimize.multistart_maximize(state, seed))
        numeric = result.best_value
        if row.flag == "numeric-below":
            assert retries[0][1] == [seed]
            retry = retries[0][3][0]
            _assert_same_result(retry, optimize.multistart_maximize(
                state, seed, 4 * optimize.N_STARTS))
            numeric = max(numeric, retry.best_value)
        assert row.numeric_value == numeric
        assert row.gap == numeric - row.closed.closed_value
    if family == "ghz":
        assert all(r.global_maximum for r in results)


def test_a_grid_of_several_chunks_gives_each_row_its_row_alone(monkeypatch):
    # 2 curves of 401 points: two full chunks and two rows more.  Every
    # 97th row misses the certificate at its settings and ascends.
    grid = optimize.ghz_grid_points(401, [math.pi / 8, 1.2])
    assert len(grid) > 2 * optimize.BATCH_ROWS * optimize.N_STARTS
    tilted = set(grid[::97])
    built = optimize._ghz_point

    def point(*where):
        params, state, profile, closed, settings = built(*where)
        if where in tilted:
            settings = perturbed_settings(qcore.GhzClassParams(*where))
        return params, state, profile, closed, settings

    monkeypatch.setattr(optimize, "_ghz_point", point)
    rows = optimize.verify_grid_ghz(401, [math.pi / 8, 1.2], seed=4)
    assert len(rows) == len(grid)
    for index, where in enumerate(grid):
        (alone,) = optimize._verification_rows([point(*where)], index, 4)
        assert rows[index] == alone


def test_a_grid_needs_memory_that_does_not_grow_with_its_rows(monkeypatch):
    # The rows miss the certificate at their settings, so they all ascend.
    monkeypatch.setattr(optimize, "optimal_settings_ghz", perturbed_settings)

    def peak(curves):
        tracemalloc.start()
        try:
            optimize.verify_grid_ghz(optimize.BATCH_ROWS,
                                     [math.pi / 8] * curves)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The first grid also pays one-off costs, such as lazy imports.
    peak(1)
    one_batch = peak(1)
    assert peak(4) <= 1.2 * one_batch


def _certified_grid(grid, monkeypatch):
    """The rows of `grid()`, when no row may run the ascent or build a
    result."""
    rows = []
    verification_rows = optimize._verification_rows

    def spy(*args):
        built = verification_rows(*args)
        rows.extend(built)
        return built

    def no_ascent(tensors, seeds, n_starts):
        raise AssertionError(f"rows {seeds} ran the ascent")

    def no_result(*args):
        raise AssertionError("a row built an OptimizationResult")

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_verification_rows", spy)
        patch.setattr(optimize, "_maximize_rows", no_ascent)
        patch.setattr(optimize, "_results", no_result)
        grid()
    return rows


def test_the_default_and_criterion_03_grids_are_certified_with_no_ascent(
        tmp_path, monkeypatch):
    for grid, size in [
            (lambda: cli.main(["sweep-ghz", "--out", str(tmp_path / "a.csv")]),
             3 * 21),
            (lambda: optimize.verify_grid_ghz(
                21, np.linspace(0.0, math.pi / 2, 21), seed=0), 21 * 21)]:
        rows = _certified_grid(grid, monkeypatch)
        assert len(rows) == size
        for row in rows:
            state = qcore.ghz_state(qcore.GhzClassParams(*row.params))
            # The value is <S> at the row's own settings, and it meets the
            # bound that no settings pass.
            assert row.numeric_value == pytest.approx(bell.svetlichny_value(
                state, row.closed.achieving_settings), abs=1e-12)
            assert row.numeric_value == pytest.approx(bell.smax_upper_bound(
                bell.correlation_tensor(state)), abs=optimize.BOUND_TOL)


def test_a_row_whose_settings_miss_the_certificate_ascends(monkeypatch):
    tilted = (math.pi / 4, math.pi / 8)
    built = optimize._ghz_point
    states = {}

    def point(*where):
        params, state, profile, closed, settings = built(*where)
        states[params] = state
        if where == tilted:
            settings = perturbed_settings(qcore.GhzClassParams(*where))
        return params, state, profile, closed, settings

    monkeypatch.setattr(optimize, "_ghz_point", point)
    rows, batches = _spied_grid(lambda: optimize.verify_grid_ghz(
        5, [math.pi / 8, 3 * math.pi / 8], seed=3), monkeypatch)
    index = [row.params for row in rows].index(tilted)
    # Only the tilted row ascends, from its own seed, as it would alone.
    ((tensors, seeds, n_starts, (result,)),) = batches
    assert seeds == [qcore._derived_seed(3, index)]
    assert n_starts == optimize.N_STARTS
    _assert_same_result(result, optimize.multistart_maximize(
        states[tilted], seeds[0]))
    assert result.iterations_used > 0 and result.global_maximum
    assert rows[index].numeric_value == result.best_value
    assert all(row.flag == "match" for row in rows)


def test_the_ascent_reaches_the_certified_value_on_the_family():
    # The grids certify GHZ rows with no ascent, so the ascent is checked here,
    # on every 7th point of criterion 03's grid, from the row's own seed.
    rows = optimize.verify_grid_ghz(21, np.linspace(0.0, math.pi / 2, 21),
                                    seed=0)
    for index in range(0, len(rows), 7):
        state = qcore.ghz_state(qcore.GhzClassParams(*rows[index].params))
        result = optimize.multistart_maximize(
            state, qcore._derived_seed(0, index))
        assert result.global_maximum
        assert result.best_value == pytest.approx(rows[index].numeric_value,
                                                  abs=1e-12)


# The per-party kernels that the per-step block pass replaced, kept as the
# oracle it must match bit for bit: the einsum sign fold and one `_block`
# per party, the Newton step's generator sums and concatenated trial
# tensors, np.cross, and the Hessian projected one block at a time.
_SIGNS_BY_PARTY = tuple(np.moveaxis(bell.SVETLICHNY_SIGNS, r, 2)
                        for r in range(3))


def reference_block(t, parties, r):
    signed = np.einsum("xyz,znl->xynl", _SIGNS_BY_PARTY[r], parties[r])
    fixed = (slice(None),) * (2 - r)
    block = signed[..., 0, None, None] * t[(Ellipsis, 0) + fixed]
    for l in (1, 2):
        block += signed[..., l, None, None] * t[(Ellipsis, l) + fixed]
    return block


def reference_contract(block, pair, q_side):
    if q_side:
        block = block.transpose(1, 0, 2, 4, 3)
    pair = pair[:, :, None, :]
    terms = block[..., 0] * pair[..., 0]
    for j in (1, 2):
        terms += block[..., j] * pair[..., j]
    return terms[:, 0] + terms[:, 1]


def reference_coefficients(t, parties, k):
    block = reference_block(t, parties, 1 if k == 2 else 2)
    return reference_contract(block, parties[0 if k else 1], k > 0)


def reference_gradients(t, parties, third=None):
    if third is None:
        third = reference_coefficients(t, parties, 2)
    block = reference_block(t, parties, 2)
    return np.stack([reference_contract(block, parties[1], False),
                     reference_contract(block, parties[0], True), third])


def reference_tangent_bases(parties):
    x, y, z = parties[..., 0], parties[..., 1], parties[..., 2]
    zero = np.zeros_like(x)
    first = np.where((np.abs(z) > 0.9)[..., None],
                     np.stack([zero, -z, y], axis=-1),
                     np.stack([-y, x, zero], axis=-1))
    first = first / np.sqrt(optimize._dot(first, first))[..., None]
    return np.stack([first, np.cross(parties, first)], axis=-2)


def reference_hessian(t, parties, grad, bases):
    n = parties.shape[2]
    hess = np.zeros((n, 3, 2, 2, 3, 2, 2))
    for r in range(3):
        p, q = (j for j in range(3) if j != r)
        block = reference_block(t, parties, r)
        left = optimize._dot(bases[p][:, None, :, :, None, :],
                             np.swapaxes(block, -1, -2)[:, :, :, None, :, :])
        projected = optimize._dot(left[:, :, :, :, None, :],
                                  bases[q][None, :, :, None, :, :])
        hess[:, p, :, :, q, :, :] = projected.transpose(2, 0, 3, 1, 4)
        hess[:, q, :, :, p, :, :] = projected.transpose(2, 1, 4, 0, 3)
    hess = hess.reshape(n, 12, 12)
    diagonal = np.arange(12)
    hess[:, diagonal, diagonal] = -np.repeat(
        optimize._dot(grad, parties).reshape(6, n), 2, axis=0).T
    return hess


def reference_newton_step(t, parties, grad):
    n = parties.shape[2]
    bases = reference_tangent_bases(parties)
    eigenvalues, vectors = np.linalg.eigh(
        reference_hessian(t, parties, grad, bases))
    coords = optimize._dot(bases, grad[:, :, :, None, :]).transpose(2, 0, 1, 3)
    coords = coords.reshape(n, 12)
    along = sum(vectors[:, m, :] * coords[:, m, None] for m in range(12))
    curvature = np.abs(eigenvalues) + np.reshape(optimize._DAMPING, (-1, 1, 1))
    along = np.where(curvature > optimize._FLAT_CURVATURE,
                     along / np.maximum(curvature, optimize._FLAT_CURVATURE),
                     0.0)
    step = sum(vectors[:, :, i] * along[:, :, None, i] for i in range(12))
    step = step.reshape(-1, n, 3, 2, 2).transpose(0, 2, 3, 1, 4)
    trials = (parties + bases[..., 0, :] * step[..., 0, None]
              + bases[..., 1, :] * step[..., 1, None])
    trials = trials / np.sqrt(optimize._dot(trials, trials))[..., None]
    stacked = np.concatenate(trials, axis=2)
    values = optimize._value(reference_coefficients(
        np.concatenate([t] * len(optimize._DAMPING)), stacked, 2), stacked[2])
    values = values.reshape(len(optimize._DAMPING), n)
    pick = np.argmax(values, axis=0)
    index = np.arange(n)
    return (trials[pick, :, :, index].transpose(1, 2, 0, 3),
            values[pick, index])


def reference_seesaw_cycle(t, parties, moving, coeff):
    for k in range(3):
        if k:
            coeff = reference_coefficients(t, parties, k)
        norms = np.sqrt(optimize._dot(coeff, coeff))
        usable = moving & (norms > 1e-14)
        parties[k][usable] = coeff[usable] / norms[usable, None]
    return coeff


def reference_ascend(tensors, bounds, rows, parties):
    start_bounds = bounds[rows]
    grad = reference_gradients(tensors[rows], parties)
    value = optimize._value(grad[2], parties[2])
    residual = optimize._residual(grad, parties)
    steps = np.zeros(len(bounds), dtype=int)
    for step in range(optimize._MAX_STEPS):
        certified = np.zeros(len(bounds), dtype=bool)
        certified[rows[optimize._at_bound(value, residual, start_bounds)]] = True
        live = np.flatnonzero((residual > optimize.CONVERGENCE_TOL)
                              & ~certified[rows])
        if live.size == 0:
            break
        t = tensors[rows[live]]
        batch = parties[:, :, live]
        seesaw = np.ones(live.size, dtype=bool)
        if step >= optimize._HANDOVER:
            moved, moved_value = reference_newton_step(t, batch,
                                                       grad[:, :, live])
            gains = moved_value >= value[live]
            batch[:, :, gains] = moved[:, :, gains]
            seesaw = ~gains
        third = None
        if seesaw.any():
            third = reference_seesaw_cycle(t, batch, seesaw, grad[0][:, live])
        fresh = reference_gradients(t, batch, third)
        parties[:, :, live] = batch
        grad[:, :, live] = fresh
        value[live] = optimize._value(fresh[2], batch[2])
        residual[live] = optimize._residual(fresh, batch)
        steps[rows[live]] = step + 1
    return value, residual, steps


def x_z_pairs(rng, n):
    """(2, n, 3) pairs in the x-z plane with a' = +-a: y is +0.0 or -0.0,
    and some directions lie on an axis with -0.0 components."""
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    y = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    a = np.stack([np.sin(angle), y, np.cos(angle)], axis=-1)
    a[::5] = (-0.0, -0.0, 1.0)
    a[1::5] = (1.0, -0.0, -0.0)
    return np.stack([a, np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None] * a])


def mixed_states(rng, count):
    """Haar, W-family (exact zeros in the tensor), GHZ-family and product
    states, in turn."""
    states = []
    for i in range(count):
        if i % 4 == 0:
            states.append(qcore.haar_random_state(rng))
        elif i % 4 == 1:
            amps = rng.uniform(0.2, 1.0, 3)
            states.append(qcore.w_state(
                qcore.WClassParams(*(amps / np.linalg.norm(amps)))))
        elif i % 4 == 2:
            states.append(ghz(*rng.uniform(0.0, math.pi / 2, 2)))
        else:
            states.append(qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0]))
    return states


def mixed_starts(rng, n):
    """(3, 2, n, 3) starts: random directions, then x-z pairs."""
    parties = optimize._random_directions(rng, (6, n)).reshape(3, 2, n, 3)
    half = n // 2
    for k in range(3):
        parties[k][:, half:] = x_z_pairs(rng, n - half)
    return parties


def test_the_sign_fold_keeps_einsum_zero_signs_on_x_z_pairs():
    # A plain s0 p0 + s1 p1 fold gives -0.0 where einsum gives +0.0, and
    # those signs reach the blocks on these pairs.
    rng = np.random.default_rng(60)
    n = 60
    parties = np.stack([x_z_pairs(rng, n) for _ in range(3)])
    tensors = np.stack([bell.correlation_tensor(s)
                        for s in mixed_states(rng, n)])
    blocks = bell._block(bell._tensor_views(tensors), parties)
    for r in range(3):
        assert blocks[r].tobytes() == reference_block(
            tensors, parties, r).tobytes()
        one = bell._block(bell._tensor_views(tensors), parties,
                          slice(r, r + 1))
        assert one[0].tobytes() == blocks[r].tobytes()


@pytest.mark.parametrize("n, shared", [(7, True), (40, False), (400, False)])
def test_the_block_pass_matches_the_per_party_kernels(n, shared):
    rng = np.random.default_rng(61 + n)
    if shared:
        tensors = bell.correlation_tensor(qcore.haar_random_state(rng))
    else:
        tensors = np.stack([bell.correlation_tensor(s)
                            for s in mixed_states(rng, n)])
    parties = mixed_starts(rng, n)
    views = bell._tensor_views(tensors)
    blocks = bell._block(views, parties)
    for r in range(3):
        assert blocks[r].tobytes() == reference_block(
            tensors, parties, r).tobytes()
    grad = optimize._gradients(blocks, parties)
    assert grad.tobytes() == reference_gradients(tensors, parties).tobytes()
    bases = optimize._tangent_bases(parties)
    assert bases.tobytes() == reference_tangent_bases(parties).tobytes()
    assert optimize._hessian(blocks, parties, grad, bases).tobytes() == (
        reference_hessian(tensors, parties, grad, bases).tobytes())
    if shared:
        # A shared tensor broadcasts; the old Newton step took one per start.
        tensors = np.broadcast_to(tensors, (n, 3, 3, 3))
    trials, values = optimize._newton_step(views, parties, grad, blocks)
    expected_trials, expected_values = reference_newton_step(
        tensors, parties, grad)
    assert trials.tobytes() == expected_trials.tobytes()
    assert values.tobytes() == expected_values.tobytes()


def test_the_damped_steps_sum_from_plus_zero():
    # A flat Hessian and a -0.0 gradient make every term -0.0.  Each sum
    # starts from +0.0, as the numpy reductions it replaced did, so the
    # steps keep those reductions' bits; a sum started from its first term
    # would give -0.0.
    step = optimize._damped_steps(np.zeros((4, 12, 12)), np.full((4, 12), -0.0))
    assert not np.signbit(step).any()


@pytest.mark.parametrize("rows, n_starts", [(4, 8), (8, 50)],
                         ids=["small", "400-starts"])
def test_a_whole_ascent_matches_the_per_party_kernels(rows, n_starts):
    rng = np.random.default_rng(62 + rows)
    tensors = np.stack([bell.correlation_tensor(s)
                        for s in mixed_states(rng, rows)])
    bounds = np.array([bell.smax_upper_bound(t) for t in tensors])
    row_of = np.repeat(np.arange(rows), n_starts)
    starts = mixed_starts(rng, rows * n_starts)
    parties = starts.copy()
    value, residual, steps = optimize._ascend(tensors, bounds, row_of,
                                              parties)
    expected = reference_ascend(tensors, bounds, row_of, starts)
    assert value.tobytes() == expected[0].tobytes()
    assert residual.tobytes() == expected[1].tobytes()
    assert steps.tobytes() == expected[2].tobytes()
    assert parties.tobytes() == starts.tobytes()
    # The batch took Newton steps.
    assert steps.max() > optimize._HANDOVER


def test_a_grid_batch_makes_one_correlation_tensor_call(monkeypatch):
    calls = []
    tensor = optimize.correlation_tensor

    def counted(s):
        calls.append(s)
        return tensor(s)

    monkeypatch.setattr(optimize, "correlation_tensor", counted)
    rows = optimize.verify_grid_ghz(21, [0.3, 0.8, 1.4])
    assert len(rows) == 63
    # One stacked call per chunk of BATCH_ROWS * N_STARTS rows, not one per
    # row: the whole grid here.
    assert [np.shape(s) for s in calls] == [(63, 8)]


def reference_result(t, bound, parties, value, residual, steps):
    """The per-row result builder that `optimize._results` replaced, kept as
    its oracle: one block pass, Hessian and eigensolve per row."""
    magnitude = np.abs(value)
    at_bound = optimize._at_bound(value, residual, bound)
    if at_bound.any():
        magnitude = np.where(at_bound, magnitude, -1.0)
    best = int(np.argmax(magnitude))
    vectors = parties[:, :, best].reshape(6, 3).copy()
    if value[best] < 0.0:
        vectors[:2] = -vectors[:2]
    reported = vectors.reshape(3, 2, 1, 3)
    blocks = bell._block(bell._tensor_views(t), reported)
    hessian = optimize._hessian(blocks, reported,
                                optimize._gradients(blocks, reported),
                                optimize._tangent_bases(reported))
    return optimize.OptimizationResult(
        best_value=abs(float(value[best])),
        best_settings=bell.settings_from_vectors(vectors),
        iterations_used=steps,
        converged=bool(residual[best] <= optimize.CONVERGENCE_TOL),
        residual=float(residual[best]),
        hessian_nsd=bool(np.linalg.eigvalsh(hessian)[0, -1]
                         <= optimize._NSD_TOL),
        upper_bound=bound,
    )


def assert_results_match_reference(tensors, parties, value, residual, steps):
    bounds = bell.smax_upper_bound(tensors)
    results = optimize._results(tensors, bounds, parties, value, residual,
                                steps)
    n_starts = value.size // len(tensors)
    assert len(results) == len(tensors)
    for row, result in enumerate(results):
        part = slice(row * n_starts, (row + 1) * n_starts)
        expected = reference_result(
            tensors[row], float(bounds[row]), parties[:, :, part],
            value[part], residual[part], int(steps[row]))
        _assert_same_result(result, expected)
        assert result.best_settings.vectors().tobytes() == (
            expected.best_settings.vectors().tobytes())
    return results


def values_at(tensors, n_starts, parties):
    """<S> and the residual of every start, row i's starts on tensors[i]."""
    views = bell._tensor_views(np.repeat(tensors, n_starts, axis=0))
    grad = optimize._gradients(bell._block(views, parties), parties)
    return (optimize._value(grad[2], parties[2]),
            optimize._residual(grad, parties))


@pytest.mark.parametrize("rows", [1, 8])
def test_the_batched_results_match_the_per_row_builder(rows):
    rng = np.random.default_rng(70 + rows)
    tensors = np.stack([bell.correlation_tensor(s)
                        for s in mixed_states(rng, rows)])
    parties = mixed_starts(rng, rows * optimize.N_STARTS)
    value, residual, steps = optimize._ascend(
        tensors, bell.smax_upper_bound(tensors),
        np.repeat(np.arange(rows), optimize.N_STARTS), parties)
    results = assert_results_match_reference(tensors, parties, value,
                                             residual, steps)
    # The GHZ row, if any, stopped at the bound; the rest converged.
    assert all(r.converged for r in results)
    assert any(r.global_maximum for r in results) == (rows > 2)


def test_a_negative_best_start_is_reported_with_its_first_pair_flipped():
    rng = np.random.default_rng(72)
    tensors = np.stack([bell.correlation_tensor(s)
                        for s in mixed_states(rng, 4)])
    n_starts = 6
    parties = optimize._random_directions(
        rng, (6, 4 * n_starts)).reshape(3, 2, -1, 3)
    value, _ = values_at(tensors, n_starts, parties)
    # Flip the first pair of each row's largest |<S>|, where it is positive,
    # so every row's best start is negative.
    best = (np.argmax(np.abs(value).reshape(4, -1), axis=1)
            + n_starts * np.arange(4))
    flip = best[value[best] > 0.0]
    parties[0][:, flip] = -parties[0][:, flip]
    value, residual = values_at(tensors, n_starts, parties)
    assert np.all(value[best] < 0.0)
    results = assert_results_match_reference(
        tensors, parties, value, residual, np.arange(4))
    for row, result in enumerate(results):
        reported = result.best_settings.vectors()
        expected = parties[:, :, best[row]].reshape(6, 3).copy()
        expected[:2] = -expected[:2]
        assert reported.tobytes() == expected.tobytes()
        # The reported settings reach +|<S>|.
        at_reported, _ = values_at(tensors[row:row + 1], 1,
                                   reported.reshape(3, 2, 1, 3))
        assert at_reported[0] == pytest.approx(result.best_value, abs=1e-12)


def test_a_start_certified_at_the_bound_beats_a_higher_uncertified_one():
    # Start 0 sits at a GHZ row's closed-form settings, certified at the
    # bound; start 1 is given a value a few ulps higher and a residual above
    # CONVERGENCE_TOL, as a start still moving may have.  A Haar row beside
    # it has no certified start, so its highest |<S>| is reported.
    rng = np.random.default_rng(73)
    params = qcore.GhzClassParams(0.5, 1.0)
    tensors = np.stack([bell.correlation_tensor(qcore.ghz_state(params)),
                        bell.correlation_tensor(
                            qcore.haar_random_state(rng))])
    n_starts = 3
    parties = optimize._random_directions(
        rng, (6, 2 * n_starts)).reshape(3, 2, -1, 3)
    parties[:, :, 0] = bell.optimal_settings_ghz(params).vectors().reshape(
        3, 2, 3)
    value, residual = values_at(tensors, n_starts, parties)
    bounds = bell.smax_upper_bound(tensors)
    assert optimize._at_bound(value[0], residual[0], bounds[0])
    value[1] = np.nextafter(np.nextafter(abs(value[0]), 9.0), 9.0) * np.sign(
        value[0])
    residual[1] = 1e-6
    results = assert_results_match_reference(tensors, parties, value,
                                             residual, np.zeros(2, dtype=int))
    assert results[0].best_value == abs(value[0]) < abs(value[1])
    assert results[0].global_maximum
    assert results[1].best_value == np.max(np.abs(value[n_starts:]))
    assert not results[1].global_maximum


def test_a_batch_with_no_certified_row_builds_no_result():
    grid = [qcore.GhzClassParams(theta, theta3)
            for theta3 in (math.pi / 8, math.pi / 2)
            for theta in np.linspace(0.0, math.pi / 2, 4)]
    tensors = bell.correlation_tensor(
        np.stack([qcore.ghz_state(p).amplitudes for p in grid]))
    assert optimize._certified_at_settings(
        tensors, [perturbed_settings(p) for p in grid]) == [None] * len(grid)
    # At the closed-form settings every row is certified, at its closed value.
    values = optimize._certified_at_settings(
        tensors, [bell.optimal_settings_ghz(p) for p in grid])
    assert all(isinstance(value, float) for value in values)
    for p, value in zip(grid, values):
        assert value == pytest.approx(
            bell.smax_ghz_closed(entanglement.ghz_profile_closed(p))
            .closed_value, abs=1e-12)


def test_the_default_sweep_ghz_makes_no_eigensolve_and_one_bound_per_chunk(
        tmp_path, monkeypatch):
    calls = {"eigvalsh": [], "smax_upper_bound": [], "_results": []}

    def counted(name, function):
        def spy(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return function(a, *args, **kwargs)
        return spy

    monkeypatch.setattr(optimize.np.linalg, "eigvalsh",
                        counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(optimize, "smax_upper_bound",
                        counted("smax_upper_bound", bell.smax_upper_bound))
    monkeypatch.setattr(optimize, "_results",
                        counted("_results", optimize._results))
    cli.main(["sweep-ghz", "--out", str(tmp_path / "ghz.csv")])
    # The 63 rows are one chunk, certified at their settings by value alone.
    assert calls["eigvalsh"] == []
    assert calls["_results"] == []
    assert calls["smax_upper_bound"] == [(63, 3, 3, 3)]
