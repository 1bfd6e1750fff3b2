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
            value, residual, steps = optimize._ascend(t, starts.copy(),
                                                      math.inf)
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
    value, residual, steps = optimize._ascend(
        t, parties, bell.smax_upper_bound(t))
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
    monkeypatch.setattr(optimize, "smax_upper_bound", lambda t: math.inf)
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
    monkeypatch.setattr(optimize, "smax_upper_bound", lambda t: math.inf)
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
    bases = optimize._tangent_bases(parties)
    grad = optimize._gradients(t, parties)
    hessian = optimize._hessian(t, parties, grad, bases)[0]

    def value(eta):
        # <S> at the normalized point v + E eta: a second-order retraction,
        # so its Hessian at eta = 0 is the Riemannian Hessian.
        step = np.einsum("pxnai,pxa->pxni", bases, eta.reshape(3, 2, 2))
        moved = parties + step
        moved = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
        return float(optimize._value(
            bell._party_coefficients(t, moved, 2), moved[2])[0])

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

    def downhill(t, parties, grad):
        # After one cycle <S> >= 0, so flipping a party's pair lowers it.
        moved = parties.copy()
        moved[0] = -moved[0]
        return moved, optimize._value(
            bell._party_coefficients(t, moved, 2), moved[2])

    monkeypatch.setattr(optimize, "_HANDOVER", 1)
    monkeypatch.setattr(optimize, "_newton_step", downhill)
    guarded = single_ascent(state, init)
    assert guarded.best_value == cycles_only.best_value
    assert guarded.residual == cycles_only.residual
    assert guarded.iterations_used == cycles_only.iterations_used == 40
    assert np.array_equal(guarded.best_settings.vectors(),
                          cycles_only.best_settings.vectors())


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
        start = optimize._value(bell._party_coefficients(t, parties, 2),
                                parties[2])[0]
        result = single_ascent(state, init)
        expected = init.vectors()
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
    def row_index(index, *point_and_seed):
        return index

    monkeypatch.setattr(optimize, "ghz_verification_row", row_index)
    monkeypatch.setattr(optimize, "w_verification_row", row_index)
    curves = optimize.MAX_GRID_POINTS // optimize.MAX_GRID_STEPS
    rows = list(range(optimize.MAX_GRID_POINTS))
    assert optimize.verify_grid_ghz(optimize.MAX_GRID_STEPS,
                                    [0.3] * curves) == rows
    assert optimize.verify_grid_w([0.5] * curves,
                                  optimize.MAX_GRID_STEPS) == rows
    with pytest.raises(qcore.ValidationError):
        optimize.ghz_grid_points(optimize.MAX_GRID_STEPS, [0.3] * (curves + 1))


def test_verify_grid_ghz_small():
    rows = optimize.verify_grid_ghz(5, [math.pi / 2], seed=6)
    assert len(rows) == 5
    for row in rows:
        assert row.flag == "match"
        assert abs(row.gap) <= 1e-3
    # Each row carries its point's profile and closed-form report.
    for row in rows:
        params = qcore.GhzClassParams(*row.params)
        assert row.profile == entanglement.ghz_profile_closed(params)
        assert row.closed == bell.smax_ghz_closed(row.profile)
    # The theta = 0 product row sits at the separable value 4.
    assert rows[0].closed.closed_value == pytest.approx(4.0)
    assert rows[0].numeric_value == pytest.approx(4.0, abs=1e-6)


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
    calls = []

    def below_then_matching(state, seed, n_starts=optimize.N_STARTS):
        calls.append((seed, n_starts))
        value = target - 1e-2 if len(calls) == 1 else target
        return types.SimpleNamespace(best_value=value)

    monkeypatch.setattr(optimize, "multistart_maximize", below_then_matching)
    result = row(4, *point, 7)
    seeds, starts = zip(*calls)
    assert starts == (optimize.N_STARTS, 4 * optimize.N_STARTS)
    # Both runs draw from the row's own seed.
    assert seeds == (qcore._derived_seed(7, 4),) * 2
    assert result.flag == "match"
    assert result.numeric_value == target and result.gap == 0.0
