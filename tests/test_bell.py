import math

import numpy as np
import pytest

from tribell import bell, entanglement, optimize, qcore


R2 = math.sqrt(2.0)
R3 = 1 / math.sqrt(3)
W_SYM_MAX = (16.0 / 3.0) * math.sqrt(2.0 / 3.0)
W_SYM_TILT = math.acos(1 / math.sqrt(3))


def ghz(theta=math.pi / 4, theta3=math.pi / 2):
    return qcore.ghz_state(qcore.GhzClassParams(theta, theta3))


def w_sym_profile():
    return entanglement.w_profile_closed(qcore.WClassParams(R3, R3, R3))


def w_sym_settings():
    return bell.settings_from_w_angles(W_SYM_TILT, W_SYM_TILT, W_SYM_TILT)


def random_unit(rng):
    v = rng.normal(size=3)
    return qcore.UnitVector(*(v / np.linalg.norm(v)))


def random_settings(rng):
    return bell.settings_from_vectors(
        [random_unit(rng).cartesian for _ in range(6)])


def random_w_params(rng):
    amps = np.abs(rng.normal(size=3))
    amps /= np.linalg.norm(amps)
    return qcore.WClassParams(*amps)


def test_settings_from_vectors_keeps_every_bit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        vectors = optimize._random_directions(rng, 6)
        ms = bell.settings_from_vectors(vectors)
        assert np.array_equal(ms.vectors(), vectors)
        again = bell.settings_from_vectors(ms.vectors())
        assert ms == again and hash(ms) == hash(again)


def test_settings_from_vectors_rejects_bad_input():
    with pytest.raises(qcore.ValidationError):
        bell.settings_from_vectors(np.eye(3))
    with pytest.raises(qcore.ValidationError):
        bell.settings_from_vectors(2.0 * np.ones((6, 3)))


def test_bell_operators_structure():
    rng = np.random.default_rng(9)
    for _ in range(30):
        s_op, m_op, mp_op = bell.bell_operators(random_settings(rng))
        assert np.max(np.abs(s_op - (m_op + mp_op))) < 1e-12
        for op in (s_op, m_op, mp_op):
            assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_bell_operators_spectral_ceiling():
    # A light sample; the acceptance gate covers the full 10^3 draws.
    rng = np.random.default_rng(10)
    for _ in range(60):
        s_op, m_op, _ = bell.bell_operators(random_settings(rng))
        assert np.max(np.abs(np.linalg.eigvalsh(s_op))) <= (
            bell.ALGEBRAIC_CEILING + 1e-9)
        assert np.max(np.abs(np.linalg.eigvalsh(m_op))) <= 4.0 + 1e-9


def test_bell_operators_ghz_high_branch():
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    s_op, _, _ = bell.bell_operators(bell.optimal_settings_ghz(params))
    assert qcore.expectation(ghz(), s_op) == pytest.approx(4.0 * R2,
                                                           abs=1e-12)


def test_correlation_tensor_examples():
    t = bell.correlation_tensor(
        qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0]))
    assert t.shape == (3, 3, 3) and not t.flags.writeable
    assert t[2, 2, 2] == pytest.approx(1.0)
    assert t[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    t = bell.correlation_tensor(ghz())
    assert t[0, 0, 0] == pytest.approx(1.0)
    assert t[2, 2, 0] == pytest.approx(0.0, abs=1e-12)
    t = bell.correlation_tensor(qcore.w_state(qcore.WClassParams(R3, R3, R3)))
    assert t[2, 2, 2] == pytest.approx(-1.0)


def test_correlation_tensor_matches_expectation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = qcore.haar_random_state(rng)
        t = bell.correlation_tensor(s)
        dirs = [random_unit(rng) for _ in range(3)]
        op = qcore.tensor3(*(qcore.spin_observable(d) for d in dirs))
        value = np.einsum("ijk,i,j,k->", t, *(d.cartesian for d in dirs))
        assert value == pytest.approx(qcore.expectation(s, op), abs=1e-10)


def test_svetlichny_value_examples():
    all_z = bell.MeasurementSettings(*([qcore.Z_HAT] * 6))
    product = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    assert bell.svetlichny_value(product, all_z) == pytest.approx(0.0,
                                                                  abs=1e-12)
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    settings = bell.optimal_settings_ghz(params)
    assert bell.svetlichny_value(ghz(), settings) == pytest.approx(4.0 * R2)
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    value = bell.svetlichny_value(w, w_sym_settings())
    assert value == pytest.approx(4.3546, abs=5e-4)


def test_svetlichny_tensor_vs_direct():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s = qcore.haar_random_state(rng)
        ms = random_settings(rng)
        assert bell.svetlichny_value(s, ms) == pytest.approx(
            bell.svetlichny_value_direct(s, ms), abs=1e-10)


def test_ghz_correlator_closed_product_limit():
    rng = np.random.default_rng(22)
    params = qcore.GhzClassParams(0.0, 0.4)
    for _ in range(20):
        a, d, c = (random_unit(rng) for _ in range(3))
        expected = (math.cos(a.polar) * math.cos(d.polar)
                    * math.cos(c.polar))
        assert bell.ghz_correlator_closed(params, a, d, c) == pytest.approx(
            expected, abs=1e-12)


def test_ghz_correlator_closed_xxx():
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    x = qcore.X_HAT
    assert bell.ghz_correlator_closed(params, x, x, x) == pytest.approx(1.0)


def test_ghz_correlator_closed_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        params = qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))
        a, d, c = (random_unit(rng) for _ in range(3))
        op = qcore.tensor3(*(qcore.spin_observable(v) for v in (a, d, c)))
        assert bell.ghz_correlator_closed(params, a, d, c) == pytest.approx(
            qcore.expectation(qcore.ghz_state(params), op), abs=1e-10)


def test_smax_ghz_closed_examples():
    profile = entanglement.ghz_profile_closed(qcore.GhzClassParams(0.0, 0.3))
    assert bell.smax_ghz_closed(profile).closed_value == pytest.approx(4.0)
    profile = entanglement.ghz_profile_closed(
        qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    report = bell.smax_ghz_closed(profile)
    assert report.closed_value == pytest.approx(4.0 * R2)
    assert report.branch == "high-branch"
    assert bell.svetlichny_value(ghz(), report.achieving_settings) == (
        pytest.approx(4.0 * R2, abs=1e-9))


def test_smax_ghz_closed_branch_boundary():
    tau = 1.0 / 3.0
    low = 4.0 * math.sqrt(1.0 - tau)
    high = 4.0 * math.sqrt(0.0 + 2.0 * tau)
    assert low == pytest.approx(high, abs=1e-12)
    assert low == pytest.approx(4.0 * math.sqrt(2.0 / 3.0))


def test_smax_ghz_closed_rejects_w_profile():
    with pytest.raises(qcore.ValidationError):
        bell.smax_ghz_closed(w_sym_profile())


def test_smax_upper_bound_equals_eq_19_on_the_ghz_family():
    rng = np.random.default_rng(54)
    branches = set()
    for _ in range(200):
        params = qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))
        report = bell.smax_ghz_closed(entanglement.ghz_profile_closed(params))
        branches.add(report.branch)
        state = ghz(params.theta, params.theta3)
        rotated = qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rng) @ state.amplitudes)
        for s in (state, rotated):
            bound = bell.smax_upper_bound(bell.correlation_tensor(s))
            assert bound == pytest.approx(report.closed_value, abs=1e-12)
    assert branches == {"low-branch", "high-branch"}


def test_optimal_settings_ghz_achieves_closed_value():
    rng = np.random.default_rng(25)
    for _ in range(40):
        params = qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))
        closed = bell.smax_ghz_closed(
            entanglement.ghz_profile_closed(params)).closed_value
        value = bell.svetlichny_value(qcore.ghz_state(params),
                                      bell.optimal_settings_ghz(params))
        assert value == pytest.approx(closed, abs=1e-9)


def test_optimal_settings_ghz_low_branch_example():
    params = qcore.GhzClassParams(0.2, 0.3)
    tau = math.sin(2 * params.theta) ** 2 * math.sin(params.theta3) ** 2
    value = bell.svetlichny_value(qcore.ghz_state(params),
                                  bell.optimal_settings_ghz(params))
    assert value == pytest.approx(4.0 * math.sqrt(1.0 - tau), abs=1e-9)


def test_mermin_factor_at_optimal_settings():
    rng = np.random.default_rng(26)
    for _ in range(25):
        params = qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))
        state = qcore.ghz_state(params)
        s_op, m_op, _ = bell.bell_operators(bell.optimal_settings_ghz(params))
        assert qcore.expectation(state, s_op) == pytest.approx(
            2.0 * qcore.expectation(state, m_op), abs=1e-9)


def test_w_correlator_closed_all_z():
    rng = np.random.default_rng(27)
    z = qcore.Z_HAT
    for _ in range(20):
        profile = entanglement.w_profile_closed(random_w_params(rng))
        assert bell.w_correlator_closed(profile, z, z, z) == pytest.approx(
            -1.0)


def test_w_correlator_closed_zero_profile():
    profile = entanglement.w_profile_closed(qcore.WClassParams(1.0, 0.0, 0.0))
    value = bell.w_correlator_closed(profile, qcore.Z_HAT, qcore.Z_HAT,
                                     qcore.X_HAT)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_w_correlator_closed_oracle():
    rng = np.random.default_rng(28)
    for _ in range(200):
        params = random_w_params(rng)
        profile = entanglement.w_profile_closed(params)
        a, b, c = (random_unit(rng) for _ in range(3))
        op = qcore.tensor3(*(qcore.spin_observable(v) for v in (a, b, c)))
        assert bell.w_correlator_closed(profile, a, b, c) == pytest.approx(
            qcore.expectation(qcore.w_state(params), op), abs=1e-10)


def test_w_reduced_value_symmetric_formula():
    profile = w_sym_profile()
    for tilde in (0.2, 0.7, W_SYM_TILT, 1.3):
        expected = math.sin(3 * tilde) + 5 * math.sin(tilde)
        assert bell.w_reduced_value(profile, tilde, tilde,
                                    tilde) == pytest.approx(expected,
                                                            abs=1e-12)


def test_w_reduced_value_zero_angles():
    assert bell.w_reduced_value(w_sym_profile(), 0.0, 0.0, 0.0) == 0.0


def test_w_reduced_value_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        params = random_w_params(rng)
        profile = entanglement.w_profile_closed(params)
        tilde = rng.uniform(0.0, math.pi, size=3)
        settings = bell.settings_from_w_angles(*tilde)
        direct = qcore.expectation(qcore.w_state(params),
                                   bell.bell_operators(settings)[0])
        assert bell.w_reduced_value(profile, *tilde) == pytest.approx(
            direct, abs=1e-9)


def test_smax_w_symmetric():
    report = bell.smax_w(w_sym_profile())
    assert report.closed_value == pytest.approx(W_SYM_MAX, abs=1e-9)
    state = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    assert bell.svetlichny_value(state, report.achieving_settings) == (
        pytest.approx(W_SYM_MAX, abs=1e-9))
    for tilde in report.theta_tilde:
        assert math.degrees(tilde) == pytest.approx(54.7356103, abs=1e-4)


def test_smax_w_separable_limits():
    profile = entanglement.w_profile_closed(qcore.WClassParams(1.0, 0.0, 0.0))
    assert bell.smax_w(profile).closed_value == pytest.approx(4.0, abs=1e-9)
    r2 = 1 / R2
    profile = entanglement.w_profile_closed(qcore.WClassParams(0.0, r2, r2))
    assert bell.smax_w(profile).closed_value == pytest.approx(4.0, abs=1e-9)


def test_smax_w_on_two_near_vanishing_concurrences():
    # C23 = 2e-13 and C31 ~ 2e-12: smax_w reads the profile alone and
    # rebuilds no amplitudes from it.
    params = qcore.WClassParams(1e-12, 0.1, math.sqrt(0.99 - 1e-24))
    report = bell.smax_w(entanglement.w_profile_closed(params))
    assert report.closed_value == pytest.approx(4.0, abs=1e-9)


def test_smax_w_violation_threshold():
    rng = np.random.default_rng(31)
    for _ in range(20):
        profile = entanglement.w_profile_closed(random_w_params(rng))
        report = bell.smax_w(profile)
        reduced = bell.w_reduced_value(profile, *report.theta_tilde)
        assert (report.closed_value > 4.0) == (reduced > 4.0)


def test_optimal_settings_w_symmetric_structure():
    ms = w_sym_settings()
    expected = [math.cos(W_SYM_TILT), 0.0, math.sin(W_SYM_TILT)]
    for v in (ms.a, ms.b, ms.c):
        assert np.allclose(v.cartesian, expected, atol=1e-12)
    expected_prime = [math.cos(W_SYM_TILT), 0.0, -math.sin(W_SYM_TILT)]
    for v in (ms.a_prime, ms.b_prime, ms.c_prime):
        assert np.allclose(v.cartesian, expected_prime, atol=1e-12)


def test_w_symmetric_mermin_below_svetlichny():
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    s_op, m_op, _ = bell.bell_operators(w_sym_settings())
    assert abs(qcore.expectation(w, m_op)) < abs(qcore.expectation(w, s_op))
