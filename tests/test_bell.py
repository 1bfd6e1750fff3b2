import copy
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tribell import bell, entanglement, optimize, qcore


R2 = math.sqrt(2.0)
R3 = 1 / math.sqrt(3)
W_SYM_MAX = (16.0 / 3.0) * math.sqrt(2.0 / 3.0)
W_SYM_TILT = math.acos(1 / math.sqrt(3))
# +x as the direction at polar angle pi/2 and azimuth 0, whose z component
# is cos(pi / 2), and +z.
X_HAT = (1.0, 0.0, 6.123233995736766e-17)
Z_HAT = (0.0, 0.0, 1.0)


def ghz(theta=math.pi / 4, theta3=math.pi / 2):
    return qcore.ghz_state(qcore.GhzClassParams(theta, theta3))


def w_sym_profile():
    return entanglement.w_profile_closed(qcore.WClassParams(R3, R3, R3))


def w_sym_settings():
    return bell.settings_from_w_angles(W_SYM_TILT, W_SYM_TILT, W_SYM_TILT)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_settings(rng):
    return bell.settings_from_vectors([random_unit(rng) for _ in range(6)])


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


@pytest.mark.parametrize("position", [0, 4, 8])
def test_a_settings_stack_with_a_bad_row_at_any_position_is_rejected(
        position):
    vectors = optimize._random_directions(np.random.default_rng(70), (9, 6))
    assert len(bell.settings_from_vectors(vectors)) == 9
    for row in (0, 3, 5):
        for bad, match in ((math.nan, "must be finite"),
                           (math.inf, "must be finite"),
                           (vectors[position, row, 1] + 1e-6, "has norm")):
            broken = vectors.copy()
            broken[position, row, 1] = bad
            with pytest.raises(qcore.ValidationError, match=match):
                bell.settings_from_vectors(broken)
            with pytest.raises(qcore.ValidationError, match=match):
                bell.settings_from_vectors(broken[position])
    for shape in ((9, 5, 3), (9, 6, 2), (2, 9, 6, 3), (18,)):
        with pytest.raises(qcore.ValidationError, match="six 3-vectors"):
            bell.settings_from_vectors(np.ones(shape))


def test_settings_hold_one_read_only_copy_of_their_array():
    vectors = optimize._random_directions(np.random.default_rng(71), (4, 6))
    given = vectors.copy()
    stacked = bell.settings_from_vectors(given)
    alone = [bell.settings_from_vectors(v) for v in given]
    given[:] = 0.0
    for ms in stacked + alone:
        array = ms.vectors()
        assert array.shape == (6, 3) and array.dtype == float
        assert not array.flags.writeable
        assert ms.vectors() is array
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    for ms, one, v in zip(stacked, alone, vectors):
        assert ms.vectors().tobytes() == one.vectors().tobytes() == (
            v.tobytes())


def test_pickled_and_copied_settings_stay_checked_and_read_only():
    vectors = optimize._random_directions(np.random.default_rng(77), (3, 6))
    for ms in bell.settings_from_vectors(vectors):
        for again in (pickle.loads(pickle.dumps(ms)), copy.deepcopy(ms),
                      copy.copy(ms)):
            assert type(again) is bell.MeasurementSettings and again == ms
            assert again.vectors().shape == (6, 3)
            assert not again.vectors().flags.writeable


def test_the_settings_constructor_copies_and_checks_its_array():
    vectors = optimize._random_directions(np.random.default_rng(78), 6)
    given = vectors.copy()
    ms = bell.MeasurementSettings(given)
    given[:] = 0.0
    assert ms == bell.settings_from_vectors(vectors)
    assert ms.vectors().tobytes() == vectors.tobytes()
    assert not ms.vectors().flags.writeable
    assert bell.MeasurementSettings(vectors.tolist()) == ms
    off_unit = vectors.copy()
    off_unit[2] *= 1.0 + 1e-6
    for bad, match in ((np.zeros((6, 3)), "has norm"),
                       (np.full((6, 3), math.nan), "must be finite"),
                       (off_unit, "has norm"),
                       (np.ones((5, 3)), "six 3-vectors"),
                       (np.ones((6, 2)), "six 3-vectors"),
                       (vectors[None], "six 3-vectors"),
                       (vectors.ravel(), "six 3-vectors")):
        with pytest.raises(qcore.ValidationError, match=match):
            bell.MeasurementSettings(bad)
    state = qcore.ghz_state(qcore.GhzClassParams(0.5, 1.1))
    with pytest.raises(qcore.ValidationError):
        bell.svetlichny_value(state, bell.MeasurementSettings(
            np.zeros((6, 3))))


def test_a_settings_stack_is_checked_once(monkeypatch):
    calls = []

    def counted(n, wrapped=bell._directions):
        calls.append(np.shape(n))
        return wrapped(n)

    monkeypatch.setattr(bell, "_directions", counted)
    vectors = optimize._random_directions(np.random.default_rng(79), (400, 6))
    settings = bell.settings_from_vectors(vectors)
    assert calls == [(400, 6, 3)]
    assert [ms.vectors().tobytes() for ms in settings] == [
        v.tobytes() for v in vectors]


def test_settings_compare_and_hash_by_value():
    vectors = optimize._random_directions(np.random.default_rng(72), 6)
    ms = bell.settings_from_vectors(vectors)
    same = bell.settings_from_vectors(vectors.tolist())
    assert ms is not same and ms == same and hash(ms) == hash(same)
    assert ms == bell.settings_from_vectors(vectors[None])[0]
    assert len({ms, same}) == 1
    flipped = vectors.copy()
    flipped[5] = -flipped[5]
    assert ms != bell.settings_from_vectors(flipped)
    assert ms != "settings" and ms != tuple(map(tuple, vectors))
    # By value: -0.0 equals 0.0.
    x_z = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]] * 3)
    negated_zeros = np.where(x_z == 0.0, -0.0, x_z)
    assert bell.settings_from_vectors(x_z) == bell.settings_from_vectors(
        negated_zeros)
    assert hash(bell.settings_from_vectors(x_z)) == hash(
        bell.settings_from_vectors(negated_zeros))


def _checked_row(x, y, z):
    """One direction's components after the one check of directions, as
    plain floats, the way a direction object held them before the settings
    became one array."""
    return tuple(qcore._directions([x, y, z]).tolist())


def _unit_vector_from_angles(polar, azimuth):
    """The direction at polar and azimuth as it was written before the
    settings became one array: its own scalar arithmetic, then the check."""
    st = math.sin(polar)
    return _checked_row(st * math.cos(azimuth), st * math.sin(azimuth),
                        math.cos(polar))


def _unit_vector_settings_ghz(p):
    """`optimal_settings_ghz` built one checked direction at a time, as a
    (6, 3) array."""
    profile = entanglement.ghz_profile_closed(p)
    x_hat = _unit_vector_from_angles(math.pi / 2, 0.0)
    z_hat = _unit_vector_from_angles(0.0, 0.0)
    if bell._ghz_branches(profile.tau, profile.c12 ** 2)[0]:
        P, Q = bell._ghz_closed_terms(p)
        theta_c = math.atan2(Q, P)
        c = _checked_row(math.sin(theta_c), 0.0, math.cos(theta_c))
        minus_z = _unit_vector_from_angles(math.pi, 0.0)
        directions = (z_hat, z_hat, z_hat, minus_z, c, c)
    else:
        theta_c = math.atan2(math.sqrt(2.0) * math.sin(p.theta3),
                             math.cos(p.theta3))
        minus_y = _unit_vector_from_angles(math.pi / 2, 3.0 * math.pi / 2)
        directions = (x_hat, minus_y, x_hat, minus_y,
                      _unit_vector_from_angles(theta_c, math.pi / 4),
                      _unit_vector_from_angles(theta_c,
                                               2.0 * math.pi - math.pi / 4))
    return np.array(directions)


def _unit_vector_settings_w(tilde_a, tilde_b, tilde_c):
    """`settings_from_w_angles` built one checked direction at a time, as a
    (6, 3) array."""
    directions = []
    for tilde in (tilde_a, tilde_b, tilde_c):
        directions += [_checked_row(math.cos(tilde), 0.0, math.sin(tilde)),
                       _checked_row(math.cos(tilde), 0.0, -math.sin(tilde))]
    return np.array(directions)


def test_optimal_settings_ghz_match_the_unit_vector_built_settings():
    rng = np.random.default_rng(74)
    grid = np.linspace(0.0, math.pi / 2, 21).tolist()
    points = [(theta, theta3) for theta in grid for theta3 in grid]
    points += [tuple(rng.uniform(0.0, math.pi / 2, size=2))
               for _ in range(300)]
    branches = set()
    for theta, theta3 in points:
        p = qcore.GhzClassParams(theta, theta3)
        profile = entanglement.ghz_profile_closed(p)
        branches.add(bell._ghz_branches(profile.tau, profile.c12 ** 2)[0])
        vectors = bell.optimal_settings_ghz(p).vectors()
        assert vectors.tobytes() == _unit_vector_settings_ghz(p).tobytes()
    assert branches == {True, False}
    # -z keeps the x component that sin(pi) leaves.
    low = bell.optimal_settings_ghz(qcore.GhzClassParams(0.1, 0.0))
    b_prime = low.vectors()[3]
    assert b_prime[0] == math.sin(math.pi) > 0.0 and b_prime[2] == -1.0


def test_settings_from_w_angles_match_the_unit_vector_built_settings():
    rng = np.random.default_rng(75)
    tildes = [tuple(rng.uniform(0.0, math.pi, size=3)) for _ in range(300)]
    tildes += [(0.0, math.pi / 2, math.pi), (W_SYM_TILT,) * 3]
    for tilde in tildes:
        vectors = bell.settings_from_w_angles(*tilde).vectors()
        assert vectors.tobytes() == _unit_vector_settings_w(*tilde).tobytes()


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
        value = np.einsum("ijk,i,j,k->", t, *dirs)
        assert value == pytest.approx(qcore.expectation(s, op), abs=1e-10)


def test_svetlichny_value_examples():
    all_z = bell.settings_from_vectors([Z_HAT] * 6)
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
    for _ in range(50):
        ghz_family = qcore.ghz_state(
            qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2)))
        w_family = qcore.w_state(random_w_params(rng))
        for s in (ghz_family, w_family):
            ms = random_settings(rng)
            assert bell.svetlichny_value(s, ms) == pytest.approx(
                bell.svetlichny_value_direct(s, ms), abs=1e-10)



def _stacks(rng, shape):
    """Haar amplitude vectors (shape + (8,)) and settings vectors
    (shape + (6, 3)) drawn case by case."""
    n = int(np.prod(shape))
    amps = [qcore.haar_random_state(rng).amplitudes for _ in range(n)]
    vectors = [optimize._random_directions(rng, 6) for _ in range(n)]
    return (np.reshape(amps, shape + (8,)),
            np.reshape(vectors, shape + (6, 3)))


@pytest.mark.parametrize("shape", [(7,), (3, 4)], ids=["1d", "2d"])
def test_stacked_operators_tensors_and_values_equal_each_alone(shape):
    amps, vectors = _stacks(np.random.default_rng(51), shape)
    operators = bell.bell_operators(vectors)
    tensors = bell.correlation_tensor(amps)
    values = bell.svetlichny_value(amps, vectors)
    direct = bell.svetlichny_value_direct(amps, vectors)
    assert tensors.shape == shape + (3, 3, 3) and not tensors.flags.writeable
    assert values.shape == direct.shape == shape
    for index in np.ndindex(shape):
        state = qcore.ThreeQubitPureState(amps[index])
        ms = bell.settings_from_vectors(vectors[index])
        for stacked, alone in zip(operators, bell.bell_operators(ms)):
            assert np.array_equal(stacked[index], alone)
        assert np.array_equal(tensors[index], bell.correlation_tensor(state))
        assert values[index] == bell.svetlichny_value(state, ms)
        assert direct[index] == bell.svetlichny_value_direct(state, ms)


def _value_from_all_three_views(amps, vectors):
    """svetlichny_value as it was written with all three tensor views."""
    t = bell.correlation_tensor(amps)
    parties = np.reshape(vectors, (-1, 3, 2, 3)).transpose(1, 2, 0, 3)
    coeff = bell._party_coefficients(bell._tensor_views(t), parties, 0)
    terms = (coeff * parties[0]).transpose(1, 0, 2).reshape(-1, 6)
    return np.abs(np.sum(terms, axis=-1)).reshape(t.shape[:-3])


def test_svetlichny_value_reads_one_view_bit_for_bit():
    rng = np.random.default_rng(76)
    amps, vectors = _stacks(rng, (30,))
    ghz_params = [qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, 2))
                  for _ in range(10)]
    amps = np.concatenate([amps, [qcore.ghz_state(p).amplitudes
                                  for p in ghz_params]])
    # Optimal GHZ settings have exact zeros, whose signs the fold keeps.
    vectors = np.concatenate([vectors, [
        bell.optimal_settings_ghz(p).vectors() for p in ghz_params]])
    stacked = bell.svetlichny_value(amps, vectors)
    assert stacked.tobytes() == _value_from_all_three_views(
        amps, vectors).tobytes()
    for a, v in zip(amps, vectors):
        for ms in (v, bell.settings_from_vectors(v)):
            value = bell.svetlichny_value(a, ms)
            assert type(value) is float
            assert np.float64(value).tobytes() == _value_from_all_three_views(
                a, v).tobytes()


def test_a_settings_stack_with_one_bad_entry_is_rejected():
    amps, vectors = _stacks(np.random.default_rng(53), (4,))
    for bad, match in ((math.nan, "must be finite"),
                       (-math.inf, "must be finite"),
                       (vectors[1, 4, 2] + 1e-6, "has norm")):
        broken = vectors.copy()
        broken[1, 4, 2] = bad
        for call in (bell.bell_operators,
                     lambda v: bell.svetlichny_value(amps, v),
                     lambda v: bell.svetlichny_value_direct(amps, v)):
            with pytest.raises(qcore.ValidationError, match=match):
                call(broken)
    with pytest.raises(qcore.ValidationError, match="six 3-vectors"):
        bell.bell_operators(vectors[:, :5])
    with pytest.raises(qcore.ValidationError, match="differ in shape"):
        bell.svetlichny_value(amps[:3], vectors)


def test_a_nan_bell_operator_fails_the_hermiticity_check(monkeypatch):
    monkeypatch.setattr(bell, "spin_observable", lambda n: np.full(
        np.shape(n)[:-1] + (2, 2), math.nan, dtype=complex))
    with pytest.raises(qcore.ValidationError, match="lost Hermiticity"):
        bell.bell_operators(w_sym_settings())


def test_a_nan_correlation_tensor_is_rejected_alone_and_in_a_stack(
        monkeypatch):
    amps, _ = _stacks(np.random.default_rng(54), (4,))
    with monkeypatch.context() as patch:
        patch.setattr(bell, "PAULIS", np.full((3, 2, 2), math.nan,
                                              dtype=complex))
        for states in (ghz(), amps):
            with pytest.raises(qcore.ValidationError,
                               match="correlation tensor has an imaginary"):
                bell.correlation_tensor(states)
    broken = amps.copy()
    broken[2, 3] = math.nan
    with pytest.raises(qcore.ValidationError, match="must be finite"):
        bell.correlation_tensor(broken)

def test_ghz_correlator_closed_product_limit():
    rng = np.random.default_rng(22)
    params = qcore.GhzClassParams(0.0, 0.4)
    for _ in range(20):
        a, d, c = (random_unit(rng) for _ in range(3))
        expected = (math.cos(qcore._angles(*a)[0])
                    * math.cos(qcore._angles(*d)[0])
                    * math.cos(qcore._angles(*c)[0]))
        assert bell.ghz_correlator_closed(params, a, d, c) == pytest.approx(
            expected, abs=1e-12)


def test_ghz_correlator_closed_xxx():
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    x = X_HAT
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
    is_low, low, high = bell._ghz_branches(1.0 / 3.0, 0.0)
    assert is_low
    assert low == pytest.approx(high, abs=1e-12)
    assert low == pytest.approx(4.0 * math.sqrt(2.0 / 3.0))
    assert not bell._ghz_branches(1.0 / 3.0, 1e-9)[0]


def ghz_margin(theta, theta3):
    """sin^2 2theta (1 + sin^2 theta3) - 1, which is C12^2 + 2 tau - 1."""
    return math.sin(2.0 * theta) ** 2 * (1.0 + math.sin(theta3) ** 2) - 1.0


def ghz_report(theta, theta3):
    return bell.smax_ghz_closed(entanglement.ghz_profile_closed(
        qcore.GhzClassParams(theta, theta3)))


def test_a_ghz_family_state_violates_exactly_above_the_high_branch_margin():
    # The abstract's "large number of states don't violate": on the high
    # branch 4 sqrt(C12^2 + 2 tau) > 4 exactly when the margin is positive,
    # and the low branch 4 sqrt(1 - tau) never exceeds 4.
    grid = np.linspace(0.0, math.pi / 2, 41)
    outcomes = set()
    for theta in grid:
        for theta3 in grid:
            report = ghz_report(theta, theta3)
            margin = ghz_margin(theta, theta3)
            if report.branch == "low-branch":
                assert report.closed_value <= 4.0
            if abs(margin) <= 1e-12:
                assert report.closed_value == pytest.approx(4.0, abs=1e-11)
            else:
                assert (report.closed_value > 4.0) == (margin > 0.0)
                outcomes.add(margin > 0.0)
    assert outcomes == {True, False}
    # On the boundary the maximum is 4; just off it, on either side of
    # each of its two arcs, the margin's sign decides.
    for theta3 in np.linspace(0.05, math.pi / 2, 12):
        edge = 0.5 * math.asin(math.sqrt(1.0 / (1.0 + math.sin(theta3) ** 2)))
        for theta, inward in ((edge, 1.0), (math.pi / 2 - edge, -1.0)):
            assert abs(ghz_margin(theta, theta3)) < 1e-14
            assert ghz_report(theta, theta3).closed_value == pytest.approx(
                4.0, abs=1e-12)
            assert ghz_report(theta + inward * 1e-6, theta3).closed_value > 4.0
            assert ghz_report(theta - inward * 1e-6,
                              theta3).closed_value < 4.0


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


def reference_upper_bound(t):
    """The one-tensor bound as it was written before it took stacks."""
    flattenings = np.stack([np.moveaxis(t, k, 0).reshape(3, 9)
                            for k in range(3)])
    return 4.0 * float(np.min(
        np.linalg.svd(flattenings, compute_uv=False)[:, 0]))


def test_smax_upper_bound_of_a_stack_is_each_tensor_alone():
    rng = np.random.default_rng(56)
    states = []
    for _ in range(6):
        amps = rng.uniform(0.2, 1.0, 3)
        states += [qcore.haar_random_state(rng),
                   ghz(*rng.uniform(0.0, 1.5, 2)),
                   qcore.w_state(qcore.WClassParams(
                       *(amps / np.linalg.norm(amps)))),
                   qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])]
    tensors = bell.correlation_tensor(np.stack([s.amplitudes for s in states]))
    alone = [bell.smax_upper_bound(t) for t in tensors]
    assert all(type(b) is float for b in alone)
    assert alone == [reference_upper_bound(t) for t in tensors]
    for stack in (tensors, tensors.reshape(4, 6, 3, 3, 3)):
        bounds = bell.smax_upper_bound(stack)
        assert bounds.shape == stack.shape[:-3]
        assert bounds.ravel().tobytes() == np.array(alone).tobytes()


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
    z = Z_HAT
    for _ in range(20):
        profile = entanglement.w_profile_closed(random_w_params(rng))
        assert bell.w_correlator_closed(profile, z, z, z) == pytest.approx(
            -1.0)


def test_w_correlator_closed_zero_profile():
    profile = entanglement.w_profile_closed(qcore.WClassParams(1.0, 0.0, 0.0))
    value = bell.w_correlator_closed(profile, Z_HAT, Z_HAT, X_HAT)
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


def w_margin(profile):
    """w0 (1/w1 + 1/w2 + 1/w3) - 1, the W family's violation margin.

    At p = q = r = pi/2 the reduced value is 4 and its Hessian is
    w0 J - diag(w1, w2, w3), which turns indefinite at a zero margin."""
    w = bell._w_weights(profile)
    return w[0] * (1.0 / w[1] + 1.0 / w[2] + 1.0 / w[3]) - 1.0


def test_a_w_family_state_violates_exactly_at_a_positive_margin():
    rng = np.random.default_rng(32)
    outcomes = set()
    for _ in range(100):
        profile = entanglement.w_profile_closed(random_w_params(rng))
        margin = w_margin(profile)
        if abs(margin) > 1e-6:
            violates = bell.smax_w(profile).closed_value > 4.0 + 1e-9
            assert violates == (margin > 0.0)
            outcomes.add(violates)
    assert outcomes == {True, False}


@pytest.mark.parametrize("c12, crossing", [
    (0.35, 1.4020614250), (0.45, 1.4470529402), (2 / 3, 1.4714201762)])
def test_each_fig_2_curve_crosses_4_at_its_zero_margin(c12, crossing):
    def profile(sum_c):
        return entanglement.w_profile_closed(
            optimize.w_params_for_sum(c12, sum_c))

    assert abs(w_margin(profile(crossing))) < 1e-9
    assert bell.smax_w(profile(crossing - 1e-3)).closed_value - 4.0 <= 1e-12
    assert bell.smax_w(profile(crossing + 1e-3)).closed_value - 4.0 > 1e-7


def record_minimize(monkeypatch):
    """Route bell.minimize through a wrapper that records each call."""
    calls = []
    real = bell.minimize

    def recording(fun, x0, **kwargs):
        calls.append((fun, np.array(x0)))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(bell, "minimize", recording)
    return calls


def test_smax_w_makes_one_minimize_call_from_the_seeded_starts(monkeypatch):
    calls = record_minimize(monkeypatch)
    bell.smax_w(w_sym_profile())
    assert len(calls) == 1
    # Start k is one draw of the seeded stream, ascended for each sign.
    blocks = calls[0][1].reshape(-1, 2, 3)
    assert blocks.shape[0] == bell._W_STARTS
    starts = np.random.default_rng(bell._W_SEED).uniform(
        0.0, math.pi, size=(bell._W_STARTS, 3))
    assert np.array_equal(blocks[:, 0], starts)
    assert np.array_equal(blocks[:, 1], starts)


def test_smax_w_batched_gradient_matches_central_differences(monkeypatch):
    calls = record_minimize(monkeypatch)
    rng = np.random.default_rng(37)
    profile = entanglement.w_profile_closed(random_w_params(rng))
    bell.smax_w(profile)
    objective = calls[0][0]

    def reduced(x):
        return bell.w_reduced_value(profile, *x)

    h = 1e-6
    for _ in range(5):
        x = rng.uniform(0.0, math.pi, size=6 * bell._W_STARTS)
        value, grad = objective(x)
        # Block 2k ascends <S> and block 2k + 1 ascends -<S>; the objective
        # is the negated sum.
        signs = np.tile([1.0, -1.0], bell._W_STARTS)
        blocks = x.reshape(-1, 3)
        assert value == pytest.approx(
            -sum(s * reduced(b) for s, b in zip(signs, blocks)), abs=1e-12)
        for s, b, g in zip(signs, blocks, grad.reshape(-1, 3)):
            central = [(reduced(b + h * e) - reduced(b - h * e)) / (2 * h)
                       for e in np.eye(3)]
            assert np.allclose(g, -s * np.array(central), rtol=0, atol=1e-7)


def test_the_cli_loads_scipy_only_when_smax_w_runs():
    # A fresh interpreter: this one has already imported scipy.
    code = """
import json, sys
import tribell, tribell.cli
tribell.cli.build_parser()
def scipy_modules():
    return sum(name.split(".")[0] == "scipy" for name in sys.modules)
before = scipy_modules()
from tribell import bell, entanglement, qcore
r3 = 3 ** -0.5
value = bell.smax_w(entanglement.w_profile_closed(
    qcore.WClassParams(r3, r3, r3))).closed_value
print(json.dumps([before, scipy_modules(), value]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after, value = json.loads(out)
    assert before == 0
    assert after > 0
    assert value == pytest.approx(W_SYM_MAX, abs=1e-9)


def test_smax_w_rejects_a_profile_off_the_d_0_w_family():
    rng = np.random.default_rng(43)

    def rotated_profile(d):
        # The canonical W-class state sqrt(d)|000> + sqrt(a)|001> +
        # sqrt(b)|010> + sqrt(c)|100> at a = b = 0.3, c = 0.4 - d.
        amps = np.zeros(8)
        amps[[0, 1, 2, 4]] = np.sqrt([d, 0.3, 0.3, 0.4 - d])
        return entanglement.entanglement_profile(qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rng) @ amps))

    # d = 0: the numeric profile of a rotated W-family state is accepted.
    family = qcore.WClassParams(*np.sqrt([0.3, 0.3, 0.4]))
    assert bell.smax_w(rotated_profile(0.0)).closed_value == pytest.approx(
        bell.smax_w(entanglement.w_profile_closed(family)).closed_value,
        abs=1e-9)
    # d = 0.1: tau is still 0, but the concurrence identity fails.
    profile = rotated_profile(0.1)
    assert abs(profile.tau) < 1e-12
    with pytest.raises(qcore.ValidationError, match="d = 0"):
        bell.smax_w(profile)
    # A nonzero tangle is rejected too.
    with pytest.raises(qcore.ValidationError, match="d = 0"):
        bell.smax_w(entanglement.ghz_profile_closed(
            qcore.GhzClassParams(math.pi / 4, math.pi / 2)))


def test_smax_w_settings_reach_the_reported_value(monkeypatch):
    rng = np.random.default_rng(41)
    for _ in range(20):
        params = random_w_params(rng)
        profile = entanglement.w_profile_closed(params)
        report = bell.smax_w(profile)
        assert bell.svetlichny_value(
            qcore.w_state(params), report.achieving_settings) == (
                pytest.approx(report.closed_value, abs=1e-12))
    # On a W profile the +<S> half wins.  sigma_y on party A negates <S>
    # at every setting in the x-z plane, so that state's reduced value has
    # the negated weights.  With them the -<S> half wins, and its settings
    # give that state the signed value <S> = -closed_value.
    weights = bell._w_weights(profile)
    monkeypatch.setattr(bell, "_w_weights", lambda _: -weights)
    flipped = bell.smax_w(profile)
    amps = np.einsum("ij,jkl->ikl", qcore.SIGMA_Y,
                     qcore.w_state(params).amplitudes.reshape(2, 2, 2))
    signed = qcore.expectation(
        qcore.ThreeQubitPureState(amps.ravel()),
        bell.bell_operators(flipped.achieving_settings)[0])
    assert flipped.closed_value == pytest.approx(report.closed_value,
                                                 abs=1e-12)
    assert signed == pytest.approx(-flipped.closed_value, abs=1e-12)


def test_optimal_settings_w_symmetric_structure():
    ms = w_sym_settings()
    expected = [math.cos(W_SYM_TILT), 0.0, math.sin(W_SYM_TILT)]
    for v in ms.vectors()[0::2]:
        assert np.allclose(v, expected, atol=1e-12)
    expected_prime = [math.cos(W_SYM_TILT), 0.0, -math.sin(W_SYM_TILT)]
    for v in ms.vectors()[1::2]:
        assert np.allclose(v, expected_prime, atol=1e-12)


def test_w_symmetric_mermin_below_svetlichny():
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    s_op, m_op, _ = bell.bell_operators(w_sym_settings())
    assert abs(qcore.expectation(w, m_op)) < abs(qcore.expectation(w, s_op))
