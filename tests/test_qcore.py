import math

import numpy as np
import pytest

from tribell import qcore


def test_make_state_basis():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.allclose(s.amplitudes, np.eye(8)[0])


def test_make_state_rejects_zero_vector():
    with pytest.raises(qcore.ValidationError):
        qcore.ThreeQubitPureState(np.zeros(8))


def test_make_state_rejects_bad_norm():
    with pytest.raises(qcore.ValidationError):
        qcore.ThreeQubitPureState([2, 0, 0, 0, 0, 0, 0, 0])


def test_make_state_rejects_wrong_shape():
    with pytest.raises(qcore.ValidationError):
        qcore.ThreeQubitPureState([1.0, 0.0])


def test_make_state_rejects_nonfinite():
    amps = np.zeros(8)
    amps[0] = np.nan
    with pytest.raises(qcore.ValidationError):
        qcore.ThreeQubitPureState(amps)


def test_ghz_state_standard():
    s = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert np.allclose(s.amplitudes, expected)


def test_ghz_state_product_limit():
    s = qcore.ghz_state(qcore.GhzClassParams(0.0, 1.0))
    assert np.allclose(s.amplitudes, np.eye(8)[0])


def test_ghz_state_biseparable():
    s = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, 0.0))
    expected = np.zeros(8)
    expected[0] = expected[6] = 1 / math.sqrt(2)
    assert np.allclose(s.amplitudes, expected)


def test_ghz_params_range():
    with pytest.raises(qcore.ValidationError):
        qcore.GhzClassParams(-0.5, 0.1)
    with pytest.raises(qcore.ValidationError):
        qcore.GhzClassParams(0.1, math.pi)


def test_w_state_amplitude_slots():
    r3 = 1 / math.sqrt(3)
    s = qcore.w_state(qcore.WClassParams(r3, r3, r3))
    expected = np.zeros(8)
    expected[[1, 2, 4]] = r3
    assert np.allclose(s.amplitudes, expected)


def test_w_params_validation():
    with pytest.raises(qcore.ValidationError):
        qcore.WClassParams(0.5, 0.5, 0.5)
    with pytest.raises(qcore.ValidationError):
        qcore.WClassParams(-1.0, 0.0, 0.0)


def test_spin_observable_pauli_axes():
    assert np.allclose(qcore.spin_observable([0.0, 0.0, 1.0]), qcore.SIGMA_Z)
    assert np.allclose(qcore.spin_observable([1.0, 0.0, 0.0]), qcore.SIGMA_X)
    assert np.allclose(qcore.spin_observable([0.0, 1.0, 0.0]), qcore.SIGMA_Y)


def test_spin_observable_unit_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        vals = qcore.herm_eig(qcore.spin_observable(n))[0]
        assert np.allclose(vals, [1.0, -1.0], atol=1e-12)


def test_unit_vector_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        n = qcore._directions(v)
        assert np.array_equal(n, v)
        polar, azimuth = qcore._angles(*n)
        assert 0.0 <= polar <= math.pi
        assert 0.0 <= azimuth < 2 * math.pi
        assert np.allclose(qcore._angle_components(polar, azimuth), v,
                           atol=1e-12)
    # atan2 gives -1e-17 here, which the modulo alone rounds up to 2 pi.
    assert qcore._angles(1.0, -1e-17, 0.0)[1] == 0.0


def test_unit_vector_rejects_zero():
    with pytest.raises(qcore.ValidationError):
        qcore._directions([0.0, 0.0, 0.0])


def test_unit_vector_rejects_bad_polar():
    for polar, azimuth in ((4.0, 0.0), (-0.1, 0.0), (math.nan, 0.0),
                           (math.inf, 0.0), (1.0, math.nan)):
        with pytest.raises(qcore.ValidationError):
            qcore._angle_components(polar, azimuth)


def test_unit_vector_rejects_off_unit_and_nonfinite_components():
    for components in ((1.0 + 1e-6, 0.0, 0.0), (0.6, 0.8, 1e-3),
                       (math.nan, 0.0, 1.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(qcore.ValidationError):
            qcore._directions(components)


@pytest.mark.parametrize("polar", [1e-9, math.pi - 1e-9, 0.3, math.pi / 2])
def test_unit_vector_polar_is_accurate_near_the_poles(polar):
    n = qcore._directions(qcore._angle_components(polar, 0.3))
    got_polar, got_azimuth = qcore._angles(*n)
    assert got_polar == pytest.approx(polar, rel=1e-6)
    assert got_azimuth == pytest.approx(0.3, rel=1e-6)


def test_angles_are_the_math_atan2_formulas_bit_for_bit():
    """The closed correlators read a direction's angles, of plain floats or
    of a checked row, by math.atan2 and math.hypot; numpy's arctan2 rounds
    differently in ~8% of cases."""
    rng = np.random.default_rng(33)
    v = rng.normal(size=(3000, 3))
    vectors = (v / np.linalg.norm(v, axis=1)[:, None]).tolist()
    vectors += [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, -1e-17, 0.0],
                [-1.0, -0.0, 0.0], [0.0, -1.0, 0.0]]
    for x, y, z in vectors:
        polar = math.atan2(math.hypot(x, y), z)
        azimuth = math.atan2(y, x) % (2 * math.pi)
        expected = (polar, azimuth if azimuth < 2 * math.pi else 0.0)
        n = qcore._directions([x, y, z])
        for got in (qcore._angles(x, y, z), qcore._angles(*n)):
            assert [a.hex() for a in got] == [a.hex() for a in expected]


def test_tensor3_identity():
    eye2 = np.eye(2, dtype=complex)
    assert np.allclose(qcore.tensor3(eye2, eye2, eye2), np.eye(8))


def test_tensor3_matches_nested_kron_exactly():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(3)]
        assert np.array_equal(qcore.tensor3(*ops),
                              np.kron(np.kron(ops[0], ops[1]), ops[2]))


def test_expectation_eigenstate():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    eye2 = np.eye(2, dtype=complex)
    op = qcore.tensor3(qcore.SIGMA_Z, eye2, eye2)
    assert qcore.expectation(s, op) == pytest.approx(1.0)


def test_expectation_ghz_cases():
    ghz = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    zzz = qcore.tensor3(qcore.SIGMA_Z, qcore.SIGMA_Z, qcore.SIGMA_Z)
    xxx = qcore.tensor3(qcore.SIGMA_X, qcore.SIGMA_X, qcore.SIGMA_X)
    assert qcore.expectation(ghz, zzz) == pytest.approx(0.0, abs=1e-12)
    assert qcore.expectation(ghz, xxx) == pytest.approx(1.0)


def test_expectation_rejects_non_hermitian():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    op = np.zeros((8, 8), dtype=complex)
    op[0, 0] = 1.0j
    with pytest.raises(qcore.ValidationError):
        qcore.expectation(s, op)


def test_expectation_bounded_for_spin_products():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = qcore.haar_random_state(rng)
        ops = [qcore.spin_observable(v / np.linalg.norm(v))
               for v in rng.normal(size=(3, 3))]
        value = qcore.expectation(s, qcore.tensor3(*ops))
        assert -1.0 - 1e-10 <= value <= 1.0 + 1e-10


def _unit_rows(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _haar_amplitudes(rng, shape):
    return np.reshape([qcore.haar_random_state(rng).amplitudes
                       for _ in range(int(np.prod(shape)))], shape + (8,))


@pytest.mark.parametrize("shape", [(7,), (3, 4)], ids=["1d", "2d"])
def test_stacked_spin_observable_tensor3_and_expectation_equal_each_alone(
        shape):
    rng = np.random.default_rng(41)
    dirs = _unit_rows(rng, shape + (3,))
    amps = _haar_amplitudes(rng, shape)
    factors = qcore.spin_observable(dirs)
    ops = qcore.tensor3(*np.moveaxis(factors, -3, 0))
    values = qcore.expectation(amps, ops)
    assert factors.shape == shape + (3, 2, 2)
    assert ops.shape == shape + (8, 8) and values.shape == shape
    for index in np.ndindex(shape):
        alone = [qcore.spin_observable(v.tolist()) for v in dirs[index]]
        assert np.array_equal(factors[index], np.stack(alone))
        op = qcore.tensor3(*alone)
        assert np.array_equal(ops[index], op)
        assert values[index] == qcore.expectation(
            qcore.ThreeQubitPureState(amps[index]), op)


def test_one_state_or_one_operator_broadcasts_against_a_stack():
    rng = np.random.default_rng(42)
    amps = _haar_amplitudes(rng, (5,))
    ops = qcore.tensor3(*np.moveaxis(qcore.spin_observable(
        _unit_rows(rng, (5, 3))), -3, 0))
    state = qcore.ThreeQubitPureState(amps[0])
    assert np.array_equal(qcore.expectation(state, ops),
                          [qcore.expectation(state, op) for op in ops])
    assert np.array_equal(qcore.expectation(amps, ops[0]), [
        qcore.expectation(qcore.ThreeQubitPureState(a), ops[0])
        for a in amps])
    assert type(qcore.expectation(state, ops[0])) is float


def test_expectation_rejects_a_nan_operator_alone_and_in_a_stack():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    op = np.full((8, 8), math.nan, dtype=complex)
    with pytest.raises(qcore.ValidationError, match="imaginary residue nan"):
        qcore.expectation(s, op)
    stack = np.stack([np.eye(8, dtype=complex)] * 4)
    stack[2, 5, 5] = math.nan
    with pytest.raises(qcore.ValidationError, match="not Hermitian"):
        qcore.expectation(np.stack([np.ones(8) / math.sqrt(8)] * 4), stack)


def test_a_stack_with_one_bad_direction_or_amplitude_is_rejected():
    rng = np.random.default_rng(43)
    dirs = _unit_rows(rng, (4, 6))
    for bad, match in ((math.nan, "must be finite"),
                       (math.inf, "must be finite"),
                       (dirs[2, 3, 0] + 1e-6, "has norm")):
        broken = dirs.copy()
        broken[2, 3, 0] = bad
        with pytest.raises(qcore.ValidationError, match=match):
            qcore.spin_observable(broken)
    amps = _haar_amplitudes(rng, (4,))
    op = np.eye(8, dtype=complex)
    for bad, match in ((math.nan, "must be finite"),
                       (complex(0.0, math.nan), "must be finite"),
                       (amps[1, 6] * 1.01, "deviates from 1")):
        broken = amps.copy()
        broken[1, 6] = bad
        with pytest.raises(qcore.ValidationError, match=match):
            qcore.expectation(broken, op)


def test_partial_trace_product_state():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    rho = qcore._reduced(s.amplitudes, (1, 2))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_partial_trace_ghz():
    ghz = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    rho = qcore._reduced(ghz.amplitudes, (1, 2))
    assert np.allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_partial_trace_rejects_bad_pair():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(qcore.ValidationError):
        qcore._reduced(s.amplitudes, (1, 4))


def test_partial_trace_density_properties():
    rng = np.random.default_rng(8)
    for _ in range(300):
        s = qcore.haar_random_state(rng)
        for keep in ((1, 2), (2, 3), (1, 3)):
            rho = qcore._reduced(s.amplitudes, keep)
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.min(qcore.herm_eig(rho)[0]) >= -1e-10


def test_index_convention_coherence():
    rng = np.random.default_rng(21)
    eye2 = np.eye(2, dtype=complex)
    for _ in range(50):
        s = qcore.haar_random_state(rng)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = (m + m.conj().T) / 2
        full = qcore.expectation(s, qcore.tensor3(obs, eye2, eye2))
        rho = qcore._reduced(s.amplitudes, (1,))
        reduced = float(np.trace(rho @ obs).real)
        assert full == pytest.approx(reduced, abs=1e-10)


def test_herm_eigenvalues_diagonal():
    vals = qcore.herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))[0]
    assert np.allclose(vals, [3.0, 2.0, 1.0])


def test_herm_eigenvalues_pauli_x():
    vals = qcore.herm_eig(qcore.SIGMA_X)[0]
    assert np.allclose(vals, [1.0, -1.0])


def test_herm_eigenvalues_ghz_reduced():
    ghz = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    vals = qcore.herm_eig(qcore._reduced(ghz.amplitudes, (1, 2)))[0]
    assert np.allclose(vals, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def _herm_eig_cases():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 8):
        for _ in range(60):
            m = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(
                -1.0, 1.0, size=(n, n))
            yield (m + m.conj().T) / 2
    # Degenerate spectra: all equal, the GHZ pair state {1/2, 1/2, 0, 0}
    # and the rank-2 pair state of a W-class state.
    yield np.eye(8, dtype=complex)
    ghz = qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    yield qcore._reduced(ghz.amplitudes, (1, 2))
    w = qcore.w_state(qcore.WClassParams(0.6, 0.64, 0.48))
    yield qcore._reduced(w.amplitudes, (1, 3))


def test_herm_eig_random_accuracy():
    for m in _herm_eig_cases():
        n = m.shape[0]
        vals, vecs = qcore.herm_eig(m)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.max(np.abs(m @ vecs - vecs * vals)) < 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-12
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) < 1e-12
        # Characteristic polynomial at each returned eigenvalue.
        for lam in vals:
            assert abs(np.linalg.det(m - lam * np.eye(n))) < 1e-8


def test_herm_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(qcore.ValidationError):
        qcore.herm_eig(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "imaginary-nan"])
def test_herm_eig_rejects_a_non_finite_entry(bad):
    m = np.diag([bad, 1.0]).astype(complex)
    stack = np.stack([qcore.SIGMA_X] * 3)
    stack[2] = m
    for matrices in (m, stack):
        with pytest.raises(qcore.ValidationError, match="non-finite"):
            qcore.herm_eig(matrices)


def test_herm_eig_rejects_oversized():
    with pytest.raises(qcore.ValidationError):
        qcore.herm_eig(np.eye(9, dtype=complex))


def test_haar_random_state_normalized():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = qcore.haar_random_state(rng)
        assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-12
