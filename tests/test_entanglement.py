import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tribell import cli, entanglement, qcore


R3 = 1 / math.sqrt(3)


def ghz(theta=math.pi / 4, theta3=math.pi / 2):
    return qcore.ghz_state(qcore.GhzClassParams(theta, theta3))


def w_sym():
    return qcore.w_state(qcore.WClassParams(R3, R3, R3))


def random_ghz_params(rng):
    return qcore.GhzClassParams(*rng.uniform(0.0, math.pi / 2, size=2))


def random_w_params(rng):
    amps = np.abs(rng.normal(size=3))
    amps /= np.linalg.norm(amps)
    return qcore.WClassParams(*amps)


def test_concurrence_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert entanglement.concurrence_two_qubit(rho) == 0.0


def test_concurrence_ghz_reduced():
    rho = qcore._reduced(ghz().amplitudes, (1, 2))
    assert entanglement.concurrence_two_qubit(rho) == pytest.approx(
        0.0, abs=1e-10)


def test_concurrence_w_reduced():
    rho = qcore._reduced(w_sym().amplitudes, (1, 2))
    assert entanglement.concurrence_two_qubit(rho) == pytest.approx(
        2.0 / 3.0, abs=1e-10)


def test_concurrence_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    rho = np.outer(psi, psi).astype(complex)
    assert entanglement.concurrence_two_qubit(rho) == pytest.approx(1.0)


def test_concurrence_rejects_non_density():
    with pytest.raises(qcore.ValidationError):
        entanglement.concurrence_two_qubit(np.eye(4, dtype=complex))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(qcore.ValidationError):
        entanglement.concurrence_two_qubit(bad)
    stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
    stack[1, 0, 1] = 1e-9
    with pytest.raises(qcore.ValidationError, match="not Hermitian"):
        entanglement.concurrence_two_qubit(stack)


@pytest.mark.parametrize("bad", [
    np.diag([np.nan, 1.0, 0.0, 0.0]), np.full((4, 4), np.nan),
    np.diag([np.inf, 1.0, 0.0, 0.0])], ids=["one-nan", "all-nan", "inf"])
def test_concurrence_rejects_a_non_finite_density_matrix(bad):
    bad = bad.astype(complex)
    stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
    stack[1] = bad
    for rho in (bad, stack):
        with pytest.raises(qcore.ValidationError, match="non-finite"):
            entanglement._check_density(rho)
        with pytest.raises(qcore.ValidationError, match="non-finite"):
            entanglement.concurrence_two_qubit(rho)


def _reduced_pairs(rng, n):
    """4x4 reduced states of Haar, rotated W and GHZ-class states, and of a
    product state, over all three pairs."""
    states = [qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])]
    for _ in range(n):
        states += [
            qcore.haar_random_state(rng),
            qcore.ThreeQubitPureState(qcore.haar_local_unitary(rng)
                                      @ qcore.w_state(random_w_params(rng))
                                      .amplitudes),
            qcore.ghz_state(random_ghz_params(rng))]
    return np.stack([qcore._reduced(s.amplitudes, keep) for s in states
                     for keep in ((1, 2), (2, 3), (1, 3))])


def test_a_stacked_concurrence_equals_each_matrix_alone():
    rhos = _reduced_pairs(np.random.default_rng(25), 20)
    stacked = entanglement.concurrence_two_qubit(rhos)
    alone = [entanglement.concurrence_two_qubit(rho) for rho in rhos]
    assert all(type(c) is float for c in alone)
    assert stacked.shape == (len(rhos),) and stacked.tolist() == alone
    assert np.array_equal(
        entanglement.concurrence_two_qubit(rhos.reshape(3, -1, 4, 4)),
        stacked.reshape(3, -1))


def test_a_stacked_herm_eig_equals_each_matrix_alone():
    rng = np.random.default_rng(26)
    z = rng.normal(size=(30, 8, 8)) + 1j * rng.normal(size=(30, 8, 8))
    for stack in (_reduced_pairs(rng, 10), z + z.conj().swapaxes(1, 2)):
        vals, vecs = qcore.herm_eig(stack)
        for m, m_vals, m_vecs in zip(stack, vals, vecs):
            alone_vals, alone_vecs = qcore.herm_eig(m)
            assert np.array_equal(m_vals, alone_vals)
            assert np.array_equal(m_vecs, alone_vecs)


def test_profiles_of_a_batch_equal_the_profiles_one_at_a_time():
    rng = np.random.default_rng(27)
    states = [qcore.haar_random_state(rng) for _ in range(150)]
    states += [qcore.ThreeQubitPureState(
        qcore.haar_local_unitary(rng) @ qcore.w_state(
            random_w_params(rng)).amplitudes) for _ in range(60)]
    states += [qcore.ghz_state(random_ghz_params(rng)) for _ in range(38)]
    states += [qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0]),
               ghz(math.pi / 4, 0.0)]
    rng.shuffle(states)
    assert len(states) == 250 > 2 * entanglement.PROFILE_SLICE
    batched = list(entanglement.entanglement_profiles(states))
    assert len(batched) == len(states)
    for profile, state in zip(batched, states):
        alone = entanglement.entanglement_profile(state)
        for field in dataclasses.fields(alone):
            assert getattr(profile, field.name) == getattr(alone, field.name)


def test_profiles_stream_from_any_iterable_a_slice_at_a_time():
    rng = np.random.default_rng(28)
    drawn = []

    def draws(n):
        for _ in range(n):
            drawn.append(qcore.haar_random_state(rng))
            yield drawn[-1]

    profiles = entanglement.entanglement_profiles(
        draws(2 * entanglement.PROFILE_SLICE + 1))
    first = next(profiles)
    assert len(drawn) == entanglement.PROFILE_SLICE
    rest = list(profiles)
    assert len(drawn) == len(rest) + 1 == 2 * entanglement.PROFILE_SLICE + 1
    assert [first] + rest == [entanglement.entanglement_profile(s)
                              for s in drawn]


def test_profiles_of_amplitude_vectors_equal_the_profiles_of_their_states():
    rng = np.random.default_rng(29)
    amplitudes = [qcore.haar_random_state(rng).amplitudes for _ in range(130)]
    amplitudes += [qcore.haar_local_unitary(rng) @ qcore.w_state(
        random_w_params(rng)).amplitudes for _ in range(50)]
    amplitudes += [qcore.ghz_state(random_ghz_params(rng)).amplitudes
                   for _ in range(30)]
    rng.shuffle(amplitudes)
    assert len(amplitudes) > 2 * entanglement.PROFILE_SLICE
    states = [qcore.ThreeQubitPureState(a) for a in amplitudes]
    expected = list(entanglement.entanglement_profiles(states))
    # Plain arrays, lists, and states and arrays mixed within one slice.
    assert list(entanglement.entanglement_profiles(amplitudes)) == expected
    assert list(entanglement.entanglement_profiles(
        a.tolist() for a in amplitudes)) == expected
    mixed = [s if k % 3 else s.amplitudes for k, s in enumerate(states)]
    assert list(entanglement.entanglement_profiles(mixed)) == expected


@pytest.mark.parametrize("position", [0, 57, 99])
def test_profiles_reject_a_bad_amplitude_vector_inside_a_slice(position):
    rng = np.random.default_rng(30)
    amplitudes = [qcore.haar_random_state(rng).amplitudes
                  for _ in range(entanglement.PROFILE_SLICE)]
    for bad, match in ((1.01 * amplitudes[position], "deviates from 1"),
                       (np.full(8, math.nan), "must be finite")):
        items = list(amplitudes)
        items[position] = bad
        with pytest.raises(qcore.ValidationError, match=match):
            list(entanglement.entanglement_profiles(items))
    # An item that is itself a stack, or a bare number, is no state.
    for bad in (np.stack(amplitudes[:2]), 1.0):
        with pytest.raises(qcore.ValidationError):
            list(entanglement.entanglement_profiles([bad]))


def test_profiles_reject_an_amplitude_vector_of_the_wrong_length_in_a_mixed_slice():
    short = np.ones(7) / math.sqrt(7)
    for items in ([short], [ghz().amplitudes, short],
                  [short, ghz().amplitudes]):
        with pytest.raises(qcore.ValidationError,
                           match="state needs exactly 8 amplitudes"):
            list(entanglement.entanglement_profiles(items))


def test_the_monogamy_suite_needs_memory_that_does_not_grow_with_its_states():
    def peak(n_haar):
        rng, rotations = np.random.default_rng(0), np.random.default_rng(1)
        tracemalloc.start()
        try:
            for _ in cli._monogamy_cases(rng, rotations, n_haar, 0):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The first pass also pays one-off costs, such as numpy's caches.
    peak(100)
    one_slice = peak(100)
    assert peak(1000) <= 1.2 * one_slice


@pytest.mark.parametrize("p", [0.2, 1 / 3, 0.5, 0.9])
def test_concurrence_werner_state(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    rho = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    assert entanglement.concurrence_two_qubit(rho) == pytest.approx(
        max(0.0, (3 * p - 1) / 2), abs=1e-12)


def _textbook_concurrence(rho):
    """sqrt of the eigenvalues of rho (sy x sy) rho* (sy x sy), by a
    general (non-Hermitian) eigensolver."""
    flip = np.kron(qcore.SIGMA_Y, qcore.SIGMA_Y)
    eigs = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lams = np.sort(np.sqrt(np.maximum(eigs.real, 0.0)))[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def test_concurrence_random_full_rank_vs_textbook():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert np.linalg.eigvalsh(rho)[0] > 1e-6
        assert entanglement.concurrence_two_qubit(rho) == pytest.approx(
            _textbook_concurrence(rho), abs=1e-10)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(30):
        s = qcore.haar_random_state(rng)
        rho = qcore._reduced(s.amplitudes, (1, 2))
        # U1 x U2 x U3 on the state is (U1 x U2) rho (U1 x U2)^dagger on rho.
        rotated = qcore._reduced(qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rng) @ s.amplitudes).amplitudes, (1, 2))
        assert entanglement.concurrence_two_qubit(rotated) == pytest.approx(
            entanglement.concurrence_two_qubit(rho), abs=1e-8)


def test_bipartition_product():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    assert entanglement.entanglement_profile(s).c1_23 == pytest.approx(0.0)


def test_bipartition_ghz():
    assert entanglement.entanglement_profile(ghz()).c1_23 == pytest.approx(
        1.0)


def test_bipartition_w_symmetric():
    expected = math.sqrt(8.0) / 3.0
    profile = entanglement.entanglement_profile(w_sym())
    for cut in (profile.c1_23, profile.c2_13, profile.c3_12):
        assert cut == pytest.approx(expected, abs=1e-12)


def test_bipartition_rejects_bad_label():
    with pytest.raises(qcore.ValidationError):
        entanglement._cut_concurrences(ghz().amplitudes[None], 4)


def test_three_tangle_ghz():
    assert entanglement.entanglement_profile(ghz()).tau == pytest.approx(
        1.0, abs=1e-10)


def test_three_tangle_w_class_vanishes():
    rng = np.random.default_rng(6)
    for _ in range(50):
        s = qcore.w_state(random_w_params(rng))
        assert entanglement.entanglement_profile(s).tau <= 1e-9


def test_three_tangle_product():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    assert entanglement.entanglement_profile(s).tau == pytest.approx(
        0.0, abs=1e-12)


def test_profile_ghz():
    p = entanglement.entanglement_profile(ghz())
    assert p.tau == pytest.approx(1.0, abs=1e-10)
    assert p.c12 == pytest.approx(0.0, abs=1e-10)
    assert p.c23 == pytest.approx(0.0, abs=1e-10)
    assert p.c31 == pytest.approx(0.0, abs=1e-10)


def test_profile_w_symmetric():
    p = entanglement.entanglement_profile(w_sym())
    for c in (p.c12, p.c23, p.c31):
        assert c == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert abs(p.monogamy_residual) < 1e-9


def test_profile_product_all_zero():
    p = entanglement.entanglement_profile(
        qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0]))
    assert p.tau == 0.0
    assert p.c12 == p.c23 == p.c31 == 0.0


def test_ghz_profile_closed_examples():
    p = entanglement.ghz_profile_closed(
        qcore.GhzClassParams(math.pi / 4, math.pi / 2))
    assert p.tau == pytest.approx(1.0)
    assert p.c12 == pytest.approx(0.0, abs=1e-12)
    p = entanglement.ghz_profile_closed(qcore.GhzClassParams(math.pi / 4, 0.0))
    assert p.tau == pytest.approx(0.0, abs=1e-12)
    assert p.c12 == pytest.approx(1.0)
    p = entanglement.ghz_profile_closed(qcore.GhzClassParams(0.0, 0.7))
    assert p.tau == p.c12 == 0.0


def test_w_profile_closed_examples():
    p = entanglement.w_profile_closed(qcore.WClassParams(R3, R3, R3))
    for c in (p.c12, p.c23, p.c31):
        assert c == pytest.approx(2.0 / 3.0)
    p = entanglement.w_profile_closed(qcore.WClassParams(1.0, 0.0, 0.0))
    assert p.c12 == p.c23 == p.c31 == 0.0
    r2 = 1 / math.sqrt(2)
    # gamma = 0 leaves qubit 3 in |0>, so qubits 2 and 3 share the Bell pair.
    p = entanglement.w_profile_closed(qcore.WClassParams(r2, r2, 0.0))
    assert p.c23 == pytest.approx(1.0)
    assert p.c12 == p.c31 == 0.0


def _assert_profiles_agree(closed, numeric):
    # The pair concurrences and tau are linear in roundoff; the bipartition
    # fields are not, since c3_12 = sqrt(tau) amplifies it near tau = 0.
    for field in ("tau", "c12", "c23", "c31"):
        assert getattr(closed, field) == pytest.approx(
            getattr(numeric, field), abs=1e-12)
    for field in ("c1_23", "c2_13", "c3_12"):
        assert getattr(closed, field) == pytest.approx(
            getattr(numeric, field), abs=1e-8)


def test_closed_vs_numeric_ghz_family():
    rng = np.random.default_rng(13)
    for _ in range(150):
        params = random_ghz_params(rng)
        closed = entanglement.ghz_profile_closed(params)
        numeric = entanglement.entanglement_profile(qcore.ghz_state(params))
        _assert_profiles_agree(closed, numeric)


def test_closed_vs_numeric_w_family():
    rng = np.random.default_rng(14)
    for _ in range(150):
        params = random_w_params(rng)
        closed = entanglement.w_profile_closed(params)
        numeric = entanglement.entanglement_profile(qcore.w_state(params))
        _assert_profiles_agree(closed, numeric)


def test_monogamy_on_random_states():
    rng = np.random.default_rng(15)
    for _ in range(500):
        p = entanglement.entanglement_profile(qcore.haar_random_state(rng))
        assert p.monogamy_residual >= -1e-9


def test_monogamy_saturated_by_w_class():
    rng = np.random.default_rng(16)
    for _ in range(150):
        p = entanglement.entanglement_profile(
            qcore.w_state(random_w_params(rng)))
        assert abs(p.monogamy_residual) < 1e-9


def test_tau_permutation_invariance():
    rng = np.random.default_rng(18)
    for _ in range(100):
        s = qcore.haar_random_state(rng)
        p = entanglement.entanglement_profile(s)
        taus = [p.c1_23 ** 2 - p.c12 ** 2 - p.c31 ** 2,
                p.c2_13 ** 2 - p.c12 ** 2 - p.c23 ** 2,
                p.c3_12 ** 2 - p.c31 ** 2 - p.c23 ** 2]
        assert max(taus) - min(taus) < 1e-8
        assert p.tau == max(0.0, taus[0])


def test_profile_of_w_states_in_a_rotated_local_basis():
    rng = np.random.default_rng(19)
    failures = []
    for k in range(200):
        params = random_w_params(rng)
        rotated = qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rng) @ qcore.w_state(params).amplitudes)
        closed = entanglement.w_profile_closed(params)
        try:
            numeric = entanglement.entanglement_profile(rotated)
        except qcore.ValidationError as exc:
            failures.append((k, str(exc)))
            continue
        errors = [numeric.tau] + [
            abs(getattr(numeric, pair) - getattr(closed, pair))
            for pair in ("c12", "c23", "c31")]
        if max(errors) > 1e-12:
            failures.append((k, max(errors)))
    assert not failures, f"{len(failures)} of 200 states: {failures[:3]}"
