import math

import numpy as np
import pytest

from tribell import entanglement, qcore


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
    rho = qcore.partial_trace(ghz(), (1, 2))
    assert entanglement.concurrence_two_qubit(rho) == pytest.approx(
        0.0, abs=1e-10)


def test_concurrence_w_reduced():
    rho = qcore.partial_trace(w_sym(), (1, 2))
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
        rho = qcore.partial_trace(s, (1, 2))
        # U1 x U2 x U3 on the state is (U1 x U2) rho (U1 x U2)^dagger on rho.
        rotated = qcore.partial_trace(qcore.ThreeQubitPureState(
            qcore.haar_local_unitary(rng) @ s.amplitudes), (1, 2))
        assert entanglement.concurrence_two_qubit(rotated) == pytest.approx(
            entanglement.concurrence_two_qubit(rho), abs=1e-8)


def test_bipartition_product():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    assert entanglement.concurrence_bipartition(s, 1) == pytest.approx(0.0)


def test_bipartition_ghz():
    assert entanglement.concurrence_bipartition(ghz(), 1) == pytest.approx(1.0)


def test_bipartition_w_symmetric():
    expected = math.sqrt(8.0) / 3.0
    assert entanglement.concurrence_bipartition(w_sym(), 1) == pytest.approx(
        expected, abs=1e-12)


def test_bipartition_rejects_bad_label():
    with pytest.raises(qcore.ValidationError):
        entanglement.concurrence_bipartition(ghz(), 4)


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
