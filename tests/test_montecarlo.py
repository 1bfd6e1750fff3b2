import math

import numpy as np
import pytest

from tribell import bell, montecarlo, qcore


R2 = math.sqrt(2.0)
R3 = 1 / math.sqrt(3)
W_SYM_TILT = math.acos(1 / math.sqrt(3))


def ghz():
    return qcore.ghz_state(qcore.GhzClassParams(math.pi / 4, math.pi / 2))


def w_sym_settings():
    return bell.settings_from_w_angles(W_SYM_TILT, W_SYM_TILT, W_SYM_TILT)


def random_unit(rng):
    v = rng.normal(size=3)
    return qcore.UnitVector(*(v / np.linalg.norm(v)))


def test_svetlichny_terms_match_operator():
    rng = np.random.default_rng(50)
    for _ in range(25):
        s = qcore.haar_random_state(rng)
        ms = bell.settings_from_vectors(
            [v / np.linalg.norm(v) for v in rng.normal(size=(6, 3))])
        a, b, c = (ms.a, ms.a_prime), (ms.b, ms.b_prime), (ms.c, ms.c_prime)
        total = 0.0
        for x, y, z in np.ndindex(2, 2, 2):
            op = qcore.tensor3(*(qcore.spin_observable(v)
                                 for v in (a[x], b[y], c[z])))
            total += bell.SVETLICHNY_SIGNS[x, y, z] * qcore.expectation(s, op)
        direct = qcore.expectation(s, bell.bell_operators(ms)[0])
        assert total == pytest.approx(direct, abs=1e-10)


def test_outcome_distribution_product_state():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    probs = montecarlo.outcome_distribution(s, qcore.Z_HAT, qcore.Z_HAT,
                                            qcore.Z_HAT)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(probs, expected, atol=1e-12)


def test_outcome_distribution_ghz():
    probs = montecarlo.outcome_distribution(ghz(), qcore.Z_HAT, qcore.Z_HAT,
                                            qcore.Z_HAT)
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert np.allclose(probs, expected, atol=1e-12)


def test_outcome_distribution_reproduces_correlator():
    rng = np.random.default_rng(51)
    for _ in range(30):
        s = qcore.haar_random_state(rng)
        dirs = [random_unit(rng) for _ in range(3)]
        probs = montecarlo.outcome_distribution(s, *dirs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        mean = float(probs @ montecarlo._OUTCOME_PRODUCTS)
        tensor = bell.correlation_tensor(s)
        assert mean == pytest.approx(np.einsum(
            "ijk,i,j,k->", tensor, *(d.cartesian for d in dirs)), abs=1e-10)


def test_outcome_distribution_marginal_consistency():
    rng = np.random.default_rng(52)
    for _ in range(20):
        s = qcore.haar_random_state(rng)
        a, b, c = (random_unit(rng) for _ in range(3))
        probs = montecarlo.outcome_distribution(s, a, b, c).reshape(2, 2, 2)
        marginal = probs.sum(axis=2)
        rho = qcore.partial_trace(s, (1, 2))
        for i, ra in enumerate((1.0, -1.0)):
            for j, rb in enumerate((1.0, -1.0)):
                proj = np.kron(
                    (qcore.IDENTITY_2 + ra * qcore.spin_observable(a)) / 2,
                    (qcore.IDENTITY_2 + rb * qcore.spin_observable(b)) / 2)
                expected = float(np.trace(rho @ proj).real)
                assert marginal[i, j] == pytest.approx(expected, abs=1e-10)


def test_outcome_distribution_matches_the_projector_oracle():
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = qcore.haar_random_state(rng)
        dirs = [random_unit(rng) for _ in range(3)]
        pairs = [[(qcore.IDENTITY_2 + r * qcore.spin_observable(d)) / 2
                  for r in (1.0, -1.0)] for d in dirs]
        # Outcome index 4*i1 + 2*i2 + i3, with i = 0 for the +1 result.
        expected = [qcore.expectation(s, qcore.tensor3(
            pairs[0][i], pairs[1][j], pairs[2][k]))
            for i, j, k in np.ndindex(2, 2, 2)]
        probs = montecarlo.outcome_distribution(s, *dirs)
        assert np.allclose(probs, expected, rtol=0.0, atol=1e-14)


def test_estimate_correlator_deterministic_outcome():
    s = qcore.ThreeQubitPureState([1, 0, 0, 0, 0, 0, 0, 0])
    est = montecarlo.estimate_correlator(s, qcore.Z_HAT, qcore.Z_HAT,
                                         qcore.Z_HAT, shots=1000, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_estimate_correlator_seed_reproducible():
    rng = np.random.default_rng(53)
    s = qcore.haar_random_state(rng)
    dirs = [random_unit(rng) for _ in range(3)]
    first = montecarlo.estimate_correlator(s, *dirs, shots=5000, seed=11)
    second = montecarlo.estimate_correlator(s, *dirs, shots=5000, seed=11)
    assert first == second
    third = montecarlo.estimate_correlator(s, *dirs, shots=5000, seed=12)
    assert third.mean != first.mean or third.stderr != first.stderr


def test_estimate_correlator_ghz_xxx():
    est = montecarlo.estimate_correlator(ghz(), qcore.X_HAT, qcore.X_HAT,
                                         qcore.X_HAT, shots=100_000, seed=1)
    # The exact correlator is 1; a Born sample can only undershoot.
    assert est.mean <= 1.0
    assert abs(est.mean - 1.0) <= 5.0 * max(est.stderr, 1e-6)


def test_estimate_correlator_single_shot():
    est = montecarlo.estimate_correlator(ghz(), qcore.X_HAT, qcore.Z_HAT,
                                         qcore.Z_HAT, shots=1, seed=2)
    assert est.mean in (-1.0, 1.0)
    assert est.stderr == 1.0


def test_estimate_correlator_rejects_zero_shots():
    with pytest.raises(qcore.ValidationError):
        montecarlo.estimate_correlator(ghz(), qcore.X_HAT, qcore.X_HAT,
                                       qcore.X_HAT, shots=0, seed=0)


def test_estimate_correlator_matches_the_expanded_samples():
    # Expand each draw's counts into the explicit +-1 array the closed forms
    # stand for, and take its mean and standard error the long way.
    rng = np.random.default_rng(54)
    for shots in (2, 3, 17, 1000):
        for seed in range(5):
            s = qcore.haar_random_state(rng)
            dirs = [random_unit(rng) for _ in range(3)]
            probs = montecarlo.outcome_distribution(s, *dirs)
            counts = np.random.default_rng(seed).multinomial(
                shots, probs / probs.sum())
            samples = np.repeat(montecarlo._OUTCOME_PRODUCTS, counts)
            est = montecarlo.estimate_correlator(s, *dirs, shots=shots,
                                                 seed=seed)
            assert est.shots == shots and est.seed == seed
            assert est.mean == pytest.approx(samples.mean(), rel=1e-15,
                                             abs=0.0)
            assert est.stderr == pytest.approx(
                samples.std(ddof=1) / math.sqrt(shots), rel=1e-15, abs=0.0)


def test_estimate_correlator_renormalises_the_distribution(monkeypatch):
    # The sum passes outcome_distribution's 1e-10 check, but its first seven
    # entries exceed 1 by more than numpy's multinomial tolerates.
    probs = np.zeros(8)
    probs[0], probs[6] = 0.5 + 5e-11, 0.5
    monkeypatch.setattr(montecarlo, "outcome_distribution",
                        lambda *args: probs)
    est = montecarlo.estimate_correlator(ghz(), qcore.Z_HAT, qcore.Z_HAT,
                                         qcore.Z_HAT, shots=1000, seed=0)
    # Outcomes 0 and 6 both have an even number of -1 results.
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_estimate_correlator_takes_huge_shot_counts():
    dirs = (qcore.X_HAT, qcore.Z_HAT, qcore.Z_HAT)
    est = montecarlo.estimate_correlator(ghz(), *dirs, shots=10 ** 15,
                                         seed=7)
    # The exact correlator is 0, so the stderr is close to 1/sqrt(N).
    assert 0.0 < est.stderr <= 1e-7
    assert abs(est.mean) <= 5.0 * est.stderr
    most = montecarlo.estimate_correlator(ghz(), *dirs, shots=2 ** 63 - 1,
                                          seed=7)
    assert most.shots == 2 ** 63 - 1
    assert abs(most.mean) <= 5.0 * most.stderr
    with pytest.raises(qcore.ValidationError):
        montecarlo.estimate_correlator(ghz(), *dirs, shots=2 ** 63, seed=7)


def test_estimate_svetlichny_ghz():
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    ms = bell.optimal_settings_ghz(params)
    est = montecarlo.estimate_svetlichny(ghz(), ms,
                                         shots_per_correlator=100_000, seed=3)
    assert abs(abs(est.mean) - 4.0 * R2) <= 5.0 * est.stderr


def test_estimate_svetlichny_w_symmetric():
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    ms = w_sym_settings()
    exact = bell.svetlichny_value(w, ms)
    est = montecarlo.estimate_svetlichny(w, ms,
                                         shots_per_correlator=100_000, seed=4)
    assert abs(abs(est.mean) - exact) <= 5.0 * est.stderr


def test_estimate_svetlichny_deterministic():
    ms = w_sym_settings()
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    first = montecarlo.estimate_svetlichny(w, ms, 2000, seed=5)
    second = montecarlo.estimate_svetlichny(w, ms, 2000, seed=5)
    assert first == second


def test_estimate_svetlichny_single_shot_well_formed():
    ms = w_sym_settings()
    w = qcore.w_state(qcore.WClassParams(R3, R3, R3))
    est = montecarlo.estimate_svetlichny(w, ms, 1, seed=6)
    # Eight +-1 outcomes combined with unit signs give an even integer.
    assert est.mean == pytest.approx(round(est.mean))
    assert est.stderr == pytest.approx(math.sqrt(8.0))


def test_estimate_scaling_no_systematic_bias():
    params = qcore.GhzClassParams(math.pi / 4, math.pi / 2)
    ms = bell.optimal_settings_ghz(params)
    exact = 4.0 * R2
    for shots in (1000, 10_000, 100_000):
        scaled = []
        for seed in range(10):
            est = montecarlo.estimate_svetlichny(ghz(), ms, shots, seed=seed)
            scaled.append((abs(est.mean) - exact) * math.sqrt(shots))
        # Scaled deviations stay bounded by a few combined shot noises.
        assert abs(np.mean(scaled)) < 5.0 * math.sqrt(8.0)


def test_shot_estimate_validation():
    with pytest.raises(qcore.ValidationError):
        montecarlo.ShotEstimate(mean=0.0, stderr=-1.0, shots=10, seed=0)
    with pytest.raises(qcore.ValidationError):
        montecarlo.ShotEstimate(mean=0.0, stderr=0.0, shots=0, seed=0)
