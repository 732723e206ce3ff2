"""Unit tests for the diagonal-Kraus measurement layer."""

import numpy as np
import pytest

from qfcontrol import OutcomeImpossible, QndMeasurement, photon_box
from qfcontrol.core import basis_state


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestConstruction:
    def test_photon_box_completeness(self):
        m = photon_box(8, 1 / 8, np.pi / 4)
        w = m.weights
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert m.m == 2 and m.dim == 8

    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            QndMeasurement(np.array([[1.0, 0.5], [0.1, 0.5]]))

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError):
            QndMeasurement(np.ones((1, 3)))


class TestOutcomes:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = photon_box(6, 0.2, 0.5)
        p = m.outcome_probabilities(random_density(rng, 6))
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_basis_states_invariant(self):
        m = photon_box(5, 0.3, 0.6)
        rho = basis_state(2, 5)
        for mu in range(2):
            assert np.allclose(m.apply_outcome(mu, rho), rho, atol=1e-12)

    def test_collapse_is_normalized(self):
        rng = np.random.default_rng(1)
        m = photon_box(6, 0.2, 0.5)
        rho = random_density(rng, 6)
        post = m.apply_outcome(0, rho)
        assert np.trace(post).real == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome_raises(self):
        m = photon_box(2, 0.0, np.pi / 2)  # c_{1,0} = sin(0) = 0
        with pytest.raises(OutcomeImpossible):
            m.apply_outcome(1, basis_state(0, 2))

    def test_sampling_deterministic_given_stream(self):
        rng1 = np.random.Generator(np.random.PCG64(7))
        rng2 = np.random.Generator(np.random.PCG64(7))
        m = photon_box(6, 0.2, 0.5)
        rho = np.eye(6, dtype=complex) / 6
        seq1 = [m.sample_outcome(rho, rng1).mu for _ in range(50)]
        seq2 = [m.sample_outcome(rho, rng2).mu for _ in range(50)]
        assert seq1 == seq2

    def test_sampling_matches_probabilities(self):
        rng = np.random.default_rng(3)
        m = photon_box(4, 0.4, 0.8)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        p = m.outcome_probabilities(rho)
        draws = np.array([m.sample_outcome(rho, rng).mu for _ in range(4000)])
        assert np.mean(draws == 0) == pytest.approx(p[0], abs=0.03)

    def test_stack_with_a_nan_state_is_rejected(self):
        """A NaN total must fail the probability check, not pass it as NaN > tol does."""
        rng = np.random.default_rng(3)
        m = photon_box(4, 0.2, 0.5)
        rho = np.stack([random_density(rng, 4) for _ in range(3)])
        rho[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="sum to nan"):
            m.sample_outcomes(rho, rng.random(3))
        with pytest.raises(ValueError, match="sum to nan"):
            m.outcome_probabilities(rho[1])


class TestMartingale:
    def test_diagonal_observable_is_martingale(self):
        rng = np.random.default_rng(4)
        m = photon_box(7, 0.15, 0.45)
        a = np.diag(rng.normal(size=7)).astype(complex)
        for _ in range(20):
            rho = random_density(rng, 7)
            before = np.trace(a @ rho).real
            after = m.expected_update(rho, lambda post: np.trace(a @ post).real)
            assert after == pytest.approx(before, abs=1e-12)

    def test_expected_update_of_constant_is_constant(self):
        rng = np.random.default_rng(5)
        m = photon_box(5, 0.3, 0.6)
        rho = random_density(rng, 5)
        assert m.expected_update(rho, lambda _: 1.0) == pytest.approx(1.0)


class TestDistinguishability:
    def test_quarter_pi_has_period_pairs(self):
        m = photon_box(8, 1 / 8, np.pi / 4)
        assert m.check_distinguishability() == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_tenth_pi_is_distinguishable(self):
        m = photon_box(8, 1 / 8, np.pi / 10)
        assert m.check_distinguishability() == []


class TestSerialization:
    def test_round_trip(self):
        m = photon_box(5, 0.3, 0.6)
        m2 = QndMeasurement.from_json(m.to_json())
        assert np.allclose(m2.coeffs, m.coeffs)

    def test_photon_box_shorthand(self):
        m = QndMeasurement.from_json(
            {"photon_box": {"n": 8, "phi0": 0.125, "theta": np.pi / 4}}
        )
        assert np.allclose(m.coeffs, photon_box(8, 0.125, np.pi / 4).coeffs)
