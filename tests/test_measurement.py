"""Unit tests for the diagonal-Kraus measurement layer."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcontrol import OutcomeImpossible, QndMeasurement, photon_box
from qfcontrol.measurement import P_FLOOR
from qfcontrol.core import basis_state, density_violations
from qfcontrol.simulate import _ClosedForm
from helpers import (collapse_by_division, expected_update, random_density,
                     random_measurement, random_mixed_density, sample_and_collapse)


def unclamped_probabilities(meas, rho):
    """sum_n |c[mu, n]|^2 rho_nn for a stack, as QndMeasurement.sample takes them."""
    return (rho.diagonal(axis1=1, axis2=2).real[:, None, :] * meas.weights).sum(axis=-1)


def sample(meas, rho, rng):
    """One outcome for the single state rho, drawn from rng by sample_and_collapse."""
    stack = rho[None]
    return int(sample_and_collapse(meas, stack, unclamped_probabilities(meas, stack),
                                   rng.random(1))[0][0])


class TestConstruction:
    def test_photon_box_completeness(self):
        m = photon_box(8, 1 / 8, np.pi / 4)
        w = m.weights
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert m.m == 2 and m.dim == 8

    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            QndMeasurement(np.array([[1.0, 0.5], [0.1, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        """A NaN column sum fails the completeness check; it compares False with any tol."""
        coeffs = photon_box(4, 0.125, 0.3).coeffs.copy()
        coeffs[0, 1] = bad
        with pytest.raises(ValueError, match="completeness violated"):
            QndMeasurement(coeffs)

    @pytest.mark.parametrize("phi0, theta", [(0.125, np.nan), (0.125, np.inf), (-np.inf, 0.3)])
    def test_non_finite_photon_box_rejected(self, phi0, theta):
        """Refused by name, before cos and sin would warn on an infinite phase."""
        with pytest.raises(ValueError, match="phi0 and theta must be finite"):
            photon_box(4, phi0, theta)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_photon_box_dimension_must_be_an_integer(self, n):
        """Refused by name, where np.arange(2.5) would build 3 levels."""
        with pytest.raises(ValueError, match=f"n is {n!r}, but must be an integer"):
            photon_box(n, 0.125, 0.3)

    @pytest.mark.parametrize("phi0, theta, name, value", [
        (True, 0.3, "photon_box.phi0", "True"),
        (0.125, np.True_, "photon_box.theta", "np.True_"),
        (0.125, "0.3", "photon_box.theta", "'0.3'"),
        ("0.125", 0.3, "photon_box.phi0", "'0.125'"),
    ], ids=["phi0-true", "theta-numpy-true", "theta-string", "phi0-string"])
    def test_photon_box_angles_must_be_numbers(self, phi0, theta, name, value):
        """Refused by the name a config gives, where a bool would run as 0 or 1
        and a string would fail inside NumPy with a bare TypeError."""
        message = f"^{re.escape(name)} is {re.escape(value)}, but must be a number$"
        with pytest.raises(ValueError, match=message):
            photon_box(4, phi0, theta)

    def test_photon_box_takes_numpy_and_integer_angles(self):
        assert np.array_equal(photon_box(4, np.float64(0.125), 1).coeffs,
                              photon_box(4, 0.125, 1.0).coeffs)

    def test_photon_box_needs_two_levels(self):
        with pytest.raises(ValueError, match="^dimension must be at least 2$"):
            photon_box(1, 0.125, 0.3)

    def test_coefficients_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"^coeffs must be an \(m, n\) array$"):
            QndMeasurement(np.array([0.6, 0.8]))

    def test_photon_box_takes_a_numpy_integer(self):
        assert photon_box(np.int64(3), 0.125, 0.3).dim == 3

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError):
            QndMeasurement(np.ones((1, 3)))

    def test_needs_a_level(self):
        """Refused by name, where the completeness check's max would fail in NumPy."""
        with pytest.raises(ValueError, match="^coeffs has no levels: a measurement needs at "
                                             "least one$"):
            QndMeasurement(np.zeros((2, 0)))


class TestOutcomes:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = photon_box(6, 0.2, 0.5)
        p = unclamped_probabilities(m, random_density(rng, 6)[None])[0]
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_basis_states_invariant(self):
        m = photon_box(5, 0.3, 0.6)
        rho = basis_state(2, 5)
        post = m.apply_outcomes(np.arange(2), np.stack([rho, rho]))
        assert np.allclose(post, rho, atol=1e-12)

    def test_collapse_is_normalized(self):
        rng = np.random.default_rng(1)
        m = photon_box(6, 0.2, 0.5)
        rho = random_density(rng, 6)
        post = m.apply_outcomes(np.array([0]), rho[None])[0]
        assert np.trace(post).real == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome_raises(self):
        m = photon_box(2, 0.0, np.pi / 2)  # c_{1,0} = sin(0) = 0
        with pytest.raises(OutcomeImpossible):
            m.apply_outcomes(np.array([1]), basis_state(0, 2)[None])

    def test_sampling_deterministic_given_stream(self):
        rng1 = np.random.Generator(np.random.PCG64(7))
        rng2 = np.random.Generator(np.random.PCG64(7))
        m = photon_box(6, 0.2, 0.5)
        rho = np.eye(6, dtype=complex) / 6
        seq1 = [sample(m, rho, rng1) for _ in range(50)]
        seq2 = [sample(m, rho, rng2) for _ in range(50)]
        assert seq1 == seq2

    def test_sampling_matches_probabilities(self):
        rng = np.random.default_rng(3)
        m = photon_box(4, 0.4, 0.8)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        p = unclamped_probabilities(m, rho[None])[0]
        draws = np.array([sample(m, rho, rng) for _ in range(4000)])
        assert np.mean(draws == 0) == pytest.approx(p[0], abs=0.03)

    def test_stack_with_a_nan_state_is_rejected(self):
        """A NaN total must fail the probability check, not pass it as NaN > tol does."""
        rng = np.random.default_rng(3)
        m = photon_box(4, 0.2, 0.5)
        rho = np.stack([random_density(rng, 4) for _ in range(3)])
        rho[1, 2, 2] = np.nan
        p = (rho.diagonal(axis1=1, axis2=2).real[:, None, :] * m.weights).sum(axis=-1)
        with pytest.raises(ValueError, match="sum to nan"):
            sample_and_collapse(m, rho, p, rng.random(3))
        with pytest.raises(ValueError, match="sum to nan"):
            sample_and_collapse(m, rho[1:2], p[1:2], rng.random(1))


class TestProbabilities:
    """QndMeasurement.probabilities, the one place outcome probabilities are computed."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 4),
           stack=st.integers(1, 40))
    def test_equals_the_traces_of_the_kraus_branches(self, seed, dim, m, stack):
        """p[r, mu] = Tr(M_mu rho[r] M_mu†), with M_mu the diagonal matrix of c[mu]."""
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        rho = np.array([random_mixed_density(rng, dim) for _ in range(stack)])
        kraus = np.array([np.diag(c) for c in meas.coeffs])
        traces = np.trace(kraus[None] @ rho[:, None] @ kraus.conj().swapaxes(1, 2)[None],
                          axis1=2, axis2=3)
        p = meas.probabilities(rho.diagonal(axis1=1, axis2=2).real)
        assert p.shape == (stack, m)
        assert np.max(np.abs(p - traces)) <= 1e-14
        assert np.max(np.abs(traces.imag)) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 4),
           stack=st.integers(2, 64))
    def test_each_row_has_the_same_bits_whatever_the_stack(self, seed, dim, m, stack):
        """Every row alone, and the stack's every other row, give the full stack's bits."""
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        d = rng.dirichlet(np.full(dim, 0.5), size=stack)
        p = meas.probabilities(d)
        for r in range(stack):
            assert meas.probabilities(d[r:r + 1]).tobytes() == p[r:r + 1].tobytes()
        assert meas.probabilities(d[::2]).tobytes() == p[::2].tobytes()


class TestSampleAndCollapse:
    """sample, then collapse, against the inverse CDF and apply_outcomes, on random systems."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 4),
           stack=st.integers(1, 6))
    def test_matches_inverse_cdf_and_apply_outcomes(self, seed, dim, m, stack):
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        rho = np.array([random_mixed_density(rng, dim) for _ in range(stack)])
        x = rng.random(stack)
        p = unclamped_probabilities(meas, rho)
        mu, post = sample_and_collapse(meas, rho, p, x)
        for r in range(stack):
            q = np.maximum(p[r], 0.0)
            cdf = np.cumsum(q / q.sum())
            assert mu[r] == min(int(np.searchsorted(cdf, x[r], side="right")), m - 1)
        assert np.array_equal(post, meas.apply_outcomes(mu, rho))

        bad = rho.copy()
        bad[-1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="sum to nan"):
            sample_and_collapse(meas, bad, unclamped_probabilities(meas, bad), x)
        # Outcome 0 at probability 1e-13 is drawn by x = 0 and must not divide.
        tiny = p.copy()
        tiny[-1] = 0.0
        tiny[-1, :2] = 1e-13, 1.0 - 1e-13
        with pytest.raises(OutcomeImpossible, match="outcome 0"):
            sample_and_collapse(meas, rho, tiny, np.where(np.arange(stack) == stack - 1, 0.0, x))


class TestCollapseByReciprocal:
    """The collapse multiplies by 1/p and gives what dividing by p gives."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 5),
           stack=st.integers(1, 64))
    def test_equals_division(self, seed, dim, m, stack):
        """Equal under == everywhere, and bit for bit wherever the entry is not a zero.

        Complex coefficients, states of random rank, and for each state an
        outcome drawn among those above P_FLOOR.
        """
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        rho = np.array([random_mixed_density(rng, dim) for _ in range(stack)])
        p = unclamped_probabilities(meas, rho)
        mu = np.array([rng.choice(np.flatnonzero(row > P_FLOOR)) for row in p])
        post = meas.apply_outcomes(mu, rho).view(float)
        oracle = collapse_by_division(meas, mu, rho).view(float)
        assert np.array_equal(post, oracle)
        nonzero = oracle != 0.0
        assert np.array_equal(post[nonzero].view(np.int64), oracle[nonzero].view(np.int64))


class TestCollapsePopulations:
    """_ClosedForm.collapse gives the full collapse's diagonal, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 5),
           stack=st.integers(1, 64), real=st.booleans())
    def test_equals_the_diagonal_of_apply_outcomes(self, seed, dim, m, stack, real):
        """Complex or signed real coefficients, states of random rank with
        imaginary round-off on the diagonal, and for each state an outcome
        drawn among those above P_FLOOR; a floor outcome is refused as in
        apply_outcomes."""
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        if real:
            meas = QndMeasurement(np.abs(meas.coeffs) * rng.choice([-1.0, 1.0], (m, dim)))
        rho = np.array([random_mixed_density(rng, dim) for _ in range(stack)])
        rho[:, np.arange(dim), np.arange(dim)] += 1e-17j * rng.normal(size=(stack, dim))
        d = np.ascontiguousarray(rho.diagonal(axis1=1, axis2=2).real)
        p = unclamped_probabilities(meas, rho)
        mu = np.array([rng.choice(np.flatnonzero(row > P_FLOOR)) for row in p])
        p_mu = np.add.reduce(meas.weights[mu] * d, -1)
        post = meas.apply_outcomes(mu, rho).diagonal(axis1=1, axis2=2).real
        form = _ClosedForm(meas, rho[0])
        assert form.collapse(d, mu, p_mu).tobytes() == post.tobytes()
        p_mu[-1] = P_FLOOR
        with pytest.raises(OutcomeImpossible, match="<= floor"):
            form.collapse(d, mu, p_mu)


class TestMartingale:
    def test_diagonal_observable_is_martingale(self):
        rng = np.random.default_rng(4)
        m = photon_box(7, 0.15, 0.45)
        a = np.diag(rng.normal(size=7)).astype(complex)
        for _ in range(20):
            rho = random_density(rng, 7)
            before = np.trace(a @ rho).real
            after = expected_update(m, rho, lambda post: np.trace(a @ post).real)
            assert after == pytest.approx(before, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 5))
    def test_channel_on_random_instances(self, seed, dim, m):
        """The averaged channel sum_mu M_mu rho M_mu† on random measurements.

        Complex phases, 2-5 outcomes and dimensions 2-16: the Kraus family is
        complete, the channel keeps the trace and gives a density matrix, and
        the mean of a random diagonal observable is a martingale.
        """
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        rho = random_mixed_density(rng, dim)
        kraus = [np.diag(c) for c in meas.coeffs]
        assert np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(dim)).max() <= 1e-12
        channel = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.abs((meas.projectors * rho).sum(axis=0) - channel).max() <= 1e-14
        assert abs(np.trace(channel) - 1.0) <= 1e-12
        assert density_violations(channel) == []
        a = np.diag(rng.normal(size=dim)).astype(complex)
        after = expected_update(meas, rho, lambda post: np.trace(a @ post).real)
        assert after == pytest.approx(np.trace(a @ rho).real, abs=1e-10)

    def test_expected_update_of_constant_is_constant(self):
        rng = np.random.default_rng(5)
        m = photon_box(5, 0.3, 0.6)
        rho = random_density(rng, 5)
        assert expected_update(m, rho, lambda _: 1.0) == pytest.approx(1.0)


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

    @pytest.mark.parametrize("obj, key", [
        ({"photon_box": {"n": 8, "phi0": 0.125, "theta": 0.3}, "n": 8}, "measurement.n"),
        ({"photon_box": {"n": 8, "phi0": 0.125, "theta": 0.3, "thetta": 0.3}},
         "measurement.photon_box.thetta"),
        ({**photon_box(3, 0.125, 0.3).to_json(), "coeffs": []}, "measurement.coeffs"),
    ], ids=["beside-photon-box", "inside-photon-box", "written-out"])
    def test_unknown_key_is_refused_by_name(self, obj, key):
        with pytest.raises(ValueError, match=f"^unknown config key {re.escape(key)}$"):
            QndMeasurement.from_json(obj)

    def test_a_config_with_no_levels_is_refused_by_name(self):
        obj = {"n": 0, "m": 2, "coeffs_re": [[], []], "coeffs_im": [[], []]}
        with pytest.raises(ValueError, match="^coeffs has no levels"):
            QndMeasurement.from_json(obj)

    def test_arrays_must_match_the_claimed_shape(self):
        obj = {**photon_box(3, 0.125, 0.3).to_json(), "n": 4}
        with pytest.raises(ValueError, match=re.escape(
                "measurement file claims shape (2, 4) but arrays are (2, 3)")):
            QndMeasurement.from_json(obj)
