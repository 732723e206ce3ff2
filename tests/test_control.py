"""Unit tests for the feedback laws and their Lyapunov objectives."""

import numpy as np
import pytest

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    HermitianPropagator,
    basis_state,
    exact_min_feedback,
    expected_v_after,
    linear_feedback,
    lyapunov_v,
    lyapunov_v_eps,
    photon_box,
    quadratic_feedback,
)

SIGMA8 = np.array(
    [51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561]
)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rotation_energy(p, h1, rho, u):
    """V after the control rotation alone, the curve both laws model."""
    prop = HermitianPropagator(h1)
    return lyapunov_v(p, prop.conjugate(rho, u))


class TestLyapunov:
    def test_matches_diagonal_inner_product(self):
        rng = np.random.default_rng(0)
        p = DiagonalObservable(SIGMA8, 2)
        rho = random_density(rng, 8)
        assert lyapunov_v(p, rho) == pytest.approx(
            float(np.trace(p.matrix() @ rho).real)
        )

    def test_regularized_value(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        rho = np.diag([0.25, 0.75]).astype(complex)
        expected = 1.25 - 0.5 * 0.3 * (0.25**2 + 0.75**2)
        assert lyapunov_v_eps(p, rho, 0.3) == pytest.approx(expected)

    def test_negative_epsilon_rejected(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        with pytest.raises(ValueError):
            lyapunov_v_eps(p, np.eye(2) / 2, -0.1)


class TestControllerConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ControllerConfig(kind="pid")

    def test_linear_needs_positive_kappa(self):
        with pytest.raises(ValueError):
            ControllerConfig(kind="linear", kappa=0.0)

    def test_bounded_needs_positive_u_bar(self):
        with pytest.raises(ValueError):
            ControllerConfig(kind="quadratic", u_bar=0.0)

    def test_json_round_trip(self):
        cfg = ControllerConfig(kind="exact-min", u_bar=0.2, epsilon=0.1)
        assert ControllerConfig.from_json(cfg.to_json()) == cfg


class TestLinearFeedback:
    def test_zero_at_diagonal_states(self):
        rng = np.random.default_rng(1)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        rho = np.diag(rng.dirichlet(np.ones(8))).astype(complex)
        assert abs(linear_feedback(p, h1, rho, 0.05).u) <= 1e-12

    def test_points_downhill(self):
        """The law is kappa times the negative V-slope of the rotation."""
        rng = np.random.default_rng(2)
        p = DiagonalObservable(SIGMA8, 2)
        for _ in range(10):
            h1 = random_hermitian(rng, 8)
            rho = random_density(rng, 8)
            u = linear_feedback(p, h1, rho, 0.05).u
            h = 1e-6
            slope = (
                rotation_energy(p, h1, rho, h) - rotation_energy(p, h1, rho, -h)
            ) / (2 * h)
            assert u == pytest.approx(-0.05 * slope, abs=1e-6)


class TestQuadraticFeedback:
    def test_coefficients_match_taylor(self):
        """a and b are the exact curvature and slope of the rotation energy."""
        rng = np.random.default_rng(3)
        p = DiagonalObservable(SIGMA8, 2)
        cfg = ControllerConfig(kind="quadratic", u_bar=0.1)
        h = 1e-4
        for _ in range(10):
            h1 = random_hermitian(rng, 8)
            rho = random_density(rng, 8)
            d = quadratic_feedback(p, h1, rho, cfg)
            f = lambda u: rotation_energy(p, h1, rho, u)
            slope = (f(h) - f(-h)) / (2 * h)
            curv = (f(h) - 2 * f(0.0) + f(-h)) / h**2
            assert d.linear_coeff == pytest.approx(slope, rel=1e-5, abs=1e-6)
            assert d.quadratic_coeff == pytest.approx(curv, rel=1e-3, abs=1e-4)

    def test_interior_optimum_when_convex(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        h1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rho = np.array([[0.9, 0.29], [0.29, 0.1]], dtype=complex)
        cfg = ControllerConfig(kind="quadratic", u_bar=1.0)
        d = quadratic_feedback(p, h1, rho, cfg)
        if d.quadratic_coeff > 0 and abs(d.linear_coeff / d.quadratic_coeff) < 1.0:
            assert d.u == pytest.approx(-d.linear_coeff / d.quadratic_coeff)

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(4)
        p = DiagonalObservable(SIGMA8, 2)
        cfg = ControllerConfig(kind="quadratic", u_bar=0.07)
        for _ in range(25):
            h1 = random_hermitian(rng, 8)
            rho = random_density(rng, 8)
            assert abs(quadratic_feedback(p, h1, rho, cfg).u) <= 0.07 + 1e-15

    def test_flat_tie_break(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        h1 = np.zeros((2, 2), dtype=complex)
        rho = np.eye(2, dtype=complex) / 2
        cfg = ControllerConfig(kind="quadratic", u_bar=0.1)
        assert quadratic_feedback(p, h1, rho, cfg).u == 0.0

    def test_epsilon_term_lowers_curvature(self):
        rng = np.random.default_rng(5)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        rho = random_density(rng, 8)
        a0 = quadratic_feedback(
            p, h1, rho, ControllerConfig(kind="quadratic", u_bar=0.1)
        ).quadratic_coeff
        a1 = quadratic_feedback(
            p, h1, rho, ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=0.5)
        ).quadratic_coeff
        # The penalty term is -(eps/4) * sum of squared imaginary numbers,
        # which is a non-negative addition... the diagonal entries of
        # [H1, rho] square to real non-positive values, so a never decreases.
        assert a1 >= a0 - 1e-12

    def test_epsilon_curvature_is_the_printed_formula(self):
        """For eps > 0, a is not the curvature of V_eps; for eps = 0 it is."""
        p = DiagonalObservable(SIGMA8, 2)
        h1 = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            if i != 2:
                h1[i, 2] = h1[2, i] = np.sqrt(0.5 / (SIGMA8[i] - SIGMA8[2]))
        rho = np.ones((8, 8), dtype=complex) / 16.0
        rho[0, 0] += 0.5
        prop = HermitianPropagator(h1)
        h = 1e-4

        def curvature(eps):
            f = lambda u: lyapunov_v_eps(p, prop.conjugate(rho, u), eps)
            return (f(h) - 2 * f(0.0) + f(-h)) / h**2

        def coeff(eps):
            cfg = ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=eps)
            return quadratic_feedback(p, h1, rho, cfg).quadratic_coeff

        assert coeff(0.0) == pytest.approx(-3.45371, abs=1e-5)
        assert abs(coeff(0.0) - curvature(0.0)) <= 1e-6
        assert coeff(50.0) == coeff(0.0)
        assert curvature(50.0) == pytest.approx(-2.84122, abs=1e-4)
        # The exact curvature a_0 - eps sum_i (d_i'^2 + d_i d_i''); d' = 0 here.
        d = rho.diagonal().real
        c = h1 @ rho - rho @ h1
        d2 = -(h1 @ c - c @ h1).diagonal().real
        assert coeff(0.0) - 50.0 * float(d @ d2) == pytest.approx(
            curvature(50.0), abs=1e-5)

    def test_wrong_kind_rejected(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        with pytest.raises(ValueError):
            quadratic_feedback(
                p, np.zeros((2, 2)), np.eye(2) / 2,
                ControllerConfig(kind="linear"),
            )


class TestExactMin:
    def test_expected_v_is_martingale_at_zero(self):
        rng = np.random.default_rng(6)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        meas = photon_box(8, 1 / 8, np.pi / 4)
        for _ in range(10):
            rho = random_density(rng, 8)
            assert expected_v_after(p, h1, meas, rho, 0.0) == pytest.approx(
                lyapunov_v(p, rho), abs=1e-10
            )

    def test_never_predicts_ascent(self):
        """u = 0 keeps E[V] equal to V, so the minimum cannot be above it."""
        rng = np.random.default_rng(7)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        meas = photon_box(8, 1 / 8, np.pi / 4)
        cfg = ControllerConfig(kind="exact-min", u_bar=0.1)
        for _ in range(10):
            rho = random_density(rng, 8)
            assert exact_min_feedback(p, h1, meas, rho, cfg).predicted_dv <= 1e-10

    def test_beats_or_ties_quadratic_on_its_objective(self):
        rng = np.random.default_rng(8)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        meas = photon_box(8, 1 / 8, np.pi / 4)
        cfg_e = ControllerConfig(kind="exact-min", u_bar=0.1)
        cfg_q = ControllerConfig(kind="quadratic", u_bar=0.1)
        for _ in range(5):
            rho = random_density(rng, 8)
            u_e = exact_min_feedback(p, h1, meas, rho, cfg_e).u
            u_q = quadratic_feedback(p, h1, rho, cfg_q).u
            f = lambda u: expected_v_after(p, h1, meas, rho, u)
            assert f(u_e) <= f(u_q) + 1e-9

    def test_wrong_kind_rejected(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        meas = photon_box(2, 0.3, 0.6)
        with pytest.raises(ValueError):
            exact_min_feedback(
                p, np.zeros((2, 2)), meas, np.eye(2) / 2,
                ControllerConfig(kind="quadratic"),
            )
