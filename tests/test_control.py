"""Unit tests for the feedback laws and their Lyapunov objectives."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    ExactMinLaw,
    HermitianPropagator,
    LinearLaw,
    QndMeasurement,
    QuadraticLaw,
    SynthesisProblem,
    curvature_at_eigenstate,
    hamiltonian_of_r,
    photon_box,
    r_of_hamiltonian,
    solve_synthesis,
)
from qfcontrol.control import NEWTON_STEPS
from helpers import (
    expected_v_after,
    lyapunov_v,
    lyapunov_v_eps,
    minimize_every_step,
    random_density,
    random_hermitian,
    random_measurement,
    random_field_ising,
    random_mixed_density,
    register_measurement,
    rotated,
)

SIGMA8 = np.array(
    [51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561]
)


def rotation_energy(p, h1, rho, u):
    """V after the control rotation alone, the curve both laws model."""
    return lyapunov_v(p, rotated(h1, rho, u))


def linear_u(p, h1, rho, kappa):
    return float(LinearLaw(p, h1, kappa).controls(rho[None])[0])


def quadratic(p, h1, rho, cfg):
    """Curvature a, slope b and the chosen u of the quadratic law for one state."""
    law = QuadraticLaw(p, h1, cfg)
    a, b = law.coefficients(rho[None])
    return float(a[0]), float(b[0]), float(law.choose(a, b)[0])


def exact_min(p, h1, meas, rho, cfg):
    """The exact-min law's u and predicted f(u) - V_eps(rho) for one state."""
    u, f = ExactMinLaw(p, h1, meas, cfg).minimize(rho[None])
    return float(u[0]), float(f[0]) - lyapunov_v_eps(p, rho, cfg.epsilon)


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
        """V_eps's regularizer is checked where it is configured."""
        with pytest.raises(ValueError, match=r"^controller\.epsilon is -0\.1, but must be "
                                             "non-negative$"):
            ControllerConfig(epsilon=-0.1)


class TestControllerConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^controller.kind is 'pid', but must be 'linear', "
                                             "'exact-min' or 'quadratic'$"):
            ControllerConfig(kind="pid")

    def test_linear_needs_positive_kappa(self):
        with pytest.raises(ValueError, match="^controller.kappa is 0.0, but the linear "
                                             "controller needs it > 0$"):
            ControllerConfig(kind="linear", kappa=0.0)

    def test_bounded_needs_positive_u_bar(self):
        for kind in ("quadratic", "exact-min"):
            with pytest.raises(ValueError, match=f"^controller.u_bar is 0.0, but the {kind} "
                                                 "controller needs it > 0$"):
                ControllerConfig(kind=kind, u_bar=0.0)

    def test_json_round_trip(self):
        cfg = ControllerConfig(kind="exact-min", u_bar=0.2, epsilon=0.1)
        assert ControllerConfig.from_json(cfg.to_json()) == cfg
        with pytest.raises(ValueError, match=r"^unknown config key controller\.tie_break$"):
            ControllerConfig.from_json({**cfg.to_json(), "tie_break": "random-sign"})

    @pytest.mark.parametrize("kwargs, message", [
        ({"u_bar": True}, "controller.u_bar is True"),
        ({"epsilon": np.True_}, "controller.epsilon is np.True_"),
        ({"kind": "linear", "kappa": "0.1"}, "controller.kappa is '0.1'"),
        ({"u_bar": "0.1"}, "controller.u_bar is '0.1'"),
    ], ids=["u-bar-true", "epsilon-numpy-true", "kappa-string", "u-bar-string"])
    def test_parameters_must_be_numbers(self, kwargs, message):
        """Refused by name, where a bool would run as 0 or 1 and a string
        would fail in math.isfinite with a bare TypeError."""
        with pytest.raises(ValueError, match=f"^{message}, but must be a number$"):
            ControllerConfig(**kwargs)

    def test_from_json_refuses_a_bool_by_name(self):
        with pytest.raises(ValueError, match="^controller.u_bar is True, but must be a number$"):
            ControllerConfig.from_json({"kind": "quadratic", "u_bar": True})

    def test_parameters_are_stored_as_floats(self):
        cfg = ControllerConfig(kind="linear", kappa=1, u_bar=np.float64(0.2), epsilon=np.int64(0))
        assert [type(getattr(cfg, name)) for name in ("kappa", "u_bar", "epsilon")] == [float] * 3
        assert cfg == ControllerConfig(kind="linear", kappa=1.0, u_bar=0.2, epsilon=0.0)


def non_hermitian_stack():
    """Three 2-level states whose middle one has rho_01 = 0.5 but rho_10 = 0.

    With P = diag(2, 1) and H1 = sigma_x, Tr([P, H1] rho) = rho_10 - rho_01,
    which is imaginary only for a Hermitian rho; here it is -0.5.
    """
    rho = np.repeat(np.eye(2, dtype=complex)[None] / 2, 3, axis=0)
    rho[1, 0, 1] = 0.5
    return DiagonalObservable(np.array([2.0, 1.0]), 1), np.array([[0.0, 1.0], [1.0, 0.0]]), rho


class TestLinearFeedback:
    def test_zero_at_diagonal_states(self):
        rng = np.random.default_rng(1)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        rho = np.diag(rng.dirichlet(np.ones(8))).astype(complex)
        assert abs(linear_u(p, h1, rho, 0.05)) <= 1e-12

    def test_points_downhill(self):
        """The law is kappa times the negative V-slope of the rotation."""
        rng = np.random.default_rng(2)
        p = DiagonalObservable(SIGMA8, 2)
        for _ in range(10):
            h1 = random_hermitian(rng, 8)
            rho = random_density(rng, 8)
            u = linear_u(p, h1, rho, 0.05)
            h = 1e-6
            slope = (
                rotation_energy(p, h1, rho, h) - rotation_energy(p, h1, rho, -h)
            ) / (2 * h)
            assert u == pytest.approx(-0.05 * slope, abs=1e-6)


    @pytest.mark.parametrize("kappa", [0.0, -0.05])
    def test_kappa_must_be_positive(self, kappa):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        with pytest.raises(ValueError, match="^kappa must be positive$"):
            LinearLaw(p, np.array([[0.0, 1.0], [1.0, 0.0]]), kappa)

    @pytest.mark.parametrize("kappa, message", [
        (True, "kappa is True, but must be a number"),
        ("0.1", "kappa is '0.1', but must be a number"),
        (float("nan"), "kappa must be finite, got nan"),
        (float("inf"), "kappa must be finite, got inf"),
        (0, "kappa must be positive"),
        (-1, "kappa must be positive"),
    ])
    def test_bad_gain_refused_by_name(self, kappa, message):
        """A gain that is not a finite positive number, refused by its argument's name.

        LinearLaw is a library call, not a config section, so its refusals say
        kappa where ControllerConfig's say controller.kappa."""
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearLaw(p, np.array([[0.0, 1.0], [1.0, 0.0]]), kappa)

    def test_complex_control_raises(self):
        p, h1, rho = non_hermitian_stack()
        with pytest.raises(ValueError, match="linear feedback came out complex"):
            LinearLaw(p, h1, 0.05).controls(rho)


class TestQuadraticFeedback:
    def test_complex_coefficients_raise(self):
        p, h1, rho = non_hermitian_stack()
        law = QuadraticLaw(p, h1, ControllerConfig(kind="quadratic", u_bar=0.1))
        with pytest.raises(ValueError, match="quadratic coefficients came out complex"):
            law.coefficients(rho)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16),
           epsilon=st.sampled_from([0.0, 5.0]))
    def test_slope_is_zero_for_a_real_h1_and_a_real_state(self, seed, dim, epsilon):
        """b = -2 sum_{i<j} (sigma_j - sigma_i) Im(H1_ij rho_ji) is 0 bit for bit.

        i [H1, P] is purely imaginary when H1 is real, so every product of
        the trace against a real rho has real part +-0.  eps moves only a.
        """
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.0, 10.0, dim)
        p = DiagonalObservable(sigma, int(np.argmin(sigma)))
        h1 = rng.normal(size=(dim, dim))
        g = rng.normal(size=(100, dim, dim))
        rho = g @ g.swapaxes(1, 2)
        rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
        cfg = ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=epsilon)
        _, b = QuadraticLaw(p, h1 + h1.T, cfg).coefficients(rho.astype(complex))
        assert np.count_nonzero(b) == 0

    def test_coefficients_match_taylor(self):
        """a and b are the exact curvature and slope of the rotation energy."""
        rng = np.random.default_rng(3)
        p = DiagonalObservable(SIGMA8, 2)
        cfg = ControllerConfig(kind="quadratic", u_bar=0.1)
        h = 1e-4
        for _ in range(10):
            h1 = random_hermitian(rng, 8)
            rho = random_density(rng, 8)
            a, b, _ = quadratic(p, h1, rho, cfg)
            f = lambda u: rotation_energy(p, h1, rho, u)
            slope = (f(h) - f(-h)) / (2 * h)
            curv = (f(h) - 2 * f(0.0) + f(-h)) / h**2
            assert b == pytest.approx(slope, rel=1e-5, abs=1e-6)
            assert a == pytest.approx(curv, rel=1e-3, abs=1e-4)

    def test_interior_optimum_when_convex(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        h1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rho = np.array([[0.9, 0.29], [0.29, 0.1]], dtype=complex)
        cfg = ControllerConfig(kind="quadratic", u_bar=1.0)
        a, b, u = quadratic(p, h1, rho, cfg)
        if a > 0 and abs(b / a) < 1.0:
            assert u == pytest.approx(-b / a)

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(4)
        p = DiagonalObservable(SIGMA8, 2)
        cfg = ControllerConfig(kind="quadratic", u_bar=0.07)
        for _ in range(25):
            h1 = random_hermitian(rng, 8)
            rho = random_density(rng, 8)
            assert abs(quadratic(p, h1, rho, cfg)[2]) <= 0.07 + 1e-15

    def test_flat_tie_break(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        h1 = np.zeros((2, 2), dtype=complex)
        rho = np.eye(2, dtype=complex) / 2
        cfg = ControllerConfig(kind="quadratic", u_bar=0.1)
        assert quadratic(p, h1, rho, cfg)[2] == 0.0

    def test_flat_concave_ties_take_plus_u_bar(self):
        """Both endpoints minimize a flat concave parabola; +u_bar is taken."""
        law = QuadraticLaw(DiagonalObservable(np.array([2.0, 1.0]), 1), np.zeros((2, 2)),
                           ControllerConfig(kind="quadratic", u_bar=0.1))
        a = np.array([-1.0, -1.0, 0.0, -1.0, 2.0])
        b = np.array([0.0, -0.0, 0.0, 0.5, 0.0])
        assert law.choose(a, b).tolist() == [0.1, 0.1, 0.0, -0.1, 0.0]

    def test_epsilon_term_lowers_curvature(self):
        rng = np.random.default_rng(5)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        rho = random_density(rng, 8)
        a0 = quadratic(p, h1, rho, ControllerConfig(kind="quadratic", u_bar=0.1))[0]
        a1 = quadratic(
            p, h1, rho, ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=0.5)
        )[0]
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
        h = 1e-4

        def curvature(eps):
            f = lambda u: lyapunov_v_eps(p, rotated(h1, rho, u), eps)
            return (f(h) - 2 * f(0.0) + f(-h)) / h**2

        def coeff(eps):
            cfg = ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=eps)
            return quadratic(p, h1, rho, cfg)[0]

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
            QuadraticLaw(p, np.zeros((2, 2)), ControllerConfig(kind="linear"))


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
            assert exact_min(p, h1, meas, rho, cfg)[1] <= 1e-10

    def test_beats_or_ties_quadratic_on_its_objective(self):
        rng = np.random.default_rng(8)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        meas = photon_box(8, 1 / 8, np.pi / 4)
        cfg_e = ControllerConfig(kind="exact-min", u_bar=0.1)
        cfg_q = ControllerConfig(kind="quadratic", u_bar=0.1)
        for _ in range(5):
            rho = random_density(rng, 8)
            u_e = exact_min(p, h1, meas, rho, cfg_e)[0]
            u_q = quadratic(p, h1, rho, cfg_q)[2]
            f = lambda u: expected_v_after(p, h1, meas, rho, u)
            assert f(u_e) <= f(u_q) + 1e-9

    def test_wrong_kind_rejected(self):
        p = DiagonalObservable(np.array([2.0, 1.0]), 1)
        meas = photon_box(2, 0.3, 0.6)
        with pytest.raises(ValueError):
            ExactMinLaw(p, np.zeros((2, 2)), meas, ControllerConfig(kind="quadratic"))

    def test_dimensions_must_match_p(self):
        """A measurement or an H1 of another size is refused by name when the law is built."""
        p = DiagonalObservable(np.array([3.0, 1.0, 2.0]), 1)
        h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        cfg = ControllerConfig(kind="exact-min")
        with pytest.raises(ValueError, match="^the measurement has dimension 4, "
                                             "but p has dimension 3$"):
            ExactMinLaw(p, h1, photon_box(4, 0.125, 0.3), cfg)
        for big in (np.eye(4), HermitianPropagator(np.eye(4))):
            with pytest.raises(ValueError, match=r"^h1 has shape \(4, 4\), "
                                                 "but p has dimension 3$"):
                ExactMinLaw(p, big, photon_box(3, 0.125, 0.3), cfg)

    def test_no_outcome_probabilities_at_zero_eps(self, monkeypatch):
        """At eps = 0 the objective goes through D * rho alone, with no p_mu."""
        rng = np.random.default_rng(9)
        p = DiagonalObservable(SIGMA8, 2)
        h1 = random_hermitian(rng, 8)
        law = ExactMinLaw(p, h1, photon_box(8, 1 / 8, np.pi / 4),
                          ControllerConfig(kind="exact-min", u_bar=0.1))
        rho = np.stack([random_density(rng, 8) for _ in range(3)])

        def refused(self, d):
            raise AssertionError("outcome probabilities computed at eps = 0")

        monkeypatch.setattr(QndMeasurement, "probabilities", refused)
        u, f = law.minimize(rho)
        assert u.shape == f.shape == (3,)


def random_exact_min_instance(seed, dim, regularized):
    """Observable, H1, measurement, mixed state of random rank and exact-min config.

    Dimension ``dim`` with 2-4 outcomes; epsilon is 0, or positive when
    ``regularized``.  Also returns the generator, for further draws.
    """
    rng = np.random.default_rng(seed)
    meas = random_measurement(rng, int(rng.integers(2, 5)), dim)
    sigma = rng.uniform(0.0, 10.0, dim)
    h1 = rng.uniform(0.1, 1.0) * random_hermitian(rng, dim)
    rho = random_mixed_density(rng, dim)
    cfg = ControllerConfig(kind="exact-min", u_bar=float(rng.uniform(0.05, 1.0)),
                           epsilon=float(rng.uniform(0.5, 20.0)) if regularized else 0.0)
    p = DiagonalObservable(sigma, int(np.argmin(sigma)))
    return p, h1, meas, rho, cfg, rng


INSTANCES = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16),
                 regularized=st.booleans())


class TestExactMinClosedForm:
    """The closed-form objective against expected_v_after, on random systems."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(**INSTANCES)
    def test_objective_equals_expected_v_after(self, seed, dim, regularized):
        p, h1, meas, rho, cfg, rng = random_exact_min_instance(seed, dim, regularized)
        u = rng.uniform(-cfg.u_bar, cfg.u_bar, 4)
        f, _, _ = ExactMinLaw(p, h1, meas, cfg).objective(np.repeat(rho[None], 4, axis=0), u)
        want = [expected_v_after(p, h1, meas, rho, x, cfg.epsilon) for x in u]
        assert np.allclose(f, want, rtol=0.0, atol=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(**INSTANCES)
    def test_choice_beats_the_grid_and_standing_still(self, seed, dim, regularized):
        p, h1, meas, rho, cfg, _ = random_exact_min_instance(seed, dim, regularized)
        u = exact_min(p, h1, meas, rho, cfg)[0]
        assert -cfg.u_bar <= u <= cfg.u_bar

        def f(x):
            return expected_v_after(p, h1, meas, rho, x, cfg.epsilon)

        assert f(u) <= min(f(x) for x in np.linspace(-cfg.u_bar, cfg.u_bar, 129)) + 1e-12
        assert f(u) <= lyapunov_v_eps(p, rho, cfg.epsilon) + 1e-10

    @pytest.mark.parametrize("regularized", [False, True])
    @pytest.mark.parametrize("dim", [2, 5, 8, 13])
    def test_dead_branches_add_nothing(self, dim, regularized):
        """Outcome 0 never fires on a state supported on the levels it cannot see.

        Its p_0 is 0, at the floor, so the branch is dead: at eps > 0 its
        weight -eps / (2 p_0) would be 0/0 if it were not masked out.  The
        second state of the stack keeps every branch live.
        """
        p, h1, meas, _, cfg, rng = random_exact_min_instance(dim, dim, regularized)
        blind = max(1, dim // 2)
        weights = rng.dirichlet(np.full(meas.m, 0.5), size=dim).T
        weights[0, :blind] = 0.0
        weights[1:, :blind] = rng.dirichlet(np.full(meas.m - 1, 0.5), size=blind).T
        meas = QndMeasurement(np.sqrt(weights) * np.exp(2j * np.pi * rng.random(weights.shape)))
        dead = np.zeros((dim, dim), dtype=complex)
        dead[:blind, :blind] = random_density(rng, blind)
        rho = np.stack([dead, random_density(rng, dim)])
        assert meas.weights[0] @ dead.diagonal().real == 0.0
        law = ExactMinLaw(p, h1, meas, cfg)
        u = rng.uniform(-cfg.u_bar, cfg.u_bar, 2)
        want = [expected_v_after(p, h1, meas, r, x, cfg.epsilon) for r, x in zip(rho, u)]
        assert np.allclose(law.objective(rho, u)[0], want, rtol=0.0, atol=1e-10)
        for r, chosen in zip(rho, law.minimize(rho)[0]):
            def f(x):
                return expected_v_after(p, h1, meas, r, x, cfg.epsilon)

            assert f(chosen) <= min(f(x) for x in law.grid) + 1e-12

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(**INSTANCES)
    def test_rows_do_not_depend_on_the_stack(self, seed, dim, regularized):
        """Row r of a stack of R states has the bits of the same state run alone.

        The stack holds three copies of rho, then mixtures of rho with random
        states; it is cut at R = 1, 2, 5, 100 and 300.
        """
        p, h1, meas, rho, cfg, rng = random_exact_min_instance(seed, dim, regularized)
        t = np.concatenate([np.zeros(3), rng.uniform(0.0, 1.0, 297)])
        stack = np.stack([(1.0 - x) * rho + x * random_density(rng, dim) for x in t])
        law = ExactMinLaw(p, h1, meas, cfg)
        alone = [law.minimize(stack[r:r + 1]) for r in range(len(stack))]
        u_alone = np.concatenate([u for u, _ in alone])
        f_alone = np.concatenate([f for _, f in alone])
        for size in (1, 2, 5, 100, 300):
            u, f = law.minimize(stack[:size])
            assert np.array_equal(u, u_alone[:size]), size
            assert np.array_equal(f, f_alone[:size]), size

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16))
    def test_curvature_at_eigenstate_is_r_sigma(self, seed, dim):
        """The sign-condition mechanism: f''(0) at |n><n| is (R sigma)_n.

        The error is taken relative to the size of the terms of
        (R sigma)_n = sum_j R_nj (sigma_j - sigma_n), which cannot vanish.
        """
        p, h1, meas, _, _, _ = random_exact_min_instance(seed, dim, False)
        r = r_of_hamiltonian(h1)
        lam = r @ p.sigma
        for n in range(dim):
            scale = np.abs(r[n]) @ np.abs(p.sigma - p.sigma[n])
            assert abs(curvature_at_eigenstate(p, h1, meas, n) - lam[n]) <= 1e-9 * scale


class TestExactMinOnRegisters:
    """The closed form on qubit registers: a weak read-out per qubit (m = n), Ising sigma."""

    @pytest.mark.parametrize("qubits, regularized", [(4, False), (5, False), (4, True)])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_objective_equals_expected_v_after(self, qubits, regularized, seed):
        """n = 16 and 32 at eps = 0, and n = 16 at eps > 0, within 1e-10."""
        rng = np.random.default_rng(seed)
        n = 2**qubits
        sigma = random_field_ising(rng, qubits)
        p = DiagonalObservable(sigma, int(np.argmin(sigma)))
        meas = register_measurement(qubits, 0.3)
        h1 = rng.uniform(0.1, 1.0) * random_hermitian(rng, n)
        rho = random_mixed_density(rng, n)
        cfg = ControllerConfig(kind="exact-min", u_bar=float(rng.uniform(0.05, 1.0)),
                               epsilon=float(rng.uniform(0.5, 20.0)) * regularized)
        u = rng.uniform(-cfg.u_bar, cfg.u_bar, 3)
        f, _, _ = ExactMinLaw(p, h1, meas, cfg).objective(np.repeat(rho[None], 3, axis=0), u)
        want = [expected_v_after(p, h1, meas, rho, x, cfg.epsilon) for x in u]
        assert meas.m == n
        assert np.allclose(f, want, rtol=0.0, atol=1e-10)


def bits(*arrays):
    return [a.tobytes() for a in arrays]


def reference_exact_min_law():
    """The exact_min benchmark's law and its H1: reference instance, dense H1, theta = pi/10."""
    p = DiagonalObservable(SIGMA8, 2)
    h1 = hamiltonian_of_r(solve_synthesis(SynthesisProblem(sigma=p)).r, "positive")
    law = ExactMinLaw(p, h1, photon_box(8, 1 / 8, np.pi / 10),
                      ControllerConfig(kind="exact-min", u_bar=0.1))
    return law, h1


def reference_rho0():
    rho0 = np.ones((8, 8), dtype=complex) / 16.0
    rho0[0, 0] += 0.5
    return rho0


def certificate_sides(law, rho):
    """Slack and margin term of ExactMinLaw's certificate, as controls forms its sides.

    The slack is |f'(0)| - u_bar |f''(0)| less the right side, positive on
    a certified row; the margin term is margin * sum |c_jk|, the margin
    being the certificate's weight at omega = 0, its smallest.
    """
    coeffs = law._coefficients(rho)[0]
    slopes = np.add.reduce(coeffs[:, 1:].real, -1)
    size = np.abs(coeffs[:, 0])
    slack = (np.abs(slopes[:, 0]) - law.cfg.u_bar * np.abs(slopes[:, 1])
             - size @ law._certificate)
    return slack, law._certificate.min() * np.add.reduce(size, -1)


def certificate_edge(law, rho, levels):
    """States around each level of slack, in margin terms, between rho and its diagonal.

    The diagonal's f'(0) is 0, so it fails the certificate.  Where rho
    passes with room, bisection on the segment finds, for each level x,
    the adjacent points whose states have slack above x margin terms and
    at or below it.  None where rho does not pass.
    """
    diag = np.diag(rho.diagonal())

    def states(t):
        return (1.0 - t)[:, None, None] * rho + t[:, None, None] * diag

    def above(t):
        slack, margin = certificate_sides(law, states(t))
        return slack > levels * margin

    lo, hi = np.zeros(len(levels)), np.ones(len(levels))
    if np.count_nonzero(above(lo)) < len(levels) or np.count_nonzero(above(hi)):
        return None
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return states(np.concatenate([lo, hi]))


class TestNewtonStop:
    """The Newton steps stop once a step moves no row, with the bits of running all of them."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 10),
           regularized=st.booleans(), rows=st.integers(1, 40))
    def test_equals_every_step(self, seed, dim, regularized, rows):
        """Stacks above _EPS_BLOCK rows at eps > 0 are minimized a block at a time."""
        p, h1, meas, rho, cfg, rng = random_exact_min_instance(seed, dim, regularized)
        stack = np.stack([rho] + [random_density(rng, dim) for _ in range(rows - 1)])
        law = ExactMinLaw(p, h1, meas, cfg)
        want = minimize_every_step(law, stack)
        assert bits(*law.minimize(stack)) == bits(*want)
        assert bits(law.controls(stack)) == bits(want[0])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 10),
           log_u_bar=st.floats(-3.0, np.log10(2.0)), log_scale=st.floats(-2.0, 1.0))
    def test_controls_equal_every_step_at_the_certificate_edge(self, seed, dim, log_u_bar,
                                                              log_scale):
        """controls has the bits of the full search on stacks of certified and other rows.

        At eps = 0, u_bar from 1e-3 to 2 and H1 scaled by 0.01-10.  The stack
        holds eight random states, a NaN row and, where one of the states
        is certified, rows on both sides of slack -4 to 4 margin terms.
        """
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, int(rng.integers(2, 5)), dim)
        sigma = rng.uniform(0.0, 10.0, dim)
        p = DiagonalObservable(sigma, int(np.argmin(sigma)))
        cfg = ControllerConfig(kind="exact-min", u_bar=10.0**log_u_bar)
        law = ExactMinLaw(p, 10.0**log_scale * random_hermitian(rng, dim), meas, cfg)
        rows = np.stack([random_density(rng, dim) for _ in range(8)]
                        + [np.full((dim, dim), np.nan, dtype=complex)])
        certified = rows[:8][certificate_sides(law, rows[:8])[0] > 0]
        if len(certified):
            edge = certificate_edge(law, certified[0], np.array([-4.0, -2.0, -1.0, 0.0, 1.0,
                                                                  2.0, 4.0]))
            if edge is not None:
                slack, margin = certificate_sides(law, edge)
                assert np.count_nonzero(slack > 0) and np.count_nonzero(slack <= 0)
                assert np.count_nonzero(np.abs(slack) <= 5.0 * margin) == len(edge)
                rows = np.concatenate([rows, edge])
        stack = rows[rng.permutation(len(rows))]
        assert bits(law.controls(stack)) == bits(minimize_every_step(law, stack)[0])

    @pytest.fixture
    def derivative_calls(self, monkeypatch):
        calls = []
        original = ExactMinLaw._derivatives

        def counted(self, terms, u):
            calls.append(None)
            return original(self, terms, u)

        monkeypatch.setattr(ExactMinLaw, "_derivatives", counted)
        return calls

    @pytest.fixture(scope="class")
    def reference_law(self):
        return reference_exact_min_law()[0]

    def test_a_decision_at_the_bound_stops_after_one_step(self, reference_law,
                                                          derivative_calls):
        """From the reference rho0, u = u_bar is a fixed point.

        The first evaluation's step leaves u in place, so its f is f(u):
        one evaluation in all.  That f is 1 ulp above the grid product's
        value at the same u, so the law returns the grid's value.
        """
        rho0 = reference_rho0()
        u, f = reference_law.minimize(rho0[None])
        assert len(derivative_calls) == 1
        assert u[0] == 0.1
        assert bits(u, f) == bits(*minimize_every_step(reference_law, rho0[None]))

    def test_controls_from_rho0_run_the_search(self, reference_law, derivative_calls):
        """From the reference rho0, f'(0) is exactly 0, so no certificate can hold.

        H1 and rho0 are real, so f is even in u (see QuadraticLaw's b), and
        the grid's values at -u_bar and u_bar tie, broken toward u_bar.
        controls runs the search, with minimize's one evaluation, and
        returns its u.
        """
        rho0 = reference_rho0()[None]
        u = reference_law.controls(rho0)
        assert len(derivative_calls) == 1
        assert bits(u) == bits(reference_law.minimize(rho0)[0])

    def test_a_certified_decision_builds_no_grid(self, derivative_calls):
        """From rho0 rotated by the law's first control, u = u_bar is certified.

        controls makes no Newton evaluation and never builds the grid's
        phase table; minimize, which builds it, returns the same u.
        """
        law, h1 = reference_exact_min_law()
        rho = rotated(h1, reference_rho0(), 0.1)[None]
        assert certificate_sides(law, rho)[0][0] > 0
        u = law.controls(rho)
        assert len(derivative_calls) == 0
        assert "_grid_phase" not in law.__dict__
        assert u[0] == 0.1
        assert bits(u) == bits(law.minimize(rho)[0])

    def test_an_interior_decision_runs_every_step(self, reference_law, derivative_calls):
        """Near |n*>, with a complex coherence, u stays inside the bound.

        Steps 1-3 move u (the third by 2 ulp); the fourth evaluation's step
        leaves it in place, so its f is f(u): NEWTON_STEPS evaluations in
        all, and none after the loop.  The returned f is that evaluation's.
        """
        psi = np.zeros(8, dtype=complex)
        psi[2], psi[1] = np.sqrt(0.99), 0.1j
        rho = np.outer(psi, psi.conj())[None]
        u, f = reference_law.minimize(rho)
        assert len(derivative_calls) == NEWTON_STEPS
        assert 0.0 < u[0] < 0.1
        assert bits(u, f) == bits(*minimize_every_step(reference_law, rho))
        assert bits(f) == bits(reference_law.objective(rho, u)[0])

    def test_an_interior_decision_runs_every_step_in_controls(self, reference_law,
                                                              derivative_calls):
        """The same state through controls: uncertified, it runs the same search."""
        psi = np.zeros(8, dtype=complex)
        psi[2], psi[1] = np.sqrt(0.99), 0.1j
        rho = np.outer(psi, psi.conj())[None]
        u = reference_law.controls(rho)
        assert len(derivative_calls) == NEWTON_STEPS
        assert bits(u) == bits(reference_law.minimize(rho)[0])
