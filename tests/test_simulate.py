"""Unit tests for the trajectory engines and the ensemble runner."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LinearLaw,
    LoopConfig,
    QndMeasurement,
    QuadraticLaw,
    SynthesisProblem,
    Trajectory,
    config_hash,
    derive_seed,
    hamiltonian_of_r,
    photon_box,
    run_ensemble,
    run_trajectory,
    solve_synthesis,
    write_trajectories_csv,
)
from qfcontrol import simulate
from qfcontrol.core import density_violations
from qfcontrol.simulate import splitmix64
from helpers import (
    break_state,
    fidelity_to_basis,
    lyapunov_v,
    purity,
    random_density,
    random_hermitian,
    random_measurement,
    random_mixed_density,
    replay_measured,
    replay_open_loop,
    trace_one_not_positive,
)

SIGMA8 = np.array(
    [51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561]
)


def observable8():
    return DiagonalObservable(SIGMA8, 2)


def coupling8(rng=None):
    rng = rng or np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    return 0.1 * (a + a.conj().T)


def seed_state():
    rho = np.ones((8, 8), dtype=complex) / 16.0
    rho[0, 0] += 0.5
    return rho


def seed_state_without(level):
    """seed_state() with one level's row and column zeroed, renormalized: a zero population."""
    rho = seed_state()
    rho[level, :] = rho[:, level] = 0.0
    return rho / np.trace(rho).real


def complex_box():
    """The theta = pi/10 photon box with phases that differ by outcome and level."""
    box = photon_box(8, 1 / 8, np.pi / 10).coeffs
    return QndMeasurement(box * np.exp(1j * np.outer([0.3, -1.1], np.arange(8))))


def stochastic_config(steps=200, theta=np.pi / 10, controller=None, **kw):
    return LoopConfig(
        mode="stochastic",
        p=observable8(),
        h1=coupling8(),
        meas=photon_box(8, 1 / 8, theta),
        controller=controller or ControllerConfig(kind="quadratic", u_bar=0.1),
        steps=steps,
        **kw,
    )


class TestSeeding:
    def test_splitmix64_known_values(self):
        # Fixed points of the reference implementation.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_derive_seed_distinct_per_index(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_master_zero_streams_are_splitmix64_of_index(self):
        assert all(derive_seed(0, i) == splitmix64(i) for i in range(256))

    @pytest.mark.parametrize("master_seed, index, name", [
        (1.5, 0, "master_seed is 1.5"),
        (True, 0, "master_seed is True"),
        (0, 2.7, "index is 2.7"),
    ], ids=["master-float", "master-true", "index-float"])
    def test_derive_seed_refuses_non_integers(self, master_seed, index, name):
        """Refused by name, where int() would run the streams of master 1 or index 2."""
        with pytest.raises(ValueError, match=f"{name}, but must be an integer"):
            derive_seed(master_seed, index)

    def test_derive_seed_takes_numpy_integers(self):
        assert [derive_seed(np.int64(42), np.int64(i)) for i in range(8)] == \
            [derive_seed(42, i) for i in range(8)]

    def test_neighbouring_masters_draw_different_ensembles(self):
        # Seeding with splitmix64(master XOR index) gave masters 0 and 1 the
        # same 48 streams in another order, hence the same sorted results.
        cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                         meas=photon_box(8, 1 / 8, np.pi / 10), steps=60,
                         stop_at_threshold=False)
        a, b = (run_ensemble(cfg, seed_state(), 48, master) for master in (0, 1))
        assert not np.array_equal(np.sort(a.final_fidelity), np.sort(b.final_fidelity))


class TestLoopConfig:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            LoopConfig(mode="analog", p=observable8(), h1=coupling8())

    def test_stochastic_needs_measurement(self):
        with pytest.raises(ValueError):
            LoopConfig(mode="stochastic", p=observable8(), h1=coupling8())

    def test_deterministic_needs_drift(self):
        with pytest.raises(ValueError):
            LoopConfig(
                mode="deterministic",
                p=observable8(),
                h1=coupling8(),
                controller=ControllerConfig(kind="linear"),
            )

    @pytest.mark.parametrize("mode", ["stochastic", "open-loop"])
    def test_linear_controller_only_in_deterministic_mode(self, mode):
        message = f"^loop.mode is '{mode}', which the linear controller cannot run"
        with pytest.raises(ValueError, match=message):
            LoopConfig(mode=mode, p=observable8(), h1=coupling8(),
                       meas=photon_box(8, 1 / 8, np.pi / 10),
                       controller=ControllerConfig(kind="linear"))


    def test_fidelity_threshold_must_be_a_number(self):
        """Refused by name, where True would run at threshold 1.0."""
        with pytest.raises(ValueError, match="fidelity_threshold is True, but must be a number"):
            stochastic_config(fidelity_threshold=True)

    def test_stop_at_threshold_must_be_a_boolean(self):
        """Refused by name, where "no" would run with the early stop on."""
        with pytest.raises(ValueError, match="stop_at_threshold is 'no', but must be true or false"):
            stochastic_config(stop_at_threshold="no")

    @pytest.mark.parametrize("steps", [2.5, True])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match=f"steps is {steps!r}, but must be an integer"):
            stochastic_config(steps=steps)

    def test_numpy_integer_steps_run(self):
        cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                         meas=photon_box(8, 1 / 8, np.pi / 10), steps=np.int64(3),
                         stop_at_threshold=False)
        assert run_ensemble(cfg, seed_state(), 1, 0).trajectories[0].steps_run == 3


class TestRunTrajectoryArguments:
    """run_trajectory takes a seed exactly where the mode uses one."""

    @staticmethod
    def config(mode):
        if mode == "deterministic":
            return LoopConfig(mode=mode, p=observable8(), h1=star_h1(), h0=np.zeros((8, 8)),
                              controller=ControllerConfig(kind="linear"), steps=5)
        return LoopConfig(mode=mode, p=observable8(), h1=star_h1(),
                          meas=photon_box(8, 1 / 8, np.pi / 10), steps=5)

    def test_deterministic_mode_takes_no_seed(self):
        with pytest.raises(ValueError, match="deterministic mode takes no seed"):
            run_trajectory(self.config("deterministic"), seed_state(), 0)

    @pytest.mark.parametrize("mode", ["stochastic", "open-loop"])
    def test_measured_modes_need_a_seed(self, mode):
        with pytest.raises(ValueError, match=f"{mode} mode needs a seed"):
            run_trajectory(self.config(mode), seed_state())

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic", "open-loop"])
    def test_runs_with_the_arguments_its_mode_uses(self, mode):
        seed = None if mode == "deterministic" else 0
        t = run_trajectory(self.config(mode), seed_state(), seed)
        assert t.steps_run == 5

    @pytest.mark.parametrize("seed, message", [
        (True, "seed is True, but must be an integer"),
        (1.5, "seed is 1.5, but must be an integer"),
        ("3", "seed is '3', but must be an integer"),
        (-1, "seed is -1, but must be nonnegative"),
    ], ids=["bool", "float", "string", "negative"])
    def test_seed_must_be_a_nonnegative_integer(self, seed, message):
        """Not True run as seed 1, nor NumPy's message from SeedSequence."""
        with pytest.raises(ValueError, match=message):
            run_trajectory(self.config("stochastic"), seed_state(), seed)

    def test_numpy_integer_seed_runs_as_the_int(self):
        cfg = self.config("open-loop")
        a = run_trajectory(cfg, seed_state(), np.int64(7))
        b = run_trajectory(cfg, seed_state(), 7)
        assert a.outcome.tobytes() == b.outcome.tobytes()

    BAD_STATES = {
        "trace-2": (2 * np.eye(8), "rho0 is not a density matrix"),
        "negative": (-np.eye(8) / 8, "rho0 is not a density matrix"),
        "4x4": (np.eye(4) / 4, r"rho0 has shape \(4, 4\), but p has dimension 8"),
    }

    @pytest.mark.parametrize("entry", ["run_trajectory", "run_ensemble"])
    @pytest.mark.parametrize("bad", sorted(BAD_STATES))
    def test_rho0_must_be_a_density_matrix_of_the_config(self, bad, entry):
        """Not a run that logs fidelity 2.0, nor a failure deep in the sampler."""
        rho0, message = self.BAD_STATES[bad]
        with pytest.raises(ValueError, match=message):
            if entry == "run_trajectory":
                run_trajectory(self.config("stochastic"), rho0, 0)
            else:
                run_ensemble(self.config("stochastic"), rho0, 2, 0)


class TestStochasticLoop:
    def test_same_seed_reproduces(self):
        cfg = stochastic_config()
        t1 = run_trajectory(cfg, seed_state(), 123)
        t2 = run_trajectory(cfg, seed_state(), 123)
        assert np.array_equal(t1.fidelity, t2.fidelity)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.outcome, t2.outcome)

    def test_different_seeds_differ(self):
        cfg = stochastic_config()
        t1 = run_trajectory(cfg, seed_state(), 1)
        t2 = run_trajectory(cfg, seed_state(), 2)
        assert not np.array_equal(t1.outcome, t2.outcome)

    def test_stops_at_threshold(self):
        cfg = stochastic_config(steps=2000)
        t = run_trajectory(cfg, seed_state(), 5)
        if t.first_hit is not None:
            assert t.steps_run == t.first_hit

    def test_log_lengths_consistent(self):
        cfg = stochastic_config(steps=50, stop_at_threshold=False)
        t = run_trajectory(cfg, seed_state(), 9)
        assert t.fidelity.size == 51
        assert t.u.size == 50
        assert t.outcome.size == 50

    def test_final_state_always_recorded(self):
        cfg = stochastic_config(steps=123, stop_at_threshold=False)
        t = run_trajectory(cfg, seed_state(), 9)
        assert list(t.states) == [123]
        assert np.trace(t.states[123]).real == pytest.approx(1.0, abs=1e-9)

    def test_exact_min_controller_runs(self):
        cfg = stochastic_config(
            steps=15,
            controller=ControllerConfig(kind="exact-min", u_bar=0.1),
            stop_at_threshold=False,
        )
        t = run_trajectory(cfg, seed_state(), 3)
        assert t.steps_run == 15


class TestIndistinguishablePairObstruction:
    """theta = pi/4 cannot tell levels (n, n+4) apart; pi/10 can.

    The pair state 0.98|2><2| + 0.02|6><6| has slope b = 0 and curvature
    a > 0 under the quadratic law, so u = 0; only the measurement can move it.
    """

    @pytest.fixture(scope="class")
    def h1(self):
        res = solve_synthesis(SynthesisProblem(sigma=observable8()))
        return hamiltonian_of_r(res.r, "positive")

    @staticmethod
    def pair_state():
        rho = np.zeros((8, 8), dtype=complex)
        rho[2, 2] = 0.98
        rho[6, 6] = 0.02
        return rho

    @staticmethod
    def loop(h1, theta):
        return LoopConfig(
            mode="stochastic",
            p=observable8(),
            h1=h1,
            meas=photon_box(8, 1 / 8, theta),
            controller=ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=0.0),
            steps=1000,
        )

    def test_pair_state_is_a_controller_fixed_point(self, h1):
        cfg = ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=0.0)
        law = QuadraticLaw(observable8(), h1, cfg)
        a, b = law.coefficients(self.pair_state()[None])
        assert b[0] == 0.0
        assert a[0] > 0.0
        u = law.choose(a, b)
        assert u[0] == 0.0
        assert not np.signbit(u[0])

    def test_frozen_run_logs_no_negative_zero(self, h1, tmp_path):
        t = run_trajectory(self.loop(h1, np.pi / 4), self.pair_state(), 0)
        assert not np.any(np.signbit(t.u))
        path = tmp_path / "frozen.csv"
        write_trajectories_csv(path, [t])
        rows = path.read_text().splitlines()[2:]
        assert all(row.split(",")[2] in ("0", "") for row in rows)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quarter_pi_freezes_pair_state(self, h1, seed):
        t = run_trajectory(self.loop(h1, np.pi / 4), self.pair_state(), seed)
        assert t.steps_run == 1000
        assert np.all(t.u == 0.0)
        assert np.max(np.abs(t.fidelity - 0.98)) <= 1e-12
        assert t.first_hit is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tenth_pi_resolves_pair_state(self, h1, seed):
        t = run_trajectory(self.loop(h1, np.pi / 10), self.pair_state(), seed)
        assert t.first_hit is not None
        assert t.final_fidelity >= 0.99

    @pytest.mark.parametrize("mu", [0, 1])
    def test_quarter_pi_outcomes_flip_pair_coherence(self, mu):
        rho = self.pair_state()
        rho[2, 6] = rho[6, 2] = 0.1
        post = photon_box(8, 1 / 8, np.pi / 4).apply_outcomes(np.array([mu]), rho[None])[0]
        flipped = rho.copy()
        flipped[2, 6] = flipped[6, 2] = -0.1
        assert np.allclose(post, flipped, atol=1e-12)


class TestOpenLoop:
    def test_diagonal_weights_form_martingale(self):
        """Per-level populations averaged over many runs stay near rho0's."""
        cfg = LoopConfig(
            mode="open-loop",
            p=observable8(),
            h1=np.zeros((8, 8)),
            meas=photon_box(8, 1 / 8, np.pi / 10),
            steps=60,
            stop_at_threshold=False,
        )
        res = run_ensemble(cfg, seed_state(), 300, 77)
        mean_final = np.zeros(8)
        for t in res.trajectories:
            mean_final += np.real(np.diag(t.states[max(t.states)]))
        mean_final /= 300
        assert np.max(np.abs(mean_final - np.real(np.diag(seed_state())))) < 0.1

    def test_purity_never_decreases_markedly(self):
        cfg = LoopConfig(
            mode="open-loop",
            p=observable8(),
            h1=np.zeros((8, 8)),
            meas=photon_box(8, 1 / 8, np.pi / 10),
            steps=300,
            stop_at_threshold=False,
        )
        t = run_trajectory(cfg, np.diag(np.full(8, 0.125)).astype(complex), 13)
        assert t.purity[-1] >= t.purity[0] - 1e-9


class TestOpenLoopReplay:
    """The open loop against its replay on the full state, over random systems."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 4),
           real=st.booleans(), empty_level=st.booleans(), steps=st.integers(1, 160))
    def test_matches_the_replay(self, seed, dim, m, real, empty_level, steps):
        """Outcomes, fidelity, Lyapunov, first_hit, absorbed_state and steps_run bit for bit.

        Purity and the final state agree within 1e-12, and every final state
        is a density matrix.  The early stop is on, so the realizations of an
        ensemble end at different steps; complex coefficients, or real ones
        of both signs, and a rho0 of random rank, with one level emptied in
        half of the examples.
        """
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        if real:
            meas = QndMeasurement(np.abs(meas.coeffs) * rng.choice([-1.0, 1.0], (m, dim)))
        sigma = rng.uniform(0.0, 10.0, dim)
        rho0 = random_mixed_density(rng, dim)
        if empty_level:
            level = int(rng.integers(dim))
            rho0[level, :] = rho0[:, level] = 0.0
            rho0 /= np.trace(rho0).real
        cfg = LoopConfig(mode="open-loop", p=DiagonalObservable(sigma, int(np.argmin(sigma))),
                         h1=np.zeros((dim, dim)), meas=meas, steps=steps, fidelity_threshold=0.9)
        ens = run_ensemble(cfg, rho0, 4, seed)
        for i, t in enumerate(ens.trajectories):
            ref = replay_open_loop(cfg, rho0, derive_seed(seed, i), t.outcome.astype(int))
            for key in ("outcome", "fidelity", "lyapunov"):
                assert getattr(t, key).tobytes() == ref[key].tobytes(), key
            assert (t.first_hit, t.absorbed_state, t.steps_run) == (
                ref["first_hit"], ref["absorbed_state"], ref["steps_run"])
            assert np.allclose(t.purity, ref["purity"], rtol=0.0, atol=1e-12)
            final = t.states[t.steps_run]
            assert np.allclose(final, ref["state"], rtol=0.0, atol=1e-12)
            assert density_violations(final) == []


class TestMeasuredReplay:
    """The stochastic loop against its replay on the full state, over random systems."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), m=st.integers(2, 4),
           kind=st.sampled_from(["quadratic", "exact-min"]), steps=st.integers(1, 160))
    def test_matches_the_replay(self, seed, dim, m, kind, steps):
        """Every logged fidelity, Lyapunov value and purity within 1e-12 of the replay.

        Every logged u is the law's control at the replayed post-measurement
        state, to 1e-7: where exact-min's objective is flat at its minimum,
        rounding moves the argmin, by up to 1.1e-8 over 400 random runs.
        Random measurements with complex coefficients; the early stop is
        on, so the realizations of an ensemble end at different steps, and
        runs of up to 160 steps cross the log's blocks of 50 states.
        """
        rng = np.random.default_rng(seed)
        meas = random_measurement(rng, m, dim)
        sigma = rng.uniform(0.0, 10.0, dim)
        cfg = LoopConfig(mode="stochastic", p=DiagonalObservable(sigma, int(np.argmin(sigma))),
                         h1=random_hermitian(rng, dim), meas=meas,
                         controller=ControllerConfig(kind=kind, u_bar=0.2), steps=steps,
                         fidelity_threshold=0.9)
        rho0 = random_mixed_density(rng, dim)
        for t in run_ensemble(cfg, rho0, 4, seed).trajectories:
            ref = replay_measured(cfg, rho0, t.outcome, t.u)
            for key in ("fidelity", "lyapunov", "purity"):
                assert np.allclose(getattr(t, key), ref[key], rtol=0.0, atol=1e-12), key
            assert np.allclose(t.u, ref["u"], rtol=0.0, atol=1e-7)


def open_loop_config():
    """Criterion 6's open loop, 60 steps with the early stop off."""
    return LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                      meas=photon_box(8, 1 / 8, np.pi / 10), steps=60, stop_at_threshold=False)


class TestOpenLoopChecks:
    """Broken populations or final states abort the open loop by step and realization."""

    @pytest.mark.parametrize("broken, error, message", [
        ([np.nan], ValueError, r"state broke at step 50 in realization 2: .*NaN or Inf"),
        ([1.5, -0.5], RuntimeError,
         r"state invariants violated at step 50 in realization 2: \[\('positivity', 0\.5"),
    ], ids=["nan", "negative"])
    def test_broken_populations_abort_at_the_renormalization(self, monkeypatch, broken, error,
                                                               message):
        original = simulate._ClosedForm.collapse
        calls = []

        def collapse(self, d, mu, p):
            out = original(self, d, mu, p)
            calls.append(None)
            if len(calls) == 50:
                out[2] = 0.0
                out[2, :len(broken)] = broken
            return out

        monkeypatch.setattr(simulate._ClosedForm, "collapse", collapse)
        with pytest.raises(error, match=message):
            run_ensemble(open_loop_config(), seed_state(), 4, 0)

    def test_broken_final_state_aborts(self, monkeypatch):
        original = simulate._ClosedForm.states

        def states(self, d, outcome, steps_run):
            out = original(self, d, outcome, steps_run)
            out[1] = trace_one_not_positive(out[1])
            return out

        monkeypatch.setattr(simulate._ClosedForm, "states", states)
        with pytest.raises(RuntimeError, match=r"at step 60 in realization 1: \[\('positivity'"):
            run_ensemble(open_loop_config(), seed_state(), 3, 0)

    def test_csv_identical_alone_and_in_an_ensemble(self, tmp_path):
        """Purity, logged in blocks of populations, has the same bits whatever the stack."""
        cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                         meas=complex_box(), steps=120)
        rho0 = seed_state_without(4)
        ensemble = run_ensemble(cfg, rho0, 6, 9).trajectories
        alone = [run_trajectory(cfg, rho0, derive_seed(9, i)) for i in range(6)]
        assert len({t.steps_run for t in ensemble}) > 1
        blobs = []
        for j, trajectories in enumerate([ensemble, alone]):
            path = tmp_path / f"{j}.csv"
            write_trajectories_csv(path, trajectories, cfg_hash="x", master_seed=9)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestDeterministicLoop:
    def test_diagonal_states_stationary(self):
        rng = np.random.default_rng(21)
        cfg = LoopConfig(
            mode="deterministic",
            p=observable8(),
            h1=coupling8(rng),
            h0=np.diag(rng.uniform(0, 2 * np.pi, 8)).astype(complex),
            controller=ControllerConfig(kind="linear", kappa=0.05),
            steps=100,
            stop_at_threshold=False,
        )
        rho0 = np.diag(rng.dirichlet(np.ones(8))).astype(complex)
        t = run_trajectory(cfg, rho0)
        assert np.max(np.abs(t.u)) <= 1e-12
        assert np.allclose(t.fidelity, t.fidelity[0], atol=1e-9)

    def test_requires_linear_controller(self):
        message = "^loop.mode is 'deterministic', which the quadratic controller cannot run"
        with pytest.raises(ValueError, match=message):
            LoopConfig(
                mode="deterministic",
                p=observable8(),
                h1=coupling8(),
                h0=np.zeros((8, 8)),
                controller=ControllerConfig(kind="quadratic"),
            )

    def test_vanishing_feedback_logs_positive_zero(self, tmp_path):
        """A real start state makes Tr([P, H1] rho) vanish; u must be +0.0."""
        u = LinearLaw(observable8(), star_h1(), 0.05).controls(seed_state()[None])
        assert u[0] == 0.0 and not np.signbit(u[0])
        t = parity_case("deterministic")
        assert t.u[0] == 0.0 and not np.any(np.signbit(t.u[t.u == 0.0]))
        path = tmp_path / "det.csv"
        write_trajectories_csv(path, [t])
        rows = path.read_text().splitlines()[2:]
        assert all(row.split(",")[2] != "-0" for row in rows)


class TestEnsemble:
    @pytest.mark.parametrize("n_realizations, master_seed, name", [
        (True, 0, "n_realizations is True"),
        (2.0, 0, "n_realizations is 2.0"),
        (3, 1.5, "master_seed is 1.5"),
        (3, True, "master_seed is True"),
    ], ids=["realizations-true", "realizations-float", "seed-float", "seed-true"])
    def test_counts_must_be_integers(self, n_realizations, master_seed, name):
        """Refused by name, where int() would run 1 realization or master seed 1."""
        with pytest.raises(ValueError, match=f"{name}, but must be an integer"):
            run_ensemble(open_loop_config(), seed_state(), n_realizations, master_seed)

    def test_numpy_integer_counts_run(self):
        res = run_ensemble(open_loop_config(), seed_state(), np.int64(2), np.int64(5))
        ref = run_ensemble(open_loop_config(), seed_state(), 2, 5)
        assert res.realizations == 2
        assert np.array_equal(res.final_fidelity, ref.final_fidelity)

    def test_thread_count_invariance(self):
        """A rerun, and each realization run alone, repeat the ensemble exactly."""
        cfg = stochastic_config(steps=120)
        r1 = run_ensemble(cfg, seed_state(), 12, 42)
        r2 = run_ensemble(cfg, seed_state(), 12, 42)
        alone = [run_trajectory(cfg, seed_state(), derive_seed(42, i)) for i in range(12)]
        assert np.array_equal(r1.final_fidelity, r2.final_fidelity)
        assert np.array_equal(r1.first_hit, r2.first_hit)
        for a, b, c in zip(r1.trajectories, r2.trajectories, alone, strict=True):
            for other in (b, c):
                assert np.array_equal(a.u, other.u)
                assert np.array_equal(a.outcome, other.outcome)
                assert np.array_equal(a.fidelity, other.fidelity)

    def test_mean_curves_have_full_length(self):
        cfg = stochastic_config(steps=100)
        res = run_ensemble(cfg, seed_state(), 5, 1)
        assert res.mean_fidelity_curve.size == 101
        assert res.mean_lyapunov_curve.size == 101

    @pytest.mark.parametrize("mode", ["stochastic", "open-loop"])
    def test_results_agree_with_the_trajectories(self, mode):
        """Every per-realization result and aggregate follows from the trajectories.

        In both ensembles some realizations stop early and others run out of
        steps, and some are absorbed and others not; the stochastic one's
        threshold lies above ABSORB_THRESHOLD, so a hit is an absorption.  The mean curves are the sums, in index
        order, of the curves held at their last value, divided by n.
        """
        if mode == "stochastic":
            cfg, n = stochastic_config(steps=200, fidelity_threshold=0.9995), 12
        else:
            cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                             meas=photon_box(8, 1 / 8, np.pi / 10), steps=120)
            n = 16
        res = run_ensemble(cfg, seed_state(), n, 6)
        trajectories = res.trajectories
        steps = [t.steps_run for t in trajectories]
        assert min(steps) < cfg.steps == max(steps)
        assert np.array_equal(res.final_fidelity, [t.final_fidelity for t in trajectories])
        assert res.first_hit.tolist() == [-1 if t.first_hit is None else t.first_hit
                                          for t in trajectories]
        levels = [t.absorbed_state for t in trajectories]
        assert res.absorbed_state.tolist() == [-1 if a is None else a for a in levels]
        assert res.unabsorbed == levels.count(None) > 0
        assert res.hit_histogram.tolist() == [levels.count(k) for k in range(8)]
        assert res.hit_histogram.sum() > 0
        for t in trajectories:
            hits = np.flatnonzero(t.fidelity >= cfg.fidelity_threshold)
            assert t.first_hit == (int(hits[0]) if hits.size else None)
            diag = t.states[t.steps_run].diagonal().real
            assert t.absorbed_state == (int(np.argmax(diag)) if diag.max() >= 0.999 else None)
        for name in ("fidelity", "lyapunov"):
            total = np.zeros(cfg.steps + 1)
            for t in trajectories:
                curve = getattr(t, name)
                total += np.concatenate([curve, np.full(cfg.steps + 1 - curve.size, curve[-1])])
            assert np.array_equal(getattr(res, f"mean_{name}_curve"), total / n), name

    @pytest.mark.parametrize("mode", ["stochastic", "open-loop"])
    def test_early_stopped_rows_keep_only_their_used_logs(self, mode):
        """Every logged array is a copy of its used part, here with some rows stopped early.

        No Trajectory array, and not final_fidelity, shares memory with
        another's, so no unused tail of the log stays alive; every value
        keeps the bits of the log it came from.
        """
        if mode == "stochastic":
            cfg, n = stochastic_config(steps=200, fidelity_threshold=0.9995), 12
        else:
            cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                             meas=photon_box(8, 1 / 8, np.pi / 10), steps=120)
            n = 16
        log = simulate._run(cfg, seed_state(), [derive_seed(6, i) for i in range(n)])
        res = run_ensemble(cfg, seed_state(), n, 6)
        steps = [t.steps_run for t in res.trajectories]
        assert min(steps) < cfg.steps == max(steps)
        names = ("u", "outcome", "fidelity", "lyapunov", "purity")
        arrays = [res.final_fidelity]
        for r, t in enumerate(res.trajectories):
            s = t.steps_run
            for name in names:
                got = getattr(t, name)
                want = getattr(log, name)[r, :s + (name not in ("u", "outcome"))]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (r, name)
                arrays.append(got)
        assert np.array_equal(res.final_fidelity.view(np.uint64),
                              log.fidelity[:, -1].view(np.uint64))
        assert all(a.base is None for a in arrays)
        for k, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[k + 1:]), k
        # Taking the trajectories spends the log: a later read fails by name.
        log.take_trajectories()
        with pytest.raises(AttributeError, match="fidelity"):
            log.fidelity

    def test_requires_realizations(self):
        with pytest.raises(ValueError):
            run_ensemble(stochastic_config(), seed_state(), 0, 1)

    def test_deterministic_mode_is_refused(self):
        """An ensemble varies the random streams, which the deterministic loop has not."""
        cfg = LoopConfig(mode="deterministic", p=observable8(), h1=star_h1(),
                         h0=np.zeros((8, 8)), controller=ControllerConfig(kind="linear"), steps=5)
        message = "^ensembles are not defined for mode 'deterministic'$"
        with pytest.raises(ValueError, match=message):
            run_ensemble(cfg, seed_state(), 2, 0)


def nan_off_diagonal(rho):
    rho = rho.copy()
    rho[0, 1] = np.nan
    return rho


class TestRevalidation:
    """A state that breaks mid-run aborts the run, naming the step and realization."""

    @pytest.mark.parametrize("broken, error, message", [
        (nan_off_diagonal, ValueError,
         r"state broke at step 50 in realization 2: .*NaN or Inf"),
        (trace_one_not_positive, RuntimeError,
         r"state invariants violated at step 50 in realization 2: \[\('positivity', 0\.5"),
    ], ids=["nan-off-diagonal", "trace-one-not-positive"])
    def test_broken_row_aborts(self, monkeypatch, broken, error, message):
        break_state(monkeypatch, 2, broken)
        with pytest.raises(error, match=message):
            run_ensemble(stochastic_config(steps=60, stop_at_threshold=False),
                         seed_state(), 4, 0)

    def test_flagged_row_aborts_without_a_report(self, monkeypatch):
        """The batched check's finding stands even when the per-state report is empty."""
        break_state(monkeypatch, 2, trace_one_not_positive)
        monkeypatch.setattr(simulate, "density_violations", lambda rho: [])
        with pytest.raises(RuntimeError, match="at step 50 in realization 2: trace or positivity"):
            run_ensemble(stochastic_config(steps=60, stop_at_threshold=False),
                         seed_state(), 4, 0)


def star_h1():
    """Star coupling on n* = 2 with lambda_tilde = (-1, ..., 7, ...), in closed form.

    It does not depend on the synthesis solver, so the recorded trajectories
    below stay valid when the solver changes.
    """
    h1 = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        if i != 2:
            h1[i, 2] = h1[2, i] = np.sqrt(0.5 / (SIGMA8[i] - SIGMA8[2]))
    return h1


def parity_case(name):
    """Run one fixed-seed engine case of ``engine_parity.json``."""
    kind, _, variant = name.partition(":")
    stop = variant != "nostop"
    quad = ControllerConfig(kind="quadratic", u_bar=0.1)
    pi10 = photon_box(8, 1 / 8, np.pi / 10)
    if kind in ("quadratic-pi4", "quadratic-pi10"):
        theta = np.pi / 4 if kind == "quadratic-pi4" else np.pi / 10
        cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(),
                         meas=photon_box(8, 1 / 8, theta), controller=quad,
                         steps=300, stop_at_threshold=stop)
        return run_trajectory(cfg, seed_state(), 0 if kind == "quadratic-pi4" else 2)
    if kind == "quadratic-eps5":
        ctrl = ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=5.0)
        cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(),
                         meas=pi10, controller=ctrl, steps=300)
        # A diagonal start makes the first decision a flat concave tie (+u_bar).
        return run_trajectory(cfg, np.diag(np.diag(seed_state())), 2)
    if kind == "exact-min":
        cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(), meas=pi10,
                         controller=ControllerConfig(kind="exact-min", u_bar=0.1),
                         steps=10, stop_at_threshold=False)
        return run_trajectory(cfg, seed_state(), 3)
    if kind == "open-loop":
        cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                         meas=pi10, steps=300, stop_at_threshold=stop)
        return run_trajectory(cfg, seed_state(), 1)
    if kind == "open-loop-complex":
        # Complex coefficients from a rho0 with level 4 empty.  Seed 4
        # absorbs level 6 at step 295; seed 5 ends with coherences near 0.5.
        cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                         meas=complex_box(), steps=300, stop_at_threshold=stop)
        return run_trajectory(cfg, seed_state_without(4), 4 if stop else 5)
    if kind == "deterministic":
        cfg = LoopConfig(mode="deterministic", p=observable8(), h1=star_h1(),
                         h0=np.diag(np.linspace(0.0, 3.0, 8)).astype(complex),
                         controller=ControllerConfig(kind="linear", kappa=0.05),
                         steps=300)
        return run_trajectory(cfg, seed_state())
    raise KeyError(name)


def parity_record(t):
    """What the parity test compares: integers exactly, floats to 1e-12."""
    final = t.states[max(t.states)]
    return {
        "outcomes": "".join("" if np.isnan(m) else str(int(m)) for m in t.outcome),
        "first_hit": t.first_hit,
        "absorbed_state": t.absorbed_state,
        "steps_run": t.steps_run,
        "u": float(t.u[-1]),
        "fidelity": float(t.fidelity[-1]),
        "lyapunov": float(t.lyapunov[-1]),
        "purity": float(t.purity[-1]),
        "state_re": final.real.tolist(),
        "state_im": final.imag.tolist(),
    }


PARITY = json.loads((Path(__file__).parent / "engine_parity.json").read_text())


class TestFixedSeedParity:
    """The engine reproduces outputs recorded from the original hand-written loops."""

    @pytest.mark.parametrize("name", sorted(PARITY))
    def test_matches_recording(self, name):
        t = parity_case(name)
        got, want = parity_record(t), PARITY[name]
        assert got.keys() == want.keys()
        for key in ("outcomes", "first_hit", "absorbed_state", "steps_run"):
            assert got[key] == want[key], key
        for key in got.keys() - {"outcomes", "first_hit", "absorbed_state", "steps_run"}:
            assert np.allclose(got[key], want[key], rtol=0.0, atol=1e-12), key
        if name == "deterministic":
            assert t.outcome.size == t.steps_run and np.all(np.isnan(t.outcome))


class TestFinalLog:
    """The last logged values are those of the final state, in every mode."""

    def test_last_logged_values_match_final_state(self):
        p = observable8()
        # Early stop on: the ensemble's realizations end at different steps.
        ensemble = run_ensemble(stochastic_config(steps=400), seed_state(), 8, 3).trajectories
        for t in ensemble + [parity_case(name) for name in sorted(PARITY)]:
            final = t.states[t.steps_run]
            assert t.fidelity[-1] == pytest.approx(fidelity_to_basis(final, p.n_star),
                                                   rel=1e-14, abs=1e-14)
            assert t.lyapunov[-1] == pytest.approx(lyapunov_v(p, final), rel=1e-14, abs=1e-14)
            assert t.purity[-1] == pytest.approx(purity(final), rel=1e-14, abs=1e-14)
        assert len({t.steps_run for t in ensemble}) > 1


class TestInvariantsAlongTrajectories:
    """Along random systems' trajectories, every logged value stays where the theory puts it."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           kind=st.sampled_from(["quadratic", "exact-min"]))
    def test_logged_values_and_final_states(self, seed, dim, kind):
        """Fidelity in [0, 1], purity in [1/n, 1], V in [min sigma, max sigma], to 1e-12."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        sigma = rng.uniform(0.0, 10.0, dim)
        cfg = LoopConfig(
            mode="stochastic", p=DiagonalObservable(sigma, int(np.argmin(sigma))),
            h1=random_hermitian(rng, dim), meas=random_measurement(rng, m, dim),
            controller=ControllerConfig(kind=kind, u_bar=0.3), steps=100,
            stop_at_threshold=False)
        ens = run_ensemble(cfg, random_density(rng, dim), 3, seed)
        tol = 1e-12

        def within(x, lo, hi):
            return bool(np.all((lo - tol <= x) & (x <= hi + tol)))

        for t in ens.trajectories:
            assert t.steps_run == 100
            assert within(t.fidelity, 0.0, 1.0)
            assert within(t.purity, 1.0 / dim, 1.0)
            assert within(t.lyapunov, sigma.min(), sigma.max())
            assert np.all(np.isin(t.outcome, np.arange(m)))
            assert density_violations(t.states[t.steps_run]) == []


class TestSignFlippedBasis:
    """D H1 D from rho0 runs as H1 from D rho0 D, to the bit, with D = diag((-1)^i).

    D commutes with P, with every diagonal Kraus operator and with a
    diagonal H0, and conjugating by it only flips the sign of the entries
    with i + j odd, so both runs make the same IEEE operations on operands
    that differ at most in sign: the same draws, controls and logs, and
    final states that are each other's conjugates by D (equal in value; a
    zero may come out with the other sign).  A phase choice of H1 that
    differs from another by D therefore brings no new dynamics.
    """

    @staticmethod
    def assert_same_runs(flipped, plain, d):
        for name in ("u", "outcome", "fidelity", "lyapunov", "purity"):
            a, b = getattr(flipped, name), getattr(plain, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (flipped.first_hit, flipped.absorbed_state) == (plain.first_hit,
                                                               plain.absorbed_state)
        steps = flipped.steps_run
        assert np.array_equal(flipped.states[steps], d[:, None] * plain.states[steps] * d)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 24))
    def test_d_h1_d_runs_as_h1_from_d_rho0_d(self, seed, n):
        rng = np.random.default_rng(seed)
        sigma = rng.permutation(rng.uniform(0.0, 50.0, n))
        p = DiagonalObservable(sigma, int(np.argmin(sigma)))
        h1 = hamiltonian_of_r(solve_synthesis(SynthesisProblem(sigma=p)).r, "positive")
        d = (-1.0) ** np.arange(n)
        h1_d = d[:, None] * h1 * d
        rho0 = random_mixed_density(rng, n)
        rho0_d = d[:, None] * rho0 * d
        meas = photon_box(n, 1 / 8, rng.uniform(0.0, np.pi))
        for kind in ("quadratic", "exact-min"):
            controller = ControllerConfig(kind=kind, u_bar=0.2)
            cfg, cfg_d = (LoopConfig(mode="stochastic", p=p, h1=h, meas=meas,
                                     controller=controller, steps=30, fidelity_threshold=0.9)
                          for h in (h1, h1_d))
            plain = run_ensemble(cfg, rho0_d, 3, seed)
            flipped = run_ensemble(cfg_d, rho0, 3, seed)
            for a, b in zip(flipped.trajectories, plain.trajectories, strict=True):
                self.assert_same_runs(a, b, d)
        h0 = np.diag(rng.uniform(0.0, 2 * np.pi, n)).astype(complex)
        cfg, cfg_d = (LoopConfig(mode="deterministic", p=p, h1=h, h0=h0,
                                 controller=ControllerConfig(kind="linear", kappa=0.05),
                                 steps=40) for h in (h1, h1_d))
        self.assert_same_runs(run_trajectory(cfg_d, rho0), run_trajectory(cfg, rho0_d), d)


class TestArtifacts:
    def test_config_hash_stable_and_order_free(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_csv_round_trip(self, tmp_path):
        cfg = stochastic_config(steps=40)
        res = run_ensemble(cfg, seed_state(), 3, 4)
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, res.trajectories, cfg_hash="abc", master_seed=4)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=abc master_seed=4")
        assert lines[1] == "realization,k,u,outcome,fidelity,lyapunov,purity"
        expected_rows = sum(t.fidelity.size for t in res.trajectories)
        assert len(lines) == 2 + expected_rows

    def test_csv_format_is_pinned(self, tmp_path):
        """Hand-built rows: NaN outcomes, empty final cells, +0.0 and 17 digits."""

        def traj(u, outcome, fidelity, lyapunov, purity):
            return Trajectory(u=np.array(u), outcome=np.array(outcome),
                              fidelity=np.array(fidelity), lyapunov=np.array(lyapunov),
                              purity=np.array(purity), states={}, first_hit=None,
                              absorbed_state=None)

        trajectories = [
            # Deterministic: no outcome on any row.
            traj([0.1, 0.0], [np.nan, np.nan], [1 / 3, 0.5, 0.7],
                 [10.000000000000002, 1e-20, 3.0], [1.0, 1 - 2**-53, 2 / 3]),
            traj([-0.1], [1.0], [0.25, 0.99], [123.456, 7.0], [0.5, 1.0]),
        ]
        path = tmp_path / "golden.csv"
        write_trajectories_csv(path, trajectories, cfg_hash="0123abcd", master_seed=7)
        assert path.read_text() == (
            "# config_hash=0123abcd master_seed=7 index_convention=0-based\n"
            "realization,k,u,outcome,fidelity,lyapunov,purity\n"
            "0,0,0.10000000000000001,,0.33333333333333331,10.000000000000002,1\n"
            "0,1,0,,0.5,9.9999999999999995e-21,0.99999999999999989\n"
            "0,2,,,0.69999999999999996,3,0.66666666666666663\n"
            "1,0,-0.10000000000000001,1,0.25,123.456,0.5\n"
            "1,1,,,0.98999999999999999,7,1\n"
        )

    def test_csv_identical_for_same_run(self, tmp_path):
        """Two ensemble runs and the six realizations run alone write the same bytes."""
        cfg = stochastic_config(steps=40)
        runs = [run_ensemble(cfg, seed_state(), 6, 9).trajectories for _ in range(2)]
        runs.append([run_trajectory(cfg, seed_state(), derive_seed(9, i)) for i in range(6)])
        blobs = []
        for j, trajectories in enumerate(runs):
            path = tmp_path / f"{j}.csv"
            write_trajectories_csv(path, trajectories, cfg_hash="x", master_seed=9)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
