"""Unit tests for the trajectory engines and the ensemble runner."""

import json
from pathlib import Path

import numpy as np
import pytest

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    SynthesisProblem,
    Trajectory,
    config_hash,
    derive_seed,
    hamiltonian_of_r,
    linear_feedback,
    photon_box,
    quadratic_feedback,
    run_deterministic,
    run_ensemble,
    run_filtered,
    run_open_loop,
    run_stochastic,
    solve_synthesis,
    write_trajectories_csv,
)
from qfcontrol.simulate import splitmix64

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


class TestStochasticLoop:
    def test_same_seed_reproduces(self):
        cfg = stochastic_config()
        t1 = run_stochastic(cfg, seed_state(), 123)
        t2 = run_stochastic(cfg, seed_state(), 123)
        assert np.array_equal(t1.fidelity, t2.fidelity)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.outcome, t2.outcome)

    def test_different_seeds_differ(self):
        cfg = stochastic_config()
        t1 = run_stochastic(cfg, seed_state(), 1)
        t2 = run_stochastic(cfg, seed_state(), 2)
        assert not np.array_equal(t1.outcome, t2.outcome)

    def test_stops_at_threshold(self):
        cfg = stochastic_config(steps=2000)
        t = run_stochastic(cfg, seed_state(), 5)
        if t.first_hit is not None:
            assert t.steps_run == t.first_hit

    def test_log_lengths_consistent(self):
        cfg = stochastic_config(steps=50, stop_at_threshold=False)
        t = run_stochastic(cfg, seed_state(), 9)
        assert t.fidelity.size == 51
        assert t.u.size == 50
        assert t.outcome.size == 50

    def test_final_state_always_recorded(self):
        cfg = stochastic_config(steps=123, stop_at_threshold=False)
        t = run_stochastic(cfg, seed_state(), 9)
        assert list(t.states) == [123]
        assert np.trace(t.states[123]).real == pytest.approx(1.0, abs=1e-9)

    def test_exact_min_controller_runs(self):
        cfg = stochastic_config(
            steps=15,
            controller=ControllerConfig(kind="exact-min", u_bar=0.1),
            stop_at_threshold=False,
        )
        t = run_stochastic(cfg, seed_state(), 3)
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
        d = quadratic_feedback(observable8(), h1, self.pair_state(), cfg)
        assert d.linear_coeff == 0.0
        assert d.quadratic_coeff > 0.0
        assert d.u == 0.0
        assert not np.signbit(d.u)

    def test_frozen_run_logs_no_negative_zero(self, h1, tmp_path):
        t = run_stochastic(self.loop(h1, np.pi / 4), self.pair_state(), 0)
        assert not np.any(np.signbit(t.u))
        path = tmp_path / "frozen.csv"
        write_trajectories_csv(path, [t])
        rows = path.read_text().splitlines()[2:]
        assert all(row.split(",")[2] in ("0", "") for row in rows)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quarter_pi_freezes_pair_state(self, h1, seed):
        t = run_stochastic(self.loop(h1, np.pi / 4), self.pair_state(), seed)
        assert t.steps_run == 1000
        assert np.all(t.u == 0.0)
        assert np.max(np.abs(t.fidelity - 0.98)) <= 1e-12
        assert t.first_hit is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tenth_pi_resolves_pair_state(self, h1, seed):
        t = run_stochastic(self.loop(h1, np.pi / 10), self.pair_state(), seed)
        assert t.first_hit is not None
        assert t.final_fidelity >= 0.99

    @pytest.mark.parametrize("mu", [0, 1])
    def test_quarter_pi_outcomes_flip_pair_coherence(self, mu):
        rho = self.pair_state()
        rho[2, 6] = rho[6, 2] = 0.1
        post = photon_box(8, 1 / 8, np.pi / 4).apply_outcome(mu, rho)
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
        t = run_open_loop(cfg, np.diag(np.full(8, 0.125)).astype(complex), 13)
        assert t.purity[-1] >= t.purity[0] - 1e-9


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
        t = run_deterministic(cfg, rho0)
        assert np.max(np.abs(t.u)) <= 1e-12
        assert np.allclose(t.fidelity, t.fidelity[0], atol=1e-9)

    def test_requires_linear_controller(self):
        cfg = LoopConfig(
            mode="deterministic",
            p=observable8(),
            h1=coupling8(),
            h0=np.zeros((8, 8)),
            controller=ControllerConfig(kind="quadratic"),
        )
        with pytest.raises(ValueError):
            run_deterministic(cfg, seed_state())

    def test_vanishing_feedback_logs_positive_zero(self, tmp_path):
        """A real start state makes Tr([P, H1] rho) vanish; u must be +0.0."""
        d = linear_feedback(observable8(), star_h1(), seed_state(), 0.05)
        assert d.u == 0.0 and not np.signbit(d.u)
        assert not np.signbit(d.linear_coeff)
        t = parity_case("deterministic")
        assert t.u[0] == 0.0 and not np.any(np.signbit(t.u[t.u == 0.0]))
        path = tmp_path / "det.csv"
        write_trajectories_csv(path, [t])
        rows = path.read_text().splitlines()[2:]
        assert all(row.split(",")[2] != "-0" for row in rows)


class TestFilteredLoop:
    def test_filter_converges_to_truth(self):
        """With informative measurements the estimate tracks the true state."""
        cfg = LoopConfig(
            mode="filtered",
            p=observable8(),
            h1=coupling8(),
            meas=photon_box(8, 1 / 8, np.pi / 10),
            controller=ControllerConfig(kind="quadratic", u_bar=0.1),
            steps=400,
            stop_at_threshold=False,
        )
        rho0 = seed_state()
        est0 = np.eye(8, dtype=complex) / 8
        t = run_filtered(cfg, rho0, est0, 31)
        assert t.trace_distance[-1] < t.trace_distance[0]


class TestEnsemble:
    def test_thread_count_invariance(self):
        """A rerun, and each realization run alone, repeat the ensemble exactly."""
        cfg = stochastic_config(steps=120)
        r1 = run_ensemble(cfg, seed_state(), 12, 42)
        r2 = run_ensemble(cfg, seed_state(), 12, 42)
        alone = [run_stochastic(cfg, seed_state(), derive_seed(42, i)) for i in range(12)]
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

    def test_requires_realizations(self):
        with pytest.raises(ValueError):
            run_ensemble(stochastic_config(), seed_state(), 0, 1)

    def test_rejects_filtered_mode(self):
        cfg = LoopConfig(mode="filtered", p=observable8(), h1=coupling8(),
                         meas=photon_box(8, 1 / 8, np.pi / 10))
        with pytest.raises(ValueError, match="not defined for mode 'filtered'"):
            run_ensemble(cfg, seed_state(), 3, 1)


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
        return run_stochastic(cfg, seed_state(), 0 if kind == "quadratic-pi4" else 2)
    if kind == "random-sign":
        ctrl = ControllerConfig(kind="quadratic", u_bar=0.1, epsilon=5.0,
                                tie_break="random-sign")
        cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(),
                         meas=pi10, controller=ctrl, steps=300)
        # A diagonal start makes the first decision a flat concave tie.
        return run_stochastic(cfg, np.diag(np.diag(seed_state())), 2)
    if kind == "exact-min":
        cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(), meas=pi10,
                         controller=ControllerConfig(kind="exact-min", u_bar=0.1),
                         steps=10, stop_at_threshold=False)
        return run_stochastic(cfg, seed_state(), 3)
    if kind == "open-loop":
        cfg = LoopConfig(mode="open-loop", p=observable8(), h1=np.zeros((8, 8)),
                         meas=pi10, steps=300, stop_at_threshold=stop)
        return run_open_loop(cfg, seed_state(), 1)
    if kind == "filtered":
        cfg = LoopConfig(mode="filtered", p=observable8(), h1=star_h1(), meas=pi10,
                         controller=quad, steps=300, stop_at_threshold=False)
        return run_filtered(cfg, seed_state(), np.eye(8, dtype=complex) / 8, 0)
    if kind == "deterministic":
        cfg = LoopConfig(mode="deterministic", p=observable8(), h1=star_h1(),
                         h0=np.diag(np.linspace(0.0, 3.0, 8)).astype(complex),
                         controller=ControllerConfig(kind="linear", kappa=0.05),
                         steps=300)
        return run_deterministic(cfg, seed_state())
    raise KeyError(name)


def parity_record(t):
    """What the parity test compares: integers exactly, floats to 1e-12."""
    final = t.states[max(t.states)]
    rec = {
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
    if t.estimate_fidelity is not None:
        rec["estimate_fidelity"] = float(t.estimate_fidelity[-1])
        rec["trace_distance"] = float(t.trace_distance[-1])
    return rec


PARITY = json.loads((Path(__file__).parent / "engine_parity.json").read_text())


class TestFixedSeedParity:
    """The engine reproduces outputs recorded from the four hand-written loops."""

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
        runs.append([run_stochastic(cfg, seed_state(), derive_seed(9, i)) for i in range(6)])
        blobs = []
        for j, trajectories in enumerate(runs):
            path = tmp_path / f"{j}.csv"
            write_trajectories_csv(path, trajectories, cfg_hash="x", master_seed=9)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
