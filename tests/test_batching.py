"""Property tests: a realization's trajectory does not depend on its batch
or on its step budget.

``run_ensemble`` advances every realization as one stack; each realization
must come out bit for bit as it does when run alone through
``run_trajectory`` with the same stream, and its first steps must not change
when the budget grows.  Systems are drawn at random: dimension 2-16 (2-8
under the budget test), a random QND measurement, random H1, sigma and
mixed initial state.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    derive_seed,
    photon_box,
    run_ensemble,
    run_trajectory,
)
from qfcontrol.core import density_violations
from helpers import random_measurement
from test_simulate import observable8, seed_state, star_h1

CONTROLLERS = {
    "quadratic": ControllerConfig(kind="quadratic", u_bar=0.3),
    "quadratic-eps2": ControllerConfig(kind="quadratic", u_bar=0.3, epsilon=2.0),
    "exact-min": ControllerConfig(kind="exact-min", u_bar=0.3),
}


def random_system(seed, dim, law, stop, diagonal_start):
    """A LoopConfig and initial state drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    meas = random_measurement(rng, int(rng.integers(2, 5)), dim)
    sigma = rng.uniform(0.0, 10.0, dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rank = (dim, int(rng.integers(1, dim + 1)))
    g = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    rho0 = g @ g.conj().T
    # A diagonal state gives b = 0, so the quadratic laws meet flat concave
    # ties at step 0.
    if diagonal_start:
        rho0 = np.diag(np.diag(rho0))
    rho0 /= np.trace(rho0).real
    common = dict(
        p=DiagonalObservable(sigma, int(np.argmin(sigma))),
        meas=meas,
        fidelity_threshold=float(rng.uniform(0.5, 0.95)),
        stop_at_threshold=stop,
    )
    if law == "open-loop":
        cfg = LoopConfig(mode="open-loop", h1=np.zeros((dim, dim)), steps=40, **common)
    else:
        cfg = LoopConfig(mode="stochastic", h1=0.3 * (a + a.conj().T),
                         controller=CONTROLLERS[law], steps=40, **common)
    return cfg, rho0


def assert_same_as_alone(cfg, rho0, n_runs, master):
    alone = [run_trajectory(cfg, rho0, derive_seed(master, i)) for i in range(n_runs)]
    ens = run_ensemble(cfg, rho0, n_runs, master)
    for t, ref in zip(ens.trajectories, alone, strict=True):
        assert t.first_hit == ref.first_hit
        assert t.absorbed_state == ref.absorbed_state
        assert t.steps_run == ref.steps_run
        for name in ("u", "outcome", "fidelity", "lyapunov", "purity"):
            assert np.array_equal(getattr(t, name), getattr(ref, name)), name
        assert t.states.keys() == ref.states.keys()
        final = t.states[t.steps_run]
        assert np.array_equal(final, ref.states[ref.steps_run])
        assert density_violations(final) == []
    return alone


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    law=st.sampled_from(["open-loop", "quadratic", "quadratic-eps2", "exact-min"]),
    stop=st.booleans(),
    diagonal_start=st.booleans(),
    n_runs=st.integers(2, 8),
    master=st.integers(0, 2**64 - 1),
)
def test_batched_equals_alone(seed, dim, law, stop, diagonal_start, n_runs, master):
    cfg, rho0 = random_system(seed, dim, law, stop, diagonal_start)
    assert_same_as_alone(cfg, rho0, n_runs, master)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    law=st.sampled_from(["open-loop", "quadratic", "quadratic-eps2", "exact-min"]),
    stop=st.booleans(),
    n_runs=st.integers(1, 4),
    master=st.integers(0, 2**64 - 1),
    s1=st.integers(200, 300),
    extra=st.integers(1, 100),
)
def test_budget_does_not_change_the_steps_run(seed, dim, law, stop, n_runs, master, s1, extra):
    """Under budgets s1 < s2 a realization's logs agree up to s1 or its stop.

    The budgets fall on both sides of 256 steps.  A realization that stops
    before s1 stops at the same step under s2, in the same final state.
    """
    cfg, rho0 = random_system(seed, dim, law, stop, False)
    short = run_ensemble(replace(cfg, steps=s1), rho0, n_runs, master)
    long = run_ensemble(replace(cfg, steps=s1 + extra), rho0, n_runs, master)
    for a, b in zip(short.trajectories, long.trajectories, strict=True):
        s = a.steps_run
        if s < s1:
            assert b.steps_run == s
            assert (b.first_hit, b.absorbed_state) == (a.first_hit, a.absorbed_state)
            assert np.array_equal(b.states[s], a.states[s])
        for name in ("u", "outcome"):
            assert np.array_equal(getattr(b, name)[:s], getattr(a, name)), name
        for name in ("fidelity", "lyapunov", "purity"):
            assert np.array_equal(getattr(b, name)[:s + 1], getattr(a, name)), name


def test_stack_bookkeeping_equals_alone():
    """A fixed case that takes every bookkeeping path of the kernel at once.

    From a diagonal start 20 of the 24 realizations meet a flat concave tie
    at step 0 and take +u_bar; a pair stops at the same step (320); and the
    12 realizations still running at step 256 read their uniforms from a
    compacted stack after the other 12 have left.
    """
    ctrl = ControllerConfig(kind="quadratic", u_bar=0.3, epsilon=5.0)
    cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(),
                     meas=photon_box(8, 1 / 8, np.pi / 6), controller=ctrl, steps=400)
    alone = assert_same_as_alone(cfg, np.diag(np.diag(seed_state())), 24, 2)
    assert sum(t.u[0] == 0.3 for t in alone) == 20
    steps = sorted(t.steps_run for t in alone)
    assert steps.count(320) == 2 and steps[-1] == 400
    assert sum(s > 256 for s in steps) == 12
