"""Property test: a realization's trajectory does not depend on its batch.

``run_ensemble`` advances every realization as one stack; each realization
must come out bit for bit as it does when run alone through
``run_stochastic`` or ``run_open_loop`` with the same stream.  Systems are drawn at random: dimension 2-16, a random QND
measurement, random H1, sigma and mixed initial state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    QndMeasurement,
    derive_seed,
    photon_box,
    run_ensemble,
    run_open_loop,
    run_stochastic,
)
from qfcontrol.core import density_violations
from test_simulate import observable8, seed_state, star_h1

CONTROLLERS = {
    "quadratic": ControllerConfig(kind="quadratic", u_bar=0.3),
    "random-sign": ControllerConfig(kind="quadratic", u_bar=0.3, epsilon=2.0,
                                    tie_break="random-sign"),
    "exact-min": ControllerConfig(kind="exact-min", u_bar=0.3),
}


def random_system(seed, dim, law, stop, diagonal_start):
    """A LoopConfig and initial state drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    # Columns of |c|^2 on the simplex give completeness; phases are free.
    weights = rng.dirichlet(np.full(m, 0.5), size=dim).T
    coeffs = np.sqrt(weights) * np.exp(2j * np.pi * rng.random((m, dim)))
    sigma = rng.uniform(0.0, 10.0, dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rank = (dim, int(rng.integers(1, dim + 1)))
    g = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    rho0 = g @ g.conj().T
    # The random-sign tie needs b = 0, which a diagonal state gives: each
    # realization then ties at its own step and its stream runs ahead.
    if diagonal_start or law == "random-sign":
        rho0 = np.diag(np.diag(rho0))
    rho0 /= np.trace(rho0).real
    common = dict(
        p=DiagonalObservable(sigma, int(np.argmin(sigma))),
        meas=QndMeasurement(coeffs),
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
    run = run_open_loop if cfg.mode == "open-loop" else run_stochastic
    alone = [run(cfg, rho0, derive_seed(master, i)) for i in range(n_runs)]
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
    law=st.sampled_from(["open-loop", "quadratic", "random-sign", "exact-min"]),
    stop=st.booleans(),
    diagonal_start=st.booleans(),
    n_runs=st.integers(2, 8),
    master=st.integers(0, 2**64 - 1),
)
def test_batched_equals_alone(seed, dim, law, stop, diagonal_start, n_runs, master):
    cfg, rho0 = random_system(seed, dim, law, stop, diagonal_start)
    assert_same_as_alone(cfg, rho0, n_runs, master)


def test_stack_bookkeeping_equals_alone():
    """A fixed case that takes every bookkeeping path of the kernel at once.

    From a diagonal start 23 of the 24 realizations meet a random-sign tie
    and draw an extra number, so their streams run ahead of the 24th; two
    pairs stop at the same step (75 and 255); and the realizations still
    running past step 255 refill their buffers after others have left.
    """
    ctrl = ControllerConfig(kind="quadratic", u_bar=0.3, epsilon=5.0, tie_break="random-sign")
    cfg = LoopConfig(mode="stochastic", p=observable8(), h1=star_h1(),
                     meas=photon_box(8, 1 / 8, np.pi / 6), controller=ctrl, steps=400)
    alone = assert_same_as_alone(cfg, np.diag(np.diag(seed_state())), 24, 5)
    steps = sorted(t.steps_run for t in alone)
    assert steps.count(75) == 2 and steps.count(255) == 2 and steps[-1] == 400
