"""The measurement-free loop: linear feedback on a 4-level instance.

The deterministic loop applies exp(-i H0) exp(-i H1 u) with the linear law
u = i kappa Tr([P, H1] rho); when H0 is diagonal with distinct gaps mod 2 pi
and H1 couples every pair of levels, almost every pure initial state flows to
the minimum-energy level.  Diagonal states are exact equilibria (u = 0), so
convergence is "almost everywhere", not global.

Run:  python demos/05_deterministic_loop.py
"""

import numpy as np

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    assumption_report,
    run_trajectory,
)

rng = np.random.default_rng(5)

sig = np.array([7.1, 2.3, 9.4, 4.8])
p = DiagonalObservable(sig, n_star=1)
h0 = np.diag([0.31, 1.17, 2.43, 4.09]).astype(complex)
a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
h1 = 0.2 * (a + a.conj().T)

for name, check in assumption_report(p, h0=h0, h1=h1).items():
    print(f"{name}: {'pass' if check.passed else 'FAIL'}")

psi = rng.normal(size=4) + 1j * rng.normal(size=4)
psi /= np.linalg.norm(psi)
cfg = LoopConfig(
    mode="deterministic", p=p, h1=h1, h0=h0,
    controller=ControllerConfig(kind="linear", kappa=0.05),
    steps=10_000,
)
traj = run_trajectory(cfg, np.outer(psi, psi.conj()))
print(f"\ndeterministic loop: fidelity {traj.fidelity[0]:.3f} -> "
      f"{traj.final_fidelity:.3f} in {traj.steps_run} steps")
