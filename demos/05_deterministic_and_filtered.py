"""Two loop variants: measurement-free linear feedback, and output feedback.

The deterministic loop applies exp(-i H0) exp(-i H1 u) with the linear law
u = i kappa Tr([P, H1] rho); when H0 is diagonal with distinct gaps mod 2 pi
and H1 couples every pair of levels, almost every pure initial state flows to
the minimum-energy level.  Diagonal states are exact equilibria (u = 0), so
convergence is "almost everywhere", not global.

The filtered loop addresses the realistic setting where the controller sees
only measurement outcomes, not the true state: it runs a quantum filter
(a recursive state estimate conditioned on outcomes and applied controls)
and feeds the *estimate* to the control law.

Run:  python demos/05_deterministic_and_filtered.py
"""

import numpy as np

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    assumption_report,
    photon_box,
    run_trajectory,
    synthesis_pipeline,
)

rng = np.random.default_rng(5)

# --- deterministic loop on a 4-level instance ------------------------------
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

# --- output feedback via a quantum filter ----------------------------------
sigma8 = np.array([51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561])
p8 = DiagonalObservable(sigma8, n_star=2)
meas = photon_box(8, 1 / 8, np.pi / 10)
pipe = synthesis_pipeline(p8)

rho0 = np.ones((8, 8), dtype=complex) / 16.0
rho0[0, 0] += 0.5
est0 = np.eye(8, dtype=complex) / 8.0   # the controller starts ignorant

cfg = LoopConfig(
    mode="filtered", p=p8, h1=pipe.h1, meas=meas,
    controller=ControllerConfig(kind="quadratic", u_bar=0.1),
    steps=1000,
)
traj = run_trajectory(cfg, rho0, seed=11, est0=est0)
print(f"\nfiltered loop: true fidelity {traj.final_fidelity:.3f}, "
      f"estimate fidelity {traj.estimate_fidelity[-1]:.3f}")
print(f"filter-truth trace distance {traj.trace_distance[0]:.3f} -> "
      f"{traj.trace_distance[-1]:.3e}")
