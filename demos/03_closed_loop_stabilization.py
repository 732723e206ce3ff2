"""Close the loop: steer the QND collapse onto the minimum-energy level.

Left alone, QND measurement collapses onto a *random* level with
probabilities fixed by the initial state (demo 02).  Adding a control
rotation exp(-i H1 u) after each measurement biases the collapse: the
quadratic feedback law picks u to minimize a local model of the energy
V(rho) = Tr(P rho), and the synthesized H1 guarantees the only stable
attractor is the target level.

Run:  python demos/03_closed_loop_stabilization.py
"""

import numpy as np

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    convergence_statistics,
    photon_box,
    run_ensemble,
    synthesis_pipeline,
)

np.set_printoptions(precision=3, suppress=True)

sigma = np.array([51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561])
p = DiagonalObservable(sigma, n_star=2)

# Fully distinguishable measurement (see demo 04 for what goes wrong when
# it is not).
meas = photon_box(8, phi0=1 / 8, theta=np.pi / 10)

pipe = synthesis_pipeline(p)
print("synthesized couplings |H1|:")
print(np.abs(pipe.h1), "\n")

rho0 = np.ones((8, 8), dtype=complex) / 16.0
rho0[0, 0] += 0.5

cfg = LoopConfig(
    mode="stochastic",
    p=p,
    h1=pipe.h1,
    meas=meas,
    controller=ControllerConfig(kind="quadratic", u_bar=0.1),
    steps=1000,
)
ens = run_ensemble(cfg, rho0, n_realizations=100, master_seed=42)
stats = convergence_statistics(ens)

print(f"realizations reaching fidelity 0.99: {int(np.sum(ens.first_hit >= 0))}/100")
print(f"median hitting time: {stats['median_hitting_time']:.0f} steps")
# Where did each run end up?  (Open-loop collapse would spread these counts
# in proportion to rho0's diagonal; the control funnels them to level 2.)
levels = np.zeros(8, dtype=int)
for t in ens.trajectories:
    levels[np.argmax(np.real(np.diag(t.states[max(t.states)])))] += 1
print("dominant final level per run:", levels)
print("\nmean energy V(rho) along the ensemble:")
for k in (0, 100, 300, 600, 1000):
    print(f"  step {k:4d}: {ens.mean_lyapunov_curve[k]:8.3f}")
