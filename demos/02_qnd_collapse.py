"""Watch repeated QND measurements collapse a state onto the basis.

Diagonal Kraus operators leave every basis state invariant, so Tr(A rho) is
a martingale for every diagonal observable A.  Repeating the measurement
purifies: each run ends up concentrated on a single random level, and over
many runs the per-level absorption frequencies match the initial populations
exactly -- the measurement extracts which level, never moves probability.

Run:  python demos/02_qnd_collapse.py
"""

import numpy as np

from qfcontrol import (
    DiagonalObservable,
    LoopConfig,
    photon_box,
    run_ensemble,
)

np.set_printoptions(precision=3, suppress=True)

sigma = np.array([51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561])
p = DiagonalObservable(sigma, n_star=2)

# Two-outcome photon-box measurement.  theta = pi/10 gives every level a
# distinct outcome distribution, so all pairs are distinguishable.
meas = photon_box(8, phi0=1 / 8, theta=np.pi / 10)
assert meas.check_distinguishability() == []

rho0 = np.ones((8, 8), dtype=complex) / 16.0
rho0[0, 0] += 0.5
print("initial populations:", np.real(np.diag(rho0)))

cfg = LoopConfig(mode="open-loop", p=p, h1=np.zeros((8, 8)), meas=meas,
                 steps=500)
ens = run_ensemble(cfg, rho0, n_realizations=500, master_seed=7)

counts = np.zeros(8)
for i, traj in enumerate(ens.trajectories):
    if ens.absorbed_state[i] >= 0:
        counts[ens.absorbed_state[i]] += 1
    else:  # not fully absorbed yet: count the dominant level
        counts[np.argmax(np.real(np.diag(traj.states[max(traj.states)])))] += 1

print("absorption frequency:", counts / 500)
print("\npurity along one run (collapse in action):")
t = ens.trajectories[0]
for k in (0, 50, 100, 200, 500):
    idx = min(k, t.purity.size - 1)
    print(f"  step {idx:4d}: purity {t.purity[idx]:.4f}")
final = np.real(np.diag(t.states[max(t.states)]))
print(f"run 0 ended concentrated on level {np.argmax(final)} "
      f"(population {final.max():.4f})")
