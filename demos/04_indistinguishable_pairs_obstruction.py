"""Why distinguishability matters: the theta = pi/4 obstruction.

With 8 levels and theta = pi/4 the photon-box outcome weights cos^2 and
sin^2 are pi-periodic in the level index, so levels n and n + 4 produce
*identical* measurement statistics.  Inside such a pair the measurement is
information-free; all it does is flip the sign of the pair coherence
rho_{n,n+4} -- a deterministic, invertible map.  Two exact conservation laws
follow for states supported on one pair:

  * the magnitude |rho_{n,n+4}| is conserved by the measurement, and a
    rotation generated by the pair block of a real H1 conserves it too;
  * the 2x2 block purity is conserved, so a mixed pair state can never be
    purified by any control policy.

Consequently the closed loop stalls: runs that end up with weight spread
across a pair freeze below the fidelity threshold, and greedy controllers
see an exact local minimum at u = 0.  This demo exhibits one frozen state
and compares ensemble success rates at theta = pi/4 versus pi/10 by step
1000 and by step 4000 (the budget of acceptance criterion 7).

Run:  python demos/04_indistinguishable_pairs_obstruction.py
"""

import numpy as np

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    LoopConfig,
    photon_box,
    quadratic_feedback,
    run_ensemble,
    synthesis_pipeline,
)

np.set_printoptions(precision=3, suppress=True)

sigma = np.array([51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561])
p = DiagonalObservable(sigma, n_star=2)

meas4 = photon_box(8, 1 / 8, np.pi / 4)
print("indistinguishable level pairs at theta = pi/4:",
      meas4.check_distinguishability())

pipe = synthesis_pipeline(p)
h1 = pipe.h1

# A diagonal mixture on the pair (2, 6), mostly on the target level 2.
# The measurement cannot tell 2 from 6, and the quadratic controller sees
# zero slope and positive curvature: u = 0 exactly.  Frozen at fidelity 0.98.
rho = np.zeros((8, 8), dtype=complex)
rho[2, 2] = 0.98
rho[6, 6] = 0.02
d = quadratic_feedback(p, h1, rho, ControllerConfig(kind="quadratic", u_bar=0.1))
print(f"\nfrozen pair mixture: fidelity {rho[2, 2].real:.3f} < 0.99")
print(f"  controller slope b = {d.linear_coeff:.2e} (exactly zero)")
print(f"  curvature a = {d.quadratic_coeff:.2f} > 0  ->  chosen u = {d.u}")

# The same measurement step maps rho_{26} -> -rho_{26}: sign flip, no info.
rho[2, 6] = rho[6, 2] = 0.1
for mu in range(2):
    post = meas4.apply_outcome(mu, rho)
    print(f"  outcome {mu}: rho_26 {rho[2, 6].real:+.3f} -> {post[2, 6].real:+.3f}")

# Ensemble comparison: identical setup, only theta differs.  The step budget
# is acceptance criterion 7's; a run that stops at its first hit follows the
# same path as under any larger budget, so the step-1000 rate is read off the
# same ensemble.
rho0 = np.ones((8, 8), dtype=complex) / 16.0
rho0[0, 0] += 0.5
steps = 4000
for theta, label in ((np.pi / 4, "pi/4 "), (np.pi / 10, "pi/10")):
    cfg = LoopConfig(
        mode="stochastic",
        p=p,
        h1=h1,
        meas=photon_box(8, 1 / 8, theta),
        controller=ControllerConfig(kind="quadratic", u_bar=0.1),
        steps=steps,
    )
    ens = run_ensemble(cfg, rho0, 100, 42)
    hit = ens.first_hit >= 0
    by_1000 = int(np.sum(hit & (ens.first_hit <= 1000)))
    print(f"theta = {label}: {by_1000}/100 realizations reach fidelity 0.99 "
          f"by step 1000, {int(np.sum(hit))}/100 by step {steps}")
