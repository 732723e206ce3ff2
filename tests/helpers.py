"""Random systems and the exact expectation oracle shared by the tests.

The random helpers draw from the caller's generator in a fixed order, so a
test seeded with a given generator always sees the same data.

``expected_update`` and ``expected_v_after`` average over the measurement
branches with explicit Kraus matrices M_mu = diag(c[mu]) and the unitary
exp(-i H1 u), sharing no code with ``QndMeasurement``'s stack methods,
``HermitianPropagator.conjugate_stack`` or ``ExactMinLaw``, which they check.
"""

import numpy as np

from qfcontrol import HermitianPropagator, QndMeasurement, lyapunov_v_eps
from qfcontrol.measurement import P_FLOOR


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_measurement(rng, m, dim):
    """A QND measurement with m outcomes on dim levels and random phases."""
    # Columns of |c|^2 on the simplex give completeness; phases are free.
    weights = rng.dirichlet(np.full(m, 0.5), size=dim).T
    return QndMeasurement(np.sqrt(weights) * np.exp(2j * np.pi * rng.random((m, dim))))


def rotated(h1, rho, u):
    """exp(-i H1 u) rho exp(i H1 u) for one state."""
    umat = HermitianPropagator(h1).unitary(u)
    return umat @ rho @ umat.conj().T


def expected_update(meas, rho, f):
    """sum_mu p_mu f(M_mu rho M_mu† / p_mu) over the outcomes with p_mu > P_FLOOR."""
    total = 0.0
    for c in meas.coeffs:
        kraus = np.diag(c)
        branch = kraus @ rho @ kraus.conj().T
        p = np.trace(branch).real
        if p > P_FLOOR:
            total += p * f(branch / p)
    return total


def expected_v_after(p, h1, meas, rho, u, epsilon=0.0):
    """Exact E[V_eps] after measuring rho and applying exp(-i H1 u)."""
    umat = HermitianPropagator(h1).unitary(u)
    return expected_update(
        meas, rho, lambda post: lyapunov_v_eps(p, umat @ post @ umat.conj().T, epsilon))
