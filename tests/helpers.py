"""Random systems and the reference oracles shared by the tests.

The random helpers draw from the caller's generator in a fixed order, so a
test seeded with a given generator always sees the same data.
``register_measurement`` and ``random_field_ising`` build a register of q
qubits (n = 2^q): a weak Z read-out per qubit, with m = n outcomes, and a
random-field Ising energy.  ``star_connectivity`` is the closed-form R on
the star of n_star that meets the sign condition for any unique minimum.

``expected_update`` and ``expected_v_after`` average over the measurement
branches with explicit Kraus matrices M_mu = diag(c[mu]) and the unitary
exp(-i H1 u), sharing no code with ``QndMeasurement``'s stack methods,
``HermitianPropagator.conjugate_stack`` or ``ExactMinLaw``, which they check.
The per-state values V, V_eps, the fidelity and the purity are written out
one state at a time, apart from the batched kernel that logs them, and
``coinciding_gaps_by_pairs`` compares every pair of H0's gaps, apart from
``assumption_report``'s vectorized rows.  ``minimize_every_step`` runs
``ExactMinLaw``'s search with all of its Newton steps, never stopping
early.  ``collapse_by_division`` divides the collapsed states by p, where
``QndMeasurement`` multiplies them by 1/p.  ``replay_open_loop`` replays
an open-loop record on the full state, where the kernel carries only the
populations, and ``replay_measured`` replays a controlled record with
explicit Kraus and unitary matrices, one state at a time.
``break_state`` injects a fault into the step kernel, such as
``trace_one_not_positive``.

The ``*_plain`` functions are the step kernel's methods written the plain
way: Python-float operands, ``.any()`` and ``.all()`` guards, ``np.where``
selections and ``np.multiply.outer``.  The kernel passes 0-d arrays, counts
with ``np.count_nonzero``, and fills with ``np.copysign`` and masked
``np.divide``, which must give the same bits.
"""

import numpy as np

from qfcontrol import ExactMinLaw, HermitianPropagator, QndMeasurement, QuadraticLaw
from qfcontrol.control import GRID_POINTS, NEWTON_STEPS
from qfcontrol.core import hermitize
from qfcontrol.measurement import P_FLOOR, OutcomeImpossible
from qfcontrol.simulate import ABSORB_THRESHOLD, REVALIDATE_EVERY


def lyapunov_v(p, rho):
    """V(rho) = sum_n sigma_n rho_nn."""
    return float(p.sigma @ np.asarray(rho).diagonal().real)


def lyapunov_v_eps(p, rho, epsilon):
    """Regularized Lyapunov value V(rho) - (eps/2) sum_n rho_nn^2."""
    d = np.asarray(rho).diagonal().real
    return lyapunov_v(p, rho) - 0.5 * epsilon * float(d @ d)


def fidelity_to_basis(rho, n):
    """Population Tr(rho |n><n|) = rho_nn."""
    return float(np.asarray(rho)[n, n].real)


def purity(rho):
    """Tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def coinciding_gaps_by_pairs(h, tol):
    """Every pair of distinct ordered gaps h_b - h_a within tol of each other mod 2 pi.

    The O(n^4) loop over all pairs of gaps, in the order it visits them.
    """
    n = h.size
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    colliding = []
    for x in range(len(pairs)):
        for z in range(x + 1, len(pairs)):
            ga = h[pairs[x][1]] - h[pairs[x][0]]
            gb = h[pairs[z][1]] - h[pairs[z][0]]
            if abs((ga - gb + np.pi) % (2 * np.pi) - np.pi) <= tol:
                colliding.append((pairs[x], pairs[z]))
    return tuple(colliding)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_mixed_density(rng, n):
    """A density matrix of random rank 1 to n."""
    g = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    g = g + 1j * rng.normal(size=g.shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_measurement(rng, m, dim):
    """A QND measurement with m outcomes on dim levels and random phases."""
    # Columns of |c|^2 on the simplex give completeness; phases are free.
    weights = rng.dirichlet(np.full(m, 0.5), size=dim).T
    return QndMeasurement(np.sqrt(weights) * np.exp(2j * np.pi * rng.random((m, dim))))


def register_spins(qubits):
    """z[n, i] = +1 where bit i of level n is 0, else -1: shape (2^qubits, qubits)."""
    return 1 - 2 * ((np.arange(2**qubits)[:, None] >> np.arange(qubits)) & 1)


def register_measurement(qubits, theta):
    """One weak Z read-out per qubit: m = n = 2^qubits outcomes, as bit strings.

    Bit i of outcome mu picks cos (0) or sin (1) of qubit i's angle, so
    c[mu, n] = prod_i cos or sin(pi/4 + theta z[n, i]).
    """
    z = register_spins(qubits)
    angle = np.pi / 4 + theta * z
    # factor[mu, n, i]: cos where z[mu, i] = +1 (bit 0), sin where it is -1.
    factor = np.where(z[:, None, :] > 0, np.cos(angle), np.sin(angle))
    return QndMeasurement(factor.prod(axis=-1))


def random_field_ising(rng, qubits):
    """sigma_n = sum_{i<j} J_ij z_i z_j + sum_i h_i z_i, with normal J and h."""
    z = register_spins(qubits)
    coupling = np.triu(rng.normal(size=(qubits, qubits)), 1)
    fields = rng.normal(size=qubits)
    return np.einsum("ni,ij,nj->n", z, coupling, z) + z @ fields


def star_connectivity(sigma, n_star, gamma1, gamma2):
    """The star R on n_star: edge (i, n_star) of weight gamma1 / Delta_i, Delta_i = sigma_i - sigma*.

    Each edge gives lambda_tilde_i = -gamma1 and adds gamma1 to
    lambda_tilde at n_star.  When gamma2 > (n - 1) gamma1, the excess
    gamma2 - (n - 1) gamma1 goes onto the edge of largest Delta_i, as the
    extra weight excess / Delta_max, so lambda_tilde at n_star is
    max(gamma2, (n - 1) gamma1).  Needs a unique minimum: every Delta_i > 0.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    delta = sigma - sigma[n_star]
    others = np.arange(n) != n_star
    w = np.zeros(n)
    w[others] = gamma1 / delta[others]
    excess = gamma2 - (n - 1) * gamma1
    if excess > 0:
        far = int(np.argmax(delta))
        w[far] += excess / delta[far]
    r = np.zeros((n, n))
    r[n_star] = r[:, n_star] = w
    np.fill_diagonal(r, -w)
    r[n_star, n_star] = -w.sum()
    return r


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


def collapse_by_division(meas, mu, rho):
    """M_mu rho M_mu† / p_mu for a stack, one mu[r] per state, dividing by p."""
    p = (meas.weights[mu] * rho.diagonal(axis1=1, axis2=2).real).sum(axis=-1)
    return meas.projectors[mu] * rho / p[:, None, None]


def replay_open_loop(cfg, rho0, seed, outcomes):
    """The open loop of cfg replayed on the full state from a logged record.

    Step k applies ``outcomes[k]`` to the (1, n, n) state through
    ``QndMeasurement.apply_outcomes``, and every REVALIDATE_EVERY steps takes
    the Hermitian part and divides by the trace's real part, as
    ``simulate._revalidate`` does.  Before it applies an outcome, it draws
    the one that the state's probabilities and the stream's k-th uniform
    give, by a plain inverse CDF; once the record runs out it applies its
    own draws.  It stops by the open loop's rule: at absorption when
    cfg.stop_at_threshold, else after cfg.steps.  Returns the drawn outcomes,
    the per-state fidelity, Lyapunov value and purity, first_hit and
    absorbed_state (None where there is none), steps_run and the final state.
    """
    meas, p = cfg.meas, cfg.p
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(cfg.steps)
    rho = np.asarray(rho0, dtype=complex)[None]
    drawn, fidelity, lyapunov, pur = [], [], [], []
    k = 0
    while True:
        d = rho[0].diagonal().real
        fidelity.append(d[p.n_star])
        lyapunov.append(np.add.reduce(p.sigma * d))
        pur.append(float(np.sum(np.abs(rho[0]) ** 2)))
        if k == cfg.steps or (cfg.stop_at_threshold and d.max() >= ABSORB_THRESHOLD):
            break
        q = np.maximum(np.add.reduce(meas.weights * d, -1), 0.0)
        mu = int(np.count_nonzero(np.cumsum(q / q.sum())[:-1] <= uniforms[k]))
        drawn.append(mu)
        rho = meas.apply_outcomes(np.array([outcomes[k] if k < len(outcomes) else mu]), rho)
        k += 1
        if k % REVALIDATE_EVERY == 0:
            rho = hermitize(rho)
            rho /= rho.trace(axis1=1, axis2=2).real[:, None, None]
    fidelity = np.array(fidelity)
    hits = np.flatnonzero(fidelity >= cfg.fidelity_threshold)
    final = rho[0]
    top = final.diagonal().real
    return {
        "outcome": np.array(drawn, dtype=float),
        "fidelity": fidelity,
        "lyapunov": np.array(lyapunov),
        "purity": np.array(pur),
        "first_hit": int(hits[0]) if hits.size else None,
        "absorbed_state": int(top.argmax()) if top.max() >= ABSORB_THRESHOLD else None,
        "steps_run": k,
        "state": final,
    }


def replay_measured(cfg, rho0, outcomes, controls):
    """A stochastic run of cfg replayed on the full state from its logged record.

    Step k conditions the state on ``outcomes[k]`` with the Kraus matrix
    diag(c[mu]) and the branch's trace, asks cfg's law for its control at
    that state, then rotates by exp(-i H1 controls[k]), the logged control,
    with ``rotated``.  Every REVALIDATE_EVERY steps it takes the Hermitian
    part and divides by the trace's real part, as ``simulate._revalidate``
    does.  Returns the fidelity, Lyapunov value and purity of every visited
    state, and the law's control at every post-measurement state.
    """
    meas, p, h1 = cfg.meas, cfg.p, cfg.h1
    law = (QuadraticLaw(p, h1, cfg.controller) if cfg.controller.kind == "quadratic"
           else ExactMinLaw(p, h1, meas, cfg.controller))
    rho = np.asarray(rho0, dtype=complex)
    states, chosen = [rho], []
    for k, (mu, u) in enumerate(zip(outcomes, controls)):
        kraus = np.diag(meas.coeffs[int(mu)])
        branch = kraus @ rho @ kraus.conj().T
        rho = branch / np.trace(branch).real
        chosen.append(float(law.controls(rho[None])[0]))
        rho = rotated(h1, rho, u)
        if (k + 1) % REVALIDATE_EVERY == 0:
            rho = (rho + rho.conj().T) / 2
            rho = rho / np.trace(rho).real
        states.append(rho)
    return {
        "fidelity": np.array([fidelity_to_basis(r, p.n_star) for r in states]),
        "lyapunov": np.array([lyapunov_v(p, r) for r in states]),
        "purity": np.array([purity(r) for r in states]),
        "u": np.array(chosen),
    }


def minimize_every_step(law, rho):
    """u and f(u) of ExactMinLaw.minimize with all NEWTON_STEPS steps run on the whole stack.

    The grid start, the Newton steps in the grid bracket and the fallback to
    the grid point, written out through the law's own coefficients.
    """
    terms = law._coefficients(rho)
    coeffs, branches = terms
    values = (law._grid_phase @ coeffs[:, 0, :, None]).real[..., 0]
    if branches is not None:
        table, weights = branches
        d = (law._grid_phase @ table).real
        values += ((d * d) @ weights[:, 0, :, None])[..., 0]
    floor = values.min(axis=-1)
    tied = values <= floor[:, None]
    best = law._preference[np.argmax(tied[:, law._preference], axis=-1)]
    lo = law.grid[np.maximum(best - 1, 0)]
    hi = law.grid[np.minimum(best + 1, GRID_POINTS - 1)]
    u = law.grid[best]
    for _ in range(NEWTON_STEPS):
        _, df, d2f = law._derivatives(terms, u)
        convex = d2f > 0
        newton = u - df / np.where(convex, d2f, 1.0)
        downhill = np.where(df > 0, lo, np.where(df < 0, hi, u))
        u = np.minimum(np.maximum(np.where(convex, newton, downhill), lo), hi)
    f = law._derivatives(terms, u)[0]
    worse = f > floor
    return np.where(worse, law.grid[best], u) + 0.0, np.where(worse, floor, f)


def break_state(monkeypatch, row, broken, call=50):
    """Make the call-th conjugate_stack replace row of its result by broken(row).

    The patch is on HermitianPropagator.  A measured loop propagates once
    per step, so call 50 breaks the state that the kernel revalidates after
    step 50.
    """
    original = HermitianPropagator.conjugate_stack
    calls = []

    def conjugate_stack(self, rho, u):
        out = original(self, rho, u)
        calls.append(None)
        if len(calls) == call:
            out[row] = broken(out[row])
        return out

    monkeypatch.setattr(HermitianPropagator, "conjugate_stack", conjugate_stack)


def trace_one_not_positive(rho):
    """diag(1.5, -0.5, 0, ...): trace one, but not a density matrix."""
    return np.diag(np.r_[1.5, -0.5, np.zeros(len(rho) - 2)]).astype(complex)


def choose_plain(law, a, b):
    """QuadraticLaw.choose through two np.where."""
    ub = law.cfg.u_bar
    convex = a > 1e-12
    u = b / np.where(convex, a, 1.0)
    np.maximum(u, -ub, out=u)
    np.minimum(u, ub, out=u)
    u = np.subtract(0.0, np.where(convex, u, np.copysign(ub, b)))
    sloped = np.abs(b) > 1e-12
    if not sloped.all():
        flat = ~convex & ~sloped
        u[flat] = np.where(a[flat] < -1e-12, ub, 0.0)
    return u


def sample_and_collapse(meas, rho, p, x):
    """The kernel's measured step: QndMeasurement.sample, then collapse onto the outcomes."""
    mu, p_mu = meas.sample(p, x)
    return mu, meas.collapse(rho, mu, p_mu)


def sample_and_collapse_plain(meas, rho, p, x):
    """sample_and_collapse with float operands and .all()/.any() guards."""
    q = np.maximum(p, 0.0)
    total = q.sum(axis=-1)
    ok = np.abs(total - 1.0) <= 1e-10
    if not ok.all():
        raise ValueError(f"outcome probabilities sum to {total[np.argmin(ok)]}, not 1")
    cdf = (q / total[:, None])[..., :-1].cumsum(axis=-1)
    mu = (cdf <= np.asarray(x)[..., None]).sum(axis=-1)
    p_mu = p[np.arange(len(p)), mu]
    low = p_mu <= P_FLOOR
    if low.any():
        r = int(np.argmax(low))
        raise OutcomeImpossible(f"outcome {mu[r]} has probability {p_mu[r]:.3e} <= floor")
    return mu, meas.projectors[mu] * rho * (1.0 / p_mu)[:, None, None]


def conjugate_stack_plain(prop, rho, u):
    """HermitianPropagator.conjugate_stack with the phases from np.multiply.outer."""
    w, v = prop.eigh
    phases = np.exp(np.multiply.outer(u, -1j * w))
    umat = (v * phases[:, None, :]) @ v.conj().T
    return umat @ rho @ umat.conj().swapaxes(-1, -2)


def linear_controls_plain(law, rho):
    """LinearLaw.controls with float operands and an .any() guard."""
    val = (rho.reshape(len(rho), -1) * law._gain).sum(axis=-1)
    off = np.abs(val.imag) > 1e-10
    if off.any():
        raise ValueError("linear feedback came out complex "
                         f"(imag {val.imag[np.argmax(off)]:.3e})")
    return val.real + 0.0


def minimize_plain(law, rho):
    """ExactMinLaw.minimize (one block) with float operands and np.where selections.

    Its coefficients and derivatives are written out here too, from the
    law's fixed tables, so that nothing of the law's per-call code is shared.
    The sigma term sums the projectors over every outcome, floor branches
    included; the eps term gives the branches at or below P_FLOOR weight 0.
    """
    meas, eps = law._meas, law.cfg.epsilon
    n_runs, n = len(rho), rho.shape[-1]
    y = law._wh @ (meas.projectors.sum(axis=0) * rho) @ law._w
    coeffs = y.reshape(n_runs, 1, n * n) * law._sigma_orders
    branches = None
    if eps > 0:
        y = law._wh @ (meas.projectors * rho[:, None]) @ law._w
        table = (y.reshape(n_runs, -1, 1, n * n) * law._mix).reshape(n_runs, -1, n * n)
        pop = rho.diagonal(axis1=1, axis2=2).real
        p = (pop[:, None, :] * meas.weights).sum(axis=-1)
        live = p > P_FLOOR
        quad = np.where(live, -0.5 * eps / np.where(live, p, 1.0), 0.0)
        weights = np.repeat(quad, n, axis=1)[:, None, :] * np.array([[1.0], [2.0], [2.0]])
        branches = table.swapaxes(1, 2), weights

    def derivatives(u):
        phase = np.exp(np.multiply.outer(u, law._phase_rate))[:, None, :]
        f = (coeffs * phase).real.sum(axis=-1)
        if branches is not None:
            table, weights = branches
            d = ((phase * law._orders) @ table).real
            products = d[:, :1] * d
            products[:, 2] += d[:, 1] * d[:, 1]
            f += (products * weights).sum(axis=-1)
        return f.T

    values = (law._grid_phase @ coeffs[:, 0, :, None]).real[..., 0]
    if branches is not None:
        table, weights = branches
        d = (law._grid_phase @ table).real
        values += ((d * d) @ weights[:, 0, :, None])[..., 0]
    floor = values.min(axis=-1)
    tied = values <= floor[:, None]
    best = law._preference[tied[:, law._preference].argmax(axis=-1)]
    lo = law.grid[np.maximum(best - 1, 0)]
    hi = law.grid[np.minimum(best + 1, GRID_POINTS - 1)]
    u = law.grid[best]
    for _ in range(NEWTON_STEPS):
        f, df, d2f = derivatives(u)
        convex = d2f > 0
        newton = u - df / np.where(convex, d2f, 1.0)
        downhill = np.where(df > 0, lo, np.where(df < 0, hi, u))
        step = np.minimum(np.maximum(np.where(convex, newton, downhill), lo), hi)
        if (step == u).all():
            break
        u = step
    else:
        f = derivatives(u)[0]
    worse = f > floor
    return np.where(worse, law.grid[best], u) + 0.0, np.where(worse, floor, f)


def coefficients_plain(law, rho):
    """QuadraticLaw.coefficients with float operands and an .any() guard."""
    ab = (rho.reshape(len(rho), 1, -1) * law._ops).sum(axis=-1)
    if law.cfg.epsilon > 0:
        h1 = law._h1
        diag = (h1 * rho.swapaxes(1, 2)).sum(axis=-1) - (rho * h1.T).sum(axis=-1)
        ab[:, 0] -= (law.cfg.epsilon / 4.0) * (diag**2).sum(axis=-1)
    off = np.abs(ab.imag) > np.array([1e-9, 1e-10])
    if off.any():
        r = int(np.argmax(off.any(axis=-1)))
        raise ValueError(
            f"quadratic coefficients came out complex (a={ab[r, 0]}, b={ab[r, 1]})")
    a, b = ab.real.T
    return a, b
