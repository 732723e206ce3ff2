"""Control-Hamiltonian synthesis from a diagonal energy observable.

Given the energy diagonal sigma with minimizer n_star, we look for a real
symmetric matrix R in the cone

    cone = { R symmetric | R negative semidefinite, every row sums to 0,
             diagonal <= 0, off-diagonal >= 0 }

such that lambda_tilde = R @ sigma is negative everywhere except at n_star.
Such an R is exactly the image of a control Hamiltonian H1 under
:func:`r_of_hamiltonian`, and its lambda_tilde entries are the curvatures of
the expected post-step energy at the basis states, which is what guarantees
closed-loop convergence to |n_star>.

The cone is exactly the set of negated weighted graph Laplacians, so the
solver works in non-negative edge weights w, with R(w) = -sum_e w_e L_e: every
cone condition becomes w >= 0, and the sparsity penalty ||vec(R)||_1 becomes
4 * sum(w).  A first-order primal-dual iteration then needs only closed-form
steps on one stacked iterate z = [w; lambda], and a single clip of z to fixed
bounds projects onto both w >= 0 and the box on lambda.  With the penalty on,
a least-squares polish on the identified support finishes the weights
exactly, and is kept only when every polished weight is positive.
:func:`cone_violations` checks a result against the cone as defined above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ASSUMPTION_TOL, HERMITICITY_TOL, DiagonalObservable, _as_square,
                   is_hermitian, json_int, json_number)

__all__ = [
    "CONE_TOL",
    "InfeasibleLambda",
    "PHASE_POLICIES",
    "SynthesisProblem",
    "SynthesisResult",
    "PipelineResult",
    "assumption_report",
    "cone_violations",
    "hamiltonian_of_r",
    "r_of_hamiltonian",
    "solve_synthesis",
    "synthesis_pipeline",
    "verify_lambda",
]

CONE_TOL = 1e-8
LAMBDA_SUM_TOL = 1e-7

# The primal-dual iteration stops once the objective has changed by at most
# this much, relative to its size, and the iterate has settled too (see
# solve_synthesis), for 25 iterations in a row.
OBJECTIVE_TOL = 1e-9

# The free phases of H1 that hamiltonian_of_r can choose (see there).
PHASE_POLICIES = ("positive", "imaginary-off-diagonal")


class InfeasibleLambda(RuntimeError):
    """The solve is infeasible; ``result`` is the solve, and the message reads it alone.

    n_star is where the solver's lambda is positive: its box holds every other entry < 0.
    """

    def __init__(self, result):
        _, report = verify_lambda(result.lambda_tilde, int(np.argmax(result.lam)))
        misses = [f"{f'level {i}' if i >= 0 else 'the sum'} is {value:+.6g} ({rule})"
                  for i, value, rule, good in report if not good]
        text = ("solved lambda_tilde misses the sign condition: " + "; ".join(misses) if misses
                else f"solved lambda_tilde misses its fit: residual {result.residual:.3e}")
        super().__init__(text + ("" if result.converged else "; stopped at max_iter"))
        self.result = result


# ---------------------------------------------------------------------------
# Cone membership
# ---------------------------------------------------------------------------

def cone_violations(r):
    """Violation magnitudes of the four cone membership conditions.

    R must be a square matrix with at least one entry; any other shape is a
    ValueError that names it.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or not r.size:
        raise ValueError(f"R must be a non-empty square matrix, got shape {r.shape}")
    n = r.shape[0]
    off = r[~np.eye(n, dtype=bool)]
    return {
        "symmetry": float(np.max(np.abs(r - r.T))),
        "negative_semidefinite": float(max(np.linalg.eigvalsh((r + r.T) / 2)[-1], 0.0)),
        "row_sums": float(np.max(np.abs(r.sum(axis=1)))),
        "diagonal_sign": float(max(np.max(np.diag(r)), 0.0)),
        "offdiagonal_sign": float(np.max(-off, initial=0.0)),
    }


def in_cone(r, tol=CONE_TOL):
    return all(v <= tol for v in cone_violations(r).values())


# ---------------------------------------------------------------------------
# R <-> H1
# ---------------------------------------------------------------------------

def r_of_hamiltonian(h1):
    """Connectivity matrix of a control Hamiltonian.

    Off-diagonal 2|H1_ij|^2, diagonal 2(|H1_ii|^2 - (H1^2)_ii).  The zero
    row sums are an algebraic identity: (H1^2)_ii = sum_j |H1_ij|^2.  H1
    must be a non-empty square matrix; any other shape is a ValueError that
    names it.
    """
    h1 = _as_square(h1, "H1")
    if not is_hermitian(h1):
        raise ValueError("r_of_hamiltonian requires a Hermitian input")
    r = 2.0 * np.abs(h1) ** 2
    h2diag = np.einsum("ij,ji->i", h1, h1).real
    np.fill_diagonal(r, 2.0 * (np.abs(np.diag(h1)) ** 2 - h2diag))
    return r


def hamiltonian_of_r(r, phase_policy="positive"):
    """Control Hamiltonian with |H1_ij| = sqrt(R_ij / 2) and zero diagonal.

    The square-root convention sqrt(R/2) makes the round trip through
    r_of_hamiltonian exact.  ``phase_policy``, one of ``PHASE_POLICIES``,
    selects the free phases: all-positive entries or purely imaginary
    off-diagonals, both Hermitian.  Any other name is a ValueError, before
    R is read.  R must be square, real, finite and symmetric within
    ``CONE_TOL``; its upper triangle is copied onto the lower one.
    """
    _check_phase_policy(phase_policy)
    r = np.asarray(r)  # read as complex only if it may hold complex entries
    r = _as_square(r, "R", float if r.dtype.kind in "biuf" else complex)
    if r.dtype.kind == "c" and np.count_nonzero(r.imag):
        raise ValueError("R must be real")
    r = r.real
    asymmetry = float(np.max(np.abs(r - r.T)))
    if asymmetry > CONE_TOL:
        raise ValueError(f"R is asymmetric by {asymmetry:.3e}, beyond tolerance")
    n = r.shape[0]
    off = r.copy()
    upper_i, upper_j = _edges(n)
    off[upper_j, upper_i] = r[upper_i, upper_j]
    np.fill_diagonal(off, 0.0)
    if float(np.min(off)) < -CONE_TOL:
        raise ValueError(f"off-diagonal entry {np.min(off):.3e} below tolerance")
    mag = np.sqrt(np.maximum(off, 0.0) / 2.0)
    if phase_policy == "positive":
        return mag.astype(complex)
    return 1j * np.sign(np.subtract.outer(np.arange(n), np.arange(n))) * mag


def _check_phase_policy(phase_policy):
    if phase_policy not in PHASE_POLICIES:
        raise ValueError(f"unknown phase policy {phase_policy!r}")


def verify_lambda(lambda_tilde, n_star):
    """Sign-condition verdict on lambda_tilde, with a per-entry report.

    The inequalities are strict, the condition the convergence proposition
    needs.  A non-vector lambda_tilde is a ValueError naming its shape, and
    an n_star outside it (negative ones included) an IndexError.
    """
    lam = np.asarray(lambda_tilde, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"lambda_tilde must be a vector, got shape {lam.shape}")
    if not 0 <= n_star < lam.size:
        raise IndexError(f"n_star is {n_star}, but lambda_tilde has {lam.size} entries")
    report = []
    ok = True
    for i, v in enumerate(lam):
        if i == n_star:
            good = v > 0
            report.append((i, v, "minimizer entry must be positive", good))
        else:
            good = v < 0
            report.append((i, v, "non-minimizer entry must be negative", good))
        ok = ok and good
    total = float(abs(lam.sum()))
    if total > LAMBDA_SUM_TOL:
        report.append((-1, total, "entries must sum to zero", False))
        ok = False
    return ok, report


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisProblem:
    """The energy to synthesize for and the hyper-parameters of the program.

    gamma1/gamma2 keep lambda away from zero; alpha2 > 0 switches on the
    sparsity penalty.  Each is a number, stored as a float.

    sigma's minimum must be unique: a ValueError names the levels within
    1e-12 of it when there are two or more, before any solve.  No R can
    serve a tied minimum, since for R in the cone and a second minimizer b,
    lambda_tilde_b = sum_j R_bj (sigma_j - sigma_b) >= 0 (rows sum to 0,
    off-diagonal entries >= 0, sigma_j >= sigma_b).  So the zero vector is
    refused here too, as tied at every level.  The levels are those that
    DiagonalObservable found within 1e-12 of the minimum when it checked
    n_star, so the test costs no pass over sigma of its own.
    """

    sigma: DiagonalObservable
    gamma1: float = 1.0
    gamma2: float = 1.0
    alpha2: float = 0.0

    def __post_init__(self):
        if not isinstance(self.sigma, DiagonalObservable):
            raise ValueError(f"sigma is {self.sigma!r}, but must be a DiagonalObservable")
        for name in ("gamma1", "gamma2", "alpha2"):
            object.__setattr__(self, name, json_number(getattr(self, name), name))
        # Written so that NaN fails too.
        if not (0 < self.gamma1 < math.inf and 0 < self.gamma2 < math.inf):
            raise ValueError("gamma1 and gamma2 must be finite and strictly positive")
        if not 0 <= self.alpha2 < math.inf:
            raise ValueError("alpha2 must be finite and non-negative")
        if np.count_nonzero(self.sigma._ground) > 1:
            tied = ", ".join(map(str, np.flatnonzero(self.sigma._ground)))
            raise ValueError(f"the minimum energy is tied at levels {tied}; no R in the cone "
                             "meets the sign condition at a second minimizer")


@dataclass
class SynthesisResult:
    r: np.ndarray
    lam: np.ndarray            # the solver's box-feasible lambda variable
    lambda_tilde: np.ndarray   # R @ sigma
    residual: float
    objective: float
    iterations: int
    converged: bool            # the stop rule fired; False when max_iter ran out
    feasible: bool

    def to_json(self):
        return {
            "r": self.r.tolist(),
            "lambda": self.lam.tolist(),
            "lambda_tilde": self.lambda_tilde.tolist(),
            "residual": self.residual,
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": bool(self.converged),
            "feasible": bool(self.feasible),
            "convention": "sqrt(R/2)",
            "index_convention": "0-based",
        }


def _edges(n):
    """The ends (i, j) of the edges i < j of n levels, in np.triu_indices(n, 1) order.

    np.nonzero walks the mask in row-major order, as np.triu_indices does,
    at about a quarter of its cost.
    """
    levels = np.arange(n)
    return np.nonzero(np.less.outer(levels, levels))


def _r_of_edge_weights(w, edges, n):
    """R(w): w at (i, j) and (j, i) for the edges (i, j) of ``_edges(n)``."""
    i, j = edges
    r = np.zeros((n, n))
    r[i, j] = r[j, i] = w
    # Minus each row's sum, added in column order; 0.0 - keeps a zero row's at +0.0.
    np.fill_diagonal(r, 0.0 - np.cumsum(r, axis=1)[:, -1])
    return r


def solve_synthesis(problem, max_iter=50000):
    """Solve min ||R sigma - lambda||_2 + alpha2 ||vec R||_1 over the cone.

    The cone is exactly the set of negated weighted graph Laplacians, so R is
    parametrized by non-negative edge weights w:  R(w) = -sum_e w_e L_e.  In
    that coordinate system all three cone conditions reduce to w >= 0 and the
    sparsity penalty is 4 * sum(w).  The primal-dual iteration starts from
    zero and carries one primal iterate z = [w; lambda]: each step moves it
    by -tau [A^T y; -y] less the penalty shift on w, and one clip to fixed
    bounds (w >= 0; lambda <= -gamma1 off n_star, >= gamma2 at n_star) is
    the exact projection onto both constraint sets.  sigma is normalized
    internally so step sizes are independent of the energy scale.

    The iteration stops after 25 iterations in a row whose iterate moved by
    at most 1e-11 in every entry (``scale * max|z_new - z|``, in the units of
    sigma) and whose objective changed by at most ``OBJECTIVE_TOL`` relative
    to its size; ``converged`` then reports True and ``iterations`` the
    iteration it stopped at.  Otherwise it stops at ``max_iter``, an integer
    >= 1, with ``converged`` False.  Each iteration tests the drift first and
    computes the objective only when that test passes: the objective is a
    pure function of the iterate, so this order gives the same stop
    iteration as computing it every time, and most iterations of a slow
    solve skip it.  The drift test itself looks at one entry first, the
    probe (entry 0 at the start, then the entry of largest drift in the
    last full test that failed), and runs the full test only when that
    entry passes.  This cannot change a decision: the largest |z_new - z|
    is at least the probe's, scaling by ``scale`` > 0 keeps the order, and
    a NaN probe fails both tests, since a NaN entry makes the maximum NaN.
    On the reference sparse solve the probe alone rejects 23,900 of its
    24,266 iterations.

    No iteration allocates: every vector it writes lives in a buffer made
    once per solve, whose w and lambda views are made before the loop.
    Each new iterate is written into the buffer of the iterate before z,
    which no later line reads, and the two then swap names.  Without the
    penalty the shift on w is +0.0 everywhere, and x - 0.0 is x bit for
    bit, -0.0 and NaN included, so that subtraction is skipped.  Each
    2-norm is x.dot(x) and a square root, the steps
    np.linalg.norm takes for a real vector, without its wrapper.  Each
    value is still made by the same IEEE operation on the same operands,
    only stored elsewhere, so every result keeps its bits.

    With the sparsity penalty on, the identified support is polished by
    alternating the lambda clip with an exact least-squares solve on the
    support, which removes the slow first-order tail.  The polished weights
    replace the first-order ones only when all are positive (so R stays in
    the cone) and the objective is no worse.
    """
    max_iter = json_int(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError(f"max_iter is {max_iter}, but must be at least 1")
    sigma = problem.sigma.sigma
    n = sigma.size
    n_star = problem.sigma.n_star
    # ||sigma|| by np.linalg.norm's own steps for a real vector, without its
    # wrapper: ravel (a view unless sigma is strided), dot, square root.
    flat = sigma.ravel("K")
    scale = math.sqrt(flat.dot(flat))
    sig = sigma / scale
    g1 = problem.gamma1 / scale
    g2 = problem.gamma2 / scale
    # Objective scaled by 1/scale: (1, alpha2/scale); l1 of vec(R) is
    # 4*sum(w) in edge coordinates.
    a2_edge = 4.0 * problem.alpha2 / scale

    # (A w)_n = (R(w) sigma)_n: the column of edge e = (i, j) touches rows i
    # and j with -(sig_i - sig_j) and +(sig_i - sig_j).
    edges = edge_i, edge_j = _edges(n)
    n_edges, gap = edge_i.size, sig[edge_i] - sig[edge_j]
    amat, columns = np.zeros((n, n_edges)), np.arange(n_edges)
    amat[edge_i, columns] = -gap
    amat[edge_j, columns] = gap

    # ||A||_2 from the LAPACK call np.linalg.norm(amat, 2) makes, without its
    # wrapper: the largest singular value, the same bits.
    knorm = float(np.sqrt(np.linalg.svd(amat, compute_uv=False).max() ** 2 + 1.0))
    tau = sig_d = 0.95 / knorm
    # Bounds of z = [w; lambda], the step -tau [A^T y; -y] as step * [A^T y; y]
    # (filled into grad), and the penalty shift on w, as the rows of one buffer.
    bounds = np.empty((4, n_edges + n))
    lo, hi, step, shift = bounds
    lo[:n_edges], lo[n_edges:], lo[n_edges + n_star] = 0.0, -np.inf, g2
    hi[:n_edges], hi[n_edges:], hi[n_edges + n_star] = np.inf, -g1, np.inf
    step[:n_edges], step[n_edges:] = -tau, tau
    shift[:n_edges], shift[n_edges:] = tau * a2_edge, 0.0
    # The iterate z, the new one, z_bar, the drift |z_new - z| and [A^T y; y]
    # (grad), as the rows of one buffer; the dual iterate y is grad's tail,
    # updated in place, so the step never copies it.  t = sig_d (A w_bar -
    # lambda_bar) has a buffer of its own.
    work = np.zeros((5, n_edges + n))
    z, z_new, z_bar, drift, grad = work
    t = np.empty(n)
    grad_w, y = grad[:n_edges], grad[n_edges:]
    penalized = problem.alpha2 > 0
    penalty = 4.0 * problem.alpha2

    def box_clip(lam):
        return np.minimum(np.maximum(lam, lo[n_edges:]), hi[n_edges:])

    def objective_of(w_vec, lam_vec):
        resid = (amat.dot(w_vec) - lam_vec) * scale
        return math.sqrt(resid.dot(resid)) + penalty * float(np.add.reduce(w_vec))

    # z starts at the clip of zero to its bounds, as does z_bar.
    np.maximum(z, lo, out=z)
    np.minimum(z, hi, out=z)
    z_bar[:] = z
    z_w, z_lam, new_w, new_lam = z[:n_edges], z[n_edges:], z_new[:n_edges], z_new[n_edges:]
    bar_w, bar_lam = z_bar[:n_edges], z_bar[n_edges:]
    amat_t = amat.T
    # The objective of z, or None where its drift test failed and it was
    # never needed; probe is the entry the drift test checks first.
    prev_obj = None
    calm = probe = 0
    iterations = max_iter
    converged = False
    # Each line computes what y + sig_d * (A w_bar - lam_bar), z + step * grad
    # - shift and 2 z_new - z compute, with commuted operands (exact in IEEE
    # arithmetic) and x + x for 2x, so every bit is the same; ndarray.dot
    # makes the same BLAS call as @ with less dispatch.
    for k in range(1, max_iter + 1):
        amat.dot(bar_w, out=t)
        t -= bar_lam
        t *= sig_d
        y += t
        # Onto the unit ball, the dual of the residual's 2-norm; a NaN norm
        # scales too.
        nrm = math.sqrt(y.dot(y))
        if not nrm <= 1.0:
            y *= 1.0 / nrm
        amat_t.dot(y, out=grad_w)
        np.multiply(step, grad, out=z_new)
        z_new += z
        if penalized:  # else the shift is +0.0, and x - 0.0 is x bit for bit
            z_new -= shift
        np.maximum(z_new, lo, out=z_new)
        np.minimum(z_new, hi, out=z_new)
        np.add(z_new, z_new, out=z_bar)
        z_bar -= z
        # Only an iterate that passes the drift test can extend the calm run,
        # so the objective is computed only then, and the full test only
        # after its probe entry has passed (see the docstring).
        obj = None
        if scale * abs(z_new.item(probe) - z.item(probe)) <= 1e-11:
            np.subtract(z_new, z, out=drift)
            np.abs(drift, out=drift)
            if scale * float(np.maximum.reduce(drift)) <= 1e-11:
                if prev_obj is None:
                    prev_obj = objective_of(z_w, z_lam)
                obj = objective_of(new_w, new_lam)
            else:
                probe = int(drift.argmax())
        settled = (obj is not None
                   and abs(obj - prev_obj) <= OBJECTIVE_TOL * max(1.0, abs(obj)))
        calm = calm + 1 if settled else 0
        z, z_w, z_lam, z_new, new_w, new_lam = z_new, new_w, new_lam, z, z_w, z_lam
        prev_obj = obj
        if calm >= 25:
            iterations = k
            converged = True
            break
    w, lam = z_w, z_lam

    if penalized:
        # Support polish: the first-order phase identifies the sparsity
        # pattern quickly but crawls toward the exact weights; on the support
        # the residual-zero point is unique, so finish it off exactly.
        support = np.where(w > 1e-8 * max(1.0, float(np.max(w, initial=0.0))))[0]
        if support.size:
            a_s = amat[:, support]
            w_s = w[support]
            for _ in range(100):
                w_next = np.linalg.lstsq(a_s, box_clip(a_s @ w_s), rcond=None)[0]
                done = float(np.max(np.abs(w_next - w_s))) <= 1e-14
                w_s = w_next
                if done:
                    break
            cand = np.zeros(n_edges)
            cand[support] = w_s
            cand_lam = box_clip(amat @ cand)
            # Only positive weights keep R in the cone.
            if (np.all(w_s > 0)
                    and objective_of(cand, cand_lam) <= objective_of(w, lam) + 1e-12):
                w, lam = cand, cand_lam

    r = _r_of_edge_weights(w, edges, n)
    lam_out = lam * scale
    lambda_tilde = r @ sigma
    # Both 2-norms as np.linalg.norm takes them, without its wrapper.
    miss = lambda_tilde - lam_out
    residual = math.sqrt(miss.dot(miss))
    sign_ok, _ = verify_lambda(lambda_tilde, n_star)
    # A sign pattern made of round-off noise is not a solution: the fit to
    # the box-feasible lambda must actually be achieved.
    feasible = sign_ok and residual <= 1e-6 * max(1.0, math.sqrt(lam_out.dot(lam_out)))
    return SynthesisResult(
        r=r,
        lam=lam_out,
        lambda_tilde=lambda_tilde,
        residual=residual,
        objective=float(objective_of(w, lam)),
        iterations=iterations,
        converged=converged,
        feasible=bool(feasible),
    )


# ---------------------------------------------------------------------------
# Assumptions and pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    witnesses: tuple = ()
    detail: str = ""


def _wrap_mod_2pi(x):
    return (x + np.pi) % (2 * np.pi) - np.pi


def assumption_report(p, h0=None, h1=None, meas=None):
    """Structural checks backing the convergence guarantees.

    Returns a dict of named checks; inputs not supplied are skipped.
    - 'diagonal': H0 is diagonal in the reference basis.
    - 'nondegenerate_spectrum': all energy gaps of P exceed ASSUMPTION_TOL.
    - 'strong_regularity_mod_2pi': no two distinct ordered eigenvalue gaps of
      H0 coincide modulo 2*pi (the discrete-time version of strong
      regularity).  Each of the n(n-1) gaps is compared with all later ones
      in one NumPy pass, so the check takes n(n-1) passes and O(n^4)
      arithmetic in all, with O(n^2) memory.
    - 'full_connectivity': every off-diagonal entry of H1 is nonzero.
    - 'distinguishability': every basis-state pair has distinct measurement
      statistics; the detail names the smallest distance max_mu |w[mu, i] -
      w[mu, j]| between two levels' statistics and its level pair.
    """
    checks = {}

    gaps = np.abs(np.subtract.outer(p.sigma, p.sigma))
    np.fill_diagonal(gaps, np.inf)
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    ok = gaps[i, j] > ASSUMPTION_TOL
    checks["nondegenerate_spectrum"] = AssumptionCheck(
        "nondegenerate_spectrum", bool(ok),
        () if ok else ((int(i), int(j)),),
        f"min energy gap {gaps[i, j]:.3e}",
    )

    if h0 is not None:
        h0 = np.asarray(h0, dtype=complex)
        offmax = float(np.max(np.abs(h0 - np.diag(np.diag(h0))))) if h0.size else 0.0
        checks["diagonal"] = AssumptionCheck(
            "diagonal", offmax <= HERMITICITY_TOL, (),
            f"max off-diagonal magnitude of H0: {offmax:.3e}",
        )
        h = np.diag(h0).real
        pairs = [(a, b) for a in range(h.size) for b in range(h.size) if a != b]
        g = np.array([h[b] - h[a] for a, b in pairs])
        colliding = [(pairs[x], pairs[z]) for x in range(len(pairs))
                     for z in x + 1 + np.flatnonzero(
                         np.abs(_wrap_mod_2pi(g[x] - g[x + 1:])) <= ASSUMPTION_TOL)]
        checks["strong_regularity_mod_2pi"] = AssumptionCheck(
            "strong_regularity_mod_2pi", not colliding, tuple(colliding),
            f"{len(colliding)} coinciding gap pairs (mod 2 pi)",
        )

    if h1 is not None:
        h1 = np.asarray(h1, dtype=complex)
        n = h1.shape[0]
        zero = [(a, b) for a in range(n) for b in range(a + 1, n)
                if abs(h1[a, b]) <= ASSUMPTION_TOL]
        checks["full_connectivity"] = AssumptionCheck(
            "full_connectivity", not zero, tuple(zero),
            f"{len(zero)} vanishing off-diagonal couplings"
            + ("; not required when QND measurements are in the loop" if zero else ""),
        )

    if meas is not None:
        bad = meas.check_distinguishability()
        dist = meas.level_distances()
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        checks["distinguishability"] = AssumptionCheck(
            "distinguishability", not bad, tuple(bad),
            f"{len(bad)} basis-state pairs with identical statistics; smallest "
            f"distance {dist[i, j]:.3e} at levels ({i}, {j})",
        )

    return checks


@dataclass
class PipelineResult:
    h1: np.ndarray
    result: SynthesisResult


def synthesis_pipeline(p, phase_policy="positive", **problem):
    """Solve, verify the sign condition, and construct H1.

    ``problem`` takes the SynthesisProblem fields other than sigma (gamma1,
    gamma2, alpha2).  A tied minimum energy is a ValueError from
    SynthesisProblem, before the solve.  Refuses to emit a Hamiltonian when
    the solved lambda_tilde fails the sign condition: the raised
    InfeasibleLambda carries the solve as ``result``.  ``phase_policy``
    picks one of the Hamiltonians that share the solved R (see
    hamiltonian_of_r); an unknown one is a ValueError, before the solve.
    """
    _check_phase_policy(phase_policy)
    result = solve_synthesis(SynthesisProblem(sigma=p, **problem))
    if not result.feasible:
        raise InfeasibleLambda(result)
    return PipelineResult(h1=hamiltonian_of_r(result.r, phase_policy), result=result)
