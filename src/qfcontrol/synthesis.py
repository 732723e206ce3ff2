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
steps, a box clip for lambda and a shifted non-negative clip for w.  With the
penalty on, a non-negative least-squares solve on the identified support
finishes the weights exactly.  :func:`cone_violations` checks a result
against the cone as defined above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, DiagonalObservable, is_hermitian

__all__ = [
    "CONE_TOL",
    "InfeasibleLambda",
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


class InfeasibleLambda(RuntimeError):
    """The solved lambda_tilde violates the sign condition."""


# ---------------------------------------------------------------------------
# Cone membership
# ---------------------------------------------------------------------------

def cone_violations(r, tol=CONE_TOL):
    """Violation magnitudes of the four cone membership conditions."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    off = r[~np.eye(n, dtype=bool)]
    return {
        "symmetry": float(np.max(np.abs(r - r.T))),
        "negative_semidefinite": float(max(np.linalg.eigvalsh((r + r.T) / 2)[-1], 0.0)),
        "row_sums": float(np.max(np.abs(r.sum(axis=1)))),
        "diagonal_sign": float(max(np.max(np.diag(r)), 0.0)),
        "offdiagonal_sign": float(max(np.max(-off), 0.0)),
    }


def in_cone(r, tol=CONE_TOL):
    return all(v <= tol for v in cone_violations(r, tol).values())


# ---------------------------------------------------------------------------
# R <-> H1
# ---------------------------------------------------------------------------

def r_of_hamiltonian(h1):
    """Connectivity matrix of a control Hamiltonian.

    Off-diagonal 2|H1_ij|^2, diagonal 2(|H1_ii|^2 - (H1^2)_ii).  The zero
    row sums are an algebraic identity: (H1^2)_ii = sum_j |H1_ij|^2.
    """
    h1 = np.asarray(h1, dtype=complex)
    if not is_hermitian(h1):
        raise ValueError("r_of_hamiltonian requires a Hermitian input")
    r = 2.0 * np.abs(h1) ** 2
    h2diag = np.einsum("ij,ji->i", h1, h1).real
    np.fill_diagonal(r, 2.0 * (np.abs(np.diag(h1)) ** 2 - h2diag))
    return r


def hamiltonian_of_r(r, phase_policy="positive"):
    """Control Hamiltonian with |H1_ij| = sqrt(R_ij / 2) and zero diagonal.

    The square-root convention sqrt(R/2) makes the round trip through
    r_of_hamiltonian exact.  ``phase_policy`` selects the free phases:
    all-positive entries, alternating signs, or purely imaginary
    off-diagonals; every choice is Hermitian.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    off = r.copy()
    np.fill_diagonal(off, 0.0)
    if float(np.min(off)) < -CONE_TOL:
        raise ValueError(f"off-diagonal entry {np.min(off):.3e} below tolerance")
    mag = np.sqrt(np.maximum(off, 0.0) / 2.0)
    if phase_policy == "positive":
        h1 = mag.astype(complex)
    elif phase_policy == "alternating":
        signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
        h1 = (signs * mag).astype(complex)
    elif phase_policy == "imaginary-off-diagonal":
        phases = 1j * np.sign(np.subtract.outer(np.arange(n), np.arange(n)))
        h1 = phases * mag
    else:
        raise ValueError(f"unknown phase policy {phase_policy!r}")
    return h1


def verify_lambda(lambda_tilde, n_star, margin=0.0):
    """Sign-condition verdict on lambda_tilde, with a per-entry report.

    With margin = 0 the inequalities are strict (the condition the
    convergence proposition needs); a positive margin demands clearance.
    """
    lam = np.asarray(lambda_tilde, dtype=float)
    report = []
    ok = True
    for i, v in enumerate(lam):
        if i == n_star:
            good = v >= margin if margin > 0 else v > 0
            report.append((i, v, "minimizer entry must be positive", good))
        else:
            good = v <= -margin if margin > 0 else v < 0
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
    """Hyper-parameters of the synthesis program.

    gamma1/gamma2 keep lambda away from zero; alpha2 > 0 switches on the
    sparsity penalty; norm picks the residual norm ('l1' or 'l2').
    """

    sigma: DiagonalObservable
    gamma1: float = 1.0
    gamma2: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 0.0
    norm: str = "l2"

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("gamma1 and gamma2 must be strictly positive")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("alpha weights must be non-negative")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"unknown norm {self.norm!r}")


@dataclass
class SynthesisResult:
    r: np.ndarray
    lam: np.ndarray            # the solver's box-feasible lambda variable
    lambda_tilde: np.ndarray   # R @ sigma
    residual: float
    objective: float
    iterations: int
    feasible: bool

    def to_json(self):
        return {
            "r": self.r.tolist(),
            "lambda": self.lam.tolist(),
            "lambda_tilde": self.lambda_tilde.tolist(),
            "residual": self.residual,
            "objective": self.objective,
            "iterations": self.iterations,
            "feasible": bool(self.feasible),
            "convention": "sqrt(R/2)",
            "index_convention": "0-based",
        }


def _residual_norm(v, norm):
    return float(np.linalg.norm(v, 1 if norm == "l1" else 2))


def _edge_list(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _r_of_edge_weights(w, edges, n):
    r = np.zeros((n, n))
    for e, (i, j) in enumerate(edges):
        r[i, j] = r[j, i] = w[e]
        r[i, i] -= w[e]
        r[j, j] -= w[e]
    return r


def _nnls(a, b, tol=1e-12, max_iter=200):
    """Small dense non-negative least squares (Lawson-Hanson active set)."""
    m = a.shape[1]
    passive = np.zeros(m, dtype=bool)
    x = np.zeros(m)
    for _ in range(max_iter):
        grad = a.T @ (b - a @ x)
        candidates = np.where(~passive & (grad > tol))[0]
        if candidates.size == 0:
            return x
        passive[candidates[np.argmax(grad[candidates])]] = True
        while True:
            z = np.zeros(m)
            z[passive], *_ = np.linalg.lstsq(a[:, passive], b, rcond=None)
            if np.all(z[passive] > tol):
                x = z
                break
            neg = passive & (z <= tol)
            with np.errstate(divide="ignore", invalid="ignore"):
                alphas = x[neg] / (x[neg] - z[neg])
            alpha = float(np.min(alphas))
            x = x + alpha * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
    return x


def solve_synthesis(problem, max_iter=50000, rel_tol=1e-9):
    """Solve min alpha1 ||R sigma - lambda|| + alpha2 ||vec R||_1 over the cone.

    The cone is exactly the set of negated weighted graph Laplacians, so R is
    parametrized by non-negative edge weights w:  R(w) = -sum_e w_e L_e.  In
    that coordinate system all three cone conditions reduce to w >= 0 and the
    sparsity penalty is 4 * sum(w), so the splitting scheme needs only exact
    closed-form projections: a box clip for lambda and a (shifted) nonneg clip
    for w.  The scheme is a primal-dual iteration with deterministic zero
    initialization; sigma is normalized internally so step sizes are
    independent of the energy scale.  When the sparsity penalty is active, the
    identified support is polished by alternating the lambda clip with an
    exact non-negative least-squares solve restricted to the support, which
    removes the slow first-order tail.
    """
    sigma = problem.sigma.sigma
    n = sigma.size
    n_star = problem.sigma.n_star
    scale = float(np.linalg.norm(sigma))
    if scale == 0.0:
        raise ValueError("sigma must not be the zero vector")
    sig = sigma / scale
    g1 = problem.gamma1 / scale
    g2 = problem.gamma2 / scale
    a1 = problem.alpha1
    # Objective scaled by 1/scale: (alpha1, alpha2/scale); l1 of vec(R) is
    # 4*sum(w) in edge coordinates.
    a2_edge = 4.0 * problem.alpha2 / scale

    edges = _edge_list(n)
    n_edges = len(edges)
    # (A w)_n = (R(w) sigma)_n: column e touches rows i and j with -(sig_i -
    # sig_j) and +(sig_i - sig_j).
    amat = np.zeros((n, n_edges))
    for e, (i, j) in enumerate(edges):
        gap = sig[i] - sig[j]
        amat[i, e] = -gap
        amat[j, e] = gap

    others = np.arange(n) != n_star

    def box_clip(lam):
        out = lam.copy()
        out[others] = np.minimum(out[others], -g1)
        out[n_star] = max(out[n_star], g2)
        return out

    if problem.norm == "l2":
        def dual_proj(y):
            nrm = float(np.linalg.norm(y))
            return y if nrm <= a1 else y * (a1 / nrm)
    else:
        def dual_proj(y):
            return np.clip(y, -a1, a1)

    knorm = float(np.sqrt(np.linalg.norm(amat, 2) ** 2 + 1.0))
    tau = 0.95 / knorm
    sig_d = 0.95 / knorm

    w = np.zeros(n_edges)
    lam = box_clip(np.zeros(n))
    w_bar, lam_bar = w, lam
    y = np.zeros(n)

    def objective_of(w_vec, lam_vec):
        resid = _residual_norm((amat @ w_vec - lam_vec) * scale, problem.norm)
        return problem.alpha1 * resid + 4.0 * problem.alpha2 * float(np.sum(w_vec))

    prev_obj = objective_of(w, lam)
    calm = 0
    iterations = max_iter
    for k in range(1, max_iter + 1):
        y = dual_proj(y + sig_d * (amat @ w_bar - lam_bar))
        w_new = np.maximum(w - tau * (amat.T @ y) - tau * a2_edge, 0.0)
        lam_new = box_clip(lam + tau * y)
        w_bar = 2 * w_new - w
        lam_bar = 2 * lam_new - lam
        drift = scale * max(float(np.max(np.abs(w_new - w))),
                            float(np.max(np.abs(lam_new - lam))))
        w, lam = w_new, lam_new
        obj = objective_of(w, lam)
        if abs(obj - prev_obj) <= rel_tol * max(1.0, abs(obj)) and drift <= 1e-11:
            calm += 1
            if calm >= 25:
                iterations = k
                break
        else:
            calm = 0
        prev_obj = obj

    if problem.alpha2 > 0:
        # Support polish: the first-order phase identifies the sparsity
        # pattern quickly but crawls toward the exact weights; on the support
        # the residual-zero point is unique, so finish it off exactly.
        support = np.where(w > 1e-8 * max(1.0, float(np.max(w, initial=0.0))))[0]
        if support.size:
            a_s = amat[:, support]
            w_s = w[support]
            for _ in range(100):
                lam_pol = box_clip(a_s @ w_s)
                w_next = _nnls(a_s, lam_pol)
                if float(np.max(np.abs(w_next - w_s))) <= 1e-14:
                    w_s = w_next
                    break
                w_s = w_next
            cand = np.zeros(n_edges)
            cand[support] = w_s
            cand_lam = box_clip(amat @ cand)
            if objective_of(cand, cand_lam) <= objective_of(w, lam) + 1e-12:
                w, lam = cand, cand_lam

    r = _r_of_edge_weights(w, edges, n)
    lam_out = lam * scale
    lambda_tilde = r @ sigma
    residual = _residual_norm(lambda_tilde - lam_out, problem.norm)
    sign_ok, _ = verify_lambda(lambda_tilde, n_star)
    # A sign pattern made of round-off noise is not a solution: the fit to
    # the box-feasible lambda must actually be achieved.
    feasible = sign_ok and residual <= 1e-6 * max(1.0, float(np.linalg.norm(lam_out)))
    return SynthesisResult(
        r=r,
        lam=lam_out,
        lambda_tilde=lambda_tilde,
        residual=residual,
        objective=float(objective_of(w, lam)),
        iterations=iterations,
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


def assumption_report(p, h0=None, h1=None, meas=None, tol=1e-8):
    """Structural checks backing the convergence guarantees.

    Returns a dict of named checks; inputs not supplied are skipped.
    - 'diagonal': H0 is diagonal in the reference basis.
    - 'nondegenerate_spectrum': all energy gaps of P exceed tol.
    - 'strong_regularity_mod_2pi': no two distinct ordered eigenvalue gaps of
      H0 coincide modulo 2*pi (the discrete-time version of strong
      regularity).
    - 'full_connectivity': every off-diagonal entry of H1 is nonzero.
    - 'distinguishability': every basis-state pair has distinct measurement
      statistics.
    """
    checks = {}

    gaps = np.abs(np.subtract.outer(p.sigma, p.sigma))
    np.fill_diagonal(gaps, np.inf)
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    ok = gaps[i, j] > tol
    checks["nondegenerate_spectrum"] = AssumptionCheck(
        "nondegenerate_spectrum", bool(ok),
        () if ok else ((int(i), int(j)),),
        f"min energy gap {gaps[i, j]:.3e}",
    )

    if h0 is not None:
        h0 = np.asarray(h0, dtype=complex)
        offmax = float(np.max(np.abs(h0 - np.diag(np.diag(h0))))) if h0.size else 0.0
        checks["diagonal"] = AssumptionCheck(
            "diagonal", offmax <= DEFAULT_TOL.hermiticity, (),
            f"max off-diagonal magnitude of H0: {offmax:.3e}",
        )
        h = np.diag(h0).real
        n = h.size
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        colliding = []
        for x in range(len(pairs)):
            for z in range(x + 1, len(pairs)):
                ga = h[pairs[x][1]] - h[pairs[x][0]]
                gb = h[pairs[z][1]] - h[pairs[z][0]]
                if abs(_wrap_mod_2pi(ga - gb)) <= tol:
                    colliding.append((pairs[x], pairs[z]))
        checks["strong_regularity_mod_2pi"] = AssumptionCheck(
            "strong_regularity_mod_2pi", not colliding, tuple(colliding),
            f"{len(colliding)} coinciding gap pairs (mod 2 pi)",
        )

    if h1 is not None:
        h1 = np.asarray(h1, dtype=complex)
        n = h1.shape[0]
        zero = [(a, b) for a in range(n) for b in range(a + 1, n)
                if abs(h1[a, b]) <= tol]
        checks["full_connectivity"] = AssumptionCheck(
            "full_connectivity", not zero, tuple(zero),
            f"{len(zero)} vanishing off-diagonal couplings"
            + ("; not required when QND measurements are in the loop" if zero else ""),
        )

    if meas is not None:
        bad = meas.check_distinguishability(tol)
        checks["distinguishability"] = AssumptionCheck(
            "distinguishability", not bad, tuple(bad),
            f"{len(bad)} basis-state pairs with identical statistics",
        )

    return checks


@dataclass
class PipelineResult:
    h1: np.ndarray
    r: np.ndarray
    result: SynthesisResult
    assumptions: dict


def synthesis_pipeline(p, cfg=None, phase_policy="positive", meas=None, **solver_kwargs):
    """Solve, verify the sign condition, and construct H1.

    Refuses to emit a Hamiltonian when the solved lambda_tilde fails the sign
    condition; the raised error suggests adjusting the hyper-parameters.
    """
    if cfg is None:
        cfg = SynthesisProblem(sigma=p)
    if cfg.sigma is not p and not (
        np.array_equal(cfg.sigma.sigma, p.sigma) and cfg.sigma.n_star == p.n_star
    ):
        raise ValueError("cfg.sigma must match the observable being synthesized for")
    if np.sum(np.abs(p.sigma - p.sigma.min()) <= 1e-12) > 1:
        warnings.warn("minimum energy is degenerate; n_star selects one minimizer")

    result = solve_synthesis(cfg, **solver_kwargs)
    if not result.feasible:
        raise InfeasibleLambda(
            "solved lambda_tilde fails the sign condition; "
            "adjust gamma1/gamma2 (or alpha weights) and re-solve"
        )
    h1 = hamiltonian_of_r(result.r, phase_policy)
    report = assumption_report(p, h1=h1, meas=meas)
    return PipelineResult(h1=h1, r=result.r, result=result, assumptions=report)
