"""Feedback laws and the Lyapunov functionals they optimize.

Three controllers are provided:

- linear:     u = i * kappa * Tr([P, H1] rho), the measurement-free law.
- exact-min:  u = argmin over [-u_bar, u_bar] of the exact expected
              post-step Lyapunov value (grid + golden-section refinement).
- quadratic:  closed-form minimization of the second-order expansion of the
              same objective, the fast approximation used in practice.

All of them are pure functions of the current state; any tie-break
randomness draws from the caller's stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, HermitianPropagator, basis_state, commutator

__all__ = [
    "ControlDecision",
    "ControllerConfig",
    "curvature_at_eigenstate",
    "exact_min_feedback",
    "expected_v_after",
    "linear_feedback",
    "lyapunov_v",
    "lyapunov_v_eps",
    "quadratic_feedback",
]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ControllerConfig:
    """Controller kind and its parameters.

    kappa applies to the linear law only; u_bar bounds the stochastic
    controllers; epsilon is the Lyapunov regularizer (0 by default, matching
    the reference experiments).  tie_break resolves flat quadratics: always
    +u_bar, or a random sign from the trajectory's stream.
    """

    kind: str = "quadratic"
    kappa: float = 0.05
    u_bar: float = 0.1
    epsilon: float = 0.0
    tie_break: str = "positive"

    def __post_init__(self):
        if self.kind not in ("linear", "exact-min", "quadratic"):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind == "linear" and self.kappa <= 0:
            raise ValueError("linear feedback requires kappa > 0")
        if self.kind in ("exact-min", "quadratic") and self.u_bar <= 0:
            raise ValueError("bounded controllers require u_bar > 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.tie_break not in ("positive", "random-sign"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")

    def to_json(self):
        return {
            "kind": self.kind,
            "kappa": self.kappa,
            "u_bar": self.u_bar,
            "epsilon": self.epsilon,
            "tie_break": self.tie_break,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


@dataclass(frozen=True)
class ControlDecision:
    u: float
    linear_coeff: float = 0.0
    quadratic_coeff: float = 0.0
    predicted_dv: float = 0.0


def lyapunov_v(p, rho):
    """V(rho) = sum_n p_n rho_nn."""
    rho = np.asarray(rho)
    if rho.shape[0] != p.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]} vs observable {p.dim}")
    return float(p.sigma @ rho.diagonal().real)


def lyapunov_v_eps(p, rho, epsilon):
    """Regularized Lyapunov value V(rho) - (eps/2) sum_n rho_nn^2."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    d = np.asarray(rho).diagonal().real
    return lyapunov_v(p, rho) - 0.5 * epsilon * float(d @ d)


def linear_feedback(p, h1, rho, kappa):
    """u = i * kappa * Tr([P, H1] rho); real for Hermitian arguments."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    val = 1j * kappa * complex(np.trace(commutator(p.matrix(), np.asarray(h1, dtype=complex)) @ rho))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"linear feedback came out complex (imag {val.imag:.3e})")
    return ControlDecision(u=float(val.real), linear_coeff=float(val.real) / kappa)


def _as_propagator(h1):
    return h1 if isinstance(h1, HermitianPropagator) else HermitianPropagator(h1)


def expected_v_after(p, h1, meas, rho, u, epsilon=0.0):
    """Exact E[V_eps(rho')] after measuring and applying exp(-i H1 u).

    Averages over measurement outcomes analytically; no sampling.  ``h1`` may
    be a matrix or an already-built HermitianPropagator.
    """
    prop = _as_propagator(h1)
    return meas.expected_update(
        rho, lambda post: lyapunov_v_eps(p, prop.conjugate(post, u), epsilon)
    )


def exact_min_feedback(p, h1, meas, rho, cfg):
    """Minimize the exact expected post-step Lyapunov value over [-u_bar, u_bar].

    Coarse 129-point grid, ties broken toward 0 then +u_bar, then
    golden-section refinement of the bracketing interval down to width 1e-8.
    """
    if cfg.kind != "exact-min":
        raise ValueError("controller config is not exact-min")
    prop = _as_propagator(h1)

    def f(u):
        return expected_v_after(p, prop, meas, rho, u, cfg.epsilon)

    grid = np.linspace(-cfg.u_bar, cfg.u_bar, 129)
    vals = np.array([f(u) for u in grid])
    best = np.flatnonzero(vals <= vals.min() + 0.0)
    # Ties: prefer the point closest to 0, then the positive one.
    best_idx = int(best[np.lexsort((-grid[best], np.abs(grid[best])))[0]])

    lo = grid[max(best_idx - 1, 0)]
    hi = grid[min(best_idx + 1, grid.size - 1)]
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    u = float((a + b) / 2)
    if f(u) > vals[best_idx]:
        u = float(grid[best_idx])
    v_now = lyapunov_v_eps(p, rho, cfg.epsilon)
    return ControlDecision(u=u, predicted_dv=f(u) - v_now)


def quadratic_feedback(p, h1, rho, cfg, rng=None):
    """Closed-form minimization of the quadratic objective (a/2) u^2 + b u.

    a = Tr([[H1, P], H1] rho) - (eps/4) sum_i (<i|[H1, rho]|i>)^2 and
    b = i Tr([H1, P] rho), the exact curvature and slope at u = 0 of
    u -> V(exp(-i H1 u) rho exp(i H1 u)), evaluated on the post-measurement
    state by the caller.  Degenerate (|a| tiny) cases fall back to the linear
    term; flat concave cases tie at the endpoints and follow cfg.tie_break.
    """
    if cfg.kind != "quadratic":
        raise ValueError("controller config is not quadratic")
    h1 = np.asarray(h1, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    pm = p.matrix()
    c_hp = commutator(h1, pm)
    a = complex(np.trace(commutator(c_hp, h1) @ rho))
    if cfg.epsilon > 0:
        # Diagonal entries of [H1, rho] are purely imaginary; their square is
        # a real <= 0 number, implemented as printed.
        diag = np.diag(commutator(h1, rho))
        a -= (cfg.epsilon / 4.0) * complex(np.sum(diag**2))
    b = 1j * complex(np.trace(c_hp @ rho))
    if abs(a.imag) > 1e-9 or abs(b.imag) > 1e-10:
        raise ValueError(f"quadratic coefficients came out complex (a={a}, b={b})")
    a, b = a.real, b.real

    ub = cfg.u_bar
    if abs(a) <= 1e-12:
        if abs(b) <= 1e-12:
            u = 0.0
        else:
            u = -ub * float(np.sign(b))
    else:
        candidates = [-ub, ub]
        if a > 1e-12:
            # + 0.0 turns -0.0 (from b = 0) into 0.0, so logs never show "-0".
            interior = -b / a + 0.0
            if -ub < interior < ub:
                candidates.append(interior)
        values = [0.5 * a * u_**2 + b * u_ for u_ in candidates]
        order = int(np.argmin(values))
        # Flat concave parabola: both endpoints tie.
        if a < 0 and abs(b) <= 1e-12:
            if cfg.tie_break == "random-sign" and rng is not None:
                u = ub if rng.random() < 0.5 else -ub
            else:
                u = ub
        else:
            u = float(candidates[order])
    return ControlDecision(
        u=u,
        linear_coeff=b,
        quadratic_coeff=a,
        predicted_dv=0.5 * a * u**2 + b * u,
    )


def curvature_at_eigenstate(p, h1, meas, n, step=1e-3):
    """Central second difference of the expected post-step energy at u = 0.

    Evaluated at rho = |n><n| with epsilon = 0; equals (R sigma)_n for
    R = r_of_hamiltonian(H1), which is the mechanism behind the convergence
    guarantee: negative curvature off the target, positive at it.
    """
    prop = _as_propagator(h1)
    if not 0 <= n < prop.dim:
        raise IndexError(f"basis index {n} out of range")
    rho = basis_state(n, prop.dim)

    def f(u):
        return expected_v_after(p, prop, meas, rho, u, 0.0)

    return (f(step) - 2.0 * f(0.0) + f(-step)) / step**2
