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

from .core import HermitianPropagator, basis_state, commutator

__all__ = [
    "ControlDecision",
    "ControllerConfig",
    "LinearLaw",
    "QuadraticLaw",
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


class LinearLaw:
    """u = i * kappa * Tr([P, H1] rho) for one (P, H1, kappa), on a stack of states.

    Tr(A rho) is summed entrywise, as sum(A.T * rho), so row r's result has
    the same bits whatever the stack's size.
    """

    def __init__(self, p, h1, kappa):
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        gain = 1j * kappa * commutator(p.matrix(), np.asarray(h1, dtype=complex))
        self._gain = gain.T.ravel()

    def controls(self, rho):
        """u for every state of a stack rho of shape (R, n, n)."""
        val = (rho.reshape(len(rho), -1) * self._gain).sum(axis=-1)
        off = np.abs(val.imag) > 1e-10
        if off.any():
            raise ValueError("linear feedback came out complex "
                             f"(imag {val.imag[np.argmax(off)]:.3e})")
        # + 0.0 turns -0.0 (a vanishing trace) into 0.0, so logs never show "-0".
        return val.real + 0.0


def linear_feedback(p, h1, rho, kappa):
    """u = i * kappa * Tr([P, H1] rho); real for Hermitian arguments."""
    u = float(LinearLaw(p, h1, kappa).controls(np.asarray(rho, dtype=complex)[None])[0])
    return ControlDecision(u=u, linear_coeff=u / kappa)


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


class QuadraticLaw:
    """Closed-form minimization of the quadratic objective (a/2) u^2 + b u.

    a = Tr([[H1, P], H1] rho) - (eps/4) sum_i (<i|[H1, rho]|i>)^2 and
    b = i Tr([H1, P] rho), evaluated on the post-measurement state by the
    caller.  For eps = 0 they are the exact curvature and slope at u = 0 of
    u -> V(exp(-i H1 u) rho exp(i H1 u)).  For eps > 0 they are the formula
    as printed in the paper, not the derivatives of V_eps.  With d_i(u) the
    populations of the rotated state and a_0 the first term of a, the exact
    curvature is a_0 - eps sum_i (d_i'^2 + d_i d_i''), while the printed term
    equals +(eps/4) sum_i d_i'^2; the exact slope adds -eps sum_i d_i d_i',
    which b leaves out.

    u is clip(-b/a, -u_bar, u_bar) when a > 0, else the endpoint downhill of
    b; with b = 0 a flat concave parabola ties at the endpoints and follows
    cfg.tie_break, and a flat one gives u = 0.

    The law works on a stack of states rho of shape (R, n, n).  The two
    commutators are built once; every trace is summed entrywise, as
    sum(A.T * rho), so row r's result has the same bits whatever R is.
    """

    def __init__(self, p, h1, cfg):
        if cfg.kind != "quadratic":
            raise ValueError("controller config is not quadratic")
        self.cfg = cfg
        self._h1 = np.asarray(h1, dtype=complex)
        c_hp = commutator(self._h1, p.matrix())
        # Rows: the operators whose traces are a (before the eps term) and b.
        self._ops = np.stack([commutator(c_hp, self._h1).T.ravel(), (1j * c_hp).T.ravel()])

    def coefficients(self, rho):
        """Curvature a and slope b of every state of the stack, as real arrays."""
        ab = (rho.reshape(len(rho), 1, -1) * self._ops).sum(axis=-1)
        if self.cfg.epsilon > 0:
            # Diagonal entries of [H1, rho] are purely imaginary; their square
            # is a real <= 0 number, implemented as printed.
            h1 = self._h1
            diag = (h1 * rho.swapaxes(1, 2)).sum(axis=-1) - (rho * h1.T).sum(axis=-1)
            ab[:, 0] -= (self.cfg.epsilon / 4.0) * (diag**2).sum(axis=-1)
        off = np.abs(ab.imag) > (1e-9, 1e-10)
        if off.any():
            r = int(np.argmax(off.any(axis=-1)))
            raise ValueError(
                f"quadratic coefficients came out complex (a={ab[r, 0]}, b={ab[r, 1]})")
        return ab[:, 0].real, ab[:, 1].real

    def choose(self, a, b, draw=None):
        """u for arrays of curvature a and slope b.

        ``draw(mask)`` returns one uniform per True entry of mask, from that
        state's own stream; it is called only for random-sign ties, and
        without it a tie takes +u_bar.
        """
        ub = self.cfg.u_bar
        convex = a > 1e-12
        sloped = np.abs(b) > 1e-12
        # clip(-b/a) where convex; + 0.0 turns -0.0 (from b = 0) into 0.0, so
        # logs never show "-0".
        interior = np.minimum(np.maximum(-b / np.where(convex, a, 1.0), -ub), ub) + 0.0
        u = np.where(convex, interior, np.where(sloped, -ub * np.sign(b), 0.0))
        # Flat concave parabola: both endpoints tie.
        tie = ~convex & ~sloped & (a < -1e-12)
        if tie.any():
            if self.cfg.tie_break == "random-sign" and draw is not None:
                u[tie] = np.where(draw(tie) < 0.5, ub, -ub)
            else:
                u[tie] = ub
        return u

    def controls(self, rho, draw=None):
        """u for every state of a stack rho of shape (R, n, n)."""
        return self.choose(*self.coefficients(rho), draw)


def quadratic_feedback(p, h1, rho, cfg, rng=None):
    """The quadratic law (see QuadraticLaw) for one state.

    A random-sign tie draws one number from ``rng``; without it a tie takes
    +u_bar.
    """
    law = QuadraticLaw(p, h1, cfg)
    a, b = law.coefficients(np.asarray(rho, dtype=complex)[None])
    draw = None if rng is None else (lambda mask: rng.random(int(mask.sum())))
    u = float(law.choose(a, b, draw)[0])
    a, b = float(a[0]), float(b[0])
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
