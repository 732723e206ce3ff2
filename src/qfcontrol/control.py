"""Feedback laws and the Lyapunov functionals they optimize.

Three controllers are provided:

- linear:     u = i * kappa * Tr([P, H1] rho), the measurement-free law.
- exact-min:  u = argmin over [-u_bar, u_bar] of the exact expected
              post-step Lyapunov value, a trigonometric polynomial in u
              evaluated in closed form (grid, then Newton steps).
- quadratic:  closed-form minimization of the second-order expansion of the
              same objective, the fast approximation used in practice.

Each works on a stack of states of shape (R, n, n) (``LinearLaw``,
``ExactMinLaw``, ``QuadraticLaw``) and has a one-state wrapper.  All of them
are pure functions of the current state; any tie-break randomness draws from
the caller's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HermitianPropagator, basis_state, commutator
from .measurement import P_FLOOR

__all__ = [
    "ControlDecision",
    "ControllerConfig",
    "ExactMinLaw",
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

# The exact-min search: the best of GRID_POINTS evenly spaced controls over
# [-u_bar, u_bar], then NEWTON_STEPS Newton steps inside its grid bracket.
GRID_POINTS = 129
NEWTON_STEPS = 4


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
        for name in ("kappa", "u_bar", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


class ExactMinLaw:
    """argmin over [-u_bar, u_bar] of the exact E[V_eps] after measuring, then rotating.

    With H1 = W diag(e) W^dagger and X_mu = M_mu rho M_mu^dagger the
    unnormalized branch of outcome mu (probability p_mu = Tr X_mu), the
    populations of exp(-i H1 u) X_mu exp(i H1 u) are

        d_mu,i(u) = Re sum_jk W_ij conj(W_ik) (W^dagger X_mu W)_jk exp(-i (e_j - e_k) u),

    and the objective is

        f(u) = sum_mu [sigma . d_mu(u) - (eps / 2 p_mu) d_mu(u) . d_mu(u)]

    over the branches with p_mu > P_FLOOR, the dead-branch rule of
    QndMeasurement.expected_update; it equals expected_v_after.  f' and f''
    follow term by term, so eps = 0 and eps > 0 take the same path.

    u starts at the best of GRID_POINTS evenly spaced controls, ties broken
    toward 0, then toward +u_bar.  NEWTON_STEPS steps follow, each moving to
    the minimum over the grid bracket (the neighbouring grid points) of the
    second-order model at the current u: the Newton point when f'' > 0,
    else the bracket end downhill of f'.  If f ends above the grid point's
    value, the grid point is kept.

    The eigendecomposition comes from the propagator's cache.  Every product
    is a stacked matmul and every sum runs along a contiguous last axis, so
    row r's result has the same bits whatever the stack's size.
    """

    def __init__(self, p, h1, meas, cfg):
        if cfg.kind != "exact-min":
            raise ValueError("controller config is not exact-min")
        self.cfg = cfg
        self._sigma = p.sigma
        self._meas = meas
        e, w = _as_propagator(h1).eigh
        n = e.size
        self._w, self._wh = w, w.conj().T
        # mix[i, jk] = W_ij conj(W_ik): the population map of the eigenbasis.
        self._mix = (w[:, :, None] * w.conj()[:, None, :]).reshape(n, n * n)
        self._omega = (e[:, None] - e[None, :]).ravel()
        self.grid = np.linspace(-cfg.u_bar, cfg.u_bar, GRID_POINTS)
        self._grid_phase = np.exp(-1j * self.grid[:, None] * self._omega)
        # Grid indices in order of preference: closest to 0, then positive.
        self._preference = np.lexsort((-self.grid, np.abs(self.grid)))

    def _branches(self, rho):
        """The (R, n^2, m n) table whose product with a phase row gives every d_mu,i.

        Also returns the coefficients of f on d and on d * d, each (R, m n):
        sigma_i and -eps / (2 p_mu) on live branches, 0 on dead ones.
        """
        meas = self._meas
        n_runs, n = len(rho), rho.shape[-1]
        pop = rho.diagonal(axis1=1, axis2=2).real
        p = (pop[:, None, :] * meas.weights).sum(axis=-1)
        live = p > P_FLOOR
        x = meas.projectors * rho[:, None]
        y = self._wh @ x @ self._w
        table = (y.reshape(n_runs, -1, 1, n * n) * self._mix).reshape(n_runs, -1, n * n)
        lin = np.where(live[:, :, None], self._sigma, 0.0).reshape(n_runs, -1)
        quad = np.where(live, -0.5 * self.cfg.epsilon / np.where(live, p, 1.0), 0.0)
        quad = np.repeat(quad, n, axis=1)
        return table.swapaxes(1, 2), lin, quad

    def objective(self, rho, u):
        """f, f' and f'' at u[r] for every state of a stack rho of shape (R, n, n)."""
        return self._derivatives(self._branches(rho), np.asarray(u, dtype=float))

    def _derivatives(self, branches, u):
        table, lin, quad = branches
        phase = np.exp(-1j * u[:, None] * self._omega)
        rows = np.stack([phase, -1j * self._omega * phase, -self._omega**2 * phase], axis=1)
        d, d1, d2 = (rows @ table).real.swapaxes(0, 1)
        f = (lin * d + quad * d * d).sum(axis=-1)
        df = (lin * d1 + 2.0 * quad * d * d1).sum(axis=-1)
        d2f = (lin * d2 + 2.0 * quad * (d1 * d1 + d * d2)).sum(axis=-1)
        return f, df, d2f

    def minimize(self, rho):
        """The chosen u and f(u) for every state of a stack rho of shape (R, n, n)."""
        branches = self._branches(rho)
        table, lin, quad = branches
        d = (self._grid_phase @ table).real
        values = (lin[:, None] * d + quad[:, None] * d * d).sum(axis=-1)
        floor = values.min(axis=-1)
        tied = values <= floor[:, None]
        best = self._preference[np.argmax(tied[:, self._preference], axis=-1)]
        lo = self.grid[np.maximum(best - 1, 0)]
        hi = self.grid[np.minimum(best + 1, GRID_POINTS - 1)]
        u = self.grid[best]
        for _ in range(NEWTON_STEPS):
            _, df, d2f = self._derivatives(branches, u)
            convex = d2f > 0
            newton = u - df / np.where(convex, d2f, 1.0)
            downhill = np.where(df > 0, lo, np.where(df < 0, hi, u))
            u = np.minimum(np.maximum(np.where(convex, newton, downhill), lo), hi)
        f = self._derivatives(branches, u)[0]
        worse = f > floor
        # + 0.0 turns -0.0 into 0.0, so logs never show "-0".
        return np.where(worse, self.grid[best], u) + 0.0, np.where(worse, floor, f)

    def controls(self, rho):
        """u for every state of a stack rho of shape (R, n, n)."""
        return self.minimize(rho)[0]


def exact_min_feedback(p, h1, meas, rho, cfg):
    """The exact-min law (see ExactMinLaw) for one state."""
    u, f = ExactMinLaw(p, h1, meas, cfg).minimize(np.asarray(rho, dtype=complex)[None])
    return ControlDecision(u=float(u[0]),
                           predicted_dv=float(f[0]) - lyapunov_v_eps(p, rho, cfg.epsilon))


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


def curvature_at_eigenstate(p, h1, meas, n):
    """f''(0) of the exact expected post-step energy at rho = |n><n|, eps = 0.

    The measurement is part of the objective (see ExactMinLaw).  It equals
    (R sigma)_n for R = r_of_hamiltonian(H1), which is the mechanism behind
    the convergence guarantee: negative curvature off the target, positive
    at it.
    """
    prop = _as_propagator(h1)
    if not 0 <= n < prop.dim:
        raise IndexError(f"basis index {n} out of range")
    law = ExactMinLaw(p, prop, meas, ControllerConfig(kind="exact-min"))
    return float(law.objective(basis_state(n, prop.dim)[None], np.zeros(1))[2][0])
