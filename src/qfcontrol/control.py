"""Feedback laws that descend the Lyapunov value V(rho) = sum_n sigma_n rho_nn.

Three controllers are provided:

- linear:     u = i * kappa * Tr([P, H1] rho), the measurement-free law.
- exact-min:  u = argmin over [-u_bar, u_bar] of the exact expected
              post-step Lyapunov value, a trigonometric polynomial in u
              evaluated in closed form (grid, then at most NEWTON_STEPS
              Newton steps, stopping once a step moves no row).
- quadratic:  closed-form minimization of the second-order expansion of the
              same objective, the fast approximation used in practice.

Each is a class, ``LinearLaw``, ``ExactMinLaw`` or ``QuadraticLaw``, built
once per system and applied to a stack of states of shape (R, n, n); a single
state is the stack ``rho[None]``.  All of them are pure functions of the
current state.

The laws pass scalars as 0-d arrays built once, count guards with
``np.count_nonzero`` and fill choices with ``np.copysign`` and a masked
``np.divide``: on a stack of 5 states a ufunc takes a 0-d array in about
0.7 us against 1.0 us for a Python float, a count takes 0.3 us against
1.0-1.6 us for ``.any()``/``.all()``, and ``np.copysign`` 0.4 us against
1.1 us for ``np.where``, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    _ZERO,
    HermitianPropagator,
    _frozen,
    basis_state,
    commutator,
    json_number,
    json_object,
)
from .measurement import _P_FLOOR

__all__ = [
    "ControllerConfig",
    "ExactMinLaw",
    "LinearLaw",
    "QuadraticLaw",
    "curvature_at_eigenstate",
]

# The exact-min search: the best of GRID_POINTS evenly spaced controls over
# [-u_bar, u_bar], then at most NEWTON_STEPS Newton steps inside its grid
# bracket, stopping once a step moves no row.
GRID_POINTS = 129
NEWTON_STEPS = 4
# At eps > 0 the exact-min law keeps an (R, n^2, m n) branch table, so it
# minimizes a stack this many rows at a time to bound its memory.
_EPS_BLOCK = 32

# Factors of the eps term's d.d, (d.d)' and (d.d)'' on d d, d d' and d d'' + d' d'.
_PRODUCT_RULE = np.array([[1.0], [2.0], [2.0]])

# Largest imaginary parts tolerated in the quadratic law's a and b, and in
# the linear law's u.
_IMAG_TOL = np.array([1e-9, 1e-10])
_LINEAR_IMAG_TOL = _frozen(1e-10)

# The quadratic law's a and b count as zero within this.
_FLAT_TOL = _frozen(1e-12)
_MINUS_FLAT_TOL = _frozen(-1e-12)


@dataclass(frozen=True)
class ControllerConfig:
    """Controller kind and its parameters.

    kappa applies to the linear law only; u_bar bounds the stochastic
    controllers; epsilon is the Lyapunov regularizer (0 by default, matching
    the reference experiments).  Each is a number, stored as a float.  A
    refusal names its field by the config path, as in ``controller.u_bar``.
    """

    kind: str = "quadratic"
    kappa: float = 0.05
    u_bar: float = 0.1
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "exact-min", "quadratic"):
            raise ValueError(f"controller.kind is {self.kind!r}, but must be 'linear', "
                             "'exact-min' or 'quadratic'")
        for name in ("kappa", "u_bar", "epsilon"):
            value = json_number(getattr(self, name), f"controller.{name}")
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"controller.{name} is {value}, but must be finite")
        if self.kind == "linear" and self.kappa <= 0:
            raise ValueError(f"controller.kappa is {self.kappa}, but the linear controller "
                             "needs it > 0")
        if self.kind in ("exact-min", "quadratic") and self.u_bar <= 0:
            raise ValueError(f"controller.u_bar is {self.u_bar}, but the {self.kind} controller "
                             "needs it > 0")
        if self.epsilon < 0:
            raise ValueError(f"controller.epsilon is {self.epsilon}, but must be non-negative")

    def to_json(self):
        return {
            "kind": self.kind,
            "kappa": self.kappa,
            "u_bar": self.u_bar,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(**json_object(obj, "controller", [f.name for f in fields(cls)]))


class LinearLaw:
    """u = i * kappa * Tr([P, H1] rho) for one (P, H1, kappa), on a stack of states.

    Tr(A rho) is summed entrywise, as sum(A.T * rho), so row r's result has
    the same bits whatever the stack's size.
    """

    def __init__(self, p, h1, kappa):
        kappa = json_number(kappa, "kappa")
        if not math.isfinite(kappa):
            raise ValueError(f"kappa must be finite, got {kappa}")
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        gain = 1j * kappa * commutator(p.matrix(), np.asarray(h1, dtype=complex))
        self._gain = gain.T.ravel()

    def controls(self, rho):
        """u for every state of a stack rho of shape (R, n, n)."""
        val = np.add.reduce(rho.reshape(len(rho), -1) * self._gain, -1)
        off = np.abs(val.imag) > _LINEAR_IMAG_TOL
        if np.count_nonzero(off):
            raise ValueError("linear feedback came out complex "
                             f"(imag {val.imag[np.argmax(off)]:.3e})")
        # + 0.0 turns -0.0 (a vanishing trace) into 0.0, so logs never show "-0".
        return val.real + _ZERO


class ExactMinLaw:
    """argmin over [-u_bar, u_bar] of the exact E[V_eps] after measuring, then rotating.

    With H1 = W diag(e) W^dagger, omega_jk = e_j - e_k and X_mu =
    M_mu rho M_mu^dagger the unnormalized branch of outcome mu (probability
    p_mu = Tr X_mu), the populations of exp(-i H1 u) X_mu exp(i H1 u) are

        d_mu,i(u) = Re sum_jk W_ij conj(W_ik) (W^dagger X_mu W)_jk exp(-i omega_jk u),

    and the objective is

        f(u) = sum_mu sigma . d_mu(u) - sum_live (eps / 2 p_mu) d_mu(u) . d_mu(u),

    the first sum over every outcome, the second over the live branches, those
    with p_mu > P_FLOOR: an outcome at or below the floor cannot be sampled,
    and its weight eps / (2 p_mu) would be unbounded.

    The sigma term is linear in X_mu, so it sees only the averaged channel
    rho -> sum_mu X_mu = D * rho, with D = sum_mu c_mu c_mu^* an (n, n)
    matrix of unit diagonal (the martingale property), summed once at
    construction.  With Y = W^dagger (D * rho) W and
    s_jk = sum_i sigma_i W_ij conj(W_ik),

        sum_mu sigma . d_mu(u) = Re sum_jk c_jk exp(-i omega_jk u),   c_jk = Y_jk s_jk,

    n^2 coefficients per state, whatever the number of outcomes; f' and f''
    multiply c_jk by -i omega_jk and -omega_jk^2.  At eps = 0 that is all of
    f, and the law computes no outcome probability.  A branch with p_mu = 0
    adds exactly 0 to the sigma term; one with 0 < p_mu <= P_FLOOR adds at
    most P_FLOOR max|sigma|, so the term is the exact expectation.  The eps
    term, -(eps / 2 p_mu) d_mu . d_mu, is quadratic in each branch and
    weighted by its own p_mu, so it cannot be summed first: only when
    eps > 0 does the law also keep every branch's d_mu, d_mu' and d_mu'',
    and add the term and its derivatives with weight 0 on the dead ones.

    u starts at the best of GRID_POINTS evenly spaced controls, ties broken
    toward 0, then toward +u_bar.  At most NEWTON_STEPS steps follow, each
    moving to the minimum over the grid bracket (the neighbouring grid
    points) of the second-order model at the current u: the Newton point
    when f'' > 0, else the bracket end downhill of f'.  The steps stop once
    a step moves no row.  A step is a pure function of each row's u, given
    its fixed coefficients and bracket, so a later one could not move any
    row either, and the result has the same bits as running every step.
    The test is ==, which takes -0.0 for 0.0: f is the same at both (the
    phase is exp(+-0) = 1) and the returned u gets + 0.0, so that is safe; a
    NaN row never compares equal, so it runs every step.  f(u) comes from
    the last Newton evaluation: the one that found the fixed point, or one
    more at the last step's u when every step moved some row.  If f ends
    above the grid point's value, the grid point is kept.

    The eigendecomposition comes from the propagator's cache.  Every product
    is a stacked matmul and every sum runs over one state's own entries, so
    row r's result has the same bits whatever the stack's size.  That lets
    minimize take a stack _EPS_BLOCK rows at a time when eps > 0, which
    bounds the memory of the branch table.
    """

    def __init__(self, p, h1, meas, cfg):
        if cfg.kind != "exact-min":
            raise ValueError("controller config is not exact-min")
        if meas.dim != p.dim:
            raise ValueError(f"the measurement has dimension {meas.dim}, "
                             f"but p has dimension {p.dim}")
        # h1 is a matrix or a HermitianPropagator already built for it.
        prop = h1 if isinstance(h1, HermitianPropagator) else HermitianPropagator(h1)
        if prop.h.shape != (p.dim, p.dim):
            raise ValueError(f"h1 has shape {prop.h.shape}, but p has dimension {p.dim}")
        self.cfg = cfg
        self._meas = meas
        # D = sum_mu c_mu c_mu^*: D * rho = sum_mu X_mu, the averaged channel.
        self._channel = np.add.reduce(meas.projectors, 0)
        e, w = prop.eigh
        n = e.size
        self._w, self._wh = w, w.conj().T
        # mix[i, jk] = W_ij conj(W_ik): the population map of the eigenbasis.
        self._mix = (w[:, :, None] * w.conj()[:, None, :]).reshape(n, n * n)
        omega = (e[:, None] - e[None, :]).ravel()
        # Rows 1, -i omega and -omega^2: a phase row times them gives the terms
        # of f, f' and f''.  Times s as well, they turn Y into c, c' and c''.
        self._orders = np.stack([np.ones_like(omega), -1j * omega, -omega**2])
        self._phase_rate = self._orders[1]
        self._sigma_orders = (p.sigma @ self._mix) * self._orders
        self.grid = np.linspace(-cfg.u_bar, cfg.u_bar, GRID_POINTS)
        self._grid_phase = np.exp(self.grid[:, None] * self._phase_rate)
        # Grid indices in order of preference: closest to 0, then positive.
        self._preference = np.lexsort((-self.grid, np.abs(self.grid)))
        # The bracket of every grid point: its neighbours, or itself at an end.
        index = np.arange(GRID_POINTS)
        self._lo = self.grid[np.maximum(index - 1, 0)]
        self._hi = self.grid[np.minimum(index + 1, GRID_POINTS - 1)]
        self._minus_half_eps = _frozen(-0.5 * cfg.epsilon)

    def _coefficients(self, rho):
        """c, c' and c'', (R, 3, n^2), and the eps term's branches.

        The branches are None at eps = 0; else the (R, n^2, m n) table whose
        product with a phase row gives every d_mu,i, and the (R, 3, m n)
        weights (1, 2, 2) * -eps / (2 p_mu) of d d, d d' and d d'' + d' d',
        0 on dead branches.
        """
        n_runs, n = len(rho), rho.shape[-1]
        y = self._wh @ (self._channel * rho) @ self._w
        coeffs = y.reshape(n_runs, 1, n * n) * self._sigma_orders
        branches = None
        if self.cfg.epsilon > 0:
            meas = self._meas
            # X_mu = projectors[mu] * rho; the weights drop the dead branches.
            y = self._wh @ (meas.projectors * rho[:, None]) @ self._w
            table = (y.reshape(n_runs, -1, 1, n * n) * self._mix).reshape(n_runs, -1, n * n)
            # -eps / (2 p_mu) on the live branches, 0.0 on the dead ones.
            p = meas.probabilities(rho.diagonal(axis1=1, axis2=2).real)
            live = p > _P_FLOOR
            quad = np.divide(self._minus_half_eps, p, out=np.zeros(p.shape), where=live)
            weights = np.repeat(quad, n, axis=1)[:, None, :] * _PRODUCT_RULE
            branches = table.swapaxes(1, 2), weights
        return coeffs, branches

    def objective(self, rho, u):
        """f, f' and f'' at u[r] for every state of a stack rho of shape (R, n, n)."""
        return self._derivatives(self._coefficients(rho), np.asarray(u, dtype=float))

    def _derivatives(self, terms, u):
        coeffs, branches = terms
        phase = u[:, None] * self._phase_rate
        phase = np.exp(phase, out=phase)[:, None, :]
        f = np.add.reduce((coeffs * phase).real, -1)
        if branches is not None:
            table, weights = branches
            # Rows d, d' and d'' of every branch, then d d, d d' and d d'' + d' d'.
            d = ((phase * self._orders) @ table).real
            products = d[:, :1] * d
            products[:, 2] += d[:, 1] * d[:, 1]
            f += np.add.reduce(products * weights, -1)
        return f.T

    def minimize(self, rho):
        """The chosen u and f(u) for every state of a stack rho of shape (R, n, n)."""
        if self.cfg.epsilon > 0 and len(rho) > _EPS_BLOCK:
            blocks = [self.minimize(rho[r:r + _EPS_BLOCK])
                      for r in range(0, len(rho), _EPS_BLOCK)]
            return tuple(np.concatenate(parts) for parts in zip(*blocks))
        terms = self._coefficients(rho)
        coeffs, branches = terms
        values = (self._grid_phase @ coeffs[:, 0, :, None]).real[..., 0]
        if branches is not None:
            table, weights = branches
            d = (self._grid_phase @ table).real
            values += ((d * d) @ weights[:, 0, :, None])[..., 0]
        floor = np.minimum.reduce(values, -1)
        tied = values <= floor[:, None]
        best = self._preference[tied[:, self._preference].argmax(axis=-1)]
        lo, hi = self._lo[best], self._hi[best]
        start = u = self.grid[best]
        for _ in range(NEWTON_STEPS):
            f, df, d2f = self._derivatives(terms, u)
            # The bracket end downhill of f' (u where f' is 0 or NaN), then
            # the Newton point u - f'/f'' where f'' > 0, clipped to the bracket.
            step = np.where(df > _ZERO, lo, np.where(df < _ZERO, hi, u))
            convex = d2f > _ZERO
            np.subtract(u, np.divide(df, d2f, out=df, where=convex), out=step, where=convex)
            np.maximum(step, lo, out=step)
            np.minimum(step, hi, out=step)
            # A step is a pure function of each row's u, so once it moves no
            # row, no later step can (see the class docstring), and f is
            # already f at the returned u.
            if np.count_nonzero(step == u) == len(u):
                break
            u = step
        else:
            f = self._derivatives(terms, u)[0]
        worse = f > floor
        # + 0.0 turns -0.0 into 0.0, so logs never show "-0".
        return np.where(worse, start, u) + _ZERO, np.where(worse, floor, f)

    def controls(self, rho):
        """u for every state of a stack rho of shape (R, n, n)."""
        return self.minimize(rho)[0]


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
    b; with b = 0 a flat concave parabola ties at the endpoints and takes
    +u_bar, and a flat one gives u = 0.

    The law works on a stack of states rho of shape (R, n, n).  The two
    commutators are built once; every trace is summed entrywise, as
    sum(A.T * rho), so row r's result has the same bits whatever R is.
    """

    def __init__(self, p, h1, cfg):
        if cfg.kind != "quadratic":
            raise ValueError("controller config is not quadratic")
        self.cfg = cfg
        self._u_bar = _frozen(cfg.u_bar)
        self._minus_u_bar = _frozen(-cfg.u_bar)
        self._quarter_eps = _frozen(cfg.epsilon / 4.0)
        self._h1 = np.asarray(h1, dtype=complex)
        c_hp = commutator(self._h1, p.matrix())
        # Rows: the operators whose traces are a (before the eps term) and b.
        self._ops = np.stack([commutator(c_hp, self._h1).T.ravel(), (1j * c_hp).T.ravel()])

    def coefficients(self, rho):
        """Curvature a and slope b of every state of the stack, as real arrays."""
        # np.add.reduce is ndarray.sum without its Python wrapper.
        ab = np.add.reduce(rho.reshape(len(rho), 1, -1) * self._ops, -1)
        if self.cfg.epsilon > 0:
            # Diagonal entries of [H1, rho] are purely imaginary; their square
            # is a real <= 0 number, implemented as printed.
            h1 = self._h1
            diag = (np.add.reduce(h1 * rho.swapaxes(1, 2), -1)
                    - np.add.reduce(rho * h1.T, -1))
            ab[:, 0] -= self._quarter_eps * np.add.reduce(np.square(diag), -1)
        off = np.abs(ab.imag) > _IMAG_TOL
        if np.count_nonzero(off):
            r = int(np.argmax(off.any(axis=-1)))
            raise ValueError(
                f"quadratic coefficients came out complex (a={ab[r, 0]}, b={ab[r, 1]})")
        ab = ab.real.T
        return ab[0], ab[1]

    def choose(self, a, b):
        """u for arrays of curvature a and slope b."""
        convex = a > _FLAT_TOL
        # u = -clip(b/a) where convex, else -copysign(u_bar, b): the endpoint
        # downhill of b, which the clip leaves as it is.  The bounds are
        # symmetric, and negating as 0.0 - x turns a zero of either sign
        # into 0.0, so logs never show "-0".
        u = np.copysign(self._u_bar, b)
        np.divide(b, a, out=u, where=convex)
        np.maximum(u, self._minus_u_bar, out=u)
        np.minimum(u, self._u_bar, out=u)
        np.subtract(_ZERO, u, out=u)
        sloped = np.abs(b) > _FLAT_TOL
        if np.count_nonzero(sloped) < len(sloped):
            flat = ~convex & ~sloped
            # A flat concave parabola ties at both endpoints and takes +u_bar.
            u[flat] = np.where(a[flat] < _MINUS_FLAT_TOL, self._u_bar, _ZERO)
        return u

    def controls(self, rho):
        """u for every state of a stack rho of shape (R, n, n)."""
        return self.choose(*self.coefficients(rho))


def curvature_at_eigenstate(p, h1, meas, n):
    """f''(0) of the exact expected post-step energy at rho = |n><n|, eps = 0.

    The measurement is part of the objective (see ExactMinLaw).  It equals
    (R sigma)_n for R = r_of_hamiltonian(H1), which is the mechanism behind
    the convergence guarantee: negative curvature off the target, positive
    at it.  An n outside the system raises IndexError, from basis_state.
    """
    law = ExactMinLaw(p, h1, meas, ControllerConfig(kind="exact-min"))
    return float(law.objective(basis_state(n, p.dim)[None], np.zeros(1))[2][0])
