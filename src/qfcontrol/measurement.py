"""Quantum non-demolition measurement sets.

A measurement is a family of Kraus operators that are all diagonal in the
reference basis, M_mu = sum_n c[mu, n] |n><n|, subject to the completeness
relation sum_mu |c[mu, n]|^2 = 1 for every n.  Diagonal Kraus operators leave
basis states invariant and make Tr(A rho) a martingale for every diagonal A.

The per-step methods pass their scalars as 0-d arrays and test their guards
with ``np.count_nonzero``, which takes about 0.3 us where ``ndarray.any()``
and ``.all()`` take 1.0-1.6 us on a stack of a few states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _ONE,
    _ZERO,
    ASSUMPTION_TOL,
    _frozen,
    json_int,
    json_number,
    json_numbers,
    json_object,
)

__all__ = [
    "P_FLOOR",
    "OutcomeImpossible",
    "QndMeasurement",
    "photon_box",
]

# Outcomes with probability at or below this floor are unsampleable: they are
# skipped in ExactMinLaw's eps term and rejected by every collapse of a state
# or of its populations, so the normalizing factor 1/p is always finite.
P_FLOOR = 1e-12
_P_FLOOR = _frozen(P_FLOOR)

COMPLETENESS_TOL = 1e-10

# Largest error tolerated in the sum of a state's outcome probabilities.
_SUM_TOL = _frozen(1e-10)


class OutcomeImpossible(RuntimeError):
    """Conditioning on an outcome whose probability is below the floor."""


@dataclass(frozen=True)
class QndMeasurement:
    """Diagonal Kraus family given by its coefficient array c[mu, n].

    A measured step is split in two: ``sample`` draws the outcomes of a
    stack from its outcome probabilities, which ``probabilities`` computes
    from the populations, and ``collapse`` conditions the states (R, n, n)
    on them.  ``apply_outcomes`` collapses onto given outcomes.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 2:
            raise ValueError("coeffs must be an (m, n) array")
        if c.shape[0] < 2:
            raise ValueError("a measurement needs at least two outcomes")
        # Refused here, before the completeness check's max would fail inside
        # NumPy on an empty array.
        if c.shape[1] == 0:
            raise ValueError("coeffs has no levels: a measurement needs at least one")
        colsums = (np.abs(c) ** 2).sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
        # Written so that a NaN coefficient, whose worst is NaN, fails too.
        if not worst <= COMPLETENESS_TOL:
            raise ValueError(f"completeness violated by {worst:.3e}")

    @property
    def m(self):
        return int(self.coeffs.shape[0])

    @property
    def dim(self):
        return int(self.coeffs.shape[1])

    @cached_property
    def weights(self):
        """|c[mu, n]|^2, the per-level outcome statistics (read-only)."""
        w = np.abs(self.coeffs) ** 2
        w.flags.writeable = False
        return w

    @cached_property
    def projectors(self):
        """c[mu] c[mu]^*, so that M_mu rho M_mu† = projectors[mu] * rho (read-only)."""
        k = self.coeffs[:, :, None] * self.coeffs[:, None, :].conj()
        k.flags.writeable = False
        return k

    def probabilities(self, d):
        """p[r, mu] = sum_n |c[mu, n]|^2 d[r, n] = Tr(M_mu rho[r] M_mu†), unclamped.

        d holds populations (R, n); each row sums its own products, so it has
        the same bits whatever the stack's size.
        """
        return np.add.reduce(d[:, None, :] * self.weights, -1)

    def apply_outcomes(self, mu, rho):
        """M_mu rho M_mu† / p_mu for a stack rho of shape (R, n, n), one mu[r] per state."""
        p = self.probabilities(rho.diagonal(axis1=1, axis2=2).real)
        return self.collapse(rho, mu, p[np.arange(len(p)), mu])

    def sample(self, p, x):
        """Draw an outcome for every state of a stack from its outcome probabilities.

        p holds the unclamped outcome probabilities that ``probabilities``
        gives for the populations, so that a caller reading the populations
        for other uses too reads them once; x holds one uniform per state.
        The outcome is drawn by inverse CDF from p clamped at 0 and
        renormalized, so it is determined by x.  Returns the outcomes and
        their unclamped probabilities, which normalize the collapse.
        """
        q = np.maximum(p, _ZERO)
        # np.add.reduce is ndarray.sum without its Python wrapper, which on
        # arrays this small costs about as much as the sum itself.
        total = np.add.reduce(q, -1)
        # Written so that a NaN total fails the check too.
        ok = np.abs(total - _ONE) <= _SUM_TOL
        if np.count_nonzero(ok) < len(ok):
            raise ValueError(f"outcome probabilities sum to {total[np.argmin(ok)]}, not 1")
        mu = _inverse_cdf(q / total[:, None], x)
        return mu, p[np.arange(len(p)), mu]

    def collapse(self, rho, mu, p):
        """projectors[mu[r]] * rho[r] / p[r], p[r] being outcome mu[r]'s probability.

        The division is a multiply by 1/p[r].  NumPy divides a complex a by
        the real p as by p + 0i, with Smith's rule: ((a_r + a_i 0) s,
        (a_i - a_r 0) s) for s = 1/p.  The multiply gives (a_r s - a_i 0,
        a_r 0 + a_i s), the same numbers up to the sign of a zero, in about
        half the time on a stack of 40 states.
        """
        post = self.projectors[mu]
        post *= rho
        post *= _reciprocal(mu, p)[:, None, None]
        return post

    def level_distances(self):
        """max_mu |w[mu, i] - w[mu, j]| for every level pair (i, j), as an (n, n) array.

        The distance between the outcome statistics of basis states i and j:
        0 when no outcome tells them apart.
        """
        w = self.weights
        return np.max(np.abs(w[:, :, None] - w[:, None, :]), axis=0)

    def check_distinguishability(self):
        """Level pairs whose outcome statistics coincide within ASSUMPTION_TOL.

        An empty list means every pair of basis states is distinguishable by
        at least one outcome, which is what the convergence results require.
        The distance compared with ASSUMPTION_TOL is that of level_distances.
        """
        dist = self.level_distances()
        return [(n1, n2) for n1 in range(self.dim) for n2 in range(n1 + 1, self.dim)
                if dist[n1, n2] <= ASSUMPTION_TOL]

    def to_json(self):
        return {
            "n": self.dim,
            "m": self.m,
            "coeffs_re": self.coeffs.real.tolist(),
            "coeffs_im": self.coeffs.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, dict) and "photon_box" in obj:
            pb = json_object(json_object(obj, "measurement", ("photon_box",))["photon_box"],
                             "measurement.photon_box", ("n", "phi0", "theta"))
            return photon_box(pb["n"], pb["phi0"], pb["theta"])
        json_object(obj, "measurement", ("n", "m", "coeffs_re", "coeffs_im"))
        m, n = json_int(obj["m"], "measurement m"), json_int(obj["n"], "measurement n")
        c = (json_numbers(obj["coeffs_re"], "measurement coeffs_re")
             + 1j * json_numbers(obj["coeffs_im"], "measurement coeffs_im"))
        if c.shape != (m, n):
            raise ValueError(f"measurement file claims shape ({m}, {n}) but arrays are {c.shape}")
        return cls(c)


def _reciprocal(mu, p):
    """1/p, once no outcome mu[r] has a probability p[r] at or below the floor.

    Both collapses, of states and of the open loop's populations, use it.
    """
    low = p <= _P_FLOOR
    if np.count_nonzero(low):
        r = int(np.argmax(low))
        raise OutcomeImpossible(f"outcome {mu[r]} has probability {p[r]:.3e} <= floor")
    # np.reciprocal(p) is 1.0 / p, the same correctly rounded quotient.
    return np.reciprocal(p)


def _inverse_cdf(p, x):
    """First outcome whose cumulative probability exceeds x, capped at the last.

    ``p`` holds probabilities along its last axis and ``x`` one uniform per
    row.  The cdf of nonnegative p never decreases, so the outcome is the
    count of cdf entries <= x among all but the last; leaving the last
    entry out is the cap.
    """
    return np.add.reduce(np.add.accumulate(p[..., :-1], -1) <= np.asarray(x)[..., None], -1)


def photon_box(n, phi0, theta):
    """Two-outcome photon-box measurement: cos(phi0+k*theta), sin(phi0+k*theta).

    Completeness holds exactly up to floating point.  Note that cos^2 has
    period pi, so theta = pi/4 with n = 8 leaves the pairs (k, k+4)
    indistinguishable; check_distinguishability flags them.
    """
    n, phi0, theta = (json_int(n, "photon_box.n"), json_number(phi0, "photon_box.phi0"),
                      json_number(theta, "photon_box.theta"))
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not (np.isfinite(phi0) and np.isfinite(theta)):
        raise ValueError(f"phi0 and theta must be finite, but are {phi0!r} and {theta!r}")
    phases = phi0 + theta * np.arange(n)
    return QndMeasurement(np.array([np.cos(phases), np.sin(phases)], dtype=complex))
