"""Quantum non-demolition measurement sets.

A measurement is a family of Kraus operators that are all diagonal in the
reference basis, M_mu = sum_n c[mu, n] |n><n|, subject to the completeness
relation sum_mu |c[mu, n]|^2 = 1 for every n.  Diagonal Kraus operators leave
basis states invariant and make Tr(A rho) a martingale for every diagonal A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "P_FLOOR",
    "MeasurementOutcome",
    "OutcomeImpossible",
    "QndMeasurement",
    "photon_box",
]

# Outcomes with probability at or below this floor are unsampleable: they are
# skipped in exact expectations and rejected in apply_outcome, protecting the
# normalization division from producing NaN states.
P_FLOOR = 1e-12

COMPLETENESS_TOL = 1e-10


class OutcomeImpossible(RuntimeError):
    """Conditioning on an outcome whose probability is below the floor."""


@dataclass(frozen=True)
class MeasurementOutcome:
    mu: int
    probability: float


@dataclass(frozen=True)
class QndMeasurement:
    """Diagonal Kraus family given by its coefficient array c[mu, n]."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 2:
            raise ValueError("coeffs must be an (m, n) array")
        if c.shape[0] < 2:
            raise ValueError("a measurement needs at least two outcomes")
        colsums = (np.abs(c) ** 2).sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
        if worst > COMPLETENESS_TOL:
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

    def outcome_probabilities(self, rho):
        """p_mu = sum_n |c[mu,n]|^2 rho_nn, clamped at 0, renormalized."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: state {rho.shape} vs measurement dim {self.dim}")
        p = self.weights @ rho.diagonal().real
        p = np.maximum(p, 0.0)
        total = p.sum()
        # Written so that a NaN total fails the check too.
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        return p / total

    def apply_outcome(self, mu, rho):
        """Post-measurement state M_mu rho M_mu† / p_mu."""
        rho = np.asarray(rho, dtype=complex)
        p = float(self.weights[mu] @ rho.diagonal().real)
        if p <= P_FLOOR:
            raise OutcomeImpossible(f"outcome {mu} has probability {p:.3e} <= floor")
        return (self.projectors[mu] * rho) / p

    def apply_outcomes(self, mu, rho):
        """apply_outcome for a stack: rho of shape (R, n, n), one outcome mu[r] per state."""
        p = (self.weights[mu] * rho.diagonal(axis1=1, axis2=2).real).sum(axis=-1)
        low = p <= P_FLOOR
        if low.any():
            r = int(np.argmax(low))
            raise OutcomeImpossible(f"outcome {mu[r]} has probability {p[r]:.3e} <= floor")
        return (self.projectors[mu] * rho) / p[:, None, None]

    def sample_outcome(self, rho, rng):
        """Draw an outcome by inverse CDF; deterministic given the stream state."""
        p = self.outcome_probabilities(rho)
        mu = int(_inverse_cdf(p, rng.random()))
        return MeasurementOutcome(mu=mu, probability=float(p[mu]))

    def sample_outcomes(self, rho, x):
        """sample_outcome for a stack: rho of shape (R, n, n), one uniform x[r] per state.

        Returns the outcome indices.  The probabilities are clamped,
        checked and renormalized as in outcome_probabilities, row by row.
        """
        d = rho.diagonal(axis1=1, axis2=2).real
        p = np.maximum((d[:, None, :] * self.weights).sum(axis=-1), 0.0)
        total = p.sum(axis=-1)
        off = ~(np.abs(total - 1.0) <= 1e-10)
        if off.any():
            raise ValueError(f"outcome probabilities sum to {total[np.argmax(off)]}, not 1")
        return _inverse_cdf(p / total[:, None], x)

    def check_distinguishability(self, tol=1e-8):
        """Level pairs whose outcome statistics coincide within tol.

        An empty list means every pair of basis states is distinguishable by
        at least one outcome, which is what the convergence results require.
        """
        w = self.weights
        bad = []
        for n1 in range(self.dim):
            for n2 in range(n1 + 1, self.dim):
                if float(np.max(np.abs(w[:, n1] - w[:, n2]))) <= tol:
                    bad.append((n1, n2))
        return bad

    def expected_update(self, rho, f):
        """Exact sum_mu p_mu f(post-measurement state), skipping dead branches."""
        p = self.outcome_probabilities(rho)
        total = 0.0
        for mu in range(self.m):
            if p[mu] <= P_FLOOR:
                continue
            total += p[mu] * f(self.apply_outcome(mu, rho))
        return total

    def to_json(self):
        return {
            "n": self.dim,
            "m": self.m,
            "coeffs_re": self.coeffs.real.tolist(),
            "coeffs_im": self.coeffs.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        if "photon_box" in obj:
            pb = obj["photon_box"]
            return photon_box(int(pb["n"]), float(pb["phi0"]), float(pb["theta"]))
        m, n = int(obj["m"]), int(obj["n"])
        c = np.asarray(obj["coeffs_re"], dtype=float) + 1j * np.asarray(obj["coeffs_im"], dtype=float)
        if c.shape != (m, n):
            raise ValueError(f"measurement file claims shape ({m}, {n}) but arrays are {c.shape}")
        return cls(c)


def _inverse_cdf(p, x):
    """First outcome whose cumulative probability exceeds x, capped at the last.

    ``p`` holds probabilities along its last axis and ``x`` one uniform per
    row; the count of cdf entries <= x is searchsorted(cdf, x, "right").
    """
    mu = (p.cumsum(axis=-1) <= np.asarray(x)[..., None]).sum(axis=-1)
    return np.minimum(mu, p.shape[-1] - 1)


def photon_box(n, phi0, theta):
    """Two-outcome photon-box measurement: cos(phi0+k*theta), sin(phi0+k*theta).

    Completeness holds exactly up to floating point.  Note that cos^2 has
    period pi, so theta = pi/4 with n = 8 leaves the pairs (k, k+4)
    indistinguishable; check_distinguishability flags them.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    phases = phi0 + theta * np.arange(n)
    return QndMeasurement(np.array([np.cos(phases), np.sin(phases)], dtype=complex))
