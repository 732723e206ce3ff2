"""Quantum non-demolition measurement sets.

A measurement is a family of Kraus operators that are all diagonal in the
reference basis, M_mu = sum_n c[mu, n] |n><n|, subject to the completeness
relation sum_mu |c[mu, n]|^2 = 1 for every n.  Diagonal Kraus operators leave
basis states invariant and make Tr(A rho) a martingale for every diagonal A.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        colsums = np.sum(np.abs(c) ** 2, axis=0)
        worst = float(np.max(np.abs(colsums - 1.0)))
        if worst > COMPLETENESS_TOL:
            raise ValueError(f"completeness violated by {worst:.3e}")

    @property
    def m(self):
        return int(self.coeffs.shape[0])

    @property
    def dim(self):
        return int(self.coeffs.shape[1])

    @property
    def weights(self):
        """|c[mu, n]|^2, the per-level outcome statistics."""
        return np.abs(self.coeffs) ** 2

    def outcome_probabilities(self, rho):
        """p_mu = sum_n |c[mu,n]|^2 rho_nn, clamped at 0, renormalized."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: state {rho.shape} vs measurement dim {self.dim}")
        p = self.weights @ rho.diagonal().real
        p = np.maximum(p, 0.0)
        total = p.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        return p / total

    def apply_outcome(self, mu, rho):
        """Post-measurement state M_mu rho M_mu† / p_mu."""
        rho = np.asarray(rho, dtype=complex)
        p = float(self.weights[mu] @ rho.diagonal().real)
        if p <= P_FLOOR:
            raise OutcomeImpossible(f"outcome {mu} has probability {p:.3e} <= floor")
        c = self.coeffs[mu]
        return (np.outer(c, c.conj()) * rho) / p

    def sample_outcome(self, rho, rng):
        """Draw an outcome by inverse CDF; deterministic given the stream state."""
        p = self.outcome_probabilities(rho)
        cdf = np.cumsum(p)
        mu = int(np.searchsorted(cdf, rng.random(), side="right"))
        mu = min(mu, self.m - 1)
        return MeasurementOutcome(mu=mu, probability=float(p[mu]))

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


def photon_box(n, phi0, theta):
    """Two-outcome photon-box measurement: cos(phi0+k*theta), sin(phi0+k*theta).

    Completeness holds exactly up to floating point.  Note that cos^2 has
    period pi, so theta = pi/4 with n = 8 leaves the pairs (k, k+4)
    indistinguishable; check_distinguishability flags them.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    phases = phi0 + theta * np.arange(n)
    return QndMeasurement(np.vstack([np.cos(phases), np.sin(phases)]).astype(complex))
