"""Complex Hermitian linear algebra and density-matrix primitives.

All matrices are plain numpy arrays of complex dtype.  A density matrix is
any square array passing :func:`validate_density`; no wrapper class is used.
Eigenproblems go through ``numpy.linalg.eigh`` exclusively, so unitaries
produced here are unitary up to round-off by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "DensityInvariantError",
    "DiagonalObservable",
    "HermitianPropagator",
    "basis_state",
    "commutator",
    "density_violations",
    "fidelity_to_basis",
    "hermitize",
    "is_hermitian",
    "purity",
    "validate_density",
]

# Density-matrix and Hamiltonian tolerances.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9             # smallest eigenvalue >= -PSD_TOL


class DensityInvariantError(ValueError):
    """Raised when a candidate density matrix violates an invariant.

    ``violations`` is a list of ``(name, magnitude)`` pairs naming each
    violated invariant and by how much.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(f"{name}: {mag:.3e}" for name, mag in self.violations)
        super().__init__(f"density matrix invariants violated: {msg}")


def _as_square_complex(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def is_hermitian(a):
    """Whether a equals its conjugate transpose within HERMITICITY_TOL.

    A NaN or Inf entry fails too: it makes its entry of a - a† NaN or Inf.
    """
    a = np.asarray(a)
    return bool(np.abs(a - a.conj().T).max() <= HERMITICITY_TOL)


def hermitize(a):
    """Hermitian part (A + A†)/2, used to absorb round-off drift.

    A stack of shape (R, n, n) is hermitized matrix by matrix.
    """
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def density_violations(m):
    """Check the three density-matrix invariants; return [(name, magnitude)].

    Empty list means the matrix is a valid density matrix at the module
    tolerances.
    """
    a = _as_square_complex(m, "density matrix")
    out = []
    herm = float(np.max(np.abs(a - a.conj().T)))
    if herm > HERMITICITY_TOL:
        out.append(("hermiticity", herm))
    tr = abs(complex(np.trace(a)) - 1.0)
    if tr > TRACE_TOL:
        out.append(("trace", tr))
    w = np.linalg.eigvalsh(hermitize(a))
    if w[0] < -PSD_TOL:
        out.append(("positivity", float(-w[0])))
    return out


def validate_density(m):
    """Return ``m`` as a complex array iff it is a valid density matrix.

    Raises :class:`DensityInvariantError` carrying the violation report
    otherwise.
    """
    a = _as_square_complex(m, "density matrix")
    bad = density_violations(a)
    if bad:
        raise DensityInvariantError(bad)
    return a


def basis_state(n, dim):
    """Projector |n><n| as a density matrix."""
    if not 0 <= n < dim:
        raise IndexError(f"basis index {n} out of range for dimension {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def commutator(a, b):
    """AB - BA; anti-Hermitian when both inputs are Hermitian."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def fidelity_to_basis(rho, n):
    """Population Tr(rho |n><n|) = rho_nn."""
    rho = np.asarray(rho)
    if not 0 <= n < rho.shape[0]:
        raise IndexError(f"basis index {n} out of range for dimension {rho.shape[0]}")
    return float(rho[n, n].real)


def purity(rho):
    """Tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


@dataclass(frozen=True)
class DiagonalObservable:
    """Energy operator given by its diagonal and the index of the minimum.

    Internally 0-based; published figures for the 8-level example use
    1-based indices (their n=3 is our n_star=2).
    """

    sigma: np.ndarray
    n_star: int

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if sig.ndim != 1 or sig.size < 2:
            raise ValueError("sigma must be a vector of at least two energies")
        if not np.isfinite(sig).all():
            raise ValueError("sigma contains NaN or Inf entries")
        if not 0 <= self.n_star < sig.size:
            raise IndexError(f"n_star {self.n_star} out of range")
        if sig[self.n_star] > sig.min() + 1e-12:
            raise ValueError("sigma[n_star] is not the minimum energy")

    @property
    def dim(self):
        return int(self.sigma.size)

    def matrix(self):
        return np.diag(self.sigma.astype(complex))

    def to_json(self):
        return {"diag": self.sigma.tolist(), "n_star": int(self.n_star)}

    @classmethod
    def from_json(cls, obj):
        return cls(np.asarray(obj["diag"], dtype=float), int(obj["n_star"]))


class HermitianPropagator:
    """Caches the eigendecomposition of a Hamiltonian to build exp(-iHu) fast.

    Used in the inner loops of the controllers and simulators, where the same
    H1 is exponentiated at thousands of control values.
    """

    def __init__(self, h):
        h = _as_square_complex(h, "hamiltonian")
        if not is_hermitian(h):
            raise ValueError("propagator requires a Hermitian Hamiltonian")
        self.h = h
        self._w, self._v = np.linalg.eigh(h)
        self._vh = self._v.conj().T

    @property
    def dim(self):
        return self.h.shape[0]

    @property
    def eigh(self):
        """The cached eigenvalues and eigenvectors (as columns), as numpy.linalg.eigh gives them."""
        return self._w, self._v

    def unitary(self, u):
        """exp(-i * H * u)."""
        return (self._v * np.exp(-1j * u * self._w)) @ self._vh

    def conjugate(self, rho, u):
        """exp(-iHu) rho exp(+iHu) without re-diagonalizing."""
        umat = self.unitary(u)
        return umat @ rho @ umat.conj().T

    def conjugate_stack(self, rho, u):
        """conjugate for a stack: rho of shape (R, n, n), one control u[r] per state.

        Every product is a stacked n x n matmul, so row r's result has the
        same bits whatever R is.
        """
        umat = (self._v * np.exp(-1j * u[:, None] * self._w)[:, None, :]) @ self._vh
        return umat @ rho @ umat.conj().swapaxes(-1, -2)


def matrix_to_json(a):
    """Serialize a complex matrix as {"n", "re", "im"} (row-major lists)."""
    a = _as_square_complex(a)
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj):
    n = int(obj["n"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix file claims n={n} but arrays have shapes {re.shape}, {im.shape}")
    return re + 1j * im


def save_matrix(path, a, **extra):
    obj = matrix_to_json(a)
    obj.update(extra)
    obj.setdefault("index_convention", "0-based")
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)


def load_matrix(path):
    with open(path) as f:
        return matrix_from_json(json.load(f))
