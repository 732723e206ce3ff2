"""Complex Hermitian linear algebra and density-matrix primitives.

All matrices are plain numpy arrays of complex dtype.  A density matrix is
any square array passing :func:`validate_density`; no wrapper class is used.
Eigenproblems go through ``numpy.linalg.eigh`` exclusively, so unitaries
produced here are unitary up to round-off by construction.

The step kernel calls NumPy on stacks of small matrices, where a call costs
more in dispatch than in arithmetic, so its scalar operands are read-only 0-d
float64 arrays built once (``_frozen``): a ufunc takes one in about 0.7 us,
against about 1.0 us for the same Python float, with the same bits.
"""

from __future__ import annotations

import json
import numbers
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
    "hermitize",
    "is_hermitian",
    "json_bool",
    "json_int",
    "json_number",
    "json_numbers",
    "json_object",
    "validate_density",
]

# Density-matrix and Hamiltonian tolerances.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9             # smallest eigenvalue >= -PSD_TOL


def _frozen(x):
    """x as a read-only 0-d float64 array, to pass to ufuncs in place of the float.

    A ufunc converts a Python float or np.float64 operand to an array on
    every call; a 0-d float64 array skips that and takes the same loop, so
    the result has the same dtype and bits.  Read-only, so that an in-place
    update cannot change a module's constant.
    """
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_ZERO = _frozen(0.0)
_ONE = _frozen(1.0)
_TWO = _frozen(2.0)

# A gap, coupling or level distance at or below this counts as zero in the
# structural checks (synthesis.assumption_report and
# QndMeasurement.check_distinguishability).
ASSUMPTION_TOL = 1e-8
_TIE_TOL = 1e-12  # an energy this close to the minimum ties with it


class DensityInvariantError(ValueError):
    """Raised when a candidate density matrix violates an invariant.

    ``violations`` is a list of ``(name, magnitude)`` pairs naming each
    violated invariant and by how much.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(f"{name}: {mag:.3e}" for name, mag in self.violations)
        super().__init__(f"density matrix invariants violated: {msg}")


def json_int(value, name):
    """value when it is an integer; int() would truncate 10.9 and parse "2"."""
    # A plain int skips the ABC check, which costs about 0.4 us.
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} is {value!r}, but must be an integer")
    return int(value)


def json_bool(value, name):
    """value when it is a boolean; bool("false") is True."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} is {value!r}, but must be true or false")
    return value


def json_number(value, name):
    """float(value) when value is a number; float() would take true and "0.5"."""
    # A plain float skips the ABC check, as in json_int.
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} is {value!r}, but must be a number")
    return float(value)


def json_numbers(value, name):
    """value as a float array when each entry is a number; np.asarray would take "0.5".

    Each distinct entry type is checked once, so a long list costs one pass.
    """
    a = np.asarray(value, dtype=object)
    for kind in {type(x) for x in a.flat}:
        if kind is bool or not issubclass(kind, numbers.Real):
            json_number(next(x for x in a.flat if type(x) is kind), f"an entry of {name}")
    return a.astype(float)


def json_object(value, name, keys):
    """value when it is an object whose every key is in keys; name is its dotted path, "" at the top."""
    if not isinstance(value, dict):
        raise ValueError(f"{name or 'config'} is {value!r}, but must be a JSON object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key {name + '.' if name else ''}{unknown[0]}")
    return value


def _as_square(m, name="matrix", dtype=complex):
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {a.shape}")
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
    h = a + a.conj().swapaxes(-1, -2)
    return np.divide(h, _TWO, out=h)


def density_violations(m):
    """Check the three density-matrix invariants; return [(name, magnitude)].

    Empty list means the matrix is a valid density matrix at the module
    tolerances.
    """
    a = _as_square(m, "density matrix")
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
    a = _as_square(m, "density matrix")
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


@dataclass(frozen=True)
class DiagonalObservable:
    """Energy operator given by its diagonal and the index of the minimum.

    Internally 0-based; published figures for the 8-level example use
    1-based indices (their n=3 is our n_star=2).  n_star must lie within
    1e-12 of the minimum; the private ``_ground`` marks every level that
    does, which SynthesisProblem reads to refuse a tied minimum.
    """

    sigma: np.ndarray
    n_star: int

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if sig.ndim != 1 or sig.size < 2:
            raise ValueError("sigma must be a vector of at least two energies")
        if np.count_nonzero(np.isfinite(sig)) < sig.size:
            raise ValueError("sigma contains NaN or Inf entries")
        json_int(self.n_star, "n_star")
        if not 0 <= self.n_star < sig.size:
            raise IndexError(f"n_star {self.n_star} out of range")
        ground = sig <= sig.min() + _TIE_TOL
        if not ground[self.n_star]:
            raise ValueError("sigma[n_star] is not the minimum energy")
        object.__setattr__(self, "_ground", ground)

    @property
    def dim(self):
        return int(self.sigma.size)

    def matrix(self):
        return np.diag(self.sigma.astype(complex))

    def to_json(self):
        return {"diag": self.sigma.tolist(), "n_star": int(self.n_star)}

    @classmethod
    def from_json(cls, obj):
        json_object(obj, "p", ("diag", "n_star"))
        return cls(json_numbers(obj["diag"], "p.diag"), obj["n_star"])


class HermitianPropagator:
    """Caches the eigendecomposition of a Hamiltonian to build exp(-iHu) fast.

    Used in the inner loops of the controllers and simulators, where the same
    H1 is exponentiated at thousands of control values.
    """

    def __init__(self, h):
        h = _as_square(h, "hamiltonian")
        if not is_hermitian(h):
            raise ValueError("propagator requires a Hermitian Hamiltonian")
        self.h = h
        self._w, self._v = np.linalg.eigh(h)
        self._vh = self._v.conj().T
        self._minus_iw = -1j * self._w

    @property
    def eigh(self):
        """The cached eigenvalues and eigenvectors (as columns), as numpy.linalg.eigh gives them."""
        return self._w, self._v

    def unitary(self, u):
        """exp(-i * H * u)."""
        return (self._v * np.exp(-1j * u * self._w)) @ self._vh

    def conjugate_stack(self, rho, u):
        """exp(-iHu) rho exp(+iHu) for a stack, without re-diagonalizing.

        rho has shape (R, n, n) and u holds one control per state.  Every
        product is a stacked n x n matmul, so row r's result has the same
        bits whatever R is.
        """
        phases = u[:, None] * self._minus_iw
        umat = (self._v * np.exp(phases, out=phases)[:, None, :]) @ self._vh
        return umat @ rho @ umat.conj().swapaxes(-1, -2)


def matrix_to_json(a):
    """Serialize a complex matrix as {"n", "re", "im"} (row-major lists)."""
    a = _as_square(a)
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj):
    n = json_int(obj["n"], "matrix n")
    re = json_numbers(obj["re"], "matrix re")
    im = json_numbers(obj["im"], "matrix im")
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix file claims n={n} but arrays have shapes {re.shape}, {im.shape}")
    return re + 1j * im


def save_matrix(path, a, **extra):
    obj = matrix_to_json(a)
    obj.update(extra)
    obj.setdefault("index_convention", "0-based")
    # One write of the encoded text: json.dump writes it chunk by chunk.
    with open(path, "w") as f:
        f.write(json.dumps(obj, indent=2))


def load_matrix(path):
    with open(path) as f:
        return matrix_from_json(json.load(f))
