"""Unit tests for the Hermitian linear-algebra and density-matrix layer."""

import json

import numpy as np
import pytest

from qfcontrol import (
    DensityInvariantError,
    DiagonalObservable,
    HermitianPropagator,
    basis_state,
    commutator,
    validate_density,
)
from qfcontrol.core import (
    density_violations,
    hermitize,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)
from helpers import fidelity_to_basis, purity, random_density, random_hermitian


class TestDensityValidation:
    def test_valid_density_passes(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 5)
        out = validate_density(rho)
        assert np.array_equal(out, rho)

    def test_non_hermitian_rejected(self):
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 1] = 0.2
        with pytest.raises(DensityInvariantError) as e:
            validate_density(rho)
        assert any(name == "hermiticity" for name, _ in e.value.violations)

    def test_wrong_trace_rejected(self):
        with pytest.raises(DensityInvariantError) as e:
            validate_density(np.eye(3, dtype=complex))
        assert any(name == "trace" for name, _ in e.value.violations)

    def test_negative_eigenvalue_rejected(self):
        rho = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(DensityInvariantError) as e:
            validate_density(rho)
        assert any(name == "positivity" for name, _ in e.value.violations)

    def test_nan_rejected(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 0] = np.nan
        with pytest.raises(ValueError):
            validate_density(rho)

    def test_violation_report_lists_all(self):
        bad = np.diag([2.0, -0.5]).astype(complex)
        bad[0, 1] = 1.0
        names = {name for name, _ in density_violations(bad)}
        assert names == {"hermiticity", "trace", "positivity"}


class TestBasics:
    def test_basis_state(self):
        rho = basis_state(2, 4)
        assert rho[2, 2] == 1.0
        assert np.trace(rho) == 1.0
        assert purity(rho) == pytest.approx(1.0)

    def test_basis_state_out_of_range(self):
        with pytest.raises(IndexError):
            basis_state(4, 4)

    def test_commutator_antihermitian(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        c = commutator(a, b)
        assert np.allclose(c, -c.conj().T)

    def test_commutator_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"):
            commutator(np.eye(2), np.eye(3))

    def test_fidelity_is_population(self):
        rho = np.diag([0.1, 0.7, 0.2]).astype(complex)
        assert fidelity_to_basis(rho, 1) == pytest.approx(0.7)

    def test_purity_bounds(self):
        assert purity(np.eye(4) / 4) == pytest.approx(0.25)
        assert purity(basis_state(0, 4)) == pytest.approx(1.0)

    def test_hermitize_fixed_point(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        assert np.allclose(hermitize(h), h)


def taylor_expm(a, terms=80):
    """Reference exp(a) by its power series, independent of eigh."""
    out = term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestExpm:
    def test_unitarity(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 6)
        u = HermitianPropagator(h).unitary(0.37)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)

    def test_matches_series_small_angle(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        s = 1e-4
        u = HermitianPropagator(h).unitary(s)
        approx = np.eye(4) - 1j * s * h - 0.5 * s**2 * (h @ h)
        assert np.allclose(u, approx, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianPropagator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_propagator_matches_expm(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 5)
        prop = HermitianPropagator(h)
        for u in (-0.3, 0.0, 0.11, 2.0):
            assert np.allclose(prop.unitary(u), taylor_expm(-1j * u * h), atol=1e-12)

    def test_propagator_conjugate(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 5)
        rho = random_density(rng, 5)
        prop = HermitianPropagator(h)
        u = taylor_expm(-0.4j * h)
        assert np.allclose(prop.conjugate_stack(rho[None], np.array([0.4]))[0],
                           u @ rho @ u.conj().T, atol=1e-12)

    def test_propagator_conjugate_stack(self):
        """One control per state: row r is rotated by its own u[r]."""
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 5)
        rho = np.stack([random_density(rng, 5) for _ in range(3)])
        controls = np.array([-0.3, 0.0, 1.1])
        got = HermitianPropagator(h).conjugate_stack(rho, controls)
        for r, x in enumerate(controls):
            u = taylor_expm(-1j * x * h)
            assert np.allclose(got[r], u @ rho[r] @ u.conj().T, atol=1e-12)


class TestDiagonalObservable:
    def test_requires_minimum_at_n_star(self):
        with pytest.raises(ValueError):
            DiagonalObservable(np.array([1.0, 2.0, 3.0]), 1)

    @pytest.mark.parametrize("n_star", [True, 1.5])
    def test_n_star_must_be_an_integer(self, n_star):
        """Refused by name, not by a NumPy indexing error."""
        with pytest.raises(ValueError, match=f"n_star is {n_star!r}, but must be an integer"):
            DiagonalObservable(np.array([4.0, 0.5, 2.0]), n_star)

    def test_needs_two_energies(self):
        with pytest.raises(ValueError, match="^sigma must be a vector of at least two energies$"):
            DiagonalObservable(np.array([1.0]), 0)

    def test_n_star_may_be_a_numpy_integer(self):
        assert DiagonalObservable(np.array([4.0, 0.5, 2.0]), np.int64(1)).n_star == 1

    def test_json_round_trip(self):
        p = DiagonalObservable(np.array([4.0, 0.5, 2.0]), 1)
        q = DiagonalObservable.from_json(p.to_json())
        assert np.array_equal(q.sigma, p.sigma)
        assert q.n_star == p.n_star
        with pytest.raises(ValueError, match=r"^unknown config key p\.nstar$"):
            DiagonalObservable.from_json({**p.to_json(), "nstar": 0})


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "m.json"
        save_matrix(path, a, label="test")
        assert np.allclose(load_matrix(path), a)
        with open(path) as f:
            obj = json.load(f)
        assert obj["label"] == "test"
        assert obj["index_convention"] == "0-based"

    def test_written_as_one_json_text(self, tmp_path):
        """The file holds json.dumps(obj, indent=2): the bytes json.dump would write."""
        a = np.array([[0.1, 1 / 3 + 2e-17j], [-0.0, np.pi]])
        path, dumped = tmp_path / "m.json", tmp_path / "dumped.json"
        save_matrix(path, a, label="test")
        obj = {**matrix_to_json(a), "label": "test", "index_convention": "0-based"}
        with open(dumped, "w") as f:
            json.dump(obj, f, indent=2)
        assert path.read_bytes() == json.dumps(obj, indent=2).encode() == dumped.read_bytes()

    def test_shape_mismatch_detected(self):
        obj = matrix_to_json(np.eye(3, dtype=complex))
        obj["n"] = 4
        with pytest.raises(ValueError):
            matrix_from_json(obj)
