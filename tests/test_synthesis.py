"""Unit tests for cone membership, the synthesis solver and the R <-> H1 maps."""

import numpy as np
import pytest

from qfcontrol import (
    DiagonalObservable,
    InfeasibleLambda,
    SynthesisProblem,
    assumption_report,
    hamiltonian_of_r,
    photon_box,
    r_of_hamiltonian,
    solve_synthesis,
    synthesis_pipeline,
    verify_lambda,
)
from qfcontrol.synthesis import cone_violations, in_cone

SIGMA8 = np.array(
    [51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561]
)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_cone_point(rng, n):
    """Random negated weighted graph Laplacian: always a cone member."""
    r = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.uniform(0.0, 2.0)
            r[i, j] = r[j, i] = w
            r[i, i] -= w
            r[j, j] -= w
    return r


class TestCone:
    def test_violation_report_keys(self):
        keys = set(cone_violations(np.zeros((3, 3))))
        assert keys == {
            "symmetry",
            "negative_semidefinite",
            "row_sums",
            "diagonal_sign",
            "offdiagonal_sign",
        }


class TestRMaps:
    def test_r_row_sums_vanish(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = r_of_hamiltonian(random_hermitian(rng, 6))
            assert np.max(np.abs(r.sum(axis=1))) <= 1e-12

    def test_r_is_negative_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = r_of_hamiltonian(random_hermitian(rng, 6))
            assert np.linalg.eigvalsh(r)[-1] <= 1e-10

    def test_round_trip_from_cone(self):
        rng = np.random.default_rng(4)
        for policy in ("positive", "alternating", "imaginary-off-diagonal"):
            r = random_cone_point(rng, 6)
            h1 = hamiltonian_of_r(r, policy)
            assert np.allclose(h1, h1.conj().T)
            assert np.max(np.abs(r_of_hamiltonian(h1) - r)) <= 1e-10

    def test_sqrt_half_convention(self):
        r = random_cone_point(np.random.default_rng(5), 4)
        h1 = hamiltonian_of_r(r)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(2.0 * np.abs(h1[off]) ** 2, r[off], atol=1e-14)

    def test_rejects_negative_off_diagonal(self):
        r = -np.eye(3)
        r[0, 1] = r[1, 0] = -1.0
        with pytest.raises(ValueError):
            hamiltonian_of_r(r)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            hamiltonian_of_r(np.zeros((3, 3)), "spiral")


class TestVerifyLambda:
    def test_accepts_valid_pattern(self):
        ok, _ = verify_lambda(np.array([-1.0, 3.0, -2.0]), 1)
        assert ok

    def test_rejects_wrong_sign(self):
        ok, report = verify_lambda(np.array([1.0, 2.0, -3.0]), 1)
        assert not ok
        assert any(i == 0 and not good for i, _, _, good in report)

    def test_rejects_nonzero_sum(self):
        ok, report = verify_lambda(np.array([-1.0, 3.0, -1.0]), 1)
        assert not ok
        assert any(i == -1 for i, _, _, good in report)

    def test_margin_demands_clearance(self):
        ok, _ = verify_lambda(np.array([-0.05, 0.1, -0.05]), 1, margin=0.5)
        assert not ok


class TestSolver:
    def test_dense_solution_is_feasible(self):
        p = DiagonalObservable(SIGMA8, 2)
        res = solve_synthesis(SynthesisProblem(sigma=p))
        assert res.feasible
        assert res.residual <= 1e-6
        assert in_cone(res.r, tol=1e-7)

    def test_sparse_solution_is_star(self):
        p = DiagonalObservable(SIGMA8, 2)
        res = solve_synthesis(SynthesisProblem(sigma=p, alpha2=1.0))
        target = np.full(8, -1.0)
        target[2] = 7.0
        assert np.max(np.abs(res.lambda_tilde - target)) <= 1e-3
        mask = np.ones((8, 8), dtype=bool)
        mask[2, :] = mask[:, 2] = False
        np.fill_diagonal(mask, False)
        assert np.max(np.abs(res.r[mask])) <= 1e-4

    def test_constant_sigma_infeasible(self):
        p = DiagonalObservable(np.array([1.0, 1.0 + 1e-13, 1.0 + 2e-13]), 0)
        res = solve_synthesis(SynthesisProblem(sigma=p))
        assert not res.feasible

    def test_l1_norm_variant_solves(self):
        p = DiagonalObservable(SIGMA8, 2)
        res = solve_synthesis(SynthesisProblem(sigma=p, norm="l1"))
        assert res.feasible

    def test_small_instance(self):
        p = DiagonalObservable(np.array([3.0, 1.0, 2.0]), 1)
        res = solve_synthesis(SynthesisProblem(sigma=p))
        assert res.feasible
        assert res.residual <= 1e-6

    def test_problem_validation(self):
        p = DiagonalObservable(SIGMA8, 2)
        with pytest.raises(ValueError):
            SynthesisProblem(sigma=p, gamma1=0.0)
        with pytest.raises(ValueError):
            SynthesisProblem(sigma=p, norm="linf")


class TestAssumptions:
    def test_photon_box_quarter_pi_flagged(self):
        p = DiagonalObservable(SIGMA8, 2)
        checks = assumption_report(p, meas=photon_box(8, 1 / 8, np.pi / 4))
        assert not checks["distinguishability"].passed
        assert (0, 4) in checks["distinguishability"].witnesses

    def test_strong_regularity_mod_2pi(self):
        p = DiagonalObservable(np.array([2.0, 1.0, 3.0]), 1)
        # gaps 1 and 1 + 2*pi coincide modulo 2*pi
        h0 = np.diag([0.0, 1.0, 2.0 + 2 * np.pi]).astype(complex)
        checks = assumption_report(p, h0=h0)
        assert not checks["strong_regularity_mod_2pi"].passed

    def test_full_connectivity(self):
        p = DiagonalObservable(np.array([2.0, 1.0, 3.0]), 1)
        h1 = np.ones((3, 3), dtype=complex)
        checks = assumption_report(p, h1=h1)
        assert checks["full_connectivity"].passed
        h1[0, 1] = h1[1, 0] = 0.0
        checks = assumption_report(p, h1=h1)
        assert (0, 1) in checks["full_connectivity"].witnesses


class TestPipeline:
    def test_pipeline_produces_consistent_artifacts(self):
        p = DiagonalObservable(SIGMA8, 2)
        out = synthesis_pipeline(p)
        assert np.max(np.abs(r_of_hamiltonian(out.h1) - out.r)) <= 1e-10
        ok, _ = verify_lambda(out.r @ p.sigma, p.n_star)
        assert ok

    def test_pipeline_rejects_infeasible(self):
        p = DiagonalObservable(np.array([1.0, 1.0 + 1e-13]), 0)
        with pytest.raises(InfeasibleLambda):
            synthesis_pipeline(p)
