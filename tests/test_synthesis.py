"""Unit tests for cone membership, the synthesis solver and the R <-> H1 maps."""

import hashlib
import json
import math
import re
import warnings
from pathlib import Path

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
    synthesis,
    synthesis_pipeline,
    verify_lambda,
)
from qfcontrol.synthesis import (CONE_TOL, PHASE_POLICIES, _edges, _r_of_edge_weights,
                                 cone_violations, in_cone)
from helpers import coinciding_gaps_by_pairs, random_hermitian, star_connectivity

SIGMA8 = np.array(
    [51.7022, 82.0324, 10.0114, 40.2333, 24.6756, 19.2339, 28.6260, 44.5561]
)
# Untied, yet the sparse solve (alpha2 = 1) ends with lambda_tilde_2 = 0 after
# 1426 iterations: infeasible, where the dense solve is feasible.
SIGMA_SPARSE_MISS = np.array([63.6962, 26.9787, 4.0974, 1.6528])


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
    @pytest.mark.parametrize("check", [cone_violations, in_cone])
    def test_rejects_non_square(self, check):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(2, 3\)"):
            check(np.zeros((2, 3)))

    @pytest.mark.parametrize("check", [cone_violations, in_cone])
    def test_rejects_empty(self, check):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            check(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry, violated", [
        (0.0, {}),
        (1.0, {"negative_semidefinite": 1.0, "row_sums": 1.0, "diagonal_sign": 1.0}),
        (-1.0, {"row_sums": 1.0}),
    ], ids=["in-cone", "positive", "negative"])
    def test_one_by_one(self, entry, violated):
        """A 1x1 R has no off-diagonal entry, so it violates no off-diagonal sign."""
        r = np.array([[entry]])
        assert {k: v for k, v in cone_violations(r).items() if v} == violated
        assert in_cone(r) == (not violated)

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
    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)])
    def test_r_of_hamiltonian_rejects_shape(self, shape):
        message = re.escape(f"H1 must be a non-empty square matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            r_of_hamiltonian(np.zeros(shape))

    def test_r_of_hamiltonian_rejects_a_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="^r_of_hamiltonian requires a Hermitian input$"):
            r_of_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_edge_weights_match_the_edge_loop_bit_for_bit(self):
        """R(w) equals the edge-by-edge loop's bits, +0.0 diagonals included.

        Weights span eleven decades, with runs of +0.0 and -0.0: a diagonal
        summed in another order, or negated instead of subtracted from 0.0,
        gets other bits.
        """
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 24))
            m = n * (n - 1) // 2
            w = rng.exponential(size=m) * 10.0 ** rng.uniform(-8, 3, size=m)
            w[rng.random(m) < rng.random()] = 0.0
            w[rng.random(m) < 0.1] = -0.0
            ref = np.zeros((n, n))
            for e, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
                ref[i, j] = ref[j, i] = w[e]
                ref[i, i] -= w[e]
                ref[j, j] -= w[e]
            r = _r_of_edge_weights(w, _edges(n), n)
            assert np.array_equal(r.view(np.uint64), ref.view(np.uint64))

    def test_hamiltonian_matches_the_entry_loop_bit_for_bit(self):
        """H1 equals an entry-by-entry build from R's upper triangle, to the last bit.

        The lower triangle differs from the upper one by up to 0.8 CONE_TOL,
        and the upper one holds weights over eleven decades, exact zeros and
        entries just below zero: an H1 entry read from the lower triangle,
        or a phase made by other operations, gets other bits.  Each phase is
        the complex product that NumPy forms, in Python's complex arithmetic.
        """
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(2, 25))
            upper = rng.exponential(size=(n, n)) * 10.0 ** rng.uniform(-8, 3, size=(n, n))
            upper[rng.random((n, n)) < rng.random()] = 0.0
            upper[rng.random((n, n)) < 0.1] = -0.4 * CONE_TOL
            upper = np.triu(upper, 1)
            r = upper + upper.T + np.tril(rng.uniform(-0.4, 0.4, size=(n, n)), -1) * CONE_TOL
            np.fill_diagonal(r, -rng.exponential(size=n))
            for policy in PHASE_POLICIES:
                ref = np.zeros((n, n), dtype=complex)
                for i in range(n):
                    for j in range(i + 1, n):
                        mag = complex(math.sqrt(max(float(r[i, j]), 0.0) / 2.0), 0.0)
                        if policy == "positive":
                            ref[i, j] = ref[j, i] = mag
                        elif policy == "alternating":
                            ref[i, j] = ref[j, i] = complex((-1.0) ** (i + j) * mag.real, 0.0)
                        else:
                            ref[i, j] = 1j * complex(-1.0, 0.0) * mag
                            ref[j, i] = 1j * complex(1.0, 0.0) * mag
                h1 = hamiltonian_of_r(r, policy)
                assert np.array_equal(h1.view(np.uint64), ref.view(np.uint64)), (n, policy)

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
        for policy in PHASE_POLICIES:
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
        with pytest.raises(ValueError, match="^unknown phase policy 'spiral'$"):
            hamiltonian_of_r(np.zeros((3, 3)), "spiral")

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            hamiltonian_of_r(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        r = random_cone_point(np.random.default_rng(6), 4)
        r[0, 1] = r[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            hamiltonian_of_r(r)

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real"):
            hamiltonian_of_r(np.array([[-1.0, 1.0 + 1.0j], [1.0 - 1.0j, -1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            hamiltonian_of_r(np.array([[-1.0, 1.0], [2.0, -2.0]]))

    def test_asymmetry_within_tolerance_gives_a_hermitian_h1(self):
        """The upper triangle fixes H1, so it is Hermitian under every policy."""
        r = random_cone_point(np.random.default_rng(7), 5)
        r[3, 1] += 0.5 * CONE_TOL
        for policy in PHASE_POLICIES:
            h1 = hamiltonian_of_r(r, policy)
            assert np.array_equal(h1, h1.conj().T)


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

    @pytest.mark.parametrize("n_star", [3, 7, -1])
    def test_n_star_outside_the_vector_raises(self, n_star):
        """No verdict, and no report on entry 0, for a minimizer that is not an entry."""
        message = f"^n_star is {n_star}, but lambda_tilde has 3 entries$"
        with pytest.raises(IndexError, match=message):
            verify_lambda([1.0, -1.0, -2.0], n_star)


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

    @pytest.mark.parametrize("max_iter", [100, 50000])
    def test_polish_refuses_non_positive_weights(self, monkeypatch, max_iter):
        """A polish with a weight <= 0 is dropped for the first-order weights.

        lstsq, as the solver's polish sees it, is made to return a zero
        weight, then a negative one.  Both solves keep the same R, which is
        not the polished R and stays in the cone.  Capped at 100 iterations,
        the first-order objective is poor enough that the negative weight's
        candidate passes the objective test, so only the sign test keeps R
        in the cone.
        """
        problem = SynthesisProblem(sigma=DiagonalObservable(SIGMA8, 2), alpha2=1.0)
        polished = solve_synthesis(problem, max_iter=max_iter)
        lstsq = np.linalg.lstsq
        kept = []
        for index, factor in ((0, 0.0), (-1, -1.0)):
            def non_positive(a, b, rcond=None, index=index, factor=factor):
                x, *rest = lstsq(a, b, rcond=rcond)
                x[index] *= factor
                return (x, *rest)

            monkeypatch.setattr(synthesis.np.linalg, "lstsq", non_positive)
            kept.append(solve_synthesis(problem, max_iter=max_iter))
        assert np.array_equal(kept[0].r, kept[1].r)
        assert not np.array_equal(kept[0].r, polished.r)
        assert kept[0].iterations == polished.iterations
        assert in_cone(kept[0].r)

    @pytest.mark.parametrize("sigma, n_star, tied", [
        ([0.0, 0.0, 1.0, 2.0], 0, "0, 1"),
        ([1.0, 1.0 + 1e-13, 1.0 + 2e-13], 0, "0, 1, 2"),
        ([2.0, 1.0, 3.0, 1.0], 1, "1, 3"),
        # n_star 5e-13 above the minimum: level 2 is within 1e-12 of sigma[n_star]
        # but not of the minimum, so it is not named.
        ([1.0 + 5e-13, 1.0, 1.0 + 1.2e-12, 3.0], 0, "0, 1"),
    ], ids=["pair", "flat", "inner-pair", "n-star-above-the-minimum"])
    def test_tied_minimum_refused(self, sigma, n_star, tied):
        """Levels within 1e-12 of the minimum are refused by the problem, before any solve."""
        p = DiagonalObservable(np.array(sigma), n_star)
        for alpha2 in (0.0, 1.0):
            with pytest.raises(ValueError, match=f"^the minimum energy is tied at levels {tied};"):
                SynthesisProblem(sigma=p, alpha2=alpha2)

    def test_gap_beyond_the_tie_tolerance_accepted(self):
        """A gap of 1e-9 is no tie: the tolerance is 1e-12, not ASSUMPTION_TOL (1e-8)."""
        p = DiagonalObservable(np.array([1.0, 1.0 + 1e-9, 2.0]), 0)
        assert SynthesisProblem(sigma=p).sigma is p
        assert not assumption_report(p)["nondegenerate_spectrum"].passed

    def test_small_instance(self):
        p = DiagonalObservable(np.array([3.0, 1.0, 2.0]), 1)
        res = solve_synthesis(SynthesisProblem(sigma=p))
        assert res.feasible
        assert res.residual <= 1e-6

    def test_problem_validation(self):
        p = DiagonalObservable(SIGMA8, 2)
        with pytest.raises(ValueError):
            SynthesisProblem(sigma=p, gamma1=0.0)
        for bad in ({"gamma1": np.nan}, {"gamma2": np.inf}, {"alpha2": np.nan}):
            with pytest.raises(ValueError):
                SynthesisProblem(sigma=p, **bad)

    def test_negative_alpha2_rejected(self):
        p = DiagonalObservable(SIGMA8, 2)
        with pytest.raises(ValueError, match="alpha2"):
            SynthesisProblem(sigma=p, alpha2=-1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"gamma1": True}, "gamma1 is True"),
        ({"alpha2": True}, "alpha2 is True"),
        ({"gamma2": "2"}, "gamma2 is '2'"),
        ({"gamma1": np.True_}, "gamma1 is np.True_"),
    ], ids=["gamma1-true", "alpha2-true", "gamma2-string", "gamma1-numpy-true"])
    def test_parameters_must_be_numbers(self, kwargs, message):
        """Refused by name, where a bool would solve as 0 or 1 and a string
        would fail in the comparison with a bare TypeError."""
        with pytest.raises(ValueError, match=f"^{message}, but must be a number$"):
            SynthesisProblem(sigma=DiagonalObservable(SIGMA8, 2), **kwargs)

    def test_parameters_are_stored_as_floats(self):
        problem = SynthesisProblem(sigma=DiagonalObservable(SIGMA8, 2), gamma1=2,
                                   gamma2=np.float64(1.5), alpha2=np.int64(1))
        names = ("gamma1", "gamma2", "alpha2")
        assert [type(getattr(problem, name)) for name in names] == [float] * 3
        assert (problem.gamma1, problem.gamma2, problem.alpha2) == (2.0, 1.5, 1.0)

    @pytest.mark.parametrize("sigma", [[3.0, 1.0, 2.0], np.array([3.0, 1.0, 2.0]), None])
    def test_sigma_must_be_a_diagonal_observable(self, sigma):
        """Refused by name, where the tie check would fail with a bare AttributeError."""
        with pytest.raises(ValueError, match=f"^sigma is {re.escape(repr(sigma))}, "
                                             "but must be a DiagonalObservable$"):
            SynthesisProblem(sigma=sigma)

    def test_zero_sigma_rejected(self):
        """sigma = 0 ties at every level, so the problem itself refuses it."""
        with pytest.raises(ValueError, match="^the minimum energy is tied at levels 0, 1, 2;"):
            SynthesisProblem(sigma=DiagonalObservable(np.zeros(3), 0))

    @pytest.mark.parametrize("max_iter", [0, -5, 2.5, True, "100"])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        problem = SynthesisProblem(sigma=DiagonalObservable(SIGMA8, 2))
        with pytest.raises(ValueError, match="max_iter"):
            solve_synthesis(problem, max_iter=max_iter)
        assert solve_synthesis(problem, max_iter=np.int64(1)).iterations == 1


PARITY = json.loads((Path(__file__).parent / "synthesis_parity.json").read_text())


def parity_record(res):
    """A solve's fields: arrays as the sha256 of their float64 bytes, floats as hex."""
    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()

    return {"r": sha(res.r), "lam": sha(res.lam), "lambda_tilde": sha(res.lambda_tilde),
            "residual": res.residual.hex(), "objective": res.objective.hex(),
            "iterations": res.iterations, "feasible": res.feasible}


def parity_problem(case):
    """The SynthesisProblem of one recorded case."""
    p = DiagonalObservable(np.array([float.fromhex(x) for x in case["sigma"]]), case["n_star"])
    return SynthesisProblem(sigma=p, **{key: float.fromhex(case[key])
                                        for key in ("gamma1", "gamma2", "alpha2")})


class TestStar:
    """The converse of the tie refusal: every unique minimum can be synthesized.

    The star R of ``star_connectivity`` is in the cone, meets the sign
    condition and survives the round trip through H1, on seeded
    sigma ~ U(0, 100) at every n from 2 to 32, and the dense program is
    feasible on the draws with n <= 8.
    """

    @pytest.mark.parametrize("gamma1, gamma2", [(1.0, 1.0), (2.0, 3.0), (0.5, 40.0)])
    def test_star_meets_the_sign_condition(self, gamma1, gamma2):
        for n in range(2, 33):
            sigma = np.random.default_rng(n).uniform(0.0, 100.0, n)
            n_star = int(np.argmin(sigma))
            r = star_connectivity(sigma, n_star, gamma1, gamma2)
            assert in_cone(r), n
            lam = r @ sigma
            assert verify_lambda(lam, n_star)[0], n
            want = max(gamma2, (n - 1) * gamma1)
            assert abs(lam[n_star] - want) <= 1e-9 * want, n
            back = r_of_hamiltonian(hamiltonian_of_r(r))
            assert np.max(np.abs(back - r)) <= 1e-9 * np.max(np.abs(r)), n
            if n <= 8:
                problem = SynthesisProblem(DiagonalObservable(sigma, n_star), gamma1, gamma2)
                assert solve_synthesis(problem).feasible, n


class TestSolverParity:
    """Every SynthesisResult field, bit for bit, against ``synthesis_parity.json``.

    The recording holds the reference sigma at alpha2 = 0 and 1 (run to
    convergence), eight seeded random instances with n = 3-12, random
    gamma1 and gamma2 and alpha2 in {0, 0.5, 1}, capped at max_iter = 1000
    so that the sparse ones also pin the max_iter exit and the polish that
    follows it, and one random sigma each at n = 16, 24 and 32, at alpha2 = 0
    and 1, capped at max_iter = 1500: the matrix-vector product sizes of the
    benchmark's random set.  Six more, a random sigma each at n = 5, 9 and
    12 with gamma1 != gamma2 at alpha2 = 0 and 1, run to convergence, are
    solves whose entry of largest drift changes while they run (up to 40
    times), and one more caps the n = 9 sparse one ten iterations before its
    stop, inside a calm run.  The last seven cap the reference sigma at
    max_iter = 1, 2, 3 and 4 at alpha2 = 0, and at 1, 2 and 3 at alpha2 =
    0.1: the first iterations, where the extrapolated iterate still equals
    the iterate and each of the solver's buffers is written for the first
    time.  The weights leave zero in the first iteration at both alpha2
    (at alpha2 = 1 they stay zero until the sixth), so the penalty shift
    shows in the alpha2 = 0.1 cases; lambda leaves its bounds in the fourth
    iteration at alpha2 = 0 and in the first through the polish at 0.1.  A
    change to the solver's arithmetic or to its drift test fails here by
    name.  The bits are those of one
    NumPy/OpenBLAS build; another BLAS kernel may round the matrix-vector
    products differently.
    """

    @pytest.mark.parametrize("case", PARITY, ids=[
        f"{k}-n{len(c['sigma'])}-alpha{float.fromhex(c['alpha2'])}" for k, c in enumerate(PARITY)])
    def test_matches_recording(self, case):
        problem = parity_problem(case)
        res = (solve_synthesis(problem) if case["max_iter"] is None
               else solve_synthesis(problem, max_iter=case["max_iter"]))
        want = {key: case[key] for key in parity_record(res)}
        assert parity_record(res) == want

    def test_reports_why_it_stopped(self):
        """converged tells the stop rule from the cap, also when both fall on max_iter."""
        # The reference sparse solve stops by its rule at iteration 24266.
        res = solve_synthesis(SynthesisProblem(sigma=DiagonalObservable(SIGMA8, 2),
                                               alpha2=1.0), max_iter=24266)
        assert (res.iterations, res.converged) == (24266, True)
        case = next(c for c in PARITY if c["max_iter"] == 1000 and c["iterations"] == 1000)
        res = solve_synthesis(parity_problem(case), max_iter=1000)
        assert (res.iterations, res.converged) == (1000, False)
        assert res.to_json()["converged"] is False
        # Capped ten iterations before its stop, 15 iterations into its calm run.
        case = next(c for c in PARITY if c["max_iter"] == 5536)
        res = solve_synthesis(parity_problem(case), max_iter=case["max_iter"])
        assert (res.iterations, res.converged) == (5536, False)


class TestAssumptions:
    def test_degenerate_spectrum_flagged(self):
        p = DiagonalObservable(np.array([2.0, 1.0, 2.0 + 1e-12]), 1)
        check = assumption_report(p)["nondegenerate_spectrum"]
        assert not check.passed
        assert check.witnesses == ((0, 2),)
        assert assumption_report(DiagonalObservable(SIGMA8, 2))[
            "nondegenerate_spectrum"].passed

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

    @staticmethod
    def strong_regularity(h):
        p = DiagonalObservable(np.arange(1.0, h.size + 1), 0)
        return assumption_report(p, h0=np.diag(h).astype(complex))["strong_regularity_mod_2pi"]

    @pytest.mark.parametrize("kind", ["random", "equal", "near-pi", "shifted"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_strong_regularity_matches_the_pair_loop(self, n, kind):
        """The vectorized check finds the pair loop's witnesses, in the loop's order.

        Beside random levels, the first three levels are forced to make
        gaps (0, 1) and (1, 2) equal, equal to pi(1 +- 1e-9) on either side
        of the seam at +-pi, or equal up to 2 pi k.
        """
        rng = np.random.default_rng([n, len(kind)])
        # With two levels only gaps of pi, (0, 1) and (1, 0), can coincide.
        forced = kind == "near-pi" or (kind != "random" and n > 2)
        for _ in range(3):
            h = rng.normal(size=n) * 3
            if kind == "near-pi":
                h[1] = h[0] + np.pi * (1 + 1e-9)
                if n > 2:
                    h[2] = h[1] + np.pi * (1 - 1e-9)
            elif forced:
                h[2] = 2 * h[1] - h[0] + (2 * np.pi * rng.integers(-3, 4) if kind == "shifted" else 0)
            want = coinciding_gaps_by_pairs(h, 1e-8)
            assert want or not forced
            check = self.strong_regularity(h)
            assert check.witnesses == want
            assert check.passed == (not want)
            assert check.detail == f"{len(want)} coinciding gap pairs (mod 2 pi)"

    def test_strong_regularity_evenly_spaced_levels(self):
        """Levels 0.01 k, k < 64: gaps coincide exactly when their level differences do.

        Clusters of up to 63 equal gaps give 2 C(64, 3) witnesses, each
        pair of ordered pairs listed by their row-major indices.
        """
        n = 64
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        by_difference = {}
        for x, (a, b) in enumerate(pairs):
            by_difference.setdefault(b - a, []).append(x)
        want = sorted((x, z) for group in by_difference.values()
                      for i, x in enumerate(group) for z in group[i + 1:])
        check = self.strong_regularity(0.01 * np.arange(n))
        assert len(check.witnesses) == 2 * 64 * 63 * 62 // 6 == 83328
        assert check.witnesses[0] == ((0, 1), (1, 2))
        assert check.witnesses == tuple((pairs[x], pairs[z]) for x, z in want)

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
        assert np.max(np.abs(r_of_hamiltonian(out.h1) - out.result.r)) <= 1e-10
        ok, _ = verify_lambda(out.result.r @ p.sigma, p.n_star)
        assert ok

    def test_pipeline_rejects_infeasible(self, monkeypatch):
        """A tied minimum is a ValueError before the solve, with no warning."""
        monkeypatch.setattr(synthesis, "solve_synthesis", None)
        p = DiagonalObservable(np.array([1.0, 1.0 + 1e-13]), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the minimum energy is tied at levels 0, 1;"):
                synthesis_pipeline(p)

    def test_unknown_phase_policy_refused_before_the_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_synthesis was called")

        monkeypatch.setattr(synthesis, "solve_synthesis", no_solve)
        with pytest.raises(ValueError, match="^unknown phase policy 'bogus'$"):
            synthesis_pipeline(DiagonalObservable(SIGMA8, 2), "bogus", alpha2=1.0)

    def test_untied_miss_raises_infeasible_lambda(self):
        p = DiagonalObservable(SIGMA_SPARSE_MISS, 3)
        with pytest.raises(InfeasibleLambda) as caught:
            synthesis_pipeline(p, alpha2=1.0)
        res = caught.value.result
        assert (res.iterations, res.converged, res.feasible) == (1426, True, False)
        assert res.lambda_tilde[2] == 0.0
        # The message names the level the sign condition misses, and gives
        # no advice on gamma, which cannot help the sparse program here.
        assert str(caught.value) == ("solved lambda_tilde misses the sign condition: level 2 "
                                     "is +0 (non-minimizer entry must be negative)")
        assert "gamma" not in str(caught.value)
        assert synthesis_pipeline(p).result.feasible

    def test_miss_names_max_iter_and_the_residual(self):
        """A solve cut short says so; one whose signs hold but whose fit
        misses names its residual instead of a level."""
        problem = SynthesisProblem(sigma=DiagonalObservable(SIGMA8, 2))
        res = solve_synthesis(problem, max_iter=3)
        assert verify_lambda(res.lambda_tilde, 2)[0] and not res.feasible
        assert str(InfeasibleLambda(res)) == (
            f"solved lambda_tilde misses its fit: residual {res.residual:.3e}; "
            "stopped at max_iter")
