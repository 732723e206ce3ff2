"""End-to-end tests of the command-line interface and its exit-code contract."""

import copy
import json
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from qfcontrol import (
    ControllerConfig,
    DiagonalObservable,
    InfeasibleLambda,
    LoopConfig,
    SynthesisProblem,
    cli,
    photon_box,
    run_ensemble,
    solve_synthesis,
    synthesis,
)
from qfcontrol.cli import REFERENCE_SIGMA, ExperimentConfig, main
from qfcontrol.core import load_matrix
from helpers import break_state, trace_one_not_positive

P_DIAG = {"diag": REFERENCE_SIGMA.tolist(), "n_star": 2}


@pytest.fixture
def p_diag_file(tmp_path):
    path = tmp_path / "pdiag.json"
    path.write_text(json.dumps(P_DIAG))
    return path


def experiment_config(h1_path, theta, realizations=10, steps=300, floor=0.0):
    return {
        "p": P_DIAG,
        "h1": str(h1_path),
        "measurement": {"photon_box": {"n": 8, "phi0": 0.125, "theta": theta}},
        "controller": {
            "kind": "quadratic",
            "kappa": 0.05,
            "u_bar": 0.1,
            "epsilon": 0.0,
        },
        "rho0": {"diag": [0.5625] + [0.0625] * 7},
        "loop": {"mode": "stochastic", "steps": steps, "fidelity_threshold": 0.99},
        "ensemble": {"realizations": realizations, "master_seed": 42},
        "success_floor": floor,
    }


@pytest.fixture
def synthesized(tmp_path, p_diag_file):
    out = tmp_path / "syn"
    code = main(["synthesize", "--p-diag", str(p_diag_file), "--out-dir", str(out)])
    assert code == 0
    return out


class TestSynthesize:
    def test_writes_artifacts(self, synthesized):
        assert (synthesized / "synthesis.json").exists()
        h1 = load_matrix(synthesized / "h1.json")
        assert np.allclose(h1, h1.conj().T)

    def test_sparse_flag_gives_star_support(self, tmp_path, p_diag_file):
        out = tmp_path / "sparse"
        code = main(
            ["synthesize", "--p-diag", str(p_diag_file), "--sparse",
             "--out-dir", str(out)]
        )
        assert code == 0
        h1 = load_matrix(out / "h1.json")
        mask = np.ones((8, 8), dtype=bool)
        mask[2, :] = mask[:, 2] = False
        assert np.max(np.abs(h1[mask])) <= 1e-3

    def test_constant_diag_exits_1(self, tmp_path, capsys):
        """A tied minimum: one error line naming the levels, and no output directory."""
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(
            {"diag": [1.0, 1.0 + 1e-13, 1.0 + 2e-13], "n_star": 0}
        ))
        out = tmp_path / "out"
        code = main(["synthesize", "--p-diag", str(path), "--out-dir", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: the minimum energy is tied at levels 0, 1, 2; .*\n",
                            captured.err)
        assert not out.exists()

    def test_untied_sparse_miss_exits_2(self, tmp_path, capsys):
        """A solved program that misses the sign condition: synthesis.json, no h1.json."""
        path = tmp_path / "miss.json"
        path.write_text(json.dumps({"diag": [63.6962, 26.9787, 4.0974, 1.6528], "n_star": 3}))
        out = tmp_path / "out"
        code = main(["synthesize", "--p-diag", str(path), "--sparse", "--out-dir", str(out)])
        assert code == 2
        printed = capsys.readouterr()
        assert "iterations = 1426" in printed.out
        # One line, naming the level missed; no gamma helps the sparse program.
        assert printed.err == (
            "infeasible: solved lambda_tilde misses the sign condition: level 2 is +0 "
            "(non-minimizer entry must be negative); without --sparse, every untied sigma "
            "has an exact solution\n")
        assert "gamma" not in printed.err
        assert json.loads((out / "synthesis.json").read_text())["feasible"] is False
        assert not (out / "h1.json").exists()

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["synthesize", "--p-diag", str(tmp_path / "nope.json")])
        assert code == 1

    @pytest.mark.parametrize("p_diag, flags", [
        ({"diag": [3.0, 1.0, 2.0], "n_star": 5}, []),
        ([3.0, 1.0, 2.0], []),
        (P_DIAG, ["--gamma1", "0"]),
        (P_DIAG, ["--gamma1", "nan"]),
        ({**P_DIAG, "diag": ["51.7022"] + P_DIAG["diag"][1:]}, []),
        ({"diag": [3.0, 1.0, 2.0], "n_star": 1, "nstar": 0}, []),
    ], ids=["n-star-out-of-range", "top-level-list", "gamma1-zero", "gamma1-nan",
            "diag-entry-string", "unknown-key"])
    def test_bad_input_exits_1_without_traceback(self, tmp_path, capsys, p_diag, flags):
        path = tmp_path / "pdiag.json"
        path.write_text(json.dumps(p_diag))
        out = tmp_path / "out"
        assert main(["synthesize", "--p-diag", str(path), "--out-dir", str(out),
                     *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_diag_is_named(self, tmp_path, capsys):
        path = tmp_path / "pdiag.json"
        path.write_text(json.dumps({"n_star": 1}))
        assert main(["synthesize", "--p-diag", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: bad p-diag file {path}: missing key 'diag'\n"

    def test_phase_policy_choices_are_the_synthesis_tuple(self, capsys):
        parser = cli.build_parser()
        for policy in synthesis.PHASE_POLICIES:
            args = ["synthesize", "--p-diag", "p.json", "--phase-policy", policy]
            assert parser.parse_args(args).phase_policy == policy
        for policy in ("bogus", "alternating"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["synthesize", "--p-diag", "p.json", "--phase-policy", policy])
            assert exc.value.code == 2
            assert f"invalid choice: '{policy}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--alpha1", "1"], ["--alpha2", "1"], ["--norm", "l1"]])
    def test_removed_solver_flags_are_rejected(self, capsys, p_diag_file, flag):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--p-diag", str(p_diag_file), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestSimulate:
    @pytest.mark.parametrize("argv", [["simulate", "--config", "c.json"],
                                      ["reproduce-paper", "--case", "sparse"]])
    def test_threads_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_runs_and_writes_outputs(self, tmp_path, synthesized):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_config(synthesized / "h1.json", np.pi / 10)
        ))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 0
        assert (out / "trajectories.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["realizations"] == 10
        assert "success_rate" in summary

    def test_floor_controls_exit_code(self, tmp_path, synthesized):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_config(synthesized / "h1.json", np.pi / 10,
                              realizations=3, steps=5, floor=1.0)
        ))
        code = main(["simulate", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "sim")])
        assert code == 1

    def test_same_seed_twice_is_byte_identical(self, tmp_path, synthesized):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_config(synthesized / "h1.json", np.pi / 10,
                              realizations=5, steps=100)
        ))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
            outs.append((out / "trajectories.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_config_exits_1(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{")
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_simulation_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        """A state that breaks mid-run is exit 3, with the step, and no summary."""
        cfg = inline_h1(experiment_config("unused", np.pi / 10, realizations=3, steps=60), 0.1)
        cfg["loop"]["stop_at_threshold"] = False
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        break_state(monkeypatch, 1, trace_one_not_positive)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("simulation failure: state invariants violated at step 50 "
                              "in realization 1")
        assert not (out / "summary.json").exists()

    def test_missing_seed_exits_1(self, tmp_path, synthesized):
        cfg = experiment_config(synthesized / "h1.json", np.pi / 10)
        del cfg["ensemble"]["master_seed"]
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 1


def smallest_distance(out):
    """The smallest level-statistics distance and its level pair, from validate's output."""
    line = next(line for line in out.splitlines() if line.startswith("distinguishability:"))
    found = re.search(r"smallest distance (\S+) at levels \((\d+), (\d+)\)", line)
    return float(found[1]), int(found[2]), int(found[3])


class TestValidate:
    def test_quarter_pi_fails_with_pairs_listed(self, tmp_path, synthesized, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_config(synthesized / "h1.json", np.pi / 4)
        ))
        code = main(["validate", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "distinguishability: FAIL" in out
        assert "(0, 4)" in out
        dist, i, j = smallest_distance(out)
        assert dist <= 1e-8 and j == i + 4

    def test_tied_minimum_fails_with_pair_listed(self, tmp_path, synthesized, capsys):
        cfg = experiment_config(synthesized / "h1.json", np.pi / 10)
        cfg["p"] = {"diag": [1.0, 1.0] + REFERENCE_SIGMA[2:].tolist(), "n_star": 0}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["validate", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "nondegenerate_spectrum: FAIL (required)" in out
        assert "  witnesses: [(0, 1)]" in out.splitlines()

    def test_tenth_pi_passes(self, tmp_path, synthesized, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_config(synthesized / "h1.json", np.pi / 10)
        ))
        assert main(["validate", "--config", str(cfg_path)]) == 0
        assert smallest_distance(capsys.readouterr().out)[0] > 0


def inline_h1(cfg, value=0.0):
    h1 = np.full((8, 8), value)
    np.fill_diagonal(h1, 0.0)
    cfg["h1"] = {"n": 8, "re": h1.tolist(), "im": np.zeros((8, 8)).tolist()}
    return cfg


class TestSimulateModes:
    """simulate runs ensembles only; validate checks every mode."""

    @staticmethod
    def deterministic_config():
        cfg = inline_h1(experiment_config("unused", np.pi / 10), 0.1)
        del cfg["measurement"]
        cfg["loop"]["mode"] = "deterministic"
        cfg["controller"]["kind"] = "linear"
        h0 = np.diag(np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19]))
        cfg["h0"] = {"n": 8, "re": h0.tolist(), "im": np.zeros((8, 8)).tolist()}
        return cfg

    @pytest.mark.parametrize("mode", ["deterministic"])
    def test_simulate_rejects_non_ensemble_mode(self, tmp_path, capsys, mode):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(getattr(self, f"{mode}_config")()))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config") and repr(mode) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_filtered_mode_is_refused(self, tmp_path, capsys, command):
        """No mode is left that validate passes and simulate refuses."""
        cfg = inline_h1(experiment_config("unused", np.pi / 10), 0.1)
        cfg["loop"]["mode"] = "filtered"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        args = [command, "--config", str(path)]
        assert main(args + (["--out-dir", str(out)] if command == "simulate" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config") and "'filtered'" in err
        assert not out.exists()

    def test_validate_checks_deterministic_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.deterministic_config()))
        assert main(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "nondegenerate_spectrum", "diagonal", "strong_regularity_mod_2pi",
            "full_connectivity"]
        assert all(": pass (required)" in line for line in lines)

    def test_success_line_counts_hits_exactly(self, tmp_path, capsys, monkeypatch):
        loop = LoopConfig(mode="open-loop", p=DiagonalObservable(np.arange(8.0), 0),
                          h1=np.zeros((8, 8)), meas=photon_box(8, 1 / 8, np.pi / 10),
                          steps=100)
        rho0 = np.diag(np.r_[0.0625, np.full(7, 0.9375 / 7)]).astype(complex)
        ens = run_ensemble(loop, rho0, 47, 7003)
        # 3 / 47 * 47 truncates to 2.
        assert int(np.sum(ens.first_hit >= 0)) == 3
        monkeypatch.setattr(cli, "run_ensemble", lambda *args, **kwargs: ens)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            inline_h1(experiment_config("unused", np.pi / 10, realizations=47))))
        assert main(["simulate", "--config", str(path),
                     "--out-dir", str(tmp_path / "sim")]) == 0
        assert "(3/47 realizations" in capsys.readouterr().out


def drop_measurement(cfg):
    del cfg["measurement"]


def deterministic_without_h0(cfg):
    cfg["loop"]["mode"] = "deterministic"
    cfg["controller"]["kind"] = "linear"


def zeros_json(n):
    return {"n": n, "re": np.zeros((n, n)).tolist(), "im": np.zeros((n, n)).tolist()}


def deterministic_with_2x2_h0(cfg):
    deterministic_without_h0(cfg)
    cfg["h0"] = zeros_json(2)


def quadratic_in_deterministic_mode(cfg):
    deterministic_without_h0(cfg)
    cfg["h0"] = zeros_json(8)
    cfg["controller"]["kind"] = "quadratic"


def h1_with(entry):
    """Set H1's (0, 1) entry alone, leaving (1, 0) at zero."""

    def change(cfg):
        cfg["h1"]["re"][0][1] = entry

    return change


def measurement_coeff_as_string(cfg):
    """The photon-box measurement written out, with one coefficient as a string."""
    meas = photon_box(8, 0.125, np.pi / 10).to_json()
    meas["coeffs_re"][0][2] = repr(meas["coeffs_re"][0][2])
    cfg["measurement"] = meas


def measurement_coeff_nan(cfg):
    """The photon-box measurement written out, with one coefficient NaN."""
    meas = photon_box(8, 0.125, np.pi / 10).to_json()
    meas["coeffs_re"][0][2] = float("nan")
    cfg["measurement"] = meas


def rho0_diag_and_matrix(cfg):
    """rho0's diag with the same state written out as a matrix beside it."""
    rho0 = np.diag(cfg["rho0"]["diag"])
    cfg["rho0"].update(n=8, re=rho0.tolist(), im=np.zeros((8, 8)).tolist())


MALFORMED = {
    "no-measurement": drop_measurement,
    "zero-steps": lambda cfg: cfg["loop"].update(steps=0),
    "unknown-mode": lambda cfg: cfg["loop"].update(mode="analog"),
    "deterministic-without-h0": deterministic_without_h0,
    "loop-not-an-object": lambda cfg: cfg.update(loop=[]),
    "h1-file-missing": lambda cfg: cfg.update(h1="missing.json"),
    "n-star-out-of-range": lambda cfg: cfg.update(p={**P_DIAG, "n_star": 8}),
    "rho0-of-dimension-2": lambda cfg: cfg.update(rho0={"diag": [0.5, 0.5]}),
    "h1-of-dimension-2": lambda cfg: cfg.update(h1=zeros_json(2)),
    "h0-of-dimension-2": deterministic_with_2x2_h0,
    "measurement-of-dimension-4": lambda cfg: cfg["measurement"]["photon_box"].update(n=4),
    "zero-realizations": lambda cfg: cfg["ensemble"].update(realizations=0),
    "u-bar-infinite": lambda cfg: cfg["controller"].update(u_bar=float("inf")),
    "u-bar-nan": lambda cfg: cfg["controller"].update(u_bar=float("nan")),
    "epsilon-nan": lambda cfg: cfg["controller"].update(epsilon=float("nan")),
    "kappa-infinite": lambda cfg: cfg["controller"].update(kappa=float("inf")),
    "sigma-nan": lambda cfg: cfg.update(p={**P_DIAG, "diag": [float("nan")] + P_DIAG["diag"][1:]}),
    "h1-not-hermitian": h1_with(1.0),
    "h1-nan": h1_with(float("nan")),
    "linear-in-stochastic-mode": lambda cfg: cfg["controller"].update(kind="linear"),
    "quadratic-in-deterministic-mode": quadratic_in_deterministic_mode,
    "fidelity-threshold-nan": lambda cfg: cfg["loop"].update(fidelity_threshold=float("nan")),
    "fidelity-threshold-above-1": lambda cfg: cfg["loop"].update(fidelity_threshold=1.5),
    "stop-at-threshold-string": lambda cfg: cfg["loop"].update(stop_at_threshold="false"),
    "steps-fractional": lambda cfg: cfg["loop"].update(steps=10.9),
    "realizations-fractional": lambda cfg: cfg["ensemble"].update(realizations=2.7),
    "master-seed-fractional": lambda cfg: cfg["ensemble"].update(master_seed=42.5),
    "master-seed-string": lambda cfg: cfg["ensemble"].update(master_seed="42"),
    "n-star-fractional": lambda cfg: cfg.update(p={**P_DIAG, "n_star": 2.7}),
    "n-star-string": lambda cfg: cfg.update(p={**P_DIAG, "n_star": "2"}),
    "photon-box-n-fractional": lambda cfg: cfg["measurement"]["photon_box"].update(n=8.9),
    "h1-n-fractional": lambda cfg: cfg["h1"].update(n=8.5),
    "fidelity-threshold-true": lambda cfg: cfg["loop"].update(fidelity_threshold=True),
    "fidelity-threshold-string": lambda cfg: cfg["loop"].update(fidelity_threshold="0.5"),
    "success-floor-string": lambda cfg: cfg.update(success_floor="0.5"),
    "success-floor-above-1": lambda cfg: cfg.update(success_floor=1.5),
    "success-floor-nan": lambda cfg: cfg.update(success_floor=float("nan")),
    "success-floor-negative": lambda cfg: cfg.update(success_floor=-0.5),
    "u-bar-true": lambda cfg: cfg["controller"].update(u_bar=True),
    "sigma-entry-string": lambda cfg: cfg.update(
        p={**P_DIAG, "diag": ["51.7022"] + P_DIAG["diag"][1:]}),
    "rho0-entry-string": lambda cfg: cfg.update(rho0={"diag": ["0.5625"] + [0.0625] * 7}),
    "rho0-entry-true": lambda cfg: cfg.update(rho0={"diag": [True] + [0.0] * 7}),
    "h1-entry-string": h1_with("0.0"),
    "measurement-coeff-string": measurement_coeff_as_string,
    "measurement-coeff-nan": measurement_coeff_nan,
    "photon-box-theta-nan": lambda cfg: cfg["measurement"]["photon_box"].update(
        theta=float("nan")),
    "output-dir-not-string": lambda cfg: cfg.update(output_dir=5),
    "output-dir-empty": lambda cfg: cfg.update(output_dir=""),
    "tie-break-random-sign": lambda cfg: cfg["controller"].update(tie_break="random-sign"),
    "top-level-key-misspelt": lambda cfg: cfg.update(ensembel={"realizations": 2}),
    "loop-key-misspelt": lambda cfg: cfg["loop"].update(stepz=10),
    "ensemble-key-misspelt": lambda cfg: cfg["ensemble"].update(realisations=2),
    "p-key-misspelt": lambda cfg: cfg.update(p={**P_DIAG, "nstar": 0}),
    "rho0-key-misspelt": lambda cfg: cfg["rho0"].update(diagg=[0.125] * 8),
    "rho0-diag-and-matrix": rho0_diag_and_matrix,
    "photon-box-key-misspelt": lambda cfg: cfg["measurement"]["photon_box"].update(thetta=0.3),
    "measurement-key-beside-photon-box": lambda cfg: cfg["measurement"].update(n=8),
    "h1-key-misspelt": lambda cfg: cfg["h1"].update(nn=8),
    "p-missing": lambda cfg: cfg.pop("p"),
    "h1-im-missing": lambda cfg: cfg["h1"].pop("im"),
    "photon-box-theta-missing": lambda cfg: cfg["measurement"]["photon_box"].pop("theta"),
}


# The MALFORMED cases whose config holds an unknown key, and that key's dotted path.
UNKNOWN_KEY = {
    "tie-break-random-sign": "controller.tie_break",
    "top-level-key-misspelt": "ensembel",
    "loop-key-misspelt": "loop.stepz",
    "ensemble-key-misspelt": "ensemble.realisations",
    "p-key-misspelt": "p.nstar",
    "rho0-key-misspelt": "rho0.diagg",
    "rho0-diag-and-matrix": "rho0.im",
    "photon-box-key-misspelt": "measurement.photon_box.thetta",
    "measurement-key-beside-photon-box": "measurement.n",
    "h1-key-misspelt": "h1.nn",
}

# The MALFORMED cases whose config leaves out a key its reader needs, and that key.
MISSING_KEY = {
    "p-missing": "p",
    "h1-im-missing": "im",
    "photon-box-theta-missing": "theta",
}


class TestMalformedConfig:
    """A malformed config is a config error (exit 1), never a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_without_traceback(self, tmp_path, capsys, command, case):
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = zeros_json(8)
        MALFORMED[case](cfg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path)]
        if command == "simulate":
            argv += ["--out-dir", str(tmp_path / "sim")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config")
        assert "Traceback" not in err
        assert not (tmp_path / "sim").exists()

    def test_a_measurement_with_no_levels_is_refused_by_name(self, tmp_path, capsys):
        """Its coeffs are (2, 0): refused by the measurement, not by NumPy's empty max."""
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = zeros_json(8)
        cfg["measurement"] = {"n": 0, "m": 2, "coeffs_re": [[], []], "coeffs_im": [[], []]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: bad config {path}: coeffs has no levels: "
                                           "a measurement needs at least one\n")

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEY))
    def test_unknown_key_is_named(self, tmp_path, capsys, command, case):
        """A misspelt or removed key is refused by its dotted path, not ignored."""
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = zeros_json(8)
        MALFORMED[case](cfg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 1
        assert f"unknown config key {UNKNOWN_KEY[case]}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("case", sorted(MISSING_KEY))
    def test_missing_key_is_named(self, tmp_path, capsys, command, case):
        """A missing key is named as missing, not printed as a bare KeyError's quoted key."""
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = zeros_json(8)
        MALFORMED[case](cfg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 1
        key = MISSING_KEY[case]
        assert capsys.readouterr().err == f"error: bad config {path}: missing key '{key}'\n"

    @pytest.mark.parametrize("path, value, message", [
        ("loop.steps", 10.9, "loop.steps is 10.9, but must be an integer"),
        ("loop.fidelity_threshold", True,
         "loop.fidelity_threshold is True, but must be a number"),
        ("loop.stop_at_threshold", "false",
         "loop.stop_at_threshold is 'false', but must be true or false"),
        ("measurement.photon_box.n", 8.9, "photon_box.n is 8.9, but must be an integer"),
        ("measurement.photon_box.theta", "0.3",
         "photon_box.theta is '0.3', but must be a number"),
        ("ensemble.realizations", 2.7, "ensemble.realizations is 2.7, but must be an integer"),
        ("ensemble.master_seed", "42", "ensemble.master_seed is '42', but must be an integer"),
        ("success_floor", "0.5", "success_floor is '0.5', but must be a number"),
        ("loop.steps", 0, "loop.steps is 0, but must be at least 1"),
        ("loop.fidelity_threshold", 1.5, "loop.fidelity_threshold is 1.5, but must be in (0, 1]"),
        ("loop.fidelity_threshold", float("nan"),
         "loop.fidelity_threshold is nan, but must be in (0, 1]"),
        ("loop.mode", "filtered",
         "loop.mode is 'filtered', but must be 'deterministic', 'stochastic' or 'open-loop'"),
        ("controller.kind", "pid",
         "controller.kind is 'pid', but must be 'linear', 'exact-min' or 'quadratic'"),
        ("controller.u_bar", True, "controller.u_bar is True, but must be a number"),
        ("controller.u_bar", float("nan"), "controller.u_bar is nan, but must be finite"),
        ("controller.u_bar", 0,
         "controller.u_bar is 0.0, but the quadratic controller needs it > 0"),
        ("controller.kappa", float("inf"), "controller.kappa is inf, but must be finite"),
        ("controller.epsilon", float("nan"), "controller.epsilon is nan, but must be finite"),
        ("controller.epsilon", -1, "controller.epsilon is -1.0, but must be non-negative"),
    ], ids=["loop.steps", "loop.fidelity_threshold", "loop.stop_at_threshold", "photon_box.n",
            "photon_box.theta", "ensemble.realizations", "ensemble.master_seed", "success_floor",
            "loop.steps-zero", "loop.fidelity_threshold-above-1", "loop.fidelity_threshold-nan",
            "loop.mode-unknown", "controller.kind-unknown", "controller.u_bar-true",
            "controller.u_bar-nan", "controller.u_bar-zero", "controller.kappa-infinite",
            "controller.epsilon-nan", "controller.epsilon-negative"])
    def test_type_refused_by_its_holder(self, tmp_path, capsys, path, value, message):
        """Each value's type and range are checked once, by the type that holds
        it, and every refusal names the value by its dotted config path."""
        cfg = inline_h1(experiment_config("unused", np.pi / 10))
        *parents, key = path.split(".")
        section = cfg
        for name in parents:
            section = section[name]
        section[key] = value
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: bad config {config}: {message}\n"


class TestOutDirThatCannotBeMade:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.json"],
        ["reproduce-paper", "--case", "sparse", "--seed", "0"],
    ], ids=["simulate", "reproduce-paper"])
    def test_exits_1_before_any_realization(self, tmp_path, capsys, monkeypatch, argv):
        """An --out-dir that is a file, or lies under one, is exit 1 without a traceback.

        Neither the ensemble nor, in reproduce-paper, the synthesis solve runs first.
        """
        for name in ("run_ensemble", "synthesis_pipeline"):
            def no_run(*args, name=name, **kwargs):
                raise AssertionError(f"{name} called before the output directory was made")

            monkeypatch.setattr(cli, name, no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(
            json.dumps(inline_h1(experiment_config("unused", np.pi / 10), 0.1)))
        (tmp_path / "file").write_text("")
        for out in ("file", "file/x"):
            assert main([*argv, "--out-dir", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(out) in err
            assert "Traceback" not in err

    def test_synthesize_refuses_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                 p_diag_file):
        """synthesize checks its --out-dir before the sparse solve, not after it."""
        solves = []
        monkeypatch.setattr(synthesis, "solve_synthesis", solves.append)
        (tmp_path / "file").write_text("")
        for out in ("file", "file/x"):
            assert main(["synthesize", "--p-diag", str(p_diag_file), "--sparse",
                         "--out-dir", str(tmp_path / out)]) == 1
            printed = capsys.readouterr()
            assert printed.err.startswith("error: ") and "Traceback" not in printed.err
            assert "iterations =" not in printed.out
        assert solves == []


class TestWriteJson:
    def test_written_as_one_json_text(self, tmp_path):
        """The file holds json.dumps(obj, indent=2) and a newline: json.dump's bytes."""
        obj = {"first_hit": [3, -1], "curve": [0.1, 1 / 3, -0.0, 1e-300], "median": None,
               "nested": {"ok": True, "name": "x"}}
        path, dumped = tmp_path / "summary.json", tmp_path / "dumped.json"
        cli._write_json(path, obj)
        with open(dumped, "w") as f:
            json.dump(obj, f, indent=2)
            f.write("\n")
        text = json.dumps(obj, indent=2) + "\n"
        assert path.read_bytes() == text.encode() == dumped.read_bytes()


class TestReproducePaper:
    def test_writes_consistent_outputs(self, tmp_path, monkeypatch):
        # Five of the 100 realizations keep the test fast; master seed 0
        # gives two hits and three misses among them.
        def five(loop, rho0, n, master_seed):
            return run_ensemble(loop, rho0, 5, master_seed)

        monkeypatch.setattr(cli, "run_ensemble", five)
        out = tmp_path / "rp"
        # theta = pi/4 cannot reach the 0.95 success rate, so that row fails.
        assert main(["reproduce-paper", "--case", "nonsparse", "--seed", "0",
                     "--out-dir", str(out)]) == 1
        for name in ("synthesis.json", "h1.json", "trajectories.csv", "summary.json",
                     "report.md"):
            assert (out / name).stat().st_size > 0
        summary = json.loads((out / "summary.json").read_text())
        header, _, *rows = (out / "trajectories.csv").read_text().splitlines()
        assert header == (f"# config_hash={summary['config_hash']} master_seed=0 "
                          "index_convention=0-based")
        first_hit = [-1] * summary["realizations"]
        for row in rows:
            i, k, _, _, fidelity = row.split(",")[:5]
            if float(fidelity) >= 0.99 and first_hit[int(i)] < 0:
                first_hit[int(i)] = int(k)
        assert summary["first_hit"] == first_hit
        assert max(first_hit) >= 0 and min(first_hit) == -1

    def test_infeasible_synthesis_exits_2(self, tmp_path, capsys, monkeypatch):
        def infeasible(p, phase_policy="positive", **problem):
            raise InfeasibleLambda(solve_synthesis(SynthesisProblem(sigma=p, **problem)))

        monkeypatch.setattr(cli, "synthesis_pipeline", infeasible)
        out = tmp_path / "rp"
        assert main(["reproduce-paper", "--case", "nonsparse", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible: solved lambda_tilde misses") and err.count("\n") == 1
        assert (out / "synthesis.json").exists()
        assert not (out / "h1.json").exists()
        assert not (out / "trajectories.csv").exists()

    def test_sparse_case_rows(self, tmp_path, capsys):
        """The sparse case's star pattern and zero sum pass; at theta = pi/4
        only the success-rate row fails."""
        out = tmp_path / "rp"
        assert main(["reproduce-paper", "--case", "sparse", "--seed", "0",
                     "--out-dir", str(out)]) == 1
        report = (out / "report.md").read_text()
        assert capsys.readouterr().out == report + "\n"
        rows = [line for line in report.splitlines() if line.startswith("| ")][1:]
        assert any(row.startswith("| sparse lambda pattern (-1,...,7,...) | pass |")
                   for row in rows)
        assert any(row.startswith("| lambda entries sum to zero | pass |") for row in rows)
        fails = [row for row in rows if "| FAIL |" in row]
        assert len(fails) == 1
        assert fails[0].startswith("| closed-loop success rate >= 0.95 | FAIL |")


class TestExperimentConfig:
    def test_loads_inline_matrices(self, tmp_path):
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = {"n": 8, "re": np.zeros((8, 8)).tolist(),
                     "im": np.zeros((8, 8)).tolist()}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        loaded = ExperimentConfig.load(path)
        assert loaded.loop.h1.shape == (8, 8)
        assert loaded.loop.mode == "stochastic"
        assert loaded.master_seed == 42

    def test_loads_a_saved_matrix_inline(self, tmp_path, synthesized):
        """h1.json as synthesize writes it, with the keys save_matrix adds, loads inline too."""
        saved = json.loads((synthesized / "h1.json").read_text())
        assert {"index_convention", "phase_policy", "config_hash"} <= set(saved)
        h1 = []
        for spec in (str(synthesized / "h1.json"), saved):
            cfg = {**experiment_config("unused", np.pi / 10), "h1": spec}
            path = tmp_path / "c.json"
            path.write_text(json.dumps(cfg))
            h1.append(ExperimentConfig.load(path).loop.h1)
        assert np.array_equal(h1[0], h1[1])

    def test_full_matrix_rho0_runs_as_its_diag_form(self, tmp_path):
        """rho0 as {"n", "re", "im"} loads, and runs, as the same state given by "diag"."""
        cfg = inline_h1(experiment_config("unused", np.pi / 10, realizations=3, steps=40), 0.1)
        rho0 = np.diag(cfg["rho0"]["diag"])
        full = {**cfg, "rho0": {"n": 8, "re": rho0.tolist(), "im": np.zeros((8, 8)).tolist()}}
        csv = []
        for name, raw in (("diag", cfg), ("full", full)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(raw))
            assert np.array_equal(ExperimentConfig.load(path).rho0, rho0)
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
            csv.append((out / "trajectories.csv").read_text().splitlines()[1:])
        assert csv[0] == csv[1]

    def test_defaults_come_from_the_dataclasses(self):
        """A key a config leaves out takes the default of its dataclass field."""
        def defaults(cls, *given):
            return {f.name: f.default_factory() if f.default is MISSING else f.default
                    for f in fields(cls) if f.name not in given
                    and (f.default is not MISSING or f.default_factory is not MISSING)}

        full = experiment_config("unused", np.pi / 10)
        minimal = {"p": full["p"], "h1": zeros_json(8), "measurement": full["measurement"],
                   "rho0": full["rho0"], "ensemble": {"master_seed": 7}}
        cfg = ExperimentConfig.from_json(minimal)
        assert cfg.loop.mode == "stochastic" and cfg.master_seed == 7
        loop_defaults = defaults(type(cfg.loop), "meas")
        assert {name: getattr(cfg.loop, name) for name in loop_defaults} == loop_defaults
        assert cfg.loop.controller == ControllerConfig()
        config_defaults = defaults(ExperimentConfig, "master_seed", "raw")
        assert {name: getattr(cfg, name) for name in config_defaults} == config_defaults

        deterministic = TestSimulateModes.deterministic_config()
        del deterministic["ensemble"]["master_seed"]
        seed = ExperimentConfig.from_json(deterministic).master_seed
        assert seed == defaults(ExperimentConfig)["master_seed"] == 0

    def test_from_json_leaves_raw_as_it_was(self):
        """raw is hashed into every output, so loading must not fill in its defaults."""
        raw = inline_h1(experiment_config("unused", np.pi / 10))
        del raw["loop"]["mode"]
        before = copy.deepcopy(raw)
        cfg = ExperimentConfig.from_json(raw)
        assert cfg.loop.mode == "stochastic"
        assert raw == before
        assert cfg.raw is raw

    @pytest.mark.parametrize("field, value, message", [
        ("realizations", 0, "ensemble.realizations is 0, but must be at least 1"),
        ("realizations", True, "ensemble.realizations is True, but must be an integer"),
        ("master_seed", 1.5, "ensemble.master_seed is 1.5, but must be an integer"),
        ("success_floor", "0.5", "success_floor is '0.5', but must be a number"),
        ("success_floor", float("nan"), "success_floor is nan, but must be in [0, 1]"),
        ("success_floor", 1.5, "success_floor is 1.5, but must be in [0, 1]"),
        ("output_dir", "", "output_dir is '', but must be a non-empty string"),
        ("output_dir", 5, "output_dir is 5, but must be a non-empty string"),
    ], ids=["zero-realizations", "realizations-true", "master-seed-fractional",
            "success-floor-string", "success-floor-nan", "success-floor-above-1",
            "output-dir-empty", "output-dir-not-string"])
    def test_built_directly_checks_its_ranges(self, field, value, message):
        """And the types of its ensemble and success_floor values, by name."""
        loop = ExperimentConfig.from_json(
            inline_h1(experiment_config("unused", np.pi / 10))).loop
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(loop=loop, rho0=np.eye(8) / 8, **{field: value})

    def test_invalid_rho0_rejected(self, tmp_path):
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = {"n": 8, "re": np.zeros((8, 8)).tolist(),
                     "im": np.zeros((8, 8)).tolist()}
        cfg["rho0"] = {"diag": [0.7] + [0.1] * 7}  # trace 1.4
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(Exception):
            ExperimentConfig.load(path)
