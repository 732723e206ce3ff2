"""End-to-end tests of the command-line interface and its exit-code contract."""

import json

import numpy as np
import pytest

from qfcontrol import (
    DiagonalObservable,
    InfeasibleLambda,
    LoopConfig,
    SynthesisProblem,
    cli,
    photon_box,
    run_ensemble,
    solve_synthesis,
)
from qfcontrol.cli import REFERENCE_SIGMA, ExperimentConfig, main
from qfcontrol.core import load_matrix

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
            "tie_break": "positive",
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

    def test_constant_diag_exits_2(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(
            {"diag": [1.0, 1.0 + 1e-13, 1.0 + 2e-13], "n_star": 0}
        ))
        out = tmp_path / "out"
        code = main(["synthesize", "--p-diag", str(path), "--out-dir", str(out)])
        assert code == 2
        assert (out / "synthesis.json").exists()
        assert not (out / "h1.json").exists()

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["synthesize", "--p-diag", str(tmp_path / "nope.json")])
        assert code == 1

    @pytest.mark.parametrize("p_diag, flags", [
        ({"diag": [3.0, 1.0, 2.0], "n_star": 5}, []),
        ([3.0, 1.0, 2.0], []),
        (P_DIAG, ["--gamma1", "0"]),
        (P_DIAG, ["--alpha2", "-1"]),
    ], ids=["n-star-out-of-range", "top-level-list", "gamma1-zero", "alpha2-negative"])
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

    def test_missing_seed_exits_1(self, tmp_path, synthesized):
        cfg = experiment_config(synthesized / "h1.json", np.pi / 10)
        del cfg["ensemble"]["master_seed"]
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 1


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

    def test_tenth_pi_passes(self, tmp_path, synthesized):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            experiment_config(synthesized / "h1.json", np.pi / 10)
        ))
        assert main(["validate", "--config", str(cfg_path)]) == 0


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

    @staticmethod
    def filtered_config():
        cfg = inline_h1(experiment_config("unused", np.pi / 10), 0.1)
        cfg["loop"]["mode"] = "filtered"
        return cfg

    @pytest.mark.parametrize("mode", ["deterministic", "filtered"])
    def test_simulate_rejects_non_ensemble_mode(self, tmp_path, capsys, mode):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(getattr(self, f"{mode}_config")()))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config") and repr(mode) in err
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


def h1_with(entry):
    """Set H1's (0, 1) entry alone, leaving (1, 0) at zero."""

    def change(cfg):
        cfg["h1"]["re"][0][1] = entry

    return change


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
    "fidelity-threshold-nan": lambda cfg: cfg["loop"].update(fidelity_threshold=float("nan")),
    "fidelity-threshold-above-1": lambda cfg: cfg["loop"].update(fidelity_threshold=1.5),
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

    def test_infeasible_synthesis_exits_2(self, tmp_path, monkeypatch):
        def infeasible(p, phase_policy="positive", meas=None, **problem):
            raise InfeasibleLambda(solve_synthesis(SynthesisProblem(sigma=p, **problem)))

        monkeypatch.setattr(cli, "synthesis_pipeline", infeasible)
        out = tmp_path / "rp"
        assert main(["reproduce-paper", "--case", "nonsparse", "--out-dir", str(out)]) == 2
        assert (out / "synthesis.json").exists()
        assert not (out / "h1.json").exists()
        assert not (out / "trajectories.csv").exists()


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

    def test_invalid_rho0_rejected(self, tmp_path):
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = {"n": 8, "re": np.zeros((8, 8)).tolist(),
                     "im": np.zeros((8, 8)).tolist()}
        cfg["rho0"] = {"diag": [0.7] + [0.1] * 7}  # trace 1.4
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(Exception):
            ExperimentConfig.load(path)
