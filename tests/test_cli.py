"""End-to-end tests of the command-line interface and its exit-code contract."""

import json

import numpy as np
import pytest

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
        code = main(["synthesize", "--p-diag", str(path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["synthesize", "--p-diag", str(tmp_path / "nope.json")])
        assert code == 1


class TestSimulate:
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


def drop_measurement(cfg):
    del cfg["measurement"]


def deterministic_without_h0(cfg):
    cfg["loop"]["mode"] = "deterministic"
    cfg["controller"]["kind"] = "linear"


MALFORMED = {
    "no-measurement": drop_measurement,
    "zero-steps": lambda cfg: cfg["loop"].update(steps=0),
    "unknown-mode": lambda cfg: cfg["loop"].update(mode="analog"),
    "deterministic-without-h0": deterministic_without_h0,
    "loop-not-an-object": lambda cfg: cfg.update(loop=[]),
}


class TestMalformedConfig:
    """A malformed config is a config error (exit 1), never a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_without_traceback(self, tmp_path, capsys, command, case):
        cfg = experiment_config("unused", np.pi / 10)
        cfg["h1"] = {"n": 8, "re": np.zeros((8, 8)).tolist(),
                     "im": np.zeros((8, 8)).tolist()}
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
