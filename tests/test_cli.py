import json
import subprocess
import sys

import numpy as np
import pytest

from markov_id import load_trajectory, save_matrix
from markov_id.cli import main


@pytest.fixture
def ref_path(tmp_path, ref_three_state):
    path = tmp_path / "ref.json"
    save_matrix(ref_three_state, path)
    return str(path)


@pytest.fixture
def alt_path(tmp_path, alt_three_state):
    path = tmp_path / "alt.json"
    save_matrix(alt_three_state, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInspect:
    def test_text(self, capsys, ref_path):
        code, out, _ = run(capsys, "inspect", "--p", ref_path)
        assert code == 0
        assert "irreducible = True" in out
        assert "reversible = True" in out

    def test_json(self, capsys, ref_path):
        code, out, _ = run(capsys, "inspect", "--p", ref_path, "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["states"] == 3
        assert obj["min_stationary_prob"] == pytest.approx(0.25, abs=1e-12)

    def test_bad_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": 2, "edges": [[0,0],[0,1],[1,0],[1,1]], "rows": [[0.5,0.5],[0.6,0.6]]}')
        code, _, err = run(capsys, "inspect", "--p", str(bad))
        assert code == 2 and "error:" in err


class TestContrast:
    def test_values(self, capsys, ref_path, alt_path, ref_three_state, alt_three_state):
        from markov_id import contrast

        code, out, _ = run(capsys, "contrast", "--p", ref_path, "--q", alt_path, "--format", "json")
        obj = json.loads(out)
        expected = contrast(ref_three_state, alt_three_state)
        assert code == 0
        assert obj["k"] == pytest.approx(expected.k, abs=1e-12)
        assert obj["renyi_rate"] == pytest.approx(expected.renyi_rate, abs=1e-12)

    def test_self_contrast_zero(self, capsys, ref_path):
        code, out, _ = run(capsys, "contrast", "--p", ref_path, "--q", ref_path, "--format", "json")
        assert code == 0 and json.loads(out)["k"] <= 1e-12


class TestPipeline:
    def test_symmetrize_then_embed_lumps_back(self, capsys, tmp_path, ref_path):
        sigma = str(tmp_path / "sigma.json")
        code, out, _ = run(capsys, "symmetrize", "--ref", ref_path, "--out", sigma)
        assert code == 0 and "delta = 4" in out

        traj = str(tmp_path / "x.txt")
        code, _, _ = run(capsys, "simulate", "--p", ref_path, "-n", "300", "--seed", "8", "--out", traj)
        assert code == 0

        big = str(tmp_path / "y.txt")
        code, _, _ = run(
            capsys, "embed", "--sigma", sigma, "--traj", traj, "--seed", "8", "--stream", "1", "--out", big
        )
        assert code == 0

        from markov_id import load_symmetrizer

        sym = load_symmetrizer(sigma)
        x = load_trajectory(traj)
        y = load_trajectory(big)
        assert (sym.embedding.lumping.assignment[y.states] == x.states).all()

    def test_simulate_is_byte_identical(self, capsys, ref_path):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "simulate", "--p", ref_path, "-n", "50", "--seed", "123")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_simulate_without_seed_prints_one(self, capsys, ref_path):
        code, out, _ = run(capsys, "simulate", "--p", ref_path, "-n", "10")
        assert code == 0 and "seed=" in out


class TestIdentityTest:
    def test_accepts_own_trajectory(self, capsys, tmp_path, ref_path):
        traj = str(tmp_path / "x.txt")
        run(capsys, "simulate", "--p", ref_path, "-n", "3000", "--seed", "21", "--out", traj)
        code, out, _ = run(
            capsys, "test", "--ref", ref_path, "--traj", traj, "--epsilon", "0.15", "--seed", "4"
        )
        assert code == 0 and "verdict = accept" in out

    def test_rejects_alternative_trajectory(self, capsys, tmp_path, ref_path, alt_path):
        traj = str(tmp_path / "x.txt")
        run(capsys, "simulate", "--p", alt_path, "-n", "3000", "--seed", "21", "--out", traj)
        code, out, _ = run(
            capsys, "test", "--ref", ref_path, "--traj", traj, "--epsilon", "0.15", "--seed", "4"
        )
        assert code == 0 and "verdict = reject" in out

    def test_non_member_reference_exits_3(self, capsys, tmp_path):
        from markov_id import TransitionMatrix

        skew = TransitionMatrix.from_dense(
            [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        )
        ref = tmp_path / "skew.json"
        save_matrix(skew, ref)
        traj = tmp_path / "x.txt"
        traj.write_text("0\n1\n2\n0\n# states=3\n")
        code, _, err = run(
            capsys, "test", "--ref", str(ref), "--traj", str(traj), "--epsilon", "0.2", "--seed", "1"
        )
        assert code == 3 and "error:" in err

    def test_problem_options(self, capsys, tmp_path, ref_path, alt_path):
        traj = str(tmp_path / "x.txt")
        run(capsys, "simulate", "--p", ref_path, "-n", "500", "--seed", "21", "--out", traj)
        code, out, _ = run(
            capsys, "test", "--ref", ref_path, "--traj", traj, "--seed", "4",
            "--epsilon-low", "0.05", "--epsilon", "0.15", "--format", "json",
        )
        obj = json.loads(out)
        assert code == 0
        assert set(obj) == {
            "decision", "verdict", "seed", "n", "epsilon", "tester",
            "contrast_estimate", "threshold", "insufficient_data", "delta_states",
        }
        assert obj["tester"] == "plugin-contrast"
        assert obj["threshold"] == pytest.approx(0.1)
        code, _, _ = run(
            capsys, "risk", "--ref", ref_path, "--alt", alt_path, "--epsilon-low", "0.05",
            "--epsilon", "0.15", "-n", "100", "--trials", "5", "--seed", "1",
        )
        assert code == 0


class TestRiskAndScan:
    def test_risk_json(self, capsys, ref_path, alt_path):
        code, out, _ = run(
            capsys, "risk", "--ref", ref_path, "--alt", alt_path,
            "--epsilon", "0.15", "--delta", "0.2", "-n", "300",
            "--trials", "20", "--seed", "6", "--format", "json",
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["risk"] == obj["type1"] + obj["type2_max"]
        assert obj["trials"] == 20 and obj["seed"] == 6

    def test_scan_csv(self, capsys, ref_path, alt_path):
        code, out, _ = run(
            capsys, "scan", "--ref", ref_path, "--alt", alt_path,
            "--epsilon", "0.15", "--delta", "0.2", "--n-grid", "100,200",
            "--trials", "20", "--seed", "6", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,type1_freq,type2_freq_max,risk_estimate"
        assert lines[1].startswith("100,")

    def test_excluded_alternative_exits_3(self, capsys, tmp_path, ref_path, ref_three_state):
        import numpy as np

        from markov_id import EdgeSet, validate

        near = validate(
            3, EdgeSet.complete(3),
            [[0.86, 0.06, 0.08], [0.06, 0.86, 0.08], [0.04, 0.04, 0.92]],
        )
        path = tmp_path / "near.json"
        save_matrix(near, path)
        code, _, err = run(
            capsys, "risk", "--ref", ref_path, "--alt", str(path),
            "--epsilon", "0.15", "-n", "100", "--trials", "5", "--seed", "1",
        )
        assert code == 3 and "error:" in err


class TestConfigFile:
    def test_config_preloads_and_flags_win(self, capsys, tmp_path, ref_path, alt_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.15, "trials": 10, "seed": 6, "delta": 0.2}))
        code, out, _ = run(
            capsys, "risk", "--ref", ref_path, "--alt", alt_path,
            "-n", "200", "--config", str(cfg), "--trials", "5", "--format", "json",
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["trials"] == 5  # flag beat the config file
        assert obj["seed"] == 6  # config filled the gap


class TestWorkerCap:
    def test_env_var_caps_parallelism(self, monkeypatch):
        from markov_id.cli import _workers

        monkeypatch.setenv("MARKOV_ID_THREADS", "2")
        assert _workers(8) == 2
        assert _workers(1) == 1
        monkeypatch.delenv("MARKOV_ID_THREADS")
        assert _workers(8) == 8


class TestVerifyCommand:
    def test_passes_on_correct_build(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "8", "--seed", "7")
        assert code == 0 and "ok = True" in out

    def test_console_script_installed(self, ref_path):
        proc = subprocess.run(
            [sys.executable, "-m", "markov_id.cli", "inspect", "--p", ref_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and "irreducible = True" in proc.stdout
