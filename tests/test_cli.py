import json
import math
from pathlib import Path

import pytest

from byzfl.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tiny_config(**overrides):
    payload = {
        "problem": {"p": 3, "n_users": 6, "samples_per_user": 20, "heterogeneity": 0.0, "loss": "ridge", "reg": 0.5},
        "n_byzantine": 1,
        "attack": {"kind": "gaussian", "sigma": 10.0},
        "aggregator": {"kind": "geomed"},
        "schedule": {"kind": "uniform", "steps": "auto", "eta": "auto"},
        "oracle": {"kind": "full"},
        "rounds": 8,
        "seed": 3,
    }
    payload.update(overrides)
    return payload


class TestRun:
    def test_minimal_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        trace = (out / "trace.jsonl").read_text().splitlines()
        assert len(trace) == 8
        first = json.loads(trace[0])
        assert set(first) == {
            "t",
            "global_loss",
            "optimality_gap",
            "dist_to_opt_sq",
            "theorem1_bound",
            "theorem2_bound",
            "agg_iterations",
            "agg_residual",
            "agg_converged",
            "assumption_violating",
            "test_accuracy",
        }
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "t,loss,gap,bound1,bound2,accuracy"
        assert len(summary) == 9
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["seed"] == 3
        assert resolved["schedule"]["eta"] != "auto"

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config(n_byzantine=3))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "B < M/2" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"roundz": 5})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_same_seed_byte_identical_traces(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--seed", "7", "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()

    def test_seed_flag_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(n_byzantine=2, rounds=3))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--seed", "1", "--out", str(a)])
        main(["run", "--config", cfg, "--seed", "2", "--out", str(b)])
        assert (a / "trace.jsonl").read_bytes() != (b / "trace.jsonl").read_bytes()

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(schedule={"kind": "general", "steps_cycle": [2, 3]}))
        a = tmp_path / "a"
        main(["run", "--config", cfg, "--out", str(a)])
        b = tmp_path / "b"
        assert main(["run", "--config", str(a / "config.json"), "--out", str(b)]) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()


class TestSweep:
    def test_beta_sweep_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(rounds=6))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "beta", "--values", "0,0.2", "--out", str(out)]) == 0
        assert (out / "beta=0" / "trace.jsonl").exists()
        assert (out / "beta=0.2" / "trace.jsonl").exists()
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[0].startswith("param,value,final_loss,final_gap")

    def test_sweep_beta_half_fails_with_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config(rounds=4))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--param", "beta", "--values", "0.5", "--out", str(out)])
        assert code == 2
        assert "B < M/2" in capsys.readouterr().err

    def test_aggregator_sweep(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(rounds=4))
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", cfg, "--param", "aggregator", "--values", "geomed,mean,coordinate_median", "--out", str(out)]
        )
        assert code == 0
        assert (out / "aggregator=mean" / "summary.csv").exists()

    def test_k_sweep_requires_uniform(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config(schedule={"kind": "general", "steps_cycle": [2]}))
        code = main(["sweep", "--config", cfg, "--param", "K", "--values", "1,2", "--out", str(tmp_path / "s")])
        assert code == 2

    def test_eta_sweep(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(rounds=4, schedule={"kind": "uniform", "steps": 2, "eta": 0.05}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "eta", "--values", "0.02,0.05", "--out", str(out)]) == 0
        assert (out / "eta=0.02" / "trace.jsonl").exists()


class TestFailurePaths:
    def test_singular_solve_exit_3(self, tmp_path, capsys):
        # All-zero features with no penalty make the normal equations singular.
        import numpy as np

        for m in range(2):
            np.savetxt(tmp_path / f"u{m}.csv", np.zeros((4, 3)), delimiter=",")
        payload = {
            "problem": {"kind": "csv", "paths": [str(tmp_path / "u0.csv"), str(tmp_path / "u1.csv")], "reg": 0.0},
            "n_byzantine": 0,
            "rounds": 2,
            "schedule": {"kind": "uniform", "steps": 1, "eta": 0.1},
        }
        cfg = write_config(tmp_path, payload)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_byzantine_uploads_are_dropped(self, tmp_path, capsys):
        # sigma = 1e308 overflows most coordinates to inf and the rest past
        # a representable squared norm; the run must carry on without them.
        # Noisy honest uploads keep Weiszfeld iterating (no majority point).
        payload = tiny_config(
            attack={"kind": "gaussian", "sigma": 1e308}, oracle={"kind": "relative_noise", "delta": 0.5}
        )
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert len(records) == 8
        for rec in records:
            for key in ("global_loss", "optimality_gap", "dist_to_opt_sq", "agg_residual"):
                assert math.isfinite(rec[key])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_honest_upload_exit_3(self, tmp_path, capsys):
        schedule = {"kind": "uniform", "steps": 2, "eta": 1e300}
        cfg = write_config(tmp_path, tiny_config(schedule=schedule))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err and "non-finite" in err
        assert "Traceback" not in err

    def test_threads_env_respected(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, tiny_config(rounds=3))
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("BYZFL_THREADS", "1")
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        monkeypatch.setenv("BYZFL_THREADS", "0")  # auto
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        monkeypatch.setenv("BYZFL_THREADS", "nope")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "c")]) == 2


class TestVerify:
    def test_geomed_suite_smoke(self, capsys):
        assert main(["verify", "--suite", "geomed", "--ball-cases", "150"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] ball-robustness" in out
        assert "[PASS] 1d-median-reduction" in out

    def test_bounds_suite(self, capsys):
        assert main(["verify", "--suite", "bounds"]) == 0
        assert "[PASS] theorem1-envelope-random-configs" in capsys.readouterr().out

    def test_assumptions_suite(self, capsys):
        assert main(["verify", "--suite", "assumptions"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] strong-convexity-pairs" in out
        assert "[PASS] relative-noise-ratio" in out
