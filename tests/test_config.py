import json

import numpy as np
import pytest

from byzfl.config import (
    AggregatorSpec,
    AttackSpec,
    ConfigError,
    ExperimentConfig,
    ScheduleSpec,
    SyntheticProblemSpec,
    dump_config,
    load_config,
)


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_empty_object_gives_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, {}))
        assert cfg.problem.n_users == 50
        assert cfg.n_byzantine == 10
        assert cfg.rounds == 200

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write(tmp_path, {"n_rounds": 5}))

    def test_unknown_nested_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write(tmp_path, {"attack": {"kind": "gaussian", "stddev": 3}}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write(tmp_path, {"problem": {"users": 5}}))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_half_corruption_rejected(self, tmp_path):
        payload = {"problem": {"n_users": 50}, "n_byzantine": 25}
        with pytest.raises(ConfigError, match="B < M/2"):
            load_config(write(tmp_path, payload))

    def test_half_corruption_with_override(self, tmp_path):
        payload = {"problem": {"n_users": 50}, "n_byzantine": 25, "override_half_plus": True}
        cfg = load_config(write(tmp_path, payload))
        assert cfg.n_byzantine == 25

    def test_fixed_attack_requires_vector(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="fixed")

    def test_attack_validation(self):
        with pytest.raises(ConfigError):
            AttackSpec(sigma=-1.0)
        with pytest.raises(ConfigError):
            AttackSpec(sigma=1.0, mean_mode="typo")
        with pytest.raises(ConfigError):
            AttackSpec(kind="fixed", vector=[1.0, float("inf"), 0.0])
        with pytest.raises(ConfigError):
            AttackSpec(kind="fixed", vector=[float("nan")])
        assert AttackSpec(sigma=0.0, mean_mode="honest_center").sigma == 0.0

    def test_aggregator_validation(self):
        for bad in (
            dict(tol=0.0),
            dict(tol=1e-320),
            dict(max_iters=0),
            dict(trim_fraction=0.5),
            dict(trim_fraction=-0.1),
        ):
            with pytest.raises(ConfigError):
                AggregatorSpec(**bad)
        # tol is the Weiszfeld distance floor, so 1/tol bounds the weights.
        with pytest.raises(ConfigError, match=r"aggregator.tol must be >= 1e-150, got 1e-320"):
            AggregatorSpec(tol=1e-320)
        assert AggregatorSpec(tol=1e-150).tol == 1e-150
        assert AggregatorSpec(kind="trimmed_mean", trim_fraction=0.0, max_iters=1).max_iters == 1
        # geometric_median's stopping defaults; tol is also its distance floor.
        spec = AggregatorSpec()
        assert (spec.tol, spec.max_iters) == (1e-10, 1000)

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(kind="uniform", steps=-1)
        with pytest.raises(ConfigError):
            ScheduleSpec(kind="uniform", eta=0.0)
        with pytest.raises(ConfigError):
            ScheduleSpec(kind="general", steps_cycle=[])
        with pytest.raises(ConfigError):
            ScheduleSpec(kind="warmup")

    def test_type_validation(self):
        # Bools are not counts or numbers; numpy scalars are.
        for bad in (
            lambda: ExperimentConfig(n_byzantine=True),
            lambda: ExperimentConfig(rounds=5.0),
            lambda: ExperimentConfig(override_half_plus=1),
            lambda: SyntheticProblemSpec(p=True),
            lambda: AttackSpec(sigma=False),
            lambda: AttackSpec(kind="fixed", vector=["1"]),
            lambda: AggregatorSpec(max_iters=10.0),
            lambda: ScheduleSpec(kind="uniform", steps=True),
            lambda: ScheduleSpec(kind="linear_decay", eta="0.1"),
            lambda: ScheduleSpec(kind="general", steps_cycle=[2.7]),
            lambda: ScheduleSpec(kind="general", client_etas="typo"),
        ):
            with pytest.raises(ConfigError):
                bad()
        assert ExperimentConfig(rounds=np.int64(3), attack=AttackSpec(sigma=np.float64(2.0))).rounds == 3
        with pytest.raises(ConfigError, match="must be a JSON object"):
            ExperimentConfig.from_dict({"attack": 3})

    def test_csv_problem_kind(self, tmp_path):
        payload = {"problem": {"kind": "csv", "paths": ["a.csv", "b.csv", "c.csv"]}, "n_byzantine": 1}
        cfg = load_config(write(tmp_path, payload))
        assert cfg.problem.n_users == 3


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        cfg = ExperimentConfig(
            problem=SyntheticProblemSpec(p=7, n_users=12, samples_per_user=33, heterogeneity=0.25, loss="logistic", reg=0.4),
            n_byzantine=3,
            attack=AttackSpec(kind="fixed", vector=[1.0] * 7),
            aggregator=AggregatorSpec(kind="trimmed_mean", trim_fraction=0.2),
            schedule=ScheduleSpec(kind="general", client_etas=[0.01] * 12, steps_cycle=[2, 5]),
            rounds=17,
            seed=99,
        )
        path = tmp_path / "cfg.json"
        dump_config(cfg, str(path))
        again = load_config(str(path))
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()
