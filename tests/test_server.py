import tracemalloc

import numpy as np
import pytest

from byzfl.config import (
    AggregatorSpec,
    AttackSpec,
    ExperimentConfig,
    InitSpec,
    OracleSpec,
    ScheduleSpec,
    SyntheticProblemSpec,
)
from byzfl import server, theory
from byzfl.problems import global_gradient
from byzfl.rng import substream
from byzfl.server import (
    aggregate,
    prepare,
    run_experiment,
    run_prepared,
    run_round,
)
from byzfl.theory import c_beta


def small_config(**overrides):
    base = dict(
        problem=SyntheticProblemSpec(p=4, n_users=8, samples_per_user=30, heterogeneity=0.0, loss="ridge", reg=0.5),
        n_byzantine=2,
        attack=AttackSpec(kind="gaussian", sigma=10.0),
        aggregator=AggregatorSpec(kind="geomed"),
        schedule=ScheduleSpec(kind="uniform", steps="auto", eta="auto"),
        oracle=OracleSpec(kind="full"),
        rounds=12,
        seed=42,
        init=InitSpec(kind="zeros"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunRound:
    def test_identical_honest_uploads_all_aggregators(self):
        # heterogeneity=0 + full gradients + B=0: all uploads coincide, so
        # every aggregator returns the single-client update exactly.
        for agg_kind in ("geomed", "mean", "coordinate_median", "trimmed_mean"):
            cfg = small_config(n_byzantine=0, aggregator=AggregatorSpec(kind=agg_kind))
            prep = prepare(cfg)
            from byzfl.clients import honest_local_update

            single = honest_local_update(
                prep.problem, [0], prep.w1, 1, prep.schedule.rates[:1], prep.schedule.steps(1), prep.oracle, prep.master_seed
            )[0]
            w_next, _, rec = run_round(prep, prep.w1, 1)
            assert np.array_equal(w_next, single), agg_kind
            assert rec.t == 1

    def test_mean_single_step_is_gradient_descent(self):
        cfg = small_config(
            n_byzantine=0,
            aggregator=AggregatorSpec(kind="mean"),
            schedule=ScheduleSpec(kind="uniform", steps=1, eta=0.1),
        )
        prep = prepare(cfg)
        w_next, _, _ = run_round(prep, prep.w1, 1)
        expected = prep.w1 - 0.1 * global_gradient(prep.problem, prep.w1)
        assert np.allclose(w_next, expected, rtol=0, atol=1e-15)

    def test_huge_fixed_attack_within_ball_bound(self):
        # M=5, B=2, attackers at norm ~1e6: the new iterate stays within
        # C_{0.4} * max honest distance of w*.
        p = 3
        cfg = small_config(
            problem=SyntheticProblemSpec(p=p, n_users=5, samples_per_user=20, heterogeneity=0.0, loss="ridge", reg=0.5),
            n_byzantine=2,
            attack=AttackSpec(kind="fixed", vector=[1e6] * p),
            rounds=1,
        )
        prep = prepare(cfg)
        from byzfl.clients import honest_local_update

        w_t = prep.w1 + 1.0
        rates, K = prep.schedule.rates[: len(prep.honest_ids)], prep.schedule.steps(1)
        uploads = honest_local_update(prep.problem, prep.honest_ids, w_t, 1, rates, K, prep.oracle, prep.master_seed)
        honest_dists = np.linalg.norm(uploads - prep.w_star, axis=1)
        w_next, _, _ = run_round(prep, w_t, 1)
        bound = c_beta(0.4) * max(honest_dists)
        assert np.linalg.norm(w_next - prep.w_star) <= bound + 1e-9

    def test_trace_has_both_bounds_uniform(self):
        prep = prepare(small_config())
        _, _, rec = run_round(prep, prep.w1, 1)
        assert rec.theorem1_bound is not None
        assert rec.theorem2_bound == pytest.approx(rec.theorem1_bound, rel=1e-12)

    def test_cached_uniform_multiplier_equals_per_round_product(self):
        # A uniform schedule's multiplier is computed once by prepare; the
        # bounds equal the product of per-round multipliers bit for bit.
        prep = prepare(small_config(rounds=30))
        assert prep.theorem2_multiplier is not None
        c, H = prep.consts, len(prep.honest_ids)
        cum = 1.0
        for rec in run_prepared(prep):
            rates, K = prep.schedule.rates[:H], prep.schedule.steps(rec.t)
            cum *= theory.theorem2_round_multiplier(rec.t, rates, K, c.mu, c.L_const, c.delta, prep.M, prep.B)
            assert rec.theorem2_bound == 0.5 * c.L_const * prep.w1_gap_sq * cum
        half = small_config(n_byzantine=4, override_half_plus=True, schedule=ScheduleSpec(steps=3))
        assert prepare(half).theorem2_multiplier is None
        general = ScheduleSpec(kind="general", steps_cycle=[2, 4], eta_range=[0.5, 1.0])
        assert prepare(small_config(schedule=general)).theorem2_multiplier is None

    def test_theorem1_none_for_general_schedule(self):
        cfg = small_config(
            schedule=ScheduleSpec(kind="general", steps_cycle=[2, 4], eta_range=[0.5, 1.0])
        )
        prep = prepare(cfg)
        records = run_prepared(prep)
        assert all(r.theorem1_bound is None for r in records)
        assert all(r.theorem2_bound > 0 for r in records)

    def test_round_state_is_explicit(self):
        # A round is a function of (prep, w_t, t, theorem2_cum): rerunning it
        # on one prep, before or after a full run, gives the same record.
        cfg = small_config(schedule=ScheduleSpec(kind="general", steps_cycle=[2, 4], eta_range=[0.5, 1.0]))
        prep = prepare(cfg)
        _, cum1, first = run_round(prep, prep.w1, 1)
        _, cum2, again = run_round(prep, prep.w1, 1)
        records = run_prepared(prep)
        _, cum3, after = run_round(prep, prep.w1, 1)
        assert first.to_json_dict() == again.to_json_dict() == after.to_json_dict()
        assert records[0].to_json_dict() == first.to_json_dict()
        assert cum1 == cum2 == cum3 and first.theorem2_bound > 0
        _, _, second = run_round(prep, prep.w1, 2, cum1)
        assert records[1].theorem2_bound == second.theorem2_bound != first.theorem2_bound


class TestByzantineKeying:
    def test_gaussian_upload_is_its_row_of_the_round_block(self, monkeypatch):
        uploads = []
        real_aggregate = server.aggregate

        def recording_aggregate(agg, Z):
            uploads.append(Z.copy())
            return real_aggregate(agg, Z)

        monkeypatch.setattr(server, "aggregate", recording_aggregate)
        M, p, t = 8, 4, 3
        w = np.arange(p, dtype=np.float64)
        rows = 10.0 * substream(42, "attack", t).standard_normal((M, p))
        for mode, center in (("zero", np.zeros(p)), ("honest_center", w)):
            last_client = []
            for B in (1, 2, 3):
                attack = AttackSpec(kind="gaussian", sigma=10.0, mean_mode=mode)
                run_round(prepare(small_config(n_byzantine=B, attack=attack)), w, t)
                Z = uploads.pop()
                for m in range(M - B, M):
                    assert np.array_equal(Z[m], center + rows[m])
                last_client.append(Z[M - 1])
            # Client M-1 stays Byzantine as B grows, and its upload does not move.
            assert all(np.array_equal(z, last_client[0]) for z in last_client)

    def test_noise_block_drawn_only_for_gaussian(self, monkeypatch):
        purposes = []
        real_substream = server.substream

        def recording_substream(seed, purpose, *indices):
            purposes.append(purpose)
            return real_substream(seed, purpose, *indices)

        monkeypatch.setattr(server, "substream", recording_substream)
        rounds = 3
        for attack in (
            AttackSpec(kind="sign_flip"),
            AttackSpec(kind="zero"),
            AttackSpec(kind="fixed", vector=(1.0, 2.0, 3.0, 4.0)),
            AttackSpec(kind="gaussian"),
        ):
            purposes.clear()
            run_experiment(small_config(attack=attack, rounds=rounds))
            assert purposes.count("attack") == (rounds if attack.kind == "gaussian" else 0), attack.kind


class TestRunExperiment:
    def test_deterministic_trace(self):
        r1 = run_experiment(small_config())
        r2 = run_experiment(small_config())
        assert [r.to_json_dict() for r in r1] == [r.to_json_dict() for r in r2]

    def test_large_K_memory_is_per_client(self):
        # Rates are one per client, so neither the client loop nor the
        # Theorem-2 multiplier holds anything of size K: the default ridge
        # problem at K = 1e5 prepares and runs in a few MB (an (M - B, K)
        # rate array alone is 32 MB here).
        cfg = ExperimentConfig(schedule=ScheduleSpec(kind="uniform", steps=100_000), rounds=3)
        tracemalloc.start()
        try:
            prep = prepare(cfg)
            records = run_prepared(prep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert prep.theorem2_multiplier is not None and len(records) == 3
        assert all(np.isfinite(r.optimality_gap) and r.theorem2_bound is not None for r in records)

    def test_trace_length_and_fields(self):
        records = run_experiment(small_config(rounds=5))
        assert len(records) == 5
        assert [r.t for r in records] == [1, 2, 3, 4, 5]
        d = records[0].to_json_dict()
        assert "wall_time_s" not in d
        assert records[0].wall_time_s > 0
        assert d["test_accuracy"] is None  # ridge problem

    def test_envelope_in_contractive_regime(self):
        records = run_experiment(small_config(rounds=30))
        for rec in records:
            assert rec.optimality_gap <= rec.theorem1_bound + 1e-9
            assert rec.optimality_gap >= -1e-9

    def test_robustness_contrast_small(self):
        base = dict(rounds=40, n_byzantine=3)
        geo = run_experiment(
            small_config(
                aggregator=AggregatorSpec(kind="geomed"),
                attack=AttackSpec(kind="gaussian", sigma=100.0),
                **base,
            )
        )
        avg = run_experiment(
            small_config(
                aggregator=AggregatorSpec(kind="mean"),
                attack=AttackSpec(kind="gaussian", sigma=100.0),
                **base,
            )
        )
        assert geo[-1].optimality_gap <= 1e-8
        assert avg[-1].optimality_gap > geo[-1].optimality_gap * 1e6

    def test_parallel_serial_equivalence(self):
        serial = run_experiment(small_config(rounds=6), n_threads=1)
        threaded = run_experiment(small_config(rounds=6), n_threads=4)
        assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in threaded]

    def test_minibatch_flagged(self):
        cfg = small_config(
            oracle=OracleSpec(kind="minibatch", batch_size=10),
            schedule=ScheduleSpec(kind="uniform", steps=2, eta=0.05),
            rounds=3,
        )
        records = run_experiment(cfg)
        assert all(r.assumption_violating for r in records)

    @pytest.mark.parametrize("heterogeneity, violating", [(0.0, False), (0.3, True)])
    def test_heterogeneous_users_flagged(self, heterogeneity, violating):
        problem = SyntheticProblemSpec(p=4, n_users=8, samples_per_user=30, heterogeneity=heterogeneity, loss="ridge")
        records = run_experiment(small_config(problem=problem, rounds=2))
        assert [r.assumption_violating for r in records] == [violating] * 2

    @pytest.mark.parametrize("same, violating", [(True, False), (False, True)])
    def test_csv_users_flagged_unless_identical(self, tmp_path, same, violating):
        from byzfl.config import CsvProblemSpec

        rng = np.random.default_rng(3)
        tables = [rng.standard_normal((10, 4))]
        tables.append(tables[0] if same else rng.standard_normal((10, 4)))
        paths = [str(tmp_path / f"u{m}.csv") for m in range(2)]
        for path, table in zip(paths, tables):
            np.savetxt(path, table, delimiter=",")
        cfg = small_config(problem=CsvProblemSpec(paths=tuple(paths)), n_byzantine=0, rounds=2)
        records = run_experiment(cfg)
        assert [r.assumption_violating for r in records] == [violating] * 2

    def test_logistic_reports_accuracy(self):
        cfg = small_config(
            problem=SyntheticProblemSpec(p=3, n_users=4, samples_per_user=60, heterogeneity=0.0, loss="logistic", reg=0.3),
            n_byzantine=1,
            rounds=8,
        )
        records = run_experiment(cfg)
        assert records[-1].test_accuracy is not None
        assert 0.5 <= records[-1].test_accuracy <= 1.0

    def test_half_plus_rejected_without_override(self):
        from byzfl.config import ConfigError

        with pytest.raises(ConfigError, match="B < M/2"):
            small_config(n_byzantine=4)

    def test_half_plus_override_runs(self):
        cfg = small_config(
            n_byzantine=4,
            override_half_plus=True,
            rounds=2,
            schedule=ScheduleSpec(kind="uniform", steps=2, eta=0.05),
        )
        records = run_experiment(cfg)
        assert len(records) == 2
        assert all(r.theorem1_bound is None and r.theorem2_bound is None for r in records)


class TestAggregateDispatch:
    def test_geomed_diagnostics(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((9, 3))
        value, iters, residual, converged = aggregate(AggregatorSpec(kind="geomed"), pts)
        assert converged and iters >= 1 and residual <= 1e-10

    def test_baselines_trivially_converged(self):
        pts = np.arange(12.0).reshape(4, 3)
        for agg in (
            AggregatorSpec(kind="mean"),
            AggregatorSpec(kind="coordinate_median"),
            AggregatorSpec(kind="trimmed_mean", trim_fraction=0.25),
        ):
            value, iters, residual, converged = aggregate(agg, pts)
            assert converged and iters == 0 and residual == 0.0
            assert value.shape == (3,)


class TestResolution:
    def test_auto_eta_is_gamma_minimizer(self):
        prep = prepare(small_config())
        c = prep.consts
        expected = c.mu / (c.L_const**2 * (1 + c.delta**2))
        assert prep.schedule.spec.eta == pytest.approx(expected, rel=1e-12)

    def test_auto_steps_is_min_K(self):
        from byzfl.theory import gamma, min_K

        prep = prepare(small_config())
        c = prep.consts
        g = gamma(prep.schedule.spec.eta, c.mu, c.L_const, c.delta)
        assert prep.schedule.spec.steps == min_K(g, prep.B / prep.M)

    def test_resolved_config_roundtrip(self):
        prep = prepare(small_config())
        rebuilt = ExperimentConfig.from_dict(prep.resolved)
        assert rebuilt.to_dict() == prep.resolved
        # Resolution is idempotent: preparing the resolved config leaves it fixed.
        prep2 = prepare(rebuilt)
        assert prep2.resolved == prep.resolved

    @pytest.mark.parametrize(
        "schedule",
        [
            ScheduleSpec(kind="uniform", steps="auto", eta="auto"),
            ScheduleSpec(kind="uniform", steps=0, eta=0.05),
            ScheduleSpec(kind="general", steps_cycle=[2, 0, 3]),
            ScheduleSpec(kind="general", client_etas=[0.01 * (m + 1) for m in range(8)], steps_cycle=[1, 2]),
            ScheduleSpec(kind="floor_decay", K1=3, E=2),
            ScheduleSpec(kind="linear_decay", K1=3, E=5, eta=0.05),
        ],
        ids=["uniform-auto", "uniform-K0", "general-auto", "general-explicit", "floor_decay", "linear_decay"],
    )
    def test_resolved_config_prepares_equal_schedule(self, schedule):
        # The run's schedule is its resolved spec, so preparing the resolved
        # config gives a schedule that compares equal.
        prep = prepare(small_config(schedule=schedule))
        again = prepare(ExperimentConfig.from_dict(prep.resolved))
        assert again.schedule == prep.schedule
        assert again.schedule.spec == ScheduleSpec.from_dict(prep.resolved["schedule"])

    def test_decay_schedules_resolve_and_run(self):
        for kind, expected_steps in (("floor_decay", [3, 0, 0, 0]), ("linear_decay", [2, 1, 1, 1])):
            cfg = small_config(
                schedule=ScheduleSpec(kind=kind, K1=3, E=2, eta=0.05),
                rounds=4,
            )
            prep = prepare(cfg)
            assert [prep.schedule.steps(t) for t in (1, 2, 3, 4)] == expected_steps, kind
            records = run_prepared(prep)
            assert len(records) == 4
            assert all(r.theorem1_bound is None for r in records)

    def test_csv_problem_via_prepare(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for m in range(4):
            s = 6 if m else 12  # unequal sizes trigger the weighting warning
            table = np.column_stack([rng.standard_normal((s, 2)), rng.standard_normal(s)])
            p = tmp_path / f"u{m}.csv"
            np.savetxt(p, table, delimiter=",")
            paths.append(str(p))
        from byzfl.config import CsvProblemSpec

        cfg = small_config(
            problem=CsvProblemSpec(paths=tuple(paths), loss="ridge", reg=0.4),
            n_byzantine=1,
            rounds=3,
            schedule=ScheduleSpec(kind="uniform", steps=2, eta=0.05),
        )
        with pytest.warns(RuntimeWarning, match="unequal sample counts"):
            prep = prepare(cfg)
        records = run_prepared(prep)
        assert len(records) == 3

    def test_general_schedule_resolution_freezes_etas(self):
        cfg = small_config(schedule=ScheduleSpec(kind="general", steps_cycle=[4, 8]))
        prep = prepare(cfg)
        etas = prep.resolved["schedule"]["client_etas"]
        assert len(etas) == 8
        c = prep.consts
        eta_star = c.mu / (c.L_const**2 * (1 + c.delta**2))
        for eta in etas:
            assert 0.5 * eta_star <= eta <= 1.0 * eta_star
        assert prep.schedule.steps(1) == 4 and prep.schedule.steps(2) == 8 and prep.schedule.steps(3) == 4
