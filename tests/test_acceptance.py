"""Acceptance suite: one test per criterion, at the stated tolerances.

Running ``pytest -v tests/test_acceptance.py`` yields one pass/fail line per
criterion; each test additionally prints a [PASS] summary (visible with -s).
Timed criteria assert their wall-clock budgets.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from byzfl.cli import main as cli_main
from byzfl.config import (
    AggregatorSpec,
    AttackSpec,
    ExperimentConfig,
    InitSpec,
    OracleSpec,
    ScheduleSpec,
    SyntheticProblemSpec,
)
from byzfl.problems import Logistic, Ridge, global_gradient, global_loss, make_synthetic
from byzfl.server import prepare, run_experiment, run_prepared
from byzfl.theory import c_beta, min_K
from byzfl.verify import ball_robustness_cases, equivariance_cases, median_reduction_cases

SEED = 2024


def base_config(**overrides) -> ExperimentConfig:
    """The theorem-faithful reference setup: ridge, p=10, M=50, beta=0.2."""
    base = dict(
        problem=SyntheticProblemSpec(
            p=10, n_users=50, samples_per_user=200, heterogeneity=0.0, loss="ridge", reg=0.5
        ),
        n_byzantine=10,
        attack=AttackSpec(kind="gaussian", sigma=10.0),
        aggregator=AggregatorSpec(kind="geomed"),
        schedule=ScheduleSpec(kind="uniform", steps="auto", eta="auto"),
        oracle=OracleSpec(kind="full"),
        rounds=200,
        seed=SEED,
        init=InitSpec(kind="zeros"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def finite_diff_gradient(f, w, h=1e-6):
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2 * h)
    return g


def test_criterion_01_theorem1_deterministic_envelope():
    start = time.monotonic()
    prep = prepare(base_config())
    assert prep.schedule.spec.steps == min_K(prep.theory1.gamma, 0.2)
    records = run_prepared(prep)
    for rec in records:
        assert rec.optimality_gap <= rec.theorem1_bound + 1e-9, (rec.t, rec.optimality_gap, rec.theorem1_bound)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 1: gap under the fixed-schedule envelope at all 200 rounds "
        f"(K={prep.schedule.spec.steps}, {elapsed:.1f}s)"
    )


def test_criterion_02_zero_gap_within_predicted_rounds():
    start = time.monotonic()
    reached = {}
    for beta in (0.0, 0.2, 0.4):
        B = round(beta * 50)
        prep = prepare(base_config(n_byzantine=B, rounds=1))
        factor = prep.theory1.contraction_factor
        bound0 = 0.5 * prep.consts.L_const * prep.w1_gap_sq
        assert 0.0 < factor < 1.0
        n_rounds = math.ceil((math.log(1e-10) - math.log(bound0)) / math.log(factor))
        records = run_experiment(base_config(n_byzantine=B, rounds=n_rounds))
        assert records[-1].optimality_gap <= 1e-10, (beta, records[-1].optimality_gap)
        reached[beta] = n_rounds
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 2: gap <= 1e-10 within predicted rounds {reached} ({elapsed:.1f}s)")


def test_criterion_03_theorem2_envelope_and_reduction():
    cfg = base_config(
        schedule=ScheduleSpec(kind="general", eta_range=[0.5, 1.0], steps_cycle=[4, 8]),
        rounds=200,
    )
    records = run_experiment(cfg)
    for rec in records:
        assert rec.theorem1_bound is None
        assert rec.optimality_gap <= rec.theorem2_bound + 1e-9, (rec.t, rec.optimality_gap, rec.theorem2_bound)

    # Uniform-schedule reduction: the general-schedule envelope equals the
    # fixed-schedule one to 1e-12 relative error for t <= 100.
    uniform = run_experiment(base_config(rounds=100))
    for rec in uniform:
        assert rec.theorem2_bound == pytest.approx(rec.theorem1_bound, rel=1e-12)
    print("\n[PASS] criterion 3: general-schedule envelope holds; uniform reduction matches to 1e-12")


def test_criterion_04_stochastic_expectation_envelope():
    start = time.monotonic()
    checkpoints = (1, 5, 10, 25, 50)
    cfg0 = base_config(oracle=OracleSpec(kind="relative_noise", delta=0.5), rounds=50)
    prep0 = prepare(cfg0)
    bounds = {t: 0.5 * prep0.consts.L_const * prep0.w1_gap_sq * prep0.theory1.contraction_factor**t for t in checkpoints}
    assert bounds[50] <= 1e-3, f"bound at t=50 is {bounds[50]:.3e}"

    gaps = np.zeros((30, len(checkpoints)))
    for i in range(30):
        records = run_experiment(dataclasses.replace(cfg0, seed=SEED + 1000 + i))
        by_t = {rec.t: rec.optimality_gap for rec in records}
        gaps[i] = [by_t[t] for t in checkpoints]
    mean_gaps = gaps.mean(axis=0)
    for j, t in enumerate(checkpoints):
        assert mean_gaps[j] <= bounds[t], (t, mean_gaps[j], bounds[t])
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 4: 30-seed mean gap under the envelope at t={checkpoints}, "
        f"bound(50)={bounds[50]:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_05_geomed_property_suite():
    failures = ball_robustness_cases(n_cases=10_000, seed=SEED)
    assert failures == [], failures[:5]
    assert median_reduction_cases(1000, SEED + 1) == []
    assert equivariance_cases(1000, SEED + 2) == []
    print("\n[PASS] criterion 5: 10000 ball-robustness, 1000 median-reduction, 1000 equivariance cases")


def test_criterion_06_min_K_correctness():
    assert min_K(0.5, 0.0) == 3
    assert min_K(0.9, 0.2) == 19
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        g = float(rng.uniform(0.02, 0.999))
        b = float(rng.uniform(0.0, 0.49))
        cb2 = c_beta(b) ** 2
        scan = next(k for k in range(1, 10_001) if g**k * cb2 < 1.0)
        assert min_K(g, b) == scan, (g, b)
    print("\n[PASS] criterion 6: min-K matches exhaustive scan on 1000 pairs plus both hand cases")


def test_criterion_07_robustness_contrast():
    attack = AttackSpec(kind="gaussian", sigma=1000.0)
    geo = run_experiment(base_config(n_byzantine=20, attack=attack))
    avg = run_experiment(
        base_config(n_byzantine=20, attack=attack, aggregator=AggregatorSpec(kind="mean"))
    )
    assert geo[-1].optimality_gap <= 1e-6, geo[-1].optimality_gap
    assert avg[-1].optimality_gap > 1e2, avg[-1].optimality_gap

    clean = {}
    for kind in ("geomed", "mean", "coordinate_median", "trimmed_mean"):
        records = run_experiment(
            base_config(n_byzantine=0, aggregator=AggregatorSpec(kind=kind))
        )
        clean[kind] = records[-1].optimality_gap
        assert clean[kind] <= 1e-6, (kind, clean[kind])
    print(
        f"\n[PASS] criterion 7: beta=0.4 geomed gap {geo[-1].optimality_gap:.1e} vs "
        f"mean gap {avg[-1].optimality_gap:.1e}; all aggregators converge at beta=0"
    )


def test_criterion_08_k_sweep_monotonicity():
    target = 1e-6
    rounds_needed = []
    for K in (1, 3, 6, 8):
        cfg = base_config(schedule=ScheduleSpec(kind="uniform", steps=K, eta="auto"))
        records = run_experiment(cfg)
        hit = next((rec.t for rec in records if rec.optimality_gap <= target), None)
        assert hit is not None, f"K={K} never reached gap {target}"
        rounds_needed.append(hit)
    assert all(a >= b for a, b in zip(rounds_needed, rounds_needed[1:])), rounds_needed
    print(f"\n[PASS] criterion 8: rounds to gap<=1e-6 non-increasing over K in (1,3,6,8): {rounds_needed}")


def test_criterion_09_determinism(tmp_path):
    cfg = base_config(rounds=25)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(__import__("json").dumps(cfg.to_dict()))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
    for name in ("trace.jsonl", "summary.csv", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    serial = run_experiment(cfg, n_threads=1)
    threaded = run_experiment(cfg, n_threads=4)
    assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in threaded]
    print("\n[PASS] criterion 9: byte-identical trace files; serial and threaded runs agree")


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(SEED)
    for kind in (Ridge(lam=0.4), Logistic(lam=0.4)):
        prob = make_synthetic(p=6, M=4, S_per_user=30, seed=SEED, heterogeneity=0.6, loss_kind=kind)
        for _ in range(100):
            w = rng.standard_normal(6) * 2
            fd = finite_diff_gradient(lambda v: global_loss(prob, v), w)
            g = global_gradient(prob, w)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd)), kind
    print("\n[PASS] criterion 10: analytic gradients match central differences on 100 points per loss kind")
