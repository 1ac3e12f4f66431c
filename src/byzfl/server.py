"""Round orchestration: broadcast, collect uploads, aggregate, record.

``prepare`` turns a configuration into a fully resolved experiment (problem
instance, certified constants, optimum, and the schedule: the config's
``ScheduleSpec`` with every "auto" value replaced, which is also what the
rounds read); ``run_round``/``run_experiment`` execute the protocol and emit
one TraceRecord per round, carrying the measured optimality gap next to the
theory envelopes so runs can be checked against the guarantees.

Clients 0..M-B-1 are honest and M-B..M-1 Byzantine; row m of a round's
upload matrix is client m's upload. A round hands the honest clients' rates
(one each, fixed for the run) and K^t to the honest clients, which run their
local SGD as one batched update, and to the Theorem-2 multiplier.
Byzantine uploads take their noise from one block per round, keyed by
(round), with a fixed row per client id.
"""

import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import theory
from .aggregation import coordinate_median, geometric_median, mean, trimmed_mean
from .clients import Schedule, byzantine_message, honest_local_update
from .config import (
    AggregatorSpec,
    AttackSpec,
    ConfigError,
    CsvProblemSpec,
    ExperimentConfig,
    OracleSpec,
    ScheduleSpec,
)
from .problems import (
    Logistic,
    Problem,
    Ridge,
    SmoothnessConstants,
    constants,
    global_loss,
    make_synthetic,
    optimum,
    problem_from_csv,
    test_accuracy,
)
from .rng import substream

__all__ = [
    "aggregate",
    "TraceRecord",
    "PreparedExperiment",
    "prepare",
    "run_round",
    "run_prepared",
    "run_experiment",
]


def aggregate(spec: AggregatorSpec, uploads: np.ndarray) -> tuple[np.ndarray, int, float, bool]:
    """Combine uploads; returns (value, iterations, residual, converged)."""
    if spec.kind == "geomed":
        res = geometric_median(uploads, spec)
        return res.value, res.iterations, res.residual, res.converged
    if spec.kind == "mean":
        return mean(uploads), 0, 0.0, True
    if spec.kind == "coordinate_median":
        return coordinate_median(uploads), 0, 0.0, True
    return trimmed_mean(uploads, spec.trim_fraction), 0, 0.0, True


@dataclass(frozen=True)
class TraceRecord:
    """Per-round measurements and envelopes.

    ``theorem1_bound`` is None for non-uniform schedules, where the fixed-K
    envelope is undefined. ``assumption_violating`` is true for a minibatch
    oracle and when honest users' data are not bitwise identical, so that no
    shared minimiser is assured. ``wall_time_s`` is measured, hence excluded
    from the serialized form so trace files stay byte-identical across runs.
    """

    t: int
    global_loss: float
    optimality_gap: float
    dist_to_opt_sq: float
    theorem1_bound: float | None
    theorem2_bound: float | None
    agg_iterations: int
    agg_residual: float
    agg_converged: bool
    assumption_violating: bool
    test_accuracy: float | None
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time_s"}


@dataclass(frozen=True)
class PreparedExperiment:
    """Everything needed to run rounds, with all 'auto' values resolved."""

    problem: Problem
    consts: SmoothnessConstants
    w_star: np.ndarray
    f_star: float
    w1: np.ndarray
    schedule: Schedule
    attack: AttackSpec
    aggregator: AggregatorSpec
    oracle: OracleSpec
    rounds: int
    master_seed: int
    resolved: dict
    theory1: theory.TheoryParams | None
    theorem2_multiplier: float | None  # every round's, when it does not depend on the round
    honest_ids: range
    M: int
    B: int
    w1_gap_sq: float
    assumption_violating: bool


def _resolve_schedule(spec: ScheduleSpec, consts, M: int, B: int, master_seed: int) -> ScheduleSpec:
    """Replace 'auto' markers with numbers; the result is the run's schedule spec."""
    delta = consts.delta
    eta_star = consts.mu / (consts.L_const**2 * (1.0 + delta**2))

    if spec.kind == "uniform":
        eta = eta_star if spec.eta == "auto" else float(spec.eta)
        if spec.steps == "auto":
            g = theory.gamma(eta, consts.mu, consts.L_const, delta)
            if not 0.0 < g < 1.0:
                raise ConfigError(
                    f"schedule.steps='auto' needs a contractive rate; eta={eta} gives factor {g}"
                )
            if 2 * B >= M:
                raise ConfigError("schedule.steps='auto' is undefined for B >= M/2")
            steps = theory.min_K(g, B / M)
        else:
            steps = int(spec.steps)
        return ScheduleSpec(kind="uniform", steps=steps, eta=eta)

    if spec.kind == "general":
        if isinstance(spec.client_etas, tuple):
            if len(spec.client_etas) != M:
                raise ConfigError(f"schedule.client_etas has {len(spec.client_etas)} entries, need M={M}")
            etas = tuple(float(v) for v in spec.client_etas)
        else:
            # eta_range holds fractions of eta_max/2, which equals the
            # factor-minimizing rate eta_star.
            lo, hi = spec.eta_range
            draws = substream(master_seed, "etas").uniform(lo, hi, size=M)
            etas = tuple(float(u) * eta_star for u in draws)
        return ScheduleSpec(kind="general", client_etas=etas, eta_range=spec.eta_range, steps_cycle=spec.steps_cycle)

    eta = eta_star if spec.eta == "auto" else float(spec.eta)
    return ScheduleSpec(kind=spec.kind, eta=eta, K1=spec.K1, E=spec.E, steps="auto")


def _identical_users(problem: Problem, n: int) -> bool:
    """Whether users 0..n-1 hold bitwise-identical sample counts, inputs and targets."""
    stacks = (problem.counts, problem.inputs.view(np.int64), problem.targets.view(np.int64))
    return all((a[:n] == a[0]).all() for a in stacks)


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    """Build the problem, certify constants, and resolve every 'auto' field."""
    M = config.problem.n_users
    B = config.n_byzantine

    kind = Ridge(config.problem.reg) if config.problem.loss == "ridge" else Logistic(config.problem.reg)
    if isinstance(config.problem, CsvProblemSpec):
        problem = problem_from_csv(config.problem.paths, kind)
    else:
        problem = make_synthetic(
            p=config.problem.p,
            M=M,
            S_per_user=config.problem.samples_per_user,
            seed=config.seed,
            heterogeneity=config.problem.heterogeneity,
            loss_kind=kind,
        )
    if not np.allclose(problem.user_weights, problem.user_weights[0]):
        warnings.warn(
            "users hold unequal sample counts: the unweighted aggregation fixed point "
            "need not coincide with the weighted optimum",
            RuntimeWarning,
            stacklevel=2,
        )
    if config.oracle.kind == "minibatch" and config.oracle.batch_size > problem.counts.min():
        raise ConfigError(
            f"oracle.batch_size={config.oracle.batch_size} exceeds the smallest user's "
            f"{problem.counts.min()} samples"
        )
    if config.attack.kind == "fixed" and len(config.attack.vector) != problem.dim:
        raise ConfigError(f"attack.vector has dimension {len(config.attack.vector)}, problem has p={problem.dim}")

    consts = constants(problem, config.oracle)
    w_star, f_star = optimum(problem, consts)

    if config.init.kind == "zeros":
        w1 = np.zeros(problem.dim)
    else:
        w1 = config.init.scale * substream(config.seed, "winit").standard_normal(problem.dim)
    w1_gap_sq = float(np.linalg.norm(w1 - w_star) ** 2)

    spec = _resolve_schedule(config.schedule, consts, M, B, config.seed)
    schedule = Schedule(spec, M)

    # Uniform with K >= 1: the fixed-setup envelope, and one Theorem-2 multiplier for all rounds.
    theory1 = multiplier = None
    if spec.kind == "uniform" and spec.steps >= 1 and 2 * B < M:
        multiplier = theory.theorem2_round_multiplier(
            1, schedule.rates[: M - B], spec.steps, consts.mu, consts.L_const, consts.delta, M, B
        )
        theory1 = theory.TheoryParams(
            eta=spec.eta,
            mu=consts.mu,
            L_const=consts.L_const,
            delta=consts.delta,
            M=M,
            B=B,
            K=spec.steps,
            w1_gap_sq=w1_gap_sq,
        )

    return PreparedExperiment(
        problem=problem,
        consts=consts,
        w_star=w_star,
        f_star=f_star,
        w1=w1,
        schedule=schedule,
        attack=config.attack,
        aggregator=config.aggregator,
        oracle=config.oracle,
        rounds=config.rounds,
        master_seed=config.seed,
        resolved=replace(config, schedule=spec).to_dict(),
        theory1=theory1,
        theorem2_multiplier=multiplier,
        honest_ids=range(M - B),
        M=M,
        B=B,
        w1_gap_sq=w1_gap_sq,
        assumption_violating=config.oracle.kind == "minibatch" or not _identical_users(problem, M - B),
    )


def run_round(
    prep: PreparedExperiment, w_t: np.ndarray, t: int, theorem2_cum: float = 1.0
) -> tuple[np.ndarray, float, TraceRecord]:
    """Execute round t from broadcast w_t; returns (w_{t+1}, theorem2_cum, record).

    ``theorem2_cum`` is the product of the general-schedule envelope's round
    multipliers over rounds before t (1.0 before round 1); the returned value
    includes round t's, to be passed to round t + 1.
    """
    start = time.perf_counter()
    H = len(prep.honest_ids)
    rates, K = prep.schedule.rates[:H], prep.schedule.steps(t)
    Z = np.empty((prep.M, w_t.shape[0]))
    Z[:H] = honest_local_update(prep.problem, prep.honest_ids, w_t, t, rates, K, prep.oracle, prep.master_seed)
    if H < prep.M:
        gaussian = prep.attack.kind == "gaussian"
        noise = substream(prep.master_seed, "attack", t).standard_normal(Z.shape)[H:] if gaussian else None
        Z[H:] = byzantine_message(prep.attack, w_t, noise, honest_center=w_t)

    # Drop Byzantine uploads whose squared norm overflows (no distance to them
    # is representable); the rest stay under half corrupted. Honest ones mean
    # the run diverged.
    usable = np.isfinite(np.einsum("ij,ij->i", Z, Z))
    if not usable.all():
        bad = np.flatnonzero(~usable[:H]).tolist()
        if bad:
            raise FloatingPointError(f"round {t}: honest clients {bad} uploaded non-finite vectors")
        Z = Z[usable]

    w_next, agg_iters, agg_residual, agg_converged = aggregate(prep.aggregator, Z)

    # Past half corruption (override mode) the amplification constant has a
    # pole and neither envelope is defined.
    bound2 = None
    if 2 * prep.B < prep.M:
        multiplier = prep.theorem2_multiplier
        if multiplier is None:
            c = prep.consts
            multiplier = theory.theorem2_round_multiplier(t, rates, K, c.mu, c.L_const, c.delta, prep.M, prep.B)
        theorem2_cum *= multiplier
        bound2 = 0.5 * prep.consts.L_const * prep.w1_gap_sq * theorem2_cum
    bound1 = theory.theorem1_bound(t, prep.theory1) if prep.theory1 is not None else None

    loss = global_loss(prep.problem, w_next)
    gap = loss - prep.f_star
    dist_sq = float(np.linalg.norm(w_next - prep.w_star) ** 2)
    acc = None
    if isinstance(prep.problem.loss_kind, Logistic) and prep.problem.test_set is not None:
        acc = test_accuracy(prep.problem, w_next)

    record = TraceRecord(
        t=t,
        global_loss=loss,
        optimality_gap=gap,
        dist_to_opt_sq=dist_sq,
        theorem1_bound=bound1,
        theorem2_bound=bound2,
        agg_iterations=agg_iters,
        agg_residual=agg_residual,
        agg_converged=agg_converged,
        assumption_violating=prep.assumption_violating,
        test_accuracy=acc,
        wall_time_s=time.perf_counter() - start,
    )
    return w_next, theorem2_cum, record


def run_prepared(prep: PreparedExperiment, n_threads: int = 1) -> list[TraceRecord]:
    """Run all configured rounds from w1; one record per round.

    ``n_threads`` is accepted for compatibility and has no effect: honest
    clients already run as one batched update.
    """
    records: list[TraceRecord] = []
    w, cum = prep.w1.copy(), 1.0
    for t in range(1, prep.rounds + 1):
        w, cum, rec = run_round(prep, w, t, cum)
        records.append(rec)
    return records


def run_experiment(config: ExperimentConfig, n_threads: int = 1) -> list[TraceRecord]:
    """Prepare and run a configuration; bitwise deterministic given its seed.

    ``n_threads`` has no effect (see ``run_prepared``).
    """
    return run_prepared(prepare(config), n_threads=n_threads)
