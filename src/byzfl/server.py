"""Round orchestration: broadcast, collect uploads, aggregate, record.

``prepare`` turns a configuration into a fully resolved experiment (problem
instance, certified constants, optimum, schedule with all "auto" values
replaced); ``run_round``/``run_experiment`` execute the protocol and emit
one TraceRecord per round, carrying the measured optimality gap next to the
theory envelopes so runs can be checked against the guarantees.

Client evaluations inside a round are pure functions of the broadcast and
keyed random streams, so they may run threaded; uploads are always
assembled in client-id order, which makes traces independent of both
evaluation order and the order client specs are listed in.
"""

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import theory
from .aggregation import (
    WeiszfeldConfig,
    coordinate_median,
    geometric_median,
    mean,
    trimmed_mean,
)
from .clients import (
    AttackKind,
    ClientSpec,
    FixedVector,
    GaussianNoise,
    Schedule,
    SignFlip,
    ZeroVector,
    byzantine_message,
    floor_decay_steps,
    honest_local_update,
    linear_decay_steps,
)
from .config import ConfigError, CsvProblemSpec, ExperimentConfig, ScheduleSpec
from .problems import (
    FullGradient,
    GradOracleMode,
    Logistic,
    Minibatch,
    Problem,
    RelativeNoise,
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
    "GeometricMedianAgg",
    "MeanAgg",
    "CoordinateMedianAgg",
    "TrimmedMeanAgg",
    "Aggregator",
    "aggregate",
    "TraceRecord",
    "PreparedExperiment",
    "prepare",
    "run_round",
    "run_prepared",
    "run_experiment",
]


@dataclass(frozen=True)
class GeometricMedianAgg:
    cfg: WeiszfeldConfig = field(default_factory=WeiszfeldConfig)


@dataclass(frozen=True)
class MeanAgg:
    pass


@dataclass(frozen=True)
class CoordinateMedianAgg:
    pass


@dataclass(frozen=True)
class TrimmedMeanAgg:
    trim_fraction: float = 0.1


Aggregator = GeometricMedianAgg | MeanAgg | CoordinateMedianAgg | TrimmedMeanAgg


def aggregate(agg: Aggregator, uploads: np.ndarray) -> tuple[np.ndarray, int, float, bool]:
    """Combine uploads; returns (value, iterations, residual, converged)."""
    if isinstance(agg, GeometricMedianAgg):
        res = geometric_median(uploads, agg.cfg)
        return res.value, res.iterations, res.residual, res.converged
    if isinstance(agg, MeanAgg):
        return mean(uploads), 0, 0.0, True
    if isinstance(agg, CoordinateMedianAgg):
        return coordinate_median(uploads), 0, 0.0, True
    return trimmed_mean(uploads, agg.trim_fraction), 0, 0.0, True


@dataclass(frozen=True)
class TraceRecord:
    """Per-round measurements and envelopes.

    ``theorem1_bound`` is None for non-uniform schedules, where the fixed-K
    envelope is undefined. ``wall_time_s`` is measured, hence excluded from
    the serialized form so trace files stay byte-identical across runs.
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


@dataclass
class PreparedExperiment:
    """Everything needed to run rounds, with all 'auto' values resolved."""

    problem: Problem
    consts: SmoothnessConstants
    w_star: np.ndarray
    f_star: float
    w1: np.ndarray
    schedule: Schedule
    client_specs: tuple[ClientSpec, ...]
    aggregator: Aggregator
    oracle_mode: GradOracleMode
    rounds: int
    master_seed: int
    resolved: dict
    theory1: theory.TheoryParams | None
    honest_ids: tuple[int, ...]
    M: int
    B: int
    w1_gap_sq: float
    assumption_violating: bool
    theorem2_cum: float = 1.0


def _build_attack(spec, p: int) -> AttackKind:
    if spec.kind == "gaussian":
        return GaussianNoise(sigma=spec.sigma, mean_mode=spec.mean_mode)
    if spec.kind == "sign_flip":
        return SignFlip(scale=spec.scale)
    if spec.kind == "zero":
        return ZeroVector()
    v = np.asarray(spec.vector, dtype=np.float64)
    if v.shape != (p,):
        raise ConfigError(f"attack.vector has dimension {v.shape[0]}, problem has p={p}")
    return FixedVector(v=v)


def _build_aggregator(spec) -> Aggregator:
    if spec.kind == "geomed":
        return GeometricMedianAgg(
            cfg=WeiszfeldConfig(tol=spec.tol, max_iters=spec.max_iters, smoothing=spec.smoothing)
        )
    if spec.kind == "mean":
        return MeanAgg()
    if spec.kind == "coordinate_median":
        return CoordinateMedianAgg()
    return TrimmedMeanAgg(trim_fraction=spec.trim_fraction)


def _build_oracle(spec) -> GradOracleMode:
    if spec.kind == "full":
        return FullGradient()
    if spec.kind == "minibatch":
        return Minibatch(batch_size=spec.batch_size)
    return RelativeNoise(delta=spec.delta)


def _resolve_schedule(
    spec: ScheduleSpec, consts, M: int, B: int, master_seed: int
) -> tuple[Schedule, ScheduleSpec]:
    """Replace 'auto' markers with numbers and build the callable schedule."""
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
        resolved = ScheduleSpec(kind="uniform", steps=steps, eta=eta)
        if steps == 0:
            # Degenerate no-update schedule; keep it runnable but non-uniform
            # for bound purposes (K >= 1 is required by the envelope).
            sched = Schedule(steps=lambda t: 0, rate=lambda t, m, k: eta)
        else:
            sched = Schedule.uniform(steps, eta)
        return sched, resolved

    if spec.kind == "general":
        if isinstance(spec.client_etas, tuple):
            if len(spec.client_etas) != M:
                raise ConfigError(
                    f"schedule.client_etas has {len(spec.client_etas)} entries, need M={M}"
                )
            etas = tuple(float(v) for v in spec.client_etas)
        else:
            # eta_range holds fractions of eta_max/2, which equals the
            # factor-minimizing rate eta_star.
            lo, hi = spec.eta_range
            draws = substream(master_seed, "etas").uniform(lo, hi, size=M)
            etas = tuple(float(u) * eta_star for u in draws)
        cycle = spec.steps_cycle
        resolved = ScheduleSpec(
            kind="general", client_etas=etas, eta_range=spec.eta_range, steps_cycle=cycle
        )
        sched = Schedule(
            steps=lambda t: cycle[(t - 1) % len(cycle)],
            rate=lambda t, m, k: etas[m],
        )
        return sched, resolved

    eta = eta_star if spec.eta == "auto" else float(spec.eta)
    if eta <= 0:
        raise ConfigError(f"schedule.eta must be positive, got {eta}")
    decay = floor_decay_steps if spec.kind == "floor_decay" else linear_decay_steps
    steps_fn = decay(spec.K1, spec.E)
    resolved = ScheduleSpec(kind=spec.kind, eta=eta, K1=spec.K1, E=spec.E, steps="auto")
    sched = Schedule(steps=steps_fn, rate=lambda t, m, k: eta)
    return sched, resolved


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    """Build the problem, certify constants, and resolve every 'auto' field."""
    M = config.problem.n_users
    B = config.n_byzantine
    if 2 * B >= M and not config.override_half_plus:
        raise ConfigError(
            f"configuration violates B < M/2 (B={B}, M={M}); "
            "set override_half_plus to run anyway (robustness guarantees void)"
        )

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

    oracle_mode = _build_oracle(config.oracle)
    consts = constants(problem, oracle_mode)
    w_star, f_star = optimum(problem)

    if config.init.kind == "zeros":
        w1 = np.zeros(problem.dim)
    else:
        w1 = config.init.scale * substream(config.seed, "winit").standard_normal(problem.dim)
    w1_gap_sq = float(np.linalg.norm(w1 - w_star) ** 2)

    schedule, resolved_schedule = _resolve_schedule(config.schedule, consts, M, B, config.seed)

    attack = _build_attack(config.attack, problem.dim)
    byz_ids = set(range(M - B, M))
    client_specs = tuple(
        ClientSpec(m=m, attack=attack if m in byz_ids else None) for m in range(M)
    )
    honest_ids = tuple(m for m in range(M) if m not in byz_ids)

    theory1 = None
    if schedule.is_uniform and schedule.uniform_K >= 1 and 2 * B < M:
        theory1 = theory.TheoryParams(
            eta=schedule.uniform_eta,
            mu=consts.mu,
            L_const=consts.L_const,
            delta=consts.delta,
            M=M,
            B=B,
            K=schedule.uniform_K,
            w1_gap_sq=w1_gap_sq,
        )

    resolved_config = ExperimentConfig(
        problem=config.problem,
        n_byzantine=B,
        attack=config.attack,
        aggregator=config.aggregator,
        schedule=resolved_schedule,
        oracle=config.oracle,
        rounds=config.rounds,
        seed=config.seed,
        init=config.init,
        override_half_plus=config.override_half_plus,
    )

    return PreparedExperiment(
        problem=problem,
        consts=consts,
        w_star=w_star,
        f_star=f_star,
        w1=w1,
        schedule=schedule,
        client_specs=client_specs,
        aggregator=_build_aggregator(config.aggregator),
        oracle_mode=oracle_mode,
        rounds=config.rounds,
        master_seed=config.seed,
        resolved=resolved_config.to_dict(),
        theory1=theory1,
        honest_ids=honest_ids,
        M=M,
        B=B,
        w1_gap_sq=w1_gap_sq,
        assumption_violating=isinstance(oracle_mode, Minibatch),
    )


def _client_upload(prep: PreparedExperiment, spec: ClientSpec, w_t: np.ndarray, t: int) -> np.ndarray:
    if spec.honest:
        return honest_local_update(
            prep.problem, spec.m, w_t, t, prep.schedule, prep.oracle_mode, prep.master_seed
        )
    return byzantine_message(
        spec.attack, w_t, substream(prep.master_seed, "attack", t, spec.m), honest_center=w_t
    )


def run_round(
    prep: PreparedExperiment,
    w_t: np.ndarray,
    t: int,
    executor: ThreadPoolExecutor | None = None,
) -> tuple[np.ndarray, TraceRecord]:
    """Execute round t from broadcast w_t; returns (w_{t+1}, record).

    Advances the cumulative general-schedule envelope held by ``prep``, so
    rounds must be executed in order (client evaluation inside the round is
    order-free).
    """
    start = time.perf_counter()
    specs = sorted(prep.client_specs, key=lambda s: s.m)
    if executor is not None:
        uploads = list(executor.map(lambda s: _client_upload(prep, s, w_t, t), specs))
    else:
        uploads = [_client_upload(prep, s, w_t, t) for s in specs]
    Z = np.stack(uploads)

    # Drop Byzantine uploads whose squared norm overflows (no distance to them
    # is representable); the rest stay under half corrupted. Honest ones mean
    # the run diverged.
    usable = np.isfinite(np.einsum("ij,ij->i", Z, Z))
    if not usable.all():
        bad = [s.m for s, ok in zip(specs, usable) if s.honest and not ok]
        if bad:
            raise FloatingPointError(f"round {t}: honest clients {bad} uploaded non-finite vectors")
        Z = Z[usable]

    w_next, agg_iters, agg_residual, agg_converged = aggregate(prep.aggregator, Z)

    # Past half corruption (override mode) the amplification constant has a
    # pole and neither envelope is defined.
    bound2 = None
    if 2 * prep.B < prep.M:
        prep.theorem2_cum *= theory.theorem2_round_multiplier(
            t,
            prep.schedule.rate,
            prep.schedule.steps,
            prep.honest_ids,
            prep.consts.mu,
            prep.consts.L_const,
            prep.consts.delta,
            prep.M,
            prep.B,
        )
        bound2 = 0.5 * prep.consts.L_const * prep.w1_gap_sq * prep.theorem2_cum
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
    return w_next, record


def run_prepared(prep: PreparedExperiment, n_threads: int = 1) -> list[TraceRecord]:
    """Run all configured rounds from w1; one record per round."""
    prep.theorem2_cum = 1.0
    records: list[TraceRecord] = []
    w = prep.w1.copy()
    executor = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None
    try:
        for t in range(1, prep.rounds + 1):
            w, rec = run_round(prep, w, t, executor=executor)
            records.append(rec)
    finally:
        if executor is not None:
            executor.shutdown()
    return records


def run_experiment(config: ExperimentConfig, n_threads: int = 1) -> list[TraceRecord]:
    """Prepare and run a configuration; bitwise deterministic given its seed."""
    return run_prepared(prepare(config), n_threads=n_threads)
