"""Experiment configuration: JSON schema, strict parsing, serialization.

The on-disk format is a JSON object mirroring ExperimentConfig. Unknown
keys are hard errors at every nesting level, so typos never turn into
silent defaults. Fields accepting "auto" (uniform-schedule eta and steps,
per-client rate draws) are replaced by concrete numbers when an experiment
is prepared; the resolved config round-trips losslessly.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = [
    "ConfigError",
    "SyntheticProblemSpec",
    "CsvProblemSpec",
    "AttackSpec",
    "AggregatorSpec",
    "ScheduleSpec",
    "OracleSpec",
    "InitSpec",
    "ExperimentConfig",
    "load_config",
    "dump_config",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _require_keys(d: dict, where: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    keys = set(d)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


_KIND_NAMES = {int: "integer", float: "finite number", str: "string", bool: "boolean"}


def _is(value, kind) -> bool:
    """int: a count; float: a finite real number (bools are neither); [kind]: a list of them."""
    if isinstance(kind, list):
        return isinstance(value, (list, tuple)) and all(_is(v, kind[0]) for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        return False
    return kind is not numbers.Real or isinstance(value, numbers.Integral) or math.isfinite(value)


def _check_types(spec, where: str, **kinds) -> None:
    """Reject a field whose value is not of its kind (see ``_is``), before any comparison reads it."""
    for name, kind in kinds.items():
        if not _is(getattr(spec, name), kind):
            expected = f"list of {_KIND_NAMES[kind[0]]}s" if isinstance(kind, list) else _KIND_NAMES[kind]
            raise ConfigError(f"{where}{name} must be of type {expected}, got {getattr(spec, name)!r}")


def _check_reg(spec) -> None:
    """Ridge takes reg >= 0; logistic needs reg > 0, as its unpenalized loss is not strongly convex."""
    if spec.reg < 0 or (spec.loss == "logistic" and spec.reg == 0):
        raise ConfigError(f"problem.reg must be >= 0 for ridge and > 0 for logistic loss, got {spec.reg}")


@dataclass(frozen=True)
class SyntheticProblemSpec:
    kind: str = "synthetic"
    p: int = 10
    n_users: int = 50
    samples_per_user: int = 200
    heterogeneity: float = 0.0
    loss: str = "ridge"
    reg: float = 0.5

    def __post_init__(self) -> None:
        _check_types(
            self, "problem.", p=int, n_users=int, samples_per_user=int, heterogeneity=float, reg=float
        )
        if self.loss not in ("ridge", "logistic"):
            raise ConfigError(f"problem.loss must be 'ridge' or 'logistic', got {self.loss!r}")
        if self.p < 1 or self.n_users < 1 or self.samples_per_user < 1:
            raise ConfigError("problem.p, n_users, samples_per_user must be >= 1")
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ConfigError(f"problem.heterogeneity must lie in [0, 1], got {self.heterogeneity}")
        _check_reg(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticProblemSpec":
        _require_keys(
            d,
            "problem",
            set(),
            {"kind", "p", "n_users", "samples_per_user", "heterogeneity", "loss", "reg"},
        )
        return cls(**d)


@dataclass(frozen=True)
class CsvProblemSpec:
    paths: tuple[str, ...]
    kind: str = "csv"
    loss: str = "ridge"
    reg: float = 0.5

    def __post_init__(self) -> None:
        _check_types(self, "problem.", paths=[str], reg=float)
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise ConfigError("problem.paths must name at least one CSV file")
        if self.loss not in ("ridge", "logistic"):
            raise ConfigError(f"problem.loss must be 'ridge' or 'logistic', got {self.loss!r}")
        _check_reg(self)

    @property
    def n_users(self) -> int:
        return len(self.paths)

    @classmethod
    def from_dict(cls, d: dict) -> "CsvProblemSpec":
        _require_keys(d, "problem", {"paths"}, {"kind", "loss", "reg"})
        return cls(**d)


def _problem_from_dict(d: dict) -> "SyntheticProblemSpec | CsvProblemSpec":
    kind = d.get("kind", "synthetic") if isinstance(d, dict) else "synthetic"
    if kind == "synthetic":
        return SyntheticProblemSpec.from_dict(d)
    if kind == "csv":
        return CsvProblemSpec.from_dict(d)
    raise ConfigError(f"problem.kind must be 'synthetic' or 'csv', got {kind!r}")


@dataclass(frozen=True)
class AttackSpec:
    """What every Byzantine client uploads each round.

    gaussian:  mean + sigma * standard normal per coordinate; mean_mode
               'zero' centers at the origin, 'honest_center' at the
               attacker's estimate of the honest update (the broadcast).
    sign_flip: -scale * broadcast.
    zero:      the all-zeros vector.
    fixed:     the constant ``vector`` (length p, checked by prepare).
    """

    kind: str = "gaussian"
    sigma: float = 10.0
    mean_mode: str = "zero"
    scale: float = 1.0
    vector: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "sign_flip", "zero", "fixed"):
            raise ConfigError(f"attack.kind must be gaussian|sign_flip|zero|fixed, got {self.kind!r}")
        _check_types(self, "attack.", sigma=float, scale=float)
        if self.sigma < 0:
            raise ConfigError(f"attack.sigma must be nonnegative, got {self.sigma}")
        if self.mean_mode not in ("zero", "honest_center"):
            raise ConfigError(f"attack.mean_mode must be 'zero' or 'honest_center', got {self.mean_mode!r}")
        if self.kind == "fixed" and self.vector is None:
            raise ConfigError("attack.kind 'fixed' requires attack.vector")
        if self.vector is not None:
            _check_types(self, "attack.", vector=[float])
            object.__setattr__(self, "vector", tuple(float(v) for v in self.vector))

    @classmethod
    def from_dict(cls, d: dict) -> "AttackSpec":
        _require_keys(d, "attack", set(), {"kind", "sigma", "mean_mode", "scale", "vector"})
        return cls(**d)


@dataclass(frozen=True)
class AggregatorSpec:
    """How the server combines the uploads.

    geomed reads the Weiszfeld knobs: tol bounds both the iterate
    displacement and the smoothed-subgradient norm at exit, and is also the
    absolute floor on per-point distances that keeps the inverse-distance
    weights finite when the iterate lands on a data point; no upload can
    move it. trimmed_mean reads trim_fraction, the share dropped from each
    tail.
    """

    kind: str = "geomed"
    tol: float = 1e-10
    max_iters: int = 1000
    trim_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("geomed", "mean", "coordinate_median", "trimmed_mean"):
            raise ConfigError(
                f"aggregator.kind must be geomed|mean|coordinate_median|trimmed_mean, got {self.kind!r}"
            )
        _check_types(self, "aggregator.", tol=float, max_iters=int, trim_fraction=float)
        # Weiszfeld weights reach 1/tol; times a kept upload's entries (< 2.7e154 apart) < 3e304.
        if self.tol < 1e-150:
            raise ConfigError(f"aggregator.tol must be >= 1e-150, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigError(f"aggregator.max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ConfigError(f"aggregator.trim_fraction must lie in [0, 0.5), got {self.trim_fraction}")

    @classmethod
    def from_dict(cls, d: dict) -> "AggregatorSpec":
        _require_keys(d, "aggregator", set(), {"kind", "tol", "max_iters", "trim_fraction"})
        return cls(**d)


@dataclass(frozen=True)
class ScheduleSpec:
    """Schedule families.

    uniform:      steps (int or "auto" = smallest contracting K),
                  eta (float or "auto" = factor-minimizing rate).
    general:      per-client constant rates; either explicit client_etas of
                  length M, or "auto" draws from eta_range (fractions of
                  eta_max/2) using the master seed. steps_cycle gives K^t
                  cycling per round.
    floor_decay / linear_decay: K^t from K1 and horizon E (the two readings
                  of the decaying-step recipe), constant eta.
    """

    kind: str = "uniform"
    steps: Any = "auto"
    eta: Any = "auto"
    client_etas: tuple[float, ...] | str | None = None
    eta_range: tuple[float, float] = (0.5, 1.0)
    steps_cycle: tuple[int, ...] = (4, 8)
    K1: int = 8
    E: int = 4000

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "general", "floor_decay", "linear_decay"):
            raise ConfigError(
                f"schedule.kind must be uniform|general|floor_decay|linear_decay, got {self.kind!r}"
            )
        _check_types(self, "schedule.", eta_range=[float], steps_cycle=[int], K1=int, E=int)
        if not (self.client_etas is None or self.client_etas == "auto"):
            _check_types(self, "schedule.", client_etas=[float])
            object.__setattr__(self, "client_etas", tuple(float(v) for v in self.client_etas))
            if not all(v > 0 for v in self.client_etas):
                raise ConfigError(f"schedule.client_etas must all be positive, got {list(self.client_etas)}")
        object.__setattr__(self, "eta_range", tuple(float(v) for v in self.eta_range))
        object.__setattr__(self, "steps_cycle", tuple(int(v) for v in self.steps_cycle))
        if self.kind == "uniform":
            if self.steps != "auto" and (not _is(self.steps, int) or self.steps < 0):
                raise ConfigError(f"schedule.steps must be 'auto' or an int >= 0, got {self.steps!r}")
        if self.kind != "general" and self.eta != "auto" and (not _is(self.eta, float) or self.eta <= 0):
            raise ConfigError(f"schedule.eta must be 'auto' or a positive number, got {self.eta!r}")
        if self.kind == "general":
            if not self.steps_cycle or any(k < 0 for k in self.steps_cycle):
                raise ConfigError("schedule.steps_cycle must be a nonempty list of ints >= 0")
            if len(self.eta_range) != 2 or not (0 < self.eta_range[0] <= self.eta_range[1]):
                raise ConfigError(f"schedule.eta_range must be 0 < lo <= hi, got {self.eta_range}")
        if self.kind in ("floor_decay", "linear_decay") and (self.K1 < 1 or self.E < 1):
            raise ConfigError("schedule.K1 and schedule.E must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleSpec":
        _require_keys(
            d,
            "schedule",
            set(),
            {"kind", "steps", "eta", "client_etas", "eta_range", "steps_cycle", "K1", "E"},
        )
        return cls(**d)


@dataclass(frozen=True)
class OracleSpec:
    """The stochastic gradient each honest local step uses.

    full:           the exact local gradient.
    minibatch:      the gradient over a uniform without-replacement subset
                    of batch_size of the user's samples (at most the smallest
                    user's count, checked by prepare). Its noise does not
                    vanish with the gradient, so it breaks the
                    bounded-relative-variance assumption; traces flag it.
    relative_noise: the global gradient plus noise of norm exactly
                    delta * ||grad||, uniform in direction: unbiased, with
                    squared noise-to-gradient ratio exactly delta^2.
    """

    kind: str = "full"
    batch_size: int = 32
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("full", "minibatch", "relative_noise"):
            raise ConfigError(f"oracle.kind must be full|minibatch|relative_noise, got {self.kind!r}")
        _check_types(self, "oracle.", batch_size=int, delta=float)
        if self.kind == "minibatch" and self.batch_size < 1:
            raise ConfigError(f"oracle.batch_size must be >= 1, got {self.batch_size}")
        if self.delta < 0:
            raise ConfigError(f"oracle.delta must be nonnegative, got {self.delta}")

    @classmethod
    def from_dict(cls, d: dict) -> "OracleSpec":
        _require_keys(d, "oracle", set(), {"kind", "batch_size", "delta"})
        return cls(**d)


@dataclass(frozen=True)
class InitSpec:
    kind: str = "zeros"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("zeros", "random"):
            raise ConfigError(f"init.kind must be 'zeros' or 'random', got {self.kind!r}")
        _check_types(self, "init.", scale=float)

    @classmethod
    def from_dict(cls, d: dict) -> "InitSpec":
        _require_keys(d, "init", set(), {"kind", "scale"})
        return cls(**d)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: SyntheticProblemSpec | CsvProblemSpec = field(default_factory=SyntheticProblemSpec)
    n_byzantine: int = 10
    attack: AttackSpec = field(default_factory=AttackSpec)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    rounds: int = 200
    seed: int = 0
    init: InitSpec = field(default_factory=InitSpec)
    override_half_plus: bool = False

    def __post_init__(self) -> None:
        _check_types(self, "", n_byzantine=int, rounds=int, seed=int, override_half_plus=bool)
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.n_byzantine < 0 or self.seed < 0:
            raise ConfigError(f"n_byzantine and seed must be nonnegative, got {self.n_byzantine}, {self.seed}")
        M = self.problem.n_users
        if self.n_byzantine >= M:
            raise ConfigError(f"n_byzantine={self.n_byzantine} must be below n_users={M}")
        if 2 * self.n_byzantine >= M and not self.override_half_plus:
            raise ConfigError(
                f"configuration violates B < M/2 (B={self.n_byzantine}, M={M}); "
                "set override_half_plus to run anyway (robustness guarantees void)"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require_keys(
            d,
            "config",
            set(),
            {
                "problem",
                "n_byzantine",
                "attack",
                "aggregator",
                "schedule",
                "oracle",
                "rounds",
                "seed",
                "init",
                "override_half_plus",
            },
        )
        kwargs: dict[str, Any] = dict(d)
        if "problem" in d:
            kwargs["problem"] = _problem_from_dict(d["problem"])
        if "attack" in d:
            kwargs["attack"] = AttackSpec.from_dict(d["attack"])
        if "aggregator" in d:
            kwargs["aggregator"] = AggregatorSpec.from_dict(d["aggregator"])
        if "schedule" in d:
            kwargs["schedule"] = ScheduleSpec.from_dict(d["schedule"])
        if "oracle" in d:
            kwargs["oracle"] = OracleSpec.from_dict(d["oracle"])
        if "init" in d:
            kwargs["init"] = InitSpec.from_dict(d["init"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = asdict(self)
        # asdict turns tuples into lists only at the top level of each field;
        # normalize nested tuples so json round-trips compare equal.
        return json.loads(json.dumps(d))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return ExperimentConfig.from_dict(raw)


def dump_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
