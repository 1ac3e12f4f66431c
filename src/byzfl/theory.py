"""Convergence-bound arithmetic for the robust multi-step protocol.

Pure functions computing the per-step contraction factor, the corruption
amplification constant, the geometric optimality-gap envelopes for uniform
and general schedules, and the zero-gap conditions that decide whether the
envelope decays.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "gamma",
    "classify_gamma",
    "c_beta",
    "stable_eta_range",
    "min_K",
    "TheoryParams",
    "BoundSeries",
    "theorem1_bound",
    "theorem1_series",
    "theorem2_round_multiplier",
    "theorem2_bound",
    "zero_gap_condition",
]

# rate: (round t, client m, step k) -> learning rate
RateFn = Callable[[int, int, int], float]
# steps: round t -> number of local steps K^t
StepsFn = Callable[[int], int]


def gamma(eta: float, mu: float, L_const: float, delta: float = 0.0) -> float:
    """Per-local-step squared-distance factor 1 - 2*eta*mu + eta^2*L^2*(1+delta^2)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return 1.0 - 2.0 * eta * mu + eta * eta * L_const * L_const * (1.0 + delta * delta)


def classify_gamma(gamma_val: float) -> str:
    """Label a contraction factor: 'contractive' iff it lies in (0, 1)."""
    return "contractive" if 0.0 < gamma_val < 1.0 else "non-contractive"


def c_beta(beta: float) -> float:
    """Robustness amplification (2 - 2*beta) / (1 - 2*beta); >= 2 on [0, 1/2)."""
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"beta must lie in [0, 1/2), got {beta}")
    return (2.0 - 2.0 * beta) / (1.0 - 2.0 * beta)


def stable_eta_range(mu: float, L_const: float, delta: float = 0.0) -> tuple[float, float]:
    """Open interval (0, eta_max) of rates with a contractive factor.

    eta_max = 2*mu / (L^2 * (1 + delta^2)). Inside the interval the factor
    stays in (0, 1): the quadratic's minimum 1 - mu^2/(L^2 (1+delta^2)) is
    nonnegative because mu <= L.
    """
    if not 0.0 < mu <= L_const:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L_const}")
    return 0.0, 2.0 * mu / (L_const * L_const * (1.0 + delta * delta))


def min_K(gamma_val: float, beta: float) -> int:
    """Smallest integer K with gamma^K * c_beta(beta)^2 < 1 (strict).

    Starts from the analytic threshold -2*ln(C_beta)/ln(gamma) and adjusts
    by direct evaluation so boundary cases agree with an exhaustive scan.
    """
    if not 0.0 < gamma_val < 1.0:
        raise ValueError(f"no K yields contraction: gamma must lie in (0, 1), got {gamma_val}")
    cb2 = c_beta(beta) ** 2

    def contracts(k: int) -> bool:
        return gamma_val**k * cb2 < 1.0

    k = max(1, math.floor(-2.0 * math.log(c_beta(beta)) / math.log(gamma_val)) + 1)
    while not contracts(k):
        k += 1
    while k > 1 and contracts(k - 1):
        k -= 1
    return k


@dataclass(frozen=True)
class TheoryParams:
    """Inputs of the uniform-schedule envelope (Theorem-1 regime)."""

    eta: float
    mu: float
    L_const: float
    delta: float
    M: int
    B: int
    K: int
    w1_gap_sq: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu <= self.L_const:
            raise ValueError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L_const}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if not 0 <= self.B < self.M:
            raise ValueError(f"need 0 <= B < M, got B={self.B}, M={self.M}")
        if 2 * self.B >= self.M:
            raise ValueError(f"corrupted fraction must stay below 1/2: B={self.B}, M={self.M}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.w1_gap_sq < 0:
            raise ValueError(f"w1_gap_sq must be nonnegative, got {self.w1_gap_sq}")

    @property
    def beta(self) -> float:
        return self.B / self.M

    @property
    def gamma(self) -> float:
        return gamma(self.eta, self.mu, self.L_const, self.delta)

    @property
    def contraction_factor(self) -> float:
        """Per-round envelope factor gamma^K * C_beta^2."""
        return self.gamma**self.K * c_beta(self.beta) ** 2


@dataclass(frozen=True)
class BoundSeries:
    """Envelope values per round, built by the exact recurrence b_{t+1} = factor * b_t."""

    values: tuple[float, ...]
    contraction_factor: float


def theorem1_bound(t: int, params: TheoryParams) -> float:
    """Uniform-schedule envelope (L/2) * (gamma^K * C_beta^2)^t * ||w1 - w*||^2 at round t."""
    if t < 0:
        raise ValueError(f"round index must be nonnegative, got {t}")
    return 0.5 * params.L_const * params.contraction_factor**t * params.w1_gap_sq


def theorem1_series(params: TheoryParams, T: int) -> BoundSeries:
    """Envelope for rounds 0..T via the exact geometric recurrence."""
    factor = params.contraction_factor
    values = [0.5 * params.L_const * params.w1_gap_sq]
    for _ in range(T):
        values.append(values[-1] * factor)
    return BoundSeries(values=tuple(values), contraction_factor=factor)


def theorem2_round_multiplier(
    i: int,
    rate: RateFn,
    steps: StepsFn,
    honest: Sequence[int],
    mu: float,
    L_const: float,
    delta: float,
    M: int,
    B: int,
) -> float:
    """Round-i envelope factor (C_beta^2 / (M - B)) * sum over honest m of prod_k gamma(eta(i,m,k)).

    A per-step factor computed as <= 0 is reported via a warning; the
    multiplier is still evaluated, since the recurrence it feeds presumes
    nonnegative factors only for interpretability, not for evaluation.
    """
    if len(honest) != M - B:
        raise ValueError(f"expected {M - B} honest ids, got {len(honest)}")
    cb2 = c_beta(B / M) ** 2
    total = 0.0
    negative: list[tuple[int, int]] = []
    for m in honest:
        prod = 1.0
        for k in range(1, steps(i) + 1):
            g = gamma(rate(i, m, k), mu, L_const, delta)
            if g <= 0.0:
                negative.append((m, k))
            prod *= g
        total += prod
    if negative:
        warnings.warn(
            f"round {i}: nonpositive per-step factor at (client, step) {negative[:3]}"
            f"{'...' if len(negative) > 3 else ''}; envelope evaluated anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    return cb2 / (M - B) * total


def theorem2_bound(
    t: int,
    rate: RateFn,
    steps: StepsFn,
    honest: Sequence[int],
    mu: float,
    L_const: float,
    delta: float,
    M: int,
    B: int,
    L_for_prefactor: float,
    w1_gap_sq: float,
) -> float:
    """General-schedule envelope: (L/2) * ||w1 - w*||^2 * prod_{i<=t} round multiplier."""
    if t < 0:
        raise ValueError(f"round index must be nonnegative, got {t}")
    prod = 1.0
    for i in range(1, t + 1):
        prod *= theorem2_round_multiplier(i, rate, steps, honest, mu, L_const, delta, M, B)
    return 0.5 * L_for_prefactor * w1_gap_sq * prod


def zero_gap_condition(
    i: int,
    rate: RateFn,
    steps: StepsFn,
    honest: Sequence[int],
    mu: float,
    L_const: float,
    delta: float,
    M: int,
    B: int,
) -> bool:
    """True iff sum_m prod_k gamma_m^{i,k} < (M - B) / C_beta^2, i.e. round i's multiplier is < 1."""
    return theorem2_round_multiplier(i, rate, steps, honest, mu, L_const, delta, M, B) < 1.0
