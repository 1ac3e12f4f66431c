"""Convergence-bound arithmetic for the robust multi-step protocol.

Pure functions computing the per-step contraction factor, the corruption
amplification constant C_beta, the Theorem-1 envelope of uniform schedules
and the Theorem-2 round multiplier. The server multiplies (L/2) * ||w1 -
w*||^2 by the multipliers of rounds 1..t in order for the Theorem-2
envelope, which decays to a zero gap while they stay below 1. A round's
rates are the honest clients' entries of the schedule's (M,) rate vector,
with client m stepping at eta_m for all K^t of the round's local steps.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

__all__ = [
    "gamma",
    "c_beta",
    "stable_eta_range",
    "min_K",
    "TheoryParams",
    "theorem1_bound",
    "theorem2_round_multiplier",
]

def gamma(eta, mu: float, L_const: float, delta: float = 0.0):
    """Per-local-step squared-distance factor 1 - 2*eta*mu + eta^2*L^2*(1+delta^2), element-wise."""
    low = eta if np.isscalar(eta) else np.min(eta, initial=np.inf)
    if low <= 0:
        raise ValueError(f"eta must be positive, got {low}")
    with np.errstate(over="ignore"):  # a diverging rate's factor is inf
        return 1.0 - 2.0 * eta * mu + eta * eta * L_const * L_const * (1.0 + delta * delta)


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
        c_beta(self.beta)  # raises unless 0 <= B < M/2
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

    @cached_property
    def contraction_factor(self) -> float:
        """Per-round envelope factor gamma^K * C_beta^2, computed once per params object."""
        return self.gamma**self.K * c_beta(self.beta) ** 2


def theorem1_bound(t: int, params: TheoryParams) -> float:
    """Uniform-schedule envelope (L/2) * (gamma^K * C_beta^2)^t * ||w1 - w*||^2 at round t."""
    if t < 0:
        raise ValueError(f"round index must be nonnegative, got {t}")
    return 0.5 * params.L_const * params.contraction_factor**t * params.w1_gap_sq


def theorem2_round_multiplier(
    i: int, rates: np.ndarray, K: int, mu: float, L_const: float, delta: float, M: int, B: int
) -> float:
    """Round-i envelope factor (C_beta^2 / (M - B)) * sum over honest m of gamma(eta_m)^K.

    ``rates`` is the (M - B,) honest rate vector and K is K^i. Each power is
    K multiplications in order from 1.0, and the sum over m runs in order;
    a vectorised ``**`` would round differently, and differently on
    different CPUs. When all honest clients share one factor (uniform and
    decay schedules), its power is one ``math.prod``, the same in-order
    product run in C; otherwise the K multiplications act on the vector of
    factors. A factor computed as <= 0 that enters the product (K >= 1) is
    reported via a warning; the multiplier is still evaluated, since the
    recurrence it feeds presumes nonnegative factors only for
    interpretability, not for evaluation.
    """
    if rates.shape != (M - B,):
        raise ValueError(f"expected {M - B} honest rates, got shape {rates.shape}")
    cb2 = c_beta(B / M) ** 2
    factors = gamma(rates, mu, L_const, delta)
    negative = np.flatnonzero(factors <= 0.0).tolist() if K else []
    if negative:
        warnings.warn(
            f"round {i}: nonpositive per-step factor for clients {negative[:3]}"
            f"{'...' if len(negative) > 3 else ''}; envelope evaluated anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    prods = np.ones(M - B)
    if K and (factors == factors[0]).all():
        prods *= math.prod(repeat(float(factors[0]), K), start=1.0)
    else:
        for _ in range(K):
            prods *= factors
    return cb2 / (M - B) * float(np.cumsum(prods)[-1])
