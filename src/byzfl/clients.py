"""Client-side behavior: multi-step local SGD and Byzantine message generation.

Honest clients run K^t SGD steps from the broadcast iterate with per-step
rates eta(t, m, k), all of them together: step k is one batched gradient
evaluation over the honest clients. Its random draws come from one stream
keyed by (round, step) that holds a fixed row per client id, so a client's
upload does not depend on which other clients share the batch or on their
order. Byzantine clients ignore schedules and data entirely and emit the
vector their ``AttackSpec`` describes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import AttackSpec, OracleSpec
from .problems import Problem, local_stoch_grad
from .rng import substream

__all__ = [
    "Schedule",
    "constant_rates",
    "honest_local_update",
    "byzantine_message",
    "floor_decay_steps",
    "linear_decay_steps",
]


@dataclass(frozen=True)
class Schedule:
    """Local-step counts K^t and learning rates eta(t, m, k).

    ``steps`` maps a round index to the number of local updates (0 allowed
    for degenerate tests); ``rates`` maps round t to an (M, K^t) array of
    positive rates whose row m, column k - 1 is eta(t, m, k).
    ``uniform_K``/``uniform_eta`` are set when the schedule is constant in
    all arguments, which is what makes the fixed-setup envelope applicable.
    """

    steps: Callable[[int], int]
    rates: Callable[[int], np.ndarray]
    uniform_K: int | None = None
    uniform_eta: float | None = None

    @classmethod
    def uniform(cls, K: int, eta: float, M: int) -> "Schedule":
        if K < 0:
            raise ValueError(f"K must be nonnegative, got {K}")
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        return cls(lambda t: K, constant_rates(eta, M, lambda t: K), uniform_K=K, uniform_eta=eta)

    @property
    def is_uniform(self) -> bool:
        return self.uniform_K is not None and self.uniform_eta is not None


def constant_rates(etas, M: int, steps: Callable[[int], int]) -> Callable[[int], np.ndarray]:
    """``Schedule.rates`` for fixed rates: ``etas`` (one, or one per client) broadcast to (M, steps(t))."""
    col = np.reshape(np.asarray(etas, dtype=np.float64), (-1, 1))
    return lambda t: np.broadcast_to(col, (M, steps(t)))


def honest_local_update(
    problem: Problem,
    ids,
    w_t: np.ndarray,
    t: int,
    schedule: Schedule,
    oracle: OracleSpec,
    master_seed: int,
) -> np.ndarray:
    """Run K^t local SGD steps from w_t for clients ``ids``; row i is client ids[i]'s upload.

    Rows ``ids`` of ``schedule.rates(t)`` hold the rates, an (M, K^t) array;
    step k uses column k - 1 and one batched gradient whose draws come from
    the stream keyed (master_seed, 'grad', t, k), so each row is independent
    of the batch's membership and order. K^t = 0 returns copies of w_t.
    """
    ids = np.asarray(ids, dtype=np.intp)
    W = np.tile(np.asarray(w_t, dtype=np.float64), (ids.size, 1))
    K = schedule.steps(t)
    if K < 0:
        raise ValueError(f"steps({t}) must be nonnegative, got {K}")
    eta = schedule.rates(t)[ids]
    if eta.shape != (ids.size, K):
        raise ValueError(f"rates({t}) gives shape {eta.shape} for {ids.size} clients, steps({t}) = {K}")
    if (eta <= 0).any():
        k, i = np.argwhere(eta.T <= 0)[0]
        raise ValueError(f"rate({t}, {ids[i]}, {k + 1}) must be positive, got {eta[i, k]}")
    needs_rng = oracle.kind != "full"
    for k in range(1, K + 1):
        rng = substream(master_seed, "grad", t, k) if needs_rng else None
        W -= eta[:, k - 1, None] * local_stoch_grad(problem, ids, W, oracle, rng)
    return W


def byzantine_message(
    attack: AttackSpec,
    w_t: np.ndarray,
    noise: np.ndarray | None,
    honest_center: np.ndarray | None = None,
) -> np.ndarray:
    """Generate the Byzantine uploads for one round, of the broadcast's dimension.

    ``noise`` holds one row of standard normals per Byzantine client (or is
    one such row, or None); only the gaussian attack reads it, returning row
    m as center + sigma * noise[m], and its 'honest_center' mode centers at
    ``honest_center`` (the broadcast when not given). The other attacks
    return one vector, which every Byzantine client uploads.
    """
    w_t = np.asarray(w_t, dtype=np.float64)
    if attack.kind == "zero":
        return np.zeros_like(w_t)
    if attack.kind == "fixed":
        v = np.array(attack.vector, dtype=np.float64)
        if v.shape != w_t.shape:
            raise ValueError(f"fixed vector shape {v.shape} != parameter shape {w_t.shape}")
        return v
    if attack.kind == "sign_flip":
        return -attack.scale * w_t
    center = np.zeros_like(w_t)
    if attack.mean_mode == "honest_center":
        center = np.asarray(honest_center if honest_center is not None else w_t, dtype=np.float64)
    return center + attack.sigma * noise


def floor_decay_steps(K1: int, E: int) -> Callable[[int], int]:
    """K^t = K1 * (1 - floor(t / E)): constant K1 for t < E, then 0 at t = E.

    The literal floor form; see linear_decay_steps for the smoothly
    decaying reading of the same recipe.
    """
    if K1 < 1 or E < 1:
        raise ValueError(f"K1 and E must be >= 1, got {K1}, {E}")
    return lambda t: max(0, K1 * (1 - t // E))


def linear_decay_steps(K1: int, E: int) -> Callable[[int], int]:
    """K^t = max(1, round(K1 * (1 - t/E))): linear decay from K1 to a floor of one step."""
    if K1 < 1 or E < 1:
        raise ValueError(f"K1 and E must be >= 1, got {K1}, {E}")
    return lambda t: max(1, round(K1 * (1.0 - t / E)))
