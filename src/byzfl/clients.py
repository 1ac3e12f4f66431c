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
    "honest_local_update",
    "byzantine_message",
    "floor_decay_steps",
    "linear_decay_steps",
]


@dataclass(frozen=True)
class Schedule:
    """Local-step counts K^t and learning rates eta(t, m, k).

    ``steps`` maps a round index to the number of local updates (0 allowed
    for degenerate tests); ``rate`` maps (round, client, step) to a positive
    learning rate. ``uniform_K``/``uniform_eta`` are set when the schedule
    is constant in all arguments, which is what makes the fixed-setup
    envelope applicable.
    """

    steps: Callable[[int], int]
    rate: Callable[[int, int, int], float]
    uniform_K: int | None = None
    uniform_eta: float | None = None

    @classmethod
    def uniform(cls, K: int, eta: float) -> "Schedule":
        if K < 0:
            raise ValueError(f"K must be nonnegative, got {K}")
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        return cls(steps=lambda t: K, rate=lambda t, m, k: eta, uniform_K=K, uniform_eta=eta)

    @property
    def is_uniform(self) -> bool:
        return self.uniform_K is not None and self.uniform_eta is not None


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

    Step k uses rate(t, m, k) and one batched gradient whose draws come from
    the stream keyed (master_seed, 'grad', t, k), so each row is independent
    of the batch's membership and order. K^t = 0 returns copies of w_t.
    """
    ids = np.asarray(ids, dtype=np.intp)
    W = np.tile(np.asarray(w_t, dtype=np.float64), (ids.size, 1))
    K = schedule.steps(t)
    if K < 0:
        raise ValueError(f"steps({t}) must be nonnegative, got {K}")
    needs_rng = oracle.kind != "full"
    for k in range(1, K + 1):
        eta = np.array([schedule.rate(t, m, k) for m in ids], dtype=np.float64)
        bad = eta <= 0
        if bad.any():
            raise ValueError(f"rate({t}, {ids[bad][0]}, {k}) must be positive, got {eta[bad][0]}")
        rng = substream(master_seed, "grad", t, k) if needs_rng else None
        W -= eta[:, None] * local_stoch_grad(problem, ids, W, oracle, rng)
    return W


def byzantine_message(
    attack: AttackSpec,
    w_t: np.ndarray,
    noise: np.ndarray,
    honest_center: np.ndarray | None = None,
) -> np.ndarray:
    """Generate a Byzantine upload of the broadcast's dimension.

    ``noise`` is the client's row of standard normals, of the broadcast's
    shape; only the gaussian attack reads it, and its 'honest_center' mode
    centers at ``honest_center`` (the broadcast when not given).
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
