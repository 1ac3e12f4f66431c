"""Client-side behavior: multi-step local SGD and Byzantine message generation.

Honest clients run K^t SGD steps from the broadcast iterate, client m at
its own rate eta_m, all of them together: step k is one batched gradient
evaluation over the honest clients, at the rates the caller passes as one
vector. The round's random draws come from one stream keyed by the round,
of which step k reads the k-th block, and each block holds a fixed row
per client id, so a client's upload does not depend on which other
clients share the batch or on their order. On ridge with the full
oracle, a client's K^t steps are one affine map, applied in closed form
from the problem's eigendecompositions.
Byzantine clients ignore schedules and data entirely and emit the vector
their ``AttackSpec`` describes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import AttackSpec, OracleSpec, ScheduleSpec
from .problems import Problem, _user_rows, local_stoch_grad
from .rng import substream

__all__ = ["Schedule", "honest_local_update", "byzantine_message"]


@dataclass(frozen=True)
class Schedule:
    """Local-step counts K^t and rates eta_m of M clients, read from a spec with no 'auto' left.

    ``steps(t)`` is K^t (0 allowed for degenerate runs); ``rates`` is the
    read-only (M,) vector of every round's and step's rates: the general
    kind's ``client_etas``, the other kinds' one ``eta``.
    """

    spec: ScheduleSpec
    M: int

    def steps(self, t: int) -> int:
        s = self.spec
        if s.kind == "uniform":
            return s.steps
        if s.kind == "general":
            return s.steps_cycle[(t - 1) % len(s.steps_cycle)]
        if s.kind == "floor_decay":
            return max(0, s.K1 * (1 - t // s.E))
        return max(1, round(s.K1 * (1.0 - t / s.E)))

    @cached_property
    def rates(self) -> np.ndarray:
        etas = self.spec.client_etas if self.spec.kind == "general" else self.spec.eta
        return np.broadcast_to(np.asarray(etas, dtype=np.float64), (self.M,))


def honest_local_update(
    problem: Problem,
    ids,
    w_t: np.ndarray,
    t: int,
    eta: np.ndarray,
    K: int,
    oracle: OracleSpec,
    master_seed: int,
) -> np.ndarray:
    """Run K local SGD steps from w_t for clients ``ids``; row i is client ids[i]'s upload.

    ``eta`` is the (len(ids),) rate vector, client ids[i] stepping at
    eta[i], and K is the round's K^t. Step k uses one batched gradient
    whose draws are the k-th (M, .) block of the stream keyed
    (master_seed, 'grad', t), so each row is independent of the batch's
    membership and order. K = 0 returns copies of w_t. A range of ids is
    passed on as a range, which ``local_stoch_grad`` indexes by views.

    Full-oracle ridge rows whose user Hessian is positive definite take the
    exact K-step map (``RidgeSpectrum.full_steps``) instead of the loop; it
    equals the loop up to rounding, and still each row alone.
    """
    ids = ids if isinstance(ids, range) else np.asarray(ids, dtype=np.intp)
    n = len(ids) if isinstance(ids, range) else ids.size
    if eta.shape != (n,):
        raise ValueError(f"eta has shape {eta.shape}, need one rate per client of {n}")
    if (eta <= 0).any():
        i = np.flatnonzero(eta <= 0)[0]
        raise ValueError(f"client {ids[i]}'s rate must be positive, got {eta[i]}")
    w_t = np.asarray(w_t, dtype=np.float64)
    spectrum = problem.spectrum if oracle.kind == "full" and K else None
    if spectrum is None:
        return _local_sgd(problem, ids, w_t, t, eta, K, oracle, master_seed)
    rows = _user_rows(problem, ids)
    Z = spectrum.full_steps(rows, w_t, eta, K)
    loop = np.flatnonzero(~spectrum.definite[rows])
    if loop.size:
        Z[loop] = _local_sgd(problem, np.asarray(ids)[loop], w_t, t, eta[loop], K, oracle, master_seed)
    return Z


def _local_sgd(problem, ids, w_t, t, eta, K, oracle, master_seed) -> np.ndarray:
    """The K-step loop of ``honest_local_update``: one batched gradient step per k."""
    W = np.tile(w_t, (eta.size, 1))
    rng = substream(master_seed, "grad", t) if oracle.kind != "full" else None
    for _ in range(K):
        W -= eta[:, None] * local_stoch_grad(problem, ids, W, oracle, rng)
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
