"""Loss models with computable optimum and curvature constants.

Ridge and logistic problems over per-user datasets, exposing the weighted
global loss, per-user local losses, exact and stochastic gradients, the
strong-convexity / smoothness constants (mu, L), and the global minimizer,
which a ridge problem solves once, when it is built. A problem stores all
users' samples once, as zero-padded stacked arrays, so the stochastic
oracle evaluates a whole batch of users in one call. Ridge problems also
hold each user's Hessian eigendecomposition, in which K full-gradient
steps at one rate are one closed-form map. Everything here is deterministic
given its inputs; stochastic oracles take the generator they draw from.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .aggregation import _row_norms
from .config import OracleSpec
from .rng import substream, substreams

_SOLVE_RTOL = 1e-12  # ridge normal-equation residual target, relative to ||b||

__all__ = [
    "Ridge",
    "Logistic",
    "Dataset",
    "Problem",
    "RidgeSpectrum",
    "SmoothnessConstants",
    "make_synthetic",
    "problem_from_csv",
    "global_loss",
    "local_loss",
    "global_gradient",
    "local_gradient",
    "local_stoch_grad",
    "constants",
    "optimum",
    "test_accuracy",
]


@dataclass(frozen=True)
class Ridge:
    """Squared-error loss 0.5*(x'w - y)^2 with L2 penalty lam/2*||w||^2.

    lam = 0 is allowed; strong convexity must then come from the data Gram.
    """

    lam: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"ridge penalty must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class Logistic:
    """Binary cross-entropy on labels in {0, 1} with L2 penalty lam/2*||w||^2.

    lam > 0 is required: the unpenalized logistic loss is not strongly convex.
    """

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"logistic problems need lam > 0, got {self.lam}")


LossKind = Ridge | Logistic


@dataclass
class Dataset:
    """One user's samples: feature rows (S, p) and scalar targets (S,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1 or self.inputs.shape[1] < 1:
            raise ValueError(f"inputs must be a nonempty (S, p) matrix, got {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(
                f"targets shape {self.targets.shape} does not match {self.inputs.shape[0]} rows"
            )
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass
class Problem:
    """All users' samples stacked once, plus the loss kind; caches Gram moments on build.

    ``inputs`` is (M, S_max, p) and ``targets`` (M, S_max): user m's samples
    are the first ``counts[m]`` rows and the rest is zero padding.

    Cached on build: ``grams`` G_m = X_m'X_m/S_m (M, p, p) and ``moments``
    c_m = X_m'y_m/S_m (M, p), each one stacked product over the padded data.
    Ridge problems also cache ``center`` w_c, the one solve of
    (G + lam I) w = c for the weighted G and c (lstsq, refined), which
    ``optimum`` returns as w*, and per user ``center_moments`` q_m =
    c_m - G_m w_c (M, p) and ``center_residuals`` rho_m =
    mean((y_m - X_m w_c)^2) (M,), from which their losses are evaluated;
    all three are None for logistic problems.
    Ridge ``spectrum`` is built on first use.
    """

    inputs: np.ndarray
    targets: np.ndarray
    counts: np.ndarray
    loss_kind: LossKind
    test_set: Dataset | None = None

    padding: np.ndarray = field(init=False, repr=False)
    user_weights: np.ndarray = field(init=False, repr=False)
    grams: np.ndarray = field(init=False, repr=False)
    moments: np.ndarray = field(init=False, repr=False)
    center: np.ndarray | None = field(default=None, init=False, repr=False)
    center_moments: np.ndarray | None = field(default=None, init=False, repr=False)
    center_residuals: np.ndarray | None = field(default=None, init=False, repr=False)
    _gram_global: np.ndarray = field(init=False, repr=False)
    _moment_global: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.intp)
        M = self.inputs.shape[0] if self.inputs.ndim == 3 else 0
        if M < 1 or self.targets.shape != self.inputs.shape[:2] or self.counts.shape != (M,):
            raise ValueError(
                f"need stacked inputs (M, S, p), targets (M, S) and counts (M,) with M >= 1, got "
                f"{self.inputs.shape}, {self.targets.shape}, {self.counts.shape}"
            )
        if self.counts.min() < 1 or self.counts.max() > self.inputs.shape[1]:
            raise ValueError(f"sample counts must lie in [1, {self.inputs.shape[1]}]")
        self.padding = np.arange(self.inputs.shape[1]) >= self.counts[:, None]
        if np.any(self.inputs[self.padding]):
            raise ValueError("padding rows of inputs must be zero")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")
        self.user_weights = self.counts / self.counts.sum()
        # Cached second moments: G_m = X'X/S_m and c_m = X'y/S_m make full
        # gradients O(p^2) regardless of S_m. Padding rows add exact zeros.
        XT = np.swapaxes(self.inputs, 1, 2)
        self.grams = np.matmul(XT, self.inputs) / self.counts[:, None, None]
        self.moments = np.matmul(XT, self.targets[:, :, None])[:, :, 0] / self.counts[:, None]
        self._gram_global = sum(u * g for u, g in zip(self.user_weights, self.grams))
        self._moment_global = sum(u * c for u, c in zip(self.user_weights, self.moments))
        if isinstance(self.loss_kind, Ridge):
            # lstsq, unlike solve, accepts a singular Hessian; constants()
            # reports that case, and optimum() a stalled refinement.
            H, b = self._gram_global + self.lam * np.eye(self.dim), self._moment_global
            self.center = np.linalg.lstsq(H, b, rcond=None)[0]
            for _ in range(10):
                r = b - H @ self.center
                if np.linalg.norm(r) <= _SOLVE_RTOL * np.linalg.norm(b):
                    break
                self.center = self.center + np.linalg.lstsq(H, r, rcond=None)[0]
            self.center_moments = self.moments - np.matmul(self.grams, self.center)
            # Padding rows add exact zeros to rho.
            resid = self.targets - np.matmul(self.inputs, self.center)
            self.center_residuals = np.add.reduce(resid * resid, axis=1) / self.counts
        if self.test_set is not None and self.test_set.dim != self.dim:
            raise ValueError("test set dimension does not match training data")

    @classmethod
    def from_datasets(cls, per_user, loss_kind: LossKind, test_set: Dataset | None = None) -> "Problem":
        """Stack per-user datasets, zero-padded to the largest, into one problem."""
        per_user = tuple(per_user)
        if len(per_user) < 1:
            raise ValueError("need at least one user")
        dims = {d.dim for d in per_user}
        if len(dims) != 1:
            raise ValueError(f"users disagree on feature dimension: {dims}")
        counts = np.array([d.n_samples for d in per_user])
        inputs = np.zeros((len(per_user), counts.max(), dims.pop()))
        targets = np.zeros(inputs.shape[:2])
        for m, d in enumerate(per_user):
            inputs[m, : d.n_samples] = d.inputs
            targets[m, : d.n_samples] = d.targets
        return cls(inputs, targets, counts, loss_kind, test_set)

    @cached_property
    def spectrum(self) -> "RidgeSpectrum | None":
        """Eigendecompositions of the ridge user Hessians G_m + lam I, from one stacked eigh; None for logistic."""
        if not isinstance(self.loss_kind, Ridge):
            return None
        values, vectors = np.linalg.eigh(self.grams + self.lam * np.eye(self.dim))
        definite = _positive_definite(values)
        coords = np.matmul(self.moments[:, None, :], vectors)[:, 0]
        coords = np.divide(coords, values, out=np.zeros_like(coords), where=definite[:, None])
        return RidgeSpectrum(values, vectors, coords, definite)

    @cached_property
    def _sample_tags(self) -> np.ndarray:
        """(M, S_max) uint64 minibatch key tags: each sample's index, 2^64 - 1 at padding; built on first use."""
        return np.where(self.padding, ~np.uint64(0), np.arange(self.inputs.shape[1], dtype=np.uint64))

    @property
    def n_users(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[2]

    @property
    def lam(self) -> float:
        return self.loss_kind.lam


@dataclass(frozen=True)
class RidgeSpectrum:
    """Per-user ridge Hessians H_m = G_m + lam I = V_m diag(values_m) V_m' and minimizers w_m* = H_m^-1 c_m.

    ``values`` (M, p) ascending, ``vectors`` (M, p, p) with orthonormal
    columns V_m, ``definite`` (M,): whether H_m passes ``constants``'
    positive-definiteness test, and ``coords`` (M, p): V_m'w_m* =
    diag(1/values_m) V_m'c_m, zero where H_m is not definite.
    """

    values: np.ndarray
    vectors: np.ndarray
    coords: np.ndarray
    definite: np.ndarray

    def full_steps(self, rows, w: np.ndarray, eta: np.ndarray, K: int) -> np.ndarray:
        """K full-gradient steps from w at rate eta[i] for the users ``rows`` selects, in closed form.

        A step maps w - w_m* to (I - eta H_m)(w - w_m*), so in user m's
        eigenbasis, with u = V_m'w, s = V_m'w_m* and x = eta * values_m,
        K steps give b = s + f(u - s) = u - g(u - s), f = (1 - x)^K,
        g = 1 - f; row i is V_m b. Each coordinate takes the form whose
        factor is at most 1/2, with g = -expm1(K log1p(-x)), so that neither
        cancels: exact up to rounding where H_m is definite. Each row is
        computed on its own, independent of the other rows. A diverging rate
        gives non-finite rows without floating-point warnings.
        """
        V, s = self.vectors[rows], self.coords[rows]
        u = np.matmul(w, V)
        d = u - s
        x = eta[:, None] * self.values[rows]
        with np.errstate(all="ignore"):
            f = (1.0 - x) ** K
            g = -np.expm1(K * np.log1p(-x))  # NaN for x > 1, where f is used
            b = np.where(g <= 0.5, u - g * d, s + f * d)
            return np.matmul(V, b[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class SmoothnessConstants:
    mu: float
    L_const: float
    delta: float

    def __post_init__(self) -> None:
        if not 0 < self.mu <= self.L_const:
            raise ValueError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L_const}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")


def _positive_definite(eigs: np.ndarray) -> np.ndarray:
    """Whether ascending eigenvalue rows (last axis) clear the ``matrix_rank`` tolerance p * eps * largest."""
    return eigs[..., 0] > eigs.shape[-1] * np.finfo(np.float64).eps * eigs[..., -1]


def _user_rows(problem: Problem, ids) -> slice | np.ndarray:
    """``ids`` as an index into the per-user arrays: a slice for a step-1 range inside [0, M), else intp ids.

    Any other id sequence, a step-2 range or an out-of-bounds range
    included, becomes an array; raises ValueError unless it is 1-D with ids
    in [0, M).
    """
    if isinstance(ids, range) and ids.step == 1 and 0 <= ids.start <= ids.stop <= problem.n_users:
        return slice(ids.start, ids.stop)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError(f"need ids (n,), got shape {ids.shape}")
    if np.any((ids < 0) | (ids >= problem.n_users)):
        raise ValueError(f"user ids must lie in [0, {problem.n_users})")
    return ids


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) by ``np.logaddexp(0, z)``'s formula, with numpy's vectorised exp and log1p."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_w(problem: Problem, w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (problem.dim,):
        raise ValueError(f"parameter vector must have shape ({problem.dim},), got {w.shape}")
    return w


def _ridge_fits(problem: Problem, rows: slice, w: np.ndarray) -> np.ndarray:
    """Ridge fits (losses less the penalty) of the users in ``rows`` at w, from the centred moments.

    With d = w - w_c, user m's fit is 0.5*(d'G_m d - 2 q_m'd + rho_m): O(p^2)
    per user, no samples read, rounding error of order eps * loss. The
    uncentred 0.5*(w'G_m w - 2 c_m'w + mean(y^2)) would cancel terms of size
    mean(y^2), orders of magnitude above the loss on a near-perfect fit.
    """
    d = w - problem.center
    Gd = np.matmul(problem.grams[rows], d)
    return 0.5 * (((Gd - 2.0 * problem.center_moments[rows]) * d).sum(axis=1) + problem.center_residuals[rows])


def local_loss(problem: Problem, m: int, w) -> float:
    """Per-user loss: sample average plus lam/2 * ||w||^2; ridge by ``global_loss``'s arithmetic."""
    if not 0 <= m < problem.n_users:
        raise ValueError(f"user index {m} out of range [0, {problem.n_users})")
    w = _check_w(problem, w)
    if isinstance(problem.loss_kind, Ridge):
        fit = float(_ridge_fits(problem, slice(m, m + 1), w)[0])
    else:
        s = problem.counts[m]
        z = problem.inputs[m, :s] @ w
        fit = float(np.mean(_softplus(z) - problem.targets[m, :s] * z))
    return fit + 0.5 * problem.lam * float(w @ w)


def global_loss(problem: Problem, w) -> float:
    """Sample-size-weighted average of the per-user losses.

    Ridge: each user's fit is a quadratic form in the moments cached on
    the Problem, centred at w_c (``_ridge_fits``): O(M p^2) whatever the
    sample counts, with rounding error of order eps * loss, not
    eps * mean(y^2). Logistic: one pass over the stacked data, its margins
    one matrix-vector product over all users' rows, with padded rows masked
    out of each user's fit. The weighted losses are summed sequentially in
    user order, so on equal sample counts this equals
    sum(u * local_loss(problem, m, w)) bitwise.
    """
    w = _check_w(problem, w)
    if isinstance(problem.loss_kind, Ridge):
        fit = _ridge_fits(problem, slice(None), w)
    else:
        z = (problem.inputs.reshape(-1, problem.dim) @ w).reshape(problem.targets.shape)
        # A padding row would add log 2 to the logistic fit.
        rows = np.where(problem.padding, 0.0, _softplus(z) - problem.targets * z)
        fit = np.sum(rows, axis=1) / problem.counts
    losses = fit + 0.5 * problem.lam * float(w @ w)
    return float(np.cumsum(problem.user_weights * losses)[-1])


def _fit_grads(kind: LossKind, X: np.ndarray, y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows X'(link(X w) - y), one per row w of W, with X (S, p) shared or stacked (n, S, p).

    W may carry extra leading axes that broadcast against X's. Stacked
    matmuls run one BLAS matrix-vector product per row, so each row equals
    the unbatched product bitwise, whatever else is in the batch.
    """
    z = np.matmul(X, W[..., None])[..., 0]
    r = z - y if isinstance(kind, Ridge) else _sigmoid(z) - y
    return np.matmul(np.swapaxes(X, -1, -2), r[..., None])[..., 0]


def _global_grads(problem: Problem, W: np.ndarray) -> np.ndarray:
    """global_gradient at each row of W.

    Logistic problems evaluate every (row, user) pair in one stacked call
    and add the users' terms to lam * W sequentially in user order.
    """
    if isinstance(problem.loss_kind, Ridge):
        return np.matmul(problem._gram_global, W[:, :, None])[:, :, 0] - problem._moment_global + problem.lam * W
    F = _fit_grads(problem.loss_kind, problem.inputs, problem.targets, W[:, None, :])
    terms = problem.user_weights[:, None] * (F / problem.counts[:, None])
    return np.cumsum(np.concatenate([problem.lam * W[:, None, :], terms], axis=1), axis=1)[:, -1]


def local_gradient(problem: Problem, m: int, w) -> np.ndarray:
    """Exact gradient of local_loss(problem, m, .)."""
    if not 0 <= m < problem.n_users:
        raise ValueError(f"user index {m} out of range [0, {problem.n_users})")
    w = _check_w(problem, w)
    if isinstance(problem.loss_kind, Ridge):
        return problem.grams[m] @ w - problem.moments[m] + problem.lam * w
    s = problem.counts[m]
    X = problem.inputs[m, :s]
    return X.T @ (_sigmoid(X @ w) - problem.targets[m, :s]) / s + problem.lam * w


def global_gradient(problem: Problem, w) -> np.ndarray:
    """Exact gradient of global_loss(problem, .)."""
    return _global_grads(problem, _check_w(problem, w)[None])[0]


def local_stoch_grad(
    problem: Problem,
    ids,
    W,
    oracle: OracleSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Stochastic gradients of a batch of users: row i is user ids[i]'s at W[i].

    The full oracle ignores rng. The others read one whole block from it
    with a row per user 0..M-1, whatever the batch, and keep the rows of
    ``ids`` (a minibatch step over a range of ids skips the other rows'
    words), so a user's draw, like its gradient, does not depend on which
    users share the batch. Every call advances rng by the same amount, so
    a caller that draws its local steps in turn from one generator (one
    per round, keyed (round,)) reads step k's block at the same offset for
    every batch. A step-1 range inside [0, M) is indexed by views of the
    per-user arrays, with the same results.

    Minibatch draw rule: the block holds one raw 64-bit word of rng per
    (user, sample), the words ``rng.random`` would turn into keys by
    keeping their top 53 bits. A user's batch is its ``batch_size``
    samples of smallest key, in ascending key order, ties broken by sample
    index, with the keys cut to their top 64 - ceil(log2 S_max) bits: for
    S_max <= 2048 these hold all 53 bits of ``rng.random``'s keys, so the
    batch is the samples of the smallest ``rng.random`` keys. That is a
    uniform subset drawn without replacement.
    """
    rows = _user_rows(problem, ids)
    sliced = isinstance(rows, slice)
    n = rows.stop - rows.start if sliced else rows.size
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (n, problem.dim):
        raise ValueError(f"need W ({n}, {problem.dim}) for {n} ids, got {W.shape}")
    kind, lam = problem.loss_kind, problem.lam
    if oracle.kind == "full":
        if isinstance(kind, Ridge):
            return np.matmul(problem.grams[rows], W[:, :, None])[:, :, 0] - problem.moments[rows] + lam * W
        fit = _fit_grads(kind, problem.inputs[rows], problem.targets[rows], W)
        return fit / problem.counts[rows, None] + lam * W
    if rng is None:
        raise ValueError(f"{oracle.kind} oracle needs a random generator")
    if oracle.kind == "minibatch":
        b = oracle.batch_size
        ids = np.arange(rows.start, rows.stop) if sliced else rows
        short = ids[problem.counts[ids] < b]
        if short.size:
            m = short[0]
            raise ValueError(f"batch_size {b} exceeds user {m}'s {problem.counts[m]} samples")
        flat = _minibatch(problem, rows, ids, b, rng)
        X = problem.inputs.reshape(-1, problem.dim).take(flat, axis=0)
        return _fit_grads(kind, X, problem.targets.take(flat), W) / b + lam * W
    # relative_noise: perturb the global gradient along a uniform unit direction.
    G = _global_grads(problem, W)
    if oracle.delta == 0.0:
        return G
    D = rng.standard_normal((problem.n_users, problem.dim))[rows]
    D /= _row_norms(D)[:, None]
    return G + oracle.delta * _row_norms(G)[:, None] * D


def _minibatch(problem: Problem, rows, ids: np.ndarray, b: int, rng: np.random.Generator) -> np.ndarray:
    """Flat sample indices (n, b) into the (M * S_max) stacked rows: one step's batches, by ``local_stoch_grad``'s rule.

    Each raw word's low ceil(log2 S_max) bits are overwritten with its
    sample's tag (``Problem._sample_tags``: its index, all ones at padding),
    so one uint64 sort per row (numpy's SIMD sort) orders the samples by
    key, then index, and the low bits of its first b entries are the batch.

    For a step-1 range of ids on a PCG64 stream, only the range's words are
    drawn: ``advance`` skips the rows before and after it, so the stream
    ends where the whole block would leave it. ``advance`` also drops a
    buffered 32-bit half-word, which only 32-bit draws leave; the oracles
    make none.
    """
    M, S = problem.targets.shape
    index_bits = np.uint64((1 << (S - 1).bit_length()) - 1)
    bits = rng.bit_generator
    if isinstance(rows, slice) and type(bits) is np.random.PCG64:
        bits.advance(rows.start * S)
        keys = bits.random_raw((rows.stop - rows.start) * S).reshape(-1, S)
        bits.advance((M - rows.stop) * S)
    else:
        keys = bits.random_raw(M * S).reshape(M, S)[rows]
    keys &= ~index_bits
    keys |= problem._sample_tags[rows]
    keys.sort(axis=1)
    return (keys[:, :b] & index_bits).astype(np.intp) + S * ids[:, None]


def constants(problem: Problem, oracle: OracleSpec | None = None) -> SmoothnessConstants:
    """Certified (mu, L) for the global loss, plus the oracle's delta.

    One symmetric eigendecomposition (ascending ``eigvalsh``). Ridge: the
    extreme eigenvalues of the regularized Hessian, which must be positive
    definite within the ``matrix_rank`` tolerance (else LinAlgError).
    Logistic: 1/4 of the Gram's largest eigenvalue (the sigmoid's curvature
    cap) plus lam, and the conservative mu = lam. delta echoes a
    relative_noise oracle's level and is 0 otherwise (for minibatch too,
    whose noise is not relatively bounded - see OracleSpec).
    """
    delta = oracle.delta if oracle is not None and oracle.kind == "relative_noise" else 0.0
    if isinstance(problem.loss_kind, Ridge):
        eigs = np.linalg.eigvalsh(problem._gram_global + problem.lam * np.eye(problem.dim))
        if not _positive_definite(eigs):
            msg = f"smallest eigenvalue {eigs[0]:.3e}, largest {eigs[-1]:.3e}; set problem.reg > 0"
            raise np.linalg.LinAlgError(f"ridge Hessian is not positive definite: {msg}")
        return SmoothnessConstants(mu=float(eigs[0]), L_const=float(eigs[-1]), delta=delta)
    L = 0.25 * float(np.linalg.eigvalsh(problem._gram_global)[-1]) + problem.lam
    return SmoothnessConstants(mu=problem.lam, L_const=L, delta=delta)


def optimum(
    problem: Problem,
    consts: SmoothnessConstants | None = None,
    grad_tol: float = 1e-10,
    max_iters: int = 500_000,
) -> tuple[np.ndarray, float]:
    """Global minimizer w* and its loss value.

    Ridge: the Problem's ``center``, its one solve of the normal equations,
    once the residual is checked to be <= 1e-12 * ||b||; f* is the loss at
    that centring point. Logistic: full-gradient descent (step 2/(mu+L)) to
    gradient norm <= grad_tol; an oracle, not a closed form.
    ``consts`` are the problem's constants(), computed here when not given.
    Raises RuntimeError with the residual if the solve does not converge.
    """
    if isinstance(problem.loss_kind, Ridge):
        w, b = problem.center, problem._moment_global
        H = problem._gram_global + problem.lam * np.eye(problem.dim)
        residual, target = np.linalg.norm(b - H @ w), _SOLVE_RTOL * np.linalg.norm(b)
        if residual > target:
            raise RuntimeError(
                f"normal-equation solve stalled at residual {residual:.3e} "
                f"(target {target:.3e}); Hessian may be near-singular"
            )
        return w, global_loss(problem, w)

    if consts is None:
        consts = constants(problem)
    step = 2.0 / (consts.mu + consts.L_const)
    w = np.zeros(problem.dim)
    for _ in range(max_iters):
        g = global_gradient(problem, w)
        if np.linalg.norm(g) <= grad_tol:
            return w, global_loss(problem, w)
        w = w - step * g
    raise RuntimeError(
        f"gradient descent did not reach ||grad|| <= {grad_tol:.1e} in {max_iters} iterations "
        f"(current norm {np.linalg.norm(global_gradient(problem, w)):.3e})"
    )


def test_accuracy(problem: Problem, w) -> float:
    """Fraction of held-out labels matched by thresholding the sigmoid at 1/2."""
    if not isinstance(problem.loss_kind, Logistic):
        raise ValueError("test accuracy is defined for logistic problems only")
    if problem.test_set is None:
        raise ValueError("problem has no held-out test set")
    w = _check_w(problem, w)
    pred = (problem.test_set.inputs @ w) >= 0.0
    return float(np.mean(pred == (problem.test_set.targets >= 0.5)))


def make_synthetic(
    p: int,
    M: int,
    S_per_user: int,
    seed: int,
    heterogeneity: float = 0.0,
    loss_kind: LossKind = Ridge(lam=0.5),
    test_size: int = 500,
) -> Problem:
    """Generate a reproducible synthetic problem.

    Each user's features are sqrt(1-h)*shared + sqrt(h)*independent draws,
    so heterogeneity h=0 hands every user the bitwise-identical dataset
    (local gradients then equal the global gradient exactly) and h=1 makes
    users independent, with standard-normal marginals throughout. Targets
    come from a hidden weight vector: noisy linear responses for ridge,
    thresholded noisy margins for logistic. Logistic problems also carry a
    held-out test set drawn from the shared distribution.
    """
    if p < 1 or M < 1 or S_per_user < 1:
        raise ValueError(f"p, M, S_per_user must be >= 1, got {p}, {M}, {S_per_user}")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError(f"heterogeneity must lie in [0, 1], got {heterogeneity}")

    a = np.sqrt(1.0 - heterogeneity)
    b = np.sqrt(heterogeneity)
    w_true = substream(seed, "data-wtrue").standard_normal(p) / np.sqrt(p)
    X_shared = substream(seed, "data-x-shared").standard_normal((S_per_user, p))
    noise_shared = substream(seed, "data-noise-shared").standard_normal(S_per_user)

    if heterogeneity == 0.0:
        # b = 0 would scale the per-user draws to zeros: every user holds the shared draws.
        X = np.broadcast_to(X_shared, (M, S_per_user, p))
        eps = np.broadcast_to(noise_shared, (M, S_per_user))
    else:
        # User m's draws come from the keys ("data-x", m) and ("data-noise", m).
        # Scaling them in place, then adding the shared term, rounds exactly
        # as a * shared + b * draw.
        X, eps = np.empty((M, S_per_user, p)), np.empty((M, S_per_user))
        for rng, x in zip(substreams(seed, "data-x", M), X):
            rng.standard_normal(out=x)
        for rng, e in zip(substreams(seed, "data-noise", M), eps):
            rng.standard_normal(out=e)
        X *= b
        X += a * X_shared
        eps *= b
        eps += a * noise_shared
    margin = np.matmul(X, w_true)
    y = margin + 0.1 * eps if isinstance(loss_kind, Ridge) else (margin + 0.5 * eps > 0.0).astype(np.float64)

    test_set = None
    if isinstance(loss_kind, Logistic) and test_size > 0:
        rng = substream(seed, "data-test")
        X_test = rng.standard_normal((test_size, p))
        y_test = (X_test @ w_true + 0.5 * rng.standard_normal(test_size) > 0.0).astype(np.float64)
        test_set = Dataset(inputs=X_test, targets=y_test)

    return Problem(X, y, np.full(M, S_per_user), loss_kind, test_set)


def problem_from_csv(paths, loss_kind: LossKind) -> Problem:
    """Build a problem from one CSV per user: feature columns then a final label column."""
    users = []
    for path in paths:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
        if table.shape[1] < 2:
            raise ValueError(f"{path}: need at least one feature column and a label column")
        users.append(Dataset(inputs=table[:, :-1], targets=table[:, -1]))
    return Problem.from_datasets(users, loss_kind)
