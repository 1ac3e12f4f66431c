"""Robust aggregation of parameter vectors.

The central rule is the geometric median, computed with a smoothed Weiszfeld
iteration; arithmetic mean, coordinate-wise median, and trimmed mean are
provided as baselines. ``ball_robustness_check`` packages the deterministic
robustness guarantee of the geometric median (if at least n - q of n points
lie within radius r of a center and q < n/2, the median lies within
C_alpha * r of that center, alpha = q/n) as a reusable test oracle.

All functions are pure; parameter vectors are 1-D float arrays of a common
dimension p >= 1 with finite entries.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeiszfeldConfig",
    "AggregateResult",
    "RobustnessCert",
    "geomed_objective",
    "geometric_median",
    "mean",
    "coordinate_median",
    "trimmed_mean",
    "ball_robustness_check",
]


@dataclass(frozen=True)
class WeiszfeldConfig:
    """Stopping and smoothing knobs for the Weiszfeld iteration.

    tol bounds both the iterate displacement and the smoothed-subgradient
    norm at exit; smoothing is a floor on per-point distances, relative to
    the spread of the inputs, that keeps the inverse-distance weights finite
    when the iterate lands on a data point.
    """

    tol: float = 1e-10
    max_iters: int = 1000
    smoothing: float = 1e-10

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.smoothing < 0:
            raise ValueError(f"smoothing must be nonnegative, got {self.smoothing}")


@dataclass(frozen=True)
class AggregateResult:
    """Geometric-median output with convergence diagnostics."""

    value: np.ndarray
    iterations: int
    objective: float
    converged: bool
    residual: float


@dataclass(frozen=True)
class RobustnessCert:
    """Corruption bookkeeping for the geometric-median guarantee."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one point, got n={self.n}")
        if not 0 <= self.q:
            raise ValueError(f"corrupted count must be nonnegative, got q={self.q}")
        if 2 * self.q >= self.n:
            raise ValueError(
                "geometric median has no robustness guarantee at or above half corruption: "
                f"q={self.q}, n={self.n}"
            )

    @property
    def alpha(self) -> float:
        return self.q / self.n

    @property
    def c_alpha(self) -> float:
        return (2.0 - 2.0 * self.alpha) / (1.0 - 2.0 * self.alpha)


def _as_matrix(points) -> np.ndarray:
    """Validate and stack points into an (n, p) float64 matrix."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        pts = np.asarray(points, dtype=np.float64)
    else:
        rows = [np.asarray(z, dtype=np.float64) for z in points]
        if len(rows) == 0:
            raise ValueError("point list must be nonempty")
        dims = {r.shape for r in rows}
        if len(dims) != 1 or rows[0].ndim != 1:
            raise ValueError(f"points must be 1-D vectors of equal dimension, got shapes {dims}")
        pts = np.stack(rows)
    if pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError(f"need n >= 1 points of dimension p >= 1, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    return pts


def _check_vector(z, p: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != p:
        raise ValueError(f"expected a vector of dimension {p}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("vector contains non-finite entries")
    return z


def geomed_objective(points, z) -> float:
    """Sum of Euclidean distances from z to the points."""
    pts = _as_matrix(points)
    z = _check_vector(z, pts.shape[1])
    return float(np.linalg.norm(pts - z, axis=1).sum())


def _majority_point(pts: np.ndarray) -> np.ndarray | None:
    """Return the point shared bitwise by strictly more than half the rows, if any."""
    counts: dict[bytes, int] = {}
    for row in pts:
        counts[row.tobytes()] = counts.get(row.tobytes(), 0) + 1
    best = max(counts.items(), key=lambda kv: kv[1])
    if 2 * best[1] > pts.shape[0]:
        return np.frombuffer(best[0], dtype=np.float64).copy()
    return None


def _subgradient_excess(diffs: np.ndarray, dists: np.ndarray, floor: float) -> float:
    """Norm of the smoothed subgradient at x minus the coincident-point count.

    Takes the rows x - z_i and their norms. Points coincident with x
    contribute the unit ball to the subdifferential, so their count offsets
    the norm of the remaining smoothed terms; a negative value certifies x
    as a strictly interior minimizer of the distance sum.
    """
    on_point = dists == 0.0
    safe = np.maximum(dists, max(floor, np.finfo(np.float64).tiny))
    g = (diffs[~on_point] / safe[~on_point, None]).sum(axis=0)
    return float(np.linalg.norm(g) - int(on_point.sum()))


def geometric_median(points, cfg: WeiszfeldConfig | None = None) -> AggregateResult:
    """Geometric median via smoothed Weiszfeld iteration.

    A point shared bitwise by strictly more than half the rows is returned
    exactly without iterating: the coincident points certify optimality.
    Otherwise the iteration runs on z_i - c, c the coordinate-wise order
    statistic n // 2 (the median for odd n), and ``value`` is shifted back;
    ``residual`` and ``objective`` are measured in that frame. With fewer
    than half the points corrupted, c lies in every coordinate's honest
    range, so the honest shifted coordinates are exact (Sterbenz) and
    distances inside a tight honest cluster keep full relative precision.
    Unshifted, a cluster 1e-8 wide at distance 1 from the origin puts 1e-8
    relative error in every unit vector, and ``tol`` becomes unreachable.

    Starts from the coordinate-wise mean and iterates inverse-distance
    weighted averages, with per-point distances floored at
    ``smoothing * spread`` (spread = largest distance from the initial mean
    to a point). Stops when both the iterate displacement and the smoothed
    subgradient norm (``residual``) drop to ``tol``, or at ``max_iters``
    with ``converged=False``.
    """
    pts = _as_matrix(points)
    cfg = cfg if cfg is not None else WeiszfeldConfig()

    maj = _majority_point(pts)
    if maj is not None:
        return AggregateResult(
            value=maj,
            iterations=0,
            objective=float(np.linalg.norm(pts - maj, axis=1).sum()),
            converged=True,
            residual=0.0,
        )

    original = pts
    mid = pts.shape[0] // 2
    center = np.partition(pts, mid, axis=0)[mid]
    pts = pts - center
    x = pts.mean(axis=0)
    diffs = x - pts
    dists = np.linalg.norm(diffs, axis=1)
    floor = max(cfg.smoothing * float(dists.max()), np.finfo(np.float64).tiny)

    iterations = 0
    converged = False
    # The minimum can sit exactly on a data point, where Weiszfeld converges
    # sublinearly and the smoothed residual stalls above tol. The vertex's
    # own subgradient condition is a complete optimality certificate, so test
    # the currently nearest point each iteration and return it exactly when
    # it certifies with a strict margin (ties, e.g. flat segments between two
    # points, must fall through to the plain iteration, whose endpoint choice
    # would otherwise be selection-dependent). Vertex optimality is a static
    # property, so failed vertices are cached.
    rejected_vertices: set[int] = set()
    for iterations in range(1, cfg.max_iters + 1):
        j = int(np.argmin(dists))
        if j not in rejected_vertices:
            to_vertex = pts[j] - pts
            vertex_dists = np.linalg.norm(to_vertex, axis=1)
            if _subgradient_excess(to_vertex, vertex_dists, 0.0) <= -cfg.tol:
                return AggregateResult(
                    value=original[j].copy(),
                    iterations=iterations,
                    objective=float(vertex_dists.sum()),
                    converged=True,
                    residual=0.0,
                )
            rejected_vertices.add(j)
        weights = 1.0 / np.maximum(dists, floor)
        x_next = weights @ pts / weights.sum()
        displacement = float(np.linalg.norm(x_next - x))
        x = x_next
        diffs = x - pts
        dists = np.linalg.norm(diffs, axis=1)
        if displacement <= cfg.tol and _subgradient_excess(diffs, dists, floor) <= cfg.tol:
            converged = True
            break

    return AggregateResult(
        value=x + center,
        iterations=iterations,
        objective=float(dists.sum()),
        converged=converged,
        residual=max(0.0, _subgradient_excess(diffs, dists, floor)),
    )


def mean(points) -> np.ndarray:
    """Arithmetic average of the points."""
    return _as_matrix(points).mean(axis=0)


def coordinate_median(points) -> np.ndarray:
    """Per-coordinate median; the two middle values are averaged for even n."""
    return np.median(_as_matrix(points), axis=0)


def trimmed_mean(points, trim_fraction: float) -> np.ndarray:
    """Per-coordinate mean after dropping floor(trim_fraction * n) values from each tail."""
    pts = _as_matrix(points)
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError(f"trim_fraction must lie in [0, 0.5), got {trim_fraction}")
    k = int(np.floor(trim_fraction * pts.shape[0]))
    if k == 0:
        return pts.mean(axis=0)
    ordered = np.sort(pts, axis=0)
    return ordered[k:-k].mean(axis=0)


def ball_robustness_check(
    points,
    center,
    radius: float,
    q: int,
    cfg: WeiszfeldConfig | None = None,
) -> bool:
    """Check the deterministic ball guarantee of the geometric median.

    Requires q < n/2 and at least n - q points within `radius` of `center`
    (verified, with a relative slack of 1e-9 on the radius for rounding in
    the caller's sampling arithmetic). Returns True iff the computed median
    lies within c_alpha * radius of the center.
    """
    pts = _as_matrix(points)
    center = _check_vector(center, pts.shape[1])
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    cert = RobustnessCert(n=pts.shape[0], q=int(q))
    dists = np.linalg.norm(pts - center, axis=1)
    inside = int((dists <= radius * (1.0 + 1e-9) + 1e-12).sum())
    if inside < cert.n - cert.q:
        raise ValueError(
            f"precondition violated: only {inside} of {cert.n} points lie within "
            f"radius {radius} of the center (need {cert.n - cert.q})"
        )
    result = geometric_median(pts, cfg)
    return float(np.linalg.norm(result.value - center)) <= cert.c_alpha * radius
