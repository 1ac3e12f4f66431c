"""Robust aggregation of parameter vectors.

The central rule is the geometric median, computed with a smoothed Weiszfeld
iteration; arithmetic mean, coordinate-wise median, and trimmed mean are
provided as baselines. ``ball_robustness_check`` packages the deterministic
robustness guarantee of the geometric median (if at least n - q of n points
lie within radius r of a center and q < n/2, the median lies within
C_alpha * r of that center, C_alpha = ``theory.c_beta(q / n)``) as a
reusable test oracle.

All functions are pure; parameter vectors are 1-D float arrays of a common
dimension p >= 1 with finite entries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import AggregatorSpec
from .theory import c_beta

__all__ = [
    "AggregateResult",
    "geomed_objective",
    "geometric_median",
    "mean",
    "coordinate_median",
    "trimmed_mean",
    "ball_robustness_check",
]

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class AggregateResult:
    """Geometric-median output with convergence diagnostics."""

    value: np.ndarray
    iterations: int
    objective: float
    converged: bool
    residual: float


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
    """Return the point shared bitwise by strictly more than half the rows, if any.

    Such a row sits at position n // 2 of every column sorted in any total
    order, so the only candidate is that position's value of each column's
    bit patterns (+0.0 and -0.0 differ); it is counted exactly.
    """
    n = pts.shape[0]
    bits = np.ascontiguousarray(pts).view(np.int64)
    candidate = np.partition(bits, n // 2, axis=0)[n // 2]
    if 2 * np.count_nonzero((bits == candidate).all(axis=1)) > n:
        return candidate.view(np.float64).copy()
    return None


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Row norms of d, by ``np.linalg.norm(d, axis=1)``'s own arithmetic but without its dispatch."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _subgradient_excess(diffs: np.ndarray, dists: np.ndarray, floor: float) -> float:
    """Norm of the smoothed subgradient at x minus the coincident-point count.

    Takes the rows x - z_i and their norms. Points coincident with x
    contribute the unit ball to the subdifferential, so their count offsets
    the norm of the remaining smoothed terms; a negative value certifies x
    as a strictly interior minimizer of the distance sum. Coincident rows
    are masked out only when there are some: a row whose squares underflow
    has distance 0 but need not be zero itself.
    """
    on_point = dists == 0.0
    n_on = int(np.count_nonzero(on_point))
    safe = np.maximum(dists, max(floor, _TINY))
    if n_on:
        diffs, safe = diffs[~on_point], safe[~on_point]
    g = (diffs / safe[:, None]).sum(axis=0)
    return math.sqrt(g.dot(g)) - n_on


def geometric_median(points, spec: AggregatorSpec | None = None) -> AggregateResult:
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

    The iteration starts at c itself, which for the same reason sits next
    to the honest points however far the corrupted ones lie; the mean,
    which they drag away, is the start only when c coincides with a point,
    where the floored weight of that point would hold the iterate on a
    vertex that need not be optimal. Per-point distances are floored at
    ``tol``, an absolute scale that no point can move: a floor relative to
    the farthest point lets one far upload flatten the weights of the whole
    honest cluster and drag the median out of its ball. Stops when both the
    iterate displacement and the smoothed subgradient norm (``residual``)
    drop to ``tol``, or at ``max_iters`` with ``converged=False``. ``tol``
    and ``max_iters`` come from ``spec`` (default ``AggregatorSpec()``); its
    kind is not read.
    """
    pts = _as_matrix(points)
    spec = spec if spec is not None else AggregatorSpec()

    maj = _majority_point(pts)
    if maj is not None:
        return AggregateResult(
            value=maj,
            iterations=0,
            objective=float(np.linalg.norm(pts - maj, axis=1).sum()),
            converged=True,
            residual=0.0,
        )

    mid = pts.shape[0] // 2
    center = np.partition(pts, mid, axis=0)[mid]
    start = np.zeros(pts.shape[1])
    if (pts == center).all(axis=1).any():
        start = (pts - center).mean(axis=0)
    return _weiszfeld(pts, center, start, spec)


def _weiszfeld(original: np.ndarray, center: np.ndarray, x: np.ndarray, spec: AggregatorSpec) -> AggregateResult:
    """``geometric_median``'s iteration on the rows ``original - center``, from x in that frame."""
    pts = original - center
    dists = _row_norms(x - pts)

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
    for iterations in range(1, spec.max_iters + 1):
        j = int(dists.argmin())
        if j not in rejected_vertices:
            to_vertex = pts[j] - pts
            vertex_dists = _row_norms(to_vertex)
            if _subgradient_excess(to_vertex, vertex_dists, 0.0) <= -spec.tol:
                return AggregateResult(
                    value=original[j].copy(),
                    iterations=iterations,
                    objective=float(vertex_dists.sum()),
                    converged=True,
                    residual=0.0,
                )
            rejected_vertices.add(j)
        weights = 1.0 / np.maximum(dists, spec.tol)
        x_next = weights @ pts / weights.sum()
        step = x_next - x
        displacement = math.sqrt(step.dot(step))
        x = x_next
        diffs = x - pts
        dists = _row_norms(diffs)
        if displacement <= spec.tol and (excess := _subgradient_excess(diffs, dists, spec.tol)) <= spec.tol:
            converged = True
            break
    else:
        excess = _subgradient_excess(diffs, dists, spec.tol)

    return AggregateResult(
        value=x + center,
        iterations=iterations,
        objective=float(dists.sum()),
        converged=converged,
        residual=max(0.0, excess),
    )


def mean(points) -> np.ndarray:
    """Arithmetic average of the points, taken about the first so that equal points return it exactly."""
    pts = _as_matrix(points)
    return pts[0] + (pts - pts[0]).mean(axis=0)


def coordinate_median(points) -> np.ndarray:
    """Per-coordinate median; the two middle values are averaged for even n."""
    return np.median(_as_matrix(points), axis=0)


def trimmed_mean(points, trim_fraction: float) -> np.ndarray:
    """Per-coordinate ``mean`` after dropping floor(trim_fraction * n) values from each tail."""
    pts = _as_matrix(points)
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError(f"trim_fraction must lie in [0, 0.5), got {trim_fraction}")
    k = int(np.floor(trim_fraction * pts.shape[0]))
    return mean(np.sort(pts, axis=0)[k:-k] if k else pts)


def ball_robustness_check(points, center, radius: float, q: int, value) -> bool:
    """Check the deterministic ball guarantee on ``value``, the points' computed geometric median.

    Requires at least n - q points within `radius` of `center` (verified,
    with a relative slack of 1e-9 on the radius for rounding in the
    caller's sampling arithmetic). Returns True iff ``value`` lies within
    C_alpha * radius of the center, C_alpha = ``theory.c_beta(q / n)``,
    which raises ValueError unless 0 <= q < n/2.
    """
    pts = _as_matrix(points)
    center = _check_vector(center, pts.shape[1])
    value = _check_vector(value, pts.shape[1])
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    n, q = pts.shape[0], int(q)
    c_alpha = c_beta(q / n)
    dists = np.linalg.norm(pts - center, axis=1)
    inside = int((dists <= radius * (1.0 + 1e-9) + 1e-12).sum())
    if inside < n - q:
        raise ValueError(
            f"precondition violated: only {inside} of {n} points lie within "
            f"radius {radius} of the center (need {n - q})"
        )
    return float(np.linalg.norm(value - center)) <= c_alpha * radius
