import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from byzfl.aggregation import (
    _majority_point,
    _row_norms,
    _subgradient_excess,
    ball_robustness_check,
    coordinate_median,
    geomed_objective,
    geometric_median,
    mean,
    trimmed_mean,
)
from byzfl.config import AggregatorSpec
from byzfl.theory import c_beta


def grid_argmin_1d(points, lo, hi, step):
    """Brute-force oracle: minimize the distance sum over a 1-D grid."""
    grid = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    objs = np.abs(grid[:, None] - np.asarray(points)[None, :]).sum(axis=1)
    return float(grid[np.argmin(objs)]), float(objs.min())


def grid_min_2d(points, center, half_width, n=121):
    """Brute-force oracle: best objective over an n x n grid around center."""
    pts = np.asarray(points, dtype=np.float64)
    xs = np.linspace(center[0] - half_width, center[0] + half_width, n)
    ys = np.linspace(center[1] - half_width, center[1] + half_width, n)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d = np.linalg.norm(grid[:, None, :] - pts[None, :, :], axis=2).sum(axis=1)
    return float(d.min())


class TestObjective:
    def test_single_distance(self):
        assert geomed_objective([(0.0, 0.0)], (3.0, 4.0)) == pytest.approx(5.0)

    def test_symmetric_pair(self):
        assert geomed_objective([(1.0, 0.0), (-1.0, 0.0)], (0.0, 0.0)) == pytest.approx(2.0)

    def test_hand_sum(self):
        # distances 0 + 4 + 3
        pts = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]
        assert geomed_objective(pts, (0.0, 0.0)) == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            geomed_objective([(1.0, 2.0)], (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            geomed_objective([(1.0, 2.0), (1.0, 2.0, 3.0)], (1.0, 2.0))

    def test_empty_points(self):
        with pytest.raises(ValueError):
            geomed_objective([], (0.0,))


class TestGeometricMedian:
    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    @pytest.mark.parametrize("p", [1, 7])
    def test_row_norms_equal_linalg_norm_bitwise(self, scale, p):
        d = scale * np.random.default_rng(p).standard_normal((40, p))
        d[[3, 17]] = 0.0
        assert np.array_equal(_row_norms(d), np.linalg.norm(d, axis=1))

    def test_subgradient_excess_masks_rows_whose_distance_underflows(self):
        # The tiny row's squares underflow: distance 0, a nonzero row, and
        # divided by the tiny floor it would swamp the sum.
        diffs = np.array([[1e-170, 0.0], [0.0, 0.0], [3.0, 4.0], [0.0, -2.0]])
        dists = _row_norms(diffs)
        assert dists[0] == 0.0
        assert _subgradient_excess(diffs, dists, 0.0) == pytest.approx(np.hypot(0.6, -0.2) - 2.0, rel=1e-15)
        assert _subgradient_excess(diffs[2:], dists[2:], 0.0) == pytest.approx(np.hypot(0.6, -0.2), rel=1e-15)

    def test_single_point_exact(self):
        res = geometric_median([(2.0, 7.0)])
        assert np.array_equal(res.value, np.array([2.0, 7.0]))
        assert res.converged and res.residual == 0.0

    def test_symmetry_forces_center(self):
        res = geometric_median([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
        assert np.allclose(res.value, 0.0, atol=1e-12)
        assert res.converged

    def test_1d_matches_grid_oracle(self):
        # Frozen from the grid oracle over [-1, 11] at step 1e-4: argmin = 1.
        pts = [0.0, 1.0, 10.0]
        arg, _ = grid_argmin_1d(pts, -1.0, 11.0, 1e-4)
        assert arg == pytest.approx(1.0, abs=1e-9)
        res = geometric_median([np.array([v]) for v in pts])
        assert res.value[0] == pytest.approx(1.0, abs=1e-8)

    def test_strict_majority_bitwise_exact(self):
        pts = [
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            np.array([50.0, 50.0]),
            np.array([-99.0, 3.0]),
        ]
        res = geometric_median(pts)
        assert res.value.tobytes() == pts[0].tobytes()
        assert res.iterations == 0 and res.converged
        # Grid oracle confirms the shared point is the minimizer.
        best = grid_min_2d(pts, (0.0, 0.0), 2.0)
        assert res.objective <= best + 1e-9

    def test_majority_point_equals_bytes_count(self):
        # Reference: count each row's bytes in a dict. Rows are drawn from a
        # few prototypes over a small alphabet holding +-0.0, adjacent floats
        # and subnormals, so coordinate-wise majorities without a majority
        # row, exact half ties at even n, and n = 1 all occur.
        def by_bytes(pts):
            counts = {}
            for row in pts:
                counts[row.tobytes()] = counts.get(row.tobytes(), 0) + 1
            best = max(counts.items(), key=lambda kv: kv[1])
            return np.frombuffer(best[0]) if 2 * best[1] > len(pts) else None

        alphabet = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324, -5e-324, -3.5])
        rng = np.random.default_rng(8)
        seen = {"majority": 0, "none": 0, "half": 0}
        for _ in range(5000):
            n, p = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            protos = rng.choice(alphabet, size=(int(rng.integers(1, 4)), p))
            pts = protos[rng.integers(0, len(protos), size=n)]
            if n % 2 == 0 and rng.random() < 0.3:
                pts[: n // 2] = pts[0]
                pts[n // 2 :] = np.where(pts[0] == 0.0, -pts[0], np.nextafter(pts[0], 9.0))
                seen["half"] += 1
            got, want = _majority_point(pts), by_bytes(pts)
            if want is None:
                assert got is None
                seen["none"] += 1
            else:
                assert got is not None and got.tobytes() == want.tobytes()
                seen["majority"] += 1
        assert min(seen.values()) > 500, seen
        assert _majority_point(np.array([[-0.0, 2.0]])).tobytes() == np.array([-0.0, 2.0]).tobytes()

    def test_converged_residual_below_tol(self):
        rng = np.random.default_rng(0)
        cfg = AggregatorSpec()
        for _ in range(50):
            pts = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(1, 6))))
            res = geometric_median(pts, cfg)
            if res.converged:
                assert res.residual <= cfg.tol

    def test_objective_beats_all_candidates(self):
        rng = np.random.default_rng(1)
        cfg = AggregatorSpec()
        for _ in range(50):
            n, p = int(rng.integers(2, 15)), int(rng.integers(1, 8))
            pts = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
            res = geometric_median(pts, cfg)
            slack = n * cfg.tol
            for row in pts:
                assert res.objective <= geomed_objective(pts, row) + slack
            assert res.objective <= geomed_objective(pts, pts.mean(axis=0)) + slack
            for _ in range(100):
                probe = res.value + rng.standard_normal(p) * 1e-3
                assert res.objective <= geomed_objective(pts, probe) + slack

    def test_monotone_descent(self):
        # Re-run the iteration by hand and check the objective never rises.
        rng = np.random.default_rng(2)
        for _ in range(30):
            n, p = int(rng.integers(3, 20)), int(rng.integers(1, 10))
            pts = rng.standard_normal((n, p))
            x = pts.mean(axis=0)
            floor = AggregatorSpec().tol
            prev = geomed_objective(pts, x)
            for _ in range(200):
                d = np.maximum(np.linalg.norm(pts - x, axis=1), floor)
                w = 1.0 / d
                x = w @ pts / w.sum()
                obj = geomed_objective(pts, x)
                assert obj <= prev * (1 + 1e-12)
                prev = obj

    def test_max_iters_returns_unconverged(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 4))
        res = geometric_median(pts, AggregatorSpec(tol=1e-14, max_iters=2))
        assert res.iterations == 2
        assert not res.converged

    @pytest.mark.parametrize("dim", [1, 2])
    def test_far_from_origin_leaves_nonoptimal_start_vertex(self, dim):
        # The mean c lands exactly on a data point that is not the median
        # c - 1. At |c| = 1e8 the escaping steps (~1e-9) are below one ulp
        # of the raw coordinates, so the iterate only leaves that vertex in
        # the median-centred frame.
        c = 1e8
        offsets = np.array([0.0, 5.0, -1.0, -2.0, -2.0])
        pts = c + np.repeat(offsets[:, None], dim, axis=1)
        res = geometric_median(pts)
        assert res.converged
        assert np.array_equal(res.value, np.full(dim, c - 1.0))

    def test_order_statistic_start_halves_the_iterations(self):
        # ridge_noisy's shape: 40 honest rows in a tight ball, 10 rows with
        # sigma = 10. The mean, which the far rows drag ~2 away, costs about
        # eight iterations to cross into the cluster; the coordinate-wise
        # order statistic starts inside it. A ball within the distance floor
        # (tol), as ridge_noisy's clusters (~3e-11 wide) are, halves the
        # iterations; a wider one adds the same in-cluster iterations to
        # both starts, so the order statistic is only faster.
        def mean_start_weiszfeld(pts, tol, max_iters):
            mid = pts.shape[0] // 2
            c = np.partition(pts, mid, axis=0)[mid]
            z = pts - c
            x = z.mean(axis=0)
            for it in range(1, max_iters + 1):
                w = 1.0 / np.maximum(np.linalg.norm(x - z, axis=1), tol)
                x_next = w @ z / w.sum()
                step, x = np.linalg.norm(x_next - x), x_next
                d = np.maximum(np.linalg.norm(x - z, axis=1), tol)
                if step <= tol and np.linalg.norm(((x - z) / d[:, None]).sum(axis=0)) <= tol:
                    return x + c, it
            raise AssertionError("the reference did not converge")

        spec = AggregatorSpec()
        for radius, seed in itertools.product((3e-11, 1e-9), range(10)):
            rng = np.random.default_rng(seed)
            p = 10
            dirs = rng.standard_normal((40, p))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            honest = rng.standard_normal(p) + radius * rng.random((40, 1)) ** (1 / p) * dirs
            pts = np.vstack([honest, 10.0 * rng.standard_normal((10, p))])
            res = geometric_median(pts, spec)
            ref, ref_iters = mean_start_weiszfeld(pts, spec.tol, spec.max_iters)
            assert res.converged
            assert np.linalg.norm(res.value - ref) <= 10 * spec.tol
            if radius <= spec.tol:
                assert 2 * res.iterations <= ref_iters, (radius, res.iterations, ref_iters)
            else:
                assert res.iterations < ref_iters, (radius, res.iterations, ref_iters)

    # Positional equivariance within 10*tol is checked on 1000 generic random
    # configurations in byzfl.verify (and the acceptance suite). Hypothesis is
    # free to construct exactly degenerate configurations (flat valleys, ties)
    # where the minimizer's position is ill-conditioned, so here the invariant
    # is asserted at the objective level, which is degeneracy-robust.

    @given(
        arrays(np.float64, (7, 3), elements=st.floats(-100, 100)),
        arrays(np.float64, (3,), elements=st.floats(-50, 50)),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_equivariance_objective(self, pts, shift):
        pts = pts.round(6)
        shift = shift.round(3)
        cfg = AggregatorSpec()
        base = geometric_median(pts, cfg)
        moved = geometric_median(pts + shift, cfg)
        scale = 1.0 + np.abs(pts).max() + np.abs(shift).max()
        slack = pts.shape[0] * (10 * cfg.tol + 1e-12 * scale)
        assert moved.objective <= geomed_objective(pts + shift, base.value + shift) + slack
        assert base.objective <= geomed_objective(pts, moved.value - shift) + slack

    @given(
        arrays(np.float64, (6, 2), elements=st.floats(-10, 10)),
        st.floats(min_value=0.01, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_equivariance_objective(self, pts, s):
        pts = pts.round(6)
        cfg = AggregatorSpec()
        base = geometric_median(pts, cfg)
        scaled = geometric_median(s * pts, cfg)
        slack = s * pts.shape[0] * (10 * cfg.tol + 1e-12 * (1.0 + np.abs(pts).max()))
        assert scaled.objective <= s * base.objective + slack
        assert s * base.objective <= scaled.objective + slack

    def test_positional_equivariance_generic_cases(self):
        from byzfl.verify import equivariance_cases

        assert equivariance_cases(n_cases=200, seed=6) == []

    def test_1d_odd_count_equals_median(self):
        rng = np.random.default_rng(4)
        cfg = AggregatorSpec()
        for _ in range(200):
            n = int(rng.integers(1, 12)) * 2 + 1
            pts = rng.standard_normal((n, 1)) * 10
            res = geometric_median(pts, cfg)
            assert abs(res.value[0] - np.median(pts)) <= 1e-7


class TestBaselines:
    def test_mean_hand_case(self):
        assert np.allclose(mean([(0.0, 0.0), (2.0, 2.0)]), [1.0, 1.0])

    def test_coordinate_median_odd(self):
        assert coordinate_median([[0.0], [1.0], [10.0]])[0] == pytest.approx(1.0)

    def test_coordinate_median_even_averages_middle(self):
        assert coordinate_median([[0.0], [1.0], [3.0], [10.0]])[0] == pytest.approx(2.0)

    def test_trimmed_mean_hand_case(self):
        # floor(0.2 * 5) = 1 from each tail: mean of {1, 2, 3} = 2
        got = trimmed_mean([[0.0], [1.0], [2.0], [3.0], [100.0]], 0.2)
        assert got[0] == pytest.approx(2.0)

    def test_trimmed_mean_zero_fraction_is_mean(self):
        pts = np.arange(12.0).reshape(4, 3)
        assert np.allclose(trimmed_mean(pts, 0.0), mean(pts))

    def test_trimmed_mean_rejects_half(self):
        with pytest.raises(ValueError):
            trimmed_mean([[0.0], [1.0]], 0.5)

    def test_equal_points_return_the_point_exactly(self):
        # np.mean of n copies of a row rounds away from it for most rows.
        rng = np.random.default_rng(0)
        for _ in range(500):
            row = rng.standard_normal(4) * 10.0 ** rng.integers(-3, 4)
            pts = np.tile(row, (rng.integers(1, 61), 1))
            assert np.array_equal(mean(pts), row)
            assert np.array_equal(trimmed_mean(pts, rng.uniform(0.0, 0.5)), row)

    def test_empty_rejected(self):
        for fn in (mean, coordinate_median):
            with pytest.raises(ValueError):
                fn([])

    @given(arrays(np.float64, (9, 4), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50)
    def test_permutation_invariance(self, pts):
        perm = np.random.default_rng(0).permutation(9)
        assert np.array_equal(coordinate_median(pts), coordinate_median(pts[perm]))
        assert np.allclose(mean(pts), mean(pts[perm]))
        assert np.array_equal(trimmed_mean(pts, 0.2), trimmed_mean(pts[perm], 0.2))


class TestRobustness:
    def test_cert_values(self):
        # C_alpha = c_beta(q / n): 6 at q/n = 2/5 and 2 without corruption.
        assert c_beta(2 / 5) == pytest.approx(6.0)
        assert c_beta(0 / 3) == pytest.approx(2.0)
        # The check accepts a value at exactly C_alpha * r and rejects one past it.
        pts = [np.zeros(2)] * 3 + [np.array([1e3, 0.0])] * 2
        for radius in (1.0, 0.25):
            edge = np.array([c_beta(2 / 5) * radius, 0.0])
            assert ball_robustness_check(pts, np.zeros(2), radius, q=2, value=edge)
            assert not ball_robustness_check(pts, np.zeros(2), radius, q=2, value=np.nextafter(edge, 1e9))

    def test_cert_rejects_half_corruption(self):
        for beta in (0.6, 0.5, -0.2):
            with pytest.raises(ValueError, match="beta must lie"):
                c_beta(beta)
        for n, q in ((5, 3), (4, 2), (4, -1)):
            pts = [np.zeros(2)] * n
            with pytest.raises(ValueError, match="beta must lie"):
                ball_robustness_check(pts, np.zeros(2), 1.0, q=q, value=np.zeros(2))

    def test_majority_coincidence_radius_zero(self):
        pts = [np.zeros(2), np.zeros(2), np.array([1e6, 1e6])]
        assert ball_robustness_check(pts, np.zeros(2), 0.0, q=1, value=geometric_median(pts).value)

    def test_hand_case_alpha_04(self):
        # Three honest within radius 1 of the origin, two far away:
        # bound C_0.4 * 1 = 6; verified against the 2-D grid oracle.
        pts = [
            np.array([0.5, 0.0]),
            np.array([-0.3, 0.4]),
            np.array([0.0, -0.9]),
            np.array([500.0, -200.0]),
            np.array([-1000.0, 1e6]),
        ]
        assert ball_robustness_check(pts, np.zeros(2), 1.0, q=2, value=geometric_median(pts).value)
        res = geometric_median(pts)
        assert np.linalg.norm(res.value) <= 6.0
        best = grid_min_2d(pts, (0.0, 0.0), 6.5, n=201)
        assert res.objective <= best + 1e-6 * (1 + best)

    def test_rejects_q_at_half(self):
        pts = [np.zeros(2)] * 5
        with pytest.raises(ValueError):
            ball_robustness_check(pts, np.zeros(2), 1.0, q=3, value=geometric_median(pts).value)

    def test_rejects_violated_precondition(self):
        pts = [np.array([10.0, 0.0]), np.array([20.0, 0.0]), np.array([30.0, 0.0])]
        with pytest.raises(ValueError):
            ball_robustness_check(pts, np.zeros(2), 0.5, q=1, value=geometric_median(pts).value)

    def test_tight_cluster_far_from_origin_converges(self):
        # Worst case for float64: 40 honest points within r = 1e-8 of a
        # center of norm 1, 10 outliers at distance ~30. Uncentred, every
        # unit vector carries ~1e-8 relative error and tol is unreachable.
        rng = np.random.default_rng(5)
        p, r = 10, 1e-8
        center = rng.standard_normal(p)
        center /= np.linalg.norm(center)
        inner = rng.standard_normal((40, p))
        inner *= (r * rng.uniform(0.0, 1.0, 40) / np.linalg.norm(inner, axis=1))[:, None]
        outer = rng.standard_normal((10, p))
        outer *= (30.0 / np.linalg.norm(outer, axis=1))[:, None]
        pts = np.vstack([center + inner, center + outer])
        res = geometric_median(pts)
        assert res.converged
        assert res.iterations <= 100
        assert np.linalg.norm(res.value - center) <= c_beta(10 / 50) * r

    def test_three_far_rows_leave_a_finite_median(self):
        # Rows at +-1.3e154 * e1 have finite squared norms, so the server
        # keeps them. From the mean (~6.5e152 * e1) the distance to the
        # negative row would square past the float range and give a nan
        # median; the order statistic starts in the honest cluster. How far
        # the median may then move is the ball guarantee's question.
        rng = np.random.default_rng(1)
        e1 = np.eye(5)[0]
        honest = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, (17, 5))
        pts = np.vstack([honest, 1.3e154 * e1, 1.3e154 * e1, -1.3e154 * e1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = geometric_median(pts)
        assert res.converged
        assert np.isfinite(res.value).all() and np.isfinite(res.objective)

    def test_randomized_cases(self):
        # Small slice of the verification suite; the full 10k-case run lives
        # in the acceptance tests.
        from byzfl.verify import ball_robustness_cases

        failures = ball_robustness_cases(n_cases=300, seed=123)
        assert failures == []
