import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from byzfl.aggregation import (
    RobustnessCert,
    WeiszfeldConfig,
    ball_robustness_check,
    coordinate_median,
    geomed_objective,
    geometric_median,
    mean,
    trimmed_mean,
)


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

    def test_converged_residual_below_tol(self):
        rng = np.random.default_rng(0)
        cfg = WeiszfeldConfig()
        for _ in range(50):
            pts = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(1, 6))))
            res = geometric_median(pts, cfg)
            if res.converged:
                assert res.residual <= cfg.tol

    def test_objective_beats_all_candidates(self):
        rng = np.random.default_rng(1)
        cfg = WeiszfeldConfig()
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
            spread = np.linalg.norm(pts - x, axis=1).max()
            floor = 1e-10 * spread
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
        res = geometric_median(pts, WeiszfeldConfig(tol=1e-14, max_iters=2))
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
        cfg = WeiszfeldConfig()
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
        cfg = WeiszfeldConfig()
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
        cfg = WeiszfeldConfig()
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
        cert = RobustnessCert(n=5, q=2)
        assert cert.alpha == pytest.approx(0.4)
        assert cert.c_alpha == pytest.approx(6.0)
        assert RobustnessCert(n=3, q=0).c_alpha == pytest.approx(2.0)

    def test_cert_rejects_half_corruption(self):
        with pytest.raises(ValueError):
            RobustnessCert(n=5, q=3)
        with pytest.raises(ValueError):
            RobustnessCert(n=4, q=2)

    def test_majority_coincidence_radius_zero(self):
        pts = [np.zeros(2), np.zeros(2), np.array([1e6, 1e6])]
        assert ball_robustness_check(pts, np.zeros(2), 0.0, q=1)

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
        assert ball_robustness_check(pts, np.zeros(2), 1.0, q=2)
        res = geometric_median(pts)
        assert np.linalg.norm(res.value) <= 6.0
        best = grid_min_2d(pts, (0.0, 0.0), 6.5, n=201)
        assert res.objective <= best + 1e-6 * (1 + best)

    def test_rejects_q_at_half(self):
        pts = [np.zeros(2)] * 5
        with pytest.raises(ValueError):
            ball_robustness_check(pts, np.zeros(2), 1.0, q=3)

    def test_rejects_violated_precondition(self):
        pts = [np.array([10.0, 0.0]), np.array([20.0, 0.0]), np.array([30.0, 0.0])]
        with pytest.raises(ValueError):
            ball_robustness_check(pts, np.zeros(2), 0.5, q=1)

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
        assert np.linalg.norm(res.value - center) <= RobustnessCert(n=50, q=10).c_alpha * r

    def test_randomized_cases(self):
        # Small slice of the verification suite; the full 10k-case run lives
        # in the acceptance tests.
        from byzfl.verify import ball_robustness_cases

        failures = ball_robustness_cases(n_cases=300, seed=123)
        assert failures == []
