import warnings
import zlib

import numpy as np
import pytest

from byzfl.config import OracleSpec
from byzfl.problems import (
    Dataset,
    Logistic,
    Problem,
    Ridge,
    constants,
    global_gradient,
    global_loss,
    local_gradient,
    local_loss,
    local_stoch_grad,
    make_synthetic,
    optimum,
    problem_from_csv,
)
from byzfl.problems import _in_order_sum, _minibatch, _sigmoid, _softplus
from byzfl.problems import test_accuracy as held_out_accuracy
from byzfl.rng import substream


def finite_diff_gradient(f, w, h=1e-6):
    """Central-difference oracle for gradients."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2 * h)
    return g


def single_user_problem(X, y, kind):
    return Problem.from_datasets((Dataset(inputs=X, targets=y),), kind)


def csv_problem(tmp_path, rows, kind, seed=0):
    """One CSV per user with 3 feature columns and a label column, ``rows`` rows each; 0/1 labels for logistic."""
    rng = np.random.default_rng(seed)
    paths = []
    for m, n in enumerate(rows):
        table = rng.standard_normal((n, 4))
        if isinstance(kind, Logistic):
            table[:, -1] = table[:, -1] > 0.0
        path = tmp_path / f"user{m}.csv"
        np.savetxt(path, table, delimiter=",")
        paths.append(str(path))
    return problem_from_csv(paths, kind)


class TestLosses:
    def test_ridge_hand_case(self):
        # One sample x=(1,0), y=0, lam=0, w=(2,5): 0.5*(2)^2 = 2.
        prob = single_user_problem(np.array([[1.0, 0.0]]), np.array([0.0]), Ridge(lam=0.0))
        assert local_loss(prob, 0, np.array([2.0, 5.0])) == pytest.approx(2.0)
        assert global_loss(prob, np.array([2.0, 5.0])) == pytest.approx(2.0)

    def test_global_equals_local_for_identical_users(self):
        prob = make_synthetic(p=4, M=5, S_per_user=20, seed=0, heterogeneity=0.0)
        w = substream(9, "w").standard_normal(4)
        l0 = local_loss(prob, 0, w)
        assert global_loss(prob, w) == pytest.approx(l0, rel=1e-12)
        for m in range(5):
            assert local_loss(prob, m, w) == pytest.approx(l0, rel=1e-12)

    def test_loss_minimal_at_optimum(self):
        prob = make_synthetic(p=5, M=3, S_per_user=40, seed=1, heterogeneity=0.5)
        w_star, f_star = optimum(prob)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            assert global_loss(prob, w_star + rng.standard_normal(5) * 0.3) > f_star

    def test_strict_convexity_along_sphere(self):
        prob = make_synthetic(p=4, M=2, S_per_user=30, seed=2, heterogeneity=0.2)
        w_star, f_star = optimum(prob)
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = rng.standard_normal(4)
            d *= 0.1 / np.linalg.norm(d)
            assert global_loss(prob, w_star + d) > f_star

    @pytest.mark.parametrize("kind", [Ridge(lam=0.3), Logistic(lam=0.3)])
    def test_global_loss_is_the_weighted_local_loop(self, kind):
        prob = make_synthetic(p=6, M=13, S_per_user=37, seed=5, heterogeneity=0.6, loss_kind=kind)
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 2)
            loop = float(sum(u * local_loss(prob, m, w) for m, u in enumerate(prob.user_weights)))
            assert global_loss(prob, w) == loop

    def test_global_loss_ignores_padding(self):
        # Zero-padded logistic rows would each add log 2 to their user's fit.
        rng = np.random.default_rng(6)
        users = [
            Dataset(inputs=rng.standard_normal((s, 3)), targets=(rng.random(s) < 0.5).astype(float))
            for s in (3, 9, 5)
        ]
        prob = Problem.from_datasets(users, Logistic(lam=0.2))
        for _ in range(50):
            w = rng.standard_normal(3) * 3.0
            loop = float(sum(u * local_loss(prob, m, w) for m, u in enumerate(prob.user_weights)))
            assert abs(global_loss(prob, w) - loop) <= 1e-12 * abs(loop)

    def test_ridge_global_loss_ignores_padding(self, tmp_path):
        rng = np.random.default_rng(7)
        paths = []
        for m, s in enumerate((3, 11, 6)):
            table = np.column_stack([rng.standard_normal((s, 3)), rng.standard_normal(s)])
            path = tmp_path / f"u{m}.csv"
            np.savetxt(path, table, delimiter=",")
            paths.append(str(path))
        prob = problem_from_csv(paths, Ridge(lam=0.2))
        for _ in range(50):
            w = rng.standard_normal(3) * 3.0
            loop = float(sum(u * local_loss(prob, m, w) for m, u in enumerate(prob.user_weights)))
            assert abs(global_loss(prob, w) - loop) <= 1e-12 * abs(loop)

    def test_ridge_gap_keeps_full_precision_on_a_near_perfect_fit(self):
        # ||w_true|| ~ 1e4 and noise 1e-2: mean(y^2) ~ 1e8 against f* ~ 40,
        # so a form that cancels mean(y^2) would lose about six digits.
        rng = np.random.default_rng(11)
        M, S, p, lam = 20, 50, 5, 1e-6
        w_true = rng.standard_normal(p) * 1e4 / np.sqrt(p)
        X = rng.standard_normal((M, S, p))
        y = X @ w_true + 1e-2 * rng.standard_normal((M, S))
        prob = Problem(X, y, np.full(M, S), Ridge(lam=lam))
        w_star, f_star = optimum(prob)
        eps = np.finfo(np.float64).eps
        Xl, yl = X.astype(np.longdouble), y.astype(np.longdouble)
        ws = w_star.astype(np.longdouble)
        r_star = Xl @ ws - yl
        for s in (1e-2, 1e-5, 1e-8):
            for _ in range(5):
                u = rng.standard_normal(p)
                w = w_star + s * (u / np.linalg.norm(u))
                wl = w.astype(np.longdouble)
                r_w = Xl @ wl - yl
                fits = 0.5 * np.mean((r_w - r_star) * (r_w + r_star), axis=1)
                ref = np.sum(prob.user_weights * fits) + 0.5 * lam * np.dot(wl - ws, wl + ws)
                assert abs((global_loss(prob, w) - f_star) - float(ref)) <= 8 * eps * f_star

    def test_softplus_within_two_ulp_of_long_double(self):
        grid = np.array([0.0, 5e-324, 1e-300, 1e-8, 1.0, 30.0, 700.0, 1e4])
        z = np.concatenate([grid, -grid[1:]])
        zl = z.astype(np.longdouble)
        ref = np.maximum(zl, 0.0) + np.log1p(np.exp(-np.abs(zl)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _softplus(z)
        ulp = np.spacing(np.abs(ref.astype(np.float64)))
        assert np.all(np.abs(out.astype(np.longdouble) - ref) <= 2 * ulp)

    def test_sigmoid_one_division_equals_the_two_branch_form_bitwise(self):
        z = np.random.default_rng(8).standard_normal(10_000) * 10.0 ** np.linspace(-300, 3, 10_000)
        z = np.concatenate([z, -z, [0.0, -0.0, 800.0, -800.0]])
        e = np.exp(-np.abs(z))
        assert np.array_equal(_sigmoid(z), np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))

    def test_logistic_gap_keeps_full_precision_near_the_optimum(self):
        prob = make_synthetic(p=5, M=20, S_per_user=50, seed=1, heterogeneity=0.5, loss_kind=Logistic(lam=0.1))
        w_star, f_star = optimum(prob)
        eps = np.finfo(np.float64).eps
        X, y = prob.inputs.astype(np.longdouble), prob.targets.astype(np.longdouble)

        def reference(w):
            z = np.einsum("msp,p->ms", X, w.astype(np.longdouble))
            fits = np.sum(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z, axis=1) / prob.counts
            return np.sum(prob.user_weights * fits) + 0.5 * prob.lam * np.sum(w.astype(np.longdouble) ** 2)

        assert global_loss(prob, w_star) - f_star == 0.0
        f_ref = reference(w_star)
        rng = np.random.default_rng(12)
        for s in (1e-2, 1e-5, 1e-8):
            for _ in range(5):
                u = rng.standard_normal(5)
                w = w_star + s * (u / np.linalg.norm(u))
                gap, ref = global_loss(prob, w) - f_star, float(reference(w) - f_ref)
                assert abs(gap - ref) <= 4 * eps * f_star
                if s == 1e-2:
                    assert gap > 0.0
                if s == 1e-8:  # the true gap is ~1e-17 here, far below eps * f*
                    assert abs(gap) <= 4 * eps * f_star

    def test_ridge_losses_read_no_samples(self):
        prob = make_synthetic(p=4, M=6, S_per_user=15, seed=4, heterogeneity=0.7)
        w = substream(4, "w").standard_normal(4)
        before = global_loss(prob, w), [local_loss(prob, m, w) for m in range(6)]
        prob.inputs.fill(np.nan)
        prob.targets.fill(np.nan)
        after = global_loss(prob, w), [local_loss(prob, m, w) for m in range(6)]
        assert np.isfinite(after[0]) and after == before

    def test_bad_user_index(self):
        prob = make_synthetic(p=2, M=2, S_per_user=5, seed=3)
        with pytest.raises(ValueError):
            local_loss(prob, 2, np.zeros(2))
        with pytest.raises(ValueError):
            local_gradient(prob, -1, np.zeros(2))


class TestGradients:
    @pytest.mark.parametrize("kind", [Ridge(lam=0.3), Logistic(lam=0.3)])
    def test_matches_finite_differences(self, kind):
        prob = make_synthetic(p=6, M=3, S_per_user=25, seed=4, heterogeneity=0.7, loss_kind=kind)
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.standard_normal(6)
            fd = finite_diff_gradient(lambda v: global_loss(prob, v), w)
            g = global_gradient(prob, w)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
            fd_local = finite_diff_gradient(lambda v: local_loss(prob, 1, v), w)
            g_local = local_gradient(prob, 1, w)
            assert np.linalg.norm(g_local - fd_local) <= 1e-5 * max(1.0, np.linalg.norm(fd_local))

    def test_identical_users_have_global_gradient(self):
        prob = make_synthetic(p=5, M=4, S_per_user=30, seed=8, heterogeneity=0.0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.standard_normal(5) * 2
            g = global_gradient(prob, w)
            for m in range(4):
                assert np.allclose(local_gradient(prob, m, w), g, rtol=0, atol=1e-14)

    def test_logistic_global_gradient_is_the_weighted_local_loop(self):
        prob = make_synthetic(p=5, M=11, S_per_user=23, seed=3, heterogeneity=0.8, loss_kind=Logistic(lam=0.2))
        rng = np.random.default_rng(3)
        W = rng.standard_normal((4, 5))
        batch = local_stoch_grad(prob, [0] * 4, W, OracleSpec(kind="relative_noise", delta=0.0), substream(0, "grad"))
        for w, row in zip(W, batch):
            loop = prob.lam * w
            for u, X, y, s in zip(prob.user_weights, prob.inputs, prob.targets, prob.counts):
                X, y = X[:s], y[:s]
                loop = loop + u * (X.T @ (_sigmoid(X @ w) - y) / s)
            assert np.array_equal(global_gradient(prob, w), loop)
            assert np.array_equal(row, loop)

    def test_logistic_global_gradient_is_the_padded_weighted_loop(self, tmp_path):
        # Unequal counts: each user's terms come from its zero-padded stacked
        # rows, bit for bit. Against the unpadded rows they agree to rounding
        # only, as the BLAS products group the sums by their length.
        prob = csv_problem(tmp_path, (12, 7, 9), Logistic(lam=0.2), seed=4)
        assert prob.padding.any()
        rng = np.random.default_rng(4)
        W = rng.standard_normal((6, 3)) * 2.0
        batch = local_stoch_grad(prob, [0] * 6, W, OracleSpec(kind="relative_noise", delta=0.0), substream(0, "grad"))
        for w, row in zip(W, batch):
            padded, unpadded = prob.lam * w, prob.lam * w
            for u, X, y, s in zip(prob.user_weights, prob.inputs, prob.targets, prob.counts):
                padded = padded + u * (X.T @ (_sigmoid(X @ w) - y) / s)
                X, y = X[:s], y[:s]
                unpadded = unpadded + u * (X.T @ (_sigmoid(X @ w) - y) / s)
            assert np.array_equal(global_gradient(prob, w), padded)
            assert np.array_equal(row, padded)
            assert np.abs(padded - unpadded).max() <= 1e-14 * np.linalg.norm(unpadded)

    def test_heterogeneous_users_differ(self):
        prob = make_synthetic(p=4, M=2, S_per_user=6, seed=9, heterogeneity=1.0)
        rng = np.random.default_rng(9)
        w = rng.standard_normal(4)
        g = global_gradient(prob, w)
        assert not np.allclose(local_gradient(prob, 0, w), g)
        assert not np.allclose(local_gradient(prob, 1, w), g)


class TestStochasticOracles:
    def test_full_gradient_no_rng(self):
        prob = make_synthetic(p=3, M=2, S_per_user=10, seed=10)
        w = np.ones(3)
        assert np.array_equal(
            local_stoch_grad(prob, [0], w[None], OracleSpec(kind="full"))[0], local_gradient(prob, 0, w)
        )

    def test_relative_noise_zero_delta_exact(self):
        prob = make_synthetic(p=3, M=2, S_per_user=10, seed=11)
        w = np.ones(3)
        g = local_stoch_grad(prob, [0], w[None], OracleSpec(kind="relative_noise", delta=0.0), substream(0, "x"))[0]
        assert np.array_equal(g, global_gradient(prob, w))

    def test_relative_noise_norm_exact_per_draw(self):
        prob = make_synthetic(p=6, M=2, S_per_user=10, seed=12)
        w = np.full(6, 0.7)
        g = global_gradient(prob, w)
        rng = substream(1, "noise")
        for _ in range(100):
            noisy = local_stoch_grad(prob, [0], w[None], OracleSpec(kind="relative_noise", delta=0.5), rng)[0]
            ratio = np.linalg.norm(noisy - g) / np.linalg.norm(g)
            assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_relative_noise_assumption4_ratio(self):
        # Empirical mean of ||noise||^2 / ||grad||^2 within 5% of delta^2.
        prob = make_synthetic(p=5, M=2, S_per_user=10, seed=13)
        w = np.full(5, 0.3)
        g = global_gradient(prob, w)
        gsq = g @ g
        rng = substream(2, "noise")
        n = 100_000
        ratios = np.empty(n)
        for i in range(n):
            noisy = local_stoch_grad(prob, [0], w[None], OracleSpec(kind="relative_noise", delta=0.7), rng)[0]
            d = noisy - g
            ratios[i] = (d @ d) / gsq
        assert abs(ratios.mean() - 0.49) <= 0.05 * 0.49

    def test_minibatch_unbiased_monte_carlo(self):
        prob = make_synthetic(p=4, M=2, S_per_user=30, seed=14, heterogeneity=1.0)
        w = np.array([0.5, -0.2, 0.1, 0.9])
        exact = local_gradient(prob, 0, w)
        rng = substream(3, "mb")
        n = 100_000
        draws = np.empty((n, 4))
        for i in range(n):
            draws[i] = local_stoch_grad(prob, [0], w[None], OracleSpec(kind="minibatch", batch_size=5), rng)[0]
        mean = draws.mean(axis=0)
        sigma = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - exact) <= 4 * sigma + 1e-12)

    def test_minibatch_too_large_rejected(self):
        prob = make_synthetic(p=2, M=1, S_per_user=4, seed=15)
        with pytest.raises(ValueError):
            local_stoch_grad(prob, [0], np.zeros((1, 2)), OracleSpec(kind="minibatch", batch_size=5), substream(0, "x"))

    def test_stochastic_modes_require_rng(self):
        prob = make_synthetic(p=2, M=1, S_per_user=4, seed=16)
        with pytest.raises(ValueError):
            local_stoch_grad(prob, [0], np.zeros((1, 2)), OracleSpec(kind="minibatch", batch_size=2))


def padded_problem(counts, p=3, seed=0, kind=Logistic(lam=0.2)):
    """A problem whose users hold ``counts`` samples, zero-padded to the largest."""
    rng = np.random.default_rng(seed)
    users = [Dataset(inputs=rng.standard_normal((s, p)), targets=(rng.random(s) < 0.5).astype(float)) for s in counts]
    return Problem.from_datasets(users, kind)


class TestMinibatchDraw:
    @pytest.mark.parametrize("counts", [[40, 40, 40], [17, 40, 23, 16], [1, 3, 2]])
    def test_batch_is_the_smallest_random_keys_in_key_order(self, counts):
        # rng.random keys each word's top 53 bits; for S_max <= 2048 the
        # sampler compares the same bits, so its batch is the b smallest
        # rng.random keys drawn from the same state, in ascending key order.
        prob = padded_problem(counts)
        ids = np.array([3 % len(counts), 0, len(counts) - 1])
        for b in (1, min(counts)):
            for seed in range(20):
                rng, ref = substream(seed, "mb"), substream(seed, "mb")
                for _ in range(3):
                    got = _minibatch(prob, ids, ids, b, rng)
                    keys = ref.random(prob.targets.shape)[ids]
                    keys[prob.padding[ids]] = 2.0
                    want = np.argsort(keys, axis=1)[:, :b] + (ids * prob.targets.shape[1])[:, None]
                    assert np.array_equal(got, want)

    def test_keys_above_2048_samples_tie_by_index(self):
        # With S_max = 3000 the index takes the low 12 bits, one more than
        # rng.random discards: keys are compared on their top 52 bits, ties
        # broken by sample index.
        prob = padded_problem([3000, 2100], p=1)
        for seed in range(5):
            got = _minibatch(prob, slice(0, 2), np.arange(2), 9, substream(seed, "mb"))
            keys = (substream(seed, "mb").bit_generator.random_raw((2, 3000)) >> np.uint64(12)).astype(float)
            keys[prob.padding] = np.inf
            want = np.argsort(keys, axis=1, kind="stable")[:, :9] + np.array([0, 3000])[:, None]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("start, stop", [(0, 2), (3, 5), (1, 4), (2, 2)])
    def test_range_draws_only_its_rows_and_ends_where_the_block_does(self, start, stop):
        # A step-1 range draws its rows' words and skips the others with
        # advance: batches and generator states equal the whole-block draw's
        # after every step.
        prob = padded_problem([17, 40, 23, 16, 30])
        ids = np.arange(start, stop)
        for seed in range(5):
            rng, ref = substream(seed, "mb"), substream(seed, "mb")
            for _ in range(3):
                got, want = _minibatch(prob, slice(start, stop), ids, 5, rng), _minibatch(prob, ids, ids, 5, ref)
                assert np.array_equal(got, want)
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_range_on_another_bit_generator_reads_the_whole_block(self):
        # Philox's advance counts blocks of words, not words: other bit
        # generators keep the whole-block draw.
        prob = padded_problem([17, 40, 23])
        ids = np.arange(1, 3)
        rng, ref = (np.random.Generator(np.random.Philox(7)) for _ in range(2))
        for _ in range(3):
            assert np.array_equal(_minibatch(prob, slice(1, 3), ids, 5, rng), _minibatch(prob, ids, ids, 5, ref))
        assert np.array_equal(rng.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))

    def test_one_step_reads_the_stream_like_rng_random(self):
        # A minibatch step advances the generator by one word per (user,
        # sample), as rng.random((M, S_max)) does, whatever the batch.
        prob = padded_problem([5, 9, 7])
        oracle = OracleSpec(kind="minibatch", batch_size=4)
        for ids in ([2], range(3), [1, 0]):
            rng, ref = substream(3, "mb"), substream(3, "mb")
            local_stoch_grad(prob, ids, np.zeros((len(ids), 3)), oracle, rng)
            ref.random(prob.targets.shape)
            assert rng.random() == ref.random()


def orthogonal_design_problem(eigs, lam, S=None):
    """Ridge problem whose Gram matrix has the given eigenvalues."""
    eigs = np.asarray(eigs, dtype=np.float64)
    p = len(eigs)
    S = S or p
    # Rows scaled so X'X/S = diag(eigs); an orthogonal rotation keeps the
    # spectrum while exercising non-diagonal paths.
    X = np.zeros((S, p))
    for i in range(p):
        X[i, i] = np.sqrt(eigs[i] * S)
    rng = np.random.default_rng(42)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return X @ Q.T


class TestConstants:
    def test_identity_gram_hand_case(self):
        # Gram = I, lam = 0.5: mu = L = 1.5.
        X = orthogonal_design_problem([1.0, 1.0, 1.0], lam=0.5)
        prob = single_user_problem(X, np.zeros(3), Ridge(lam=0.5))
        c = constants(prob)
        assert c.mu == pytest.approx(1.5, rel=1e-8)
        assert c.L_const == pytest.approx(1.5, rel=1e-8)

    def test_known_spectrum_hand_case(self):
        # Gram eigenvalues {1, 4}, lam = 1: (mu, L) = (2, 5).
        X = orthogonal_design_problem([1.0, 4.0], lam=1.0)
        prob = single_user_problem(X, np.zeros(2), Ridge(lam=1.0))
        c = constants(prob)
        assert c.mu == pytest.approx(2.0, rel=1e-8)
        assert c.L_const == pytest.approx(5.0, rel=1e-8)

    def test_matches_eigvalsh_oracle(self):
        for seed in range(10):
            prob = make_synthetic(p=6, M=3, S_per_user=30, seed=seed, heterogeneity=0.4)
            H = prob._gram_global + prob.lam * np.eye(6)
            eigs = np.linalg.eigvalsh(H)
            c = constants(prob)
            assert c.mu == pytest.approx(eigs[0], rel=1e-8)
            assert c.L_const == pytest.approx(eigs[-1], rel=1e-8)

    def test_bounds_curvature_from_the_safe_side(self):
        # An envelope is a bound only if mu <= lambda_min and L >= lambda_max,
        # so compare with the Rayleigh quotients of the extreme eigenvectors.
        for seed in range(8):
            for h in (0.0, 0.3, 1.0):
                prob = make_synthetic(p=10, M=5, S_per_user=50, seed=seed, heterogeneity=h)
                H = prob._gram_global + prob.lam * np.eye(10)
                _, V = np.linalg.eigh(H)
                c = constants(prob)
                assert c.L_const >= (V[:, -1] @ H @ V[:, -1]) * (1 - 1e-14)
                assert c.mu <= (V[:, 0] @ H @ V[:, 0]) * (1 + 1e-14)

                lam = 0.2
                prob = make_synthetic(p=10, M=5, S_per_user=50, seed=seed, heterogeneity=h, loss_kind=Logistic(lam))
                G = prob._gram_global
                _, V = np.linalg.eigh(G)
                c = constants(prob)
                assert c.L_const >= (0.25 * (V[:, -1] @ G @ V[:, -1]) + lam) * (1 - 1e-14)
                assert c.mu <= lam

    def test_mu_at_most_L(self):
        for seed in range(5):
            prob = make_synthetic(p=4, M=2, S_per_user=15, seed=seed, heterogeneity=0.8)
            c = constants(prob)
            assert c.mu <= c.L_const

    def test_delta_echoes_oracle(self):
        prob = make_synthetic(p=3, M=2, S_per_user=10, seed=20)
        assert constants(prob).delta == 0.0
        assert constants(prob, OracleSpec(kind="full")).delta == 0.0
        assert constants(prob, OracleSpec(kind="relative_noise", delta=0.3)).delta == 0.3
        assert constants(prob, OracleSpec(kind="minibatch", batch_size=2)).delta == 0.0

    def test_logistic_constants(self):
        prob = make_synthetic(p=4, M=3, S_per_user=50, seed=21, loss_kind=Logistic(lam=0.2))
        c = constants(prob)
        assert c.mu == pytest.approx(0.2)
        top = np.linalg.eigvalsh(prob._gram_global)[-1]
        assert c.L_const == pytest.approx(top / 4 + 0.2, rel=1e-8)

    def test_logistic_curvature_within_constants(self):
        # Hessian of the logistic loss is bounded by mu and L from constants.
        prob = make_synthetic(p=3, M=2, S_per_user=40, seed=22, loss_kind=Logistic(lam=0.2))
        c = constants(prob)
        rng = np.random.default_rng(0)
        for _ in range(500):
            w1, w2 = rng.standard_normal((2, 3)) * 2
            g1, g2 = global_gradient(prob, w1), global_gradient(prob, w2)
            dsq = np.linalg.norm(w1 - w2) ** 2
            assert (g1 - g2) @ (w1 - w2) >= c.mu * dsq * (1 - 1e-9)
            assert np.linalg.norm(g1 - g2) <= c.L_const * np.sqrt(dsq) * (1 + 1e-9)


class TestOptimum:
    def test_hand_case_direct_solve(self):
        # H = 2I, b = (2, 4): w* = (1, 2). Build Gram = 1.5I with lam = 0.5
        # and targets giving X'y/S = (2, 4).
        S = 2
        X = np.diag([np.sqrt(1.5 * S), np.sqrt(1.5 * S)])
        y = np.array([2.0 * S, 4.0 * S]) / np.diag(X)
        prob = single_user_problem(X, y, Ridge(lam=0.5))
        w_star, f_star = optimum(prob)
        assert np.allclose(w_star, [1.0, 2.0], rtol=1e-12)
        assert f_star == pytest.approx(global_loss(prob, w_star))

    def test_gradient_vanishes_at_optimum(self):
        for seed in range(20):
            prob = make_synthetic(p=5, M=3, S_per_user=25, seed=seed, heterogeneity=0.3)
            w_star, _ = optimum(prob)
            assert np.linalg.norm(global_gradient(prob, w_star)) <= 1e-9

    def test_ridge_optimum_is_the_one_solve(self, tmp_path):
        # w* is the Problem's own solve, bitwise, and f* the loss there.
        rng = np.random.default_rng(4)
        for m, s in enumerate((9, 5)):
            np.savetxt(tmp_path / f"u{m}.csv", rng.standard_normal((s, 4)), delimiter=",")
        problems = [
            make_synthetic(p=5, M=4, S_per_user=30, seed=3, heterogeneity=h, loss_kind=Ridge(lam))
            for h, lam in ((0.0, 0.5), (0.3, 0.5), (1.0, 0.0))
        ]
        problems.append(problem_from_csv([tmp_path / "u0.csv", tmp_path / "u1.csv"], Ridge(lam=0.2)))
        for prob in problems:
            w_star, f_star = optimum(prob)
            assert w_star.tobytes() == prob.center.tobytes()
            assert f_star == global_loss(prob, prob.center)

    def test_stalled_ridge_solve_names_the_residual(self, monkeypatch):
        prob = make_synthetic(p=4, M=3, S_per_user=20, seed=8, heterogeneity=0.3)
        monkeypatch.setattr(prob, "center", prob.center + 1e-6)
        with pytest.raises(RuntimeError, match=r"stalled at residual \d\.\d{3}e-\d+ \(target"):
            optimum(prob)

    def test_logistic_optimum_by_descent(self):
        prob = make_synthetic(p=3, M=2, S_per_user=60, seed=30, loss_kind=Logistic(lam=0.3))
        w_star, f_star = optimum(prob)
        assert np.linalg.norm(global_gradient(prob, w_star)) <= 1e-10
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert global_loss(prob, w_star + 0.1 * rng.standard_normal(3)) > f_star


def per_user_synthetic(p, M, S, seed, h, kind, test_size=500):
    """make_synthetic's data built the original way: one spawn-key generator per user, combined user by user."""

    def stream(purpose, *indices):
        tag = zlib.crc32(purpose.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, *indices)))

    a, b = np.sqrt(1.0 - h), np.sqrt(h)
    w_true = stream("data-wtrue").standard_normal(p) / np.sqrt(p)
    X_shared = stream("data-x-shared").standard_normal((S, p))
    noise_shared = stream("data-noise-shared").standard_normal(S)
    X, eps = np.empty((M, S, p)), np.empty((M, S))
    for m in range(M):
        X[m] = a * X_shared + b * stream("data-x", m).standard_normal((S, p))
        eps[m] = a * noise_shared + b * stream("data-noise", m).standard_normal(S)
    margin = np.matmul(X, w_true)
    y = margin + 0.1 * eps if isinstance(kind, Ridge) else (margin + 0.5 * eps > 0.0).astype(np.float64)
    if isinstance(kind, Ridge):
        return X, y, None
    rng = stream("data-test")
    X_test = rng.standard_normal((test_size, p))
    y_test = (X_test @ w_true + 0.5 * rng.standard_normal(test_size) > 0.0).astype(np.float64)
    return X, y, (X_test, y_test)


class TestMakeSynthetic:
    @pytest.mark.parametrize("h", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("M", [1, 7])
    @pytest.mark.parametrize("kind", [Ridge(lam=0.5), Logistic(lam=0.1)], ids=lambda k: type(k).__name__)
    def test_batched_streams_equal_the_per_user_loop_bitwise(self, h, M, kind):
        for seed, p, S in ((0, 3, 11), (2**40 + 1, 5, 1)):
            prob = make_synthetic(p=p, M=M, S_per_user=S, seed=seed, heterogeneity=h, loss_kind=kind)
            X, y, test = per_user_synthetic(p, M, S, seed, h, kind)
            assert prob.inputs.tobytes() == X.tobytes()
            assert prob.targets.tobytes() == y.tobytes()
            if test is None:
                assert prob.test_set is None
            else:
                assert prob.test_set.inputs.tobytes() == test[0].tobytes()
                assert prob.test_set.targets.tobytes() == test[1].tobytes()

    def test_same_seed_bitwise_identical(self):
        a = make_synthetic(p=4, M=3, S_per_user=10, seed=5, heterogeneity=0.5)
        b = make_synthetic(p=4, M=3, S_per_user=10, seed=5, heterogeneity=0.5)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_different_seeds_differ(self):
        a = make_synthetic(p=4, M=2, S_per_user=10, seed=5)
        b = make_synthetic(p=4, M=2, S_per_user=10, seed=6)
        assert a.inputs[0].tobytes() != b.inputs[0].tobytes()

    def test_zero_heterogeneity_identical_users(self):
        prob = make_synthetic(p=3, M=4, S_per_user=8, seed=7, heterogeneity=0.0)
        for X, y in zip(prob.inputs[1:], prob.targets[1:]):
            assert X.tobytes() == prob.inputs[0].tobytes()
            assert y.tobytes() == prob.targets[0].tobytes()

    @pytest.mark.parametrize("h", [0.0, 0.3])
    @pytest.mark.parametrize("kind", [Ridge(lam=0.5), Logistic(lam=0.1)], ids=lambda k: type(k).__name__)
    def test_stacked_moments_equal_per_user_products(self, h, kind):
        # On equal sample counts the stacked Gram and moment products equal
        # each user's own products bit for bit.
        for p, M, S in ((10, 50, 200), (3, 7, 33), (17, 5, 1), (50, 4, 50)):
            prob = make_synthetic(p=p, M=M, S_per_user=S, seed=2, heterogeneity=h, loss_kind=kind)
            for m, (X, y) in enumerate(zip(prob.inputs, prob.targets)):
                assert np.array_equal(prob.grams[m], X.T @ X / S)
                assert np.array_equal(prob.moments[m], X.T @ y / S)

    def test_zero_heterogeneity_users_hold_the_shared_draws(self):
        prob = make_synthetic(p=3, M=4, S_per_user=8, seed=7, heterogeneity=0.0)
        shared = substream(7, "data-x-shared").standard_normal((8, 3))
        assert all(X.tobytes() == shared.tobytes() for X in prob.inputs)

    def test_logistic_labels_binary_with_test_set(self):
        prob = make_synthetic(p=3, M=2, S_per_user=10, seed=8, loss_kind=Logistic(lam=0.1))
        assert set(np.unique(prob.targets)) <= {0.0, 1.0}
        assert prob.test_set is not None
        assert held_out_accuracy(prob, np.zeros(3)) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic(p=0, M=1, S_per_user=1, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(p=1, M=1, S_per_user=1, seed=0, heterogeneity=1.5)
        with pytest.raises(ValueError):
            Logistic(lam=0.0)
        with pytest.raises(ValueError):
            Ridge(lam=-0.1)


class TestUserSums:
    """The weighted user sums of the Grams and moments, one reduction each, against Python's ``sum``."""

    @staticmethod
    def assert_python_sums(prob):
        gram = sum(u * g for u, g in zip(prob.user_weights, prob.grams))
        moment = sum(u * c for u, c in zip(prob.user_weights, prob.moments))
        assert prob._gram_global.tobytes() == gram.tobytes()
        assert prob._moment_global.tobytes() == moment.tobytes()

    @pytest.mark.parametrize("h", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("M", [1, 7, 100])
    @pytest.mark.parametrize("kind", [Ridge(lam=0.5), Logistic(lam=0.1)], ids=lambda k: type(k).__name__)
    def test_synthetic(self, h, M, kind):
        # p = 1 makes each user's terms one element, which numpy would sum
        # pairwise over a reduced axis.
        for p, S in ((1, 9), (4, 13), (20, 30)):
            self.assert_python_sums(make_synthetic(p=p, M=M, S_per_user=S, seed=M, heterogeneity=h, loss_kind=kind))

    @pytest.mark.parametrize("kind", [Ridge(lam=0.2), Logistic(lam=0.2)], ids=lambda k: type(k).__name__)
    def test_unequal_counts(self, tmp_path, kind):
        self.assert_python_sums(csv_problem(tmp_path, (12, 7), kind))

    @pytest.mark.parametrize("rows", [(1, 9), (2, 1), (30, 1), (30, 2), (200, 3, 3), (9, 1, 1)])
    def test_in_order_sum_is_cumsum(self, rows):
        # Rows of one element take cumsum: a reduction would sum them pairwise.
        a = np.random.default_rng(len(rows)).standard_normal(rows)
        a *= np.logspace(-8, 8, rows[0]).reshape((-1,) + (1,) * (len(rows) - 1))
        assert _in_order_sum(a).tobytes() == np.cumsum(a, axis=0)[-1].tobytes()


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_without_padding(self, bad):
        prob = make_synthetic(p=3, M=4, S_per_user=5, seed=1)
        for where in ((0, 0, 0), (3, 4, 2), (2, 1, 1)):
            X = prob.inputs.copy()
            X[where] = bad
            with pytest.raises(ValueError, match="non-finite"):
                Problem(X, prob.targets, prob.counts, Ridge(lam=0.2))
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(inputs=X[where[0]], targets=prob.targets[where[0]])
            y = prob.targets.copy()
            y[where[:2]] = bad
            with pytest.raises(ValueError, match="non-finite"):
                Problem(prob.inputs, y, prob.counts, Ridge(lam=0.2))
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(inputs=prob.inputs[where[0]], targets=y[where[0]])

    def test_extreme_finite_values_accepted(self):
        big = np.finfo(np.float64).max
        data = Dataset(inputs=[[big, -big], [5e-324, 0.0]], targets=[-big, big])
        assert data.n_samples == 2


class TestCsvImport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for m in range(3):
            table = np.column_stack([rng.standard_normal((6, 2)), rng.standard_normal(6)])
            path = tmp_path / f"user{m}.csv"
            np.savetxt(path, table, delimiter=",")
            paths.append(str(path))
        prob = problem_from_csv(paths, Ridge(lam=0.2))
        assert prob.n_users == 3
        assert prob.dim == 2
        w_star, _ = optimum(prob)
        assert np.linalg.norm(global_gradient(prob, w_star)) <= 1e-9

    def test_unequal_sizes_weighting(self, tmp_path):
        rng = np.random.default_rng(1)
        sizes = [4, 12]
        paths = []
        for m, s in enumerate(sizes):
            table = np.column_stack([rng.standard_normal((s, 2)), rng.standard_normal(s)])
            path = tmp_path / f"u{m}.csv"
            np.savetxt(path, table, delimiter=",")
            paths.append(str(path))
        prob = problem_from_csv(paths, Ridge(lam=0.2))
        assert np.allclose(prob.user_weights, [0.25, 0.75])

    def test_users_are_views_of_zero_padded_stack(self, tmp_path):
        rng = np.random.default_rng(2)
        paths, tables = [], []
        for m, s in enumerate([4, 12]):
            table = np.column_stack([rng.standard_normal((s, 2)), rng.standard_normal(s)])
            path = tmp_path / f"u{m}.csv"
            np.savetxt(path, table, delimiter=",")
            paths.append(str(path))
            tables.append(np.loadtxt(path, delimiter=","))
        prob = problem_from_csv(paths, Ridge(lam=0.2))
        assert prob.inputs.shape == (2, 12, 2) and list(prob.counts) == [4, 12]
        assert not np.any(prob.inputs[0, 4:])
        for X, y, s, table in zip(prob.inputs, prob.targets, prob.counts, tables):
            assert np.array_equal(X[:s], table[:, :-1]) and np.array_equal(y[:s], table[:, -1])
        bad = prob.inputs.copy()
        bad[0, 7, 1] = 1.0
        with pytest.raises(ValueError):
            Problem(bad, prob.targets, prob.counts, Ridge(lam=0.2))
        bad = prob.targets.copy()
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Problem(prob.inputs, bad, prob.counts, Ridge(lam=0.2))
