import warnings

import numpy as np
import pytest

from byzfl.clients import Schedule, byzantine_message, honest_local_update
from byzfl.config import AttackSpec, ExperimentConfig, OracleSpec, ScheduleSpec, SyntheticProblemSpec
from byzfl.problems import (
    Dataset,
    Logistic,
    Problem,
    Ridge,
    constants,
    global_gradient,
    local_gradient,
    local_stoch_grad,
    make_synthetic,
    optimum,
    problem_from_csv,
)
from byzfl.rng import substream
from byzfl.server import prepare, run_round
from byzfl.theory import gamma, stable_eta_range


def quadratic_1d():
    """F(w) = 0.5 w^2 via a single sample x=1, y=0, lam=0."""
    return Problem.from_datasets((Dataset(inputs=np.array([[1.0]]), targets=np.array([0.0])),), Ridge(lam=0.0))


FULL = OracleSpec(kind="full")
EPS = np.finfo(np.float64).eps
ORACLES = [FULL, OracleSpec(kind="minibatch", batch_size=4), OracleSpec(kind="relative_noise", delta=0.4)]
LOSSES = [Ridge(lam=0.3), Logistic(lam=0.3)]


class TestHonestLocalUpdate:
    def test_zero_steps_returns_broadcast(self):
        prob = make_synthetic(p=3, M=2, S_per_user=5, seed=0)
        w = np.array([1.0, -2.0, 3.0])
        out = honest_local_update(prob, [0, 1], w, 1, np.full(2, 0.1), 0, FULL, 7)
        assert out.shape == (2, 3)
        assert np.array_equal(out, [w, w])

    def test_1d_quadratic_hand_case(self):
        # Each step multiplies by (1 - eta): 8 * 0.5^3 = 1.
        prob = quadratic_1d()
        out = honest_local_update(prob, [0], np.array([8.0]), 1, np.full(1, 0.5), 3, FULL, 0)
        assert out[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_lemma_contraction_on_quadratics(self):
        # Deterministic per-client contraction: ||z - w*||^2 <= gamma^K ||w_t - w*||^2.
        rng = np.random.default_rng(1)
        for seed in range(10):
            prob = make_synthetic(p=4, M=3, S_per_user=30, seed=seed, heterogeneity=0.0)
            c = constants(prob)
            w_star, _ = optimum(prob)
            _, eta_max = stable_eta_range(c.mu, c.L_const, 0.0)
            eta = float(rng.uniform(0.1, 0.99)) * eta_max
            K = int(rng.integers(1, 8))
            g = gamma(eta, c.mu, c.L_const, 0.0)
            w_t = rng.standard_normal(4) * 3
            z = honest_local_update(prob, [0], w_t, 1, np.full(1, eta), K, FULL, seed)[0]
            lhs = np.linalg.norm(z - w_star) ** 2
            rhs = g**K * np.linalg.norm(w_t - w_star) ** 2
            assert lhs <= rhs * (1 + 1e-9)

    def test_monotone_distance_on_quadratics(self):
        prob = make_synthetic(p=5, M=2, S_per_user=20, seed=3, heterogeneity=0.0)
        c = constants(prob)
        w_star, _ = optimum(prob)
        _, eta_max = stable_eta_range(c.mu, c.L_const, 0.0)
        eta = np.full(1, 0.8 * eta_max)
        w = substream(4, "w0").standard_normal(5) * 2
        prev = np.linalg.norm(w - w_star)
        for k in range(30):
            w = honest_local_update(prob, [0], w, k + 1, eta, 1, FULL, 0)[0]
            d = np.linalg.norm(w - w_star)
            assert d <= prev * (1 + 1e-12)
            prev = d

    def test_telescoping_identity(self):
        # z equals w_t minus the sum of eta * gradient steps, reconstructed
        # from the same keyed stream: step k reads the k-th (M, p) block of
        # the round's stream, and client m its own row of it.
        prob = make_synthetic(p=4, M=3, S_per_user=20, seed=5, heterogeneity=0.4)
        mode = OracleSpec(kind="relative_noise", delta=0.3)
        rates = 0.03 + 0.002 * np.arange(3)
        seed, t, m = 11, 4, 2
        w_t = substream(seed, "wt").standard_normal(4)
        z = honest_local_update(prob, [0, m], w_t, t, rates[[0, m]], 6, mode, seed)[1]

        w = w_t.copy()
        total = np.zeros(4)
        stream = substream(seed, "grad", t)
        for k in range(1, 7):
            g = global_gradient(prob, w)
            u = stream.standard_normal((prob.n_users, 4))[m]
            g = g + 0.3 * np.linalg.norm(g) * u / np.linalg.norm(u)
            total += rates[m] * g
            w = w - rates[m] * g
        assert np.linalg.norm(z - (w_t - total)) <= 1e-12 * max(1.0, np.linalg.norm(z))

    @pytest.mark.parametrize("kind", LOSSES, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("mode", ORACLES, ids=["FullGradient", "Minibatch", "RelativeNoise"])
    def test_rows_independent_of_batch(self, mode, kind):
        # A client's upload is bitwise the same in the full honest batch, in a
        # reversed subset and alone.
        prob = make_synthetic(p=5, M=7, S_per_user=12, seed=8, heterogeneity=0.7, loss_kind=kind)
        rates = 0.05 + 0.01 * np.arange(7)
        w_t = substream(3, "wt").standard_normal(5)
        honest = [0, 1, 2, 3, 4, 5]
        full = honest_local_update(prob, honest, w_t, 2, rates[honest], 4, mode, 17)
        subset = [5, 3, 2, 0]
        part = honest_local_update(prob, subset, w_t, 2, rates[subset], 4, mode, 17)
        for i, m in enumerate(subset):
            assert np.array_equal(part[i], full[m])
        for m in honest:
            alone = honest_local_update(prob, [m], w_t, 2, rates[[m]], 4, mode, 17)
            assert np.array_equal(alone[0], full[m])
        if mode.kind == "full":
            for m in honest:
                w = w_t.copy()
                for _ in range(4):
                    w -= rates[m] * local_gradient(prob, m, w)
                if isinstance(kind, Ridge):
                    # The exact 4-step map equals the loop up to rounding.
                    assert np.linalg.norm(full[m] - w) <= 16 * EPS * np.linalg.norm(w)
                else:
                    assert np.array_equal(full[m], w)
        else:
            assert not np.array_equal(full[0], honest_local_update(prob, [0], w_t, 3, rates[[0]], 4, mode, 17)[0])
        # The same ids as a range, the form the server passes: a step-1 range
        # inside [0, M) is indexed by views and must give the list's result
        # bitwise, whatever its start, so no step's draws may depend on the
        # form of the batch; any other range takes the list's path, errors
        # included.
        assert np.array_equal(honest_local_update(prob, range(6), w_t, 2, rates[:6], 4, mode, 17), full)
        for m in honest:
            assert np.array_equal(honest_local_update(prob, range(m, m + 1), w_t, 2, rates[[m]], 4, mode, 17)[0], full[m])
        # Successive steps on one generator read the same blocks whatever
        # the form of the batch.
        W = substream(4, "W").standard_normal((3, 5))
        by_range, by_list = substream(17, "grad", 2), substream(17, "grad", 2)
        for _ in range(2):
            G = local_stoch_grad(prob, range(1, 4), W, mode, by_range)
            assert np.array_equal(G, local_stoch_grad(prob, [1, 2, 3], W, mode, by_list))
        assert np.array_equal(
            honest_local_update(prob, range(0, 7, 2), w_t, 2, rates[::2], 4, mode, 17),
            honest_local_update(prob, [0, 2, 4, 6], w_t, 2, rates[::2], 4, mode, 17),
        )
        for bad in (range(0, 8), range(-1, 2)):
            for ids in (bad, list(bad)):
                with pytest.raises(ValueError, match=r"user ids must lie in \[0, 7\)"):
                    local_stoch_grad(prob, ids, np.zeros((len(bad), 5)), mode, substream(17, "grad", 2))

    def test_reproducible_and_order_independent(self):
        prob = make_synthetic(p=3, M=4, S_per_user=15, seed=6, heterogeneity=0.5)
        mode = OracleSpec(kind="relative_noise", delta=0.5)
        rates = np.full(4, 0.05)
        w_t = np.ones(3)
        first = honest_local_update(prob, [0, 1, 2, 3], w_t, 2, rates, 3, mode, 9)
        second = honest_local_update(prob, [3, 2, 1, 0], w_t, 2, rates, 3, mode, 9)
        assert np.array_equal(first, second[::-1])

    def test_rejects_bad_rate(self):
        prob = make_synthetic(p=2, M=1, S_per_user=5, seed=7)
        with pytest.raises(ValueError):
            honest_local_update(prob, [0], np.zeros(2), 1, np.zeros(1), 1, FULL, 0)

    def test_bad_rate_error_names_first_in_step_then_batch_order(self):
        # A client takes every step at its one rate, so the first bad rate in
        # step order is at step 1, and within it the first in the order of
        # ``ids``; the error names that client's id. K = 0 is no exception.
        prob = make_synthetic(p=2, M=3, S_per_user=5, seed=7)
        rates = np.array([0.1, 0.0, -0.2])
        with pytest.raises(ValueError, match=r"client 2's rate must be positive, got -0.2"):
            honest_local_update(prob, [0, 2, 1], np.zeros(2), 4, rates[[0, 2, 1]], 3, FULL, 0)
        for ids in ([0, 1, 2], range(3)):
            with pytest.raises(ValueError, match=r"client 1's rate must be positive, got 0.0"):
                honest_local_update(prob, ids, np.zeros(2), 4, rates, 3, FULL, 0)
        with pytest.raises(ValueError, match=r"client 2's rate must be positive"):
            honest_local_update(prob, range(2, 3), np.zeros(2), 4, rates[[2]], 0, FULL, 0)

    def test_rejects_rates_not_matching_ids(self):
        # One rate per client, as a vector; a per-step array is refused.
        prob = make_synthetic(p=2, M=3, S_per_user=5, seed=7)
        with pytest.raises(ValueError, match="shape"):
            honest_local_update(prob, [0, 1, 2], np.zeros(2), 1, np.full(2, 0.1), 3, FULL, 0)
        with pytest.raises(ValueError, match="shape"):
            honest_local_update(prob, [0, 1], np.zeros(2), 1, np.full(3, 0.1), 3, FULL, 0)
        with pytest.raises(ValueError, match="shape"):
            honest_local_update(prob, [0, 1], np.zeros(2), 1, np.full((2, 3), 0.1), 3, FULL, 0)

    def test_minibatch_never_reads_padding(self, tmp_path):
        # Users hold 3, 9 and 5 samples, so the stacked data carries zero
        # padding. With batch_size equal to a user's sample count, every
        # minibatch is all of its samples, once each: the stochastic gradient
        # is its full local gradient.
        rng = np.random.default_rng(4)
        paths = []
        for m, s in enumerate([3, 9, 5]):
            path = tmp_path / f"u{m}.csv"
            table = np.column_stack([rng.standard_normal((s, 3)), rng.integers(0, 2, s)])
            np.savetxt(path, table, delimiter=",")
            paths.append(str(path))
        for kind in LOSSES:
            prob = problem_from_csv(paths, kind)
            assert prob.inputs.shape == (3, 9, 3)
            for b, m in ((3, 0), (5, 2)):
                W = rng.standard_normal((4, 3))
                for t in range(1, 6):
                    G = local_stoch_grad(prob, [m] * 4, W, OracleSpec(kind="minibatch", batch_size=b), substream(1, "grad", t, 1))
                    for w, g in zip(W, G):
                        assert np.max(np.abs(g - local_gradient(prob, m, w))) <= 1e-12
            with pytest.raises(ValueError):
                local_stoch_grad(prob, [0, 1], np.zeros((2, 3)), OracleSpec(kind="minibatch", batch_size=4), substream(1, "grad"))


def loop_steps(prob, ids, w_t, eta, K):
    """The reference K-step loop: K full-oracle gradient steps, row i at rate eta[i]."""
    W = np.tile(w_t, (len(ids), 1))
    for _ in range(K):
        W -= eta[:, None] * local_stoch_grad(prob, ids, W, FULL)
    return W


def unequal_csv_problem(tmp_path):
    # Users hold 3, 9 and 5 samples in p=3, so the stacked data carries padding.
    rng = np.random.default_rng(4)
    paths = []
    for m, s in enumerate([3, 9, 5]):
        path = tmp_path / f"u{m}.csv"
        np.savetxt(path, rng.standard_normal((s, 4)), delimiter=",")
        paths.append(str(path))
    return problem_from_csv(paths, Ridge(lam=0.3))


SCHEDULES = {
    "uniform": ScheduleSpec(kind="uniform", steps=4),
    "general": ScheduleSpec(kind="general", client_etas=[0.02, 0.03] * 6, steps_cycle=[2, 0, 3]),
    "floor_decay": ScheduleSpec(kind="floor_decay", K1=3, E=4),
    "linear_decay": ScheduleSpec(kind="linear_decay", K1=5, E=6),
}


class TestExactRidgeSteps:
    """Full-oracle ridge rows with a definite Hessian take the closed-form K-step map."""

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_matches_loop_along_a_run(self, h, schedule):
        # Each round's broadcast comes from the run itself; rows with equal
        # rates on identical data (h=0) are bitwise equal, as the majority
        # shortcut needs, and every row is the loop's up to rounding.
        problem = SyntheticProblemSpec(p=5, n_users=12, samples_per_user=30, heterogeneity=h)
        prep = prepare(ExperimentConfig(problem=problem, n_byzantine=2, schedule=SCHEDULES[schedule], rounds=6, seed=4))
        ids, w, cum = prep.honest_ids, prep.w1, 1.0
        for t in range(1, prep.rounds + 1):
            eta, K = prep.schedule.rates[: len(ids)], prep.schedule.steps(t)
            Z = honest_local_update(prep.problem, ids, w, t, eta, K, prep.oracle, prep.master_seed)
            ref = loop_steps(prep.problem, ids, w, eta, K)
            assert (np.linalg.norm(Z - ref, axis=1) <= 8 * EPS * np.linalg.norm(ref, axis=1)).all()
            if h == 0.0:
                for i in range(len(ids)):
                    same = eta == eta[i]
                    assert np.array_equal(Z[same], np.broadcast_to(Z[i], Z[same].shape))
            w, cum, _ = run_round(prep, w, t, cum)

    def test_matches_loop_on_unequal_counts(self, tmp_path):
        prob = unequal_csv_problem(tmp_path)
        assert prob.spectrum.definite.all()
        eta = np.array([0.05, 0.2, 0.4])
        for w_t in (np.zeros(3), substream(2, "wt").standard_normal(3)):
            Z = honest_local_update(prob, [2, 0, 1], w_t, 1, eta, 5, FULL, 0)
            ref = loop_steps(prob, [2, 0, 1], w_t, eta, 5)
            assert (np.linalg.norm(Z - ref, axis=1) <= 8 * EPS * np.linalg.norm(ref, axis=1)).all()

    def test_spectrum_user_optima(self, tmp_path):
        prob = unequal_csv_problem(tmp_path)
        sp = prob.spectrum
        H = prob.grams + 0.3 * np.eye(3)
        assert np.allclose(np.matmul(sp.vectors, sp.values[:, :, None] * np.swapaxes(sp.vectors, 1, 2)), H, atol=1e-14)
        for m in range(3):
            assert np.allclose(sp.vectors[m] @ sp.coords[m], np.linalg.solve(H[m], prob.moments[m]), rtol=1e-13)
        assert make_synthetic(p=2, M=2, S_per_user=4, seed=0, loss_kind=Logistic(lam=0.1)).spectrum is None

    @pytest.mark.parametrize(
        "last_scale, w_scale, rate, K",
        [(0.01, 0.0, 0.05, 1), (1.0, 1e4, 0.9, 30)],
        ids=["from-zero-small-rate", "from-far-strong-contraction"],
    )
    def test_accurate_where_one_form_cancels(self, last_scale, w_scale, rate, K):
        # From zero with a small step on an ill-conditioned user (condition
        # ~1e4), s + f(u - s) cancels; from 1e4 away with strong contraction,
        # u - g(u - s) does. The map picks per coordinate the form that does
        # not, and stays within a few eps of the loop.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 4)) * [1.0, 1.0, 1.0, last_scale]
        prob = Problem.from_datasets([Dataset(inputs=X, targets=rng.standard_normal(20))], Ridge(lam=1e-6))
        eta = np.full(1, rate / prob.spectrum.values[0, -1])
        w_t = np.full(4, w_scale)
        Z = honest_local_update(prob, [0], w_t, 1, eta, K, FULL, 0)
        ref = loop_steps(prob, [0], w_t, eta, K)
        assert np.linalg.norm(Z - ref) <= 8 * EPS * np.linalg.norm(ref)

    def test_indefinite_user_takes_the_loop(self):
        # lam = 0 and a user with 2 samples in p=4: its Hessian is singular,
        # so its row is the loop's bitwise; the other user's is exact.
        rng = np.random.default_rng(9)
        users = [Dataset(inputs=rng.standard_normal((s, 4)), targets=rng.standard_normal(s)) for s in (2, 20)]
        prob = Problem.from_datasets(users, Ridge(lam=0.0))
        assert prob.spectrum.definite.tolist() == [False, True]
        assert np.array_equal(prob.spectrum.coords[0], np.zeros(4))
        eta = np.full(2, 0.05)
        w_t = rng.standard_normal(4)
        for ids in ([0, 1], range(2), [1, 0]):
            Z = honest_local_update(prob, ids, w_t, 1, eta, 3, FULL, 0)
            ref = loop_steps(prob, list(ids), w_t, eta, 3)
            i0 = list(ids).index(0)
            assert np.array_equal(Z[i0], ref[i0])
            assert np.linalg.norm(Z[1 - i0] - ref[1 - i0]) <= 8 * EPS * np.linalg.norm(ref[1 - i0])

    def test_diverging_rate_is_quiet(self):
        # A rate far past stability gives non-finite rows and no warning;
        # the server reports them as a diverged run.
        prob = make_synthetic(p=3, M=2, S_per_user=20, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = honest_local_update(prob, range(2), np.zeros(3), 1, np.full(2, 1e300), 2, FULL, 0)
        assert not np.isfinite(Z).all()


class TestByzantineMessage:
    def test_zero_vector(self):
        out = byzantine_message(AttackSpec(kind="zero"), np.ones(3), np.ones(3))
        assert np.array_equal(out, np.zeros(3))

    def test_fixed_vector(self):
        out = byzantine_message(AttackSpec(kind="fixed", vector=[7.0, -7.0]), np.ones(2), np.ones(2))
        assert np.array_equal(out, [7.0, -7.0])

    def test_fixed_vector_dimension_mismatch(self):
        with pytest.raises(ValueError):
            byzantine_message(AttackSpec(kind="fixed", vector=[1.0]), np.ones(2), np.ones(2))

    def test_sign_flip(self):
        out = byzantine_message(AttackSpec(kind="sign_flip", scale=2.0), np.array([1.0, -3.0]), np.ones(2))
        assert np.array_equal(out, [-2.0, 6.0])

    def test_gaussian_moments(self):
        rng = substream(1, "attack")
        n, p = 100_000, 4
        draws = np.empty((n, p))
        attack = AttackSpec(kind="gaussian", sigma=1.0, mean_mode="zero")
        for i in range(n):
            draws[i] = byzantine_message(attack, np.zeros(p), rng.standard_normal(p))
        assert np.all(np.abs(draws.mean(axis=0)) <= 0.01)
        assert np.all(np.abs(draws.var(axis=0) - 1.0) <= 0.03)

    def test_gaussian_honest_center(self):
        rng = substream(2, "attack")
        center = np.array([5.0, -5.0])
        attack = AttackSpec(kind="gaussian", sigma=0.1, mean_mode="honest_center")
        draws = np.stack(
            [byzantine_message(attack, np.zeros(2), rng.standard_normal(2), honest_center=center) for _ in range(2000)]
        )
        assert np.all(np.abs(draws.mean(axis=0) - center) <= 0.02)


    @pytest.mark.parametrize("mean_mode", ["zero", "honest_center"])
    @pytest.mark.parametrize("kind", ["zero", "fixed", "sign_flip", "gaussian"])
    def test_one_call_block_equals_per_client_loop(self, kind, mean_mode):
        # A round's Byzantine rows from one call, as the server fills them,
        # equal one call per client row bit for bit.
        vector = [7.0, -7.0, 0.5] if kind == "fixed" else None
        attack = AttackSpec(kind=kind, sigma=3.0, mean_mode=mean_mode, scale=2.5, vector=vector)
        H, M = 6, 10
        w_t = substream(5, "wt").standard_normal(3)
        noise = substream(5, "attack", 4).standard_normal((M, 3))
        block = np.empty((M, 3))
        block[H:] = byzantine_message(attack, w_t, noise[H:], honest_center=w_t)
        loop = np.empty((M, 3))
        for m in range(H, M):
            loop[m] = byzantine_message(attack, w_t, noise[m], honest_center=w_t)
        assert np.array_equal(block[H:].view(np.int64), loop[H:].view(np.int64))


class TestSchedules:
    def test_uniform_markers(self):
        # The spec's kind, steps and eta are what make the fixed-setup
        # envelope applicable; the schedule broadcasts the one rate.
        s = Schedule(ScheduleSpec(kind="uniform", steps=4, eta=0.2), 3)
        assert s.spec.kind == "uniform" and s.spec.steps == 4 and s.spec.eta == 0.2
        assert s.steps(99) == 4 and s.rates[1] == 0.2
        assert s.rates.shape == (3,) and np.all(s.rates == 0.2)
        assert Schedule(ScheduleSpec(kind="uniform", steps=0, eta=0.2), 3).rates.shape == (3,)
        # Built once per run, and read-only, so no round can change another's rates.
        assert s.rates is s.rates and not s.rates.flags.writeable

    def test_constant_rates_one_row_per_client(self):
        s = Schedule(ScheduleSpec(kind="general", client_etas=[0.1, 0.2, 0.3], steps_cycle=[2, 0, 5]), 3)
        assert [s.steps(t) for t in (1, 2, 3, 4)] == [2, 0, 5, 2]
        assert s.rates.shape == (3,) and np.array_equal(s.rates, [0.1, 0.2, 0.3])
        decay = Schedule(ScheduleSpec(kind="floor_decay", eta=0.4, K1=2, E=10), 2)
        assert np.array_equal(decay.rates, np.full(2, 0.4))

    def test_floor_decay_verbatim_form(self):
        # Constant K1 below the horizon, zero at it.
        f = Schedule(ScheduleSpec(kind="floor_decay", eta=0.1, K1=8, E=100), 1).steps
        assert [f(t) for t in (1, 50, 99)] == [8, 8, 8]
        assert f(100) == 0
        assert f(250) == 0

    def test_linear_decay_form(self):
        f = Schedule(ScheduleSpec(kind="linear_decay", eta=0.1, K1=8, E=100), 1).steps
        assert f(1) == 8
        assert f(50) == 4
        assert f(99) == 1
        assert f(1000) == 1
