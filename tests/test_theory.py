import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfl import theory


def exhaustive_min_K(gamma_val, beta, cap=10_000):
    """Independent oracle: scan K upward until gamma^K * C_beta^2 < 1."""
    cb2 = theory.c_beta(beta) ** 2
    for k in range(1, cap + 1):
        if gamma_val**k * cb2 < 1.0:
            return k
    raise AssertionError("no contracting K below cap")


class TestGamma:
    def test_limit_at_zero_rate(self):
        assert theory.gamma(1e-12, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_hand_case_mu_equals_L(self):
        # 1 - 2*1*1 + 1*1 = 0
        assert theory.gamma(1.0, 1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case_with_noise(self):
        # 1 - 0.2 + 0.01*4*2 = 0.88
        assert theory.gamma(0.1, 1.0, 2.0, 1.0) == pytest.approx(0.88, abs=1e-15)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            theory.gamma(0.0, 1.0, 1.0)

    def test_convex_in_eta_minimized_at_stationary_point(self):
        # Grid scan around the analytic minimizer mu / (L^2 (1 + delta^2)).
        mu, L, delta = 0.7, 1.9, 0.3
        eta_star = mu / (L**2 * (1 + delta**2))
        g_star = theory.gamma(eta_star, mu, L, delta)
        assert g_star == pytest.approx(1 - mu**2 / (L**2 * (1 + delta**2)), rel=1e-12)
        for eta in np.linspace(eta_star / 10, eta_star * 3, 201):
            assert theory.gamma(float(eta), mu, L, delta) >= g_star - 1e-12


class TestCBeta:
    def test_beta_zero_floor(self):
        assert theory.c_beta(0.0) == pytest.approx(2.0)

    def test_hand_case(self):
        assert theory.c_beta(0.2) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            theory.c_beta(0.5)
        with pytest.raises(ValueError):
            theory.c_beta(-0.01)

    @given(st.floats(min_value=0.0, max_value=0.49))
    def test_at_least_two(self, beta):
        assert theory.c_beta(beta) >= 2.0

    def test_increasing(self):
        grid = np.linspace(0.0, 0.49, 500)
        vals = [theory.c_beta(float(b)) for b in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestStableEtaRange:
    def test_hand_case_mu_equals_L(self):
        lo, hi = theory.stable_eta_range(1.0, 1.0, 0.0)
        assert (lo, hi) == (0.0, 2.0)
        assert theory.gamma(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case_mu_1_L_2(self):
        _, hi = theory.stable_eta_range(1.0, 2.0, 0.0)
        assert hi == pytest.approx(0.5)
        assert theory.gamma(0.25, 1.0, 2.0) == pytest.approx(0.75, rel=1e-14)

    @given(
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=1.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_interior_is_contractive_boundary_is_not(self, mu, ratio, delta):
        L = mu * ratio
        _, eta_max = theory.stable_eta_range(mu, L, delta)
        for frac in (0.05, 0.3, 0.7, 0.95):
            g = theory.gamma(frac * eta_max, mu, L, delta)
            assert 0.0 < g < 1.0 + 1e-12
        for frac in (1.0, 1.2, 3.0):
            assert theory.gamma(frac * eta_max, mu, L, delta) >= 1.0 - 1e-12


class TestMinK:
    def test_hand_case_threshold_integral(self):
        # gamma=0.5, beta=0: threshold is exactly 2; K=2 gives 0.25*4 = 1, not < 1.
        assert theory.min_K(0.5, 0.0) == 3

    def test_hand_case_gamma_09(self):
        assert theory.min_K(0.9, 0.2) == 19
        assert 0.9**19 * theory.c_beta(0.2) ** 2 < 1.0 <= 0.9**18 * theory.c_beta(0.2) ** 2

    def test_rejects_noncontractive(self):
        with pytest.raises(ValueError):
            theory.min_K(1.0, 0.0)
        with pytest.raises(ValueError):
            theory.min_K(-0.3, 0.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = float(rng.uniform(0.02, 0.999))
            b = float(rng.uniform(0.0, 0.49))
            k = theory.min_K(g, b)
            assert k == exhaustive_min_K(g, b), (g, b)


class TestTheorem1Bound:
    def params(self, **kw):
        base = dict(eta=0.5, mu=1.0, L_const=1.0, delta=0.0, M=10, B=0, K=3, w1_gap_sq=1.0)
        base.update(kw)
        return theory.TheoryParams(**base)

    def test_round_zero_is_initial_envelope(self):
        p = self.params(L_const=2.0, mu=1.5, w1_gap_sq=3.0)
        assert theory.theorem1_bound(0, p) == pytest.approx(3.0)

    def test_hand_case_contraction_half(self):
        # mu = sqrt(2), L = 2, eta = mu/L^2: gamma = 1 - mu^2/L^2 = 0.5 exactly.
        mu = math.sqrt(2.0)
        p = self.params(eta=mu / 4.0, L_const=2.0, mu=mu, K=3, B=0, M=10, w1_gap_sq=1.0)
        assert p.gamma == pytest.approx(0.5, rel=1e-12)
        assert p.contraction_factor == pytest.approx(0.5**3 * 4, rel=1e-12)
        assert theory.theorem1_bound(1, p) == pytest.approx(0.5, rel=1e-12)
        assert theory.theorem1_bound(2, p) == pytest.approx(0.25, rel=1e-12)

    def test_geometric_decay_to_zero(self):
        p = self.params(eta=1.0, mu=1.0, L_const=1.2, K=8, M=10, B=2)
        assert p.contraction_factor < 1.0
        values = [theory.theorem1_bound(t, p) for t in range(201)]
        assert all(b2 < b1 or b1 == 0.0 for b1, b2 in zip(values, values[1:]))
        assert values[-1] < 1e-12 * values[0]

    def test_monotone_decreasing_iff_contractive(self):
        mu = math.sqrt(2.0)
        contractive = self.params(eta=mu / 4.0, L_const=2.0, mu=mu, K=3, B=0, M=10)
        assert contractive.contraction_factor < 1.0
        values = [theory.theorem1_bound(t, contractive) for t in range(31)]
        assert all(b2 < b1 for b1, b2 in zip(values, values[1:]))
        expanding = self.params(eta=mu / 4.0, L_const=2.0, mu=mu, K=1, B=3, M=10)
        assert expanding.contraction_factor > 1.0
        values = [theory.theorem1_bound(t, expanding) for t in range(31)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_contraction_factor_computed_once_with_the_same_bits(self, monkeypatch):
        p = self.params(eta=0.3, mu=0.7, L_const=1.9, delta=0.4, K=7, M=10, B=3)
        expected = theory.gamma(0.3, 0.7, 1.9, 0.4) ** 7 * theory.c_beta(0.3) ** 2
        assert np.float64(p.contraction_factor).view(np.int64) == np.float64(expected).view(np.int64)
        monkeypatch.setattr(theory, "gamma", None)
        assert theory.theorem1_bound(2, p) == 0.5 * 1.9 * expected**2 * 1.0

    def test_min_K_is_first_monotone_K(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = float(rng.uniform(0.05, 0.99))
            b = float(rng.uniform(0.0, 0.45))
            k = theory.min_K(g, b)
            cb2 = theory.c_beta(b) ** 2
            assert g**k * cb2 < 1.0
            if k > 1:
                assert g ** (k - 1) * cb2 >= 1.0


def uniform_rates(eta, H):
    """The (H,) honest rate vector with every rate eta."""
    return np.full(H, eta)


def loop_multiplier(rates, K, mu, L, delta, M, B):
    """Reference: the round multiplier as a scalar loop over clients, each factor multiplied K times."""
    total = 0.0
    negative = []
    for m in range(M - B):
        g = theory.gamma(float(rates[m]), mu, L, delta)
        if g <= 0.0 and K:
            negative.append(m)
        prod = 1.0
        for _ in range(K):
            prod *= g
        total += prod
    return theory.c_beta(B / M) ** 2 / (M - B) * total, negative


def theorem2_envelope(t, rates, K, mu, L, delta, M, B, gap):
    """(L/2) * gap times the round multipliers of rounds 1..t, multiplied in round order as the server does."""
    prod = 1.0
    for i in range(1, t + 1):
        prod *= theory.theorem2_round_multiplier(i, rates, K, mu, L, delta, M, B)
    return 0.5 * L * gap * prod


class TestTheorem2:
    def test_round_zero(self):
        # No round has run: the empty product leaves the prefactor (L/2) * ||w1 - w*||^2.
        val = theorem2_envelope(0, uniform_rates(0.1, 2), 3, 1.0, 2.0, 0.0, 3, 1, 5.0)
        assert val == 5.0

    def test_hand_case_round_multiplier(self):
        # Two honest clients (M=2, B=0): C_beta^2/(M-B) = 4/2 = 2. With
        # mu = L = 1, gamma(eta) = (1-eta)^2, so single-step products of
        # 0.5 and 0.3 give round multiplier 2 * (0.5 + 0.3) = 1.6.
        mu, L = 1.0, 1.0
        rates = np.array([1 - math.sqrt(0.5), 1 - math.sqrt(0.3)])
        mult = theory.theorem2_round_multiplier(1, rates, 1, mu, L, 0.0, 2, 0)
        assert mult == pytest.approx(1.6, rel=1e-12)

    def test_uniform_reduces_to_theorem1(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = float(rng.uniform(0.2, 1.0))
            L = mu * float(rng.uniform(1.0, 3.0))
            delta = float(rng.uniform(0.0, 1.0))
            M = int(rng.integers(3, 30))
            B = int(rng.integers(0, (M - 1) // 2 + 1))
            _, eta_max = theory.stable_eta_range(mu, L, delta)
            eta = float(rng.uniform(0.1, 0.95)) * eta_max
            K = int(rng.integers(1, 10))
            gap = float(rng.uniform(0.1, 5.0))
            p = theory.TheoryParams(
                eta=eta, mu=mu, L_const=L, delta=delta, M=M, B=B, K=K, w1_gap_sq=gap
            )
            rates = uniform_rates(eta, M - B)
            for t in (0, 1, 2, 5, 17, 100):
                b1 = theory.theorem1_bound(t, p)
                b2 = theorem2_envelope(t, rates, K, mu, L, delta, M, B, gap)
                assert b2 == pytest.approx(b1, rel=1e-12)

    def test_nonpositive_factor_flagged_but_evaluated(self):
        # mu = L = 1, eta = 1 gives a per-step factor of exactly 0.
        with pytest.warns(RuntimeWarning):
            val = theory.theorem2_round_multiplier(1, uniform_rates(1.0, 2), 2, 1.0, 1.0, 0.0, 2, 0)
        assert val == 0.0

    def test_vectorised_multiplier_equals_double_loop_bitwise(self):
        # Random general schedules: per-client rates, K = 0 included, some
        # draws past eta_max (factors > 1) and some exactly at mu = L = 1,
        # eta = 1 (factor 0, warned when it enters a product, K >= 1).
        rng = np.random.default_rng(11)
        for case in range(300):
            mu = float(rng.uniform(0.2, 1.0))
            L = mu * float(rng.uniform(1.0, 3.0))
            delta = float(rng.uniform(0.0, 1.0))
            M = int(rng.integers(1, 30))
            B = int(rng.integers(0, (M - 1) // 2 + 1))
            K = int(rng.integers(0, 9))
            _, eta_max = theory.stable_eta_range(mu, L, delta)
            rates = rng.uniform(0.01, 1.3, size=M - B) * eta_max
            if case % 10 == 0:
                mu = L = 1.0
                delta = 0.0
                rates[rng.random(rates.shape) < 0.3] = 1.0
            expected, negative = loop_multiplier(rates, K, mu, L, delta, M, B)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = theory.theorem2_round_multiplier(case, rates, K, mu, L, delta, M, B)
            assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64), case
            assert len(caught) == (1 if negative else 0)
            if negative:
                assert f"clients {negative[:3]}" in str(caught[0].message)

    @pytest.mark.parametrize("case", ["uniform", "repeats", "zero_steps"])
    def test_shared_factor_product_equals_the_vector_loop_bitwise(self, case):
        # One math.prod of a factor all honest clients share gives the bits
        # of multiplying every honest factor K times as one vector; so does
        # the vector loop that rates with repeats take.
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu = float(rng.uniform(0.2, 1.0))
            L = mu * float(rng.uniform(1.0, 3.0))
            delta = float(rng.uniform(0.0, 1.0))
            M = int(rng.integers(2, 40))
            B = int(rng.integers(0, (M - 1) // 2 + 1))
            _, eta_max = theory.stable_eta_range(mu, L, delta)
            pool = rng.uniform(0.01, 1.0, size=1 if case == "uniform" else 3) * eta_max
            rates = rng.choice(pool, size=M - B)
            K = 0 if case == "zero_steps" else int(rng.integers(1, 3000))
            prods = np.ones(M - B)
            for _ in range(K):
                prods *= theory.gamma(rates, mu, L, delta)
            expected = theory.c_beta(B / M) ** 2 / (M - B) * float(np.cumsum(prods)[-1])
            got = theory.theorem2_round_multiplier(1, rates, K, mu, L, delta, M, B)
            assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)

    def test_zero_steps_do_not_warn(self):
        # With K = 0 no factor enters the product, so a factor <= 0 is no
        # concern: the multiplier is C_beta^2 and nothing is reported.
        rates = np.array([1.0, 0.5, 1.0])  # mu = L = 1: factors 0, 0.25, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = theory.theorem2_round_multiplier(1, rates, 0, 1.0, 1.0, 0.0, 3, 0)
        assert val == theory.c_beta(0.0) ** 2

    def test_warning_names_clients(self):
        # Honest client m is row m; the warning names the first three ids whose factor is <= 0.
        rates = np.array([0.5, 1.0, 0.5, 1.0, 1.0, 1.0, 0.5])
        with pytest.warns(RuntimeWarning, match=r"round 4: .* for clients \[1, 3, 4\]\.\.\."):
            theory.theorem2_round_multiplier(4, rates, 2, 1.0, 1.0, 0.0, 9, 2)
        with pytest.warns(RuntimeWarning, match=r"for clients \[5\];"):
            theory.theorem2_round_multiplier(4, np.array([0.5] * 5 + [1.0]), 1, 1.0, 1.0, 0.0, 6, 0)

    def test_rejects_nonpositive_rate_and_wrong_row_count(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            theory.theorem2_round_multiplier(1, np.array([0.1, 0.0]), 2, 1.0, 1.0, 0.0, 2, 0)
        with pytest.raises(ValueError, match="expected 4 honest rates"):
            theory.theorem2_round_multiplier(1, uniform_rates(0.1, 3), 2, 1.0, 1.0, 0.0, 5, 1)
        with pytest.raises(ValueError, match="expected 2 honest rates"):
            theory.theorem2_round_multiplier(1, np.full((2, 3), 0.1), 3, 1.0, 1.0, 0.0, 2, 0)


class TestZeroGapCondition:
    """The envelope decays to a zero gap iff the round multiplier is < 1, i.e. sum_m gamma_m^K < (M - B) / C_beta^2."""

    def test_uniform_equivalence_with_contraction(self):
        mu, L, delta = 1.0, 2.0, 0.0
        M, B = 10, 2
        _, eta_max = theory.stable_eta_range(mu, L, delta)
        eta = 0.5 * eta_max
        g = theory.gamma(eta, mu, L, delta)
        for K in range(1, 40):
            cond = theory.theorem2_round_multiplier(1, uniform_rates(eta, M - B), K, mu, L, delta, M, B) < 1.0
            assert cond == (g**K * theory.c_beta(B / M) ** 2 < 1.0)

    def test_hand_case_honest_sum(self):
        # M=10, B=2: threshold (M-B)/C_beta^2 = 8 / (8/3)^2 = 1.125.
        # All-one factors (K=0 steps) give sum = 8 -> False.
        M, B = 10, 2
        assert not theory.theorem2_round_multiplier(1, uniform_rates(0.1, 8), 0, 1.0, 1.0, 0.0, M, B) < 1.0
        # Single-step factors 0.125 each give sum 1.0 < 1.125 -> True.
        # gamma(eta) = (1-eta)^2 = 0.125 -> eta = 1 - sqrt(0.125)
        eta = 1 - math.sqrt(0.125)
        assert theory.theorem2_round_multiplier(1, uniform_rates(eta, 8), 1, 1.0, 1.0, 0.0, M, B) < 1.0
