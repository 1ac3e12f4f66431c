"""Seeded property suites runnable from the CLI and reused by the test suite.

Three suites mirror the package's main guarantees: 'geomed' exercises the
geometric-median robustness certificate and its algebraic properties,
'assumptions' certifies the curvature and gradient-oracle assumptions on a
concrete problem, and 'bounds' replays the convergence envelopes against
measured runs. Each property returns a list of counterexample dicts; empty
means the property held on every case.
"""

from dataclasses import dataclass, field

import numpy as np

from . import theory
from .aggregation import _weiszfeld, ball_robustness_check, geomed_objective, geometric_median
from .config import (
    AggregatorSpec,
    AttackSpec,
    ExperimentConfig,
    InitSpec,
    OracleSpec,
    ScheduleSpec,
    SyntheticProblemSpec,
)
from .problems import (
    Logistic,
    Ridge,
    constants,
    global_gradient,
    local_stoch_grad,
    make_synthetic,
    optimum,
)
from .server import run_prepared, prepare

__all__ = [
    "PropertyResult",
    "ball_robustness_cases",
    "median_reduction_cases",
    "equivariance_cases",
    "geomed_suite",
    "assumptions_suite",
    "bounds_suite",
    "run_suite",
    "SUITES",
]


@dataclass
class PropertyResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _grid_best_objective_2d(pts: np.ndarray, center: np.ndarray, half_width: float, n: int = 101) -> float:
    xs = np.linspace(center[0] - half_width, center[0] + half_width, n)
    ys = np.linspace(center[1] - half_width, center[1] + half_width, n)
    gx, gy = np.meshgrid(xs, ys)
    dx = gx.ravel()[:, None] - pts[:, 0]
    dy = gy.ravel()[:, None] - pts[:, 1]
    return float(np.sqrt(dx * dx + dy * dy).sum(axis=1).min())


def ball_robustness_cases(n_cases: int = 10_000, seed: int = 2024) -> list[dict]:
    """Randomized deterministic-ball checks of the geometric median.

    Each case draws n <= 25 points in dimension <= 16 with q < n/2
    corrupted: honest points uniform in a ball of random radius around a
    random center, attackers at norms up to 1e6. The certificate must hold
    on every case; 2-D cases are additionally checked against a brute-force
    grid minimization of the objective, other dimensions against the
    smoothed-subgradient residual.
    """
    rng = np.random.default_rng(seed)
    spec = AggregatorSpec()
    failures = []
    for case in range(n_cases):
        n = int(rng.integers(3, 26))
        q = int(rng.integers(0, (n - 1) // 2 + 1))
        p = int(rng.integers(1, 17))
        center = rng.normal(0.0, 5.0, size=p)
        radius = float(10.0 ** rng.uniform(-3, 2))

        dirs = rng.standard_normal((n - q, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * rng.random(n - q) ** (1.0 / p)
        honest = center + radii[:, None] * dirs

        adirs = rng.standard_normal((q, p))
        adirs /= np.linalg.norm(adirs, axis=1, keepdims=True)
        anorms = 10.0 ** rng.uniform(0, 6, size=q)
        attackers = anorms[:, None] * adirs

        pts = np.concatenate([honest, attackers]) if q else honest

        result = geometric_median(pts, spec)
        ok = ball_robustness_check(pts, center, radius, q, result.value)
        cert_ok = True
        detail = ""
        if p == 2:
            cert = theory.c_beta(q / n)
            best = _grid_best_objective_2d(pts, center, 1.05 * cert * radius + 1e-6)
            cert_ok = result.objective <= best + 1e-7 * (1.0 + best)
            detail = f"objective {result.objective} vs grid best {best}"
        else:
            cert_ok = result.residual <= 1e-6
            detail = f"residual {result.residual}"
        if not (ok and cert_ok):
            failures.append(
                {
                    "case": case,
                    "n": n,
                    "q": q,
                    "p": p,
                    "radius": radius,
                    "ball_check": ok,
                    "oracle_ok": cert_ok,
                    "detail": detail,
                }
            )
    return failures


def median_reduction_cases(n_cases: int = 1000, seed: int = 77) -> list[dict]:
    """In one dimension with odd counts the geometric median is the coordinate median."""
    rng = np.random.default_rng(seed)
    spec = AggregatorSpec()
    failures = []
    for case in range(n_cases):
        n = int(rng.integers(1, 13)) * 2 + 1
        pts = (rng.standard_normal((n, 1)) * 10.0 ** rng.uniform(-1, 2)).round(6)
        res = geometric_median(pts, spec)
        med = float(np.median(pts))
        scale = max(1.0, abs(med))
        if abs(res.value[0] - med) > 1e-7 * scale:
            failures.append({"case": case, "points": pts.ravel().tolist(), "got": float(res.value[0]), "median": med})
    return failures


def equivariance_cases(n_cases: int = 1000, seed: int = 78) -> list[dict]:
    """Translation and positive-scaling equivariance within 10 * tol."""
    rng = np.random.default_rng(seed)
    spec = AggregatorSpec()
    failures = []
    for case in range(n_cases):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, 9))
        pts = rng.standard_normal((n, p))
        base = geometric_median(pts, spec).value
        shift = rng.normal(0.0, 10.0, size=p)
        s = float(10.0 ** rng.uniform(-2, 2))
        moved = geometric_median(pts + shift, spec).value
        scaled = geometric_median(s * pts, spec).value
        t_err = float(np.linalg.norm(moved - (base + shift)))
        s_err = float(np.linalg.norm(scaled - s * base))
        t_tol = 10 * spec.tol + 1e-12 * np.linalg.norm(shift)
        s_tol = 10 * s * spec.tol
        if t_err > t_tol or s_err > s_tol:
            failures.append({"case": case, "translation_err": t_err, "scaling_err": s_err})
    return failures


def _majority_exactness_cases(n_cases: int = 300, seed: int = 79) -> list[dict]:
    rng = np.random.default_rng(seed)
    failures = []
    for case in range(n_cases):
        n = int(rng.integers(3, 20))
        copies = int(rng.integers(n // 2 + 1, n + 1))
        p = int(rng.integers(1, 6))
        shared = rng.standard_normal(p)
        pts = [shared.copy() for _ in range(copies)]
        pts += [rng.normal(0.0, 1e5, size=p) for _ in range(n - copies)]
        rng.shuffle(pts)
        res = geometric_median(pts)
        if res.value.tobytes() != shared.tobytes():
            failures.append({"case": case, "n": n, "copies": copies})
    return failures


def _descent_cases(n_cases: int = 200, seed: int = 80) -> list[dict]:
    """Smoothed Weiszfeld steps never raise the objective, from the mean or from the coordinate-wise order statistic.

    Distances are floored at the shipped floor, the default ``tol``. The
    order statistic is skipped when it is one of the points: its own
    floored distance breaks the descent argument there, which is why
    ``geometric_median`` starts from the mean in that case.
    """
    floor = AggregatorSpec().tol
    rng = np.random.default_rng(seed)
    failures = []
    for case in range(n_cases):
        n = int(rng.integers(3, 20))
        p = int(rng.integers(1, 10))
        pts = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-1, 2)
        starts = {"mean": pts.mean(axis=0)}
        center = np.partition(pts, n // 2, axis=0)[n // 2]
        if not (pts == center).all(axis=1).any():
            starts["order-statistic"] = center
        for start, x in starts.items():
            prev = geomed_objective(pts, x)
            for it in range(150):
                d = np.maximum(np.linalg.norm(pts - x, axis=1), floor)
                w = 1.0 / d
                x = w @ pts / w.sum()
                obj = geomed_objective(pts, x)
                if obj > prev * (1 + 1e-12):
                    failures.append({"case": case, "start": start, "iteration": it, "rise": obj - prev})
                    break
                prev = obj
    return failures


def _start_cases(n_cases: int = 400, seed: int = 81) -> list[dict]:
    """The shipped Weiszfeld start against a mean start, on integer-lattice point sets.

    Lattice points often put the coordinate-wise order statistic, the
    shipped start, on a point or on a vertex of another point's cell, where
    a floored weight can hold the iterate. Under the default spec, each
    case's objective must be at most 1e-6 relative above that of the
    iteration started at the mean (a lower one means the mean start
    stalled), and the shipped start may leave no more cases unconverged.
    """
    rng = np.random.default_rng(seed)
    spec = AggregatorSpec()
    failures = []
    unconverged = [0, 0]
    for case in range(n_cases):
        n, p, k = int(rng.integers(2, 12)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pts = rng.integers(-k, k + 1, size=(n, p)).astype(np.float64)
        got = geometric_median(pts, spec)
        center = np.partition(pts, n // 2, axis=0)[n // 2]
        ref = _weiszfeld(pts, center, (pts - center).mean(axis=0), spec)
        unconverged[0] += not got.converged
        unconverged[1] += not ref.converged
        if got.objective > ref.objective * (1 + 1e-6):
            failures.append({"case": case, "objective": got.objective, "mean_start": ref.objective})
    if unconverged[0] > unconverged[1]:
        failures.append({"unconverged": unconverged[0], "mean_start": unconverged[1]})
    return failures


def _far_row_cases(seed: int = 82) -> list[dict]:
    """The worst case for a distance floor: corrupted rows as far out as a finite squared norm allows.

    17 honest rows lie within 1e-3 of (1, 1, 1); two copies of 1.3e154 * e1
    join them, and then a third row at -1.3e154 * e1. Both medians must
    converge and lie within ``c_beta(q / n) * r`` of the honest mean, r the
    honest rows' largest distance from it. A floor that scales with the
    farthest row flattens the honest weights here and lands ~1e143 away.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((17, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    honest = 1.0 + 1e-3 * rng.random((17, 1)) ** (1 / 3) * dirs
    center = honest.mean(axis=0)
    radius = float(np.linalg.norm(honest - center, axis=1).max())
    far = 1.3e154 * np.eye(3)[:1]
    failures = []
    for corrupted in (np.vstack([far, far]), np.vstack([far, far, -far])):
        pts = np.vstack([honest, corrupted])
        res = geometric_median(pts)
        if not (res.converged and ball_robustness_check(pts, center, radius, len(corrupted), res.value)):
            distance = float(np.linalg.norm(res.value - center))
            failures.append({"far_rows": len(corrupted), "converged": res.converged, "distance": distance})
    return failures


def geomed_suite(seed: int = 2024, n_ball: int = 10_000) -> list[PropertyResult]:
    return [
        PropertyResult("ball-robustness", n_ball, ball_robustness_cases(n_ball, seed)),
        PropertyResult("1d-median-reduction", 1000, median_reduction_cases(1000, seed + 1)),
        PropertyResult("translation-scaling-equivariance", 1000, equivariance_cases(1000, seed + 2)),
        PropertyResult("majority-coincidence-exactness", 300, _majority_exactness_cases(300, seed + 3)),
        PropertyResult("weiszfeld-monotone-descent", 200, _descent_cases(200, seed + 4)),
        PropertyResult("weiszfeld-start-lattice", 400, _start_cases(400, seed + 5)),
        PropertyResult("far-rows-stay-in-ball", 2, _far_row_cases(seed + 6)),
    ]


def _curvature_cases(n_cases: int = 200, seed: int = 2027) -> list[dict]:
    """mu and L on the safe side of the Hessian's extreme Rayleigh quotients, on random problems.

    An envelope is a bound only if mu <= lambda_min and L >= lambda_max.
    Even cases are ridge, with Hessian H = G + lam, odd ones logistic, whose
    curvature is capped by H = 0.25 * G + lam; H's eigenvectors come from
    ``np.linalg.eigh``, and the slack is 1e-14 relative.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for case in range(n_cases):
        p = int(rng.integers(1, 21))
        lam = float(rng.uniform(0.05, 1.0))
        M, S, data_seed = int(rng.integers(1, 9)), int(rng.integers(p, 61)), int(rng.integers(0, 2**31))
        kind = Logistic(lam) if case % 2 else Ridge(lam)
        problem = make_synthetic(p, M, S, data_seed, heterogeneity=float(rng.uniform(0.0, 1.0)), loss_kind=kind)
        consts = constants(problem)
        H = (0.25 if case % 2 else 1.0) * problem._gram_global + lam * np.eye(p)
        _, V = np.linalg.eigh(H)
        lo, hi = float(V[:, 0] @ H @ V[:, 0]), float(V[:, -1] @ H @ V[:, -1])
        if consts.L_const < hi * (1 - 1e-14) or consts.mu > lo * (1 + 1e-14):
            failures.append({"case": case, "mu": consts.mu, "lambda_min": lo, "L": consts.L_const, "lambda_max": hi})
    return failures


def assumptions_suite(seed: int = 2025, n_pairs: int = 1000, n_noise: int = 100_000) -> list[PropertyResult]:
    """Certify curvature constants and oracle statistics on a ridge problem, and mu and L on random ones."""
    problem = make_synthetic(p=8, M=5, S_per_user=60, seed=seed, heterogeneity=0.3, loss_kind=Ridge(lam=0.3))
    consts = constants(problem)
    rng = np.random.default_rng(seed)

    strong, smooth = [], []
    for case in range(n_pairs):
        w1 = rng.standard_normal(problem.dim) * 3
        w2 = rng.standard_normal(problem.dim) * 3
        g1, g2 = global_gradient(problem, w1), global_gradient(problem, w2)
        dsq = float(np.linalg.norm(w1 - w2) ** 2)
        inner = float((g1 - g2) @ (w1 - w2))
        if inner < consts.mu * dsq * (1 - 1e-9):
            strong.append({"case": case, "inner": inner, "mu_bound": consts.mu * dsq})
        if float(np.linalg.norm(g1 - g2)) > consts.L_const * np.sqrt(dsq) * (1 + 1e-9):
            smooth.append({"case": case})

    order = [] if consts.mu <= consts.L_const else [{"mu": consts.mu, "L": consts.L_const}]

    delta = 0.5
    oracle = OracleSpec(kind="relative_noise", delta=delta)
    w = rng.standard_normal(problem.dim)
    g = global_gradient(problem, w)
    ratios = np.empty(n_noise)
    means = np.zeros(problem.dim)
    for i in range(n_noise):
        noisy = local_stoch_grad(problem, [0], w[None], oracle, rng)[0]
        noise = noisy - g
        ratios[i] = (noise @ noise) / (g @ g)
        means += noise
    ratio_fail = []
    if abs(ratios.mean() - delta**2) > 0.05 * delta**2:
        ratio_fail.append({"mean_ratio": float(ratios.mean()), "target": delta**2})
    mean_norm = float(np.linalg.norm(means / n_noise))
    # 4-sigma bound on the norm of the mean of isotropic noise of norm delta*||g||
    if mean_norm > 4.0 * delta * float(np.linalg.norm(g)) / np.sqrt(n_noise):
        ratio_fail.append({"mean_noise_norm": mean_norm})

    return [
        PropertyResult("strong-convexity-pairs", n_pairs, strong),
        PropertyResult("smoothness-pairs", n_pairs, smooth),
        PropertyResult("mu-below-L", 1, order),
        PropertyResult("curvature-extremes", 200, _curvature_cases(200, seed + 2)),
        PropertyResult("relative-noise-ratio", n_noise, ratio_fail),
    ]


def _far_attack_cases() -> list[dict]:
    """Theorem 2's envelope under Gaussian attacks far outside the honest uploads.

    The default ridge problem on the general schedule with the full oracle:
    honest uploads differ, so every round runs Weiszfeld iterations, and
    the envelope is a hard bound. Every round's gap must lie under it plus
    1e-9 absolute for rounding.
    """
    failures = []
    for sigma in (1e4, 1e8, 1e12, 1e150):
        cfg = ExperimentConfig(
            attack=AttackSpec(kind="gaussian", sigma=sigma),
            schedule=ScheduleSpec(kind="general"),
            oracle=OracleSpec(kind="full"),
            rounds=100,
            seed=3,
        )
        for rec in run_prepared(prepare(cfg)):
            if rec.optimality_gap > rec.theorem2_bound + 1e-9:
                failures.append({"sigma": sigma, "t": rec.t, "gap": rec.optimality_gap, "bound": rec.theorem2_bound})
    return failures


def bounds_suite(seed: int = 2026, n_configs: int = 20) -> list[PropertyResult]:
    """Measured optimality gaps stay under the envelope on random contractive setups."""
    rng = np.random.default_rng(seed)
    envelope_fails = []
    for case in range(n_configs):
        M = int(rng.integers(4, 12))
        B = int(rng.integers(0, (M - 1) // 2 + 1))
        cfg = ExperimentConfig(
            problem=SyntheticProblemSpec(
                p=int(rng.integers(2, 6)),
                n_users=M,
                samples_per_user=40,
                heterogeneity=0.0,
                loss="ridge",
                reg=float(rng.uniform(0.1, 1.0)),
            ),
            n_byzantine=B,
            attack=AttackSpec(kind="gaussian", sigma=float(rng.uniform(1.0, 50.0))),
            aggregator=AggregatorSpec(kind="geomed"),
            schedule=ScheduleSpec(kind="uniform", steps="auto", eta="auto"),
            oracle=OracleSpec(kind="full"),
            rounds=40,
            seed=int(rng.integers(0, 2**31)),
            init=InitSpec(kind="zeros"),
        )
        prep = prepare(cfg)
        records = run_prepared(prep)
        for rec in records:
            if rec.optimality_gap > rec.theorem1_bound + 1e-9:
                envelope_fails.append({"case": case, "t": rec.t, "gap": rec.optimality_gap, "bound": rec.theorem1_bound})

    mink_fails = []
    for case in range(1000):
        g = float(rng.uniform(0.02, 0.999))
        b = float(rng.uniform(0.0, 0.49))
        k = theory.min_K(g, b)
        cb2 = theory.c_beta(b) ** 2
        scan = next(kk for kk in range(1, 10_001) if g**kk * cb2 < 1.0)
        if k != scan:
            mink_fails.append({"case": case, "gamma": g, "beta": b, "min_K": k, "scan": scan})

    reduction_fails = []
    for case in range(50):
        mu = float(rng.uniform(0.2, 1.0))
        L = mu * float(rng.uniform(1.0, 3.0))
        delta = float(rng.uniform(0.0, 1.0))
        M = int(rng.integers(3, 30))
        B = int(rng.integers(0, (M - 1) // 2 + 1))
        eta = float(rng.uniform(0.1, 0.95)) * theory.stable_eta_range(mu, L, delta)[1]
        K = int(rng.integers(1, 10))
        gap = float(rng.uniform(0.1, 5.0))
        params = theory.TheoryParams(eta=eta, mu=mu, L_const=L, delta=delta, M=M, B=B, K=K, w1_gap_sq=gap)
        rates = np.full(M - B, eta)
        prod = 1.0  # multiplied over rounds 1..t in order, as the server does
        for t in range(1, 101):
            prod *= theory.theorem2_round_multiplier(t, rates, K, mu, L, delta, M, B)
            b1, b2 = theory.theorem1_bound(t, params), 0.5 * L * gap * prod
            if abs(b2 - b1) > 1e-12 * max(b1, 1e-300):
                reduction_fails.append({"case": case, "t": t, "b1": b1, "b2": b2})

    return [
        PropertyResult("theorem1-envelope-random-configs", n_configs, envelope_fails),
        PropertyResult("theorem2-envelope-far-attacks", 4, _far_attack_cases()),
        PropertyResult("min-K-exhaustive", 1000, mink_fails),
        PropertyResult("theorem2-uniform-reduction", 50, reduction_fails),
    ]


SUITES = ("geomed", "assumptions", "bounds")


def run_suite(name: str, n_ball: int = 10_000) -> list[PropertyResult]:
    """Run one named suite, or all of them; n_ball sizes the ball-robustness sample."""
    if name not in SUITES and name != "all":
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    results: list[PropertyResult] = []
    if name in ("geomed", "all"):
        results.extend(geomed_suite(n_ball=n_ball))
    if name in ("assumptions", "all"):
        results.extend(assumptions_suite())
    if name in ("bounds", "all"):
        results.extend(bounds_suite())
    return results
