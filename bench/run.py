"""byzfl benchmark: closed-loop batch runs of three workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload ridge_exact --seed 1 --seconds 30 --trace 0

One process, one client thread (``n_threads=1``, BLAS pinned to one thread).
``--seed n`` becomes the configs' master seeds ``n*k .. n*k+k-1`` (k configs
per repeat) and is the only input varied. Each repeat is preceded by a
group of set-ups (``server.prepare`` of every config), runs every prepared
config with ``server.run_prepared`` and writes its artifacts with
``cli.write_artifacts``.

``--trace 0`` reports the end-to-end metrics: set-up time, repeat time, the
50th and 90th percentiles of per-round times and the peak RSS of this
process. Rounds are timed by one wrapper around ``byzfl.server.run_round``;
no layer is instrumented. Times are calibrated seconds: wall times scaled
by the mean time of a fixed calibration unit timed between rounds in the
same run, so that host contention and drifts in host speed cancel (see
``end_to_end``). Raw wall times are in the information record.

``--trace 1`` runs the workload untraced for half the time, then again with
spans recorded around the calls into each module's public functions, patched
where their caller looks them up (``server`` imports names directly), and
reports the per-layer metrics. ``src/byzfl`` is not modified; every patched
name is restored afterwards.

Every round is checked (finite loss and gap, plus a per-workload envelope or
range rule), and every repeat must reproduce the first untraced repeat's
``trace.jsonl`` (SHA-256) and counters exactly, or all of its rounds fail.

The last line of standard output is the result object; the line before it is
an information record (environment, sample counts, digests, layer shares),
also written with the spans to ``.bench_out/<workload>/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

FIRST_SETUPS = 3  # set-ups before the first repeat
SETUPS_PER_REPEAT = 3  # set-ups before each repeat, which runs the last one's
MIN_REPEATS = 2  # so that every untraced run checks determinism across repeats
MAX_TRACED_REPEATS = 2  # bounds the spans held in memory and their processing time
CAL_S = 0.5e-3  # about the calibration unit's mean time on a 2-vCPU Xeon
CAL_PASSES = 20  # passes in one calibration unit, 0.3 to 0.6 ms on a 2-vCPU Xeon
CAL_EVERY_S = 0.01  # one calibration unit per this much time, about 4% of the run
CAL_MAX_BURST = 10  # calibration units run back to back after one long round
ROUND = "server.run_round"


@dataclass(frozen=True)
class Workload:
    name: str
    configs_per_repeat: int
    rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ridge_exact", configs_per_repeat=4, rounds=200),
        Workload("ridge_noisy", configs_per_repeat=2, rounds=50),
        Workload("logistic_minibatch", configs_per_repeat=2, rounds=50),
    )
}


def make_config(workload: str, master_seed: int, rounds: int):
    """The workload's ExperimentConfig; the master seed is its only varied input."""
    from byzfl.config import (
        AggregatorSpec,
        AttackSpec,
        ExperimentConfig,
        InitSpec,
        OracleSpec,
        ScheduleSpec,
        SyntheticProblemSpec,
    )

    common = dict(
        attack=AttackSpec(kind="gaussian", sigma=10.0),
        aggregator=AggregatorSpec(kind="geomed"),
        rounds=rounds,
        seed=master_seed,
        init=InitSpec(kind="zeros"),
    )
    if workload == "logistic_minibatch":
        return ExperimentConfig(
            problem=SyntheticProblemSpec(
                p=20, n_users=100, samples_per_user=100, heterogeneity=0.5, loss="logistic", reg=0.1
            ),
            n_byzantine=20,
            schedule=ScheduleSpec(kind="uniform", steps=5, eta="auto"),
            oracle=OracleSpec(kind="minibatch", batch_size=16),
            **common,
        )
    # Acceptance criteria 1 (full gradient) and 4 (relative noise, delta=0.5).
    # Auto K is 3 to 6 depending on the seed's data; ridge_exact pins it at 6,
    # at least the minimal contracting K of every seed, so its work per run
    # does not depend on the seed. ridge_noisy keeps auto K: a larger K
    # shrinks its envelope below the float resolution of the gap within 50
    # rounds, and its time is dominated by aggregation, not by K.
    exact = workload == "ridge_exact"
    return ExperimentConfig(
        problem=SyntheticProblemSpec(
            p=10, n_users=50, samples_per_user=200, heterogeneity=0.0, loss="ridge", reg=0.5
        ),
        n_byzantine=10,
        schedule=ScheduleSpec(kind="uniform", steps=6 if exact else "auto", eta="auto"),
        oracle=OracleSpec(kind="full") if exact else OracleSpec(kind="relative_noise", delta=0.5),
        **common,
    )


def round_ok(workload: str, rec) -> bool:
    """The workload's output check for one TraceRecord."""
    if not (math.isfinite(rec.optimality_gap) and math.isfinite(rec.global_loss)):
        return False
    if workload == "ridge_exact":  # criterion 1's rule
        return rec.theorem1_bound is not None and rec.optimality_gap <= rec.theorem1_bound + 1e-9
    if workload == "ridge_noisy":
        # The envelope bounds the expected gap; single runs stay far below it.
        return rec.theorem1_bound is not None and rec.optimality_gap <= rec.theorem1_bound
    acc = rec.test_accuracy
    return rec.optimality_gap >= -1e-9 and acc is not None and 0.0 <= acc <= 1.0


class Spans:
    """In-memory spans (name, start, end, parent index, round id) around patched module attributes.

    Columns are flat arrays, about 40 bytes a span, because a traced repeat
    of ridge_exact records a quarter of a million of them.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.round = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._round = -1

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, module, attr: str, opens_round: bool = False, after=None) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.removeprefix('byzfl.')}.{attr}"
        names, starts, ends, parents, stack = self.names, self.start, self.end, self.parent, self._stack

        def wrapper(*args, **kwargs):
            if opens_round:
                self._round += 1
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            self.round.append(self._round)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                if after is not None:
                    after()

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def timed(self, lo: int, hi: int) -> list[tuple[str, float, float]]:
        """(name, inclusive seconds, self seconds) of spans lo..hi-1."""
        incl = [e - s for s, e in zip(self.start[lo:hi], self.end[lo:hi])]
        child = [0.0] * (hi - lo)
        for d, parent in zip(incl, self.parent[lo:hi]):
            if parent >= lo:
                child[parent - lo] += d
        return list(zip(self.names[lo:hi], incl, [d - c for d, c in zip(incl, child)]))

    def summary(self, lo: int, hi: int) -> dict[str, list]:
        """Per span name over spans lo..hi-1: [calls, inclusive seconds, self seconds]."""
        out: dict[str, list] = {}
        for name, incl, own in self.timed(lo, hi):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += incl
            agg[2] += own
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.start, self.end, self.parent, self.round):
                fh.write(json.dumps(row) + "\n")


class Calibration:
    """Times a fixed unit of the benchmark's own work between rounds, about once per CAL_EVERY_S.

    The unit is a few Weiszfeld-style passes and least-squares gradients on
    fixed small arrays, like the program's rounds: Python-level loops over
    numpy calls on arrays of tens to hundreds of rows. It uses no byzfl
    code, so a change to the program does not change it; a change in how
    fast the host runs the process does.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((50, 10))
        self.features = rng.standard_normal((200, 10))
        self.times = array("d")
        self.busy_s = 0.0
        self._last = perf_counter() - CAL_EVERY_S

    def unit(self):
        import numpy as np

        z = self.points.mean(axis=0)
        for _ in range(CAL_PASSES):
            w = 1.0 / np.maximum(np.linalg.norm(self.points - z, axis=1), 1e-12)
            z = (w @ self.points) / w.sum()
            z = z - 1e-3 * (self.features.T @ (self.features @ z))
        return z

    def maybe_sample(self) -> None:
        """One unit per CAL_EVERY_S elapsed since the last sample, at most CAL_MAX_BURST."""
        start = perf_counter()
        due = min(int((start - self._last) / CAL_EVERY_S), CAL_MAX_BURST)
        for _ in range(due):
            t0 = perf_counter()
            self.unit()
            self.times.append(perf_counter() - t0)
        self._last = perf_counter()
        if due:
            self.busy_s += self._last - start


def patch_round_timer(spans: Spans, cal: Calibration | None = None) -> None:
    from byzfl import server

    spans.wrap(server, "run_round", opens_round=True, after=cal.maybe_sample if cal else None)


def patch_layers(spans: Spans) -> None:
    from byzfl import cli, clients, server, theory

    patch_round_timer(spans)
    for attr in ("prepare", "make_synthetic", "constants", "optimum"):
        spans.wrap(server, attr)
    for attr in (
        "honest_local_update",
        "byzantine_message",
        "substream",
        "geometric_median",
        "global_loss",
        "test_accuracy",
    ):
        spans.wrap(server, attr)
    spans.wrap(clients, "substream")
    spans.wrap(clients, "local_stoch_grad")
    spans.wrap(theory, "theorem2_round_multiplier")
    spans.wrap(theory, "theorem1_bound")
    spans.wrap(cli, "write_artifacts")


def set_up(configs) -> tuple[list, float]:
    from byzfl import server

    start = perf_counter()
    preps = [server.prepare(c) for c in configs]
    return preps, perf_counter() - start


@dataclass
class Repeat:
    run_s: float
    rounds: int
    failed: int
    digests: list[str]
    counters: dict
    bytes_written: int
    span_range: tuple[int, int]


def run_repeat(workload: str, preps, spans: Spans, out_dir: Path, cal: Calibration | None) -> Repeat:
    from byzfl import cli, server

    lo = len(spans)
    all_records = []
    cal_before = cal.busy_s if cal else 0.0
    start = perf_counter()
    for i, prep in enumerate(preps):
        records = server.run_prepared(prep, n_threads=1)
        cli.write_artifacts(out_dir / f"config{i}", prep, records)
        all_records.append(records)
    run_s = perf_counter() - start - ((cal.busy_s - cal_before) if cal else 0.0)
    hi = len(spans)

    digests, nbytes = [], 0
    for i in range(len(preps)):
        d = out_dir / f"config{i}"
        digests.append(hashlib.sha256((d / "trace.jsonl").read_bytes()).hexdigest())
        nbytes += sum(f.stat().st_size for f in d.iterdir())
    flat = [r for records in all_records for r in records]
    expected = sum(p.rounds for p in preps)
    timed = spans.names[lo:hi].count(ROUND)
    failed = sum(not round_ok(workload, r) for r in flat)
    if len(flat) != expected or timed != expected:
        failed = expected
    counters = {
        "aggregation.iters": sum(r.agg_iterations for r in flat),
        "aggregation.majority_rounds": sum(r.agg_iterations == 0 for r in flat),
        "aggregation.vertex_rounds": sum(
            r.agg_converged and r.agg_residual == 0.0 and r.agg_iterations >= 1 for r in flat
        ),
        "aggregation.unconverged_rounds": sum(not r.agg_converged for r in flat),
        "aggregation.converged_rounds": sum(bool(r.agg_converged) for r in flat),
        "clients.local_steps": sum(
            len(p.honest_ids) * p.schedule.steps(t) for p in preps for t in range(1, p.rounds + 1)
        ),
    }
    return Repeat(run_s, expected, failed, digests, counters, nbytes, (lo, hi))


@dataclass
class Phase:
    setup_s: list[float]
    setup_ranges: list[tuple[int, int]]
    repeats: list[Repeat]


def run_phase(
    workload, configs, spans, out_dir, deadline, min_repeats, first_setups, max_repeats=None, cal=None
) -> Phase:
    """Closed loop: set up and repeat until the next pair would pass the deadline.

    Set-ups are spread over the phase, a few before each repeat, so that
    they sample the same machine conditions as the repeats. The repeat runs
    the last one's preps.
    """
    phase = Phase([], [], [])

    def timed_setup():
        if cal:
            cal.maybe_sample()
        lo = len(spans)
        preps, dt = set_up(configs)
        phase.setup_s.append(dt)
        phase.setup_ranges.append((lo, len(spans)))
        return preps

    for _ in range(first_setups):
        timed_setup()
    last = 0.0
    while len(phase.repeats) < min_repeats or (
        perf_counter() + last <= deadline and len(phase.repeats) != max_repeats
    ):
        start = perf_counter()
        for _ in range(SETUPS_PER_REPEAT):
            preps = timed_setup()
        phase.repeats.append(run_repeat(workload, preps, spans, out_dir, cal))
        last = perf_counter() - start
    return phase


def enforce_identical(repeats: list[Repeat], ref: Repeat) -> None:
    """Fail every round of a repeat whose digests or exact counters differ from the reference."""
    for rep in repeats:
        if rep.digests != ref.digests or rep.counters != ref.counters:
            rep.failed = rep.rounds


def src_line_count() -> int:
    return sum(f.read_bytes().count(b"\n") for f in sorted((SRC / "byzfl").rglob("*.py")))


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, master_seeds: list[int]) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "n_threads": 1,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload,
        "seed": seed,
        "master_seeds": master_seeds,
        "src_byzfl_lines": src_line_count(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def round_means_ms(spans: Spans, repeats: list[Repeat]) -> list[float]:
    """Per round, its mean wall time over the repeats, in ms.

    Every repeat runs the same rounds in the same order with identical
    results (checked by the trace digests), so round j of each repeat does
    the same work.
    """
    per_repeat = [
        [incl * 1e3 for name, incl, _ in spans.timed(*r.span_range) if name == ROUND] for r in repeats
    ]
    return [statistics.fmean(times) for times in zip(*per_repeat)]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(phase: Phase, spans: Spans, cal: Calibration) -> tuple[dict, dict]:
    """End-to-end metrics in calibrated time, plus raw times and sample counts for the record.

    Host contention slows the process by up to 2x, in phases that change
    within a second, and both the share of contended time and the host's
    uncontended speed drift from minute to minute. Every time is therefore
    multiplied by ``CAL_S / mean calibration unit time`` of the same run.
    The units are timed at a steady rate over the whole run, so their mean
    is the unit's cost times the run's mean slowdown; so is a mean over the
    repeats. Medians of single samples are not used: with a slowdown that
    takes two values, they jump between them from run to run.

    ``run_s`` is the mean repeat time. The round percentiles are over the
    rounds' mean times over the repeats (``round_means_ms``). ``setup_s`` is
    the median set-up: set-ups are short, so one stall would move their mean.
    """
    means = round_means_ms(spans, phase.repeats)
    run_s = statistics.fmean(r.run_s for r in phase.repeats)
    setup_s = statistics.median(phase.setup_s)
    unit_s = statistics.fmean(cal.times)
    scale = CAL_S / unit_s
    return {
        "setup_s": metric(setup_s * scale, "s"),
        "run_s": metric(run_s * scale, "s"),
        "round_ms.p50": metric(statistics.median(means) * scale, "ms"),
        "round_ms.p90": metric(p90(means) * scale, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "calibration": {"units": len(cal.times), "mean_ms": unit_s * 1e3, "scale": scale},
        "raw_s": {
            "setup": setup_s,
            "run": run_s,
            "round_p50": statistics.median(means) / 1e3,
            "round_p90": p90(means) / 1e3,
        },
        "rounds_per_repeat": len(means),
    }


ROUND_LAYERS = {
    # Top-level pieces of a round; inclusive times, so they add up to the round.
    "clients": ("server.honest_local_update", "server.byzantine_message", "server.substream"),
    "aggregation": ("server.geometric_median",),
    "eval": ("server.global_loss", "server.test_accuracy"),
    "envelope": ("theory.theorem1_bound", "theory.theorem2_round_multiplier"),
}


def per_layer(spans: Spans, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase: medians over its repeats and set-ups.

    Call counts must repeat exactly across traced repeats, or every round of
    the differing repeat fails.
    """
    sums = [spans.summary(*r.span_range) for r in traced.repeats]
    for rep, table in zip(traced.repeats, sums):
        if {n: v[0] for n, v in table.items()} != {n: v[0] for n, v in sums[0].items()}:
            rep.failed = rep.rounds
    setups = [spans.summary(lo, hi) for lo, hi in traced.setup_ranges]

    def med(table, names, field):
        return statistics.median(sum(t.get(n, (0, 0.0, 0.0))[field] for n in names) for t in table)

    calls = lambda names: sum(sums[0].get(n, (0,))[0] for n in names)  # noqa: E731
    self_s = lambda names: med(sums, names, 2)  # noqa: E731
    incl_s = lambda names: med(sums, names, 1)  # noqa: E731
    counters = traced.repeats[0].counters

    agg_s, agg_calls = self_s(["server.geometric_median"]), calls(["server.geometric_median"])
    iters = counters["aggregation.iters"]
    rng_names = ["server.substream", "clients.substream"]
    rng_s, rng_calls = self_s(rng_names), calls(rng_names)
    eval_names = ["server.global_loss", "server.test_accuracy"]
    env_names = ["theory.theorem1_bound", "theory.theorem2_round_multiplier"]
    round_self = [
        own * 1e3
        for r in traced.repeats
        for name, _, own in spans.timed(*r.span_range)
        if name == ROUND
    ]
    traced_run = statistics.median(r.run_s for r in traced.repeats)
    untraced_run = statistics.median(r.run_s for r in untraced.repeats)

    metrics = {
        "aggregation.s": metric(agg_s, "s"),
        "aggregation.calls": metric(agg_calls, "count"),
        "aggregation.iters": metric(iters, "count"),
        # Each call's set-up pass (majority test, mean, spread) counts as one pass.
        "aggregation.us_per_iter": metric(agg_s * 1e6 / (iters + agg_calls), "us"),
        "aggregation.majority_rounds": metric(counters["aggregation.majority_rounds"], "count"),
        "aggregation.vertex_rounds": metric(counters["aggregation.vertex_rounds"], "count"),
        "aggregation.unconverged_rounds": metric(counters["aggregation.unconverged_rounds"], "count"),
        "aggregation.converged_ratio": metric(
            counters["aggregation.converged_rounds"] / traced.repeats[0].rounds, "ratio"
        ),
        "rng.substream_s": metric(rng_s, "s"),
        "rng.substream_calls": metric(rng_calls, "count"),
        "rng.substream_us": metric(rng_s * 1e6 / rng_calls, "us"),
        "clients.honest_self_s": metric(self_s(["server.honest_local_update"]), "s"),
        "clients.honest_updates": metric(calls(["server.honest_local_update"]), "count"),
        "clients.local_steps": metric(counters["clients.local_steps"], "count"),
        "clients.byzantine_s": metric(self_s(["server.byzantine_message"]), "s"),
        "problems.grad_s": metric(self_s(["clients.local_stoch_grad"]), "s"),
        "problems.grad_calls": metric(calls(["clients.local_stoch_grad"]), "count"),
        "problems.eval_s": metric(self_s(eval_names), "s"),
        "problems.eval_calls": metric(calls(eval_names), "count"),
        "problems.make_synthetic_s": metric(med(setups, ["server.make_synthetic"], 2), "s"),
        "problems.constants_s": metric(med(setups, ["server.constants"], 2), "s"),
        "problems.optimum_s": metric(med(setups, ["server.optimum"], 2), "s"),
        "theory.envelope_s": metric(self_s(env_names), "s"),
        "theory.envelope_calls": metric(calls(env_names), "count"),
        "server.round_self_ms": metric(statistics.median(round_self), "ms"),
        "server.prepare_self_s": metric(med(setups, ["server.prepare"], 2), "s"),
        "cli.write_s": metric(incl_s(["cli.write_artifacts"]), "s"),
        "cli.bytes_written": metric(traced.repeats[0].bytes_written, "bytes"),
        "trace.overhead_s": metric(traced_run - untraced_run, "s"),
    }
    round_s = incl_s([ROUND])
    shares = {k: incl_s(v) / round_s for k, v in ROUND_LAYERS.items()}
    shares["server_self"] = 1.0 - sum(shares.values())
    info = {
        "round_shares": shares,
        "calls_per_repeat": {name: v[0] for name, v in sorted(sums[0].items())},
        "traced_run_s": traced_run,
        "untraced_run_s": untraced_run,
        "samples": {
            "untraced_repeats": len(untraced.repeats),
            "traced_repeats": len(traced.repeats),
            "traced_setups": len(traced.setup_s),
            "traced_rounds": len(round_self),
        },
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="harness self-test size: 3 rounds, one config")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "byzfl" / "__init__.py").is_file():
        print(f"error: no byzfl sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["BYZFL_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import byzfl

    if Path(byzfl.__file__).resolve().parent != (SRC / "byzfl").resolve():
        print(f"error: imported byzfl from {byzfl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    k, rounds = (1, 3) if args.smoke else (wl.configs_per_repeat, wl.rounds)
    master_seeds = [args.seed * k + i for i in range(k)]
    configs = [make_config(wl.name, s, rounds) for s in master_seeds]

    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    info = {"env": environment(wl.name, args.seed, master_seeds)}

    spans = Spans()
    cal = Calibration()
    start = perf_counter()
    patch_round_timer(spans, cal)
    try:
        untraced = run_phase(
            wl.name, configs, spans, out_dir,
            start + args.seconds * (0.5 if args.trace else 1.0),
            MIN_REPEATS if args.trace == 0 else 1,
            FIRST_SETUPS if args.trace == 0 else 0,
            cal=cal,
        )
    finally:
        spans.restore()
    repeats = untraced.repeats
    if args.trace == 0:
        metrics, info["timing"] = end_to_end(untraced, spans, cal)
        info["samples"] = {"setups": len(untraced.setup_s), "repeats": len(repeats)}
    else:
        patch_layers(spans)
        try:
            traced = run_phase(
                wl.name, configs, spans, out_dir, start + args.seconds, 1, FIRST_SETUPS, MAX_TRACED_REPEATS
            )
        finally:
            spans.restore()
        repeats = repeats + traced.repeats
        metrics, layer_info = per_layer(spans, traced, untraced)
        info.update(layer_info)
    enforce_identical(repeats, repeats[0])
    spans.write(out_dir / "spans.jsonl")
    (out_dir / "calibration.json").write_text(json.dumps(list(cal.times)))

    info["env"]["trace_digests"] = repeats[0].digests
    info["counters"] = repeats[0].counters
    attempted = sum(r.rounds for r in repeats)
    failed = sum(r.failed for r in repeats)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
