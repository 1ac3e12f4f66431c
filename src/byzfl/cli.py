"""Command-line interface: run experiments, sweep parameters, verify properties.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 internal solver failure. The environment variable BYZFL_THREADS is
validated (a nonnegative integer, 0 = one per CPU) but has no effect: honest
clients run as one batched update.

A run writes three artifacts into the output directory:
    trace.jsonl   one JSON object per round (full trace record)
    summary.csv   t, loss, gap, bound1, bound2, accuracy
    config.json   the resolved configuration, master seed included
Together config.json and the seed reproduce the trace byte for byte.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .server import PreparedExperiment, TraceRecord, prepare, run_prepared
from .verify import run_suite

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_verify"]

GAP_TARGET = 1e-6  # convergence threshold used in sweep summaries


def _n_threads() -> int:
    raw = os.environ.get("BYZFL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"BYZFL_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"BYZFL_THREADS must be nonnegative, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def write_artifacts(out_dir: Path, prep: PreparedExperiment, records: list[TraceRecord]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trace.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")
    with open(out_dir / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("t,loss,gap,bound1,bound2,accuracy\n")
        for rec in records:
            cells = [
                str(rec.t),
                repr(rec.global_loss),
                repr(rec.optimality_gap),
                "" if rec.theorem1_bound is None else repr(rec.theorem1_bound),
                "" if rec.theorem2_bound is None else repr(rec.theorem2_bound),
                "" if rec.test_accuracy is None else repr(rec.test_accuracy),
            ]
            fh.write(",".join(cells) + "\n")
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(prep.resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_once(config: ExperimentConfig, out_dir: Path) -> list[TraceRecord]:
    prep = prepare(config)
    records = run_prepared(prep, n_threads=_n_threads())
    write_artifacts(out_dir, prep, records)
    return records


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    records = _run_once(config, Path(args.out))
    last = records[-1]
    print(f"ran {len(records)} rounds: final loss {last.global_loss:.6e}, gap {last.optimality_gap:.6e}")
    print(f"artifacts in {args.out}")
    return 0


def _sweep_number(param: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"swept {param} value {raw!r} does not parse as {kind.__name__}") from None


def _apply_sweep_value(config: ExperimentConfig, param: str, raw: str) -> ExperimentConfig:
    if param == "beta":
        beta = _sweep_number(param, raw, float)
        if not 0.0 <= beta < 1.0:
            raise ConfigError(f"swept beta must lie in [0, 1), got {beta}")
        B = round(beta * config.problem.n_users)
        return dataclasses.replace(config, n_byzantine=B)
    if param == "K":
        K = _sweep_number(param, raw, int)
        if config.schedule.kind != "uniform":
            raise ConfigError("sweeping K requires a uniform schedule")
        return dataclasses.replace(
            config, schedule=dataclasses.replace(config.schedule, steps=K)
        )
    if param == "eta":
        eta = _sweep_number(param, raw, float)
        if config.schedule.kind != "uniform":
            raise ConfigError("sweeping eta requires a uniform schedule")
        return dataclasses.replace(
            config, schedule=dataclasses.replace(config.schedule, eta=eta)
        )
    if param == "aggregator":
        return dataclasses.replace(
            config, aggregator=dataclasses.replace(config.aggregator, kind=raw)
        )
    raise ConfigError(f"unknown sweep parameter {param!r}")


def rounds_to_gap(records: list[TraceRecord], target: float = GAP_TARGET) -> int | None:
    for rec in records:
        if rec.optimality_gap <= target:
            return rec.t
    return None


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config)
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    out_root = Path(args.out)
    rows = []
    for raw in values:
        config = _apply_sweep_value(base, args.param, raw)
        sub = out_root / f"{args.param}={raw}"
        records = _run_once(config, sub)
        reached = rounds_to_gap(records)
        rows.append(
            {
                "param": args.param,
                "value": raw,
                "final_loss": records[-1].global_loss,
                "final_gap": records[-1].optimality_gap,
                f"rounds_to_gap_{GAP_TARGET:g}": "" if reached is None else reached,
            }
        )
        print(
            f"{args.param}={raw}: final gap {records[-1].optimality_gap:.3e}, "
            f"rounds to {GAP_TARGET:g}: {reached if reached is not None else '-'}"
        )
    out_root.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    with open(out_root / "sweep_summary.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[h]) for h in header) + "\n")
    print(f"comparison CSV in {out_root / 'sweep_summary.csv'}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # --ball-cases shrinks the big randomized sample for smoke runs; the
    # default matches the acceptance criterion.
    n_ball = args.ball_cases if args.ball_cases is not None else 10_000
    results = run_suite(args.suite, n_ball=n_ball)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.cases} cases)")
        if not res.passed:
            ok = False
            for failure in res.failures[:5]:
                print(f"    counterexample: {failure}")
            if len(res.failures) > 5:
                print(f"    ... and {len(res.failures) - 5} more")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzfl",
        description="Byzantine-robust federated learning simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON configuration")
    run_p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    run_p.add_argument("--out", default="out", help="output directory for artifacts")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the config once per value of one parameter")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True, choices=["beta", "K", "eta", "aggregator"])
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default="sweep_out")
    sweep_p.set_defaults(fn=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the seeded property suites")
    verify_p.add_argument("--suite", default="all", choices=["geomed", "assumptions", "bounds", "all"])
    verify_p.add_argument("--ball-cases", type=int, default=None, help=argparse.SUPPRESS)
    verify_p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError, OSError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
