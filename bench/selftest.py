"""Fast self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

Runs every workload at smoke size (3 rounds, one config) untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
names, with their units, that no round failed, and that the traced run
reproduced the untraced run's trace digests. It also checks the prediction
table against BENCHMARK.json, and that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and its own
files. Exits 1 on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def check_result(workload: str, trace: int, spec: list[dict]) -> dict:
    proc = run_bench(ROOT, workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{workload} trace={trace}: {result['failed']} rounds failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{workload}: attempted")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in spec}, f"{workload} trace={trace}: metric names {sorted(metrics)}")
    for m in spec:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{workload}: {m['name']} = {value}")
    return info


def check_predictions(bench: dict) -> None:
    groups = json.loads((BENCH / "predictions.json").read_text())["groups"]
    listed = [name for g in groups for name in g["metrics"]]
    names = {m["name"] for m in bench["per_layer"]}
    check(sorted(listed) == sorted(names), f"predictions.json covers {sorted(set(listed) ^ names)} wrongly")
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for g in groups:
        check(set(g["moves"]) <= e2e, f"predictions.json: {g['metrics']} move unknown metrics")
        check(set(g["on"]) | set(g["flat_on"]) <= workloads, f"predictions.json: {g['metrics']} name unknown workloads")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "ridge_exact", 0)
        check(proc.returncode != 0, "benchmark ran without the byzfl sources")
        check('"metrics"' not in proc.stdout, "benchmark printed a result without the byzfl sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_predictions(bench)
    for w in bench["workloads"]:
        name = w["name"]
        untraced = check_result(name, 0, bench["end_to_end"])
        traced = check_result(name, 1, bench["per_layer"])
        check(
            untraced["env"]["trace_digests"] == traced["env"]["trace_digests"],
            f"{name}: traced run changed trace.jsonl",
        )
        print(f"ok {name}: untraced and traced, digests {untraced['env']['trace_digests'][0][:12]}")
    check_bare_directory()
    print("ok bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
