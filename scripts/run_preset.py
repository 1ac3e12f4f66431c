#!/usr/bin/env python3
"""Experiment presets: one ``byzfl sweep`` over the theorem-faithful ridge setup each.

The setup has identical users, exact gradients and the factor-minimizing
rate, under a Gaussian attack at corruption fraction 0.2. Each preset
writes per-run traces plus a comparison CSV:

  beta_sweep           beta in {0, 0.2, 0.4} at the smallest contracting K;
                       all three runs are expected to drive the gap below 1e-6.
  k_sweep              K in {1, 3, 6, 8}; larger K reaches a given gap in
                       fewer rounds (the per-round factor gamma^K shrinks), as
                       the comparison CSV's rounds-to-gap column shows.
  aggregator_contrast  geomed, mean, coordinate_median and trimmed_mean at
                       sigma = 1000; the geometric median converges while the
                       plain mean is wrecked by the attacker noise.

Usage: run_preset.py NAME [--out DIR] [--values V1,V2,...] [--seed S]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from byzfl.cli import main as byzfl_main

# name: (swept parameter, default values, attack sigma, uniform K)
PRESETS = {
    "beta_sweep": ("beta", "0,0.2,0.4", 10.0, "auto"),
    "k_sweep": ("K", "1,3,6,8", 10.0, 6),
    "aggregator_contrast": ("aggregator", "geomed,mean,coordinate_median,trimmed_mean", 1000.0, "auto"),
}


def config(sigma: float, steps) -> dict:
    return {
        "problem": {"p": 10, "n_users": 50, "samples_per_user": 200, "heterogeneity": 0.0, "loss": "ridge", "reg": 0.5},
        "n_byzantine": 10,
        "attack": {"kind": "gaussian", "sigma": sigma},
        "aggregator": {"kind": "geomed"},
        "schedule": {"kind": "uniform", "steps": steps, "eta": "auto"},
        "oracle": {"kind": "full"},
        "rounds": 200,
        "seed": 2024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", choices=PRESETS)
    parser.add_argument("--out", default=None, help="output directory (default results/NAME)")
    parser.add_argument("--values", default=None, help="comma-separated values (default: the preset's)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    param, values, sigma, steps = PRESETS[args.name]

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config(sigma, steps)))
        out = args.out or f"results/{args.name}"
        argv = ["sweep", "--config", str(cfg_path), "--param", param, "--values", args.values or values, "--out", out]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        return byzfl_main(argv)


if __name__ == "__main__":
    sys.exit(main())
