"""Online classification under periodic drift: rotating logistic weights.

Compares the soft-reset runlength method against hard prior resets and the
constant-auxiliary baselines, writing one CSV per method plus a summary.

Usage: python scripts/periodic_drift.py --out results/periodic [--trials 20]
"""

import argparse
import json
from pathlib import Path

import numpy as np

from bone.harness import export_results, parse_config, run_experiment

METHODS = {
    "RL-OUPR": {
        "name": "RL-OUPR",
        "prior": {"kind": "rl-oupr", "base_mean": [0, 0], "base_cov_scale": 10.0,
                  "epsilon": 0.5},
        "hazard": 0.1,
    },
    "RL-PR[1]": {
        "name": "RL-PR[K]", "K": 1,
        "prior": {"kind": "rl-prior-reset", "base_mean": [0, 0], "base_cov_scale": 10.0},
        "hazard": 0.1,
    },
    "RL-PR[10]": {
        "name": "RL-PR[K]", "K": 10,
        "prior": {"kind": "rl-prior-reset", "base_mean": [0, 0], "base_cov_scale": 10.0},
        "hazard": 0.1,
    },
    "C-ACI": {
        "name": "C-ACI",
        "prior": {"kind": "aci", "base_mean": [0, 0], "base_cov_scale": 10.0,
                  "alpha": 0.3},
    },
    "CPP-OU": {
        "name": "CPP-OU",
        "prior": {"kind": "cpp-ou", "base_mean": [0, 0], "base_cov_scale": 10.0},
        "cpp": {"steps": 10, "lr": 0.1},
    },
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/periodic-drift")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=720)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parallel", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for label, method in METHODS.items():
        raw = {
            "experiment": "periodic-drift",
            "horizon": args.horizon,
            "trials": args.trials,
            "seed": args.seed,
            "method": {"model": {"family": "bernoulli-logit"}, **method},
        }
        traces = run_experiment(parse_config(raw), parallel=args.parallel)
        export_results(traces, out / f"{label.replace('[', '_').rstrip(']')}.csv",
                       config_echo=raw)
        rates = np.array([t.finals["misclassification_rate"] for t in traces])
        # one trial has no standard error: JSON null, not NaN
        se = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else None
        summary[label] = {"mean": float(rates.mean()), "se": se}
        print(f"{label:12s} misclassification {rates.mean():.4f}"
              + ("" if se is None else f" +- {se:.4f}"))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))


if __name__ == "__main__":
    main()
