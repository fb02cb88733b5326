"""Online classification with slow drift plus abrupt jumps.

Logistic weights random-walk with sd 0.01 per step and re-draw uniformly
with probability 0.01.  This mixes both kinds of non-stationarity, so the
comparison covers constant-auxiliary and runlength methods together.

Usage: python scripts/drift_jumps.py --out results/drift-jumps
"""

import argparse
import json
from pathlib import Path

import numpy as np

from bone.harness import export_results, parse_config, run_experiment

METHODS = {
    "C-ACI": {"name": "C-ACI",
              "prior": {"kind": "aci", "alpha": 0.05}},
    "CPP-OU": {"name": "CPP-OU", "prior": {"kind": "cpp-ou"},
               "cpp": {"steps": 10, "lr": 0.1}},
    "RL-PR[10]": {"name": "RL-PR[K]", "K": 10,
                  "prior": {"kind": "rl-prior-reset"}, "hazard": 0.01},
    "RL-OUPR": {"name": "RL-OUPR",
                "prior": {"kind": "rl-oupr", "epsilon": 0.5}, "hazard": 0.01},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/drift-jumps")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parallel", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for label, method in METHODS.items():
        prior = {"base_mean": [0, 0], "base_cov_scale": 4.0, **method["prior"]}
        raw = {
            "experiment": "drift-jumps",
            "horizon": args.horizon,
            "trials": args.trials,
            "seed": args.seed,
            "method": {**method, "prior": prior,
                       "model": {"family": "bernoulli-logit"}},
        }
        traces = run_experiment(parse_config(raw), parallel=args.parallel)
        export_results(traces, out / f"{label.replace('[', '_').rstrip(']')}.csv",
                       config_echo=raw)
        rates = np.array([t.finals["misclassification_rate"] for t in traces])
        # one trial has no standard error: JSON null, not NaN
        se = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else None
        summary[label] = {"mean": float(rates.mean()), "se": se}
        print(f"{label:10s} misclassification {rates.mean():.4f}"
              + ("" if se is None else f" +- {se:.4f}"))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))


if __name__ == "__main__":
    main()
