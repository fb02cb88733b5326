"""Non-stationary Bernoulli bandit: Thompson sampling with drifting arms.

Ten arms whose reward probabilities follow clipped Gaussian walks; each
method models an arm with a scalar-logit Bernoulli belief and samples
actions from the posterior.  Regret is measured against the true best arm.

Usage: python scripts/bandit.py --out results/bandit [--sims 100 --horizon 10000]
"""

import argparse
import json
from pathlib import Path

import numpy as np

from bone.harness import export_results, parse_config, run_experiment

METHODS = {
    "C-Static": {"name": "C-Static", "prior": {"kind": "static"}},
    "C-ACI": {"name": "C-ACI", "prior": {"kind": "aci", "alpha": 0.01}},
    "CPP-OU": {"name": "CPP-OU", "prior": {"kind": "cpp-ou"},
               "cpp": {"steps": 10, "lr": 0.05}},
    "RL-OUPR": {"name": "RL-OUPR", "prior": {"kind": "rl-oupr", "epsilon": 0.5},
                "hazard": 0.05},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/bandit")
    ap.add_argument("--sims", type=int, default=20)
    ap.add_argument("--horizon", type=int, default=2000)
    ap.add_argument("--arms", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parallel", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for label, method in METHODS.items():
        prior = {"base_mean": [0], "base_cov_scale": 1.0, **method["prior"]}
        raw = {
            "experiment": "bandit",
            "horizon": args.horizon,
            "trials": args.sims,
            "seed": args.seed,
            "generator": {"arms": args.arms},
            "method": {**method, "prior": prior,
                       "model": {"family": "bernoulli-logit"}},
        }
        traces = run_experiment(parse_config(raw), parallel=args.parallel)
        export_results(traces, out / f"{label}.csv", config_echo=raw)
        regret = np.array([t.finals["cumulative_regret"] for t in traces])
        # one trial has no standard error: JSON null, not NaN
        se = float(regret.std(ddof=1) / np.sqrt(regret.size)) if regret.size > 1 else None
        summary[label] = {"mean_regret": float(regret.mean()), "se": se}
        print(f"{label:10s} cumulative regret {regret.mean():8.1f}"
              + ("" if se is None else f" +- {se:.1f}"))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))


if __name__ == "__main__":
    main()
