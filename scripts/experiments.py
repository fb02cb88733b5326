"""The paper's five synthetic experiments: one table of methods, one driver.

Writes a per-step CSV and ``*.summary.json`` per method (``[K]`` in a label becomes
``_K``) and a ``summary.json`` of statistics, null where no trial has the metric.
"""

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from bone.core import ConfigError
from bone.harness import export_results, parse_config, run_experiment

BERNOULLI = {"family": "bernoulli-logit"}
POLY2 = {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "poly2"}
RL_PR = {"kind": "rl-prior-reset"}
RL_OUPR = {"kind": "rl-oupr", "epsilon": 0.5}
CPP_OU = {"name": "CPP-OU", "prior": {"kind": "cpp-ou"}}
MISCLASSIFICATION = {stat: ("misclassification_rate", stat) for stat in ("mean", "se")}

# name -> the config its methods share (default trials and horizon included), method
# stanzas by label laid over its method section, summary statistics as key -> (final
# metric, statistic), and whether RL methods (with a hazard) dump runlength_<label>.csv
EXPERIMENTS = {
    # rotating logistic weights: soft reset against hard resets and constant auxiliaries
    "periodic_drift": {
        "config": {"experiment": "periodic-drift", "trials": 20, "horizon": 720, "method": {
            "model": BERNOULLI, "prior": {"base_mean": [0, 0], "base_cov_scale": 10.0}}},
        "methods": {"RL-OUPR": {"name": "RL-OUPR", "prior": RL_OUPR, "hazard": 0.1},
                    "RL-PR[1]": {"name": "RL-PR[K]", "K": 1, "prior": RL_PR, "hazard": 0.1},
                    "RL-PR[10]": {"name": "RL-PR[K]", "K": 10, "prior": RL_PR, "hazard": 0.1},
                    "C-ACI": {"name": "C-ACI", "prior": {"kind": "aci", "alpha": 0.3}},
                    "CPP-OU": {**CPP_OU, "cpp": {"steps": 10, "lr": 0.1}}},
        "stats": MISCLASSIFICATION, "runlength_dumps": False,
    },
    # logistic weights random-walk (sd 0.01) and re-draw with probability 0.01
    "drift_jumps": {
        "config": {"experiment": "drift-jumps", "trials": 20, "horizon": 1000, "method": {
            "model": BERNOULLI, "prior": {"base_mean": [0, 0], "base_cov_scale": 4.0}}},
        "methods": {"C-ACI": {"name": "C-ACI", "prior": {"kind": "aci", "alpha": 0.05}},
                    "CPP-OU": {**CPP_OU, "cpp": {"steps": 10, "lr": 0.1}},
                    "RL-PR[10]": {"name": "RL-PR[K]", "K": 10, "prior": RL_PR, "hazard": 0.01},
                    "RL-OUPR": {"name": "RL-OUPR", "prior": RL_OUPR, "hazard": 0.01}},
        "stats": MISCLASSIFICATION, "runlength_dumps": False,
    },
    # piecewise quadratic, Student-t(2.01) noise, rare jumps: robust RL filter vs plain
    "heavy_tail": {
        "config": {"experiment": "heavy-tail", "trials": 30, "horizon": 500,
                   "generator": {"p_eps": 0.01}, "method": {
                       "model": POLY2, "prior": {"base_mean": [0, 0, 0], "base_cov_scale": 3.0}}},
        "methods": {"WoLF-RL-PR": {"name": "WoLF+RL-PR", "prior": RL_PR, "hazard": 0.01,
                                   "wolf_c": 4.0},
                    "RL-PR": {"name": "RL-PR[inf]", "prior": RL_PR, "hazard": 0.01},
                    "C-Static": {"name": "C-Static", "prior": {"kind": "static"}}},
        "stats": {"median_rmse": ("rmse", "median"), "mean_rmse": ("rmse", "mean")},
        "runlength_dumps": True,
    },
    # ten Bernoulli arms on clipped Gaussian walks, Thompson sampling; regret vs best arm
    "bandit": {
        "config": {"experiment": "bandit", "trials": 20, "horizon": 2000,
                   "generator": {"arms": 10}, "method": {
                       "model": BERNOULLI, "prior": {"base_mean": [0], "base_cov_scale": 1.0}}},
        "methods": {"C-Static": {"name": "C-Static", "prior": {"kind": "static"}},
                    "C-ACI": {"name": "C-ACI", "prior": {"kind": "aci", "alpha": 0.01}},
                    "CPP-OU": {**CPP_OU, "cpp": {"steps": 10, "lr": 0.05}},
                    "RL-OUPR": {"name": "RL-OUPR", "prior": RL_OUPR, "hazard": 0.05}},
        "stats": {"mean_regret": ("cumulative_regret", "mean"), "se": ("cumulative_regret", "se")},
        "runlength_dumps": False,
    },
    # quadratics that meet at changepoints; basis [1, dx, dx^2] from the segment start
    "dependent_segments": {
        "config": {"experiment": "dependent-segments", "trials": 20, "horizon": 500,
                   "generator": {"pi": 0.01}, "method": {
                       "model": {"family": "segment-poly-gaussian", "obs_noise": 0.01},
                       "prior": {"base_mean": [0, 0, 0], "base_cov_scale": 1.0}, "hazard": 0.01}},
        "methods": {"RL-PR": {"name": "RL-PR[inf]", "prior": RL_PR},
                    "RL-MMPR": {"name": "RL-MMPR", "prior": {"kind": "rl-mmpr"}},
                    "RL-OUPR": {"name": "RL-OUPR", "prior": RL_OUPR}},
        "stats": {"median_rmse": ("rmse", "median"),
                  "mean_changepoints": ("changepoint_count", "mean")},
        "runlength_dumps": False,
    },
}

STATISTICS = {"mean": np.mean, "median": np.median,  # one trial has no standard error
              "se": lambda v: v.std(ddof=1) / np.sqrt(v.size) if v.size > 1 else None}


def _merge(base: dict, over: dict) -> dict:
    """A deep copy of ``base`` with ``over`` laid on top, section by section."""
    out = copy.deepcopy(base)
    for key, value in over.items():
        nested = isinstance(value, dict) and key in out
        out[key] = _merge(out[key], value) if nested else copy.deepcopy(value)
    return out


def configs(name: str, trials=None, horizon=None, seed=0) -> dict:
    """{label: raw config} of experiment ``name``; None keeps the table's default."""
    exp = EXPERIMENTS[name]
    given = {"trials": trials, "horizon": horizon, "seed": seed}
    shared = _merge(exp["config"], {k: v for k, v in given.items() if v is not None})
    return {label: _merge(shared, {"method": m}) for label, m in exp["methods"].items()}


def _statistic(traces, metric: str, stat: str):
    values = np.array([t.finals[metric] for t in traces if metric in t.finals])
    value = STATISTICS[stat](values) if values.size else None
    return None if value is None else float(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("name", choices=EXPERIMENTS)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trials", type=int)
    ap.add_argument("--horizon", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parallel", type=int, default=1)
    args = ap.parse_args(argv)
    if args.parallel < 1:
        ap.error(f"--parallel must be an integer >= 1, got {args.parallel}")
    exp, out = EXPERIMENTS[args.name], Path(args.out)
    raws = configs(args.name, args.trials, args.horizon, args.seed)
    stems = {label: label.replace("[", "_").rstrip("]") for label in raws}
    summary = {}
    try:
        for label, raw in raws.items():
            if exp["runlength_dumps"] and "hazard" in raw["method"]:
                raw["runlength_output_path"] = str(out / f"runlength_{stems[label]}.csv")
        cfgs = {label: parse_config(raw) for label, raw in raws.items()}  # all before --out
        out.mkdir(parents=True, exist_ok=True)
        for label, cfg in cfgs.items():
            traces = run_experiment(cfg, parallel=args.parallel)
            export_results(traces, out / f"{stems[label]}.csv", config_echo=raws[label])
            summary[label] = {k: _statistic(traces, *s) for k, s in exp["stats"].items()}
            print(f"{label:12s}", "  ".join(f"{k} {v}" for k, v in summary[label].items()))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
