#!/usr/bin/env python3
"""Reference losses that guard against a change to what `bone` computes.

    python3 perfbench/golden.py          # compare with perfbench/golden.json
    python3 perfbench/golden.py --write  # record the current values

Each workload has one fixed reference round: workload seed 0 at a short
horizon, the same whatever `--seed` a benchmark run gets.  Every benchmark
run passes each method of it through `bone.harness.run_experiment` and
compares the primary metric (RMSE or cumulative regret) with the value
recorded in `golden.json`.  The measured rounds check only that the closed
loop agrees with `run_experiment`; both call the same `bone` functions, so
this comparison is what catches a speed-up that changes the results.

The tolerance allows a reordered floating-point sum, not a changed filter.
A deliberate change to the numerics records new values with `--write`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
SEED = 0
HORIZON = {"heavy-tail": 200, "bandit": 500, "mlp-segments": 100}
REL_TOL = 1e-9


def losses(wl) -> dict[str, float]:
    """Primary metric of each method on the workload's reference round."""
    import workloads
    from bone import harness

    out = {}
    for raw in wl.raw_configs(SEED, workloads.round_seed(SEED, 0), HORIZON[wl.name]):
        traces = harness.run_experiment(harness.parse_config(raw))
        out[raw["method"]["name"]] = float(traces[0].finals[wl.primary_metric])
    return out


def mismatches(wl, got: dict[str, float]) -> list[str]:
    """One line per method whose loss differs from the recorded one."""
    expected = json.loads(GOLDEN.read_text())[wl.name]
    bad = []
    for method, want in expected.items():
        have = got.get(method)
        if have is None or abs(have - want) > REL_TOL * abs(want):
            bad.append(f"{wl.name} {method}: {wl.primary_metric} {have!r}, recorded {want!r}")
    return bad


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--write", action="store_true", help="record the current values in golden.json")
    args = p.parse_args()
    sys.path.insert(0, str(BENCH.parent / "src"))
    import workloads

    current = {name: losses(wl) for name, wl in workloads.WORKLOADS.items()}
    if args.write:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        return 0
    bad = [line for name, wl in workloads.WORKLOADS.items() for line in mismatches(wl, current[name])]
    print("\n".join(bad) or "all reference losses match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
