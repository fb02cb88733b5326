#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/out/steadiness.json

For every workload and metric this prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  A metric
is steady when its spread stays below a third of its bound.  Runs are
sequential, one process at a time, so they do not compete for the machine's
cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="write the summary here as JSON")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seeds": list(range(1, args.seeds + 1)),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failures = 0
        start = time.perf_counter()
        for seed in report["seeds"]:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            report.setdefault("env", env)
            failures += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        wall = time.perf_counter() - start
        stats = {name: {"unit": units[name], **summarize(v)} for name, v in samples.items()}
        report["workloads"][workload] = {"failures": failures, "wall_s": wall, "metrics": stats}
        print(f"{workload}: {len(report['seeds'])} runs in {wall:.0f} s, failures {failures}")
        for name, s in stats.items():
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None:
                ok = s["spread"] < bound / 3
                steady = steady and ok
                verdict = f" bound {bound}: {'steady' if ok else 'NOT steady'}"
            print(f"  {name:48s} median {s['median']:.6g} {s['unit']}  "
                  f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  spread {s['spread']:.3f}{verdict}")
        steady = steady and failures == 0
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
