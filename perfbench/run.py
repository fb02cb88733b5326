#!/usr/bin/env python3
"""Closed-loop benchmark of `bone`, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload heavy-tail --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; `bone` is imported from ./src, so
nothing needs installing.  Workloads: heavy-tail, bandit, mlp-segments (see
perfbench/README.md).  One caller in one process sends each observation
only after the previous step returned.  Rounds of every method of the
workload repeat while the next one is expected to end within --seconds
(whole rounds, at least two).  Every trial is also run through
`bone.harness.run_experiment` and `export_results`, and its primary metric
must match the loop's exactly.  A fixed reference round must reproduce the
losses recorded in perfbench/golden.json.

The last line of standard output is one JSON object: correct, attempted,
failed (trials) and metrics.  Preceding lines print every metric with its
unit and sample count, and the environment stamp.  Exit code 2 when ./src
holds no `bone` package or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 21  # set-up probes per run, spread over it, after one untimed warm-up probe
# The machine's speed for import-heavy work switches between modes about 40%
# apart that last from seconds to minutes.  Each set-up probe is therefore
# followed by a reference probe, which times importing these standard-library
# modules in a bare interpreter, and setup_s is the median ratio of the two
# scaled to a reference import time of REFERENCE_S: set-up time as it would
# read on a machine where the reference imports take that long.
REFERENCE_IMPORTS = "asyncio, decimal, email.mime.multipart, http.server, xml.dom.minidom"
REFERENCE_S = 0.06
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

E2E_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "trial_s": "s",
    "peak_rss_mb": "MB",
}
# Printed on every run but left out of the result, so not gated: on a 2-core
# shared machine their 10-seed spreads reach the largest bound allowed (0.25),
# because the machine's speed for interpreter-bound code wanders between runs.
# step_p99_us stayed within about half of its bound on every workload.  The
# unscaled set-up time and the reference time that scales it are printed too.
UNGATED = ("steps_per_s", "step_p50_us", "trial_s", "setup_unscaled_s", "setup_reference_s")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """One BLAS thread unless the caller chose a count, and never more than nproc.

    The loop has one caller; on a small shared machine a second BLAS thread
    only waits for a busy core, which slows the slowest steps and widens the
    run-to-run spread.
    """
    limit = _nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value.isdigit() and int(value) > limit:
            os.environ[var] = str(limit)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import bone, parse the workload's configs and build the first agent."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from bone.agents import init_agent
    from bone.harness import parse_config

    import workloads

    wl = workloads.WORKLOADS[workload]
    cfgs = [parse_config(raw) for raw in wl.raw_configs(seed, workloads.round_seed(seed, 0))]
    init_agent(cfgs[0].method)
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def probe_reference() -> float:
    """Seconds to import REFERENCE_IMPORTS in a fresh, isolated interpreter."""
    code = (f"import time; start = time.perf_counter(); import {REFERENCE_IMPORTS}; "
            "print(repr(time.perf_counter() - start))")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def probe_pair(workload: str, seed: int) -> tuple[float, float]:
    """One set-up probe and the reference probe right after it."""
    return probe_setup(workload, seed), probe_reference()


def env_stamp(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg_fn):
        deps = cfg_fn(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bone").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": _nproc(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--horizon", type=int, default=None,
                   help="override every workload's stream length (smoke tests only)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "bone" / "__init__.py").is_file():
        return _fail(f"no bone package under {SRC}; run from a source checkout")
    if args.seconds < 0 or (args.horizon is not None and args.horizon < 1):
        return _fail("--seconds must be >= 0 and --horizon >= 1")
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    import measure
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    run = measure.Run(wl, args.seed, args.horizon, OUT / wl.name)
    checks_ok = True
    if wl.name == "mlp-segments":
        live, inputs = run.check_mlp_jacobian()
        checks_ok = live > 0
        print(f"check hidden-layer Jacobian at base_mean nonzero on {live} of {inputs} "
              f"stream inputs: {checks_ok}")

    if args.trace:
        import spans

        tracer = spans.Tracer()
        rounds = run.measure(args.seconds, tracer)
        tracer.save(OUT / f"spans-{wl.name}.npz")
        metrics = measure.per_layer(run, tracer)
        samples = {name: tracer.steps for name in metrics}
    else:
        # probes ahead of trials keep pace with the run, sampling set-up over all of it
        probe_pair(wl.name, args.seed)  # warms the file cache; not timed
        pairs: list[tuple[float, float]] = []
        start = time.perf_counter()

        def keep_pace():
            share = (time.perf_counter() - start) / args.seconds if args.seconds else 1.0
            while len(pairs) < min(SETUP_REPEATS, 1 + int(share * SETUP_REPEATS)):
                pairs.append(probe_pair(wl.name, args.seed))

        rounds = run.measure(args.seconds, before_trial=keep_pace)
        while len(pairs) < SETUP_REPEATS:
            pairs.append(probe_pair(wl.name, args.seed))
        e2e = run.end_to_end([REFERENCE_S * setup / ref for setup, ref in pairs])
        metrics = {name: (value, E2E_UNITS[name]) for name, (value, _) in e2e.items()}
        samples = {name: n for name, (_, n) in e2e.items()}
        for name, values in (("setup_unscaled_s", [setup for setup, _ in pairs]),
                             ("setup_reference_s", [ref for _, ref in pairs])):
            metrics[name] = (statistics.median(values), "s")
            samples[name] = len(values)

    bad = run.check_golden()
    for line in bad:
        print(f"reference loss mismatch: {line}", file=sys.stderr)
    print(f"check reference round losses match perfbench/golden.json: {not bad}")
    print(f"workload {wl.name}: {wl.why}")
    print(f"rounds {rounds}, trials attempted {run.attempted}, failed {run.failed}")
    for i, (rate, p50, p99) in enumerate(run.round_rows()):
        print(f"round {i}: steps_per_s {rate:.1f}, step_p50_us {p50:.1f}, step_p99_us {p99:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {float(value)!r} {unit} (n={samples[name]})")
    print(f"metric model_loss = {run.model_loss()!r} {wl.primary_metric} "
          f"(mean over the {len(run.model_losses)} trials of the first {measure.MIN_ROUNDS} rounds)")
    print(f"metric error_rate = {run.failed / max(run.attempted, 1)!r} fraction "
          f"(n={run.attempted} trials)")
    print("env " + json.dumps(env_stamp(args.seed), sort_keys=True))
    result = {
        "correct": run.failed == 0 and checks_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items() if name not in UNGATED},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
