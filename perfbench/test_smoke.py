"""Smoke test of the benchmark itself, at a tiny horizon.

    python3 -m pytest perfbench/test_smoke.py -q

Checks, on every workload, that each metric named in BENCHMARK.json is
printed with its unit in both modes, that the outputs were verified, that
the traced layers' self times add up to about the step wall time (so no
layer goes unaccounted), that a changed reference loss makes the run
incorrect, and that the benchmark refuses to run without the `bone` sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _bench(workload: str, trace: int) -> tuple[dict, str]:
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--horizon", "12", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result, stdout = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert re.search(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} \(n=\d+\)$",
                         stdout, re.M), m["name"]
    if not trace:
        for name, unit in (("steps_per_s", "1/s"), ("step_p50_us", "us"), ("trial_s", "s"),
                           ("setup_unscaled_s", "s"), ("setup_reference_s", "s")):
            assert re.search(rf"^metric {name} = \S+ {unit} \(n=\d+\)$", stdout, re.M), name
    assert re.search(r"^metric model_loss = ", stdout, re.M)
    assert re.search(r"^metric error_rate = 0.0 fraction", stdout, re.M)
    assert "check reference round losses match perfbench/golden.json: True" in stdout
    env = json.loads(next(line[4:] for line in stdout.splitlines() if line.startswith("env ")))
    for key in ("commit", "python", "numpy", "scipy", "numpy_blas", "nproc", "blas_env", "seed"):
        assert key in env
    assert env["seed"] == 3
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # layer self times cover the step: only the loop and wrapper costs are left over
        assert 85.0 <= metrics["trace.accounted_pct"] <= 100.5
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _copy_bench(tmp_path: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return tmp_path


def test_refuses_to_run_without_sources(tmp_path):
    done = _run(_copy_bench(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_changed_reference_loss_is_incorrect(tmp_path):
    root = _copy_bench(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    path = root / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    golden["heavy-tail"]["C-Static"] *= 1.0 + 1e-6
    path.write_text(json.dumps(golden))
    done = _run(root, "--workload", "heavy-tail", "--seed", "3", "--seconds", "0",
                "--horizon", "12", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "reference loss mismatch: heavy-tail C-Static" in done.stderr
