"""Measured rounds of one workload and the metrics computed from them."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from bone import harness
from bone.measurement import apply_h

import golden
import spans
import workloads

MIN_ROUNDS = 2  # model_loss averages the trials of these rounds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _step_stats(arrays: list, loop_ns: int) -> tuple[float, float, float]:
    """(steps per second, p50 us, p99 us) of some step loops; zeros when none ran."""
    if not arrays or not loop_ns:
        return 0.0, 0.0, 0.0
    steps = np.concatenate(arrays)
    return (steps.size / (loop_ns / 1e9), float(np.percentile(steps, 50)) / 1e3,
            float(np.percentile(steps, 99)) / 1e3)


class Run:
    """Measured rounds of one workload and the samples they produced."""

    def __init__(self, wl, seed: int, horizon: int | None, out_dir: Path):
        self.wl = wl
        self.seed = seed
        self.horizon = horizon
        self.attempted = 0
        self.failed = 0
        self.model_losses: list[float] = []
        self.step_ns: list[list] = []  # per round, one latency array per trial
        self.loop_ns: list[int] = []  # per round, wall time of its step loops
        self.traced_step_ns: list = []
        self.traced_loop_ns = 0
        self.bank_sizes: list = []
        self.trial_s: dict[str, list[float]] = {}
        self.parse_ms: list[float] = []
        self.stream_ms: list[float] = []
        self.export_ms: list[float] = []
        self.export_bytes: list[int] = []
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def check_mlp_jacobian(self) -> tuple[int, int]:
        """Stream inputs at which the hidden layers' Jacobian at the base mean
        is nonzero, and all stream inputs; zero of them means only the
        output layer could learn."""
        raw = self.wl.raw_configs(self.seed, workloads.round_seed(self.seed, 0), self.horizon)[0]
        cfg = harness.parse_config(raw)
        theta = np.asarray(raw["method"]["prior"]["base_mean"])
        out_rows, out_cols = cfg.method.spec.layer_shapes()[-1]
        hidden = slice(0, theta.size - out_rows * (out_cols + 1))
        records = workloads.make_stream(cfg)
        live = sum(bool(np.any(apply_h(cfg.method.spec, theta, rec.x)[1][:, hidden] != 0.0))
                   for rec in records)
        return live, len(records)

    def check_golden(self) -> list[str]:
        """Run the workload's reference round and count its trials; one line
        per method whose loss differs from the recorded one."""
        trials = len(self.wl.methods(golden.SEED))
        self.attempted += trials
        try:
            bad = golden.mismatches(self.wl, golden.losses(self.wl))
        except Exception as exc:  # noqa: BLE001 - a crash fails every reference trial
            traceback.print_exc(file=sys.stderr)
            bad = [f"{self.wl.name}: reference round raised {exc!r}"] * trials
        self.failed += len(bad)
        return bad

    def round(self, index: int, tracer=None, before_trial=None):
        config_seed = workloads.round_seed(self.seed, index)
        raws = self.wl.raw_configs(self.seed, config_seed, self.horizon)
        clock = time.perf_counter
        parse_total = 0.0
        self.step_ns.append([])
        self.loop_ns.append(0)
        for raw in raws:
            if before_trial is not None:
                before_trial()
            name = raw["method"]["name"]
            self.attempted += 1
            try:
                start = clock()
                cfg = harness.parse_config(raw)
                parse_total += clock() - start
                start = clock()
                records = workloads.make_stream(cfg)
                self.stream_ms.append((clock() - start) * 1e3)

                # the traced loop goes first in odd rounds, so the order favours neither
                traced_first = tracer is not None and index % 2 == 1
                losses = [self._traced_loop(cfg, records, tracer)] if traced_first else []
                loop = workloads.run_loop(self.wl, cfg, records)
                self.step_ns[-1].append(loop.step_ns)
                self.loop_ns[-1] += loop.loop_ns
                self.bank_sizes.append(loop.bank_sizes)
                losses.append(loop.loss)
                if tracer is not None and not traced_first:
                    losses.append(self._traced_loop(cfg, records, tracer))

                start = clock()
                traces = harness.run_experiment(cfg)
                mid = clock()
                path = harness.export_results(traces, self.out_dir / "trial.csv", config_echo=raw)
                end = clock()
                self.trial_s.setdefault(name, []).append(end - start)
                self.export_ms.append((end - mid) * 1e3)
                self.export_bytes.append(
                    path.stat().st_size + path.with_suffix(".summary.json").stat().st_size
                )
                reference = traces[0].finals[self.wl.primary_metric]
                if any(loss != reference for loss in losses):
                    raise ValueError(
                        f"{name}: loop {self.wl.primary_metric} {losses} != "
                        f"run_experiment {reference!r} (config seed {config_seed})"
                    )
                if index < MIN_ROUNDS:
                    self.model_losses.append(loop.loss)
            except Exception:  # noqa: BLE001 - every failed trial is counted and reported
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
        self.parse_ms.append(parse_total * 1e3)

    def _traced_loop(self, cfg, records, tracer) -> float:
        with tracer:
            traced = workloads.run_loop(self.wl, cfg, records, tracer)
        self.traced_step_ns.append(traced.step_ns)
        self.traced_loop_ns += traced.loop_ns
        return traced.loss

    def measure(self, seconds: float, tracer=None, before_trial=None) -> int:
        """Run whole rounds, starting another only while it is expected to
        end within `seconds`; at least MIN_ROUNDS.  `before_trial` runs
        ahead of each trial."""
        start = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
                return rounds
            self.round(rounds, tracer, before_trial)
            rounds += 1

    def round_rows(self) -> list[tuple[float, float, float]]:
        """(steps per second, p50 us, p99 us) of each round's step loops."""
        return [_step_stats(arrays, ns) for arrays, ns in zip(self.step_ns, self.loop_ns)]

    def end_to_end(self, setup: list[float]) -> dict:
        arrays = [a for r in self.step_ns for a in r]
        steps = sum(a.size for a in arrays)
        rate, p50, p99 = _step_stats(arrays, sum(self.loop_ns))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (_median(setup), len(setup)),
            "steps_per_s": (rate, steps),
            "step_p50_us": (p50, steps),
            "step_p99_us": (p99, steps),
            "trial_s": (
                float(np.mean([_median(v) for v in self.trial_s.values()])) if self.trial_s else 0.0,
                sum(len(v) for v in self.trial_s.values()),
            ),
            "peak_rss_mb": (rss_kb / 1024.0, 1),
        }

    def model_loss(self) -> float:
        return float(np.mean(self.model_losses)) if self.model_losses else 0.0


def per_layer(run: Run, tracer) -> dict:
    """Per-layer metrics of the traced loops, as (value, unit)."""
    totals = tracer.span_totals()
    steps = max(tracer.steps, 1)
    zero = {"calls": 0.0, "ns": 0.0, "self_ns": 0.0}

    def get(name):
        return totals.get(name, zero)

    def per_step_us(name):
        return get(name)["ns"] / 1e3 / steps

    def per_call_us(name):
        t = get(name)
        return t["ns"] / 1e3 / t["calls"] if t["calls"] else 0.0

    def calls_per_step(name):
        return get(name)["calls"] / steps

    def self_per_step_us(module):
        return sum(t["self_ns"] for n, t in totals.items() if n.startswith(module + ".")) / 1e3 / steps

    counts = tracer.counts
    sizes = np.concatenate(run.bank_sizes) if run.bank_sizes else np.zeros(1)
    untraced = _step_stats([a for r in run.step_ns for a in r], sum(run.loop_ns))[0]
    traced = _step_stats(run.traced_step_ns, run.traced_loop_ns)[0]
    traced_ns = sum(int(a.sum()) for a in run.traced_step_ns)
    layer_self = sum(t["self_ns"] for n, t in totals.items() if n != spans.STEP)
    out = {
        "agents.predict_weighted.us_per_step": (per_step_us("agents.predict_weighted"), "us"),
        "agents.self_us_per_step": (self_per_step_us("agents"), "us"),
        "agents.thompson_action.us_per_step": (per_step_us("agents.thompson_action"), "us"),
        "agents.drift_unobserved.us_per_step": (per_step_us("agents.drift_unobserved"), "us"),
    }
    for lo, hi in spans.RL_BUCKETS:
        calls = counts.get(f"rl_step.calls.k{lo}-{hi}", 0.0)
        ns = counts.get(f"rl_step.ns.k{lo}-{hi}", 0.0)
        out[f"weighting.rl_step.us_per_call.k{lo}-{hi}"] = (ns / 1e3 / calls if calls else 0.0, "us")
    candidates = counts.get("prune.candidates", 0.0)
    out.update({
        "weighting.rl_step.calls_per_step": (calls_per_step("weighting.rl_step"), "count"),
        "weighting.bank_size.mean": (float(sizes.mean()), "count"),
        "weighting.bank_size.max": (float(sizes.max()), "count"),
        "weighting.prune_topk.us_per_call": (per_call_us("weighting.prune_topk"), "us"),
        "weighting.prune_topk.kept_ratio": (
            counts.get("prune.kept", 0.0) / candidates if candidates else 0.0, "ratio"),
        "weighting.cpp_empirical_bayes.us_per_call": (
            per_call_us("weighting.cpp_empirical_bayes"), "us"),
        "weighting.cpp_empirical_bayes.calls_per_step": (
            calls_per_step("weighting.cpp_empirical_bayes"), "count"),
        "weighting.hypothesis_bank.created_per_step": (
            calls_per_step("weighting.hypothesis_bank"), "count"),
        "weighting.self_us_per_step": (self_per_step_us("weighting"), "us"),
        "measurement.apply_h.calls_per_step": (calls_per_step("measurement.apply_h"), "count"),
        "measurement.apply_h.in_rl_step_per_step": (
            counts.get("apply_h.in_rl_step", 0.0) / steps, "count"),
        "measurement.apply_h.us_per_step": (per_step_us("measurement.apply_h"), "us"),
        "measurement.linearize_bank.us_per_call": (per_call_us("measurement.linearize_bank"), "us"),
        "measurement.predictive_log_density.calls_per_step": (
            calls_per_step("measurement.predictive_log_density"), "count"),
        "measurement.self_us_per_step": (self_per_step_us("measurement"), "us"),
        "posterior.lg_update_arrays.us_per_call": (per_call_us("posterior.lg_update_arrays"), "us"),
        "posterior.lg_update_arrays.hyps_per_call": (
            counts.get("lg_update.hyps", 0.0) / get("posterior.lg_update_arrays")["calls"]
            if get("posterior.lg_update_arrays")["calls"] else 0.0, "count"),
        "posterior.single_update.us_per_call": (per_call_us("posterior.single_update"), "us"),
        "posterior.self_us_per_step": (self_per_step_us("posterior"), "us"),
        "priors.conditional_prior.calls_per_step": (calls_per_step("priors.conditional_prior"), "count"),
        "priors.conditional_prior.us_per_call": (per_call_us("priors.conditional_prior"), "us"),
        "priors.self_us_per_step": (self_per_step_us("priors"), "us"),
        "core.symmetrize_psd_batch.us_per_call": (per_call_us("core.symmetrize_psd_batch"), "us"),
        "core.symmetrize_psd_batch.matrices_per_step": (
            counts.get("psd.matrices", 0.0) / steps, "count"),
        "core.psd_repairs.per_step": (counts.get("psd.repairs", 0.0) / steps, "count"),
        "core.gaussian_log_pdf_batch.us_per_call": (
            per_call_us("core.gaussian_log_pdf_batch"), "us"),
        "core.gaussian_log_pdf_batch.fallbacks": (
            counts.get("log_pdf_batch.fallbacks", 0.0), "count"),
        "core.gaussian_log_pdf.calls_per_step": (calls_per_step("core.gaussian_log_pdf"), "count"),
        "core.gauss_belief.created_per_step": (calls_per_step("core.gauss_belief"), "count"),
        "core.self_us_per_step": (self_per_step_us("core"), "us"),
        "datagen.stream.ms_per_trial": (_median(run.stream_ms), "ms"),
        "harness.parse_config.ms": (_median(run.parse_ms), "ms"),
        "harness.export_results.ms_per_trial": (_median(run.export_ms), "ms"),
        "harness.export_results.bytes_per_trial": (_median(run.export_bytes), "bytes"),
        "harness.model_loss": (run.model_loss(), "1"),
        "trace.steps_per_s.untraced": (untraced, "1/s"),
        "trace.steps_per_s.traced": (traced, "1/s"),
        "trace.overhead_pct": ((untraced / traced - 1.0) * 100.0 if traced else 0.0, "%"),
        "trace.accounted_pct": (layer_self / traced_ns * 100.0 if traced_ns else 0.0, "%"),
        "trace.spans_per_step": (len(tracer.cols["name"]) / steps, "count"),
    })
    return out
