"""Span tracer for the traced run, measured from outside `bone`.

`Tracer.install` replaces public functions of `bone` at the module bindings
where they are called (each `bone` module imports its collaborators by
name, so `bone.agents.rl_step` is patched, not `bone.weighting.rl_step`
alone) and `uninstall` restores them.  No file of `bone` changes.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent, step, self time),
  kept in flat int64 arrays and written out with `save`;
* leaf: a call count and summed time per name, for functions called
  hundreds of times per step (`apply_h`, `gaussian_log_pdf`,
  `GaussBelief.__post_init__`), which bounds memory.

Self time is a call's duration minus the time its traced children cover.
Both kinds keep a frame on one stack, so a leaf's time is subtracted from
its parent's self time too and the self times of one step add up to the
step span's duration.  A wrapper's counting hook runs after the call and is
timed too: its time is taken out of the parent's self time, so tracer cost
shows as unaccounted time, not as layer time.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

import bone.agents
import bone.core
import bone.measurement
import bone.posterior
import bone.priors
import bone.weighting

# (module or class, attribute, traced name, kind); one traced name may sit at
# several bindings.
BINDINGS = (
    (bone.agents, "predict_weighted", "agents.predict_weighted", "span"),
    (bone.agents, "bone_step", "agents.bone_step", "span"),
    (bone.agents, "thompson_action", "agents.thompson_action", "span"),
    (bone.agents, "drift_unobserved", "agents.drift_unobserved", "span"),
    (bone.agents, "rl_step", "weighting.rl_step", "span"),
    (bone.weighting, "prune_topk", "weighting.prune_topk", "span"),
    (bone.agents, "cpp_empirical_bayes", "weighting.cpp_empirical_bayes", "span"),
    (bone.weighting.HypothesisBank, "__post_init__", "weighting.hypothesis_bank", "leaf"),
    (bone.weighting, "linearize_bank", "measurement.linearize_bank", "span"),
    (bone.agents, "predictive_log_density", "measurement.predictive_log_density", "span"),
    (bone.measurement, "predictive_log_density", "measurement.predictive_log_density", "span"),
    (bone.agents, "link_mean", "measurement.link_mean", "leaf"),
    (bone.measurement, "moments_for_update", "measurement.moments_for_update", "leaf"),
    (bone.posterior, "moments_for_update", "measurement.moments_for_update", "leaf"),
    (bone.measurement, "apply_h", "measurement.apply_h", "leaf"),
    (bone.weighting, "lg_update_arrays", "posterior.lg_update_arrays", "span"),
    (bone.posterior, "lg_update_arrays", "posterior.lg_update_arrays", "span"),
    (bone.agents, "lg_update", "posterior.single_update", "span"),
    (bone.agents, "wolf_update", "posterior.single_update", "span"),
    (bone.agents, "conditional_prior", "priors.conditional_prior", "span"),
    (bone.posterior, "symmetrize_psd_batch", "core.symmetrize_psd_batch", "span"),
    (bone.priors, "symmetrize_psd", "core.symmetrize_psd", "leaf"),
    (bone.weighting, "gaussian_log_pdf_batch", "core.gaussian_log_pdf_batch", "span"),
    (bone.measurement, "gaussian_log_pdf", "core.gaussian_log_pdf", "leaf"),
    (bone.core, "gaussian_log_pdf", "core.gaussian_log_pdf", "leaf"),
    (bone.core.GaussBelief, "__post_init__", "core.gauss_belief", "leaf"),
)

STEP = "bench.step"
RL_BUCKETS = ((1, 10), (11, 100), (101, 501))

_COLUMNS = ("name", "start", "end", "parent", "step", "self")


class Tracer:
    """Spans and leaf aggregates of the steps run while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in _COLUMNS}
        self.leaf_calls: dict[int, int] = defaultdict(int)
        self.leaf_ns: dict[int, int] = defaultdict(int)
        self.leaf_self_ns: dict[int, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.steps = 0
        # frame: [span record index or -1 for a leaf, child ns, name id, flag]
        self._stack: list[list] = []
        self._step = -1
        self._saved: list[tuple] = []
        self._step_id = self._id(STEP)
        self._hooks = {
            self._id("weighting.rl_step"): self._on_rl_step,
            self._id("weighting.prune_topk"): self._on_prune,
            self._id("core.symmetrize_psd_batch"): self._on_symmetrize,
            self._id("core.gaussian_log_pdf_batch"): self._on_log_pdf_batch,
            self._id("core.gaussian_log_pdf"): self._on_log_pdf,
            self._id("measurement.apply_h"): self._on_apply_h,
            self._id("posterior.lg_update_arrays"): self._on_lg_update,
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> list:
        cols = self.cols
        idx = len(cols["name"])
        cols["name"].append(nid)
        cols["parent"].append(self._stack[-1][0] if self._stack else -1)
        cols["step"].append(self._step)
        cols["start"].append(0)
        cols["end"].append(0)
        cols["self"].append(0)
        frame = [idx, 0, nid, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int):
        self._stack.pop()
        idx = frame[0]
        self.cols["start"][idx] = start
        self.cols["end"][idx] = end
        self.cols["self"][idx] = end - start - frame[1]
        if self._stack:
            self._stack[-1][1] += end - start

    def _span(self, nid: int, fn):
        clock = time.perf_counter_ns
        hook = self._hooks.get(nid)

        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(frame, start, end)
            if hook is not None:
                hook(frame, args, result, end - start)
                self._charge_tracer(end)
            return result

        return wrapper

    def _leaf(self, nid: int, fn):
        clock = time.perf_counter_ns
        hook = self._hooks.get(nid)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [-1, 0, nid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self.leaf_calls[nid] += 1
                self.leaf_ns[nid] += dur
                self.leaf_self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hook is not None:
                    hook(frame, args, None, dur)
                    self._charge_tracer(start + dur)

        return wrapper

    def _charge_tracer(self, since: int):
        """Take the time since `since` out of the parent's self time."""
        if self._stack:
            self._stack[-1][1] += time.perf_counter_ns() - since

    def begin_step(self, step: int):
        self._step = step
        self._root = self._open(self._step_id)
        self._root_start = time.perf_counter_ns()

    def end_step(self):
        self._close(self._root, self._root_start, time.perf_counter_ns())
        self._step = -1
        self.steps += 1

    # -- layer counters ----------------------------------------------------

    def _on_rl_step(self, frame, args, result, dur):
        k = args[0].size
        for lo, hi in RL_BUCKETS:
            if lo <= k <= hi:
                self.counts[f"rl_step.calls.k{lo}-{hi}"] += 1
                self.counts[f"rl_step.ns.k{lo}-{hi}"] += dur
                break

    def _on_prune(self, frame, args, result, dur):
        self.counts["prune.candidates"] += args[0].size
        self.counts["prune.kept"] += result.size

    def _on_lg_update(self, frame, args, result, dur):
        self.counts["lg_update.hyps"] += args[0].shape[0]

    def _on_symmetrize(self, frame, args, result, dur):
        # a repair shifts the diagonal, which symmetrizing leaves unchanged
        covs = args[0]
        self.counts["psd.matrices"] += covs.shape[0]
        repaired = np.einsum("kii->k", result) != np.einsum("kii->k", covs)
        self.counts["psd.repairs"] += int(repaired.sum())

    def _on_log_pdf_batch(self, frame, args, result, dur):
        self.counts["log_pdf_batch.fallbacks"] += frame[3]

    def _on_log_pdf(self, frame, args, result, dur):
        # the batch falls back to the scalar path item by item
        if self._stack and self._stack[-1][2] == self._ids["core.gaussian_log_pdf_batch"]:
            self._stack[-1][3] = 1

    def _on_apply_h(self, frame, args, result, dur):
        rl = self._ids["weighting.rl_step"]
        if any(f[2] == rl for f in self._stack):
            self.counts["apply_h.in_rl_step"] += 1

    # -- install / read out -------------------------------------------------

    def install(self):
        """Patch every binding; the original functions are kept for `uninstall`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in BINDINGS:
            original = getattr(owner, attr)
            wrap = self._span if kind == "span" else self._leaf
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(self._id(name), original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive ns and self ns, spans and leaves alike."""
        names = np.frombuffer(self.cols["name"], dtype=np.int64)
        dur = np.frombuffer(self.cols["end"], dtype=np.int64) - np.frombuffer(
            self.cols["start"], dtype=np.int64
        )
        own = np.frombuffer(self.cols["self"], dtype=np.int64)
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_ns = np.bincount(names, weights=own, minlength=n)
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": float(calls[nid] + self.leaf_calls.get(nid, 0)),
                "ns": float(total[nid] + self.leaf_ns.get(nid, 0)),
                "self_ns": float(self_ns[nid] + self.leaf_self_ns.get(nid, 0)),
            }
        return out

    def save(self, path):
        """Write the span records and leaf aggregates as one .npz file."""
        leaf_ids = sorted(self.leaf_calls)
        np.savez(
            path,
            names=np.array(self.names),
            **{c: np.frombuffer(self.cols[c], dtype=np.int64) for c in _COLUMNS},
            leaf_name=np.array(leaf_ids, dtype=np.int64),
            leaf_calls=np.array([self.leaf_calls[i] for i in leaf_ids], dtype=np.int64),
            leaf_ns=np.array([self.leaf_ns[i] for i in leaf_ids], dtype=np.int64),
            leaf_self_ns=np.array([self.leaf_self_ns[i] for i in leaf_ids], dtype=np.int64),
        )
