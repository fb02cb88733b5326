"""Workload definitions and the closed loops that drive `bone` step by step.

A workload is a set of method configs run on one synthetic stream family.
Each measured round draws a fresh config seed from the workload seed and
runs every method of the workload on it twice:

1. the closed loop below, one caller feeding one observation at a time and
   timing each step as the caller sees it;
2. `bone.harness.run_experiment` plus `bone.harness.export_results` on the
   same config, which is the `bone run` user's view of one trial and the
   reference the loop's primary metric must match exactly.

Module-level attribute lookups (`agents.bone_step`, ...) are deliberate:
the traced run replaces those bindings with timing wrappers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bone import agents, datagen
from bone.harness import EXPERIMENT_KIND, PRIMARY_METRIC

HEAVY_TAIL_MODEL = {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "poly2"}
MLP_HIDDEN = (8, 8)


def _heavy_tail_methods(seed: int) -> list[dict]:
    """Acceptance criterion 6: WoLF+RL-PR (c = 4), RL-PR[inf], C-Static."""
    def method(name, kind, **extra):
        prior = {"kind": kind, "base_mean": [0, 0, 0], "base_cov_scale": 3.0}
        return {"name": name, "model": dict(HEAVY_TAIL_MODEL), "prior": prior, **extra}

    return [
        method("WoLF+RL-PR", "rl-prior-reset", hazard=0.01, wolf_c=4.0),
        method("RL-PR[inf]", "rl-prior-reset", hazard=0.01),
        method("C-Static", "static"),
    ]


def _bandit_methods(seed: int) -> list[dict]:
    """Acceptance criterion 8: C-Static, C-ACI, CPP-OU, RL-OUPR."""
    def method(name, kind, prior_extra=None, **extra):
        prior = {"kind": kind, "base_mean": [0], "base_cov_scale": 1.0, **(prior_extra or {})}
        return {"name": name, "model": {"family": "bernoulli-logit"}, "prior": prior, **extra}

    return [
        method("C-Static", "static"),
        method("C-ACI", "aci", {"alpha": 0.01}),
        method("CPP-OU", "cpp-ou", cpp={"steps": 10, "lr": 0.05}),
        method("RL-OUPR", "rl-oupr", {"epsilon": 0.5}, hazard=0.05),
    ]


def mlp_base_mean(seed: int) -> list[float]:
    """Layer-ordered MLP parameters drawn N(0, 1/fan_in) from the workload seed.

    A zero mean is degenerate: every ReLU input is 0, so the hidden-layer
    Jacobian vanishes and only the output bias would learn.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    dims = (1, *MLP_HIDDEN, 1)
    theta = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        theta += (scale * rng.standard_normal(fan_out * fan_in)).tolist()  # weights
        theta += (scale * rng.standard_normal(fan_out)).tolist()  # biases
    return theta


def _mlp_methods(seed: int) -> list[dict]:
    """RL-PR[K] with K = 10 on a 1-8-8-1 ReLU network (m = 97)."""
    model = {"family": "mlp-gaussian", "in_dim": 1, "hidden": list(MLP_HIDDEN), "obs_noise": 0.01}
    prior = {"kind": "rl-prior-reset", "base_mean": mlp_base_mean(seed), "base_cov_scale": 1.0}
    return [{"name": "RL-PR[K]", "K": 10, "hazard": 0.01, "model": model, "prior": prior}]


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    horizon: int
    generator: dict
    methods: Callable[[int], list[dict]]
    why: str

    @property
    def kind(self) -> str:
        return EXPERIMENT_KIND[self.experiment]

    @property
    def primary_metric(self) -> str:
        return PRIMARY_METRIC[self.kind]

    def raw_configs(self, seed: int, config_seed: int, horizon: int | None = None) -> list[dict]:
        """One single-trial harness config per method, all on config_seed."""
        return [
            {
                "experiment": self.experiment,
                "horizon": self.horizon if horizon is None else horizon,
                "trials": 1,
                "seed": config_seed,
                "generator": dict(self.generator),
                "method": method,
            }
            for method in self.methods(seed)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heavy-tail", "heavy-tail", 500, {"p_eps": 0.01}, _heavy_tail_methods,
            "unbounded bank grows to 501 hypotheses: per-hypothesis prediction "
            "loop and batched rl_step on many tiny matrices",
        ),
        Workload(
            "bandit", "bandit", 2000, {"arms": 10}, _bandit_methods,
            "every bank holds one hypothesis: per-call overhead, CPP-OU "
            "finite differences, per-arm Thompson and drift loops",
        ),
        Workload(
            "mlp-segments", "dependent-segments", 500, {}, _mlp_methods,
            "top-10 bank of 97-parameter MLP beliefs: few large matrices, "
            "eigvalsh and the MLP Jacobian loop",
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Config seed of one measured round, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 1, round_index]).generate_state(1)[0])


def make_stream(cfg) -> list:
    """The trial-0 stream exactly as the harness builds it (role 0 of the seed split)."""
    gen = datagen.GENERATORS[cfg.experiment]
    seq = np.random.SeedSequence([cfg.seed, 0, 0])
    params = dict(cfg.generator_params)
    if cfg.experiment == "bandit":
        return gen(arms=int(params.pop("arms", 10)), T=cfg.horizon, seed=seq, **params)
    return gen(T=cfg.horizon, seed=seq, **params)


@dataclass
class LoopResult:
    """One closed-loop trial: primary metric and what the caller observed."""

    loss: float
    step_ns: np.ndarray  # per-step latency
    loop_ns: int  # wall time of the whole step loop
    bank_sizes: np.ndarray  # bank size at each step's entry


def prequential_loop(cfg, records, tracer=None) -> LoopResult:
    """Predict, score, then update, one observation at a time.

    Mirrors the harness's prequential trial, so the RMSE is bit-identical.
    """
    method = cfg.method
    state = agents.init_agent(method)
    n = len(records)
    errors = np.zeros(n)
    step_ns = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    clock = time.perf_counter_ns
    loop_start = clock()
    for t, rec in enumerate(records):
        sizes[t] = state.bank.size
        if tracer is not None:
            tracer.begin_step(t)
        start = clock()
        yhat, _ = agents.predict_weighted(state, method, rec.x)
        state, _, _ = agents.bone_step(state, method, rec.x, rec.y)
        step_ns[t] = clock() - start
        if tracer is not None:
            tracer.end_step()
        errors[t] = float(rec.y) - float(np.asarray(yhat).ravel()[0])
    loop_ns = clock() - loop_start
    rmse = float(np.sqrt(np.mean(errors**2))) if n else float("nan")
    return LoopResult(rmse, step_ns, loop_ns, sizes)


def bandit_loop(cfg, records, tracer=None) -> LoopResult:
    """Thompson draw, pull, update the pulled arm, drift the rest.

    Mirrors the harness's bandit trial and its SeedSequence([seed, trial,
    role]) split, so the cumulative regret is bit-identical.
    """
    method = cfg.method
    agent_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 1]))
    reward_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 2]))
    arms = records[0].arm_probs.size if records else 0
    states = [agents.init_agent(method) for _ in range(arms)]
    n = len(records)
    regret = np.zeros(n)
    step_ns = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    clock = time.perf_counter_ns
    loop_start = clock()
    for t, rec in enumerate(records):
        if tracer is not None:
            tracer.begin_step(t)
        start = clock()
        a = agents.thompson_action(states, method, rec.x, agent_rng)
        reward = float(reward_rng.random() < rec.arm_probs[a])
        sizes[t] = states[a].bank.size
        states[a], _, _ = agents.bone_step(states[a], method, rec.x, reward)
        for j in range(arms):
            if j != a:
                states[j] = agents.drift_unobserved(states[j], method)
        step_ns[t] = clock() - start
        if tracer is not None:
            tracer.end_step()
        regret[t] = float(rec.arm_probs.max() - rec.arm_probs[a])
    loop_ns = clock() - loop_start
    return LoopResult(float(np.sum(regret)), step_ns, loop_ns, sizes)


def run_loop(workload: Workload, cfg, records, tracer=None) -> LoopResult:
    loop = bandit_loop if workload.kind == "bandit" else prequential_loop
    return loop(cfg, records, tracer)
