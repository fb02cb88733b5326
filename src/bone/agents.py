"""Named method compositions and the generic predict/update step.

A method pairs a measurement spec with a conditional-prior policy, a
weighting rule implied by the name, and optional hazard / capacity /
robustness knobs.  Every method's state is a hypothesis bank (a singleton
for the single-hypothesis methods), so one step is: build the conditional
prior per hypothesis, update it against (x, y), refresh the weights, and
optionally emit the weighted one-step-ahead prediction.  The bank holds
hypotheses only; ``bone_step`` passes the method's capacity K to
``rl_step``, and a single-hypothesis step replaces the bank's columns.
That step and ``drift_unobserved`` take the prior's columns from
``conditional_prior`` over the bank's, and the step updates them to the
posterior's with ``lg_update`` or ``wolf_update``, on the bank's arrays
throughout.  All three build the new bank with the trusted
``HypothesisBank._trusted``: their columns hold its invariants by
construction.

Per-hypothesis results are arrays over the bank: a prediction is the
weighted mean with the (k, d) stack of per-hypothesis predictions (read
with ``bank.weights``), and a segment anchor is a float for the one
hypothesis of a single-hypothesis method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, NumericDomainError, is_finite_number, is_integer
# predictive_log_density is not called here: the benchmark's tracer
# (perfbench/spans.py) binds it at this module
from .measurement import MeasurementSpec, link_mean, predictive_log_density  # noqa: F401
from .posterior import lg_update, wolf_update
from .priors import PriorPolicy, conditional_prior
from .weighting import (
    RL_KINDS,
    HazardSpec,
    HypothesisBank,
    blend_scorer,
    cpp_empirical_bayes,
    greedy_ratio,
    rl_step,
)

# name -> (prior kind, reads a hazard rate, reads a capacity K)
METHODS = {
    "C-Static": ("static", False, False),
    "C-ACI": ("aci", False, False),
    "C-OU": ("ou", False, False),
    "CPP-OU": ("cpp-ou", False, False),
    "RL-PR[K]": ("rl-prior-reset", True, True),
    "RL-PR[inf]": ("rl-prior-reset", True, False),
    "WoLF+RL-PR": ("rl-prior-reset", True, True),
    "RL-MMPR": ("rl-mmpr", True, True),
    "RL-OUPR": ("rl-oupr", True, False),
}
# the prior kinds whose bandit arms diffuse while unpulled (drift_unpulled)
DRIFT_KINDS = ("ou", "aci")


@dataclass(frozen=True)
class MethodConfig:
    """A named method with its required sub-configurations."""

    name: str
    spec: MeasurementSpec
    policy: PriorPolicy
    hazard: HazardSpec | None = None
    capacity: int | None = None
    wolf_c: float | None = None
    cpp_steps: int = 10
    cpp_lr: float = 0.1
    drift_unpulled: bool = True

    def __post_init__(self):
        if self.name not in METHODS:
            raise ConfigError(f"unknown method {self.name!r}")
        want, reads_hazard, reads_k = METHODS[self.name]
        if self.policy.kind != want:
            raise ConfigError(
                f"{self.name} requires prior kind {want!r}, got {self.policy.kind!r}"
            )
        if reads_hazard and self.hazard is None:
            raise ConfigError(f"{self.name} requires a hazard")
        if not reads_hazard and self.hazard is not None:
            raise ConfigError(f"{self.name} does not take a hazard")
        if self.name == "RL-PR[K]" and self.capacity is None:
            raise ConfigError("RL-PR[K] requires a positive capacity K")
        if self.capacity is not None and not reads_k:
            raise ConfigError(f"{self.name} does not take K")
        if self.capacity is not None and not (is_integer(self.capacity) and self.capacity >= 1):
            raise ConfigError(f"K must be a positive integer, got {self.capacity!r}")
        if self.name == "WoLF+RL-PR" and self.wolf_c is None:
            raise ConfigError("WoLF+RL-PR requires the soft threshold wolf_c")
        if self.wolf_c is not None:
            if not (is_finite_number(self.wolf_c) and self.wolf_c > 0):
                raise ConfigError(f"wolf_c must be a positive number, got {self.wolf_c!r}")
            if not self.spec.is_gaussian:
                raise ConfigError("robust updates require a Gaussian-likelihood family")
        if not (is_integer(self.cpp_steps) and self.cpp_steps >= 1):
            raise ConfigError(f"cpp.steps must be an integer >= 1, got {self.cpp_steps!r}")
        if not (is_finite_number(self.cpp_lr) and self.cpp_lr > 0):
            raise ConfigError(f"cpp.lr must be a positive number, got {self.cpp_lr!r}")

    @property
    def is_rl_bank(self) -> bool:
        return self.policy.kind in RL_KINDS


@dataclass(frozen=True)
class AgentState:
    """Hypothesis bank (which carries the timestep); a value threaded through the stream."""

    bank: HypothesisBank


def init_agent(cfg: MethodConfig, anchor_x: float | None = None) -> AgentState:
    """Fresh state at the base prior, runlength 0, unit mass; the root
    carries the policy's ``base_floor`` when it has one."""
    if cfg.spec.family == "segment-poly-gaussian" and anchor_x is None:
        anchor_x = 0.0
    bank = HypothesisBank.root(cfg.policy.base_prior, anchor_x, cfg.policy.base_floor)
    return AgentState(bank=bank)


def predict_weighted(state: AgentState, cfg: MethodConfig, x):
    """Weighted plug-in prediction sum_k nu_k h(mu_k; x) and the (k, d) stack
    of per-hypothesis predictions h(mu_k; x), in bank order.

    For classification families the per-hypothesis outputs are probability
    vectors, so the weighted sum is one as well.
    """
    bank = state.bank
    yhats = link_mean(cfg.spec, bank.means, x, bank.anchors)
    return bank.weights @ yhats, yhats


def _step_single(state: AgentState, cfg: MethodConfig, x, y) -> AgentState:
    bank = state.bank
    kind = cfg.policy.kind
    anchor = bank.anchor(0)
    spec, base = cfg.spec, cfg.policy.base_prior
    runlength = int(bank.runlengths[0]) + 1

    rate = cfg.policy.gamma  # ou's rate; None for static and aci
    if kind == "cpp-ou":
        rate = cpp_empirical_bayes(
            bank.means, bank.covs, base, spec, x, y,
            steps=cfg.cpp_steps, lr=cfg.cpp_lr, anchor=anchor,
        )
    elif kind == "rl-oupr":
        reset_anchor = None if anchor is None else float(np.atleast_1d(x)[0])
        score = blend_scorer(bank.means, bank.covs, base, spec, x, y, (anchor, reset_anchor))
        nu = greedy_ratio(*score(1.0, 0.0), cfg.hazard)
        rate = 0.0 if nu <= cfg.policy.epsilon else nu
        if rate == 0.0:  # the hard reset: nu > epsilon >= 0 otherwise
            runlength = 0
            anchor = reset_anchor
    means, covs = conditional_prior(cfg.policy, bank.means, bank.covs, rate)
    if cfg.wolf_c is not None:
        means, covs = wolf_update(means, covs, spec, x, y, cfg.wolf_c, anchor)
    else:
        means, covs = lg_update(means, covs, spec, x, y, anchor)
    return AgentState(bank=HypothesisBank._trusted(
        np.array([runlength]),
        bank.log_joints,
        means,
        covs,
        None if anchor is None else np.array([anchor]),
        bank.timestep + 1,
    ))


def bone_step(state: AgentState, cfg: MethodConfig, x, y, x_next=None):
    """One generic update step, optionally followed by the weighted prediction.

    Returns (new_state, yhat_next, yhats), the last two as predict_weighted
    gives them at x_next, or (new_state, None, None) without x_next.  Errors
    raised inside a hypothesis update carry the hypothesis index in their
    message.
    """
    if cfg.is_rl_bank:
        bank = rl_step(
            state.bank, cfg.hazard, cfg.spec, cfg.policy, x, y,
            wolf_c=cfg.wolf_c, capacity=cfg.capacity,
        )
        new_state = AgentState(bank=bank)
    else:
        new_state = _step_single(state, cfg, x, y)
    if x_next is None:
        return new_state, None, None
    return (new_state, *predict_weighted(new_state, cfg, x_next))


def drift_unobserved(state: AgentState, cfg: MethodConfig) -> AgentState:
    """Apply the conditional prior with no observation (for unpulled arms).

    OU and ACI beliefs diffuse without an observation through
    ``conditional_prior`` over the bank's columns; data-dependent kinds
    (cpp-ou, rl-*) are left unchanged because their auxiliary value needs
    the current observation.
    """
    kind = cfg.policy.kind
    if kind not in DRIFT_KINDS or not cfg.drift_unpulled:
        return state
    bank = state.bank
    means, covs = conditional_prior(cfg.policy, bank.means, bank.covs)
    return AgentState(bank=HypothesisBank._trusted(
        bank.runlengths, bank.log_joints, means, covs, bank.anchors, bank.timestep
    ))


def thompson_action(
    states: list[AgentState],
    cfg: MethodConfig,
    x,
    rng: np.random.Generator,
) -> int:
    """Sample a parameter draw per arm from its modal-hypothesis belief and
    act greedily on the sampled expected rewards.  Ties break to the lowest
    arm index.

    One standard-normal draw of shape (arms, m) gives every arm's draw in arm
    order.  A draw is mu + sqrt(max(Sigma, 0)) z for m = 1, and mu + L z with
    L the Cholesky factor of Sigma + 1e-12 I otherwise; an arm whose
    Sigma + 1e-12 I does not factor is a NumericDomainError naming it.
    """
    banks = [st.bank for st in states]
    rows = [bank.map_index for bank in banks]
    means = np.concatenate([bank.means[i : i + 1] for bank, i in zip(banks, rows)])
    covs = np.concatenate([bank.covs[i : i + 1] for bank, i in zip(banks, rows)])
    m = means.shape[1]
    z = rng.standard_normal(means.shape)
    if m == 1:
        thetas = means + np.sqrt(np.maximum(covs[:, 0], 0.0)) * z
    else:
        jittered = covs + 1e-12 * np.eye(m)
        try:
            chol = np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            for arm, cov in enumerate(jittered):
                try:
                    np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    raise NumericDomainError(
                        f"the covariance of arm {arm} has no Cholesky factor for a Thompson draw"
                    ) from None
            raise
        thetas = means + np.stack([c @ v for c, v in zip(chol, z)])
    anchors = None
    if banks[0].anchors is not None:
        anchors = np.array([bank.anchors[i] for bank, i in zip(banks, rows)])
    rewards = link_mean(cfg.spec, thetas, x, anchors)
    return int(np.argmax(rewards[:, 0]))
