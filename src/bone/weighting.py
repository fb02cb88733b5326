"""Hypothesis-bank weighting over the auxiliary variable.

Implements the joint runlength recursion (all hypotheses kept), top-K
pruning for the low-memory variants, the greedy single-hypothesis
likelihood ratio, and the empirical-Bayes changepoint-probability estimate.

Joint masses are kept unnormalized in log space; weights are normalized
only at read-out.  The bank stores hypotheses columnar (stacked arrays) so
a step over k hypotheses is a handful of batched matrix operations.  It
holds hypotheses only: the capacity K is a method setting that rl_step and
prune_topk take as an argument, and both keep survivors by one rule
(``_top_k``, which ``HypothesisBank.map_index`` also uses).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    GaussBelief,
    NumericDomainError,
    gaussian_log_pdf_batch,
    is_finite_number,
    logsumexp,
)
from .measurement import MeasurementSpec, _free_obs, linearize_bank
from .posterior import innovation_arrays, lg_update_arrays, robust_noise
from .priors import PriorPolicy, mmpr_prior

# the prior kinds whose methods keep a runlength bank (rl_step)
RL_KINDS = ("rl-prior-reset", "rl-mmpr")


@dataclass(frozen=True)
class HazardSpec:
    """Constant hazard rate pi."""

    pi: float

    def __post_init__(self):
        if not (is_finite_number(self.pi) and 0.0 < self.pi < 1.0):
            raise ConfigError(f"hazard rate must be in (0, 1), got {self.pi!r}")


@dataclass(frozen=True)
class HypothesisBank:
    """Active hypothesis set: distinct runlengths, joint masses, beliefs.

    Stored columnar: runlengths (k,), log_joints (k,), means (k, m),
    covs (k, m, m), and per-hypothesis segment anchors (k,) when the
    measurement family needs them.
    """

    runlengths: np.ndarray
    log_joints: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    anchors: np.ndarray | None = None
    timestep: int = 0

    def __post_init__(self):
        r = np.asarray(self.runlengths, dtype=int)
        lj = np.asarray(self.log_joints, dtype=float)
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        covs = np.asarray(self.covs, dtype=float)
        k = r.size
        if lj.shape != (k,) or means.shape[0] != k or covs.shape[0] != k:
            raise ValueError("inconsistent bank column lengths")
        if k > 1:
            s = np.sort(r)
            if (s[1:] == s[:-1]).any():
                raise ValueError(f"runlengths must be distinct, got {r}")
        if (r > self.timestep).any():
            raise ValueError("runlength exceeds the current timestep")
        if np.isnan(lj).any():
            raise ValueError("log_joints contain NaN")
        anchors = self.anchors
        if anchors is not None:
            anchors = np.asarray(anchors, dtype=float)
            if anchors.shape != (k,):
                raise ValueError("anchors column length mismatch")
        object.__setattr__(self, "runlengths", r)
        object.__setattr__(self, "log_joints", lj)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "anchors", anchors)

    @classmethod
    def root(cls, belief: GaussBelief, anchor_x: float | None = None) -> "HypothesisBank":
        """Initial bank: a single runlength-0 hypothesis with unit mass."""
        anchors = None if anchor_x is None else np.array([float(anchor_x)])
        return cls(
            runlengths=np.array([0]),
            log_joints=np.array([0.0]),
            means=belief.mean[None, :],
            covs=belief.cov[None, :, :],
            anchors=anchors,
            timestep=0,
        )

    @property
    def size(self) -> int:
        return self.runlengths.size

    @property
    def log_weights(self) -> np.ndarray:
        """Normalized log posterior over hypotheses."""
        return self.log_joints - logsumexp(self.log_joints)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def map_index(self) -> int:
        """Index of the most likely hypothesis; ties go to the larger runlength."""
        if self.size == 1:
            return 0
        return int(_top_k(self.runlengths, self.log_joints, 1)[0])

    @property
    def map_runlength(self) -> int:
        return int(self.runlengths[self.map_index])

    def belief(self, i: int) -> GaussBelief:
        return GaussBelief(self.means[i], self.covs[i])

    def anchor(self, i: int) -> float | None:
        return None if self.anchors is None else float(self.anchors[i])


def _top_k(runlengths: np.ndarray, log_joints: np.ndarray, K: int) -> np.ndarray:
    """Indices of the K largest log-joints, ties toward the larger runlength,
    in ascending order so survivors keep their relative order."""
    order = np.lexsort((-runlengths, -log_joints))
    return np.sort(order[:K])


def prune_topk(bank: HypothesisBank, K: int) -> HypothesisBank:
    """Keep the K hypotheses of largest joint mass, ties toward larger runlength.

    Survivors keep their relative order; a bank of at most K hypotheses is
    returned as it is.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    if bank.size <= K:
        return bank
    keep = _top_k(bank.runlengths, bank.log_joints, K)
    return HypothesisBank(
        bank.runlengths[keep],
        bank.log_joints[keep],
        bank.means[keep],
        bank.covs[keep],
        anchors=None if bank.anchors is None else bank.anchors[keep],
        timestep=bank.timestep,
    )


def _reset_prior(bank: HypothesisBank, policy: PriorPolicy) -> GaussBelief:
    if policy.kind == "rl-mmpr":
        return mmpr_prior(bank)
    return policy.base_prior


def rl_step(
    bank: HypothesisBank,
    hazard: HazardSpec,
    spec: MeasurementSpec,
    policy: PriorPolicy,
    x,
    y,
    wolf_c: float | None = None,
    capacity: int | None = None,
) -> HypothesisBank:
    """One joint-recursion step: grow every hypothesis, add the reset, keep the
    top ``capacity`` (None keeps all).

    Growth branch k: runlength + 1, log-joint += log p(y | hypothesis k)
    + log(1 - pi); belief updated on its conditional prior.  Reset branch:
    runlength 0 with mass p(y | reset prior) * sum_k joint_k * pi, belief
    updated from the reset prior, recording a fresh segment anchor for
    segment models.  When a robust threshold ``wolf_c`` is set, both the
    updates and the per-hypothesis predictive densities use the inflated
    observation covariance R / W^2, so outliers neither drag the beliefs nor
    trigger spurious resets.

    The log-joints need only the predictive densities, which come from the
    priors, so a full bank (``capacity`` hypotheses) selects its survivors
    (the prune_topk rule) before any posterior is computed, and only the
    survivors are updated: their prior covariances are gathered from
    ``bank.covs`` and the reset prior into one new stack, and no (k + 1)
    stack is built.  An unbounded or not yet full bank updates all k + 1
    candidates as one stack.  The input bank is never written.  An
    observation of zero density under every candidate is a NumericDomainError.
    """
    if bank.size == 0:
        raise ValueError("rl_step on an empty hypothesis bank")
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be a positive integer")
    if policy.kind not in RL_KINDS:
        raise ConfigError(f"rl_step requires a runlength prior policy, got {policy.kind!r}")
    pi = hazard.pi
    reset = _reset_prior(bank, policy)

    # candidates: the growth priors (tracked beliefs), then the reset prior
    means = np.concatenate([bank.means, reset.mean[None, :]])
    runlengths = np.concatenate([bank.runlengths + 1, [0]])
    anchors = None
    if spec.family == "segment-poly-gaussian":
        if bank.anchors is None:
            raise ValueError("segment-poly bank must carry anchors")
        x_now = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
        anchors = np.concatenate([bank.anchors, [x_now]])

    yhats, jacs, Rs = linearize_bank(spec, means, x, anchors)
    yv = _free_obs(spec, y)
    if wolf_c is not None:
        Rs = robust_noise(spec, yv, yhats, Rs, wolf_c)
    prune = capacity is not None and bank.size >= capacity
    if prune:
        grow = innovation_arrays(bank.covs, jacs[:-1], Rs[:-1])
        fresh = innovation_arrays(reset.cov[None], jacs[-1:], Rs[-1:])
        PHt, S = (np.concatenate(pair) for pair in zip(grow, fresh))
    else:
        covs = np.concatenate([bank.covs, reset.cov[None, :, :]])
        new_means, new_covs, S = lg_update_arrays(means, covs, jacs, yhats, yv, Rs)
    log_preds = gaussian_log_pdf_batch(yv, yhats, S)
    grow_joints = bank.log_joints + log_preds[:-1] + np.log1p(-pi)
    reset_joint = log_preds[-1] + logsumexp(bank.log_joints + np.log(pi))
    log_joints = np.concatenate([grow_joints, [reset_joint]])
    if np.isneginf(log_joints).all():
        raise NumericDomainError("every hypothesis gives the observation zero density")

    if prune:
        keep = _top_k(runlengths, log_joints, capacity)
        grown = keep[:-1] if keep[-1] == bank.size else keep
        covs = np.empty((keep.size,) + bank.covs.shape[1:])
        np.take(bank.covs, grown, axis=0, out=covs[: grown.size], mode="clip")
        if grown.size < keep.size:
            covs[-1] = reset.cov
        new_means, new_covs, _ = lg_update_arrays(
            means[keep], covs, jacs[keep], yhats[keep], yv, Rs[keep],
            innovations=(PHt[keep], S[keep]),
        )
        runlengths, log_joints = runlengths[keep], log_joints[keep]
        anchors = None if anchors is None else anchors[keep]
    return HypothesisBank(
        runlengths=runlengths,
        log_joints=log_joints,
        means=new_means,
        covs=new_covs,
        anchors=anchors,
        timestep=bank.timestep + 1,
    )


def greedy_ratio(p_grow: float, p_reset: float, hazard: HazardSpec) -> float:
    """Continuation probability nu from the two predictive log densities.

    nu = e^{p_grow} (1 - pi) / (e^{p_reset} pi + e^{p_grow} (1 - pi)),
    evaluated in log space.
    """
    if np.isinf(p_grow) and np.isinf(p_reset) and p_grow < 0 and p_reset < 0:
        raise NumericDomainError("both predictive densities are zero")
    pi = hazard.pi
    lg = p_grow + np.log1p(-pi)
    lr = p_reset + np.log(pi)
    return float(np.exp(lg - logsumexp([lg, lr])))


def cpp_empirical_bayes(
    prev: GaussBelief,
    base: GaussBelief,
    spec: MeasurementSpec,
    x,
    y,
    steps: int = 10,
    lr: float = 0.1,
    anchor: float | None = None,
) -> float:
    """Changepoint probability maximizing the one-step predictive density.

    Gradient ascent on upsilon in [0, 1] with central finite differences
    (one-sided at the boundaries), initialized at 1 (full continuity).  The
    conditional prior at rate upsilon is the blend
    (u mu + (1-u) mu0, u^2 Sigma + (1-u^2) Sigma0), and its predictive
    density is the linearized N(y | h(mean), J Sigma J^T + R), under the
    segment ``anchor`` for segment models.  Both points of a difference are
    scored as one 2-row stack.  An iteration depends on u alone, so the
    search stops at the first iteration that leaves u unchanged (the fixed
    point), which returns what the remaining iterations would.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    yv = _free_obs(spec, y)
    anchors = None if anchor is None else np.full(2, anchor)
    pm, pc, bm, bc = prev.mean, prev.cov, base.mean, base.cov
    u = 1.0
    h = 1e-4
    for _ in range(steps):
        hi = min(u + h, 1.0)
        lo = max(u - h, 0.0)
        if hi == lo:
            break
        pts = np.array([[hi], [lo]])
        sq = (pts * pts)[:, :, None]
        means = pts * pm + (1.0 - pts) * bm
        covs = sq * pc + (1.0 - sq) * bc
        yhats, jacs, Rs = linearize_bank(spec, means, x, anchors)
        S = (jacs @ covs) @ jacs.transpose(0, 2, 1) + Rs
        dens = gaussian_log_pdf_batch(yv, yhats, S)
        g = (dens[0] - dens[1]) / (hi - lo)
        u_next = min(1.0, max(0.0, u + lr * g))
        if u_next == u:
            break
        u = u_next
    return u


def runlength_posterior_rows(posterior) -> Iterator[tuple[int, int, float]]:
    """(t, r, log_posterior) rows, for CSV export, over a sequence of
    (timestep, runlengths, log_weights) triples, one per bank."""
    for t, runlengths, log_weights in posterior:
        for r, lw in zip(runlengths, log_weights):
            yield int(t), int(r), float(lw)
