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

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    GaussBelief,
    NumericDomainError,
    gaussian_log_pdf_batch,
    is_finite_number,
    logsumexp,
)
from .measurement import (
    MeasurementSpec,
    _free_obs,
    linearize_bank,
    scalar_log_density,
    scalar_point,
)
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
    measurement family needs them.  The public constructor validates the
    columns (their lengths and shapes, distinct runlengths, no NaN in the
    masses, means or covariances) and stores (C + C^T)/2 for each
    covariance C (C bit for bit when symmetric).
    The engine's steps (``rl_step``, and the single-hypothesis step and drift
    in ``agents``), whose columns hold by construction, build their banks
    with the trusted ``_trusted``, which does neither.

    ``floors`` is an engine-only column that the public constructor never
    takes (it sets None): certified lower bounds (k,) on the smallest
    eigenvalue of each covariance, so that ``core.certify_psd_batch`` proves
    each posterior positive definite without LAPACK.  A bank carries them
    from a ``root`` given the policy's ``base_floor`` (rl-prior-reset over
    at least ``core.FLOOR_DIM`` parameters), and ``rl_step`` carries them
    on.  None means no floor is known; such a bank is certified by LAPACK.
    """

    runlengths: np.ndarray
    log_joints: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    anchors: np.ndarray | None = None
    timestep: int = 0
    floors: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.runlengths, dtype=int)
        lj = np.asarray(self.log_joints, dtype=float)
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        covs = np.asarray(self.covs, dtype=float)
        k = r.size
        if lj.shape != (k,) or means.shape[0] != k or covs.shape[:1] != (k,):
            raise ValueError("inconsistent bank column lengths")
        m = means.shape[-1]
        if means.ndim != 2 or covs.shape != (k, m, m):
            raise ValueError(
                f"bank means of shape {means.shape} and covs of shape {covs.shape}"
                " are not (k, m) and (k, m, m)"
            )
        if m > 1:  # a 1x1 matrix is symmetric already
            covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        if k > 1:
            s = np.sort(r)
            if (s[1:] == s[:-1]).any():
                raise ValueError(f"runlengths must be distinct, got {r}")
        if (r > self.timestep).any():
            raise ValueError("runlength exceeds the current timestep")
        for name, column in (("log_joints", lj), ("means", means), ("covs", covs)):
            if np.isnan(column).any():
                raise ValueError(f"{name} contain NaN")
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
    def _trusted(
        cls, runlengths, log_joints, means, covs, anchors, timestep, floors=None
    ) -> "HypothesisBank":
        """A bank of columns that already hold every invariant the public
        constructor checks or establishes, taken as they are, with the
        engine's ``floors`` column (None when no floor is known)."""
        bank = object.__new__(cls)
        bank.__dict__.update(  # bypasses the frozen __setattr__, as __post_init__ does
            runlengths=runlengths, log_joints=log_joints, means=means, covs=covs,
            anchors=anchors, timestep=timestep, floors=floors,
        )
        return bank

    @classmethod
    def root(
        cls, belief: GaussBelief, anchor_x: float | None = None, floor: float | None = None
    ) -> "HypothesisBank":
        """Initial bank: a single runlength-0 hypothesis with unit mass, built
        by the public constructor; it carries ``floor``, a certified lower
        bound on the smallest eigenvalue of ``belief.cov``, when one is given
        (``agents.init_agent`` gives the policy's ``base_floor``)."""
        anchors = None if anchor_x is None else np.array([float(anchor_x)])
        bank = cls(
            runlengths=np.array([0]),
            log_joints=np.array([0.0]),
            means=belief.mean[None, :],
            covs=belief.cov[None, :, :],
            anchors=anchors,
            timestep=0,
        )
        if floor is not None:
            object.__setattr__(bank, "floors", np.array([floor]))
        return bank

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

    def anchor(self, i: int) -> float | None:
        return None if self.anchors is None else float(self.anchors[i])


def _top_k(runlengths: np.ndarray, log_joints: np.ndarray, K: int) -> np.ndarray:
    """Indices of the K largest log-joints, ties toward the larger runlength,
    in ascending order so survivors keep their relative order."""
    order = np.lexsort((-runlengths, -log_joints))
    return np.sort(order[:K])


def prune_topk(bank: HypothesisBank, K: int) -> HypothesisBank:
    """Keep the K hypotheses of largest joint mass, ties toward larger runlength.

    Survivors keep their relative order and their floors; a bank of at most
    K hypotheses is returned as it is.  The rows of a bank hold its
    invariants, so the pruned bank is built with ``_trusted``.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    if bank.size <= K:
        return bank
    keep = _top_k(bank.runlengths, bank.log_joints, K)
    return HypothesisBank._trusted(
        bank.runlengths[keep],
        bank.log_joints[keep],
        bank.means[keep],
        bank.covs[keep],
        None if bank.anchors is None else bank.anchors[keep],
        bank.timestep,
        None if bank.floors is None else bank.floors[keep],
    )


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
    observation of zero density under every candidate, or a NaN log-joint,
    is a NumericDomainError.

    When the bank carries floors and the policy has a ``base_floor`` (the
    reset prior's floor), ``lg_update_arrays`` derives the posterior floors,
    which certify the posteriors and travel with the survivors.  A bank
    without floors (one from the public constructor) steps without them,
    certified by LAPACK, to the same beliefs bit for bit.
    """
    if bank.size == 0:
        raise ValueError("rl_step on an empty hypothesis bank")
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be a positive integer")
    if policy.kind not in RL_KINDS:
        raise ConfigError(f"rl_step requires a runlength prior policy, got {policy.kind!r}")
    pi = hazard.pi
    base = policy.base_prior
    reset_mean, reset_cov = mmpr_prior(bank) if policy.kind == "rl-mmpr" else (base.mean, base.cov)
    floors = None  # the candidates' prior floors, when the bank carries them
    if policy.base_floor is not None and bank.floors is not None:
        floors = np.append(bank.floors, policy.base_floor)

    # candidates: the growth priors (tracked beliefs), then the reset prior
    means = np.concatenate([bank.means, reset_mean[None, :]])
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
        fresh = innovation_arrays(reset_cov[None], jacs[-1:], Rs[-1:])
        PHt, S = (np.concatenate(pair) for pair in zip(grow, fresh))
    else:
        covs = np.concatenate([bank.covs, reset_cov[None, :, :]])
        new_means, new_covs, S, floors = lg_update_arrays(
            means, covs, jacs, yhats, yv, Rs, floors=floors
        )
    log_preds = gaussian_log_pdf_batch(yv, yhats, S)
    grow_joints = bank.log_joints + log_preds[:-1] + np.log1p(-pi)
    reset_joint = log_preds[-1] + logsumexp(bank.log_joints + np.log(pi))
    log_joints = np.concatenate([grow_joints, [reset_joint]])
    if np.isneginf(log_joints).all():
        raise NumericDomainError("every hypothesis gives the observation zero density")
    if np.isnan(log_joints).any():  # inf - inf from an overflowing density
        raise NumericDomainError("log_joints contain NaN")

    if prune:
        keep = _top_k(runlengths, log_joints, capacity)
        grown = keep[:-1] if keep[-1] == bank.size else keep
        covs = np.empty((keep.size,) + bank.covs.shape[1:])
        np.take(bank.covs, grown, axis=0, out=covs[: grown.size], mode="clip")
        if grown.size < keep.size:
            covs[-1] = reset_cov
        new_means, new_covs, _, floors = lg_update_arrays(
            means[keep], covs, jacs[keep], yhats[keep], yv, Rs[keep],
            innovations=(PHt[keep], S[keep]),
            floors=None if floors is None else floors[keep],
        )
        runlengths, log_joints = runlengths[keep], log_joints[keep]
        anchors = None if anchors is None else anchors[keep]
    return HypothesisBank._trusted(
        runlengths, log_joints, new_means, new_covs, anchors, bank.timestep + 1, floors
    )


def greedy_ratio(p_grow: float, p_reset: float, hazard: HazardSpec) -> float:
    """Continuation probability nu from the two predictive log densities.

    nu = e^{p_grow} (1 - pi) / (e^{p_reset} pi + e^{p_grow} (1 - pi)),
    evaluated in log space on Python floats, with np.log and np.exp on
    scalars.  It is ``exp(lg - logsumexp([lg, lr]))`` bit for bit: over two
    entries logsumexp's sum of exp(v - max) is 1 + exp(lo - max), and a NaN
    or +inf log joint leaves exp(lg - max) as it does there.  Python floats
    emit no RuntimeWarning where numpy's warned (inf - inf, an overflowing
    sum); no log density the engine computes is NaN or +inf.
    """
    if p_grow == -math.inf and p_reset == -math.inf:
        raise NumericDomainError("both predictive densities are zero")
    pi = hazard.pi
    lg = float(p_grow) + float(np.log1p(-pi))
    lr = float(p_reset) + float(np.log(pi))
    # m is NaN when lr is; a NaN lg reaches the result through lg itself
    m, lo = (lg, lr) if lg > lr else (lr, lg)
    if math.isfinite(m):
        m += float(np.log(1.0 + float(np.exp(lo - m))))
    return float(np.exp(lg - m))


def cpp_empirical_bayes(
    means: np.ndarray,
    covs: np.ndarray,
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
    conditional prior at rate upsilon is the blend of the tracked belief, a
    single-hypothesis bank's ``means`` (1, m) and ``covs`` (1, m, m), and
    ``base``: (u mu + (1-u) mu0, u^2 Sigma + (1-u^2) Sigma0).  Its
    predictive density is the linearized N(y | h(mean), J Sigma J^T + R),
    under the segment ``anchor`` for segment models.  Each (hi, lo) pair,
    hi - lo apart with hi = min(u + h, 1) and lo = max(u - h, 0) at
    h = 1e-4, is scored by one ``blend_scorer``, built once per search: on
    floats for a one-parameter bernoulli-logit model, as a 2-row stack at
    the anchor otherwise.  An iteration depends on u alone, so the search
    stops at the first iteration that leaves u unchanged (the fixed point),
    which returns what the remaining iterations would.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    score = blend_scorer(means, covs, base, spec, x, y, (anchor, anchor))
    u = 1.0
    h = 1e-4
    for _ in range(steps):
        hi = min(u + h, 1.0)
        lo = max(u - h, 0.0)
        if hi == lo:
            break
        dens = score(hi, lo)
        g = (dens[0] - dens[1]) / (hi - lo)
        u_next = min(1.0, max(0.0, u + lr * g))
        if u_next == u:
            break
        u = u_next
    return u


def blend_scorer(means, covs, base: GaussBelief, spec: MeasurementSpec, x, y, anchors):
    """``score(hi, lo)``: the predictive log densities of the blends
    (r mu + (1-r) mu0, r^2 Sigma + (1-r^2) Sigma0) of the tracked belief,
    a single-hypothesis bank's ``means`` (1, m) and ``covs`` (1, m, m), and
    ``base`` at the rates r = hi and r = lo, the first under ``anchors[0]``
    and the second under ``anchors[1]`` (both None without anchors).

    CPP-OU's rate search scores its differences at one anchor twice;
    RL-OUPR's step scores its grow and reset candidates at rates 1 and 0,
    which blend to the tracked belief and ``base`` themselves, under the
    tracked and the fresh anchor.  The pair is scored as one 2-row stack,
    one anchor per row, with ``gaussian_log_pdf_batch``.  An unanchored
    model with a ``scalar_point`` is scored on Python floats by
    ``scalar_log_density`` instead, and a pair where either float hands
    back (a logit whose exp would overflow, a variance outside
    [PSD_TOL, inf), a density that is not finite) by the stack, so the
    clamp, the errors and the warnings stay the arrays'.  Both give the same
    densities bit for bit: for finite beliefs, rates 1 and 0 blend to the
    tracked belief and ``base`` on floats too, up to the sign of a zero,
    which no density reads.  (For m >= 2 a row's link theta . phi is a row
    of a matrix-vector product, which may round differently from the dot
    product of ``predictive_log_density`` on one belief.)
    """
    rows = None if anchors == (None, None) else np.array(anchors, dtype=float)

    def stacked(hi, lo):
        yv = _free_obs(spec, y)
        pts = np.array([[hi], [lo]])
        sq = (pts * pts)[:, :, None]
        blend_means = pts * means + (1.0 - pts) * base.mean
        blend_covs = sq * covs + (1.0 - sq) * base.cov
        yhats, jacs, Rs = linearize_bank(spec, blend_means, x, rows)
        S = (jacs @ blend_covs) @ jacs.transpose(0, 2, 1) + Rs
        return gaussian_log_pdf_batch(yv, yhats, S)

    point = None if rows is not None else scalar_point(spec, x, y, means.shape[1])
    if point is None:
        return stacked
    f, yf = point
    pm, pc = float(means[0, 0]), float(covs[0, 0, 0])
    bm, bc = float(base.mean[0]), float(base.cov[0, 0])

    def density(p):
        q = p * p
        return scalar_log_density(p * pm + (1.0 - p) * bm, q * pc + (1.0 - q) * bc, f, yf)

    def floats(hi, lo):
        pair = density(hi), density(lo)
        return stacked(hi, lo) if None in pair else pair

    return floats


def runlength_posterior_rows(posterior) -> Iterator[tuple[int, int, float]]:
    """(t, r, log_posterior) rows, for CSV export, over a sequence of
    (timestep, runlengths, log_weights) triples, one per bank."""
    for t, runlengths, log_weights in posterior:
        for r, lw in zip(runlengths, log_weights):
            yield int(t), int(r), float(lw)
