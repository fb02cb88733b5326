"""Conditional prior constructors over model parameters.

Each policy maps last step's belief (plus, for some kinds, an auxiliary
value) to the prior used by the next update:

static        keep the belief
ou            blend toward the base prior at fixed rate gamma
cpp-ou        same blend, rate given by the changepoint probability
aci           additive covariance inflation Sigma + alpha I
shrink-perturb shrink the mean, inflate the covariance
lssm          push through affine-Gaussian dynamics
rl-prior-reset hard reset to the base prior at runlength 0
rl-oupr       blend at rate nu above the threshold, hard reset below
rl-mmpr       moment-matched mixture over the hypothesis bank at reset
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ConfigError, GaussBelief, LinearDynamics, is_finite_number, symmetrize_psd
from .posterior import kf_predict

if TYPE_CHECKING:  # pragma: no cover
    from .weighting import HypothesisBank

PRIOR_KINDS = (
    "static",
    "ou",
    "aci",
    "shrink-perturb",
    "lssm",
    "cpp-ou",
    "rl-prior-reset",
    "rl-mmpr",
    "rl-oupr",
)

_REQUIRED = {
    "ou": ("gamma",),
    "aci": ("alpha",),
    "shrink-perturb": ("shrink",),
    "lssm": ("dyn",),
    "rl-oupr": ("epsilon",),
}


@dataclass(frozen=True)
class PriorPolicy:
    """Conditional-prior kind plus the parameters that kind requires."""

    kind: str
    base_prior: GaussBelief
    gamma: float | None = None
    alpha: float | None = None
    shrink: float | None = None
    perturb_var: float | None = None
    dyn: LinearDynamics | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ConfigError(f"unknown prior kind {self.kind!r}")
        for name in _REQUIRED.get(self.kind, ()):
            if getattr(self, name) is None:
                raise ConfigError(f"prior kind {self.kind!r} requires {name}")
        for name in ("gamma", "alpha", "shrink", "perturb_var", "epsilon"):
            value = getattr(self, name)
            if value is not None and not is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.alpha is not None and self.alpha < 0.0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if self.shrink is not None and not 0.0 < self.shrink < 1.0:
            raise ConfigError(f"shrink must be in (0, 1), got {self.shrink}")
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")

    def perturb_variance(self) -> float:
        """Perturbation variance for shrink-perturb; defaults to the mean
        diagonal of the base covariance when not set explicitly."""
        if self.perturb_var is not None:
            return self.perturb_var
        return float(np.diag(self.base_prior.cov).mean())


def _ou_blend(prev: GaussBelief, base: GaussBelief, rate: float) -> GaussBelief:
    if rate == 1.0:
        return prev
    if rate == 0.0:
        return base
    mean = rate * prev.mean + (1.0 - rate) * base.mean
    cov = rate * rate * prev.cov + (1.0 - rate * rate) * base.cov
    return GaussBelief(mean, symmetrize_psd(cov))


def conditional_prior(
    policy: PriorPolicy,
    prev: GaussBelief,
    aux=None,
    weight: float | None = None,
) -> GaussBelief:
    """Build the prior for the next update from last step's belief.

    ``aux`` carries the auxiliary value the kind needs: the changepoint
    probability for cpp-ou, the runlength for the rl-* kinds.  ``weight`` is
    the continuation probability nu for rl-oupr.
    """
    base = policy.base_prior
    kind = policy.kind
    if kind == "static":
        return prev
    if kind == "ou":
        return _ou_blend(prev, base, policy.gamma)
    if kind == "cpp-ou":
        if aux is None or not 0.0 <= aux <= 1.0:
            raise ConfigError(f"cpp-ou needs a changepoint probability in [0, 1], got {aux}")
        return _ou_blend(prev, base, float(aux))
    if kind == "aci":
        return GaussBelief(prev.mean, prev.cov + policy.alpha * np.eye(prev.dim))
    if kind == "shrink-perturb":
        cov = prev.cov + policy.perturb_variance() * np.eye(prev.dim)
        return GaussBelief(policy.shrink * prev.mean, cov)
    if kind == "lssm":
        return kf_predict(prev, policy.dyn)
    if kind in ("rl-prior-reset", "rl-mmpr"):
        if aux is None or aux < 0:
            raise ConfigError(f"{kind} needs a nonnegative runlength, got {aux}")
        return base if aux == 0 else prev
    if kind == "rl-oupr":
        if weight is None or not 0.0 <= weight <= 1.0:
            raise ConfigError(f"rl-oupr needs a continuation weight in [0, 1], got {weight}")
        if weight > policy.epsilon:
            return _ou_blend(prev, base, weight)
        return base
    raise ConfigError(f"unknown prior kind {kind!r}")


def mmpr_prior(bank: "HypothesisBank", hazard: float) -> GaussBelief:
    """Gaussian matching the first two moments of the reset mixture.

    The mixture runs over last step's hypotheses with weights proportional
    to their normalized masses times the (constant) hazard, which cancels to
    the normalized weights themselves.
    """
    if not 0.0 < hazard < 1.0:
        raise ValueError(f"hazard must be in (0, 1), got {hazard}")
    if bank.size == 0:
        raise ValueError("mmpr_prior of an empty hypothesis bank")
    w = bank.weights  # (k,)
    means = bank.means  # (k, m)
    covs = bank.covs  # (k, m, m)
    mbar = w @ means
    second = np.einsum("k,kmn->mn", w, covs + np.einsum("km,kn->kmn", means, means))
    return GaussBelief(mbar, symmetrize_psd(second - np.outer(mbar, mbar)))
