"""Conditional prior constructors over model parameters.

Each policy maps last step's belief (plus, for some kinds, an auxiliary
value) to the prior used by the next update:

static        keep the belief
ou            blend toward the base prior at fixed rate gamma
cpp-ou        same blend, rate given by the changepoint probability
aci           additive covariance inflation Sigma + alpha I
rl-oupr       blend at rate nu above the threshold epsilon, hard reset below

The two runlength kinds keep the grown belief and differ only at runlength
0, whose prior ``weighting.rl_step`` builds for the whole bank:

rl-prior-reset hard reset to the base prior
rl-mmpr       moment-matched mixture over the hypothesis bank (mmpr_prior)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ConfigError, GaussBelief, is_finite_number, symmetrize_psd

if TYPE_CHECKING:  # pragma: no cover
    from .weighting import HypothesisBank

PRIOR_KINDS = ("static", "ou", "aci", "cpp-ou", "rl-prior-reset", "rl-mmpr", "rl-oupr")

# The one number each kind reads; every other kind rejects it.
_REQUIRED = {"ou": "gamma", "aci": "alpha", "rl-oupr": "epsilon"}
_RANGES = {
    "gamma": (0.0, 1.0, "in [0, 1]"),
    "alpha": (0.0, np.inf, "nonnegative"),
    "epsilon": (0.0, 1.0, "in [0, 1]"),
}


@dataclass(frozen=True)
class PriorPolicy:
    """Conditional-prior kind plus the one number that kind reads, if any."""

    kind: str
    base_prior: GaussBelief
    gamma: float | None = None
    alpha: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ConfigError(f"unknown prior kind {self.kind!r}")
        for name, (lo, hi, text) in _RANGES.items():
            value = getattr(self, name)
            if name == _REQUIRED.get(self.kind):
                if value is None:
                    raise ConfigError(f"prior kind {self.kind!r} requires {name}")
                if not (is_finite_number(value) and lo <= value <= hi):
                    raise ConfigError(f"{name} must be a finite number {text}, got {value!r}")
            elif value is not None:
                raise ConfigError(f"prior kind {self.kind!r} does not take {name}")


def data_free_prior(policy: PriorPolicy, mean: np.ndarray, cov: np.ndarray, rate=None):
    """Mean and covariance of the prior that needs no observation, from last
    step's mean (m,) and covariance (m, m).

    aci adds alpha I to the covariance.  The other kinds blend toward the
    base prior at ``rate`` (gamma when not given): (r mu + (1-r) mu0,
    r^2 Sigma + (1-r^2) Sigma0), which is the OU prior and, at the rate its
    auxiliary value gives, the cpp-ou and rl-oupr prior.  Rate 1 returns the
    inputs and rate 0 the base prior's arrays, unchanged; conditional_prior
    settles both rates before calling this, so it hands back the belief it
    was given or the base prior itself.
    """
    if policy.kind == "aci":
        return mean, cov + policy.alpha * np.eye(mean.size)
    if rate is None:
        rate = policy.gamma
    if rate == 1.0:
        return mean, cov
    base = policy.base_prior
    if rate == 0.0:
        return base.mean, base.cov
    blend = rate * rate * cov + (1.0 - rate * rate) * base.cov
    return rate * mean + (1.0 - rate) * base.mean, symmetrize_psd(blend)


def conditional_prior(
    policy: PriorPolicy,
    prev: GaussBelief,
    aux=None,
    weight: float | None = None,
) -> GaussBelief:
    """Build the prior for the next update from last step's belief.

    ``aux`` is the changepoint probability for cpp-ou and ``weight`` the
    continuation probability nu for rl-oupr.  The rl-prior-reset and rl-mmpr
    priors are built by ``weighting.rl_step``.
    """
    kind = policy.kind
    if kind == "static":
        return prev
    if kind == "aci":
        return GaussBelief(*data_free_prior(policy, prev.mean, prev.cov))
    if kind == "ou":
        rate = policy.gamma
    elif kind == "cpp-ou":
        if aux is None or not 0.0 <= aux <= 1.0:
            raise ConfigError(f"cpp-ou needs a changepoint probability in [0, 1], got {aux}")
        rate = float(aux)
    elif kind == "rl-oupr":
        if weight is None or not 0.0 <= weight <= 1.0:
            raise ConfigError(f"rl-oupr needs a continuation weight in [0, 1], got {weight}")
        rate = weight if weight > policy.epsilon else 0.0
    else:
        raise ConfigError(f"prior kind {kind!r} is built by rl_step, not conditional_prior")
    if rate == 1.0:
        return prev
    if rate == 0.0:
        return policy.base_prior
    return GaussBelief(*data_free_prior(policy, prev.mean, prev.cov, rate))


def mmpr_prior(bank: "HypothesisBank") -> GaussBelief:
    """Gaussian matching the first two moments of the reset mixture.

    The mixture runs over last step's hypotheses with weights proportional
    to their normalized masses times the (constant) hazard, which cancels to
    the normalized weights themselves, so the hazard is not an argument.
    """
    if bank.size == 0:
        raise ValueError("mmpr_prior of an empty hypothesis bank")
    w = bank.weights  # (k,)
    means = bank.means  # (k, m)
    covs = bank.covs  # (k, m, m)
    mbar = w @ means
    second = np.einsum("k,kmn->mn", w, covs + np.einsum("km,kn->kmn", means, means))
    return GaussBelief(mbar, symmetrize_psd(second - np.outer(mbar, mbar)))
