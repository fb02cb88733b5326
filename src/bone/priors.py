"""Conditional prior constructors over model parameters.

Each single-hypothesis policy maps last step's belief, the means (1, m)
and covs (1, m, m) columns of its bank, plus, for some kinds, an auxiliary
value, to the same columns of the prior used by the next update
(``conditional_prior``):

static        keep the belief
ou            blend toward the base prior at fixed rate gamma
cpp-ou        same blend, rate given by the changepoint probability
aci           additive covariance inflation Sigma + alpha I
rl-oupr       same blend at the continuation probability nu, 0 at nu <= epsilon

The two runlength kinds keep the grown belief and differ only at runlength
0, whose prior ``weighting.rl_step`` builds for the whole bank:

rl-prior-reset hard reset to the base prior
rl-mmpr       moment-matched mixture over the hypothesis bank (mmpr_prior)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    FLOOR_DIM,
    ConfigError,
    GaussBelief,
    eigen_floor,
    is_finite_number,
    symmetrize_psd,
    symmetrize_psd_batch,
)

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
    """Conditional-prior kind plus the one number that kind reads, if any,
    over a base prior whose covariance is PSD within ``core.PSD_TOL``.

    ``base_floor`` is computed, not set: for rl-prior-reset over at least
    ``core.FLOOR_DIM`` parameters, the certified lower bound
    ``core.eigen_floor`` on the base covariance's smallest eigenvalue,
    which the bank carries from its root and reset rows; None otherwise.
    (An rl-mmpr reset is a moment match with no known floor, and the rows
    grown from it would carry floor 0, so its bank keeps LAPACK.)

    ``inflation`` is computed too: for aci, the (m, m) matrix alpha I that
    ``conditional_prior`` adds to each covariance; None otherwise.
    """

    kind: str
    base_prior: GaussBelief
    gamma: float | None = None
    alpha: float | None = None
    epsilon: float | None = None
    base_floor: float | None = field(default=None, init=False, repr=False, compare=False)
    inflation: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ConfigError(f"unknown prior kind {self.kind!r}")
        symmetrize_psd(self.base_prior.cov)  # validates PSD
        for name, (lo, hi, text) in _RANGES.items():
            value = getattr(self, name)
            if name == _REQUIRED.get(self.kind):
                if value is None:
                    raise ConfigError(f"prior kind {self.kind!r} requires {name}")
                if not (is_finite_number(value) and lo <= value <= hi):
                    raise ConfigError(f"{name} must be a finite number {text}, got {value!r}")
            elif value is not None:
                raise ConfigError(f"prior kind {self.kind!r} does not take {name}")
        if self.kind == "rl-prior-reset" and self.base_prior.dim >= FLOOR_DIM:
            object.__setattr__(self, "base_floor", eigen_floor(self.base_prior.cov))
        if self.kind == "aci":
            object.__setattr__(self, "inflation", self.alpha * np.eye(self.base_prior.dim))


def conditional_prior(policy: PriorPolicy, means, covs, rate=None) -> tuple[np.ndarray, np.ndarray]:
    """The prior for the next update of a single-hypothesis bank, from its
    columns ``means`` (1, m) and ``covs`` (1, m, m); returns the prior's
    (means, covs) of the same shapes.

    static keeps the columns and aci adds alpha I to the covariance.  The
    other kinds blend toward the base prior: (r mu + (1-r) mu0,
    r^2 Sigma + (1-r^2) Sigma0), ou at gamma, cpp-ou and rl-oupr at
    ``rate``, which their step computes (the other kinds ignore it).  Rate 1
    returns ``means`` and ``covs`` themselves and rate 0 the base prior's
    arrays, neither blended nor copied.  With no observation
    (``agents.drift_unobserved``) this is the drift of an unpulled arm.  The
    rl-prior-reset and rl-mmpr priors are built by ``weighting.rl_step``.
    """
    kind = policy.kind
    if kind == "static":
        return means, covs
    if kind == "aci":
        return means, covs + policy.inflation
    if kind == "ou":
        rate = policy.gamma
    elif kind in ("cpp-ou", "rl-oupr"):
        if rate is None or not 0.0 <= rate <= 1.0:
            raise ConfigError(f"{kind} needs a blend rate in [0, 1], got {rate}")
        rate = float(rate)
    else:
        raise ConfigError(f"prior kind {kind!r} is built by rl_step, not conditional_prior")
    if rate == 1.0:
        return means, covs
    base = policy.base_prior
    if rate == 0.0:
        return base.mean[None], base.cov[None]
    blend = rate * rate * covs + (1.0 - rate * rate) * base.cov
    return rate * means + (1.0 - rate) * base.mean, symmetrize_psd_batch(blend)


def mmpr_prior(bank: "HypothesisBank") -> tuple[np.ndarray, np.ndarray]:
    """Mean (m,) and covariance (m, m) matching the reset mixture's first two moments.

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
    return mbar, symmetrize_psd(second - np.outer(mbar, mbar))
