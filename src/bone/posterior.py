"""Recursive Gaussian posterior computation.

Linearized-Gaussian update, exponential-family update (noise moment-matched
at the prior mean, single pass, no relinearization), and the robust update
that inflates the observation covariance by an inverse-multiquadric weight
of the standardized residual.  The step from one update to the next prior
is the conditional prior's (``priors.py``); this module has no predict step.

Everything is written over a stack of k hypotheses (``lg_update_arrays``,
``robust_noise``); ``lg_update`` and ``wolf_update`` update one belief as a
stack of one and return only the posterior.

The covariance update is Sigma - K S K^T followed by PSD symmetrization;
the Joseph form is deliberately not used.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, GaussBelief, NumericDomainError, symmetrize_psd_batch
from .measurement import MeasurementSpec, _free_obs, moments_for_update


def _imq_weights(errors: np.ndarray, Rs: np.ndarray, c: float) -> np.ndarray:
    """Inverse-multiquadric weights (1 + ||e||^2_{R^-1} / c^2)^(-1/2), batched."""
    if errors.shape[1] == 1:
        maha = errors[:, 0] ** 2 / Rs[:, 0, 0]
    else:
        sol = np.linalg.solve(Rs, errors[:, :, None])[:, :, 0]
        maha = np.einsum("kd,kd->k", errors, sol)
    return 1.0 / np.sqrt(1.0 + maha / (c * c))


def robust_noise(spec: MeasurementSpec, y, yhats, Rs, c: float) -> np.ndarray:
    """Observation covariances R / W^2 inflated by the IMQ weight W of each
    residual y - yhat; yhats (k, d), Rs (k, d, d).  A weight too small for a
    finite R / W^2 is a NumericDomainError naming the hypothesis."""
    if not spec.is_gaussian:
        raise ConfigError("robust updates require a Gaussian-likelihood family")
    with np.errstate(over="ignore", divide="ignore"):  # checked below
        W = _imq_weights(y[None, :] - yhats, np.ascontiguousarray(Rs), c)
        noise = Rs / (W * W)[:, None, None]
    finite = np.isfinite(noise).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))  # the first False
        raise NumericDomainError(f"robust weight {W[k]:.3e} of hypothesis {k} is too small")
    return noise


def innovation_arrays(covs: np.ndarray, jacs: np.ndarray, Rs: np.ndarray):
    """Sigma H^T (k, m, d) and the symmetrized innovation covariance S (k, d, d)."""
    PHt = np.einsum("kmn,kdn->kmd", covs, jacs)
    S = np.einsum("kdm,kme->kde", jacs, PHt) + Rs
    return PHt, (S + S.transpose(0, 2, 1)) / 2.0


def lg_update_arrays(
    means: np.ndarray,
    covs: np.ndarray,
    jacs: np.ndarray,
    yhats: np.ndarray,
    y: np.ndarray,
    Rs: np.ndarray,
    innovations: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Batched linearized-Gaussian update.

    means (k, m), covs (k, m, m), jacs (k, d, m), yhats (k, d), y (d,),
    Rs (k, d, d); ``innovations`` is (Sigma H^T, S) from innovation_arrays
    when the caller has it already.  Returns (new_means, new_covs, S).

    No input is written.  The covariance update K S K^T is formed in one
    owned (k, m, m) buffer and subtracted from covs into that same buffer,
    which symmetrize_psd_batch may then symmetrize in place, so a large
    stack costs one new stack of the size of covs plus bounded scratch.
    """
    e = y[None, :] - yhats  # (k, d)
    PHt, S = innovation_arrays(covs, jacs, Rs) if innovations is None else innovations
    d = S.shape[1]
    if d == 1:
        s = S[:, 0, 0]
        if (s <= 0).any():
            k = int(np.flatnonzero(s <= 0)[0])
            raise NumericDomainError(
                f"singular innovation covariance {s[k]:.3e} (hypothesis {k})"
            )
        K = PHt[:, :, 0] / s[:, None]  # (k, m)
        new_means = means + K * e
        new_covs = np.einsum("km,kn->kmn", K, K)
        new_covs *= s[:, None, None]
    else:
        try:
            Kt = np.linalg.solve(S, PHt.transpose(0, 2, 1))  # S^-1 H Sigma
        except np.linalg.LinAlgError as err:
            raise NumericDomainError(f"singular innovation covariance: {err}") from None
        K = Kt.transpose(0, 2, 1)  # (k, m, d)
        new_means = means + np.einsum("kmd,kd->km", K, e)
        KS = np.einsum("kmd,kde->kme", K, S)
        new_covs = np.einsum("kme,kne->kmn", KS, K)
    np.subtract(covs, new_covs, out=new_covs)
    new_covs = symmetrize_psd_batch(new_covs, overwrite=True)
    return new_means, new_covs, S


def _update(
    prior: GaussBelief,
    spec: MeasurementSpec,
    x,
    y,
    anchor: float | None,
    wolf_c: float | None,
) -> GaussBelief:
    yhat, jac, R = moments_for_update(spec, prior.mean, x, anchor)
    yv = _free_obs(spec, y)
    Rs = R[None]
    if wolf_c is not None:
        Rs = robust_noise(spec, yv, yhat[None], Rs, wolf_c)
    means, covs, _ = lg_update_arrays(
        prior.mean[None], prior.cov[None], jac[None], yhat[None], yv, Rs
    )
    return GaussBelief(means[0], covs[0])


def lg_update(
    prior: GaussBelief,
    spec: MeasurementSpec,
    x,
    y,
    anchor: float | None = None,
) -> GaussBelief:
    """One conditional-Bayes update of a Gaussian prior against (x, y).

    Exponential-family specs route the observation noise through the
    moment-matched covariance at the prior mean.  Returns the posterior
    belief.
    """
    return _update(prior, spec, x, y, anchor, None)


def wolf_update(
    prior: GaussBelief,
    spec: MeasurementSpec,
    x,
    y,
    c: float,
    anchor: float | None = None,
) -> GaussBelief:
    """Outlier-robust update: observation covariance inflated to R / W^2.

    W = (1 + ||y - h(mu, x)||^2_{R^-1} / c^2)^(-1/2), so a residual of c
    standard deviations halves the precision and W -> 0 bounds the influence
    of gross outliers.  Returns the posterior belief.
    """
    if c <= 0:
        raise ValueError("soft threshold c must be positive")
    return _update(prior, spec, x, y, anchor, c)
