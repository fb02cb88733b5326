"""Recursive Gaussian posterior computation.

Linearized-Gaussian update, exponential-family update (noise moment-matched
at the prior mean, single pass, no relinearization), and the robust update
that inflates the observation covariance by an inverse-multiquadric weight
of the standardized residual.  The step from one update to the next prior
is the conditional prior's (``priors.py``); this module has no predict step.

Everything is written over a stack of k hypotheses (``lg_update_arrays``,
``robust_noise``); ``lg_update`` and ``wolf_update`` update a bank's prior
columns as a stack of one and return only the posterior's columns.

The covariance update is Sigma - K S K^T, PSD-certified as it stands for
d = 1 and after symmetrization for d > 1; the Joseph form is deliberately
not used.  For d = 1, a certified floor under each prior's smallest
eigenvalue yields one under each posterior's (``posterior_floors``), in
O(k m) from what the update holds, so a large runlength bank is certified
without a factorization.
"""

from __future__ import annotations

import numpy as np

from .core import UNIT_ROUNDOFF, ConfigError, NumericDomainError
from .core import certify_psd_batch, gamma_n, symmetrize_psd_batch
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
    floors: np.ndarray | None = None,
):
    """Batched linearized-Gaussian update.

    means (k, m), covs (k, m, m), jacs (k, d, m), yhats (k, d), y (d,),
    Rs (k, d, d); ``innovations`` is (Sigma H^T, S) from innovation_arrays
    when the caller has it already; ``floors`` (k,), when given, are
    certified lower bounds on the smallest eigenvalues of ``covs`` (0 where
    none is known).  Returns (new_means, new_covs, S, new_floors), with
    new_floors None without ``floors``: for d = 1 the posterior floors of
    ``posterior_floors``, which certify_psd_batch reads (its repair only
    lifts eigenvalues, so they stay valid), and 0 for d > 1.

    ``covs`` must be exactly symmetric, and the result is.  For d = 1,
    Sigma - s k k^T is symmetric bit for bit (k_i k_j == k_j k_i), so
    certify_psd_batch checks it as it stands; for d > 1, K S K^T is not, so
    the result goes through symmetrize_psd_batch.

    No input is written.  The covariance update K S K^T is formed in one
    owned (k, m, m) buffer and subtracted from covs into that same buffer;
    for d > 1 symmetrize_psd_batch symmetrizes it into one more new stack.
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
        g = PHt[:, :, 0]
        if floors is not None:
            floors = posterior_floors(covs, jacs[:, 0], Rs[:, 0, 0], g, s, floors)
        K = g / s[:, None]  # (k, m)
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
        if floors is not None:
            floors = np.zeros(S.shape[0])
    np.subtract(covs, new_covs, out=new_covs)
    if d == 1:
        return new_means, certify_psd_batch(new_covs, floors), S, floors
    return new_means, symmetrize_psd_batch(new_covs), S, floors


def posterior_floors(covs, h, r, g, s, floors) -> np.ndarray:
    """Certified lower bounds on the smallest eigenvalues of the d = 1
    posterior covariances that lg_update_arrays stores, from what it holds.

    Per hypothesis: the prior Sigma (m, m), exactly symmetric, with a floor
    l <= lambda_min(Sigma); the Jacobian row h (m,); the noise r; the
    computed g = fl(Sigma h) and s = fl(h . g + r); D = max_i Sigma_ii; u
    the unit roundoff and gamma_n = n u / (1 - n u).  The stored posterior
    is fl(Sigma - fl(fl(K K^T) s)), K = fl(g / s).

    1. The inputs as an exact update.  |g - Sigma h| <= gamma_m |Sigma| |h|
       and |Sigma_ij| <= D, so ||g - Sigma h|| <= dg = gamma_m m D ||h||.
       With h' = h + Sigma^-1 (g - Sigma h), g = Sigma h' exactly and
       ||h'|| <= h^ = ||h|| + dg / l.  Rounding gives s = h . g + r + e,
       |e| <= gamma_(m+1) (|h| . |g| + r) <= gamma_(m+1) (||h|| ||g|| + r),
       so s = h'^T Sigma h' + r' with r' = r + e - h . (g - Sigma h) -
       |g - Sigma h|^2_(Sigma^-1) >= r^ = r - gamma_(m+1) (||h|| ||g|| + r)
       - ||h|| dg - dg^2 / l.
    2. When r^ > 0, A = Sigma - g g^T / s = (Sigma^-1 + h' h'^T / r')^-1
       (Sherman-Morrison), so lambda_min(A) >= 1 / (1/l + h^^2 / r^).
    3. The update's own rounding.  The stored matrix is A + E with
       |E_ij| <= u |A_ij| + gamma_5 |g_i| |g_j| / s; A is PSD with A <=
       Sigma, so ||A||_F <= trace(Sigma) <= m D, and ||E||_2 <= epsilon =
       m u D + gamma_5 ||g||^2 / s (Weyl).
    4. Evaluating the bound in floats.  Every term is a sum, product,
       quotient or square root of nonnegative floats at most m + 20
       roundings deep, so it lies within gamma_(m+20) of its exact value;
       with c = 2 (m + 20), the subtracted terms of r^ and the sum h^ are
       taken times 1 + c u, which bounds them from above.  r^ is then one
       rounded subtraction above its bound by at most a factor 1 + u, and
       the quotient above by 1 + gamma_6; the factor 1 - c u covers both
       and the last subtraction.

    The new floor is l' = (1 - c u) / (1/l + h^^2 / r^) - (1 + c u) epsilon
    where that is positive, and 0 elsewhere: r^ <= 0 is taken as 0, which
    gives l' = -epsilon, l <= 0 gives l' <= -epsilon, and a NaN or infinite
    D, h, r, g or l gives a NaN or negative l'.  The bounds of step 3 hold
    for finite products only: an infinite s leaves a NaN posterior, and a
    product fl(K_i K_i) or its scaling by s that overflows leaves -inf on
    the diagonal, both of which certify_psd_batch refuses whatever the
    floor (``core._floors_certify``).
    """
    m = h.shape[1]
    c = 2 * (m + 20) * UNIT_ROUNDOFF  # c u
    up, down = 1.0 + c, 1.0 - c
    with np.errstate(all="ignore"):  # a non-finite input gives a floor of 0
        big = covs.diagonal(0, 1, 2).max(axis=1)  # D
        norm_h = np.sqrt(np.einsum("km,km->k", h, h))
        gg = np.einsum("km,km->k", g, g)
        dg = (gamma_n(m) * m) * big * norm_h
        h_sum = norm_h + dg / floors  # h^ before its factor
        # ||h|| dg + dg^2 / l = dg h_sum
        cut = (up * gamma_n(m + 1)) * (norm_h * np.sqrt(gg) + r) + up * dg * h_sum
        r_hat = np.maximum(r - cut, 0.0)
        h_hat = up * h_sum
        eps = (m * UNIT_ROUNDOFF) * big + gamma_n(5) * gg / s
        new = down / (1.0 / floors + h_hat * h_hat / r_hat) - up * eps
    return np.fmax(new, 0.0)  # NaN gives 0


def _update(
    means: np.ndarray,
    covs: np.ndarray,
    spec: MeasurementSpec,
    x,
    y,
    anchor: float | None,
    wolf_c: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    # the single-theta call: theta . phi of a (1, m) stack may round otherwise
    yhat, jac, R = moments_for_update(spec, means[0], x, anchor)
    yv = _free_obs(spec, y)
    Rs = R[None]
    if wolf_c is not None:
        Rs = robust_noise(spec, yv, yhat[None], Rs, wolf_c)
    return lg_update_arrays(means, covs, jac[None], yhat[None], yv, Rs)[:2]


def lg_update(
    means: np.ndarray,
    covs: np.ndarray,
    spec: MeasurementSpec,
    x,
    y,
    anchor: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One conditional-Bayes update of a single-hypothesis bank's prior
    columns ``means`` (1, m) and ``covs`` (1, m, m) against (x, y), to the
    posterior's.  Exponential-family specs route the observation noise
    through the moment-matched covariance at the prior mean."""
    return _update(means, covs, spec, x, y, anchor, None)


def wolf_update(
    means: np.ndarray,
    covs: np.ndarray,
    spec: MeasurementSpec,
    x,
    y,
    c: float,
    anchor: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outlier-robust update: observation covariance inflated to R / W^2.

    W = (1 + ||y - h(mu, x)||^2_{R^-1} / c^2)^(-1/2), so a residual of c
    standard deviations halves the precision and W -> 0 bounds the influence
    of gross outliers.  Returns the posterior's columns, as lg_update does.
    """
    if c <= 0:
        raise ValueError("soft threshold c must be positive")
    return _update(means, covs, spec, x, y, anchor, c)
