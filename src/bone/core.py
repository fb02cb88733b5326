"""Dense small-matrix numerics and log-space probability utilities.

All hypothesis masses in this package are carried as natural-log values;
probabilities are materialized only at API boundaries.  Positive
semi-definiteness is policed with a single tolerance, ``PSD_TOL``, taken
relative to the matrix trace.  The PSD check and the Gaussian log-density
each have one implementation, on a stack of matrices; ``symmetrize_psd`` and
``gaussian_log_pdf`` run it on a stack of one.  Both factor the stack with
batched numpy Cholesky: a finite factor proves a matrix positive definite,
and ``eigvalsh`` runs only when a factorization fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The one PSD tolerance, relative to max(1, |trace|): a smallest eigenvalue
# within it is repaired by a diagonal shift, one beyond it is an error.
PSD_TOL = 1e-9

# Byte budget of one slice of a covariance stack: symmetrize_psd_batch
# symmetrizes a larger stack in place and certifies it with Cholesky one
# slice at a time, so its scratch stays bounded whatever the stack size.
SLICE_BYTES = 1 << 17


class NumericDomainError(ValueError):
    """A matrix left the PSD domain beyond the repair tolerance."""


class ConfigError(ValueError):
    """A configuration is missing required parameters or carries unknown ones."""


def is_integer(v) -> bool:
    """True for an int that is not a bool; 2.0 and True are not counts."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """True for an int or float that is not a bool and is finite as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def reject_nan_belief(mean: np.ndarray, cov: np.ndarray) -> None:
    """Raise ValueError when a belief's mean or covariance holds NaN."""
    if np.isnan(mean).any() or np.isnan(cov).any():
        raise ValueError("belief contains NaN")


@dataclass(frozen=True)
class GaussBelief:
    """Gaussian belief over model parameters: mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} inconsistent with mean length {mean.size}"
            )
        reject_nan_belief(mean, cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def logsumexp(values) -> float:
    """log sum exp of a non-empty list, stable under large magnitudes.

    Zero-mass (-inf) entries are ignored; the result is never below
    max(values).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("logsumexp of an empty list")
    m = v.max()
    if not np.isfinite(m):
        return float(m)  # all -inf (or +inf dominates)
    return float(m + np.log(np.exp(v - m).sum()))


def symmetrize_psd(cov: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2, repaired onto the PSD cone.

    symmetrize_psd_batch on a stack of one: an eigenvalue in (-tol, 0), with
    tol = PSD_TOL * max(1, |trace|), is clamped to zero by a minimal diagonal
    shift; an eigenvalue below -tol raises NumericDomainError.
    """
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return symmetrize_psd_batch(a[None])[0]


def symmetrize_psd_batch(covs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The symmetric parts of a (k, d, d) stack, repaired onto the PSD cone.

    A stack of at most ``SLICE_BYTES`` is symmetrized into a new array.  A
    larger one is symmetrized in place one slice of at most ``SLICE_BYTES``
    at a time, in a copy of ``covs``, or in ``covs`` itself when
    ``overwrite`` is set (the caller owns it), so the scratch stays bounded.
    ``covs`` is never written otherwise.

    For d > 1 Cholesky factorizations of the same slices certify the stack,
    so no factor of a large stack is built: when every slice factors with a
    finite factor, every matrix is positive definite and the symmetrized
    stack is returned as is.  A stack of 1x1 matrices is certified by
    positive finite entries.  Only when a certificate fails does ``eigvalsh``
    find the smallest eigenvalues of the whole stack: a negative one within
    PSD_TOL * max(1, |trace|) is repaired by a diagonal shift that lifts it
    to zero, in a new stack, and one beyond raises NumericDomainError naming
    the matrix.  A matrix with a non-finite entry raises NumericDomainError.
    """
    k, d = covs.shape[:2]
    step = max(1, SLICE_BYTES // (covs.itemsize * d * d))
    if k <= step:
        s = (covs + covs.transpose(0, 2, 1)) / 2.0
        parts = (s,)
    else:
        s = covs if overwrite else covs.copy()
        parts = [s[i : i + step] for i in range(0, k, step)]
        for part in parts:
            np.multiply(part + part.transpose(0, 2, 1), 0.5, out=part)  # == / 2 exactly
    if d == 1:
        # a 1x1 matrix with a positive finite entry is positive definite
        v = s[:, 0, 0]
        if ((v > 0.0) & (v < np.inf)).all():
            return s
    else:
        try:
            for part in parts:
                # numpy returns a NaN factor, not an error, for a NaN matrix
                traces = np.einsum("kii->k", np.linalg.cholesky(part))
                if not np.isfinite(traces).all():
                    break
            else:
                return s
        except np.linalg.LinAlgError:
            pass
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise NumericDomainError(f"matrix {k} of batch is not finite:\n{s[k]}")
    # the smallest eigenvalue of a 1x1 matrix is its entry
    wmin = s[:, 0, 0] if d == 1 else np.linalg.eigvalsh(s).min(axis=1)
    traces = np.einsum("kii->k", s)
    bad = wmin < -np.maximum(1.0, np.abs(traces)) * PSD_TOL
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise NumericDomainError(
            f"matrix {k} of batch is not PSD within tolerance "
            f"(min eigenvalue {wmin[k]:.3e}):\n{s[k]}"
        )
    shift = np.where(wmin < 0.0, -wmin, 0.0)
    return s + shift[:, None, None] * np.eye(d)


def gaussian_log_pdf(y, mean, cov) -> float:
    """log N(y | mean, cov): gaussian_log_pdf_batch on a stack of one."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    d = y.size
    if mean.size != d or c.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: y{y.shape} mean{mean.shape} cov{c.shape}"
        )
    return float(gaussian_log_pdf_batch(y, mean[None], c[None])[0])


def _repaired_cholesky(s: np.ndarray, k: int) -> np.ndarray:
    """Cholesky factor of item k of a batch, on a minimally jittered matrix
    when s itself does not factor."""
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        pass
    wmin = float(np.linalg.eigvalsh(s).min())
    tol = PSD_TOL * max(1.0, abs(float(np.trace(s))))
    if wmin < -tol:
        raise NumericDomainError(
            f"covariance {k} of batch is not PSD within tolerance "
            f"(min eigenvalue {wmin:.3e}):\n{s}"
        )
    return np.linalg.cholesky(s + (max(0.0, -wmin) + tol) * np.eye(s.shape[0]))


def gaussian_log_pdf_batch(y: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """log N(y | means_k, covs_k) over a batch k; y is (d,), means (k, d), covs (k, d, d).

    Every covariance must be PSD within tol = PSD_TOL * max(1, |trace|); one
    beyond raises NumericDomainError naming its item.  A variance (d == 1)
    below tol is evaluated as tol.  For d > 1 one batched Cholesky
    factorization scores the stack; when it fails, each item that does not
    factor alone is evaluated on its matrix shifted by max(0, -min
    eigenvalue) + tol, so a singular-but-PSD covariance gives a
    deterministic result and the other items keep the value they have when
    scored alone.
    """
    e = y[None, :] - means
    d = y.size
    if d == 1:
        v = covs[:, 0, 0]
        ta = np.maximum(1.0, np.abs(v)) * PSD_TOL
        if (v < -ta).any():
            k = int(np.flatnonzero(v < -ta)[0])
            raise NumericDomainError(f"negative variance {v[k]:.3e} in batch item {k}")
        v = np.maximum(v, ta)
        return -0.5 * (np.log(2.0 * np.pi * v) + e[:, 0] ** 2 / v)
    s = (covs + covs.transpose(0, 2, 1)) / 2.0
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        chol = np.stack([_repaired_cholesky(s[k], k) for k in range(s.shape[0])])
    z = np.linalg.solve(chol, e[:, :, None])[:, :, 0]
    quad = (z**2).sum(axis=1)
    logdet = 2.0 * np.log(np.einsum("kii->ki", chol)).sum(axis=1)
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
