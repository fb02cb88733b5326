"""Dense small-matrix numerics and log-space probability utilities.

All hypothesis masses in this package are carried as natural-log values;
probabilities are materialized only at API boundaries.  Positive
semi-definiteness is policed with a single tolerance, ``PSD_TOL``, taken
relative to the matrix trace.  The PSD check and the Gaussian log-density
each have one implementation, on a stack of matrices; ``symmetrize_psd`` and
``gaussian_log_pdf`` run it on a stack of one.  Both factor the stack with
batched numpy Cholesky: a finite factor proves a matrix positive definite,
and ``eigvalsh`` runs only when a factorization fails.  The PSD check first
tries two cheaper certificates.  A stack whose matrices each come with a
certified floor under the smallest eigenvalue, large enough against the
diagonal, needs no factorization (Demmel's condition); large runlength
banks carry such floors from their root.
A long stack of 2x2 or 3x3 matrices is certified by its LDL^T pivots,
computed for the whole stack at once, where numpy would make one LAPACK call
per matrix.

Every covariance the engine holds is exactly symmetric, so
``certify_psd_batch`` checks it as it stands; ``symmetrize_psd_batch``
symmetrizes a stack from outside, then certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The one PSD tolerance, relative to max(1, |trace|): a smallest eigenvalue
# within it is repaired by a diagonal shift, one beyond it is an error.
PSD_TOL = 1e-9

# Byte budget of one slice of a covariance stack: certify_psd_batch factors a
# larger stack with Cholesky one slice at a time, so no factor of the whole
# stack is built, whatever its size.
SLICE_BYTES = 1 << 17

# certify_psd_batch tries the pivot pass (_pivots_certify) on a stack of at
# least this many 2x2 or 3x3 matrices: about where a 3x3 stack's pass costs
# what the per-matrix LAPACK calls cost (a 2x2 stack crosses below 16).
_PIVOT_STACK = 40

# The pivot pass certifies a matrix only when each LDL^T pivot exceeds this
# share of its diagonal entry (plus the smallest normal float): far above
# rounding, so LAPACK's Cholesky succeeds wherever the pass does.
_PIVOT_MARGIN = 2.0**-20
_TINY = np.finfo(float).tiny

# A runlength bank of beliefs with at least this many parameters carries a
# certified eigenvalue floor per hypothesis (eigen_floor, then
# posterior.posterior_floors), which certify_psd_batch reads in place of
# LAPACK.  The floor arithmetic costs about 25 us a call whatever m is, so
# it pays where the Cholesky factorizations cost more: at 10 hypotheses
# the two tie at m = 32, floors lose at m = 16 and win 3.7x at m = 97.
FLOOR_DIM = 32

# The unit roundoff of float64 arithmetic.
UNIT_ROUNDOFF = 2.0**-53


def gamma_n(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the relative error bound of n
    rounded operations."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


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


@dataclass(frozen=True)
class GaussBelief:
    """Gaussian belief over model parameters: mean vector and covariance
    matrix, stored as (cov + cov^T)/2, which is cov bit for bit when cov is
    symmetric."""

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
        if np.isnan(mean).any() or np.isnan(cov).any():
            raise ValueError("belief contains NaN")
        if mean.size > 1:  # a 1x1 matrix is symmetric already
            cov = (cov + cov.T) / 2.0
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


def symmetrize_psd_batch(covs: np.ndarray) -> np.ndarray:
    """The symmetric parts of a (k, d, d) stack, in a new array, certified by
    certify_psd_batch; ``covs`` is never written.  The symmetric part of a
    symmetric matrix is the matrix itself, bit for bit, unless an entry lies
    beyond half the float range, where A + A^T overflows.
    """
    return certify_psd_batch((covs + covs.transpose(0, 2, 1)) / 2.0)


def certify_psd_batch(s: np.ndarray, floors: np.ndarray | None = None) -> np.ndarray:
    """A (k, d, d) stack of exactly symmetric matrices, repaired onto the PSD
    cone where needed; ``s`` itself when every matrix is positive definite.

    ``floors`` (k,), when given, are certified lower bounds on the smallest
    eigenvalues (0 where none is known), such as the ones
    ``posterior.lg_update_arrays`` derives for a large runlength bank.  A
    matrix whose floor clears ``floor_margin(d)`` times its largest
    diagonal entry is positive definite, and LAPACK's Cholesky would factor
    it (``_floors_certify``); when every floor does, the stack is ``s``.  A
    stack in which any floor falls short is certified as if it had none, so
    it gets the result, the exception and the warnings it gets without
    floors.  Precondition: a positive floor bounds a finite matrix, and a
    matrix with a non-finite entry has floor 0.  Only the diagonal is read
    for a positive floor, so a matrix whose non-finite entries all lie off
    the diagonal would be returned as certified.  The engine's d = 1 update
    never makes one (``_floors_certify``).

    For d > 1 Cholesky factorizations of slices of at most ``SLICE_BYTES``
    certify the stack, so no factor of a large stack is built: when every
    slice factors with a finite factor, every matrix is positive definite.
    A stack of at least ``_PIVOT_STACK`` matrices of size 2 or 3 first
    tries ``_pivots_certify``, which says yes only where every slice would
    factor, and falls through to the slices otherwise; so the result, the
    exceptions and the warnings never depend on which certificate ran.
    A stack of 1x1 matrices is certified by positive finite entries.  Only
    when a certificate fails does ``eigvalsh`` find the smallest eigenvalues
    of the stack: a negative one within PSD_TOL * max(1, |trace|) is
    repaired by a diagonal shift that lifts it to zero, in a new stack, and
    one beyond raises NumericDomainError naming the matrix.  A matrix with a
    non-finite entry raises NumericDomainError.  ``s`` is never written, and
    its symmetry is not checked (Cholesky and ``eigvalsh`` read one triangle).
    """
    if floors is not None and _floors_certify(s, floors).all():
        return s
    shift = _psd_shift(s)
    if shift is None:
        return s
    return s + shift[:, None, None] * np.eye(s.shape[1])


def _psd_shift(s: np.ndarray) -> np.ndarray | None:
    """None when every matrix of the stack is certified positive definite;
    otherwise the diagonal shift of each matrix (k,) that repairs it.  An
    error names the matrix by its index in ``s``."""
    k, d = s.shape[:2]
    if d == 1:
        # a 1x1 matrix with a positive finite entry is positive definite
        v = s[:, 0, 0]
        if ((v > 0.0) & (v < np.inf)).all():
            return None
    else:
        if d <= 3 and k >= _PIVOT_STACK and _pivots_certify(s):
            return None
        step = max(1, SLICE_BYTES // (s.itemsize * d * d))
        try:
            for i in range(0, k, step):
                # numpy returns a NaN factor, not an error, for a NaN matrix
                traces = np.einsum("kii->k", np.linalg.cholesky(s[i : i + step]))
                if not np.isfinite(traces).all():
                    break
            else:
                return None
        except np.linalg.LinAlgError:
            pass
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise NumericDomainError(f"matrix {i} of batch is not finite:\n{s[i]}")
    # the smallest eigenvalue of a 1x1 matrix is its entry
    wmin = s[:, 0, 0] if d == 1 else np.linalg.eigvalsh(s).min(axis=1)
    traces = np.einsum("kii->k", s)
    bad = wmin < -np.maximum(1.0, np.abs(traces)) * PSD_TOL
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NumericDomainError(
            f"matrix {i} of batch is not PSD within tolerance "
            f"(min eigenvalue {wmin[i]:.3e}):\n{s[i]}"
        )
    return np.where(wmin < 0.0, -wmin, 0.0)


def floor_margin(d: int) -> float:
    """tau_d: a floor above tau_d times the largest diagonal entry of a d x d
    matrix lets LAPACK's Cholesky factor it.  Demmel's condition (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.7):
    Cholesky runs to completion on A = D H D, D = diag(A)^(1/2), when
    lambda_min(H) > d gamma_(d+1) / (1 - gamma_(d+1)); and lambda_min(H) >=
    lambda_min(A) / max_i a_ii.  The factor 16 is a safety margin over the
    bound; tau_97 is about 1.7e-11."""
    g = gamma_n(d + 1)
    return 16.0 * d * g / (1.0 - g)


def _floors_certify(s: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, d, d) stack: True where the floor exceeds
    floor_margin(d) times the largest diagonal entry plus the smallest
    normal float (which keeps Cholesky's pivots clear of underflow) and is
    at most the smallest diagonal entry.

    A floor must be a lower bound on the smallest eigenvalue of a finite
    matrix, so it is at most every diagonal entry; a yes then proves the
    matrix positive definite and that LAPACK's Cholesky factors it
    (floor_margin).  A NaN or infinite diagonal entry always says no.  The
    off-diagonal entries are not read.  In the engine's d = 1 update
    Sigma - fl(fl(K K^T) s) of a finite prior, rounding is monotone, so
    an off-diagonal product K_i K_j s that overflows comes with a diagonal
    K_i K_i s or K_j K_j s that overflows and sends a diagonal entry to
    -inf; a NaN in K is on the diagonal too, and 0 * inf comes with an
    infinite K_j.
    """
    diag = s.diagonal(0, 1, 2)
    return (floors > floor_margin(s.shape[1]) * diag.max(axis=1) + _TINY) & (
        floors <= diag.min(axis=1)
    )


def eigen_floor(cov: np.ndarray) -> float:
    """A certified lower bound on the smallest eigenvalue of a symmetric
    matrix: the smallest eigenvalue ``eigvalsh`` computes, less its
    backward-error allowance m^2 u ||cov||_F (LAPACK's bound is p(m) u
    ||cov||_2 with p modest), or 0.0 when that is not positive."""
    m = cov.shape[0]
    with np.errstate(over="ignore"):  # an infinite norm gives floor 0.0
        norm = np.linalg.norm(cov)
    floor = np.linalg.eigvalsh(cov)[0] - m * m * UNIT_ROUNDOFF * norm
    return float(floor) if floor > 0.0 else 0.0


def _pivots_certify(s: np.ndarray) -> bool:
    """True when the LDL^T pivots of every matrix of a (k, d, d) stack clear
    the margin, so that numpy's Cholesky would factor each of them.

    For d in {2, 3}: symmetric elimination on the lower triangle (the
    triangle LAPACK reads), written out as closed forms over the whole
    stack at once: l_i0 = a_i0 / a_00, the second pivot d_1 = a_11 - l_10
    a_10, b_21 = a_21 - l_20 a_10, and the third a_22 - l_20 a_20 - (b_21 /
    d_1) b_21.  Pivot
    p_j must exceed tau * a_jj + tiny, with tau = ``_PIVOT_MARGIN`` and tiny
    the smallest normal float.  A NaN or infinite entry of the lower
    triangle reaches some pivot as NaN or -inf, and a diagonal entry <= 0
    bounds its pivot from above, so both fail.

    Why a yes holds for LAPACK too: while every earlier pivot is positive,
    each elimination term a_ij a_mj / p_j is at most sqrt(a_ii a_mm) in
    magnitude, so rounding moves pivot j by O(n u) a_jj (u the unit
    roundoff), and an earlier pivot's error is amplified by at most
    a_jj / p_j < 1 / tau.  This pass and LAPACK's Cholesky (whose squared
    diagonal follows the same recurrence) therefore differ in pivot j by
    O(n u / tau) a_jj, about 1e-9 a_jj, far below the margin tau a_jj, about
    1e-6 a_jj; so LAPACK's pivots are positive and its factor finite.  The
    tiny term keeps every pivot in the normal range, where rounding is
    relative.  A stack that fails the pass may still factor; the caller
    then runs LAPACK.
    """
    a00, a10, a11 = s[:, 0, 0], s[:, 1, 0], s[:, 1, 1]
    with np.errstate(all="ignore"):
        floor = _PIVOT_MARGIN * s.diagonal(0, 1, 2) + _TINY
        l10 = a10 / a00
        d1 = a11 - l10 * a10
        ok = (a00 > floor[:, 0]) & (d1 > floor[:, 1])
        if s.shape[1] == 3:
            a20, a21, a22 = s[:, 2, 0], s[:, 2, 1], s[:, 2, 2]
            l20 = a20 / a00
            b21 = a21 - l20 * a10
            ok &= a22 - l20 * a20 - b21 / d1 * b21 > floor[:, 2]
    return bool(ok.all())


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
    below tol is evaluated as tol; a stack of variances that are all at
    least PSD_TOL, which the clamp leaves as they are, skips it.  For d > 1
    one batched Cholesky factorization scores the stack; when it fails, each
    item that does not factor alone is evaluated on its matrix shifted by
    max(0, -min eigenvalue) + tol, so a singular-but-PSD covariance gives a
    deterministic result and the other items keep the value they have when
    scored alone.
    """
    e = y[None, :] - means
    d = y.size
    if d == 1:
        v = covs[:, 0, 0]
        # the clamp leaves every v >= PSD_TOL (+inf included) as it is; NaN takes it
        if not (v >= PSD_TOL).all():
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
