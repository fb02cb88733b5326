"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (pure
python / plain numpy closed forms) so the oracles share no code with the
package paths they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def batch_linreg_posterior(X, y, mu0, Sigma0, R):
    """Closed-form batch Bayesian linear-regression posterior.

    Sigma = (Sigma0^-1 + X^T X / R)^-1, mu = Sigma (Sigma0^-1 mu0 + X^T y / R).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    P0 = np.linalg.inv(Sigma0)
    P = P0 + X.T @ X / R
    Sigma = np.linalg.inv(P)
    mu = Sigma @ (P0 @ mu0 + X.T @ y / R)
    return mu, Sigma


def scalar_conjugate_predictive(m, v, x, y, R):
    """log N(y | x m, x^2 v + R) for a scalar-parameter linear model."""
    s = x * x * v + R
    return -0.5 * (math.log(2.0 * math.pi * s) + (y - x * m) ** 2 / s)


def scalar_conjugate_update(m, v, x, y, R):
    """Posterior (m', v') after observing y = x theta + noise(R)."""
    prec = 1.0 / v + x * x / R
    v2 = 1.0 / prec
    m2 = v2 * (m / v + x * y / R)
    return m2, v2


def runlength_posterior_bruteforce(xs, ys, m0, v0, R, pi):
    """Exact final runlength posterior by enumerating 2^(T-1) changepoint
    configurations of a scalar-parameter linear-Gaussian stream.

    A segment always starts at the first observation; the binary choices
    cover observations 2..T.  The no-reset configuration splits between
    final runlength T (first step grew) and T-1 (first step reset) in the
    hazard ratio, matching the recursion's root convention.
    """
    T = len(ys)
    masses: dict[int, list[float]] = {}

    def add(r, logm):
        masses.setdefault(r, []).append(logm)

    for bits in itertools.product([0, 1], repeat=T - 1):
        log_mass = sum(math.log(pi) if b else math.log(1.0 - pi) for b in bits)
        loglik = 0.0
        m, v = m0, v0
        for t in range(T):
            if t > 0 and bits[t - 1]:
                m, v = m0, v0
            loglik += scalar_conjugate_predictive(m, v, xs[t], ys[t], R)
            m, v = scalar_conjugate_update(m, v, xs[t], ys[t], R)
        resets = [i + 1 for i, b in enumerate(bits) if b]  # 0-based times
        if resets:
            r_final = (T - 1) - resets[-1]
            add(r_final, log_mass + loglik)
        else:
            add(T, log_mass + math.log(1.0 - pi) + loglik)
            add(T - 1, log_mass + math.log(pi) + loglik)

    logs = {r: _logsumexp(v) for r, v in masses.items()}
    total = _logsumexp(list(logs.values()))
    return {r: math.exp(lp - total) for r, lp in logs.items()}


def _logsumexp(values):
    m = max(values)
    if m == -math.inf:
        return m
    return m + math.log(sum(math.exp(v - m) for v in values))


def finite_diff_jacobian(fn, theta, step=1e-5):
    """Central finite-difference Jacobian of fn: R^m -> R^d."""
    theta = np.asarray(theta, dtype=float)
    f0 = np.atleast_1d(fn(theta))
    jac = np.empty((f0.size, theta.size))
    for j in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (np.atleast_1d(fn(hi)) - np.atleast_1d(fn(lo))) / (2.0 * step)
    return jac


# -- one-parameter single-hypothesis steps ------------------------------------
#
# A belief is a (mean, variance) pair of Python floats over theta, for the
# model eta = theta f with one feature f.  The families linearize at the prior
# mean: linear-gaussian observes eta plus noise of variance R, bernoulli-logit
# is moment-matched at p = sigmoid(eta) with noise variance p (1 - p).


def scalar_moment_match(family, m, f, R):
    """Predicted observation and its noise variance at the mean m."""
    eta = m * f
    if family == "bernoulli-logit":
        p = 1.0 / (1.0 + math.exp(-eta))
        return p, p * (1.0 - p)
    return eta, R


def scalar_filter_step(family, m, v, f, y, R):
    """Log predictive density of y under the prior (m, v), and the posterior
    (m', v') of one linearized update, written in information form."""
    yhat, r = scalar_moment_match(family, m, f, R)
    s = f * f * v + r
    log_pred = -0.5 * (math.log(2.0 * math.pi * s) + (y - yhat) ** 2 / s)
    v_post = 1.0 / (1.0 / v + f * f / r)
    return log_pred, m + v_post * f * (y - yhat) / r, v_post


def aci_drift(m, v, alpha):
    """C-ACI's prior with no observation: the variance inflated by alpha."""
    return m, v + alpha


def ou_drift(m, v, m0, v0, gamma):
    """C-OU's prior with no observation: the blend toward (m0, v0) at rate gamma."""
    return gamma * m + (1.0 - gamma) * m0, gamma**2 * v + (1.0 - gamma**2) * v0


def greedy_oupr_rate(grow, reset, pi, eps):
    """RL-OUPR's greedy ratio and its hard reset, from the grow and reset
    predictive log densities at hazard pi: nu = P(no changepoint | y), and
    the blend rate, nu above eps and 0 (the reset) at or below it.  Returns
    (nu, rate)."""
    # log odds of growth against reset
    d = (grow + math.log(1.0 - pi)) - (reset + math.log(pi))
    nu = 1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1.0 + math.exp(d))
    return nu, (nu if nu > eps else 0.0)


def greedy_oupr_step(family, m, v, runlength, f, y, R, m0, v0, pi, eps):
    """One RL-OUPR step from the belief (m, v) with base prior (m0, v0).

    nu = P(no changepoint | y) from the grow and reset predictive densities
    at hazard pi; above eps the prior blends toward the base at rate nu and
    the runlength grows, at or below it the prior is the base and the
    runlength restarts at 0.  Returns (m', v', runlength', nu).
    """
    grow, _, _ = scalar_filter_step(family, m, v, f, y, R)
    reset, _, _ = scalar_filter_step(family, m0, v0, f, y, R)
    nu, _ = greedy_oupr_rate(grow, reset, pi, eps)
    if nu > eps:
        prior = nu * m + (1.0 - nu) * m0, nu**2 * v + (1.0 - nu**2) * v0
        runlength += 1
    else:
        prior, runlength = (m0, v0), 0
    _, m_post, v_post = scalar_filter_step(family, *prior, f, y, R)
    return m_post, v_post, runlength, nu


def exactly_psd(a, shift=0.0) -> bool:
    """Whether a - shift I is positive semidefinite, for a symmetric float
    matrix a, decided by its LDL^T pivots in exact rational arithmetic: every
    pivot is >= 0, and a zero pivot has a zero column below it."""
    n = a.shape[0]
    t = [[Fraction(float(a[i, j])) for j in range(n)] for i in range(n)]
    for i in range(n):
        t[i][i] -= Fraction(float(shift))
    for j in range(n):
        p = t[j][j]
        if p < 0:
            return False
        if p == 0:
            if any(t[i][j] != 0 for i in range(j + 1, n)):
                return False
            continue
        for i in range(j + 1, n):
            f = t[i][j] / p
            for c in range(j, n):
                t[i][c] -= f * t[j][c]
    return True


_U = Fraction(1, 2**53)


def _exact_gamma(n):
    return n * _U / (1 - n * _U)


def _sqrt_below(x: Fraction) -> Fraction:
    """A rational at most sqrt(x), within 2^-200 of it."""
    scale = 2**200
    return Fraction(math.isqrt(int(x * scale * scale)), scale)


def posterior_floor_bound(cov, h, r, g, s, floor) -> Fraction:
    """The floor of ``posterior.posterior_floors``' docstring evaluated in
    exact arithmetic before its float margins: 1 / (1/l + h^^2 / r^) -
    epsilon, or 0 when r^ <= 0 or that is negative.  Norms are rounded
    down, which can only raise the bound."""
    m = h.size
    D = max(Fraction(float(cov[i, i])) for i in range(m))
    hf = [Fraction(float(v)) for v in h]
    gf = [Fraction(float(v)) for v in g]
    r, s, l = Fraction(float(r)), Fraction(float(s)), Fraction(float(floor))
    gg = sum(v * v for v in gf)
    norm_h, norm_g = _sqrt_below(sum(v * v for v in hf)), _sqrt_below(gg)
    dg = _exact_gamma(m) * m * D * norm_h
    r_hat = r - _exact_gamma(m + 1) * (norm_h * norm_g + r) - norm_h * dg - dg * dg / l
    if r_hat <= 0:
        return Fraction(0)
    h_hat = norm_h + dg / l
    eps = m * _U * D + _exact_gamma(5) * gg / s
    return max(Fraction(0), 1 / (1 / l + h_hat * h_hat / r_hat) - eps)


# -- multi-parameter single-hypothesis steps ----------------------------------
#
# A belief is a (mean, covariance) pair of numpy arrays (m,) and (m, m).


def ou_blend(mean, cov, mean0, cov0, rate):
    """The OU blend toward the base (mean0, cov0) at ``rate``:
    (r mu + (1-r) mu0, r^2 Sigma + (1-r^2) Sigma0)."""
    return rate * mean + (1.0 - rate) * mean0, rate**2 * cov + (1.0 - rate**2) * cov0


def aci_inflation(mean, cov, alpha):
    """C-ACI's prior with no observation: the covariance plus alpha I."""
    return mean, cov + alpha * np.eye(len(mean))


def linear_gaussian_update(mean, cov, h, y, r):
    """Posterior after observing y = h . theta + noise of variance r, in
    information form: P = Sigma^-1 + h h^T / r, Sigma' = P^-1,
    mu' = Sigma' (Sigma^-1 mu + h y / r)."""
    h = np.asarray(h, dtype=float)
    prec = np.linalg.inv(cov)
    cov_post = np.linalg.inv(prec + np.outer(h, h) / r)
    return cov_post @ (prec @ mean + h * y / r), cov_post


def imq_weighted_update(mean, cov, h, y, r, c):
    """WoLF's update of the model y = h . theta + noise of variance r: the
    inverse-multiquadric weight W = (1 + e^2 / (r c^2))^(-1/2) of the
    residual e = y - h . mu inflates the noise to r / W^2, and the posterior
    is ``linear_gaussian_update`` at that noise."""
    e = y - float(np.asarray(h, dtype=float) @ mean)
    w = (1.0 + e * e / (r * c * c)) ** -0.5
    return linear_gaussian_update(mean, cov, h, y, r / w**2)


def blend_log_predictive(family, mean, cov, mean0, cov0, rate, h, y, R=None):
    """log N(y | yhat, h^T Sigma_r h + r) of the OU blend (mu_r, Sigma_r) at
    ``rate``, for the model eta = h . theta: linear-Gaussian observes eta
    with noise variance R, bernoulli-logit is moment-matched at the blended
    mean (``scalar_moment_match``)."""
    h = np.asarray(h, dtype=float)
    mean, cov = ou_blend(mean, cov, mean0, cov0, rate)
    yhat, r = scalar_moment_match(family, float(h @ mean), 1.0, R)
    s = float(h @ cov @ h) + r
    return -0.5 * (math.log(2.0 * math.pi * s) + (y - yhat) ** 2 / s)


def blend_update(family, mean, cov, mean0, cov0, rate, h, y, R=None):
    """Posterior of one linearized update from the OU blend at ``rate``, in
    information form: Sigma' = (Sigma_r^-1 + h h^T / r)^-1 and
    mu' = mu_r + Sigma' h (y - yhat) / r, with yhat and r moment-matched at
    the blended mean as in ``blend_log_predictive``."""
    h = np.asarray(h, dtype=float)
    mean, cov = ou_blend(mean, cov, mean0, cov0, rate)
    yhat, r = scalar_moment_match(family, float(h @ mean), 1.0, R)
    cov_post = np.linalg.inv(np.linalg.inv(cov) + np.outer(h, h) / r)
    return mean + cov_post @ h * (y - yhat) / r, cov_post


def cpp_rate_search(log_density, steps=10, lr=0.1, h=1e-4):
    """CPP-OU's changepoint rate: gradient ascent of ``log_density(u)`` over
    u in [0, 1] from u = 1, with the finite difference
    (f(hi) - f(lo)) / (hi - lo) at hi = min(u + h, 1), lo = max(u - h, 0)
    (central inside, one-sided at a bound), each iterate clipped to [0, 1],
    for at most ``steps`` iterations, stopping at the first that leaves u
    unchanged."""
    u = 1.0
    for _ in range(steps):
        hi, lo = min(u + h, 1.0), max(u - h, 0.0)
        g = (log_density(hi) - log_density(lo)) / (hi - lo)
        u_next = min(1.0, max(0.0, u + lr * g))
        if u_next == u:
            break
        u = u_next
    return u


def reset_filter_log_scores(xs, ys, resets, m0, v0, R):
    """One-step log predictive scores of a scalar-parameter linear-Gaussian
    Kalman filter that restarts at the prior (m0, v0) before each
    observation whose index is in ``resets`` (index 0 starts at the prior
    anyway); with no resets it is the static filter."""
    resets = set(resets)
    m, v, scores = m0, v0, []
    for t, (x, y) in enumerate(zip(xs, ys)):
        if t in resets:
            m, v = m0, v0
        scores.append(scalar_conjugate_predictive(m, v, x, y, R))
        m, v = scalar_conjugate_update(m, v, x, y, R)
    return np.array(scores)
