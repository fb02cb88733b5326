"""Measurement models: link functions h, parameter Jacobians, noise models.

Families
--------
linear-gaussian      y = theta . phi(x) + Gaussian noise R
segment-poly-gaussian y = theta . [1, dx, dx^2] + noise, dx = x - anchor_x
mlp-gaussian         y = MLP(theta; x) + noise, dense ReLU layers
bernoulli-logit      natural parameter eta = theta . phi(x), y in {0, 1}
categorical-softmax  C classes, C-1 free logits (last class pinned to 0)

For the Gaussian families ``apply_h`` returns the predictive mean; for the
exponential families it returns the natural-parameter vector (logits) whose
moments come from ``expfam_moments``.  MLP parameters are flattened in layer
order: weights row-major, then biases, per layer.

Each family is written once over a leading batch axis: ``apply_h``,
``expfam_moments``, ``moments_for_update`` and ``link_mean`` take one
parameter vector (m,) or a stack of hypothesis means (k, m), and
``linearize_bank`` is ``moments_for_update`` applied to a stack.  The
segment anchor (x at the segment's reset) follows the same rule: a float
for one vector, a (k,) array for a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PSD_TOL, ConfigError, GaussBelief, gaussian_log_pdf, symmetrize_psd

GAUSSIAN_FAMILIES = ("linear-gaussian", "mlp-gaussian", "segment-poly-gaussian")
EXPFAM_FAMILIES = ("bernoulli-logit", "categorical-softmax")
FAMILIES = GAUSSIAN_FAMILIES + EXPFAM_FAMILIES
# families whose link gives one output whatever the parameters
_SCALAR_FAMILIES = ("linear-gaussian", "segment-poly-gaussian", "bernoulli-logit")
# the families scalar_log_density scores on Python floats
_FLOAT_FAMILIES = ("bernoulli-logit",)
# np.exp overflows above about 709.78
_EXP_SAFE = 700.0
_TWO_PI = 2.0 * np.pi


def _phi_identity(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def _phi_bias(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate(([1.0], x))


def _phi_poly2(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != 1:
        raise ValueError("poly2 basis expects a scalar feature")
    with np.errstate(over="ignore"):  # an infinite feature fails the step downstream
        return np.array([1.0, x[0], x[0] ** 2])


FEATURE_MAPS = {
    "identity": _phi_identity,
    "bias": _phi_bias,
    "poly2": _phi_poly2,
}


@dataclass(frozen=True)
class MeasurementSpec:
    """One measurement-model family instance.

    obs_noise is the (d, d) observation covariance and must be given iff the
    family has a Gaussian likelihood; it must be PSD within ``PSD_TOL`` and
    is stored as its symmetric part, as ``GaussBelief`` stores a covariance.
    hidden/in_dim describe the MLP architecture (ReLU hidden activations,
    identity output).
    """

    family: str
    out_dim: int = 1
    obs_noise: np.ndarray | None = None
    feature_map: str | None = None
    hidden: tuple[int, ...] = ()
    in_dim: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown measurement family {self.family!r}")
        if self.family in _SCALAR_FAMILIES and self.out_dim != 1:
            raise ConfigError(f"{self.family} has out_dim 1")
        if self.family in GAUSSIAN_FAMILIES:
            if self.obs_noise is None:
                raise ConfigError(f"{self.family} requires obs_noise")
            R = np.atleast_2d(np.asarray(self.obs_noise, dtype=float))
            if R.shape != (self.out_dim, self.out_dim):
                raise ConfigError(
                    f"obs_noise shape {R.shape} does not match out_dim {self.out_dim}"
                )
            symmetrize_psd(R)  # validates PSD
            if self.out_dim > 1:  # stored as (R + R^T)/2, R bit for bit when symmetric
                R = (R + R.T) / 2.0
            object.__setattr__(self, "obs_noise", R)
        else:
            if self.obs_noise is not None:
                raise ConfigError(f"{self.family} does not take obs_noise")
        if self.family == "categorical-softmax" and self.out_dim < 2:
            raise ConfigError("categorical-softmax needs out_dim = C >= 2 classes")
        if self.feature_map is not None and self.feature_map not in FEATURE_MAPS:
            raise ConfigError(f"unknown feature_map {self.feature_map!r}")
        if self.family == "mlp-gaussian":
            if self.in_dim is None or not self.hidden:
                raise ConfigError("mlp-gaussian requires in_dim and hidden widths")
            object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        elif self.hidden:
            raise ConfigError("hidden widths only apply to mlp-gaussian")
        if self.family == "segment-poly-gaussian" and self.feature_map is not None:
            raise ConfigError("segment-poly-gaussian builds its own basis")

    @property
    def is_gaussian(self) -> bool:
        return self.family in GAUSSIAN_FAMILIES

    def phi(self, x) -> np.ndarray:
        fn = FEATURE_MAPS[self.feature_map or "identity"]
        return fn(x)

    def layer_shapes(self) -> list[tuple[int, int]]:
        if self.family != "mlp-gaussian":
            raise ValueError("layer_shapes only defined for mlp-gaussian")
        dims = [self.in_dim, *self.hidden, self.out_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    def param_count(self, x=None) -> int:
        """Number of parameters, given a feature vector where it depends on x."""
        if self.family == "mlp-gaussian":
            return sum(o * i + o for o, i in self.layer_shapes())
        if self.family == "segment-poly-gaussian":
            return 3
        q = self.phi(x).size
        if self.family == "categorical-softmax":
            return (self.out_dim - 1) * q
        return q


def _per_row(a: np.ndarray, batch: tuple) -> np.ndarray:
    """a repeated over the leading batch shape (a new array), or a itself."""
    if not batch:
        return a
    out = np.empty(batch + a.shape)
    out[...] = a
    return out


def _mlp_forward(spec: MeasurementSpec, theta: np.ndarray, x):
    """Forward pass of the MLP at theta (..., m): the output (..., d) and the
    layer weights, activations and pre-activations that _mlp_jacobian reads.
    """
    batch = theta.shape[:-1]
    Ws, bs, pos = [], [], 0
    for o, i in spec.layer_shapes():
        Ws.append(theta[..., pos : pos + o * i].reshape(batch + (o, i)))
        pos += o * i
        bs.append(theta[..., pos : pos + o])
        pos += o
    if pos != theta.shape[-1]:
        raise ValueError(f"theta has {theta.shape[-1]} entries, expected {pos}")
    acts = [np.atleast_1d(np.asarray(x, dtype=float))]
    pre = []
    for li, (W, b) in enumerate(zip(Ws, bs)):
        z = (W @ acts[-1][..., None])[..., 0] + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if li < len(Ws) - 1 else z)
    return acts[-1], (Ws, acts, pre)


def _mlp_jacobian(spec: MeasurementSpec, theta: np.ndarray, layers) -> np.ndarray:
    """Reverse-accumulated Jacobian d out / d theta, (..., d, m), from the
    layers _mlp_forward returned for the same theta.  ReLU subgradient at
    exactly 0 is taken as 0.
    """
    Ws, acts, pre = layers
    shapes = spec.layer_shapes()
    batch, pos = theta.shape[:-1], theta.shape[-1]
    d = acts[-1].shape[-1]
    jac = np.empty(batch + (d, pos))
    # delta = d out / d z_l, propagated backwards
    delta = np.eye(d)
    for li in range(len(Ws) - 1, -1, -1):
        o, i = shapes[li]
        pos -= o
        jac[..., pos : pos + o] = delta
        pos -= o * i
        outer = delta[..., :, :, None] * acts[li][..., None, None, :]
        jac[..., pos : pos + o * i] = outer.reshape(batch + (d, o * i))
        if li > 0:
            delta = (delta @ Ws[li]) * (pre[li - 1] > 0.0)[..., None, :]
    return jac


def apply_h(
    spec: MeasurementSpec,
    theta,
    x,
    anchor: float | np.ndarray | None = None,
):
    """Evaluate the measurement link and its parameter Jacobian at theta.

    theta is one parameter vector (m,) or a stack of them (k, m).  Returns
    (out, jac) with out = h(theta; x), shape (d,) or (k, d) (natural
    parameters for the exponential families), and jac = d h / d theta,
    shape (d, m) or (k, d, m).  A segment anchor is the x recorded at the
    segment's reset: a float for one theta, a (k,) array for a stack.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0:
        theta = theta[None]
    batch, m = theta.shape[:-1], theta.shape[-1]
    if spec.family == "segment-poly-gaussian":
        if anchor is None:
            raise ValueError("segment-poly-gaussian requires an anchor x or (k,) anchors")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if xs.size != 1 or m != 3:
            raise ValueError("segment-poly expects scalar x and 3 parameters")
        dx = xs[0] - np.asarray(anchor, dtype=float)
        if dx.shape != batch:
            raise ValueError(f"anchors of shape {dx.shape} for parameters of shape {theta.shape}")
        basis = np.stack([np.ones_like(dx), dx, dx * dx], axis=-1)
        return np.einsum("...m,...m->...", theta, basis)[..., None], basis[..., None, :]
    if anchor is not None:
        raise ValueError(f"{spec.family} does not take an anchor")
    if spec.family == "mlp-gaussian":
        out, layers = _mlp_forward(spec, theta, x)
        return out, _mlp_jacobian(spec, theta, layers)
    phi = spec.phi(x)
    if spec.family == "categorical-softmax":
        free = spec.out_dim - 1
        if m != free * phi.size:
            raise ValueError(f"theta length {m}, expected {(free, phi.size)} flattened")
        W = theta.reshape(batch + (free, phi.size))
        return W @ phi, _per_row(np.kron(np.eye(free), phi), batch)
    if m != phi.size:
        raise ValueError(f"theta length {m} does not match basis length {phi.size}")
    return (theta @ phi)[..., None], _per_row(phi[None, :], batch)


def expfam_moments(spec: MeasurementSpec, eta):
    """First two log-partition derivatives at natural parameters eta.

    eta is (d,) or a stack (k, d).  Bernoulli: mean sigma(eta), variance
    sigma(1 - sigma).  Categorical with C classes and C-1 free logits: mean
    is the full softmax probability vector, covariance is diag(p) - p p^T
    restricted to the free coordinates.
    """
    if spec.family not in EXPFAM_FAMILIES:
        raise ConfigError(f"expfam_moments unsupported for family {spec.family!r}")
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        eta = eta[None]
    if spec.family == "bernoulli-logit":
        if eta.shape[-1] != 1:
            raise ValueError("bernoulli-logit has a single natural parameter")
        with np.errstate(over="ignore"):  # exp(-eta) = inf for eta < -709: p = 0 exactly
            p = 1.0 / (1.0 + np.exp(-eta))
        return p, (p * (1.0 - p))[..., None]
    free = spec.out_dim - 1
    if eta.shape[-1] != free:
        raise ValueError(f"expected {free} free logits, got {eta.shape[-1]}")
    z = np.concatenate([eta, np.zeros(eta.shape[:-1] + (1,))], axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    pf = p[..., :free]
    return p, np.eye(free) * pf[..., None, :] - pf[..., :, None] * pf[..., None, :]


def _free_obs(spec: MeasurementSpec, y) -> np.ndarray:
    """Observation in the coordinates the update operates on."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if spec.family == "categorical-softmax":
        if y.size == spec.out_dim:
            return y[: spec.out_dim - 1]
        if y.size == 1:  # class index
            onehot = np.zeros(spec.out_dim)
            onehot[int(y[0])] = 1.0
            return onehot[: spec.out_dim - 1]
        raise ValueError(f"categorical observation of size {y.size}")
    return y


def moments_for_update(
    spec: MeasurementSpec,
    mean: np.ndarray,
    x,
    anchor: float | np.ndarray | None = None,
):
    """Linearization (yhat, jac, R) at the prior mean, for any family.

    mean is (m,) or a stack of hypothesis means (k, m); the outputs then
    gain the same leading axis: yhat (k, d'), jac (k, d', m), R (k, d', d'),
    where d' is the update dimension (C-1 for categorical).  Gaussian
    families use obs_noise; the exponential families are moment-matched at
    eta = h(mean, x) with the Jacobian taken in natural-parameter space.
    """
    out, jac = apply_h(spec, mean, x, anchor)
    if spec.is_gaussian:
        return out, jac, _per_row(spec.obs_noise, out.shape[:-1])
    yhat, R = expfam_moments(spec, out)
    if spec.family == "categorical-softmax":
        yhat = yhat[..., : spec.out_dim - 1]
    return yhat, jac, R


# the batched linearization across a hypothesis bank is the same function
linearize_bank = moments_for_update


def predictive_log_density(
    spec: MeasurementSpec,
    prior: GaussBelief,
    x,
    y,
    anchor: float | None = None,
) -> float:
    """log p(y | x, prior) under linearization at the prior mean.

    Gaussian families: exact N(y | h(mu, x), H Sigma H^T + R).  Exponential
    families: moment-matched Gaussian with mean and noise from
    ``expfam_moments`` at eta = h(mu, x).
    """
    yhat, jac, R = moments_for_update(spec, prior.mean, x, anchor)
    S = jac @ prior.cov @ jac.T + R
    return gaussian_log_pdf(_free_obs(spec, y), yhat, S)


def scalar_point(spec: MeasurementSpec, x, y, m: int):
    """The feature and observation (f, y) as Python floats when
    ``scalar_log_density`` serves the model: a bernoulli-logit model with
    one feature, one observation and ``m`` = 1 parameter.  None for every
    other model."""
    if spec.family not in _FLOAT_FAMILIES:
        return None
    yv = _free_obs(spec, y)
    phi = spec.phi(x)
    if phi.size == yv.size == m == 1:
        return float(phi[0]), float(yv[0])
    return None


def scalar_log_density(mean: float, var: float, f: float, y: float):
    """predictive_log_density of a bernoulli-logit model on Python floats,
    for a one-parameter belief (mean, var) at a ``scalar_point`` (f, y).

    The link, the innovation variance f var f + p (1 - p) and the log
    density are the array path's operations in its order, with np.exp and
    np.log on scalars, so the value equals predictive_log_density's bit for
    bit.  None wherever the array checks would not pass trivially: a logit
    whose np.exp would overflow, an innovation variance outside
    [PSD_TOL, inf), or a density that is not finite.  The caller then hands
    the work back to the arrays, so every clamp, error and RuntimeWarning
    stays theirs.
    """
    eta = mean * f
    if not eta > -_EXP_SAFE:  # np.exp(-eta) would overflow, or eta is NaN
        return None
    yhat = 1.0 / (1.0 + float(np.exp(-eta)))
    v = (f * var) * f + yhat * (1.0 - yhat)
    if not PSD_TOL <= v < math.inf:
        return None
    e = y - yhat
    dens = -0.5 * (float(np.log(_TWO_PI * v)) + e * e / v)
    return dens if math.isfinite(dens) else None


def link_mean(
    spec: MeasurementSpec,
    theta,
    x,
    anchor: float | np.ndarray | None = None,
) -> np.ndarray:
    """Predictive mean on the observation scale (probabilities for classifiers),
    for one theta (m,) or a stack (k, m).  The MLP runs its forward pass
    only; every other family takes apply_h's output."""
    if spec.family == "mlp-gaussian" and anchor is None:
        return _mlp_forward(spec, np.atleast_1d(np.asarray(theta, dtype=float)), x)[0]
    out, _ = apply_h(spec, theta, x, anchor)
    if spec.is_gaussian:
        return out
    return expfam_moments(spec, out)[0]
