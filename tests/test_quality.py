"""Ground-truth quality oracles: each filter on a stream drawn from its own
model, checked against what theory says its output must look like."""

import numpy as np
import pytest

from bone.agents import MethodConfig, bone_step, init_agent
from bone.core import GaussBelief
from bone.measurement import MeasurementSpec
from bone.priors import PriorPolicy, conditional_prior

R = 0.25
SPEC = MeasurementSpec("linear-gaussian", obs_noise=[[R]], feature_map="bias")
BASE = GaussBelief([0.5, -0.3], [[1.0, 0.3], [0.3, 0.8]])
ALPHA, GAMMA = 0.05, 0.7
T = 2_000
# name -> (prior kind, its number, the parameter's transition theta_{t-1} -> theta_t)
MODELS = {
    "C-Static": ("static", {}, lambda theta, rng: theta),
    "C-ACI": ("aci", {"alpha": ALPHA},
              lambda theta, rng: theta + rng.normal(0.0, np.sqrt(ALPHA), 2)),
    "C-OU": ("ou", {"gamma": GAMMA},
             lambda theta, rng: GAMMA * theta + (1.0 - GAMMA) * BASE.mean
             + rng.multivariate_normal(np.zeros(2), (1.0 - GAMMA**2) * BASE.cov)),
}


def mean_nis(name: str, seed: int) -> float:
    """Mean one-step NIS of method ``name`` over a T-step stream drawn from
    its own model: theta_0 from the base prior, then at each step the
    transition, a feature x ~ N(0, 1) and y = theta . [1, x] + N(0, R).

    The NIS of step t is e^2 / S with e = y - h(mu) and S = phi Sigma phi^T + R
    under the prior the step updates (the method's conditional prior)."""
    kind, number, transition = MODELS[name]
    cfg = MethodConfig(name, SPEC, PriorPolicy(kind, BASE, **number))
    rng = np.random.default_rng(seed)
    theta = rng.multivariate_normal(BASE.mean, BASE.cov)
    state, nis = init_agent(cfg), []
    for _ in range(T):
        theta = transition(theta, rng)
        x = rng.normal()
        phi = np.array([1.0, x])
        y = theta @ phi + rng.normal(0.0, np.sqrt(R))
        prior = conditional_prior(cfg.policy, state.bank.belief(0))
        e = y - prior.mean @ phi
        nis.append(e * e / (phi @ prior.cov @ phi + R))
        state, _, _ = bone_step(state, cfg, [x], [y])
    return float(np.mean(nis))


class TestOneStepNis:
    """On a stream drawn from the model itself, the single-hypothesis filter
    is the exact Kalman filter of that model, so its one-step predictive
    y_t | y_1..y_{t-1} ~ N(h(mu_t), S_t) is exact.  The standardized
    innovations (y_t - h(mu_t)) / sqrt(S_t) are then independent N(0, 1)
    (the prediction-error decomposition of the likelihood), and the NIS
    values e_t^2 / S_t are independent chi-square with one degree of
    freedom: mean 1, variance 2.  Their mean over T steps has mean 1 and
    standard deviation sqrt(2 / T), 0.032 at T = 2,000, and is close to
    normal there, so a correct filter lies in 1 +- 3 sqrt(2 / T)
    (1 +- 0.095) but for about 0.3% of seeds.  A filter whose prior
    covariance is too wide reads below the band, one too narrow above it.

    C-Static's model is a static theta, C-ACI's a random walk with variance
    alpha I, and C-OU's the transition theta_t = gamma theta_{t-1}
    + (1 - gamma) mu_0 + N(0, (1 - gamma^2) Sigma_0), under which a
    N(mu, Sigma) belief moves to the OU blend
    (gamma mu + (1 - gamma) mu_0, gamma^2 Sigma + (1 - gamma^2) Sigma_0)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_mean_nis_is_one(self, name, seed):
        assert abs(mean_nis(name, seed) - 1.0) <= 3.0 * np.sqrt(2.0 / T)
