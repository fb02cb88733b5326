"""Ground-truth quality oracles: each filter on a stream drawn from its own
model, checked against what theory says its output must look like."""

import math

import numpy as np
import pytest

import oracles
from bone.agents import MethodConfig, bone_step, init_agent
from bone.core import GaussBelief, logsumexp
from bone.measurement import MeasurementSpec
from bone.priors import PriorPolicy, conditional_prior
from bone.weighting import HazardSpec

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
        means, covs = conditional_prior(cfg.policy, state.bank.means, state.bank.covs)
        e = y - means[0] @ phi
        nis.append(e * e / (phi @ covs[0] @ phi + R))
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


# the runlength-bank oracle: y_t = theta_t + N(0, NOISE), theta piecewise
# constant, redrawn from N(0, PRIOR_VAR) at hazard PI with a jump of at
# least JUMP noise standard deviations
NOISE, PRIOR_VAR, PI, JUMP = 1.0, 100.0, 0.02, 5.0
T_BOCD, W = 400, 5


def jump_stream(seed):
    """T_BOCD targets of the piecewise-constant model, and the indices of
    its changepoints (the first observation of each new segment)."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, math.sqrt(PRIOR_VAR))
    ys, changepoints = [], []
    for t in range(T_BOCD):
        if t > 0 and rng.random() < PI:
            new = theta
            while abs(new - theta) < JUMP * math.sqrt(NOISE):
                new = rng.normal(0.0, math.sqrt(PRIOR_VAR))
            theta = new
            changepoints.append(t)
        ys.append(theta + rng.normal(0.0, math.sqrt(NOISE)))
    return np.array(ys), changepoints


class TestRunlengthBankAgainstTruth:
    """RL-PR[inf] at the true hazard on a stream drawn from its own model,
    against the stream's truth (Adams & MacKay 2007, arXiv:0710.3742).

    The model is y_t = theta_t + N(0, 1) with x_t = 1; theta_0 ~ N(0, 100),
    and at each later step with probability pi = 0.02 theta is redrawn
    from N(0, 100), conditioned on a jump of at least 5 noise standard
    deviations.  T = 400 gives 8 changepoints per seed on average and a
    first changepoint before step 360 but for 0.98^360 = 7e-4 of seeds;
    five seeds (0-4) and w = 5.

    Log score.  The bank keeps unnormalized joints and RL-PR[inf] prunes
    none, so the increase of their log-sum-exp at step t is the method's
    one-step predictive log density log p(y_t | y_1..y_{t-1}) =
    log sum_r w_r ((1 - pi) p_r(y_t) + pi p_0(y_t)), with p_0 the base
    prior's predictive N(0, 101).
    - Upper bound: a Kalman filter told the changepoints (reset to the base
      prior at each one; ``oracles.reset_filter_log_scores``).  On a step
      inside a segment the bank's predictive is at best
      (1 - pi) p_r + pi p_0, below p_r by -log(1 - pi) = 0.020 nats less
      log(1 + pi p_0 / p_r) <= 0.002 (p_0 / p_r <= 0.1 at one standard
      deviation); on a changepoint the growth densities are below e^-8
      (a jump of 5, less a 1-sigma noise) and the bank scores about
      pi p_0, -log pi = 3.9 nats below the oracle's p_0.  So the bank's
      mean lies below the oracle's by about 0.018 + 3.9 * 8 / 400 = 0.1
      nats per step; the gate asks for half the in-segment loss alone,
      -log(1 - pi) / 2 = 0.010.
    - Lower bound: the same filter never reset (C-Static).  After the
      first changepoint its mean sits at least 5 from the new level, with
      a predictive variance near 1, so it loses 12.5 nats or more per step
      for the rest of the stream; with the first changepoint before step
      360 that is at least 12.5 * 40 / 400 > 1.2 nats per step on average
      against the bank's in-segment loss of under 0.1.  The gate asks for
      1 nat per step.

    Detection, with MAP_t the bank's MAP runlength after step t (0 on a
    changepoint it has detected at once).
    - A changepoint tau is detected when MAP_t <= w for some t in
      [tau, tau + w].  At tau the reset's posterior odds against the old
      segment are pi p_0(y) / ((1 - pi) p_old(y)) >= 0.0204 * 0.03 /
      (0.4 e^-8) = 4.5 for a jump of 4 standard deviations after noise,
      and each further observation multiplies them by about e^(jump^2/2).
      So nearly every changepoint is detected at tau itself; the gate asks
      for 80% over all seeds.
    - A false alarm is MAP_t <= w at a step more than w from any
      changepoint and from the start.  It needs an in-segment outlier
      whose reset odds exceed 1: pi p_0 > (1 - pi) p_r needs |e| > 3.6
      standard deviations, probability 3e-4 a step, and the old
      hypothesis takes the MAP back within a step or two.  The gate asks
      MAP_t > w on 90% of those steps over all seeds.
    """

    def run(self, seed):
        ys, changepoints = jump_stream(seed)
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[NOISE]])
        base = GaussBelief([0.0], [[PRIOR_VAR]])
        cfg = MethodConfig("RL-PR[inf]", spec, PriorPolicy("rl-prior-reset", base), hazard=HazardSpec(PI))
        state = init_agent(cfg)
        scores, maps = [], []
        for y in ys:
            before = logsumexp(state.bank.log_joints)
            state, _, _ = bone_step(state, cfg, [1.0], [float(y)])
            scores.append(logsumexp(state.bank.log_joints) - before)
            maps.append(state.bank.map_runlength)
        ones = np.ones(T_BOCD)
        oracle = oracles.reset_filter_log_scores(ones, ys, changepoints, 0.0, PRIOR_VAR, NOISE)
        static = oracles.reset_filter_log_scores(ones, ys, (), 0.0, PRIOR_VAR, NOISE)
        return np.array(scores), oracle, static, np.array(maps), changepoints

    def test_log_score_and_detection(self):
        detected, changes, quiet, far = 0, 0, 0, 0
        for seed in range(5):
            scores, oracle, static, maps, changepoints = self.run(seed)
            assert scores.mean() > static.mean() + 1.0, seed
            assert scores.mean() < oracle.mean() + 0.5 * math.log1p(-PI), seed
            for tau in changepoints:
                changes += 1
                detected += bool((maps[tau : tau + W + 1] <= W).any())
            starts = np.array([0, *changepoints])
            for t in range(T_BOCD):
                if np.abs(t - starts).min() > W:
                    far += 1
                    quiet += bool(maps[t] > W)
        assert changes > 0 and detected >= 0.8 * changes
        assert quiet >= 0.9 * far
