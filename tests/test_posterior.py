import numpy as np
import pytest

from bone.core import GaussBelief, NumericDomainError
from bone.measurement import MeasurementSpec
from bone.posterior import (
    _imq_weights,
    innovation_arrays,
    lg_update,
    lg_update_arrays,
    robust_noise,
    wolf_update,
)
from bone.priors import PriorPolicy
from bone.weighting import HazardSpec, HypothesisBank, rl_step
from oracles import batch_linreg_posterior

LINEAR = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])


class TestLgUpdate:
    def test_equal_precision_average(self):
        post = lg_update(GaussBelief([0.0], [[1.0]]), LINEAR, [1.0], [1.0])
        assert post.mean == pytest.approx([0.5])
        np.testing.assert_allclose(post.cov, [[0.5]])
        one = np.ones((1, 1, 1))
        means, covs, S = lg_update_arrays(np.zeros((1, 1)), one, one, np.zeros((1, 1)), np.ones(1), one)
        np.testing.assert_array_equal(means, [post.mean])
        np.testing.assert_array_equal(covs, [post.cov])
        np.testing.assert_allclose(S, [[[2.0]]])

    def test_zero_jacobian_keeps_prior(self):
        post = lg_update(GaussBelief([0.7], [[2.0]]), LINEAR, [0.0], [5.0])
        assert post.mean == pytest.approx([0.7])
        np.testing.assert_allclose(post.cov, [[2.0]])

    def test_sequential_equals_batch_oracle(self):
        rng = np.random.default_rng(1)
        mu0 = np.zeros(2)
        Sigma0 = np.eye(2)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        belief = GaussBelief(mu0, Sigma0)
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
        for t in range(20):
            belief = lg_update(belief, spec, X[t], [y[t]])
        mu_b, Sigma_b = batch_linreg_posterior(X, y, mu0, Sigma0, 1.0)
        np.testing.assert_allclose(belief.mean, mu_b, atol=1e-8)
        np.testing.assert_allclose(belief.cov, Sigma_b, atol=1e-8)

    def test_order_invariance_against_batch(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        mu0, Sigma0 = np.zeros(3), 2.0 * np.eye(3)
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[0.5]])
        mu_b, Sigma_b = batch_linreg_posterior(X, y, mu0, Sigma0, 0.5)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(15)
            belief = GaussBelief(mu0, Sigma0)
            for t in perm:
                belief = lg_update(belief, spec, X[t], [y[t]])
            np.testing.assert_allclose(belief.mean, mu_b, atol=1e-8)
            np.testing.assert_allclose(belief.cov, Sigma_b, atol=1e-8)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            m = rng.integers(1, 4)
            a = rng.normal(size=(m, m))
            prior = GaussBelief(rng.normal(size=m), a @ a.T + 0.1 * np.eye(m))
            spec = MeasurementSpec("linear-gaussian", obs_noise=[[rng.uniform(0.1, 2.0)]])
            x = rng.normal(size=m)
            post = lg_update(prior, spec, x, [rng.normal()])
            assert np.trace(post.cov) <= np.trace(prior.cov) + 1e-10

    def test_expfam_route(self):
        spec = MeasurementSpec("bernoulli-logit")
        prior = GaussBelief([0.0, 0.0], np.eye(2))
        post = lg_update(prior, spec, [1.0, -1.0], 1.0)
        # observing class 1 at logit 0 pulls the mean toward positive logits
        assert post.mean @ np.array([1.0, -1.0]) > 0.0
        # innovation 1 - sigmoid(0) = 0.5, S = J Sigma J^T + 1/4 = 2.25
        assert post.mean == pytest.approx([0.5 / 2.25, -0.5 / 2.25])


class TestLgUpdateArrays:
    @staticmethod
    def stack(k, m, d, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, m, m))
        covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(m)
        b = rng.normal(size=(k, d, d))
        Rs = b @ b.transpose(0, 2, 1) + np.eye(d)
        return (
            rng.normal(size=(k, m)),
            covs,
            rng.normal(size=(k, d, m)),
            rng.normal(size=(k, d)),
            rng.normal(size=d),
            Rs,
        )

    @pytest.mark.parametrize("k,m,d", [(1, 1, 1), (5, 3, 1), (3, 97, 1), (4, 3, 2)])
    @pytest.mark.parametrize("given", [False, True])
    def test_leaves_its_inputs_unchanged(self, k, m, d, given):
        args = self.stack(k, m, d)
        before = [a.copy() for a in args]
        innovations = innovation_arrays(args[1], args[2], args[5]) if given else None
        kept = None if innovations is None else [a.copy() for a in innovations]
        new_means, new_covs, *_ = lg_update_arrays(*args, innovations=innovations)
        for a, b in zip(args, before):
            np.testing.assert_array_equal(a, b)
        if kept is not None:
            for a, b in zip(innovations, kept):
                np.testing.assert_array_equal(a, b)
        assert not np.shares_memory(new_covs, args[1])
        assert not np.shares_memory(new_means, args[0])

    @pytest.mark.parametrize("k,m,d", [(5, 3, 1), (4, 3, 2)])
    def test_given_innovations_give_the_same_bits(self, k, m, d):
        args = self.stack(k, m, d, seed=1)
        own = lg_update_arrays(*args)
        given = lg_update_arrays(*args, innovations=innovation_arrays(args[1], args[2], args[5]))
        for a, b in zip(own, given):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 2])
    def test_update_matches_the_textbook_form(self, d):
        means, covs, jacs, yhats, y, Rs = self.stack(6, 4, d, seed=2)
        new_means, new_covs, S = lg_update_arrays(means, covs, jacs, yhats, y, Rs)
        e = y[None, :] - yhats
        PHt = np.einsum("kmn,kdn->kmd", covs, jacs)
        if d == 1:
            s = S[:, 0, 0]
            K = PHt[:, :, 0] / s[:, None]
            want = covs - np.einsum("km,kn->kmn", K, K) * s[:, None, None]
            want_means = means + K * e
        else:
            K = np.linalg.solve(S, PHt.transpose(0, 2, 1)).transpose(0, 2, 1)
            want = covs - np.einsum("kme,kne->kmn", np.einsum("kmd,kde->kme", K, S), K)
            want_means = means + np.einsum("kmd,kd->km", K, e)
        np.testing.assert_array_equal(new_covs, (want + want.transpose(0, 2, 1)) / 2.0)
        np.testing.assert_array_equal(new_means, want_means)


def imq(e, c):
    """IMQ weight of residual e under unit observation noise."""
    return float(_imq_weights(np.array([[e]]), np.ones((1, 1, 1)), c)[0])


class TestWolfUpdate:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", ["wolf_update", "rl_step"])
    def test_zero_robust_weight_names_its_cause(self, entry):
        # the Mahalanobis term of a 1e200 residual overflows, so W = 0 and
        # R / W^2 has no finite value
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]], feature_map="bias")
        base = GaussBelief([0.0, 0.0], np.eye(2))
        x, y = [3.0], [1e200]
        with pytest.raises(NumericDomainError, match=r"robust weight 0\.000e\+00 of hypothesis 0"):
            if entry == "wolf_update":
                wolf_update(base, spec, x, y, c=2.0)
            else:
                policy = PriorPolicy("rl-prior-reset", base)
                bank = HypothesisBank.root(base)
                rl_step(bank, HazardSpec(0.1), spec, policy, x, y, wolf_c=2.0, capacity=4)

    def test_zero_residual_matches_lg(self):
        prior = GaussBelief([1.0], [[2.0]])
        post_w = wolf_update(prior, LINEAR, [1.0], [1.0], c=4.0)
        post_l = lg_update(prior, LINEAR, [1.0], [1.0])
        assert imq(0.0, 4.0) == 1.0
        np.testing.assert_allclose(post_w.mean, post_l.mean)
        np.testing.assert_allclose(post_w.cov, post_l.cov)

    def test_residual_at_threshold(self):
        # e = c with R = 1 gives weight 2^(-1/2) and effective noise 2
        c = 3.0
        prior = GaussBelief([0.0], [[1.0]])
        assert imq(c, c) == pytest.approx(2.0**-0.5)
        y, yhats, one = np.array([c]), np.zeros((1, 1)), np.ones((1, 1, 1))
        Rs = robust_noise(LINEAR, y, yhats, one, c)
        np.testing.assert_allclose(Rs, [[[2.0]]])
        # S = H Sigma H^T + R/W^2 = 1 + 2
        means, covs, S = lg_update_arrays(np.zeros((1, 1)), one, one, yhats, y, Rs)
        np.testing.assert_allclose(S, [[[3.0]]])
        post = wolf_update(prior, LINEAR, [1.0], [c], c=c)
        np.testing.assert_array_equal(means, [post.mean])
        np.testing.assert_array_equal(covs, [post.cov])
        assert post.mean == pytest.approx([c / 3.0])

    def test_outlier_influence_bounded(self):
        # settled-in prior: variance 0.25 after a stretch of clean data
        prior = GaussBelief([0.0], [[0.25]])
        post_w = wolf_update(prior, LINEAR, [1.0], [40.0], c=4.0)
        post_l = lg_update(prior, LINEAR, [1.0], [40.0])
        w = imq(40.0, 4.0)
        assert w == pytest.approx((1.0 + 1600.0 / 16.0) ** -0.5, rel=1e-9)
        # the update runs at noise R / W^2 = 101
        assert post_w.mean == pytest.approx([0.25 * 40.0 / (0.25 + 1.0 / w**2)], rel=1e-12)
        move_w = abs(post_w.mean[0] - prior.mean[0])
        move_l = abs(post_l.mean[0] - prior.mean[0])
        assert move_w < 0.015 * move_l

    def test_weight_monotone_and_vanishing(self):
        prior = GaussBelief([0.0], [[1.0]])
        residuals = [0.0, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
        weights = [imq(e, 2.0) for e in residuals]
        assert all(w1 >= w2 for w1, w2 in zip(weights, weights[1:]))
        assert weights[-1] < 1e-3
        for e, w in zip(residuals, weights):
            post = wolf_update(prior, LINEAR, [1.0], [e], c=2.0)
            assert post.mean == pytest.approx([e / (1.0 + 1.0 / w**2)], rel=1e-12)

    def test_requires_gaussian_family(self):
        with pytest.raises(ValueError):
            wolf_update(
                GaussBelief([0.0], [[1.0]]),
                MeasurementSpec("bernoulli-logit"),
                [1.0],
                1.0,
                c=2.0,
            )

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            wolf_update(GaussBelief([0.0], [[1.0]]), LINEAR, [1.0], [1.0], c=0.0)
