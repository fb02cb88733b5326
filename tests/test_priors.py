import numpy as np
import pytest

from bone.core import ConfigError, GaussBelief
from bone.measurement import MeasurementSpec
from bone.posterior import lg_update
from bone.priors import PriorPolicy, conditional_prior, mmpr_prior
from bone.weighting import HazardSpec, HypothesisBank, rl_step

BASE = GaussBelief([0.0, 0.0], 4.0 * np.eye(2))
PREV = GaussBelief([2.0, -1.0], np.diag([1.0, 0.5]))


def make_bank(means, covs, log_joints):
    return HypothesisBank(
        runlengths=np.arange(len(means)),
        log_joints=np.asarray(log_joints, dtype=float),
        means=np.asarray(means, dtype=float),
        covs=np.asarray(covs, dtype=float),
        timestep=len(means),
    )


def prior_of(policy, prev=PREV, rate=None):
    """conditional_prior over the columns of a one-hypothesis bank holding
    ``prev``, as a belief, after checking the columns' shapes."""
    means, covs = conditional_prior(policy, prev.mean[None], prev.cov[None], rate)
    assert means.shape == (1, prev.dim) and covs.shape == (1, prev.dim, prev.dim)
    return GaussBelief(means[0], covs[0])


class TestConditionalPrior:
    def test_static_keeps_belief(self):
        means, covs = PREV.mean[None], PREV.cov[None]
        out = conditional_prior(PriorPolicy("static", BASE), means, covs)
        assert out[0] is means and out[1] is covs

    def test_ou_gamma_one_is_previous(self):
        out = prior_of(PriorPolicy("ou", BASE, gamma=1.0))
        np.testing.assert_allclose(out.mean, PREV.mean)
        np.testing.assert_allclose(out.cov, PREV.cov)

    def test_ou_gamma_zero_reverts(self):
        out = prior_of(PriorPolicy("ou", BASE, gamma=0.0))
        np.testing.assert_allclose(out.mean, BASE.mean)
        np.testing.assert_allclose(out.cov, BASE.cov)

    def test_ou_means_interpolate(self):
        for gamma in np.linspace(0.0, 1.0, 11):
            out = prior_of(PriorPolicy("ou", BASE, gamma=gamma))
            lo = np.minimum(PREV.mean, BASE.mean) - 1e-12
            hi = np.maximum(PREV.mean, BASE.mean) + 1e-12
            assert ((out.mean >= lo) & (out.mean <= hi)).all()

    def test_cpp_ou_uses_aux_rate(self):
        out = prior_of(PriorPolicy("cpp-ou", BASE), PREV, 0.5)
        np.testing.assert_allclose(out.mean, 0.5 * PREV.mean + 0.5 * BASE.mean)
        np.testing.assert_allclose(out.cov, 0.25 * PREV.cov + 0.75 * BASE.cov)

    def test_aci_inflates_diagonal(self):
        alpha = 0.3
        pol = PriorPolicy("aci", BASE, alpha=alpha)
        np.testing.assert_array_equal(pol.inflation, alpha * np.eye(BASE.dim))
        assert PriorPolicy("static", BASE).inflation is None
        means = PREV.mean[None]
        out_means, out_covs = conditional_prior(pol, means, PREV.cov[None])
        np.testing.assert_allclose(np.diag(out_covs[0]), np.diag(PREV.cov) + alpha)
        assert out_means is means

    def test_prior_reset_branches_on_runlength(self):
        # rl_step builds the rl-prior-reset prior for the whole bank: the grown
        # hypothesis keeps its belief, the runlength-0 one starts at the base
        pol = PriorPolicy("rl-prior-reset", BASE)
        with pytest.raises(ConfigError, match="rl_step"):
            prior_of(pol)
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
        bank = HypothesisBank([3], [0.0], PREV.mean[None], PREV.cov[None], timestep=3)
        x, y = [1.0, 2.0], [0.5]
        out = rl_step(bank, HazardSpec(0.1), spec, pol, x, y)
        np.testing.assert_array_equal(out.runlengths, [4, 0])
        for i, prior in enumerate((PREV, BASE)):
            post = lg_update(prior, spec, x, y)
            np.testing.assert_allclose(out.means[i], post.mean, rtol=1e-12)
            np.testing.assert_allclose(out.covs[i], post.cov, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["cpp-ou", "rl-oupr"])
    def test_blend_rates_one_and_zero_are_the_belief_and_the_base(self, kind):
        pol = PriorPolicy(kind, BASE, epsilon=0.5 if kind == "rl-oupr" else None)
        means, covs = PREV.mean[None], PREV.cov[None]
        out = conditional_prior(pol, means, covs, 1.0)
        assert out[0] is means and out[1] is covs
        out = conditional_prior(pol, means, covs, 0.0)
        for got, want in zip(out, (BASE.mean, BASE.cov)):  # the base's arrays, not copies
            assert got.shape == (1,) + want.shape and np.shares_memory(got, want)
            np.testing.assert_array_equal(got[0], want)

    def test_oupr_blend_above_threshold(self):
        pol = PriorPolicy("rl-oupr", BASE, epsilon=0.5)
        nu = 0.8
        out = prior_of(pol, PREV, nu)
        np.testing.assert_allclose(out.mean, nu * PREV.mean + (1 - nu) * BASE.mean)
        np.testing.assert_allclose(
            out.cov, nu * nu * PREV.cov + (1 - nu * nu) * BASE.cov
        )

    def test_missing_parameter_is_config_error(self):
        with pytest.raises(ConfigError):
            PriorPolicy("ou", BASE)
        with pytest.raises(ConfigError):
            PriorPolicy("aci", BASE)
        for pol in (PriorPolicy("cpp-ou", BASE), PriorPolicy("rl-oupr", BASE, epsilon=0.5)):
            for rate in (None, -0.1, 1.5, float("nan")):
                with pytest.raises(ConfigError, match="needs a blend rate in"):
                    prior_of(pol, PREV, rate)

    def test_returned_covariances_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            prev = GaussBelief(rng.normal(size=2), a @ a.T + 0.01 * np.eye(2))
            for pol in (
                PriorPolicy("ou", BASE, gamma=rng.uniform()),
                PriorPolicy("aci", BASE, alpha=rng.uniform()),
            ):
                out = prior_of(pol, prev)
                assert np.linalg.eigvalsh(out.cov).min() >= -1e-9


class TestMmprPrior:
    def test_single_hypothesis_is_identity(self):
        bank = make_bank([PREV.mean], [PREV.cov], [0.0])
        out = mmpr_prior(bank)
        np.testing.assert_allclose(out.mean, PREV.mean)
        np.testing.assert_allclose(out.cov, PREV.cov)

    def test_two_identical_hypotheses(self):
        bank = make_bank([PREV.mean, PREV.mean], [PREV.cov, PREV.cov],
                         [np.log(0.5), np.log(0.5)])
        out = mmpr_prior(bank)
        np.testing.assert_allclose(out.mean, PREV.mean)
        np.testing.assert_allclose(out.cov, PREV.cov)

    def test_symmetric_univariate_mixture(self):
        bank = make_bank([[-1.0], [1.0]], [[[1.0]], [[1.0]]],
                         [np.log(0.5), np.log(0.5)])
        out = mmpr_prior(bank)
        assert out.mean == pytest.approx([0.0])
        np.testing.assert_allclose(out.cov, [[2.0]])

    def test_trace_at_least_min_component(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = rng.integers(1, 6)
            means = rng.normal(size=(k, 2))
            covs = np.empty((k, 2, 2))
            for i in range(k):
                a = rng.normal(size=(2, 2))
                covs[i] = a @ a.T + 0.1 * np.eye(2)
            bank = make_bank(means, covs, rng.normal(size=k))
            out = mmpr_prior(bank)
            assert np.trace(out.cov) >= min(np.trace(c) for c in covs) - 1e-9

    def test_moments_match_monte_carlo(self):
        rng = np.random.default_rng(2)
        means = np.array([[1.0, 0.0], [-2.0, 1.0], [0.5, 0.5]])
        covs = np.stack([np.diag([0.5, 1.0]), np.diag([2.0, 0.2]), np.eye(2)])
        log_joints = np.log([0.5, 0.3, 0.2])
        bank = make_bank(means, covs, log_joints)
        out = mmpr_prior(bank)
        n = 10**6
        comps = rng.choice(3, p=np.exp(log_joints) / np.exp(log_joints).sum(), size=n)
        draws = np.empty((n, 2))
        for i in range(3):
            idx = comps == i
            draws[idx] = rng.multivariate_normal(means[i], covs[i], size=idx.sum())
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(draws.mean(axis=0) - out.mean) < 3 * se_mean).all()
        centered = draws - draws.mean(axis=0)
        prods = centered[:, :, None] * centered[:, None, :]
        se_cov = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(prods.mean(axis=0) - out.cov) < 3 * se_cov).all()

    def test_empty_bank_rejected(self):
        bank = make_bank(np.zeros((0, 1)), np.zeros((0, 1, 1)), [])
        with pytest.raises(ValueError, match="empty hypothesis bank"):
            mmpr_prior(bank)
