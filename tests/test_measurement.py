import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bone.measurement
from bone.core import PSD_TOL, GaussBelief, gaussian_log_pdf
from bone.measurement import (
    MeasurementSpec,
    apply_h,
    expfam_moments,
    linearize_bank,
    link_mean,
    moments_for_update,
    predictive_log_density,
    scalar_log_density,
    scalar_point,
)
from oracles import finite_diff_jacobian

LINEAR = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
LINEAR_BIAS = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]], feature_map="bias")
SEGMENT = MeasurementSpec("segment-poly-gaussian", obs_noise=[[1.0]])
MLP = MeasurementSpec("mlp-gaussian", obs_noise=[[1.0]], hidden=(4, 4), in_dim=2)
BERN = MeasurementSpec("bernoulli-logit")
CAT3 = MeasurementSpec("categorical-softmax", out_dim=3)


class TestApplyH:
    def test_linear_dot_product(self):
        yhat, jac = apply_h(LINEAR_BIAS, [1.0, 2.0], [3.0])
        assert yhat == pytest.approx([7.0])
        np.testing.assert_allclose(jac, [[1.0, 3.0]])

    def test_segment_poly_at_anchor(self):
        yhat, jac = apply_h(SEGMENT, [2.0, -1.0, 3.0], [5.0], 5.0)
        assert yhat == pytest.approx([2.0])
        np.testing.assert_allclose(jac, [[1.0, 0.0, 0.0]])

    def test_segment_poly_requires_anchor(self):
        with pytest.raises(ValueError):
            apply_h(SEGMENT, [1.0, 1.0, 1.0], [0.0])

    def test_mlp_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(0)
        m = MLP.param_count()
        theta = rng.normal(size=m)
        x = rng.normal(size=2)
        _, jac = apply_h(MLP, theta, x)
        fd = finite_diff_jacobian(lambda th: apply_h(MLP, th, x)[0], theta)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(jac - fd) / scale) < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_h(LINEAR, [1.0, 2.0], [1.0])

    @pytest.mark.parametrize(
        "spec,q",
        [(LINEAR, 3), (LINEAR_BIAS, 2), (BERN, 2), (CAT3, 2), (MLP, 2), (SEGMENT, 1)],
    )
    def test_jacobian_against_finite_differences_all_families(self, spec, q):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.normal(size=q)
            anchor = float(rng.normal()) if spec is SEGMENT else None
            m = spec.param_count(x)
            theta = rng.normal(size=m)
            _, jac = apply_h(spec, theta, x, anchor)
            fd = finite_diff_jacobian(lambda th: apply_h(spec, th, x, anchor)[0], theta)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(jac - fd) / scale) < 1e-4


class TestExpfamMoments:
    def test_bernoulli_symmetric_logit(self):
        yhat, R = expfam_moments(BERN, [0.0])
        assert yhat == pytest.approx([0.5])
        np.testing.assert_allclose(R, [[0.25]])

    def test_bernoulli_saturation(self):
        yhat, R = expfam_moments(BERN, [20.0])
        assert abs(yhat[0] - 1.0) < 1e-8
        assert abs(R[0, 0]) < 1e-8

    def test_categorical_uniform(self):
        yhat, R = expfam_moments(CAT3, [0.0, 0.0])
        np.testing.assert_allclose(yhat, [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(R, [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])

    def test_gaussian_family_rejected(self):
        with pytest.raises(Exception):
            expfam_moments(LINEAR, [0.0])

    def test_bernoulli_variance_identity(self):
        rng = np.random.default_rng(7)
        for eta in rng.normal(scale=3.0, size=50):
            yhat, R = expfam_moments(BERN, [eta])
            assert 0.0 < R[0, 0] <= 0.25
            assert R[0, 0] == pytest.approx(yhat[0] * (1.0 - yhat[0]), rel=1e-14)


class TestPredictiveLogDensity:
    def test_linear_unit_case(self):
        prior = GaussBelief([0.0], [[1.0]])
        got = predictive_log_density(LINEAR, prior, [1.0], [0.0])
        assert got == pytest.approx(-0.5 * np.log(4.0 * np.pi))

    def test_degenerate_prior(self):
        prior = GaussBelief([0.0], [[0.0]])
        got = predictive_log_density(LINEAR, prior, [1.0], [1.0])
        assert got == pytest.approx(gaussian_log_pdf([1.0], [0.0], [[1.0]]))

    def test_monte_carlo_oracle_2d(self):
        # independent oracle: sample theta from the prior, average the
        # conditional density of y, compare within 3 standard errors
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[0.5]])
        prior = GaussBelief([0.0, 0.0], np.diag([1.0, 1.0]))
        x = np.array([1.0, 1.0])
        y = 0.3
        rng = np.random.default_rng(11)
        n = 10**6
        thetas = rng.normal(size=(n, 2))
        dens = np.exp(-0.5 * (y - thetas @ x) ** 2 / 0.5) / np.sqrt(2 * np.pi * 0.5)
        mc, se = dens.mean(), dens.std(ddof=1) / np.sqrt(n)
        exact = np.exp(predictive_log_density(spec, prior, x, [y]))
        assert abs(exact - mc) < 3.0 * se

    def test_exchangeable_with_pushed_forward_moments(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prior = GaussBelief(rng.normal(size=2), np.diag(rng.uniform(0.1, 2.0, 2)))
            x = rng.normal(size=2)
            y = rng.normal()
            yhat, jac = apply_h(LINEAR, prior.mean, x)
            S = jac @ prior.cov @ jac.T + LINEAR.obs_noise
            direct = gaussian_log_pdf([y], yhat, S)
            assert predictive_log_density(LINEAR, prior, x, [y]) == pytest.approx(
                direct, abs=1e-12
            )


class TestScalarLogDensity:
    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=1e-8, max_value=1e3),
        st.floats(min_value=-5.0, max_value=5.0),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_array_density_bit_for_bit(self, mean, var, x, y):
        prior = GaussBelief([mean], [[var]])
        f, yv = scalar_point(BERN, [x], [float(y)], prior.dim)
        got = scalar_log_density(mean, var, f, yv)
        want = predictive_log_density(BERN, prior, [x], [float(y)])
        if got is None:  # handed back to the arrays, which clamp the variance
            _, jac, R = moments_for_update(BERN, prior.mean, [x])
            assert (jac @ prior.cov @ jac.T + R)[0, 0] < PSD_TOL
        else:
            assert got.hex() == float(want).hex()

    @pytest.mark.parametrize(
        "spec,x,dims",
        [
            (MeasurementSpec("bernoulli-logit", feature_map="bias"), [1.0], 2),
            (LINEAR, [1.0], 1),
            (SEGMENT, [1.0], 3),
            (CAT3, [1.0], 2),
        ],
        ids=["two-features", "linear", "segment", "categorical"],
    )
    def test_no_scalar_point_outside_its_models(self, spec, x, dims):
        assert scalar_point(spec, x, [0.0], dims) is None


class TestLinearizeBank:
    @pytest.mark.parametrize(
        "spec,q", [(LINEAR, 2), (BERN, 2), (SEGMENT, 1), (CAT3, 2), (MLP, 2)]
    )
    def test_batched_matches_per_hypothesis(self, spec, q):
        rng = np.random.default_rng(9)
        k = 6
        x = rng.normal(size=q)
        m = 3 if spec is SEGMENT else spec.param_count(x)
        means = rng.normal(size=(k, m))
        anchors = rng.normal(size=k) if spec is SEGMENT else None
        yhats, jacs, Rs = linearize_bank(spec, means, x, anchors)
        probs = link_mean(spec, means, x, anchors)
        for i in range(k):
            anchor = float(anchors[i]) if anchors is not None else None
            yh, jc, R = moments_for_update(spec, means[i], x, anchor)
            assert (yhats[i].shape, jacs[i].shape, Rs[i].shape) == (yh.shape, jc.shape, R.shape)
            np.testing.assert_allclose(yhats[i], yh, rtol=0, atol=1e-14)
            np.testing.assert_allclose(jacs[i], jc, rtol=0, atol=1e-14)
            np.testing.assert_allclose(Rs[i], R, rtol=0, atol=1e-14)
            np.testing.assert_allclose(probs[i], link_mean(spec, means[i], x, anchor), rtol=0, atol=1e-14)

    def test_stack_needs_one_anchor_per_row(self):
        with pytest.raises(ValueError):
            apply_h(SEGMENT, np.zeros((3, 3)), [0.0], np.zeros(2))


class TestLinkMean:
    def test_classifier_outputs_probabilities(self):
        p = link_mean(BERN, [2.0, -1.0], [1.0, 1.0])
        assert 0.0 < p[0] < 1.0
        probs = link_mean(CAT3, [1.0, 0.0, 0.0, 1.0], [0.5, 0.5])
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_mlp_runs_the_forward_pass_alone(self, monkeypatch, batch):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=batch + (MLP.param_count(),))
        x = rng.normal(size=2)
        want = apply_h(MLP, theta, x)[0]
        monkeypatch.setattr(bone.measurement, "apply_h", None)  # no Jacobian is built
        got = link_mean(MLP, theta, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_spec_validation(self):
        with pytest.raises(Exception):
            MeasurementSpec("linear-gaussian")  # missing obs_noise
        with pytest.raises(Exception):
            MeasurementSpec("bernoulli-logit", obs_noise=[[1.0]])
        with pytest.raises(Exception):
            MeasurementSpec("bernoulli-logit", out_dim=2)
        with pytest.raises(Exception):
            MeasurementSpec("mlp-gaussian", obs_noise=[[1.0]])  # no arch

    def test_obs_noise_is_stored_as_its_symmetric_part(self):
        # the robust update solves against the stored matrix (posterior._imq_weights)
        arch = {"out_dim": 2, "in_dim": 1, "hidden": (2,)}
        want = np.array([[1.0, 0.25], [0.25, 2.0]])
        spec = MeasurementSpec("mlp-gaussian", obs_noise=[[1.0, 0.5], [0.0, 2.0]], **arch)
        assert spec.obs_noise.tobytes() == want.tobytes()
        symmetric = MeasurementSpec("mlp-gaussian", obs_noise=want, **arch)
        assert symmetric.obs_noise.tobytes() == want.tobytes()
