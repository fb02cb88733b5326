import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bone.posterior
from bone.core import PSD_TOL, GaussBelief, NumericDomainError, symmetrize_psd_batch
from bone.measurement import MeasurementSpec
from bone.posterior import (
    _imq_weights,
    innovation_arrays,
    lg_update,
    lg_update_arrays,
    posterior_floors,
    robust_noise,
    wolf_update,
)
from bone.priors import PriorPolicy
from bone.weighting import HazardSpec, HypothesisBank, rl_step
from oracles import batch_linreg_posterior, exactly_psd, posterior_floor_bound

LINEAR = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])


def update_one(update, mean, cov, *args, **kwargs):
    """The posterior (mean (m,), cov (m, m)) of ``update`` on the prior
    columns (1, m) and (1, m, m) of (mean, cov), whose shapes it keeps."""
    means, covs = np.array([mean], dtype=float), np.array([cov], dtype=float)
    new_means, new_covs = update(means, covs, *args, **kwargs)
    assert new_means.shape == means.shape and new_covs.shape == covs.shape
    return new_means[0], new_covs[0]


class TestLgUpdate:
    def test_equal_precision_average(self):
        mean, cov = update_one(lg_update, [0.0], [[1.0]], LINEAR, [1.0], [1.0])
        assert mean == pytest.approx([0.5])
        np.testing.assert_allclose(cov, [[0.5]])
        unit = np.ones((1, 1, 1))
        means, covs, S, _ = lg_update_arrays(np.zeros((1, 1)), unit, unit, np.zeros((1, 1)), np.ones(1), unit)
        np.testing.assert_array_equal(means, [mean])
        np.testing.assert_array_equal(covs, [cov])
        np.testing.assert_allclose(S, [[[2.0]]])

    def test_zero_jacobian_keeps_prior(self):
        mean, cov = update_one(lg_update, [0.7], [[2.0]], LINEAR, [0.0], [5.0])
        assert mean == pytest.approx([0.7])
        np.testing.assert_allclose(cov, [[2.0]])

    def test_sequential_equals_batch_oracle(self):
        rng = np.random.default_rng(1)
        mu0 = np.zeros(2)
        Sigma0 = np.eye(2)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        mean, cov = mu0, Sigma0
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
        for t in range(20):
            mean, cov = update_one(lg_update, mean, cov, spec, X[t], [y[t]])
        mu_b, Sigma_b = batch_linreg_posterior(X, y, mu0, Sigma0, 1.0)
        np.testing.assert_allclose(mean, mu_b, atol=1e-8)
        np.testing.assert_allclose(cov, Sigma_b, atol=1e-8)

    def test_order_invariance_against_batch(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        mu0, Sigma0 = np.zeros(3), 2.0 * np.eye(3)
        spec = MeasurementSpec("linear-gaussian", obs_noise=[[0.5]])
        mu_b, Sigma_b = batch_linreg_posterior(X, y, mu0, Sigma0, 0.5)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(15)
            mean, cov = mu0, Sigma0
            for t in perm:
                mean, cov = update_one(lg_update, mean, cov, spec, X[t], [y[t]])
            np.testing.assert_allclose(mean, mu_b, atol=1e-8)
            np.testing.assert_allclose(cov, Sigma_b, atol=1e-8)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            m = rng.integers(1, 4)
            a = rng.normal(size=(m, m))
            mean, cov = rng.normal(size=m), a @ a.T + 0.1 * np.eye(m)
            spec = MeasurementSpec("linear-gaussian", obs_noise=[[rng.uniform(0.1, 2.0)]])
            x = rng.normal(size=m)
            _, post_cov = update_one(lg_update, mean, cov, spec, x, [rng.normal()])
            assert np.trace(post_cov) <= np.trace(cov) + 1e-10

    def test_expfam_route(self):
        spec = MeasurementSpec("bernoulli-logit")
        mean, _ = update_one(lg_update, [0.0, 0.0], np.eye(2), spec, [1.0, -1.0], 1.0)
        # observing class 1 at logit 0 pulls the mean toward positive logits
        assert mean @ np.array([1.0, -1.0]) > 0.0
        # innovation 1 - sigmoid(0) = 0.5, S = J Sigma J^T + 1/4 = 2.25
        assert mean == pytest.approx([0.5 / 2.25, -0.5 / 2.25])


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
        new_means, new_covs, S, _ = lg_update_arrays(means, covs, jacs, yhats, y, Rs)
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

    # One matrix of the stack may be pushed off the PSD cone by a negative
    # observation variance R = -eta s0 (s0 = h Sigma h^T), which leaves the
    # whitened update the eigenvalue -eta / (1 - eta): 1e-11 lies inside
    # PSD_TOL and far above rounding, 1e-2 far beyond PSD_TOL.
    @given(
        st.sampled_from([1, 10, 200]),
        st.sampled_from([1, 3, 97]),
        st.sampled_from(["pd", "within-tol", "beyond-tol"]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_update_keeps_symmetry_and_the_certificate(self, k, m, kind, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(k, m, m)))
        a = (q * rng.uniform(0.5, 2.0, (k, 1, m))) @ q.transpose(0, 2, 1)
        covs = (a + a.transpose(0, 2, 1)) / 2.0  # exactly symmetric PSD
        jacs = rng.normal(size=(k, 1, m))
        s0 = np.einsum("kdm,kmn,kdn->k", jacs, covs, jacs)
        Rs = rng.uniform(0.1, 2.0, (k, 1, 1))
        j = int(rng.integers(k))
        if kind != "pd":
            Rs[j] = -(1e-11 if kind == "within-tol" else 1e-2) * s0[j]
        means, yhats, y = rng.normal(size=(k, m)), rng.normal(size=(k, 1)), rng.normal(size=1)
        PHt, S = innovation_arrays(covs, jacs, Rs)
        K = PHt[:, :, 0] / S[:, 0, 0, None]
        updated = covs - np.einsum("km,kn->kmn", K, K) * S[:, 0, 0, None, None]
        if kind == "beyond-tol":
            with pytest.raises(NumericDomainError, match=f"matrix {j} of batch is not PSD"):
                lg_update_arrays(means, covs, jacs, yhats, y, Rs)
            with pytest.raises(NumericDomainError, match=f"matrix {j} of batch is not PSD"):
                symmetrize_psd_batch(updated)
            return
        _, new_covs, _, _ = lg_update_arrays(means, covs, jacs, yhats, y, Rs)
        np.testing.assert_array_equal(new_covs, new_covs.transpose(0, 2, 1))
        np.testing.assert_array_equal(new_covs, symmetrize_psd_batch(updated))
        if kind == "within-tol":  # repaired by a diagonal shift, within the tolerance
            lift = np.trace(new_covs[j]) - np.trace(updated[j])
            assert 0.0 < lift <= PSD_TOL * max(1.0, abs(np.trace(updated[j]))) * m


@st.composite
def floor_cases(draw):
    """A d = 1 update of one exactly symmetric prior with a valid floor,
    drawn toward the hard cases: an observation noise far below h Sigma h^T,
    h along the smallest eigenvector, and a largest diagonal entry far above
    the smallest eigenvalue.  Returns (cov, h, r, prior floor)."""
    m = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cond = draw(st.sampled_from([0.0, 3.0, 8.0, 12.0]))  # log10 lambda_max / lambda_min
    direction = draw(st.sampled_from(["random", "smallest", "near-smallest"]))
    log_r = draw(st.sampled_from([-14.0, -10.0, -6.0, -2.0, 0.0, 3.0]))  # log10 r / h Sigma h
    share = draw(st.sampled_from([1.0, 0.5, 1e-3]))  # of the largest floor drawn
    lam = np.sort(10.0 ** rng.uniform(-cond, 0.0, m))
    lam[0] = 10.0**-cond
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    a = (q * (lam * 10.0 ** rng.uniform(-3.0, 3.0))) @ q.T
    cov = (a + a.T) / 2.0
    w, v = np.linalg.eigh(cov)
    floor = (w[0] - 8 * m * 2.0**-53 * np.abs(w).max()) * share
    assume(floor > 0.0 and exactly_psd(cov, floor))
    h = v[:, 0] if direction != "random" else rng.normal(size=m)
    if direction == "near-smallest":
        h = h + 1e-4 * rng.normal(size=m)
    h = h * 10.0 ** rng.uniform(-2.0, 2.0)
    r = float(h @ cov @ h) * 10.0**log_r
    assume(0.0 < r < np.inf)
    return cov, h, r, floor


def _floor_update(cov, h, r, floor):
    """lg_update_arrays on the case as a stack of one, with the certificate
    patched out: the stored posterior, its floor, and (g, s)."""
    seen = []

    def keep(s, floors):
        seen.append(s)
        return s

    jacs, Rs = h[None, None, :], np.full((1, 1, 1), r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bone.posterior, "certify_psd_batch", keep)
        _, _, S, floors = lg_update_arrays(
            np.zeros((1, h.size)), cov[None], jacs, np.zeros((1, 1)), np.zeros(1), Rs,
            floors=np.array([floor]),
        )
    PHt, _ = innovation_arrays(cov[None], jacs, Rs)
    return seen[0][0], float(floors[0]), PHt[0, :, 0], float(S[0, 0, 0])


class TestPosteriorFloors:
    @given(floor_cases())
    @settings(max_examples=300, deadline=None)
    def test_floor_is_a_lower_bound_in_exact_arithmetic(self, case):
        # every LDL^T pivot of the stored posterior less a positive floor is
        # >= 0 (a floor of 0 claims nothing)
        post, new_floor, _, _ = _floor_update(*case)
        assert new_floor >= 0.0
        assert new_floor == 0.0 or exactly_psd(post, new_floor)

    @given(floor_cases())
    @settings(max_examples=300, deadline=None)
    def test_floor_stays_below_its_exact_formula(self, case):
        # the float evaluation errs low against the derivation evaluated exactly
        cov, h, r, floor = case
        _, new_floor, g, s = _floor_update(*case)
        assert Fraction(new_floor) <= posterior_floor_bound(cov, h, r, g, s, floor)

    @pytest.mark.parametrize(
        "case", ["zero-floor", "nan-h", "inf-diagonal", "inf-noise", "tiny-noise"]
    )
    def test_no_floor_without_a_finite_positive_bound(self, case):
        cov, h, r, floor = np.diag([1.0, 2.0, 3.0]), np.array([1.0, 0.5, -0.2]), 0.5, 0.9
        if case == "zero-floor":
            floor = 0.0
        elif case == "nan-h":
            h[1] = np.nan
        elif case == "inf-diagonal":
            cov[2, 2] = np.inf
        elif case == "inf-noise":
            r = np.inf
        else:  # r far below the rounding allowance of h . g
            r = 1e-30
        g = cov @ h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = posterior_floors(
                cov[None], h[None], np.array([r]), g[None], np.array([h @ g + r]), np.array([floor])
            )
        assert out.tolist() == [0.0]

    def test_overflowing_update_fails_as_without_floors(self):
        # K = g / s overflows in K K^T although g g^T / s is finite: the floor
        # stays positive, and the -inf the overflow leaves on the diagonal is
        # what refuses the certificate
        cov, h = np.diag([1e10, 1e10, 1e10]), np.array([1e-155, 1e-155, 0.0])
        args = (np.zeros((1, 3)), cov[None], h[None, None], np.zeros((1, 1)), np.ones(1),
                np.full((1, 1, 1), 1e-300))
        g = cov @ h
        floor = posterior_floors(
            cov[None], h[None], np.array([1e-300]), g[None], np.array([h @ g + 1e-300]),
            np.array([5e9]),
        )
        assert floor[0] > 0.0
        errors = []
        for floors in (None, np.array([5e9])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericDomainError, match="matrix 0 of batch is not finite") as err:
                    lg_update_arrays(*args, floors=floors)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("d", [1, 2])
    def test_floors_travel_only_when_given(self, d):
        args = TestLgUpdateArrays.stack(4, 3, d, seed=5)
        assert lg_update_arrays(*args)[3] is None
        floors = lg_update_arrays(*args, floors=np.full(4, 0.05))[3]
        assert floors.shape == (4,)
        if d == 2:  # no floor is derived for a vector observation
            assert (floors == 0.0).all()
        else:
            assert (floors > 0.0).all()


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
                wolf_update(base.mean[None], base.cov[None], spec, x, y, c=2.0)
            else:
                policy = PriorPolicy("rl-prior-reset", base)
                bank = HypothesisBank.root(base)
                rl_step(bank, HazardSpec(0.1), spec, policy, x, y, wolf_c=2.0, capacity=4)

    def test_zero_residual_matches_lg(self):
        prior = [1.0], [[2.0]]
        mean_w, cov_w = update_one(wolf_update, *prior, LINEAR, [1.0], [1.0], c=4.0)
        mean_l, cov_l = update_one(lg_update, *prior, LINEAR, [1.0], [1.0])
        assert imq(0.0, 4.0) == 1.0
        np.testing.assert_allclose(mean_w, mean_l)
        np.testing.assert_allclose(cov_w, cov_l)

    def test_residual_at_threshold(self):
        # e = c with R = 1 gives weight 2^(-1/2) and effective noise 2
        c = 3.0
        assert imq(c, c) == pytest.approx(2.0**-0.5)
        y, yhats, unit = np.array([c]), np.zeros((1, 1)), np.ones((1, 1, 1))
        Rs = robust_noise(LINEAR, y, yhats, unit, c)
        np.testing.assert_allclose(Rs, [[[2.0]]])
        # S = H Sigma H^T + R/W^2 = 1 + 2
        means, covs, S, _ = lg_update_arrays(np.zeros((1, 1)), unit, unit, yhats, y, Rs)
        np.testing.assert_allclose(S, [[[3.0]]])
        mean, cov = update_one(wolf_update, [0.0], [[1.0]], LINEAR, [1.0], [c], c=c)
        np.testing.assert_array_equal(means, [mean])
        np.testing.assert_array_equal(covs, [cov])
        assert mean == pytest.approx([c / 3.0])

    def test_outlier_influence_bounded(self):
        # settled-in prior: variance 0.25 after a stretch of clean data
        prior = [0.0], [[0.25]]
        mean_w, _ = update_one(wolf_update, *prior, LINEAR, [1.0], [40.0], c=4.0)
        mean_l, _ = update_one(lg_update, *prior, LINEAR, [1.0], [40.0])
        w = imq(40.0, 4.0)
        assert w == pytest.approx((1.0 + 1600.0 / 16.0) ** -0.5, rel=1e-9)
        # the update runs at noise R / W^2 = 101
        assert mean_w == pytest.approx([0.25 * 40.0 / (0.25 + 1.0 / w**2)], rel=1e-12)
        move_w = abs(mean_w[0] - prior[0][0])
        move_l = abs(mean_l[0] - prior[0][0])
        assert move_w < 0.015 * move_l

    def test_weight_monotone_and_vanishing(self):
        residuals = [0.0, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
        weights = [imq(e, 2.0) for e in residuals]
        assert all(w1 >= w2 for w1, w2 in zip(weights, weights[1:]))
        assert weights[-1] < 1e-3
        for e, w in zip(residuals, weights):
            mean, _ = update_one(wolf_update, [0.0], [[1.0]], LINEAR, [1.0], [e], c=2.0)
            assert mean == pytest.approx([e / (1.0 + 1.0 / w**2)], rel=1e-12)

    def test_requires_gaussian_family(self):
        with pytest.raises(ValueError):
            update_one(wolf_update, [0.0], [[1.0]], MeasurementSpec("bernoulli-logit"), [1.0], 1.0, c=2.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            update_one(wolf_update, [0.0], [[1.0]], LINEAR, [1.0], [1.0], c=0.0)
