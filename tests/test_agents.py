import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bone.agents import (
    AgentState,
    MethodConfig,
    bone_step,
    drift_unobserved,
    init_agent,
    predict_weighted,
    thompson_action,
)
from bone.core import ConfigError, GaussBelief
from bone.measurement import MeasurementSpec, link_mean
from bone.priors import PriorPolicy
from bone.weighting import HazardSpec, HypothesisBank
from oracles import batch_linreg_posterior

LINEAR = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
BASE2 = GaussBelief([0.0, 0.0], np.eye(2))


def method(name, spec=LINEAR, base=BASE2, **kw):
    kinds = {
        "C-Static": "static",
        "C-ACI": "aci",
        "C-OU": "ou",
        "CPP-OU": "cpp-ou",
        "RL-PR[K]": "rl-prior-reset",
        "RL-PR[inf]": "rl-prior-reset",
        "WoLF+RL-PR": "rl-prior-reset",
        "RL-MMPR": "rl-mmpr",
        "RL-OUPR": "rl-oupr",
    }
    policy_kw = {}
    for key in ("gamma", "alpha", "epsilon"):
        if key in kw:
            policy_kw[key] = kw.pop(key)
    policy = PriorPolicy(kinds[name], base, **policy_kw)
    return MethodConfig(name=name, spec=spec, policy=policy, **kw)


def run_stream(cfg, X, y):
    state = init_agent(cfg)
    preds = []
    for t in range(len(y)):
        yhat, _ = predict_weighted(state, cfg, X[t])
        preds.append(float(np.asarray(yhat).ravel()[0]))
        state, _, _ = bone_step(state, cfg, X[t], [y[t]])
    return state, np.array(preds)


class TestMethodConfig:
    def test_required_subconfigs(self):
        with pytest.raises(ConfigError):
            method("RL-PR[K]", hazard=HazardSpec(0.1))  # K missing
        with pytest.raises(ConfigError):
            method("RL-PR[inf]")  # hazard missing
        with pytest.raises(ConfigError):
            method("WoLF+RL-PR", hazard=HazardSpec(0.1))  # wolf_c missing
        with pytest.raises(ConfigError):
            MethodConfig(
                name="C-Static",
                spec=LINEAR,
                policy=PriorPolicy("ou", BASE2, gamma=0.5),
            )

    def test_valid_table(self):
        method("C-Static")
        method("C-ACI", alpha=0.1)
        method("C-OU", gamma=0.9)
        method("CPP-OU")
        method("RL-PR[K]", hazard=HazardSpec(0.1), capacity=5)
        method("RL-PR[inf]", hazard=HazardSpec(0.1))
        method("WoLF+RL-PR", hazard=HazardSpec(0.1), wolf_c=4.0)
        method("RL-MMPR", hazard=HazardSpec(0.1))
        method("RL-OUPR", hazard=HazardSpec(0.1), epsilon=0.5)


class TestBoneStep:
    def test_static_equals_conjugate_batch_predictor(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        y = X @ np.array([1.0, -2.0]) + 0.3 * rng.normal(size=60)
        cfg = method("C-Static")
        state, preds = run_stream(cfg, X, y)
        mu_b, Sigma_b = batch_linreg_posterior(X, y, np.zeros(2), np.eye(2), 1.0)
        np.testing.assert_allclose(state.bank.means[0], mu_b, atol=1e-8)
        np.testing.assert_allclose(state.bank.covs[0], Sigma_b, atol=1e-8)
        # the final prediction equals the batch posterior-mean predictor
        mu_seq, _ = batch_linreg_posterior(X[:-1], y[:-1], np.zeros(2), np.eye(2), 1.0)
        assert preds[-1] == pytest.approx(X[-1] @ mu_seq, abs=1e-8)

    def test_rlpr_vanishing_hazard_matches_static(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = X @ np.array([0.5, 1.5]) + rng.normal(size=100)
        _, preds_static = run_stream(method("C-Static"), X, y)
        _, preds_rl = run_stream(method("RL-PR[inf]", hazard=HazardSpec(1e-12)), X, y)
        assert np.max(np.abs(preds_static - preds_rl)) < 1e-6

    def test_oupr_epsilon_one_is_one_update_from_prior(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        cfg = method("RL-OUPR", hazard=HazardSpec(0.1), epsilon=1.0)
        state, preds = run_stream(cfg, X, y)
        # every step resets to the base prior, then absorbs one observation
        from bone.posterior import lg_update

        for t in range(1, 30):
            one_shot = lg_update(BASE2, LINEAR, X[t - 1], [y[t - 1]])
            assert preds[t] == pytest.approx(X[t] @ one_shot.mean, abs=1e-12)
        assert state.bank.runlengths[0] == 0

    def test_weighted_prediction_in_convex_hull(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        cfg = method("RL-PR[inf]", hazard=HazardSpec(0.2))
        state = init_agent(cfg)
        for t in range(25):
            state, yhat, yhats = bone_step(state, cfg, X[t], [y[t]], x_next=X[(t + 1) % 25])
            assert yhats.shape == (state.bank.size, 1)
            parts = yhats[:, 0]
            weights = state.bank.weights
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_array_equal(yhat, weights @ yhats)
            val = float(np.asarray(yhat).ravel()[0])
            assert parts.min() - 1e-12 <= val <= parts.max() + 1e-12

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        cfg = method("RL-MMPR", hazard=HazardSpec(0.05))
        _, p1 = run_stream(cfg, X, y)
        _, p2 = run_stream(cfg, X, y)
        np.testing.assert_array_equal(p1, p2)

    def test_classification_prediction_is_probability(self):
        spec = MeasurementSpec("bernoulli-logit")
        cfg = method("C-OU", spec=spec, gamma=0.95)
        rng = np.random.default_rng(5)
        state = init_agent(cfg)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            y = float(rng.random() < 0.5)
            yhat, _ = predict_weighted(state, cfg, x)
            assert 0.0 <= yhat[0] <= 1.0
            state, _, _ = bone_step(state, cfg, x, y)


class TestPredictWeighted:
    def bank_state(self, means, anchors=None):
        k, m = means.shape
        bank = HypothesisBank(
            runlengths=np.arange(k),
            log_joints=np.log(np.arange(1.0, k + 1.0)),
            means=means,
            covs=np.broadcast_to(np.eye(m), (k, m, m)),
            anchors=anchors,
            timestep=k,
        )
        return AgentState(bank=bank)

    def check_against_explicit_sum(self, cfg, state, x):
        bank = state.bank
        w = bank.weights
        parts = [link_mean(cfg.spec, bank.means[i], x, bank.anchor(i)) for i in range(bank.size)]
        yhat, yhats = predict_weighted(state, cfg, x)
        np.testing.assert_allclose(yhat, sum(wi * p for wi, p in zip(w, parts)), rtol=1e-14)
        assert yhats.shape == (bank.size, parts[0].size)
        for got, want in zip(yhats, parts):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        return yhat

    def test_stack_is_the_link_mean_of_the_bank(self):
        spec = MeasurementSpec("segment-poly-gaussian", obs_noise=[[1.0]])
        base = GaussBelief(np.zeros(3), np.eye(3))
        cfg = method("RL-PR[inf]", spec=spec, base=base, hazard=HazardSpec(0.1))
        rng = np.random.default_rng(8)
        state = self.bank_state(rng.normal(size=(4, 3)), anchors=rng.normal(size=4))
        bank = state.bank
        yhat, yhats = predict_weighted(state, cfg, [0.4])
        assert yhats.shape == (4, 1)
        np.testing.assert_array_equal(yhats, link_mean(spec, bank.means, [0.4], bank.anchors))
        np.testing.assert_array_equal(yhat, bank.weights @ yhats)
        assert bone_step(state, cfg, [0.4], [1.0])[1:] == (None, None)

    def test_segment_poly_bank_with_distinct_anchors(self):
        spec = MeasurementSpec("segment-poly-gaussian", obs_noise=[[1.0]])
        base = GaussBelief(np.zeros(3), np.eye(3))
        cfg = method("RL-PR[inf]", spec=spec, base=base, hazard=HazardSpec(0.1))
        rng = np.random.default_rng(6)
        state = self.bank_state(rng.normal(size=(5, 3)), anchors=rng.normal(size=5))
        self.check_against_explicit_sum(cfg, state, [0.7])

    def test_categorical_bank_predicts_probabilities(self):
        spec = MeasurementSpec("categorical-softmax", out_dim=3)
        base = GaussBelief(np.zeros(4), np.eye(4))
        cfg = method("RL-PR[inf]", spec=spec, base=base, hazard=HazardSpec(0.1))
        rng = np.random.default_rng(7)
        state = self.bank_state(rng.normal(size=(4, 4)))
        yhat = self.check_against_explicit_sum(cfg, state, [0.3, -1.2])
        assert yhat.shape == (3,)
        assert yhat.sum() == pytest.approx(1.0, abs=1e-14)


class TestBankInvariants:
    @given(
        name=st.sampled_from(["RL-PR[K]", "RL-PR[inf]", "WoLF+RL-PR", "RL-MMPR", "RL-OUPR", "C-OU"]),
        pi=st.floats(min_value=0.01, max_value=0.5),
        K=st.integers(min_value=1, max_value=6),
        stream=st.lists(
            st.tuples(
                st.floats(min_value=-3, max_value=3),
                st.floats(min_value=-3, max_value=3),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bank_invariants_after_every_step(self, name, pi, K, stream):
        kw = {"hazard": HazardSpec(pi)}
        if name == "RL-PR[K]":
            kw["capacity"] = K
        elif name == "WoLF+RL-PR":
            kw["wolf_c"] = 2.0
        elif name == "RL-OUPR":
            kw["epsilon"] = 0.5
        elif name == "C-OU":
            kw = {"gamma": 0.9}
        cfg = method(name, **kw)
        state = init_agent(cfg)
        for t, (x0, x1, y) in enumerate(stream, start=1):
            state, yhat, yhats = bone_step(state, cfg, [x0, x1], [y], x_next=[x1, x0])
            bank = state.bank
            assert bank.timestep == t
            assert bank.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert yhats.shape == (bank.size, 1)
            np.testing.assert_array_equal(yhat, bank.weights @ yhats)
            np.testing.assert_array_equal(bank.covs, bank.covs.transpose(0, 2, 1))
            traces = np.einsum("kii->k", bank.covs)
            assert (np.linalg.eigvalsh(bank.covs).min(axis=1) >= -1e-9 * np.maximum(1.0, traces)).all()
            assert np.unique(bank.runlengths).size == bank.size
            assert bank.runlengths.max() <= t
            cap = {"RL-PR[K]": K, "RL-PR[inf]": t + 1, "WoLF+RL-PR": t + 1, "RL-MMPR": t + 1}
            assert bank.size <= cap.get(name, 1)


class TestThompson:
    def bern_cfg(self):
        spec = MeasurementSpec("bernoulli-logit")
        base = GaussBelief([0.0], [[1.0]])
        return method("C-Static", spec=spec, base=base)

    def state_with(self, mean, var, cfg):
        st = init_agent(cfg)
        bank = st.bank
        from bone.weighting import HypothesisBank

        return type(st)(
            bank=HypothesisBank(
                runlengths=bank.runlengths,
                log_joints=bank.log_joints,
                means=np.array([[mean]]),
                covs=np.array([[[var]]]),
                timestep=0,
            ),
        )

    def test_single_arm(self):
        cfg = self.bern_cfg()
        rng = np.random.default_rng(0)
        assert thompson_action([init_agent(cfg)], cfg, [1.0], rng) == 0

    def test_near_deterministic_argmax(self):
        cfg = self.bern_cfg()
        rng = np.random.default_rng(1)
        states = [self.state_with(5.0, 1e-12, cfg), self.state_with(0.0, 1e-12, cfg)]
        picks = [thompson_action(states, cfg, [1.0], rng) for _ in range(200)]
        assert all(p == 0 for p in picks)

    def test_symmetric_arms_split_evenly(self):
        cfg = self.bern_cfg()
        rng = np.random.default_rng(2)
        states = [self.state_with(0.0, 1.0, cfg), self.state_with(0.0, 1.0, cfg)]
        picks = np.array(
            [thompson_action(states, cfg, [1.0], rng) for _ in range(10000)]
        )
        assert abs((picks == 0).mean() - 0.5) < 0.02


class TestDriftUnobserved:
    def test_data_free_kinds_diffuse(self):
        cfg = method("C-ACI", alpha=0.2)
        st = init_agent(cfg)
        out = drift_unobserved(st, cfg)
        np.testing.assert_allclose(
            np.diag(out.bank.covs[0]), np.diag(st.bank.covs[0]) + 0.2
        )

    def test_data_dependent_kinds_hold(self):
        cfg = method("RL-OUPR", hazard=HazardSpec(0.1), epsilon=0.5)
        st = init_agent(cfg)
        out = drift_unobserved(st, cfg)
        assert out is st

    def test_opt_out_flag(self):
        cfg = method("C-ACI", alpha=0.2, drift_unpulled=False)
        st = init_agent(cfg)
        assert drift_unobserved(st, cfg) is st
