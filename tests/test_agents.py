from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bone.agents
from bone.agents import (
    DRIFT_KINDS,
    AgentState,
    MethodConfig,
    bone_step,
    drift_unobserved,
    init_agent,
    predict_weighted,
    thompson_action,
)
from bone.core import ConfigError, GaussBelief, symmetrize_psd
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

    @pytest.mark.parametrize("runlengths", [[1, 1], [2, 0, 2], [3, 0, 1, 0], [5, 3, 5, 1]])
    def test_bank_rejects_duplicate_unsorted_runlengths(self, runlengths):
        k = len(runlengths)
        with pytest.raises(ValueError, match="runlengths must be distinct"):
            HypothesisBank(np.array(runlengths), np.zeros(k), np.zeros((k, 1)), np.ones((k, 1, 1)), timestep=5)
        HypothesisBank(np.arange(k)[::-1], np.zeros(k), np.zeros((k, 1)), np.ones((k, 1, 1)), timestep=5)


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

    @pytest.mark.parametrize("name,kw", [("C-ACI", {"alpha": 0.2}), ("C-OU", {"gamma": 0.5})])
    def test_nan_belief_raises(self, name, kw):
        cfg = method(name, base=GaussBelief(np.zeros(1), np.eye(1)), **kw)
        bank = HypothesisBank(np.array([0]), np.zeros(1), np.array([[np.nan]]), np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match="belief contains NaN"):
            drift_unobserved(AgentState(bank=bank), cfg)


def reference_thompson_action(states, cfg, x, rng):
    """thompson_action as a loop over the arms: one draw of size m per arm,
    then a Cholesky factor per arm for m > 1.  Returns the arm and the
    (thetas, anchors) it scored."""
    thetas, anchors = [], []
    for state in states:
        bank = state.bank
        i = bank.map_index
        mean, cov = bank.means[i], bank.covs[i]
        z = rng.standard_normal(mean.size)
        if mean.size == 1:
            thetas.append(mean + np.sqrt(max(cov[0, 0], 0.0)) * z)
        else:
            chol = np.linalg.cholesky(cov + 1e-12 * np.eye(mean.size))
            thetas.append(mean + chol @ z)
        if bank.anchors is not None:
            anchors.append(bank.anchors[i])
    thetas, anchors = np.stack(thetas), np.array(anchors) if anchors else None
    rewards = link_mean(cfg.spec, thetas, x, anchors)
    return int(np.argmax(rewards[:, 0])), (thetas, anchors)


def reference_drift_unobserved(state, cfg):
    """drift_unobserved through a GaussBelief, with the ACI inflation and the
    OU blend written out."""
    policy = cfg.policy
    if policy.kind not in DRIFT_KINDS or not cfg.drift_unpulled:
        return state
    bank = state.bank
    prev, base = bank.belief(0), policy.base_prior
    if policy.kind == "aci":
        belief = GaussBelief(prev.mean, prev.cov + policy.alpha * np.eye(prev.dim))
    elif policy.gamma == 1.0:
        belief = prev
    elif policy.gamma == 0.0:
        belief = base
    else:
        r = policy.gamma
        belief = GaussBelief(
            r * prev.mean + (1.0 - r) * base.mean,
            symmetrize_psd(r * r * prev.cov + (1.0 - r * r) * base.cov),
        )
    return AgentState(bank=replace(bank, means=belief.mean[None, :], covs=belief.cov[None, :, :]))


def assert_same_bank(got, want):
    """The two banks hold the same columns, bit for bit."""
    assert got.timestep == want.timestep
    for name in ("runlengths", "log_joints", "means", "covs", "anchors"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


# family -> (measurement spec, parameter count)
BANDIT_FAMILIES = {
    "bernoulli-m1": (MeasurementSpec("bernoulli-logit"), 1),
    "bernoulli-m3": (MeasurementSpec("bernoulli-logit", feature_map="poly2"), 3),
    "segment-poly": (MeasurementSpec("segment-poly-gaussian", obs_noise=[[0.5]]), 3),
}
# (method name, method and prior keywords)
BANDIT_METHODS = [
    ("C-Static", {}),
    ("C-ACI", {"alpha": 0.05}),
    ("C-OU", {"gamma": 0.0}),
    ("C-OU", {"gamma": 0.5}),
    ("C-OU", {"gamma": 1.0}),
    ("CPP-OU", {}),
    ("RL-OUPR", {"hazard": HazardSpec(0.2), "epsilon": 0.5}),
    ("RL-PR[inf]", {"hazard": HazardSpec(0.2)}),
    ("RL-PR[K]", {"hazard": HazardSpec(0.2), "capacity": 3}),
]


class TestBanditStepAgainstPerArmReference:
    @given(
        family=st.sampled_from(sorted(BANDIT_FAMILIES)),
        row=st.sampled_from(range(len(BANDIT_METHODS))),
        arms=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_arms_draws_and_banks(self, family, row, arms, seed):
        spec, m = BANDIT_FAMILIES[family]
        name, kw = BANDIT_METHODS[row]
        cfg = method(name, spec=spec, base=GaussBelief(np.zeros(m), 2.0 * np.eye(m)), **kw)
        data = np.random.default_rng(seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        states = [init_agent(cfg) for _ in range(arms)]
        sizes, scored = [], []

        def recorded_link_mean(spec, theta, x, anchor=None):
            scored.append((theta, anchor))
            return link_mean(spec, theta, x, anchor)

        for _ in range(12):
            x = [data.uniform(-2.0, 2.0)]
            scored.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bone.agents, "link_mean", recorded_link_mean)
                a = thompson_action(states, cfg, x, rng)
            want, (thetas, anchors) = reference_thompson_action(states, cfg, x, ref_rng)
            assert a == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            [(got_thetas, got_anchors)] = scored
            assert got_thetas.tobytes() == thetas.tobytes()
            assert (got_anchors is None) == (anchors is None)
            if anchors is not None:
                assert got_anchors.tobytes() == anchors.tobytes()
            states[a], _, _ = bone_step(states[a], cfg, x, float(data.random() < 0.6))
            sizes.append(states[a].bank.size)
            for j in range(arms):
                if j != a:
                    got = drift_unobserved(states[j], cfg)
                    assert_same_bank(got.bank, reference_drift_unobserved(states[j], cfg).bank)
                    states[j] = got
        if cfg.is_rl_bank:
            assert max(sizes) > 1  # the modal hypothesis is picked from a bank
