import math
import warnings
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
from bone.core import ConfigError, GaussBelief, NumericDomainError, symmetrize_psd
from bone.measurement import MeasurementSpec, link_mean, predictive_log_density, scalar_point
from bone.posterior import lg_update
from bone.priors import PriorPolicy
from bone.weighting import HazardSpec, HypothesisBank, greedy_ratio
import oracles
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


class TestInitAgent:
    def test_only_a_segment_root_is_anchored(self):
        segment = MeasurementSpec("segment-poly-gaussian", obs_noise=[[1.0]])
        cfg = method("C-Static", spec=segment, base=GaussBelief(np.zeros(3), np.eye(3)))
        assert init_agent(cfg, np.array([2.5, 7.0])).bank.anchors.tolist() == [2.5]
        assert init_agent(cfg, 2.5).bank.anchors.tolist() == [2.5]
        assert init_agent(cfg).bank.anchors.tolist() == [0.0]
        for cfg in (method("C-Static"), method("RL-PR[inf]", hazard=HazardSpec(0.1))):
            assert init_agent(cfg, [2.5]).bank.anchors is None
            assert init_agent(cfg).bank.anchors is None


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
            one_shot, _ = lg_update(BASE2.mean[None], BASE2.cov[None], LINEAR, X[t - 1], [y[t - 1]])
            assert preds[t] == pytest.approx(X[t] @ one_shot[0], abs=1e-12)
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

    def test_an_arm_without_a_cholesky_factor_is_a_numeric_failure(self):
        cfg = method("C-Static", spec=MeasurementSpec("bernoulli-logit", feature_map="bias"))
        indefinite = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3 and -1
        states = [
            init_agent(cfg),
            AgentState(bank=HypothesisBank(np.array([0]), np.zeros(1), np.zeros((1, 2)), indefinite)),
        ]
        rng = np.random.default_rng(0)
        with pytest.raises(NumericDomainError, match="arm 1 has no Cholesky factor"):
            thompson_action(states, cfg, [1.0], rng)


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

    @pytest.mark.parametrize("column", ["means", "covs"])
    @pytest.mark.parametrize("name,kw", [("C-ACI", {"alpha": 0.2}), ("C-OU", {"gamma": 0.5})])
    def test_nan_belief_raises(self, name, kw, column):
        """A drift reads a bank that the engine built free of NaN or that the
        public constructor built, which rejects a NaN belief."""
        cfg = method(name, base=GaussBelief(np.zeros(1), np.eye(1)), **kw)
        bank = init_agent(cfg).bank
        with pytest.raises(ValueError, match=f"{column} contain NaN"):
            replace(bank, **{column: np.full_like(getattr(bank, column), np.nan)})

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize(
        "name,kw",
        [("C-ACI", {"alpha": 0.2})] + [("C-OU", {"gamma": g}) for g in (0.0, 0.5, 1.0)],
    )
    def test_drift_equals_the_reference(self, name, kw, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, m))
        cfg = method(name, base=GaussBelief(rng.normal(size=m), np.eye(m)), **kw)
        cov = a @ a.T + 0.1 * np.eye(m)
        bank = HypothesisBank(np.array([3]), np.zeros(1), rng.normal(size=(1, m)), cov[None], timestep=5)
        state = AgentState(bank=bank)
        assert_same_bank(drift_unobserved(state, cfg).bank, reference_drift_unobserved(state, cfg).bank)


# family -> (spec, base prior, feature dimension) of the single-hypothesis bank test
BANK_FAMILIES = {
    "linear": (LINEAR, BASE2, 2),
    "bernoulli": (MeasurementSpec("bernoulli-logit"), GaussBelief([0.0], [[1.0]]), 1),
    "segment": (
        MeasurementSpec("segment-poly-gaussian", obs_noise=[[0.5]]),
        GaussBelief(np.zeros(3), np.eye(3)),
        1,
    ),
}
STEP_METHODS = {
    "C-Static": {},
    "C-ACI": {"alpha": 0.2},
    "CPP-OU": {},
    "RL-OUPR": {"hazard": HazardSpec(0.3), "epsilon": 0.5},
}
DRIFT_METHODS = {"C-ACI": {"alpha": 0.2}, "C-OU": {"gamma": 0.8}}


class TestSingleHypothesisBanks:
    """The single-hypothesis step and the drift build their banks without the
    public constructor, and those banks equal what it would build."""

    def run(self, monkeypatch, name, kw, family, drift):
        spec, base, x_dim = BANK_FAMILIES[family]
        cfg = method(name, spec=spec, base=base, **kw)
        state = init_agent(cfg)
        built = []
        post_init = HypothesisBank.__post_init__
        monkeypatch.setattr(
            HypothesisBank, "__post_init__", lambda bank: built.append(bank) or post_init(bank)
        )
        rng = np.random.default_rng(11)
        banks = []
        for t in range(12):
            x = 0.25 * t + rng.normal(size=x_dim)
            y = float(rng.integers(2)) if family == "bernoulli" else 4.0 * rng.normal()
            state, _, _ = bone_step(state, cfg, x, [y])
            banks.append(state.bank)
            if drift:
                state = drift_unobserved(state, cfg)
                banks.append(state.bank)
        monkeypatch.undo()
        assert built == []
        for bank in banks:
            public = HypothesisBank(
                bank.runlengths, bank.log_joints, bank.means, bank.covs, bank.anchors, bank.timestep
            )
            assert bank.timestep == public.timestep
            for column in ("runlengths", "log_joints", "means", "covs", "anchors"):
                got, want = getattr(bank, column), getattr(public, column)
                if want is None:
                    assert got is None
                    continue
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", sorted(BANK_FAMILIES))
    @pytest.mark.parametrize("name", sorted(STEP_METHODS))
    def test_step_banks_equal_the_public_constructors(self, monkeypatch, name, family):
        self.run(monkeypatch, name, STEP_METHODS[name], family, drift=False)

    @pytest.mark.parametrize("family", sorted(BANK_FAMILIES))
    @pytest.mark.parametrize("name", sorted(DRIFT_METHODS))
    def test_drifted_banks_equal_the_public_constructors(self, monkeypatch, name, family):
        self.run(monkeypatch, name, DRIFT_METHODS[name], family, drift=True)


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
    prev, base = GaussBelief(bank.means[0], bank.covs[0]), policy.base_prior
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


# family -> (spec, observation noise R the oracle reads, RL-OUPR hazard) of the
# one-parameter tests; a Bernoulli outcome is weak evidence, so only a hazard
# above 1/2 makes RL-OUPR at eps = 0.5 take both of its branches
ONE_PARAMETER = {
    "bernoulli-logit": (MeasurementSpec("bernoulli-logit"), None, 0.55),
    "linear-gaussian": (MeasurementSpec("linear-gaussian", obs_noise=[[0.5]]), 0.5, 0.1),
}
BASE1 = GaussBelief([0.3], [[1.5]])


def one_parameter_stream(family, seed, T=50):
    """T (x, y) pairs of a scalar model whose parameter jumps between +2 and
    -2 every 10 steps, and a coin per step (the bandit's pull)."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(T):
        theta = 2.0 if (t // 10) % 2 == 0 else -2.0
        x = float(rng.uniform(-2.0, 2.0))
        if family == "bernoulli-logit":
            y = float(rng.random() < 1.0 / (1.0 + np.exp(-theta * x)))
        else:
            y = theta * x + float(np.sqrt(0.5) * rng.normal())
        out.append((x, y, bool(rng.random() < 0.5)))
    return out


def assert_belief(state, m, v, runlength, t):
    bank = state.bank
    assert bank.timestep == t and bank.runlengths.tolist() == [runlength]
    np.testing.assert_allclose(bank.means[0, 0], m, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(bank.covs[0, 0, 0], v, rtol=1e-12, atol=0.0)


class TestOneParameterStepsAgainstReference:
    """Every step of a 50-step stream, against the plain-Python steps of
    ``oracles``: the pulled arm's update and the unpulled arm's drift of the
    data-free kinds, RL-OUPR's greedy step at both of its branches, and
    CPP-OU's rate search."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(ONE_PARAMETER))
    @pytest.mark.parametrize("name", ["C-ACI", "C-OU"])
    def test_drift_and_update(self, name, family, seed):
        spec, R, _ = ONE_PARAMETER[family]
        m0, v0 = float(BASE1.mean[0]), float(BASE1.cov[0, 0])
        if name == "C-ACI":
            cfg = method(name, spec=spec, base=BASE1, alpha=0.05)
            def drift(m, v):
                return oracles.aci_drift(m, v, 0.05)
        else:
            cfg = method(name, spec=spec, base=BASE1, gamma=0.9)
            def drift(m, v):
                return oracles.ou_drift(m, v, m0, v0, 0.9)
        state, m, v, runlength = init_agent(cfg), m0, v0, 0
        pulls = []
        for x, y, pulled in one_parameter_stream(family, seed):
            if pulled:
                state, _, _ = bone_step(state, cfg, [x], [y])
                _, m, v = oracles.scalar_filter_step(family, *drift(m, v), x, y, R)
                runlength += 1
            else:
                state = drift_unobserved(state, cfg)
                m, v = drift(m, v)
            pulls.append(pulled)
            assert_belief(state, m, v, runlength, runlength)  # a drift keeps the timestep
        assert 0 < sum(pulls) < len(pulls)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(ONE_PARAMETER))
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_rl_oupr_step(self, eps, family, seed):
        spec, R, pi = ONE_PARAMETER[family]
        m0, v0 = float(BASE1.mean[0]), float(BASE1.cov[0, 0])
        cfg = method("RL-OUPR", spec=spec, base=BASE1, hazard=HazardSpec(pi), epsilon=eps)
        state, m, v, runlength = init_agent(cfg), m0, v0, 0
        stream = one_parameter_stream(family, seed)
        resets = 0
        for t, (x, y, _) in enumerate(stream, start=1):
            state, _, _ = bone_step(state, cfg, [x], [y])
            m, v, runlength, nu = oracles.greedy_oupr_step(
                family, m, v, runlength, x, y, R, m0, v0, pi, eps
            )
            assert abs(nu - eps) > 1e-9  # the branch is not decided by rounding
            resets += runlength == 0
            assert_belief(state, m, v, runlength, t)
        # eps 0 always blends, eps 1 always resets, eps 0.5 takes both branches
        if eps == 0.0:
            assert resets == 0
        elif eps == 1.0:
            assert resets == len(stream)
        else:
            assert 0 < resets < len(stream)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cpp_ou_step(self, monkeypatch, seed):
        """CPP-OU's rate search, then the update of the blend at its rate, on
        a bernoulli-logit arm, whose pairs the scorer scores on floats."""
        spec, R, _ = ONE_PARAMETER["bernoulli-logit"]
        m0, v0 = float(BASE1.mean[0]), float(BASE1.cov[0, 0])
        cfg = method("CPP-OU", spec=spec, base=BASE1)
        stacks = count_calls(monkeypatch, bone.weighting, "linearize_bank")
        state, m, v, rates = init_agent(cfg), m0, v0, []
        for t, (x, y, _) in enumerate(one_parameter_stream("bernoulli-logit", seed), start=1):
            state, _, _ = bone_step(state, cfg, [x], [y])

            def log_density(u):
                return oracles.blend_log_predictive(
                    "bernoulli-logit", np.array([m]), np.array([[v]]),
                    np.array([m0]), np.array([[v0]]), u, [x], y, R,
                )

            u = oracles.cpp_rate_search(log_density, cfg.cpp_steps, cfg.cpp_lr)
            rates.append(u)
            _, m, v = oracles.scalar_filter_step("bernoulli-logit", *oracles.ou_drift(m, v, m0, v0, u), x, y, R)
            assert_bank_belief(state.bank, [m], [[v]], t, t)
        assert stacks == [] and min(rates) < 1.0  # the float branch, and searches that move


BIAS = MeasurementSpec("linear-gaussian", obs_noise=[[0.5]], feature_map="bias")
# a base prior with correlated parameters, so the off-diagonal entries count
BASE_BIAS = GaussBelief([0.3, -0.2], [[1.5, 0.4], [0.4, 0.8]])


BIAS_LOGIT = MeasurementSpec("bernoulli-logit", feature_map="bias")


def bias_stream(seed, T=50, family="linear-gaussian"):
    """T (x, y) pairs of y = theta . [1, x] + noise of variance 0.5 (or, for
    bernoulli-logit, y = 1 with probability sigmoid(theta . [1, x])), whose
    theta jumps between (1, 2) and (-1, -2) every 10 steps, and a coin per
    step (the bandit's pull)."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(T):
        theta = np.array([1.0, 2.0]) if (t // 10) % 2 == 0 else np.array([-1.0, -2.0])
        x = float(rng.uniform(-2.0, 2.0))
        if family == "bernoulli-logit":
            y = float(rng.random() < 1.0 / (1.0 + np.exp(-(theta @ [1.0, x]))))
        else:
            y = float(theta @ [1.0, x] + np.sqrt(0.5) * rng.normal())
        out.append((x, y, bool(rng.random() < 0.5)))
    return out


class TestTwoParameterStepsAgainstReference:
    """Every step of a 50-step bias-basis (m = 2) linear-Gaussian stream,
    against the plain-numpy steps of ``oracles``: C-ACI's and C-OU's update
    of a pulled arm (the drift, then the information-form update) and their
    drift of an unpulled one, C-Static's IMQ-weighted update, and CPP-OU's
    and RL-OUPR's steps; and C-Static's and C-ACI's steps on a
    bernoulli-logit stream."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["C-ACI", "C-OU"])
    def test_drift_and_update(self, name, seed):
        m0, v0 = BASE_BIAS.mean, BASE_BIAS.cov
        if name == "C-ACI":
            cfg = method(name, spec=BIAS, base=BASE_BIAS, alpha=0.05)
            def drift(m, v):
                return oracles.aci_inflation(m, v, 0.05)
        else:
            cfg = method(name, spec=BIAS, base=BASE_BIAS, gamma=0.9)
            def drift(m, v):
                return oracles.ou_blend(m, v, m0, v0, 0.9)
        state, m, v, runlength = init_agent(cfg), m0, v0, 0
        pulls = []
        for x, y, pulled in bias_stream(seed):
            if pulled:
                state, _, _ = bone_step(state, cfg, [x], [y])
                m, v = oracles.linear_gaussian_update(*drift(m, v), [1.0, x], y, 0.5)
                runlength += 1
            else:
                state = drift_unobserved(state, cfg)
                m, v = drift(m, v)
            pulls.append(pulled)
            bank = state.bank
            assert bank.timestep == runlength and bank.runlengths.tolist() == [runlength]
            np.testing.assert_allclose(bank.means[0], m, rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(bank.covs[0], v, rtol=1e-10, atol=0.0)
        assert 0 < sum(pulls) < len(pulls)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_robust_static_step(self, seed):
        """C-Static with ``wolf_c``: the IMQ-weighted update of every step."""
        c = 1.0
        cfg = method("C-Static", spec=BIAS, base=BASE_BIAS, wolf_c=c)
        state, m, v = init_agent(cfg), BASE_BIAS.mean, BASE_BIAS.cov
        moved = 0.0  # how far the weight moves the mean from the plain update
        for t, (x, y, _) in enumerate(bias_stream(seed), start=1):
            state, _, _ = bone_step(state, cfg, [x], [y])
            plain, _ = oracles.linear_gaussian_update(m, v, [1.0, x], y, 0.5)
            m, v = oracles.imq_weighted_update(m, v, [1.0, x], y, 0.5, c)
            moved = max(moved, float(np.abs(plain - m).max()))
            assert_bank_belief(state.bank, m, v, t, t)
        assert moved > 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["C-Static", "C-ACI"])
    def test_bernoulli_logit_step(self, name, seed):
        """C-Static's and C-ACI's moment-matched logistic update: the update
        of the (inflated) belief, the blend at rate 1."""
        alpha = 0.05 if name == "C-ACI" else 0.0
        kw = {"alpha": alpha} if name == "C-ACI" else {}
        cfg = method(name, spec=BIAS_LOGIT, base=BASE_BIAS, **kw)
        m0, v0 = BASE_BIAS.mean, BASE_BIAS.cov
        state, m, v = init_agent(cfg), m0, v0
        for t, (x, y, _) in enumerate(bias_stream(seed, family="bernoulli-logit"), start=1):
            state, _, _ = bone_step(state, cfg, [x], [y])
            m, v = oracles.aci_inflation(m, v, alpha)
            m, v = oracles.blend_update("bernoulli-logit", m, v, m0, v0, 1.0, [1.0, x], y)
            assert_bank_belief(state.bank, m, v, t, t)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cpp_ou_step(self, monkeypatch, seed):
        """CPP-OU's rate search and the update of the blend at its rate; a
        two-parameter pair is scored as one 2-row stack."""
        m0, v0 = BASE_BIAS.mean, BASE_BIAS.cov
        cfg = method("CPP-OU", spec=BIAS, base=BASE_BIAS)
        stacks = count_calls(monkeypatch, bone.weighting, "linearize_bank")
        state, m, v, rates = init_agent(cfg), m0, v0, []
        for t, (x, y, _) in enumerate(bias_stream(seed), start=1):
            state, _, _ = bone_step(state, cfg, [x], [y])

            def log_density(u):
                return oracles.blend_log_predictive("linear-gaussian", m, v, m0, v0, u, [1.0, x], y, 0.5)

            u = oracles.cpp_rate_search(log_density, cfg.cpp_steps, cfg.cpp_lr)
            rates.append(u)
            m, v = oracles.blend_update("linear-gaussian", m, v, m0, v0, u, [1.0, x], y, 0.5)
            assert_bank_belief(state.bank, m, v, t, t)
        assert len(stacks) > 0 and min(rates) < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rl_oupr_step(self, seed):
        """RL-OUPR's greedy ratio from the grow and reset densities, its hard
        reset at nu <= epsilon, and the update of the blend at nu."""
        m0, v0 = BASE_BIAS.mean, BASE_BIAS.cov
        pi, eps = 0.1, 0.5
        cfg = method("RL-OUPR", spec=BIAS, base=BASE_BIAS, hazard=HazardSpec(pi), epsilon=eps)
        state, m, v, runlength = init_agent(cfg), m0, v0, 0
        resets = 0
        for t, (x, y, _) in enumerate(bias_stream(seed), start=1):
            state, _, _ = bone_step(state, cfg, [x], [y])
            grow, reset = (
                oracles.blend_log_predictive("linear-gaussian", m, v, m0, v0, r, [1.0, x], y, 0.5)
                for r in (1.0, 0.0)
            )
            nu, rate = oracles.greedy_oupr_rate(grow, reset, pi, eps)
            assert abs(nu - eps) > 1e-9  # the branch is not decided by rounding
            runlength = runlength + 1 if rate > 0.0 else 0
            resets += runlength == 0
            m, v = oracles.blend_update("linear-gaussian", m, v, m0, v0, rate, [1.0, x], y, 0.5)
            assert_bank_belief(state.bank, m, v, runlength, t)
        assert resets > 0, "no hard reset ran"


# every method on the bias basis, and C-Static with a robust update
BIAS_METHODS = {
    "C-Static": ("C-Static", {}),
    "C-Static-wolf": ("C-Static", {"wolf_c": 2.0}),
    "C-ACI": ("C-ACI", {"alpha": 0.05}),
    "C-OU": ("C-OU", {"gamma": 0.9}),
    "CPP-OU": ("CPP-OU", {}),
    "RL-PR[K]": ("RL-PR[K]", {"hazard": HazardSpec(0.1), "capacity": 4}),
    "RL-PR[inf]": ("RL-PR[inf]", {"hazard": HazardSpec(0.1)}),
    "WoLF+RL-PR": ("WoLF+RL-PR", {"hazard": HazardSpec(0.1), "capacity": 4, "wolf_c": 2.0}),
    "RL-MMPR": ("RL-MMPR", {"hazard": HazardSpec(0.1), "capacity": 4}),
    "RL-OUPR": ("RL-OUPR", {"hazard": HazardSpec(0.1), "epsilon": 0.5}),
}


class TestStepsBuildNoGaussBelief:
    """Steps run on the bank's columns: 20 bone_step calls with a
    prediction and 20 drift_unobserved calls on a two-parameter stream build
    no GaussBelief, for every method."""

    @pytest.mark.parametrize("label", sorted(BIAS_METHODS))
    def test_none_built(self, monkeypatch, label):
        name, kw = BIAS_METHODS[label]
        cfg = method(name, spec=BIAS, base=BASE_BIAS, **kw)
        state = init_agent(cfg)
        stream = bias_stream(0, T=21)
        built = count_calls(monkeypatch, GaussBelief, "__post_init__")
        for (x, y, _), (x_next, _, _) in zip(stream, stream[1:]):
            state, _, _ = bone_step(state, cfg, [x], [y], x_next=[x_next])
            state = drift_unobserved(state, cfg)
        assert state.bank.timestep == 20
        assert len(built) == 0


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call's arguments in the returned list."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_bank_belief(bank, mean, cov, runlength, t, rtol=1e-10):
    """The one hypothesis of ``bank`` against (mean, cov), each within rtol
    of its largest entry.  A rate search's finite difference divides a
    density's rounding by hi - lo, so two searches may differ in u by about
    1e-11, which moves every entry of the blend by about that much: an
    off-diagonal entry 100 times smaller than the diagonal would fail an
    entrywise rtol that the whole matrix meets."""
    assert bank.timestep == t and bank.runlengths.tolist() == [runlength]
    for got, want in ((bank.means[0], mean), (bank.covs[0], cov)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * np.abs(want).max())


class TestOneParameterFloatPaths:
    """The scorer's float densities, in CPP-OU's rate search and RL-OUPR's
    greedy ratio, build the banks that the array paths build, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "name,kw,family",
        [
            # bernoulli-logit is the one family with float densities
            ("RL-OUPR", {"hazard": HazardSpec(0.3), "epsilon": 0.5}, "bernoulli-logit"),
            ("CPP-OU", {}, "bernoulli-logit"),
        ],
    )
    def test_banks_equal_the_array_paths(self, monkeypatch, name, kw, family, seed):
        cfg = method(name, spec=ONE_PARAMETER[family][0], base=BASE1, **kw)
        stream = one_parameter_stream(family, seed)

        def run():
            state, banks = init_agent(cfg), []
            for x, y, _ in stream:
                state, _, _ = bone_step(state, cfg, [x], [y])
                banks.append(state.bank)
            return banks

        floats = run()
        monkeypatch.setattr(bone.weighting, "scalar_point", lambda *args: None)  # stacks only
        for got, want in zip(floats, run(), strict=True):
            assert_same_bank(got, want)


def outcome(fn):
    """fn's value, or the type and message of what it raised, and the
    RuntimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except Exception as exc:  # compared as a value
            value = (type(exc), str(exc))
    return value, [(w.category, str(w.message)) for w in caught if w.category is RuntimeWarning]


NAN, HUGE = float("nan"), 1.7e308


def drifted_bytes(mean, var):
    """The bytes of a drifted one-parameter bank's means and covs."""
    return np.array([[mean]]).tobytes(), np.array([[[var]]]).tobytes()


# id -> (method, method and prior keywords, base prior, mean, variance, and
# the outcome of building the bank and drifting it: the drifted bytes or what
# was raised, and the RuntimeWarnings)
DRIFT_FALLBACKS = {
    "aci-nan-mean": (
        "C-ACI", {"alpha": 0.2}, BASE1, NAN, 1.0, ((ValueError, "means contain NaN"), []),
    ),
    "aci-tiny-variance": (
        "C-ACI", {"alpha": 0.0}, BASE1, 0.1, 1e-12, (drifted_bytes(0.1, 1e-12), []),
    ),
    "aci-overflowing-inflation": (
        "C-ACI", {"alpha": 1e308}, BASE1, 0.1, HUGE,
        (drifted_bytes(0.1, math.inf), [(RuntimeWarning, "overflow encountered in add")]),
    ),
}
BERN = ONE_PARAMETER["bernoulli-logit"][0]
TINY_BASE = GaussBelief([0.3], [[1e-12]])
TINY_LINEAR = MeasurementSpec("linear-gaussian", obs_noise=[[1e-14]])
# id -> (spec, base prior, belief, x, y)
DENSITY_FALLBACKS = {
    "linear-nan-mean": (LINEAR, BASE1, BASE1, NAN, 0.5),
    "bernoulli-nan-mean": (BERN, BASE1, BASE1, NAN, 1.0),
    "linear-tiny-variance": (TINY_LINEAR, TINY_BASE, GaussBelief([0.2], [[1e-14]]), 1.0, 0.5),
    "bernoulli-tiny-variance": (
        BERN, GaussBelief([40.0], [[1e-14]]), GaussBelief([38.0], [[1e-14]]), 1.0, 1.0
    ),
    "linear-overflowing-variance": (LINEAR, BASE1, GaussBelief([0.2], [[1e308]]), 10.0, 0.5),
    "bernoulli-overflowing-variance": (BERN, BASE1, GaussBelief([0.2], [[1e308]]), 10.0, 1.0),
    "bernoulli-overflowing-logit": (BERN, BASE1, GaussBelief([-800.0], [[1.0]]), 1.0, 1.0),
    "linear-zero-density": (LINEAR, BASE1, GaussBelief([0.2], [[2.0]]), 1.0, 1e200),
    "bernoulli-zero-density": (BERN, BASE1, GaussBelief([0.2], [[2.0]]), 1.0, 1e200),
}


class TestOneParameterFallbacks:
    """Inputs outside the range where the array checks pass trivially hand
    the float densities back to the arrays: the same exception and message,
    the same RuntimeWarnings, the same values.  The drift has no float path;
    its cases pin the array drift's outcome at those inputs, where a NaN
    belief is rejected by the public bank constructor."""

    @pytest.mark.parametrize("case", sorted(DRIFT_FALLBACKS))
    def test_drift(self, case):
        name, kw, base, m, v, want = DRIFT_FALLBACKS[case]
        cfg = method(name, base=base, **kw)

        def drift():
            bank = HypothesisBank(np.array([0]), np.zeros(1), np.array([[m]]), np.array([[[v]]]))
            got = drift_unobserved(AgentState(bank=bank), cfg).bank
            return got.means.tobytes(), got.covs.tobytes()

        assert outcome(drift) == want

    @pytest.mark.parametrize("case", sorted(DENSITY_FALLBACKS))
    def test_rl_oupr_densities(self, monkeypatch, case):
        """The densities the step hands to greedy_ratio are those of the
        tracked belief and the base prior, each scored alone, and warn
        alike (one 2-row stack warns once where two calls each warn)."""
        spec, base, belief, x, y = DENSITY_FALLBACKS[case]
        cfg = method("RL-OUPR", spec=spec, base=base, hazard=HazardSpec(0.3), epsilon=0.5)
        # linear models score as a stack, and the bernoulli floats hand back
        assert (scalar_point(spec, [x], [y], belief.dim) is None) == (spec is not BERN)
        stacks = count_calls(monkeypatch, bone.weighting, "linearize_bank")
        bank = HypothesisBank(np.array([0]), np.zeros(1), belief.mean[None], belief.cov[None])

        class Densities(Exception):
            pass

        def ratio(p_grow, p_reset, hazard):
            raise Densities(float(p_grow), float(p_reset))

        def step():
            try:
                bone_step(AgentState(bank=bank), cfg, [x], [y])
            except Densities as got:
                return got.args

        def alone():
            return tuple(predictive_log_density(spec, b, [x], [y]) for b in (belief, base))

        monkeypatch.setattr(bone.agents, "greedy_ratio", ratio)
        (got, got_warnings), (want, want_warnings) = outcome(step), outcome(alone)
        assert repr(got) == repr(want)  # NaN-safe, and a float's repr is its value
        assert set(got_warnings) == set(want_warnings)
        assert len(stacks) == 1


# family -> (spec, base prior, tracked mean, anchor) of the reset-boundary test
BOUNDARY_CASES = {
    # no float scorer: the array hand-back, whose reset moves the anchor to x
    "segment-poly": (
        MeasurementSpec("segment-poly-gaussian", obs_noise=[[0.5]]),
        GaussBelief(np.zeros(3), 2.0 * np.eye(3)),
        [0.5, -0.25, 1.0],
        0.7,
    ),
    # the float path
    "bernoulli-logit": (MeasurementSpec("bernoulli-logit"), BASE1, [1.25], None),
}


class TestHardResetBoundary:
    """RL-OUPR resets exactly when nu <= epsilon: at nu = epsilon the step
    updates the base prior at runlength 0 and re-anchors a segment model at
    x; one float above epsilon it updates the blend at nu, grows the
    runlength and keeps the anchor."""

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("family", sorted(BOUNDARY_CASES))
    def test_reset_iff_nu_at_most_epsilon(self, monkeypatch, family, eps, above):
        spec, base, mean, anchor = BOUNDARY_CASES[family]
        cfg = method("RL-OUPR", spec=spec, base=base, hazard=HazardSpec(0.3), epsilon=eps)
        mean, cov = np.array(mean), 0.5 * np.eye(base.dim)
        anchors = None if anchor is None else np.array([anchor])
        bank = HypothesisBank(np.array([4]), np.zeros(1), mean[None], cov[None], anchors, timestep=6)
        x, y = [1.3], [1.0]
        # the float path serves exactly the models with a scalar point
        assert (scalar_point(spec, x, y, base.dim) is None) == (anchor is not None)
        nu = math.nextafter(eps, 2.0) if above else eps
        monkeypatch.setattr(bone.agents, "greedy_ratio", lambda *args: nu)
        got = bone_step(AgentState(bank=bank), cfg, x, y)[0].bank

        if above:
            q = nu * nu
            prior = nu * mean + (1.0 - nu) * base.mean, q * cov + (1.0 - q) * base.cov
            runlength = 5
        else:
            prior, runlength = (base.mean, base.cov), 0
            anchor = None if anchor is None else x[0]
        want_means, want_covs = lg_update(prior[0][None], prior[1][None], spec, x, y, anchor)
        assert got.timestep == 7 and got.runlengths.tolist() == [runlength]
        assert got.means.tobytes() == want_means.tobytes()
        assert got.covs.tobytes() == want_covs.tobytes()
        if anchor is None:
            assert got.anchors is None
        else:
            assert got.anchors.tolist() == [anchor]

    def test_segment_densities_take_their_own_anchors(self, monkeypatch):
        """The grow density is scored under the tracked anchor and the reset
        density under the fresh anchor x, each bit for bit as one belief
        scored alone."""
        spec, base, mean, anchor = BOUNDARY_CASES["segment-poly"]
        cfg = method("RL-OUPR", spec=spec, base=base, hazard=HazardSpec(0.3), epsilon=0.5)
        belief = GaussBelief(np.array(mean), 0.5 * np.eye(3))
        bank = HypothesisBank(
            np.array([4]), np.zeros(1), belief.mean[None], belief.cov[None], np.array([anchor]), 6
        )
        x, y = [1.3], [1.0]
        seen = []

        def ratio(*args):
            seen.append(args[:2])
            return greedy_ratio(*args)

        monkeypatch.setattr(bone.agents, "greedy_ratio", ratio)
        bone_step(AgentState(bank=bank), cfg, x, y)
        [(p_grow, p_reset)] = seen
        assert float(p_grow).hex() == predictive_log_density(spec, belief, x, y, anchor).hex()
        assert float(p_reset).hex() == predictive_log_density(spec, base, x, y, anchor=x[0]).hex()
        assert p_reset != predictive_log_density(spec, base, x, y, anchor)
