import contextlib
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bone.priors
import bone.weighting
from bone.agents import MethodConfig, bone_step, init_agent
from bone.core import (
    GaussBelief,
    NumericDomainError,
    eigen_floor,
    gaussian_log_pdf_batch,
    logsumexp,
)
from bone.measurement import (
    MeasurementSpec,
    _free_obs,
    linearize_bank,
    predictive_log_density,
)
from bone.posterior import _imq_weights, lg_update_arrays
from bone.priors import PriorPolicy, mmpr_prior
from bone.weighting import (
    HazardSpec,
    HypothesisBank,
    cpp_empirical_bayes,
    greedy_ratio,
    prune_topk,
    rl_step,
)
from oracles import runlength_posterior_bruteforce

LINEAR = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
BASE = GaussBelief([0.0], [[1.0]])
RLPR = PriorPolicy("rl-prior-reset", BASE)
SEGMENT = MeasurementSpec("segment-poly-gaussian", obs_noise=[[0.5]])

# (spec, feature dimension) per family for the search oracle
ONE_PARAMETER_SPECS = {
    "linear": (MeasurementSpec("linear-gaussian", obs_noise=[[0.5]]), 1),
    "bernoulli": (MeasurementSpec("bernoulli-logit"), 1),
}
STACKED_SPECS = {
    "poly2": (MeasurementSpec("linear-gaussian", obs_noise=[[0.5]], feature_map="poly2"), 1),
    "bernoulli-bias": (MeasurementSpec("bernoulli-logit", feature_map="bias"), 1),
    "categorical": (MeasurementSpec("categorical-softmax", out_dim=3), 2),
    "mlp": (MeasurementSpec("mlp-gaussian", obs_noise=[[0.5]], in_dim=2, hidden=(3,)), 2),
    "segment": (SEGMENT, 1),
}


@contextlib.contextmanager
def counting(*names):
    """Count the calls of the named ``bone.weighting`` globals while open."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with contextlib.ExitStack() as stack:
        for name in names:
            fn = getattr(bone.weighting, name)
            stack.enter_context(mock.patch.object(bone.weighting, name, counted(name, fn)))
        yield calls


def _reference_cpp(prev, base, spec, x, y, steps, lr, anchor=None, u=1.0):
    """Reference search: one predictive_log_density call, on its own
    GaussBelief, per point of every difference, and all ``steps`` iterations
    run.  Starts from ``u``; also returns the largest |log density| of the
    last iteration (at least 1) and its width hi - lo."""

    def objective(u):
        mean = u * prev.mean + (1.0 - u) * base.mean
        cov = u * u * prev.cov + (1.0 - u * u) * base.cov
        return predictive_log_density(spec, GaussBelief(mean, cov), x, y, anchor)

    h = 1e-4
    for _ in range(steps):
        hi = min(u + h, 1.0)
        lo = max(u - h, 0.0)
        if hi == lo:
            break
        f_hi, f_lo = objective(hi), objective(lo)
        g = (f_hi - f_lo) / (hi - lo)
        u = min(1.0, max(0.0, u + lr * g))
    return u, max(1.0, abs(f_hi), abs(f_lo)), hi - lo


def columns(belief):
    """A belief as a single-hypothesis bank's columns (1, m) and (1, m, m)."""
    return belief.mean[None], belief.cov[None]


def _search_case(seed, spec, x_dim):
    """Random prev and base beliefs, feature, observation and anchor."""
    rng = np.random.default_rng(seed)
    x = 1.5 * rng.normal(size=x_dim)
    m = spec.param_count(x)

    def belief():
        a = rng.normal(size=(m, m))
        return GaussBelief(rng.normal(size=m), a @ a.T / m + rng.uniform(0.01, 0.2) * np.eye(m))

    if spec.family == "bernoulli-logit":
        y = [float(rng.integers(2))]
    elif spec.family == "categorical-softmax":
        y = [float(rng.integers(spec.out_dim))]
    else:
        y = [2.0 * rng.normal()]
    anchor = float(rng.normal()) if spec.family == "segment-poly-gaussian" else None
    return belief(), belief(), x, y, anchor


def _reference_rl_step(bank, hazard, spec, policy, x, y, wolf_c=None, capacity=None):
    """Reference step: update all k + 1 candidates as one stack, then prune_topk
    to ``capacity`` (None keeps all)."""
    pi = hazard.pi
    base = policy.base_prior
    reset_mean, reset_cov = mmpr_prior(bank) if policy.kind == "rl-mmpr" else (base.mean, base.cov)
    means = np.concatenate([bank.means, reset_mean[None, :]])
    covs = np.concatenate([bank.covs, reset_cov[None, :, :]])
    anchors = None
    if spec.family == "segment-poly-gaussian":
        x_now = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
        anchors = np.concatenate([bank.anchors, [x_now]])
    yhats, jacs, Rs = linearize_bank(spec, means, x, anchors)
    yv = _free_obs(spec, y)
    if wolf_c is not None:
        W = _imq_weights(yv[None, :] - yhats, np.ascontiguousarray(Rs), wolf_c)
        Rs = Rs / (W * W)[:, None, None]
    new_means, new_covs, S, _ = lg_update_arrays(means, covs, jacs, yhats, yv, Rs)
    log_preds = gaussian_log_pdf_batch(yv, yhats, S)
    grow_joints = bank.log_joints + log_preds[:-1] + np.log1p(-pi)
    reset_joint = log_preds[-1] + logsumexp(bank.log_joints + np.log(pi))
    out = HypothesisBank(
        runlengths=np.concatenate([bank.runlengths + 1, [0]]),
        log_joints=np.concatenate([grow_joints, [reset_joint]]),
        means=new_means,
        covs=new_covs,
        anchors=anchors,
        timestep=bank.timestep + 1,
    )
    return out if capacity is None else prune_topk(out, capacity)


# (spec, feature dimension) per family for the select-then-update oracle
ORACLE_SPECS = {
    "poly2": (MeasurementSpec("linear-gaussian", obs_noise=[[0.5]], feature_map="poly2"), 1),
    "mlp": (MeasurementSpec("mlp-gaussian", obs_noise=[[0.5]], in_dim=2, hidden=(3,)), 2),
    "segment": (SEGMENT, 1),
    "categorical": (MeasurementSpec("categorical-softmax", out_dim=3), 2),
}


def _random_bank(rng, m, size, tied, segmental):
    """A bank of ``size`` distinct runlengths with random SPD beliefs; when
    ``tied`` every hypothesis shares one belief and one log-joint."""
    timestep = size + int(rng.integers(0, 4))
    runlengths = np.sort(rng.choice(timestep + 1, size=size, replace=False))
    a = rng.normal(size=(size, m, m))
    covs = a @ a.transpose(0, 2, 1) / m + rng.uniform(0.05, 0.5) * np.eye(m)
    means = rng.normal(size=(size, m))
    log_joints = rng.normal(size=size) - 2.0
    if tied:
        covs[:] = covs[0]
        means[:] = means[0]
        log_joints[:] = log_joints[0]
    return HypothesisBank(
        runlengths=runlengths,
        log_joints=log_joints,
        means=means,
        covs=covs,
        anchors=rng.normal(size=size) if segmental else None,
        timestep=timestep,
    )


def _bank_fields(bank):
    return (bank.runlengths, bank.log_joints, bank.means, bank.covs, bank.anchors,
            bank.timestep)


def _assert_same_bank(got, want):
    for g, w in zip(_bank_fields(got), _bank_fields(want)):
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray) and g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        else:
            assert g == w


def run_bank(xs, ys, pi, capacity=None, base=BASE, wolf_c=None):
    bank = HypothesisBank.root(base)
    hazard = HazardSpec(pi)
    for x, y in zip(xs, ys):
        bank = rl_step(bank, hazard, LINEAR, RLPR, [x], [y], wolf_c=wolf_c, capacity=capacity)
    return bank


class TestRlStep:
    def test_first_step_splits_mass_by_evidence(self):
        pi = 0.25
        x, y = 1.3, 0.7
        bank = run_bank([x], [y], pi)
        assert bank.size == 2
        assert set(bank.runlengths.tolist()) == {0, 1}
        evidence = predictive_log_density(LINEAR, BASE, [x], [y])
        assert logsumexp(bank.log_joints) == pytest.approx(evidence, abs=1e-12)
        # growth carries (1 - pi), reset carries pi
        j = dict(zip(bank.runlengths.tolist(), bank.log_joints.tolist()))
        assert j[1] - j[0] == pytest.approx(np.log((1 - pi) / pi), abs=1e-12)

    def test_three_step_posterior_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        pi = 0.2
        xs = rng.normal(size=3).tolist()
        ys = rng.normal(size=3).tolist()
        bank = run_bank(xs, ys, pi)
        oracle = runlength_posterior_bruteforce(xs, ys, 0.0, 1.0, 1.0, pi)
        got = dict(zip(bank.runlengths.tolist(), bank.weights.tolist()))
        tv = 0.5 * sum(
            abs(got.get(r, 0.0) - oracle.get(r, 0.0))
            for r in set(got) | set(oracle)
        )
        assert tv < 1e-10

    def test_modal_runlength_resets_after_jump(self):
        # stationary segment, then a 10-sigma level shift
        rng = np.random.default_rng(5)
        theta_a, theta_b = 0.5, 10.5
        xs = np.ones(40)
        ys = np.concatenate(
            [theta_a + rng.normal(size=20), theta_b + rng.normal(size=20)]
        )
        bank = HypothesisBank.root(GaussBelief([0.0], [[25.0]]))
        hazard = HazardSpec(0.01)
        modes = []
        for x, y in zip(xs, ys):
            bank = rl_step(bank, hazard, LINEAR, RLPR, [x], [y])
            modes.append(bank.map_runlength)
        # mode tracks t before the jump, drops to 0 within 3 steps after it
        assert modes[19] == 20
        assert 0 in [m for m in modes[20:23]]

    def test_weights_normalized_after_every_step(self):
        rng = np.random.default_rng(1)
        bank = HypothesisBank.root(BASE)
        hazard = HazardSpec(0.1)
        for t in range(30):
            bank = rl_step(bank, hazard, LINEAR, RLPR, [rng.normal()], [rng.normal()])
            assert bank.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert bank.size == t + 2

    def test_capacity_prunes_and_matches_unbounded_when_roomy(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=12).tolist()
        ys = rng.normal(size=12).tolist()
        full = run_bank(xs, ys, 0.05)
        roomy = run_bank(xs, ys, 0.05, capacity=64)
        np.testing.assert_array_equal(full.runlengths, roomy.runlengths)
        np.testing.assert_array_equal(full.log_joints, roomy.log_joints)  # bit-path
        np.testing.assert_array_equal(full.means, roomy.means)
        small = run_bank(xs, ys, 0.05, capacity=3)
        assert small.size == 3

    @given(
        st.sampled_from(sorted(ORACLE_SPECS)),
        st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["rl-prior-reset", "rl-mmpr"]),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_select_then_update_matches_update_then_prune(
        self, family, K, size, kind, robust, tied, seed
    ):
        """rl_step gives the bits of updating all k + 1 candidates and then
        pruning, whether the bank is full (select first), not yet full, or
        unbounded (K None)."""
        spec, x_dim = ORACLE_SPECS[family]
        rng = np.random.default_rng(seed)
        m = spec.param_count(np.zeros(x_dim))
        segmental = spec.family == "segment-poly-gaussian"
        base = GaussBelief(rng.normal(size=m), rng.uniform(0.5, 2.0) * np.eye(m))
        policy = PriorPolicy(kind, base)
        wolf_c = 1.5 if robust and spec.is_gaussian else None
        hazard = HazardSpec(float(rng.uniform(0.01, 0.5)))
        bank = _random_bank(rng, m, size if K is None else min(size, K), tied, segmental)
        want = bank
        for _ in range(4):
            x = 1.5 * rng.normal(size=x_dim)
            if spec.family == "categorical-softmax":
                y = [float(rng.integers(spec.out_dim))]
            else:
                y = [float(2.0 * rng.normal())]
            before = [np.copy(f) for f in _bank_fields(bank)[:5] if f is not None]
            got = rl_step(bank, hazard, spec, policy, x, y, wolf_c=wolf_c, capacity=K)
            for f, b in zip([f for f in _bank_fields(bank)[:5] if f is not None], before):
                np.testing.assert_array_equal(f, b)  # the input bank is not written
            want = _reference_rl_step(want, hazard, spec, policy, x, y, wolf_c, K)
            _assert_same_bank(got, want)
            bank = got

    def test_tied_log_joints_keep_the_larger_runlength(self):
        # two identical hypotheses whose growth candidates tie exactly; the
        # reset prior is their belief and the hazard is high, so the reset
        # outweighs both and one tied candidate must go
        rng = np.random.default_rng(4)
        bank = _random_bank(rng, 1, 2, tied=True, segmental=False)
        policy = PriorPolicy("rl-prior-reset", GaussBelief(bank.means[0], bank.covs[0]))
        hazard = HazardSpec(0.9)
        got = rl_step(bank, hazard, LINEAR, policy, [1.0], [0.2], capacity=2)
        want = _reference_rl_step(bank, hazard, LINEAR, policy, [1.0], [0.2], capacity=2)
        _assert_same_bank(got, want)
        assert got.runlengths.tolist() == [bank.runlengths.max() + 1, 0]

    def test_full_bank_step_allocates_under_three_covariance_stacks(self):
        # the 97-parameter MLP of the mlp-segments benchmark, full at K = 10
        spec = MeasurementSpec("mlp-gaussian", obs_noise=[[0.01]], in_dim=1, hidden=(8, 8))
        m = spec.param_count()
        rng = np.random.default_rng(0)
        bank = _random_bank(rng, m, 10, tied=False, segmental=False)
        policy = PriorPolicy("rl-prior-reset", GaussBelief(rng.normal(size=m), np.eye(m)))
        hazard = HazardSpec(0.01)
        assert bank.covs.shape == (10, 97, 97)
        rl_step(bank, hazard, spec, policy, [0.3], [0.1], capacity=10)  # warm caches
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            out = rl_step(bank, hazard, spec, policy, [0.3], [0.1], capacity=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.size == 10
        assert peak - base < 3 * bank.covs.nbytes

    @pytest.mark.parametrize("capacity", [None, 2])
    def test_zero_density_everywhere_is_a_numeric_failure(self, capacity):
        bank = run_bank([0.5, 1.0], [0.2, -0.1], 0.1, capacity)
        with pytest.raises(NumericDomainError, match="zero density"), np.errstate(over="ignore"):
            rl_step(bank, HazardSpec(0.1), LINEAR, RLPR, [1.0], [1e200])

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity must be a positive integer"):
            rl_step(HypothesisBank.root(BASE), HazardSpec(0.1), LINEAR, RLPR, [0.0], [0.0],
                    capacity=0)

    def test_empty_bank_rejected(self):
        with pytest.raises(Exception):
            rl_step(
                HypothesisBank.root(BASE),
                HazardSpec(0.1),
                LINEAR,
                PriorPolicy("static", BASE),
                [0.0],
                [0.0],
            )


MLP = MeasurementSpec("mlp-gaussian", obs_noise=[[0.01]], in_dim=1, hidden=(8, 8))


def _mlp_banks(kind, steps, mp=None, calls=None):
    """The banks of a K = 10 runlength method over the 97-parameter MLP of
    the mlp-segments benchmark, from the root; with ``calls``, the shape of
    every np.linalg.cholesky call after init_agent is appended to it."""
    rng = np.random.default_rng(7)
    m = MLP.param_count()
    base = GaussBelief(rng.normal(size=m) / 3.0, np.eye(m))
    name = "RL-PR[K]" if kind == "rl-prior-reset" else "RL-MMPR"
    cfg = MethodConfig(name, MLP, PriorPolicy(kind, base), hazard=HazardSpec(0.05), capacity=10)
    state = init_agent(cfg)
    if calls is not None:
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return cholesky(a, *args, **kwargs)

        mp.setattr(np.linalg, "cholesky", counting)
    banks = [state.bank]
    xs = np.linspace(0.0, 3.0, steps)
    for x, y in zip(xs, np.sin(2.0 * xs) + 0.1 * rng.normal(size=steps)):
        state, _, _ = bone_step(state, cfg, [x], [y])
        banks.append(state.bank)
    return banks


class TestCarriedFloors:
    """RL-PR banks over the 97-parameter MLP carry eigenvalue floors, which
    certify each d = 1 posterior in place of LAPACK."""

    def test_rl_pr_makes_no_cholesky_call_after_init(self, monkeypatch):
        calls = []
        banks = _mlp_banks("rl-prior-reset", 30, monkeypatch, calls)
        assert calls == []
        root = banks[0]
        assert root.floors.tolist() == [eigen_floor(root.covs[0])] and root.floors[0] > 0.0
        assert banks[-1].size == 10
        assert all((bank.floors > 0.0).all() for bank in banks)

    def test_banks_equal_those_certified_without_floors(self, monkeypatch):
        banks = _mlp_banks("rl-prior-reset", 30)
        monkeypatch.setattr(bone.priors, "FLOOR_DIM", sys.maxsize)
        plain = _mlp_banks("rl-prior-reset", 30)
        assert plain[-1].floors is None
        for got, want in zip(banks, plain):
            _assert_same_bank(got, want)

    def test_rl_mmpr_carries_no_floors(self, monkeypatch):
        # its moment-matched reset has no known floor, so its bank keeps LAPACK
        calls = []
        banks = _mlp_banks("rl-mmpr", 12, monkeypatch, calls)
        assert all(bank.floors is None for bank in banks)
        assert calls and set(calls) == {(1, 97, 97)}

    @pytest.mark.parametrize("capacity", [None, 5])
    def test_public_constructor_copy_steps_without_floors(self, monkeypatch, capacity):
        # a bank from the public constructor carries no floors: rl_step
        # certifies its posteriors by LAPACK, one Cholesky call per 97 x 97
        # matrix, and gives the floored bank's beliefs bit for bit
        grown = _mlp_banks("rl-prior-reset", 6)[-1]
        copy = HypothesisBank(grown.runlengths, grown.log_joints, grown.means, grown.covs,
                              timestep=grown.timestep)
        assert grown.floors is not None and copy.floors is None
        policy = PriorPolicy("rl-prior-reset", GaussBelief(np.zeros(97), np.eye(97)))
        hazard = HazardSpec(0.05)
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        floored = rl_step(grown, hazard, MLP, policy, [0.3], [0.1], capacity=capacity)
        assert calls == [] and floored.floors is not None
        out = rl_step(copy, hazard, MLP, policy, [0.3], [0.1], capacity=capacity)
        assert out.floors is None
        assert calls == [(1, 97, 97)] * (capacity or grown.size + 1)
        for name in ("runlengths", "log_joints", "means", "covs"):
            got, want = getattr(out, name), getattr(floored, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_prune_topk_keeps_each_rows_floor(self):
        bank = _mlp_banks("rl-prior-reset", 12)[-1]
        pruned = prune_topk(bank, 4)
        floor_of = dict(zip(bank.runlengths.tolist(), bank.floors.tolist()))
        assert pruned.floors.tolist() == [floor_of[r] for r in pruned.runlengths.tolist()]
        assert pruned.floors.tolist() != bank.floors[:4].tolist()  # not the first four

    def test_step_with_floor_0_rows_allocates_under_three_covariance_stacks(self):
        # a stack with floor-0 rows goes to LAPACK one Cholesky slice at a time
        bank = _mlp_banks("rl-prior-reset", 12)[-1]
        floors = bank.floors.copy()
        floors[::2] = 0.0
        bank = HypothesisBank._trusted(
            bank.runlengths, bank.log_joints, bank.means, bank.covs, bank.anchors,
            bank.timestep, floors,
        )
        policy = PriorPolicy("rl-prior-reset", GaussBelief(np.zeros(97), np.eye(97)))
        hazard = HazardSpec(0.05)
        rl_step(bank, hazard, MLP, policy, [0.3], [0.1], capacity=10)  # warm caches
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            rl_step(bank, hazard, MLP, policy, [0.3], [0.1], capacity=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 3 * bank.covs.nbytes


class TestPruneTopk:
    def bank3(self):
        return HypothesisBank(
            runlengths=np.array([2, 1, 0]),
            log_joints=np.log([0.7, 0.2, 0.1]),
            means=np.array([[1.0], [2.0], [3.0]]),
            covs=np.ones((3, 1, 1)),
            timestep=2,
        )

    def test_large_k_is_noop(self):
        bank = self.bank3()
        assert prune_topk(bank, 3) is bank
        assert prune_topk(bank, 5) is bank

    def test_keeps_top_two_and_renormalizes(self):
        out = prune_topk(self.bank3(), 2)
        assert set(out.runlengths.tolist()) == {2, 1}
        np.testing.assert_allclose(sorted(out.weights, reverse=True), [7 / 9, 2 / 9])

    def test_k_one_keeps_map(self):
        out = prune_topk(self.bank3(), 1)
        assert out.runlengths.tolist() == [2]
        assert out.weights == pytest.approx([1.0])

    def test_tie_break_prefers_larger_runlength(self):
        bank = HypothesisBank(
            runlengths=np.array([3, 7]),
            log_joints=np.array([-1.0, -1.0]),
            means=np.zeros((2, 1)),
            covs=np.ones((2, 1, 1)),
            timestep=7,
        )
        out = prune_topk(bank, 1)
        assert out.runlengths.tolist() == [7]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            prune_topk(self.bank3(), 0)


class TestGreedyRatio:
    def test_equal_densities_gives_one_minus_pi(self):
        for pi in (0.01, 0.3, 0.9):
            assert greedy_ratio(-1.2, -1.2, HazardSpec(pi)) == pytest.approx(1 - pi)

    def test_vanishing_hazard_gives_one(self):
        assert greedy_ratio(-2.0, -2.0, HazardSpec(1e-15)) == pytest.approx(1.0)

    def test_nine_to_one(self):
        nu = greedy_ratio(np.log(9.0) - 1.0, -1.0, HazardSpec(0.5))
        assert nu == pytest.approx(0.9)

    def test_monotone_in_gap_and_hazard(self):
        gaps = np.linspace(-5, 5, 21)
        nus = [greedy_ratio(g, 0.0, HazardSpec(0.2)) for g in gaps]
        assert all(a < b for a, b in zip(nus, nus[1:]))
        pis = np.linspace(0.05, 0.95, 10)
        nus_pi = [greedy_ratio(0.3, 0.0, HazardSpec(p)) for p in pis]
        assert all(a > b for a, b in zip(nus_pi, nus_pi[1:]))

    def test_double_zero_mass_rejected(self):
        with pytest.raises(NumericDomainError, match="both predictive densities are zero"):
            greedy_ratio(-np.inf, -np.inf, HazardSpec(0.5))

    def test_floats_match_the_array_form_bit_for_bit(self):
        def array_form(p_grow, p_reset, hazard):  # greedy_ratio before it ran on floats
            if np.isinf(p_grow) and np.isinf(p_reset) and p_grow < 0 and p_reset < 0:
                raise NumericDomainError("both predictive densities are zero")
            pi = hazard.pi
            lg = p_grow + np.log1p(-pi)
            lr = p_reset + np.log(pi)
            return float(np.exp(lg - logsumexp([lg, lr])))

        rng = np.random.default_rng(16)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 745.0, -745.0, 1e308, -1e308]
        pis = np.concatenate([
            rng.uniform(0.0, 1.0, 50),
            10.0 ** rng.uniform(-300.0, -1.0, 25),  # near 0
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 25),  # near 1
        ])
        raised = 0
        for i in range(12_000):
            hazard = HazardSpec(float(pis[i % pis.size]))
            # gaps from O(1) to 1e6, and a special value in about a third of the pairs
            pair = rng.normal(0.0, 10.0 ** rng.uniform(0.0, 6.0), 2)
            for j in range(2):
                if rng.random() < 0.2:
                    pair[j] = special[rng.integers(len(special))]
            p_grow, p_reset = float(pair[0]), float(pair[1])
            with np.errstate(all="ignore"):  # inf - inf warned in the array form
                try:
                    want = array_form(p_grow, p_reset, hazard)
                except NumericDomainError:
                    want = None
            if want is None:
                raised += 1
                with pytest.raises(NumericDomainError, match="both predictive densities"):
                    greedy_ratio(p_grow, p_reset, hazard)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = greedy_ratio(p_grow, p_reset, hazard)
            assert type(got) is float
            # float.hex is the bit pattern, with every NaN written "nan"
            assert got.hex() == want.hex(), (p_grow, p_reset, hazard.pi)
        assert raised > 0


class TestCppEmpiricalBayes:
    def test_identical_beliefs_keep_initialization(self):
        out = cpp_empirical_bayes(*columns(BASE), BASE, LINEAR, [1.0], [0.3])
        assert out == 1.0

    @pytest.mark.parametrize(
        "spec,belief,floats,stacks",
        [
            (ONE_PARAMETER_SPECS["bernoulli"][0], BASE, 2, 0),
            (STACKED_SPECS["poly2"][0], GaussBelief(np.zeros(3), np.eye(3)), 0, 1),
        ],
        ids=["float", "stacked"],
    )
    def test_fixed_point_scores_one_pair(self, spec, belief, floats, stacks):
        # prev == base makes the density flat in u, so the first pair is the
        # fixed point: two float densities, or one 2-row stack
        with counting("scalar_log_density", "linearize_bank") as calls:
            assert cpp_empirical_bayes(*columns(belief), belief, spec, [1.0], [0.3]) == 1.0
        assert calls == {"scalar_log_density": floats, "linearize_bank": stacks}

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.01, max_value=2.0),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_scorer_gives_the_stacked_scorers_u(self, seed, steps, lr, tiny):
        spec = ONE_PARAMETER_SPECS["bernoulli"][0]
        prev, base, x, y, _ = _search_case(seed, spec, 1)
        if tiny:  # p (1 - p) < 1e-13 on every blend, which the stack clamps
            f = float(spec.phi(x)[0])
            prev = GaussBelief([30.0 / f], 1e-14 * prev.cov)
            base = GaussBelief([40.0 / f], 1e-14 * base.cov)
        with mock.patch.object(bone.weighting, "scalar_point", lambda *args: None):
            stacked = cpp_empirical_bayes(*columns(prev), base, spec, x, y, steps=steps, lr=lr)
        with counting("scalar_log_density", "linearize_bank") as calls:
            got = cpp_empirical_bayes(*columns(prev), base, spec, x, y, steps=steps, lr=lr)
        assert float(got).hex() == float(stacked).hex()
        if tiny:  # every pair is handed back to the stack
            assert calls["scalar_log_density"] == 2 * calls["linearize_bank"] > 0

    @given(
        st.sampled_from(sorted(ONE_PARAMETER_SPECS)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_exactly_for_one_parameter(self, family, seed, steps, lr):
        spec, x_dim = ONE_PARAMETER_SPECS[family]
        prev, base, x, y, _ = _search_case(seed, spec, x_dim)
        want, _, _ = _reference_cpp(prev, base, spec, x, y, steps, lr)
        assert cpp_empirical_bayes(*columns(prev), base, spec, x, y, steps=steps, lr=lr) == want

    @given(
        st.sampled_from(sorted(STACKED_SPECS)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_iteration_matches_reference_within_rounding(self, family, seed, steps, lr):
        # For m > 1 the stacked matmuls and the batched Cholesky sum in
        # another order than the one-belief path, so each log density may
        # move by a few ulps of its magnitude F.  One iteration then moves u
        # by at most lr * (2 * 16 eps * F) / (hi - lo).  Gradient ascent can
        # amplify that from one iteration to the next, so iteration ``steps``
        # is compared with one reference iteration from the search's own
        # iterate ``steps - 1``, not with the whole reference search.
        spec, x_dim = STACKED_SPECS[family]
        prev, base, x, y, anchor = _search_case(seed, spec, x_dim)
        def search(n):
            return cpp_empirical_bayes(
                *columns(prev), base, spec, x, y, steps=n, lr=lr, anchor=anchor
            )

        start = 1.0 if steps == 1 else search(steps - 1)
        got = search(steps)
        want, scale, width = _reference_cpp(prev, base, spec, x, y, 1, lr, anchor, u=start)
        assert abs(got - want) <= lr * 32 * np.finfo(float).eps * scale / width

    def test_segment_search_uses_the_anchor(self):
        # y is far under prev and likely under base, so the search leaves u = 1
        prev = GaussBelief([0.0, 0.0, 0.0], 0.01 * np.eye(3))
        base = GaussBelief([10.0, 0.0, 0.0], 4.0 * np.eye(3))
        anchor, x, y = 1.0, [1.5], [10.0]
        star = self.grid_argmax(prev, base, x, y, SEGMENT, anchor)
        got = cpp_empirical_bayes(
            *columns(prev), base, SEGMENT, x, y, steps=200, lr=0.02, anchor=anchor
        )
        assert got < 0.5
        assert abs(got - star) < 0.05

    def grid_argmax(self, prev, base, x, y, spec=LINEAR, anchor=None):
        grid = np.linspace(0.0, 1.0, 1001)
        vals = []
        for u in grid:
            mean = u * prev.mean + (1 - u) * base.mean
            cov = u * u * prev.cov + (1 - u * u) * base.cov
            vals.append(predictive_log_density(spec, GaussBelief(mean, cov), x, y, anchor))
        return grid[int(np.argmax(vals))]

    def test_confident_previous_belief_stays_high(self):
        prev = GaussBelief([2.0], [[1e-4]])
        base = GaussBelief([0.0], [[25.0]])
        x, y = [1.0], [2.0]  # y at prev's predictive mode
        star = self.grid_argmax(prev, base, x, y)
        got = cpp_empirical_bayes(*columns(prev), base, LINEAR, x, y, steps=50, lr=0.05)
        assert abs(got - star) < 0.05

    def test_surprising_observation_pulls_toward_reset(self):
        prev = GaussBelief([0.0], [[0.01]])
        base = GaussBelief([10.0], [[4.0]])
        x, y = [1.0], [10.0]  # ~10 sigma under prev, likely under base
        star = self.grid_argmax(prev, base, x, y)
        got = cpp_empirical_bayes(*columns(prev), base, LINEAR, x, y, steps=200, lr=0.02)
        assert got < 0.5
        assert abs(got - star) < 0.05

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_always_in_unit_interval(self, mu, y, steps, lr):
        prev = GaussBelief([mu], [[0.5]])
        out = cpp_empirical_bayes(*columns(prev), BASE, LINEAR, [1.0], [y], steps=steps, lr=lr)
        assert 0.0 <= out <= 1.0


class TestBankSurface:
    def test_duplicate_runlengths_rejected(self):
        with pytest.raises(ValueError):
            HypothesisBank(
                runlengths=np.array([1, 1]),
                log_joints=np.zeros(2),
                means=np.zeros((2, 1)),
                covs=np.ones((2, 1, 1)),
                timestep=1,
            )

    def test_nan_log_joint_rejected(self):
        with pytest.raises(ValueError):
            HypothesisBank(
                runlengths=np.array([0]),
                log_joints=np.array([np.nan]),
                means=np.zeros((1, 1)),
                covs=np.ones((1, 1, 1)),
            )

    @pytest.mark.parametrize(
        "means,covs",
        [
            (np.zeros((1, 3)), np.ones((1, 2, 2))),
            (np.zeros((1, 2)), np.ones((1, 2, 3))),
            (np.zeros((1, 2)), np.ones((1, 2))),
            (np.zeros((1, 1, 1)), np.ones((1, 1, 1))),
        ],
    )
    def test_public_constructor_rejects_covs_not_matching_means(self, means, covs):
        with pytest.raises(ValueError, match=r"are not \(k, m\) and \(k, m, m\)"):
            HypothesisBank([0], [0.0], means, covs)

    def test_public_constructor_stores_symmetric_covariances(self):
        a = np.random.default_rng(0).normal(size=(4, 3, 3))
        sym = (a + a.transpose(0, 2, 1)) / 2.0
        columns = (np.arange(4), np.zeros(4), np.zeros((4, 3)))
        np.testing.assert_array_equal(HypothesisBank(*columns, a, timestep=3).covs, sym)
        assert HypothesisBank(*columns, sym, timestep=3).covs.tobytes() == sym.tobytes()

    def test_rl_step_builds_its_bank_without_the_public_constructor(self, monkeypatch):
        checked = []
        post_init = HypothesisBank.__post_init__
        monkeypatch.setattr(
            HypothesisBank, "__post_init__", lambda bank: checked.append(bank) or post_init(bank)
        )
        bank = HypothesisBank.root(BASE)
        rng = np.random.default_rng(4)
        for _ in range(6):  # two steps that grow the bank, then full-bank steps at K = 3
            bank = rl_step(bank, HazardSpec(0.2), LINEAR, RLPR, [1.0], [rng.normal()], capacity=3)
        assert len(checked) == 1  # root() alone
        public = HypothesisBank(
            bank.runlengths, bank.log_joints, bank.means, bank.covs, bank.anchors, bank.timestep
        )
        for name in ("runlengths", "log_joints", "means", "covs"):
            got, want = getattr(bank, name), getattr(public, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rl_step_rejects_a_nan_log_joint(self, monkeypatch):
        def nan_density(y, means, covs):
            return np.full(means.shape[0], np.nan)

        monkeypatch.setattr(bone.weighting, "gaussian_log_pdf_batch", nan_density)
        with pytest.raises(NumericDomainError, match="log_joints contain NaN"):
            rl_step(HypothesisBank.root(BASE), HazardSpec(0.2), LINEAR, RLPR, [1.0], [0.5])

    def test_posterior_rows_export(self):
        from bone.weighting import runlength_posterior_rows

        posterior = []
        bank = HypothesisBank.root(BASE)
        hazard = HazardSpec(0.2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            bank = rl_step(bank, hazard, LINEAR, RLPR, [rng.normal()], [rng.normal()])
            posterior.append((bank.timestep, bank.runlengths, bank.log_weights))
        rows = list(runlength_posterior_rows(posterior))
        assert len(rows) == 2 + 3 + 4 + 5
        by_t = {}
        for t, r, lp in rows:
            by_t.setdefault(t, []).append(lp)
            assert r <= t
        for t, lps in by_t.items():
            assert np.exp(lps).sum() == pytest.approx(1.0, abs=1e-12)


class TestStationaryStream:
    def test_modal_runlength_tracks_time(self):
        # stationary linear-Gaussian data, tiny hazard: the mode should sit
        # at the maximal runlength at every step for nearly every seed
        ok = 0
        hazard = HazardSpec(1e-4)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            theta = rng.normal()
            bank = HypothesisBank.root(BASE)
            good = True
            for t in range(1, 201):
                x = rng.normal()
                y = theta * x + rng.normal()
                bank = rl_step(bank, hazard, LINEAR, RLPR, [x], [y])
                if bank.map_runlength != t:
                    good = False
                    break
            ok += good
        assert ok >= 48  # >= 95% of 50 seeds
