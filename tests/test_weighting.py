import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bone.measurement
import bone.weighting
from bone.core import GaussBelief, NumericDomainError, gaussian_log_pdf_batch, logsumexp
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
    reset = mmpr_prior(bank) if policy.kind == "rl-mmpr" else policy.base_prior
    means = np.concatenate([bank.means, reset.mean[None, :]])
    covs = np.concatenate([bank.covs, reset.cov[None, :, :]])
    anchors = None
    if spec.family == "segment-poly-gaussian":
        x_now = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
        anchors = np.concatenate([bank.anchors, [x_now]])
    yhats, jacs, Rs = linearize_bank(spec, means, x, anchors)
    yv = _free_obs(spec, y)
    if wolf_c is not None:
        W = _imq_weights(yv[None, :] - yhats, np.ascontiguousarray(Rs), wolf_c)
        Rs = Rs / (W * W)[:, None, None]
    new_means, new_covs, S = lg_update_arrays(means, covs, jacs, yhats, yv, Rs)
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
        policy = PriorPolicy("rl-prior-reset", bank.belief(0))
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


class TestCppEmpiricalBayes:
    def test_identical_beliefs_keep_initialization(self):
        out = cpp_empirical_bayes(BASE, BASE, LINEAR, [1.0], [0.3])
        assert out == 1.0

    def test_fixed_point_stops_after_one_stacked_iteration(self, monkeypatch):
        calls = {"linearize_bank": 0, "predictive_log_density": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in (
            (bone.weighting, "linearize_bank"),
            (bone.measurement, "predictive_log_density"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert cpp_empirical_bayes(BASE, BASE, LINEAR, [1.0], [0.3]) == 1.0
        assert calls == {"linearize_bank": 1, "predictive_log_density": 0}

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
        assert cpp_empirical_bayes(prev, base, spec, x, y, steps=steps, lr=lr) == want

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
            return cpp_empirical_bayes(prev, base, spec, x, y, steps=n, lr=lr, anchor=anchor)

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
        got = cpp_empirical_bayes(prev, base, SEGMENT, x, y, steps=200, lr=0.02, anchor=anchor)
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
        got = cpp_empirical_bayes(prev, base, LINEAR, x, y, steps=50, lr=0.05)
        assert abs(got - star) < 0.05

    def test_surprising_observation_pulls_toward_reset(self):
        prev = GaussBelief([0.0], [[0.01]])
        base = GaussBelief([10.0], [[4.0]])
        x, y = [1.0], [10.0]  # ~10 sigma under prev, likely under base
        star = self.grid_argmax(prev, base, x, y)
        got = cpp_empirical_bayes(prev, base, LINEAR, x, y, steps=200, lr=0.02)
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
        out = cpp_empirical_bayes(prev, BASE, LINEAR, [1.0], [y], steps=steps, lr=lr)
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
