"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance and runtime bound is pinned here.
"""

import hashlib
import time

import numpy as np
import pytest

from bone.agents import MethodConfig, bone_step, init_agent, predict_weighted
from bone.core import GaussBelief
from bone.harness import parse_config, run_experiment, export_results
from bone.measurement import MeasurementSpec, apply_h
from bone.posterior import lg_update, wolf_update
from bone.priors import PriorPolicy
from bone.weighting import HazardSpec, HypothesisBank, rl_step
from experiments import configs
from oracles import (
    batch_linreg_posterior,
    finite_diff_jacobian,
    runlength_posterior_bruteforce,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_01_conjugate_oracle_equivalence():
    spec = MeasurementSpec("linear-gaussian", obs_noise=[[0.7]])
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mu0 = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        Sigma0 = a @ a.T + np.eye(3)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        cfg = MethodConfig(
            name="C-Static", spec=spec, policy=PriorPolicy("static", GaussBelief(mu0, Sigma0))
        )
        state = init_agent(cfg)
        for t in range(50):
            state, _, _ = bone_step(state, cfg, X[t], [y[t]])
        mu_b, Sigma_b = batch_linreg_posterior(X, y, mu0, Sigma0, 0.7)
        worst = max(
            worst,
            float(np.abs(state.bank.means[0] - mu_b).max()),
            float(np.abs(state.bank.covs[0] - Sigma_b).max()),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "C-Static equals closed-form batch posterior (max-abs 1e-8, < 1 s)",
        worst < 1e-8 and elapsed < 1.0,
        f"max-abs={worst:.2e} time={elapsed:.2f}s",
    )


def test_02_runlength_bruteforce_equivalence():
    spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
    base = GaussBelief([0.0], [[1.0]])
    policy = PriorPolicy("rl-prior-reset", base)
    start = time.perf_counter()
    worst_tv = 0.0
    for seed, pi in [(0, 0.1), (1, 0.25), (2, 0.01), (3, 0.5), (4, 0.05)]:
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=10).tolist()
        ys = (np.array(xs) * rng.normal() + rng.normal(size=10)).tolist()
        bank = HypothesisBank.root(base)
        hazard = HazardSpec(pi)
        for x, y in zip(xs, ys):
            bank = rl_step(bank, hazard, spec, policy, [x], [y])
        got = dict(zip(bank.runlengths.tolist(), bank.weights.tolist()))
        oracle = runlength_posterior_bruteforce(xs, ys, 0.0, 1.0, 1.0, pi)
        tv = 0.5 * sum(
            abs(got.get(r, 0.0) - oracle.get(r, 0.0)) for r in set(got) | set(oracle)
        )
        worst_tv = max(worst_tv, tv)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "runlength posterior equals 2^9-config enumeration (TV 1e-10, < 5 s)",
        worst_tv < 1e-10 and elapsed < 5.0,
        f"max-TV={worst_tv:.2e} time={elapsed:.2f}s",
    )


def test_03_topk_agreement_with_unbounded():
    spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
    base = GaussBelief([0.0, 0.0], np.eye(2))
    policy = PriorPolicy("rl-prior-reset", base)
    rng = np.random.default_rng(0)
    T = 25
    X = rng.normal(size=(T, 2))
    y = rng.normal(size=T)
    hazard = HazardSpec(0.05)
    bank_inf = HypothesisBank.root(base)
    bank_k = HypothesisBank.root(base)
    for t in range(T):
        bank_inf = rl_step(bank_inf, hazard, spec, policy, X[t], [y[t]])
        bank_k = rl_step(bank_k, hazard, spec, policy, X[t], [y[t]], capacity=T + 1)
    same = (
        np.array_equal(bank_inf.runlengths, bank_k.runlengths)
        and np.array_equal(bank_inf.log_joints, bank_k.log_joints)
        and np.array_equal(bank_inf.means, bank_k.means)
        and np.array_equal(bank_inf.covs, bank_k.covs)
    )
    _report(3, "top-K with K >= T identical to unbounded (exact)", same)


def test_04_mlp_jacobian_correctness():
    spec = MeasurementSpec(
        "mlp-gaussian", obs_noise=[[1.0]], hidden=(4, 4), in_dim=7
    )
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        theta = rng.normal(size=spec.param_count())
        x = rng.normal(size=7)
        _, jac = apply_h(spec, theta, x)
        fd = finite_diff_jacobian(lambda th: apply_h(spec, th, x)[0], theta)
        rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    _report(
        4,
        "MLP (2x4 hidden) Jacobian matches central differences (rel < 1e-4)",
        worst < 1e-4,
        f"worst-rel={worst:.2e}",
    )


def test_05_periodic_drift_reproduction():
    start = time.perf_counter()
    raws = configs("periodic_drift")
    mis = {}
    for label in ("RL-OUPR", "RL-PR[1]"):
        traces = run_experiment(parse_config(raws[label]))
        mis[label] = np.array([t.finals["misclassification_rate"] for t in traces])
    diff = mis["RL-PR[1]"] - mis["RL-OUPR"]
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "periodic drift: RL-OUPR beats RL-PR[1] by >= 2 SE (< 1 min)",
        diff.mean() > 0 and diff.mean() >= 2 * se and elapsed < 60.0,
        f"oupr={mis['RL-OUPR'].mean():.3f} rlpr1={mis['RL-PR[1]'].mean():.3f} "
        f"diff={diff.mean():.3f} se={se:.3f} time={elapsed:.1f}s",
    )


def test_06_heavy_tail_reproduction():
    start = time.perf_counter()
    raws = configs("heavy_tail")
    med = {}
    for tag, label in [("wolf", "WoLF-RL-PR"), ("lg", "RL-PR"), ("static", "C-Static")]:
        traces = run_experiment(parse_config(raws[label]))
        med[tag] = float(np.median([t.finals["rmse"] for t in traces]))
    elapsed = time.perf_counter() - start
    _report(
        6,
        "heavy tail: robust variant has lowest median RMSE (< 2 min)",
        med["wolf"] < med["lg"] and med["wolf"] < med["static"] and elapsed < 120.0,
        f"wolf={med['wolf']:.3f} lg={med['lg']:.3f} static={med['static']:.3f} "
        f"time={elapsed:.1f}s",
    )


def test_07_robust_weight_outlier_contrast():
    spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
    base = GaussBelief([0.0], [[4.0]])
    policy = PriorPolicy("rl-prior-reset", base)
    hazard = HazardSpec(0.01)
    T, t_out, c = 60, 40, 4.0
    contrast = 0
    displacement_ok = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-2, 2)
        xs = rng.uniform(-2, 2, size=T)
        ys = theta * xs + rng.normal(size=T)
        ys[t_out] += 20.0  # single 20-sigma outlier
        bank_lg = HypothesisBank.root(base)
        bank_w = HypothesisBank.root(base)
        bel_lg = bel_w = base
        for t in range(t_out + 1):
            x, y = [xs[t]], [ys[t]]
            bank_lg = rl_step(bank_lg, hazard, spec, policy, x, y)
            bank_w = rl_step(bank_w, hazard, spec, policy, x, y, wolf_c=c)
            if t < t_out:
                bel_lg = lg_update(bel_lg, spec, x, y)
                bel_w = wolf_update(bel_w, spec, x, y, c)
        post_lg = lg_update(bel_lg, spec, [xs[t_out]], [ys[t_out]])
        post_w = wolf_update(bel_w, spec, [xs[t_out]], [ys[t_out]], c)
        d_lg = abs(post_lg.mean[0] - bel_lg.mean[0])
        d_w = abs(post_w.mean[0] - bel_w.mean[0])
        displacement_ok += d_w < 0.1 * d_lg
        contrast += (bank_lg.map_runlength == 0) and (bank_w.map_runlength > 0)
    _report(
        7,
        "20-sigma outlier: robust mean moves < 10% and only plain variant resets "
        "(>= 80% of 50 seeds)",
        displacement_ok == 50 and contrast >= 40,
        f"displacement={displacement_ok}/50 contrast={contrast}/50",
    )


def test_08_bandit_reproduction():
    start = time.perf_counter()
    regrets = {}
    for label, raw in configs("bandit").items():
        traces = run_experiment(parse_config(raw))
        regrets[label] = np.array([t.finals["cumulative_regret"] for t in traces])
    static = regrets.pop("C-Static")
    ok = True
    parts = [f"static={static.mean():.0f}"]
    for name, r in regrets.items():
        diff = static - r  # paired: same seed split per simulation index
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        ok = ok and diff.mean() >= 2 * se
        parts.append(f"{name}={r.mean():.0f}(z={diff.mean() / se:.1f})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(
        8,
        "bandit: each adaptive method beats C-Static by >= 2 SE (< 5 min)",
        ok,
        " ".join(parts) + f" time={elapsed:.0f}s",
    )


def test_09_mmpr_moment_fidelity():
    from bone.priors import mmpr_prior

    # frozen instantiation of the check: 20 random banks whose 120
    # entry-wise comparisons all sit within 3 SE (a genuine moment error
    # would blow past z ~ 100 at this sample size)
    rng = np.random.default_rng(1)
    n = 10**6
    for case in range(20):
        k = int(rng.integers(1, 6))
        means = rng.normal(scale=2.0, size=(k, 2))
        covs = np.empty((k, 2, 2))
        for i in range(k):
            a = rng.normal(size=(2, 2))
            covs[i] = a @ a.T + 0.2 * np.eye(2)
        logw = rng.normal(size=k)
        bank = HypothesisBank(
            runlengths=np.arange(k), log_joints=logw,
            means=means, covs=covs, timestep=k,
        )
        out = mmpr_prior(bank)
        w = np.exp(logw - logw.max())
        w = w / w.sum()
        comps = rng.choice(k, p=w, size=n)
        draws = np.empty((n, 2))
        for i in range(k):
            idx = comps == i
            draws[idx] = rng.multivariate_normal(means[i], covs[i], size=int(idx.sum()))
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(draws.mean(axis=0) - out.mean) < 3 * se_mean).all(), case
        centered = draws - draws.mean(axis=0)
        prods = centered[:, :, None] * centered[:, None, :]
        se_cov = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(prods.mean(axis=0) - out.cov) < 3 * se_cov).all(), case
    _report(9, "moment-matched reset matches Monte-Carlo mixture moments "
               "(20 banks, 1e6 draws, 3 SE)", True)


def test_10_limit_behaviors():
    spec = MeasurementSpec("linear-gaussian", obs_noise=[[1.0]])
    base = GaussBelief([0.0, 0.0], np.eye(2))
    rng = np.random.default_rng(0)
    T = 100
    X = rng.normal(size=(T, 2))
    y = X @ np.array([1.0, -0.5]) + rng.normal(size=T)

    def preds(cfg):
        state = init_agent(cfg)
        out = np.empty(T)
        for t in range(T):
            yhat, _ = predict_weighted(state, cfg, X[t])
            out[t] = float(np.asarray(yhat).ravel()[0])
            state, _, _ = bone_step(state, cfg, X[t], [y[t]])
        return out

    # (a) RL-OUPR with epsilon = 1 equals the one-update-from-prior predictor
    cfg = MethodConfig(
        name="RL-OUPR", spec=spec,
        policy=PriorPolicy("rl-oupr", base, epsilon=1.0), hazard=HazardSpec(0.1),
    )
    got = preds(cfg)
    exact_a = got[0] == 0.0
    for t in range(1, T):
        one_shot = lg_update(base, spec, X[t - 1], [y[t - 1]])
        exact_a = exact_a and got[t] == float(X[t] @ one_shot.mean)

    # (b) C-OU with gamma = 1 equals C-Static, exactly
    p_static = preds(MethodConfig("C-Static", spec, PriorPolicy("static", base)))
    p_ou = preds(MethodConfig("C-OU", spec, PriorPolicy("ou", base, gamma=1.0)))
    exact_b = np.array_equal(p_static, p_ou)

    # (c) RL-PR with vanishing hazard matches C-Static to 1e-6
    cfg_rl = MethodConfig(
        "RL-PR[inf]", spec, PriorPolicy("rl-prior-reset", base), hazard=HazardSpec(1e-12)
    )
    gap = float(np.max(np.abs(preds(cfg_rl) - p_static)))
    _report(
        10,
        "limit behaviors: OUPR eps=1 exact, OU gamma=1 exact, hazard->0 within 1e-6",
        exact_a and exact_b and gap < 1e-6,
        f"hazard-gap={gap:.2e}",
    )


def test_11_determinism(tmp_path):
    raw = {
        "experiment": "heavy-tail", "horizon": 60, "trials": 2, "seed": 7,
        "method": {
            "name": "WoLF+RL-PR",
            "model": {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "poly2"},
            "prior": {"kind": "rl-prior-reset", "base_mean": [0, 0, 0], "base_cov_scale": 3.0},
            "hazard": 0.01, "wolf_c": 4.0,
        },
    }
    digests = []
    for name in ("first.csv", "second.csv"):
        traces = run_experiment(parse_config(raw))
        path = export_results(traces, tmp_path / name, config_echo=raw)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    raw_bandit = {
        "experiment": "bandit", "horizon": 200, "trials": 2, "seed": 3,
        "generator": {"arms": 4},
        "method": {
            "name": "RL-OUPR", "model": {"family": "bernoulli-logit"},
            "prior": {"kind": "rl-oupr", "base_mean": [0], "base_cov_scale": 1.0,
                      "epsilon": 0.5},
            "hazard": 0.05,
        },
    }
    for name in ("b1.csv", "b2.csv"):
        traces = run_experiment(parse_config(raw_bandit))
        path = export_results(traces, tmp_path / name, config_echo=raw_bandit)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    ok = digests[0] == digests[1] and digests[2] == digests[3]
    _report(11, "identical config+seed reruns produce byte-identical CSV", ok)
