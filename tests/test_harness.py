import concurrent.futures
import copy
import csv
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bone.harness
from bone.cli import main as cli_main
from bone.core import ConfigError
from bone.harness import (
    SCHEMA,
    MetricTrace,
    compute_metrics,
    ewma_normalize,
    export_results,
    load_config,
    load_csv_stream,
    parse_config,
    rolling_mean,
    run_experiment,
    run_sweep,
)


def static_config(**over):
    raw = {
        "experiment": "heavy-tail",
        "horizon": 80,
        "trials": 1,
        "seed": 0,
        "method": {
            "name": "C-Static",
            "model": {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "poly2"},
            "prior": {"kind": "static", "base_mean": [0, 0, 0], "base_cov_scale": 3.0},
        },
    }
    raw.update(over)
    return raw


def method_config(name, kind, prior_extra=None, **extra):
    """static_config with another method, its prior kind and extra keys."""
    raw = static_config()
    raw["method"].update(name=name, **extra)
    prior = raw["method"]["prior"]
    prior.update(kind=kind, **(prior_extra or {}))
    if "base_cov" in prior:  # base_cov and base_cov_scale exclude each other
        del prior["base_cov_scale"]
    return raw


def model_config(**model):
    """static_config with the method stanza's model replaced by ``model``."""
    raw = static_config()
    raw["method"]["model"] = model
    return raw


def mlp_config(**over):
    """An MLP model of 1 -> 2 -> 1 (7 parameters) with ``over`` in its model."""
    raw = model_config(**{"family": "mlp-gaussian", "obs_noise": 1.0, "in_dim": 1, "hidden": [2], **over})
    raw["method"]["prior"]["base_mean"] = [0] * 7
    return raw


def bandit_config(**method_extra):
    """A short C-ACI bandit config; extra keys go into its method stanza."""
    return {
        "experiment": "bandit",
        "horizon": 5,
        "trials": 1,
        "seed": 0,
        "generator": {"arms": 3},
        "method": {
            "name": "C-ACI",
            "model": {"family": "bernoulli-logit"},
            "prior": {"kind": "aci", "base_mean": [0], "base_cov_scale": 1.0, "alpha": 0.01},
            **method_extra,
        },
    }


# the 4th target's squared error is not finite, and no hypothesis gives it
# a nonzero density
BIG_TARGETS = [0.1, 0.3, -0.2, 1e200, 0.5, 0.0]


def stream_config(tmp_path, name, kind, prior_extra, targets=BIG_TARGETS, **extra):
    """A config file running ``name`` with a bias feature on a csv-stream of
    ``targets`` at x = 0, 1, ..."""
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in enumerate(targets)))
    method = {
        "name": name,
        "model": {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "bias"},
        "prior": {"kind": kind, "base_mean": [0, 0], "base_cov_scale": 1.0, **prior_extra},
        **extra,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "csv-stream", "data_path": str(data), "method": method}))
    return cfg_path


def strict_json(path):
    """The JSON document at ``path``, refusing NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


NAN = float("nan")
INF = float("inf")
# (method, prior kind, prior numbers, method keys) for the zero-density stream
ZERO_DENSITY_METHODS = [
    ("RL-OUPR", "rl-oupr", {"epsilon": 0.5}, {}),
    ("RL-PR[inf]", "rl-prior-reset", {}, {}),
    ("RL-PR[K]", "rl-prior-reset", {}, {"K": 3}),
]
# (method, prior kind, prior numbers) of the single-hypothesis methods
SINGLE_HYPOTHESIS_METHODS = [
    ("C-Static", "static", {}),
    ("C-OU", "ou", {"gamma": 0.9}),
    ("C-ACI", "aci", {"alpha": 0.1}),
    ("CPP-OU", "cpp-ou", {}),
]
# (key the ConfigError names, config) for method values of the wrong JSON type
BAD_METHOD_TYPES = [
    ("obs_noise", model_config(family="linear-gaussian", obs_noise="x", feature_map="poly2")),
    ("method must be a JSON object", static_config(method=5)),
    ("method.cpp", method_config("CPP-OU", "cpp-ou", cpp=5)),
    ("in_dim", mlp_config(in_dim="x")),
    ("in_dim", mlp_config(in_dim=1.5)),
    ("hidden", mlp_config(hidden="88")),
    ("hidden", mlp_config(hidden=[2.5])),
    ("out_dim", mlp_config(out_dim=1.5)),
]
# (key the ConfigError names, config) for keys that no method, or not the
# chosen one, reads, and for model shapes that cannot fit the data
BAD_METHOD_KEYS = [
    ("unknown key 'method.prior.shrink'", method_config("C-Static", "static", {"shrink": 0.5})),
    ("unknown key 'method.prior.perturb_var'", method_config("C-Static", "static", {"perturb_var": 0.1})),
    ("unknown key 'method.prior.dyn'", method_config("C-Static", "static", {"dyn": {"F": [[1.0]]}})),
    ("unknown key 'method.model.activation'", mlp_config(activation="relu")),
    ("unknown prior kind 'shrink-perturb'", method_config("C-Static", "shrink-perturb")),
    ("unknown prior kind 'lssm'", method_config("C-Static", "lssm")),
    # keys that the chosen method or prior kind does not read
    ("does not take gamma", method_config("C-Static", "static", {"gamma": 0.5})),
    ("does not take alpha", method_config("RL-OUPR", "rl-oupr", {"epsilon": 0.5, "alpha": 0.1}, hazard=0.1)),
    ("does not take a hazard", method_config("C-ACI", "aci", {"alpha": 0.1}, hazard=0.1)),
    ("does not take K", method_config("CPP-OU", "cpp-ou", K=3)),
    ("does not take a cpp section", method_config("RL-OUPR", "rl-oupr", {"epsilon": 0.5}, hazard=0.1, cpp={"steps": 5})),
    # model shapes that cannot fit the data
    ("has out_dim 1", model_config(family="linear-gaussian", obs_noise=1.0, feature_map="poly2", out_dim=2)),
    ("has out_dim 1", model_config(family="segment-poly-gaussian", obs_noise=1.0, out_dim=2)),
    # keys that the chosen experiment or prior kind does not read
    ("method.drift_unpulled", method_config("C-Static", "static", drift_unpulled=False)),
    ("method.drift_unpulled", method_config("C-ACI", "aci", {"alpha": 0.1}, drift_unpulled=True)),
    ("method.drift_unpulled", bandit_config(
        name="CPP-OU", prior={"kind": "cpp-ou", "base_mean": [0]}, drift_unpulled=False)),
    ("runlength_output_path", dict(bandit_config(), runlength_output_path="rl.csv")),
]
# a two-output obs_noise that is PSD but not symmetric
ASYMMETRIC_OBS_NOISE = (
    "method.model.obs_noise must be a symmetric matrix",
    mlp_config(out_dim=2, obs_noise=[[1.0, 0.5], [0.0, 1.0]]),
)
# (key the ConfigError names, config)
BAD_NUMBERS = [
    ("cpp.steps", method_config("CPP-OU", "cpp-ou", cpp={"steps": 0})),
    ("cpp.steps", method_config("CPP-OU", "cpp-ou", cpp={"steps": "x"})),
    ("cpp.steps", method_config("CPP-OU", "cpp-ou", cpp={"steps": True})),
    ("cpp.steps", method_config("CPP-OU", "cpp-ou", cpp={"steps": 2.5})),
    ("cpp.lr", method_config("CPP-OU", "cpp-ou", cpp={"lr": -1})),
    ("cpp.lr", method_config("CPP-OU", "cpp-ou", cpp={"lr": 0})),
    ("cpp.lr", method_config("CPP-OU", "cpp-ou", cpp={"lr": "x"})),
    ("cpp.lr", method_config("CPP-OU", "cpp-ou", cpp={"lr": NAN})),
    ("hazard", method_config("RL-PR[inf]", "rl-prior-reset", hazard="x")),
    ("hazard", method_config("RL-PR[inf]", "rl-prior-reset", hazard=NAN)),
    ("K must", method_config("RL-PR[K]", "rl-prior-reset", hazard=0.1, K="x")),
    ("K must", method_config("RL-PR[K]", "rl-prior-reset", hazard=0.1, K=1.5)),
    ("K must", method_config("RL-PR[K]", "rl-prior-reset", hazard=0.1, K=True)),
    ("wolf_c", method_config("WoLF+RL-PR", "rl-prior-reset", hazard=0.1, wolf_c="x")),
    ("alpha", method_config("C-ACI", "aci", {"alpha": "x"})),
    ("base_mean", method_config("C-Static", "static", {"base_mean": [NAN, 0, 0]})),
    ("base_cov_scale", method_config("C-Static", "static", {"base_cov_scale": INF})),
    ("base_cov_scale", method_config("C-Static", "static", {"base_cov_scale": "x"})),
    ("base_cov", method_config("C-Static", "static", {"base_cov": np.diag([1, INF, 1]).tolist()})),
    *BAD_METHOD_TYPES,
    *BAD_METHOD_KEYS,
    ("not PSD", method_config("C-Static", "static", {"base_cov": [[1, 2, 0], [2, 1, 0], [0, 0, 1]]})),
    ("base_cov must be a symmetric matrix",
     method_config("C-Static", "static", {"base_cov": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]})),
    ASYMMETRIC_OBS_NOISE,
]


def generator_config(experiment, **gen):
    return static_config(experiment=experiment, generator=gen)


# (key the ConfigError names, config) for top-level values of the wrong JSON type
BAD_TOP_TYPES = [
    ("generator", static_config(generator=5)),
    ("output_path", static_config(output_path=123)),
    ("data_path", static_config(data_path=5)),
    ("sweep", static_config(sweep={"method.prior.base_cov_scale": 0.5})),
    ("sweep", static_config(sweep={"method.prior.base_cov_scale": []})),
    ("base_cov_scale", static_config(sweep={"method.prior.base_cov_scale": [1.0, "x"]})),
]
# (key the ConfigError names, config) for sweeps whose grid points do not parse
BAD_GRID_POINTS = [
    ("does not take gamma", static_config(sweep={"method.prior.gamma": [0.1, 0.9]})),
    ("method.drift_unpulled", static_config(sweep={"method.drift_unpulled": [True, False]})),
]
# (key the ConfigError names, config)
BAD_STREAM_NUMBERS = [
    ("arms", generator_config("bandit", arms="x")),
    ("arms", generator_config("bandit", arms=0)),
    ("arms", generator_config("bandit", arms=2.0)),
    ("arms", generator_config("bandit", arms=True)),
    ("walk_sd", generator_config("bandit", walk_sd="x")),
    ("walk_sd", generator_config("bandit", walk_sd=0)),
    ("p_eps", generator_config("heavy-tail", p_eps="x")),
    ("p_eps", generator_config("heavy-tail", p_eps=1.5)),
    ("p_eps", generator_config("heavy-tail", p_eps=NAN)),
    ("p_eps", generator_config("heavy-tail", p_eps=True)),
    ("df", generator_config("heavy-tail", df=0)),
    ("df", generator_config("heavy-tail", df=INF)),
    ("p_jump", generator_config("drift-jumps", p_jump=-0.1)),
    ("drift_sd", generator_config("drift-jumps", drift_sd=-1)),
    ("pi", generator_config("dependent-segments", pi=2)),
    ("noise_sd", generator_config("dependent-segments", noise_sd=0)),
    ("coef_range", generator_config("dependent-segments", coef_range=NAN)),
    ("x_max", generator_config("dependent-segments", x_max=-1.0)),
    ("ewma_target_half_life", static_config(ewma_target_half_life="x")),
    ("ewma_target_half_life", static_config(ewma_target_half_life=0)),
    ("ewma_feature_half_life", static_config(ewma_feature_half_life=-2.0)),
    ("ewma_feature_half_life", static_config(ewma_feature_half_life=INF)),
    ("drift_unpulled", bandit_config(drift_unpulled="false")),
    ("drift_unpulled", bandit_config(drift_unpulled=0)),
    ("drift_unpulled", bandit_config(drift_unpulled=None)),
    *BAD_TOP_TYPES,
]


def trace_of(losses, kind="regression", errors=None, **kw):
    losses = np.asarray(losses, dtype=float)
    return MetricTrace(
        kind=kind,
        losses=losses,
        rolling=rolling_mean(losses, 3) if losses.size else np.zeros(0),
        trial=0,
        seed=0,
        method="C-Static",
        experiment="heavy-tail",
        errors=None if errors is None else np.asarray(errors, dtype=float),
        **kw,
    )


class TestConfig:
    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError):
            parse_config(static_config(tyop=1))
        raw = static_config()
        raw["method"]["mystery"] = 2
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw = static_config()
        raw["method"]["prior"]["gama"] = 0.5
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_sweep_keys_must_name_hyperparameters(self):
        with pytest.raises(ConfigError):
            parse_config(static_config(sweep={"method.nonsense": [1, 2]}))

    def test_non_psd_obs_noise_is_config_error(self):
        raw = static_config()
        raw["method"]["model"]["obs_noise"] = -1.0
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("key,value", [("rolling_window", 0), ("rolling_window", -1), ("trials", -1), ("trials", 0),
                                           ("warmup", 0), ("warmup", -1)])
    def test_nonpositive_counts_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(static_config(**{key: value}))

    @pytest.mark.parametrize("warmup", [0, 81])  # static_config's horizon is 80
    def test_cli_exits_2_on_warmup_outside_the_horizon(self, tmp_path, warmup):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(static_config(warmup=warmup, sweep={"seed": [0, 1]})))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    def test_cli_exits_2_on_a_horizon_sweep_with_warmup(self, tmp_path, capsys):
        # every point would run the warmup prefix, whatever its horizon
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(static_config(warmup=10, sweep={"horizon": [20, 30]})))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert "sweep over horizon" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("horizon", [80, 0])  # 0 bounds nothing (a csv-stream's whole file)
    def test_warmup_up_to_a_nonzero_horizon_parses(self, horizon):
        assert parse_config(static_config(warmup=80, horizon=horizon)).warmup == 80

    @pytest.mark.parametrize("seed", [-1, "abc", 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(static_config(seed=seed))

    @pytest.mark.parametrize(
        "key,value",
        [("trials", "abc"), ("trials", 1.5), ("trials", True), ("horizon", "abc"),
         ("horizon", 30.7), ("rolling_window", "x"), ("warmup", "x"), ("warmup", 2.5)],
    )
    def test_non_integer_counts_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(static_config(**{key: value}))

    @pytest.mark.parametrize("key,raw", BAD_NUMBERS)
    def test_bad_method_numbers_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(raw)

    @pytest.mark.parametrize("key,raw", BAD_STREAM_NUMBERS)
    def test_bad_stream_numbers_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(raw)

    def test_generator_keys_and_horizon_come_from_the_generator(self):
        for experiment, key in [("heavy-tail", "arms"), ("periodic-drift", "p_eps"), ("csv-stream", "df")]:
            with pytest.raises(ConfigError, match=f"generator.{key}"):
                parse_config(generator_config(experiment, **{key: 1}))
        raw = static_config()
        del raw["horizon"]
        assert parse_config(raw).horizon == 500
        assert parse_config(dict(raw, experiment="bandit")).horizon == 10000
        assert parse_config(dict(raw, experiment="csv-stream", data_path="d.csv")).horizon == 0

    def test_boundary_stream_numbers_accepted(self):
        cfg = parse_config(generator_config("heavy-tail", p_eps=0, df=0.5))
        assert cfg.generator_params == {"p_eps": 0, "df": 0.5}
        parse_config(generator_config("dependent-segments", pi=1.0, x_max=1e-3))
        parse_config(generator_config("bandit", arms=1, walk_sd=1e-9))
        parse_config(static_config(ewma_target_half_life=None, ewma_feature_half_life=0.5))

    @pytest.mark.parametrize("value", [True, False])
    def test_drift_unpulled_takes_a_json_bool(self, value):
        assert parse_config(bandit_config(drift_unpulled=value)).method.drift_unpulled is value
        assert parse_config(bandit_config()).method.drift_unpulled is True


class TestRunPrequential:
    def test_zero_horizon_empty_trace(self):
        traces = run_experiment(parse_config(static_config(horizon=0)))
        assert traces[0].losses.size == 0
        assert traces[0].finals == {}

    def test_static_consistency_on_noise_free_data(self, tmp_path):
        # noise-free stationary linear stream: conjugate regression converges
        rng = np.random.default_rng(0)
        theta = np.array([0.5, -1.0])
        path = tmp_path / "clean.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "x1", "y"])
            for _ in range(200):
                x = rng.normal(size=2)
                w.writerow([x[0], x[1], float(theta @ x)])
        raw = {
            "experiment": "csv-stream",
            "trials": 1,
            "seed": 0,
            "data_path": str(path),
            "method": {
                "name": "C-Static",
                "model": {"family": "linear-gaussian", "obs_noise": 1e-4},
                "prior": {"kind": "static", "base_mean": [0, 0], "base_cov_scale": 1.0},
            },
        }
        trace = run_experiment(parse_config(raw))[0]
        tail_rmse = float(np.sqrt(np.mean(trace.losses[-50:])))
        assert tail_rmse < 1e-3

    def test_trace_length_equals_horizon(self):
        traces = run_experiment(parse_config(static_config(horizon=37)))
        assert traces[0].losses.size == 37
        assert traces[0].rolling.size == 37

    def test_prequential_causality(self, tmp_path):
        # mutating future targets must not change earlier predictions
        rng = np.random.default_rng(1)
        rows = [[float(rng.normal()), float(rng.normal())] for _ in range(60)]

        def write(path, rows):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x0", "y"])
                w.writerows(rows)

        a = tmp_path / "a.csv"
        write(a, rows)
        mutated = [list(r) for r in rows]
        for t in range(30, 60):
            mutated[t][1] += 100.0
        b = tmp_path / "b.csv"
        write(b, mutated)
        raw = {
            "experiment": "csv-stream",
            "trials": 1,
            "seed": 0,
            "data_path": str(a),
            "method": {
                "name": "RL-PR[inf]",
                "model": {"family": "linear-gaussian", "obs_noise": 1.0},
                "prior": {"kind": "rl-prior-reset", "base_mean": [0], "base_cov_scale": 1.0},
                "hazard": 0.05,
            },
        }
        e1 = run_experiment(parse_config(raw))[0].errors
        raw["data_path"] = str(b)
        e2 = run_experiment(parse_config(raw))[0].errors
        # the error at t is y[t] minus the prediction from y[:t]
        np.testing.assert_array_equal(e1[:30], e2[:30])
        assert e2[30] - e1[30] == pytest.approx(100.0, abs=1e-9)  # same prediction
        assert not np.allclose(e2[31:] - e1[31:], 100.0)  # the predictions moved

    def test_parallel_matches_serial(self):
        cfg = parse_config(static_config(trials=3, horizon=40))
        serial = run_experiment(cfg, parallel=1)
        par = run_experiment(cfg, parallel=2)
        for a, b in zip(serial, par):
            np.testing.assert_array_equal(a.losses, b.losses)

    @pytest.mark.parametrize("parallel,trials,workers", [(8, 2, 2), (2, 3, 2), (8, 1, None), (1, 3, None)])
    def test_workers_bounded_by_trials(self, monkeypatch, parallel, trials, workers):
        started = []

        class FakePool:  # runs the trials in this process, starts none
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        traces = run_experiment(parse_config(static_config(trials=trials, horizon=5)), parallel)
        assert [tr.trial for tr in traces] == list(range(trials))
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("parallel", [0, -2, 1.5, True, "2"])
    def test_parallel_must_be_a_positive_integer(self, tmp_path, parallel):
        cfg = parse_config(static_config(trials=2, horizon=5))
        with pytest.raises(ConfigError, match="parallel must be an integer >= 1"):
            run_experiment(cfg, parallel)
        sweep = parse_config(static_config(horizon=5, sweep={"method.prior.base_cov_scale": [1.0, 2.0]}))
        with pytest.raises(ConfigError, match="parallel"):
            run_sweep(sweep, tmp_path / "grid", parallel)
        assert not (tmp_path / "grid").exists()


class TestMetrics:
    def test_constant_error_rmse_mae(self):
        trace = trace_of(np.ones(10), errors=np.ones(10))
        finals = compute_metrics(trace)
        assert finals["rmse"] == pytest.approx(1.0)
        assert finals["mae"] == pytest.approx(1.0)

    def test_rolling_window_peak(self):
        errors = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
        roll = rolling_mean(np.abs(errors), 3)
        assert roll.max() == pytest.approx(1.0)

    def test_changepoint_count_zero_without_resets(self):
        trace = trace_of(np.zeros(5), errors=np.zeros(5))
        trace.mode_runlengths = np.arange(1, 6)
        assert compute_metrics(trace)["changepoint_count"] == 0

    def test_bandit_cumulative_regret(self):
        trace = trace_of(np.array([0.1, 0.2, 0.0]), kind="bandit")
        assert compute_metrics(trace)["cumulative_regret"] == pytest.approx(0.3)


class TestEwma:
    def test_constant_series_all_zero_after_first(self):
        out = ewma_normalize(np.full(50, 3.7), half_life=20.0)
        np.testing.assert_array_equal(out, np.zeros(50))

    def test_large_half_life_approaches_global_standardization(self):
        rng = np.random.default_rng(0)
        y = rng.normal(3.0, 2.0, size=10**4)
        out = ewma_normalize(y, half_life=1e6)
        assert -0.1 <= out.mean() <= 0.1
        assert 0.9 <= out.std() <= 1.1

    def test_impulse_shape(self):
        y = np.zeros(50)
        y[20] = 100.0
        out = ewma_normalize(y, half_life=5.0)
        assert out[20] == out.max() and out[20] > 1e3
        assert (out[21:30] < 0).all()
        assert np.all(np.diff(np.abs(out[21:30])) <= 1e-12)

    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError):
            ewma_normalize([1.0], half_life=0.0)


def csv_stream_config(data_path):
    """A one-parameter C-Static run over the CSV stream at ``data_path``."""
    return {
        "experiment": "csv-stream",
        "data_path": str(data_path),
        "method": {
            "name": "C-Static",
            "model": {"family": "linear-gaussian", "obs_noise": 1.0},
            "prior": {"kind": "static", "base_mean": [0], "base_cov_scale": 1.0},
        },
    }


NOT_UTF_8 = b"\xff\xfe"
RUN = ["run", "--config", "cfg.json", "--out", "o.csv"]
# id -> (files written beside the directory "dir", the config written to
# cfg.json if any, the command line): each names a path that cannot be read
# or written as the command needs
UNUSABLE_PATHS = {
    "data-path-is-a-directory": ({}, csv_stream_config("dir"), RUN),
    "csv-is-not-utf-8": (
        {"d.csv": NOT_UTF_8 + b",y\n1,2\n"}, csv_stream_config("d.csv"), RUN
    ),
    "config-is-not-utf-8": ({"bad.json": NOT_UTF_8}, None, ["run", "--config", "bad.json"]),
    "config-is-a-directory": ({}, None, ["run", "--config", "dir"]),
    "run-out-is-a-directory": (
        {}, static_config(horizon=5), ["run", "--config", "cfg.json", "--out", "dir"]
    ),
    "gen-out-is-a-directory": (
        {}, None, ["gen", "--experiment", "bandit", "--horizon", "5", "--out", "dir"]
    ),
    "sweep-out-is-a-file": (
        {"grid": b""},
        static_config(horizon=5, sweep={"seed": [0, 1]}),
        ["sweep", "--config", "cfg.json", "--out", "grid"],
    ),
}


class TestExportAndCli:
    @pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
    def test_cli_exits_2_on_an_unusable_path(self, tmp_path, monkeypatch, capsys, case):
        files, raw, argv = UNUSABLE_PATHS[case]
        monkeypatch.chdir(tmp_path)
        Path("dir").mkdir()
        for name, data in files.items():
            Path(name).write_bytes(data)
        if raw is not None:
            Path("cfg.json").write_text(json.dumps(raw))
        before = sorted(tmp_path.rglob("*"))
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before  # no output file

    def test_empty_traces_header_only(self, tmp_path):
        path = export_results([], tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert lines == ["trial,t,loss,rolling,method,experiment,seed"]

    def test_row_count(self, tmp_path):
        traces = [trace_of(np.ones(3)), trace_of(np.ones(3))]
        traces[1].trial = 1
        path = export_results(traces, tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 6

    def test_rerun_byte_identical(self, tmp_path):
        cfg = static_config(trials=2, horizon=30)
        digests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            traces = run_experiment(parse_config(cfg))
            export_results(traces, out, config_echo=cfg)
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_cli_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(static_config(horizon=25)))
        out = tmp_path / "res.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["trials"][0]["finals"]["rmse"] > 0
        # unknown key -> config error -> 2
        bad = static_config()
        bad["whoops"] = 1
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert cli_main(["run", "--config", str(bad_path)]) == 2
        # missing file -> 2
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_cli_numeric_failure_exit_code(self, tmp_path):
        # zero observation noise with an all-zero feature column makes the
        # innovation covariance singular -> numeric failure -> exit 3
        data = tmp_path / "zeros.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "y"])
            for _ in range(5):
                w.writerow([0.0, 1.0])
        raw = {
            "experiment": "csv-stream",
            "data_path": str(data),
            "method": {
                "name": "C-Static",
                "model": {"family": "linear-gaussian", "obs_noise": 0.0},
                "prior": {"kind": "static", "base_mean": [0], "base_cov_scale": 1.0},
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 3
        # the same failure in a worker process
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"), "--trials", "2"]
        assert cli_main(argv + ["--parallel", "2"]) == 3

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_cli_exits_2_on_parallel_zero(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(static_config(horizon=5, sweep={"seed": [0, 1]})))
        out = tmp_path / ("o.csv" if command == "run" else "grid")
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out), "--parallel", "0"]) == 2
        assert "parallel must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name,kind,prior_extra,extra", ZERO_DENSITY_METHODS, ids=[row[0] for row in ZERO_DENSITY_METHODS])
    def test_cli_exits_3_on_zero_predictive_density(self, tmp_path, capsys, name, kind, prior_extra, extra):
        # the 4th target is so far out that every hypothesis would give it
        # zero density; its infinite loss is caught first, before the update
        cfg_path = stream_config(tmp_path, name, kind, prior_extra, hazard=0.1, **extra)
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name,kind,prior_extra", SINGLE_HYPOTHESIS_METHODS, ids=[row[0] for row in SINGLE_HYPOTHESIS_METHODS])
    def test_cli_exits_3_on_non_finite_loss(self, tmp_path, capsys, name, kind, prior_extra):
        cfg_path = stream_config(tmp_path, name, kind, prior_extra)
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "numeric failure: trial 0 failed at step 3: loss inf" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cli_exits_3_when_a_metric_overflows(self, tmp_path, capsys):
        # each squared error is finite, but their sum is not
        cfg_path = stream_config(tmp_path, "C-Static", "static", {}, targets=[1.2e154, 1.3e154, 1.1e154])
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "numeric failure: rmse of trial 0 is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_sweep_at_horizon_zero_writes_json(self, tmp_path, capsys):
        # no grid point has a primary metric, so none is best
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(static_config(horizon=0, sweep={"seed": [0, 1]})))
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "grid")]) == 0
        assert json.loads(capsys.readouterr().out) == {"point": None, "mean": None}
        assert strict_json(tmp_path / "grid" / "index.json")["best"] == {"point": None, "mean": None}

    def test_export_refuses_non_finite_finals(self, tmp_path):
        trace = trace_of([1.0])
        trace.finals = {"rmse": INF}
        with pytest.raises(ValueError, match="JSON"):
            export_results([trace], tmp_path / "o.csv")

    @pytest.mark.parametrize("seed", [-1, "abc", 1.5])
    def test_cli_exits_2_on_bad_seed(self, tmp_path, seed):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(static_config(horizon=5, seed=seed)))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "raw",
        [
            static_config(horizon=5, trials=1.5),
            method_config("CPP-OU", "cpp-ou", cpp={"steps": 0}),
            method_config("CPP-OU", "cpp-ou", cpp={"lr": "x"}),
            method_config("C-Static", "static", {"base_mean": [NAN, 0, 0]}),
        ],
    )
    def test_cli_exits_2_on_bad_numbers(self, tmp_path, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize(
        "raw",
        [
            bandit_config(drift_unpulled="false"),
            dict(bandit_config(), generator={"arms": "x"}),
            dict(bandit_config(), generator={"arms": 0}),
            static_config(horizon=5, generator={"p_eps": "x"}),
        ],
    )
    def test_cli_exits_2_on_bad_stream_numbers(self, tmp_path, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "key,raw",
        BAD_METHOD_TYPES + BAD_TOP_TYPES + BAD_METHOD_KEYS + BAD_GRID_POINTS + [ASYMMETRIC_OBS_NOISE],
    )
    def test_cli_exits_2_on_bad_types(self, tmp_path, monkeypatch, capsys, key, raw):
        # no --out, so a bad output_path is the one the run would write to
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(raw))
        argv = ["sweep", "--config", "cfg.json", "--out", "grid"] if "sweep" in raw else ["run", "--config", "cfg.json"]
        assert cli_main(argv) == 2
        assert key in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "key,raw,base_mean",
        [
            # poly2 has 3 parameters, the bandit 1
            ("method.prior.base_mean", static_config(horizon=5), [0, 0]),
            ("method.prior.base_mean", bandit_config(), [0, 0]),
            # a 2 -> 2 -> 1 MLP has 9 parameters, but the stream has 1 feature
            ("method.model.in_dim", mlp_config(in_dim=2), [0] * 9),
        ],
        ids=["prequential", "bandit", "mlp-in-dim"],
    )
    def test_cli_exits_2_on_prior_length_mismatch(self, tmp_path, capsys, key, raw, base_mean):
        raw["method"]["prior"]["base_mean"] = base_mean
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "targets",
        [
            [0, 1, 5],  # a class beyond C = 3
            [0, 1, 0.5],  # not a class at all
            None,  # a mlp-gaussian model of two outputs on a scalar-target stream
        ],
        ids=["class-out-of-range", "fractional-class", "gaussian-out-dim"],
    )
    def test_cli_exits_2_on_targets_the_model_cannot_read(self, tmp_path, capsys, targets):
        if targets is None:
            raw = mlp_config(out_dim=2)
            raw.update(experiment="dependent-segments", horizon=5)
            raw["method"]["prior"]["base_mean"] = [0] * 10  # 1 -> 2 -> 2
        else:
            data = tmp_path / "d.csv"
            data.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in enumerate(targets)))
            raw = {
                "experiment": "csv-stream",
                "data_path": str(data),
                "method": {
                    "name": "C-Static",
                    "model": {"family": "categorical-softmax", "out_dim": 3, "feature_map": "bias"},
                    "prior": {"kind": "static", "base_mean": [0] * 4, "base_cov_scale": 1.0},
                },
            }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "method.model.out_dim" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    @staticmethod
    def bernoulli_stream(tmp_path, labels, **extra):
        """A C-Static bernoulli-logit config on a csv-stream of ``labels``."""
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in enumerate(labels)))
        return {
            "experiment": "csv-stream",
            "data_path": str(data),
            "method": {
                "name": "C-Static",
                "model": {"family": "bernoulli-logit", "feature_map": "bias"},
                "prior": {"kind": "static", "base_mean": [0, 0], "base_cov_scale": 1.0},
            },
            **extra,
        }

    @pytest.mark.parametrize("label", [5, 0.5, -1])
    def test_bernoulli_target_must_be_0_or_1(self, tmp_path, capsys, label):
        raw = self.bernoulli_stream(tmp_path, [0, 1, label, 1])
        cfg = parse_config(raw)  # the config is valid; its stream is not
        with pytest.raises(ConfigError, match=r"target .* at step 2 is not a class in \[0, 2\)"):
            run_experiment(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "bernoulli-logit" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    def test_bernoulli_targets_are_checked_after_ewma(self, tmp_path):
        # standardized 0/1 labels are no longer labels
        labels = [0, 1, 1, 0, 1]
        assert len(run_experiment(parse_config(self.bernoulli_stream(tmp_path, labels)))) == 1
        raw = self.bernoulli_stream(tmp_path, labels, ewma_target_half_life=2.0)
        with pytest.raises(ConfigError, match="bernoulli-logit"):
            run_experiment(parse_config(raw))

    def test_cli_runs_bernoulli_on_0_1_targets(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.bernoulli_stream(tmp_path, [0, 1, 1.0, 0.0, 1])))
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 5
        assert strict_json(out.with_suffix(".summary.json"))["trials"]

    def test_cli_exits_2_on_bad_half_life(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,2\n2,3\n")
        raw = {
            "experiment": "csv-stream",
            "data_path": str(data),
            "ewma_target_half_life": "x",
            "method": {
                "name": "C-Static",
                "model": {"family": "linear-gaussian", "obs_noise": 1.0},
                "prior": {"kind": "static", "base_mean": [0], "base_cov_scale": 1.0},
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2

    def test_cli_exits_2_on_infinite_prior_scale(self, tmp_path):
        # JSON reads 1e400 as inf
        cfg_path = tmp_path / "cfg.json"
        text = json.dumps(static_config(horizon=5))
        cfg_path.write_text(text.replace('"base_cov_scale": 3.0', '"base_cov_scale": 1e400'))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2

    def test_cli_runs_cpp_ou_on_segment_model(self, tmp_path):
        raw = {
            "experiment": "dependent-segments",
            "horizon": 30,
            "method": {
                "name": "CPP-OU",
                "model": {"family": "segment-poly-gaussian", "obs_noise": 1.0},
                "prior": {"kind": "cpp-ou", "base_mean": [0, 0, 0], "base_cov_scale": 3.0},
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 30

    @pytest.mark.parametrize("name,kind", [("C-Static", "static"), ("RL-PR[inf]", "rl-prior-reset")])
    def test_cli_exits_3_on_non_finite_covariance(self, tmp_path, capsys, name, kind):
        # x = 0 leaves the slope's mean at 0, so the prediction at x = 1e200
        # is finite, but its innovation variance overflows and the updated
        # covariance is not finite
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,2\n1e200,2.0\n3,4\n")
        method = {
            "name": name,
            "model": {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "bias"},
            "prior": {"kind": kind, "base_mean": [0, 0], "base_cov_scale": 1.0},
        }
        if kind != "static":
            method["hazard"] = 0.01
        raw = {"experiment": "csv-stream", "data_path": str(data), "method": method}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 3
        assert "step 1: matrix 0 of batch is not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cli_exits_3_when_a_poly2_feature_overflows(self, tmp_path, capsys):
        # the square of 1e200 is infinite: the prediction is not finite
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,2\n1e200,2.0\n")
        method = {
            "name": "C-Static",
            "model": {"family": "linear-gaussian", "obs_noise": 1.0, "feature_map": "poly2"},
            "prior": {"kind": "static", "base_mean": [0, 0, 0], "base_cov_scale": 1.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "csv-stream", "data_path": str(data), "method": method}))
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "numeric failure: trial 0 failed at step 1" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def wide_logistic_config(tmp_path, scale, horizon):
        """A C-Static bandit on a two-parameter logistic model whose base
        prior has covariance ``scale`` I, written to a file."""
        raw = bandit_config()
        raw["horizon"] = horizon
        raw["generator"]["arms"] = 2
        raw["method"] = {
            "name": "C-Static",
            "model": {"family": "bernoulli-logit", "feature_map": "bias"},
            "prior": {"kind": "static", "base_mean": [0, 0], "base_cov_scale": scale},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        return cfg_path

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cli_runs_a_logistic_link_that_overflows(self, tmp_path, capsys):
        # draws from this prior reach logits far below -709, where the link
        # is 0 although exp(-eta) overflows
        cfg_path = self.wide_logistic_config(tmp_path, 1e6, 20)
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "RuntimeWarning" not in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cli_exits_3_when_a_thompson_draw_does_not_factor(self, tmp_path, capsys):
        # a prior this wide loses positive definiteness in the first update
        cfg_path = self.wide_logistic_config(tmp_path, 1e16, 5)
        out = tmp_path / "o.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "arm 0 has no Cholesky factor for a Thompson draw" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    def test_cli_gen(self, tmp_path):
        out = tmp_path / "stream.csv"
        assert cli_main(["gen", "--experiment", "heavy-tail", "--out", str(out), "--horizon", "7"]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 8

    @pytest.mark.parametrize("flag,key", [("--horizon", "horizon"), ("--seed", "seed")])
    def test_cli_gen_exits_2_on_negative_count(self, tmp_path, capsys, flag, key):
        out = tmp_path / "stream.csv"
        assert cli_main(["gen", "--experiment", "heavy-tail", "--out", str(out), flag, "-1"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestShippedConfigs:
    def test_configs_found(self):
        assert len(CONFIGS) >= 3
        # every config the README runs is shipped
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        named = set(re.findall(r"--config configs/([\w.]+\.json)", readme))
        assert "heavy_tail_wolf.json" in named
        assert named <= {p.name for p in CONFIGS}

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_config_runs_its_first_steps(self, path):
        raw = json.loads(path.read_text())
        raw["trials"] = 1
        (trace,) = run_experiment(parse_config(raw), steps=5)
        assert trace.losses.size == 5
        assert np.isfinite(list(trace.finals.values())).all()

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_config_parses_and_sweeps_hyperparameters(self, path):
        cfg = load_config(str(path))
        if path.name == "periodic_sweep.json":
            assert cfg.sweep
        for key in cfg.sweep or {}:
            assert SCHEMA[key][1], f"{key} is not sweepable"


class TestSweep:
    def test_full_grid_visited(self, tmp_path):
        raw = static_config(trials=2, horizon=20)
        raw["method"]["name"] = "RL-PR[inf]"
        raw["method"]["prior"]["kind"] = "rl-prior-reset"
        raw["method"]["hazard"] = 0.01
        raw["sweep"] = {"method.hazard": [0.01, 0.1], "method.prior.base_cov_scale": [1.0, 3.0]}
        cfg = parse_config(raw)
        index = run_sweep(cfg, tmp_path / "sweep")
        assert len(index["rows"]) == 4 * 2  # grid points x trials
        points = {json.dumps(r["point"], sort_keys=True) for r in index["rows"]}
        assert len(points) == 4
        assert (tmp_path / "sweep" / "index.json").exists()
        assert len(list((tmp_path / "sweep").glob("point_*.csv"))) == 4
        assert "point" in index["best"]

    def test_bad_grid_point_runs_no_point(self, tmp_path):
        # 1.5 is a finite number, so only the grid point's own parse rejects it
        raw = method_config("RL-PR[inf]", "rl-prior-reset", hazard=0.1)
        raw.update(horizon=10, sweep={"method.hazard": [0.1, 1.5]})
        with pytest.raises(ConfigError, match="hazard"):
            run_sweep(parse_config(raw), tmp_path / "grid")
        assert not (tmp_path / "grid").exists()

    def test_point_without_metric_is_never_best(self, tmp_path):
        raw = static_config(trials=1, horizon=5, sweep={"horizon": [0, 5]})
        index = run_sweep(parse_config(raw), tmp_path / "grid")
        assert index["best"]["point"] == {"horizon": 5}
        assert index == strict_json(tmp_path / "grid" / "index.json")

    def test_each_point_writes_its_own_runlength_dump(self, tmp_path):
        raw = method_config("RL-PR[inf]", "rl-prior-reset", hazard=0.1)
        raw.update(horizon=15, runlength_output_path=str(tmp_path / "rl.csv"))
        raw["sweep"] = {"method.hazard": [0.1, 0.5]}
        run_sweep(parse_config(raw), tmp_path / "grid")
        dumps = [tmp_path / "grid" / f"point_{i:04d}.runlength.csv" for i in range(2)]
        texts = [d.read_text() for d in dumps]
        assert texts[0] != texts[1]
        for idx, text in enumerate(texts):
            assert text.splitlines()[0] == "t,r,log_posterior"
            hazard = raw["sweep"]["method.hazard"][idx]
            alone = tmp_path / f"alone{idx}.csv"
            run_experiment(parse_config(dict(raw, sweep=None, method=dict(raw["method"], hazard=hazard),
                                             runlength_output_path=str(alone))))
            assert text == alone.read_text()
        assert not (tmp_path / "rl.csv").exists()

    def test_warmup_prefix_controls_sweep_horizon(self, tmp_path):
        raw = static_config(trials=1, horizon=50, warmup=10)
        raw["sweep"] = {"method.prior.base_cov_scale": [1.0, 2.0]}
        index = run_sweep(parse_config(raw), tmp_path / "s2")
        csv_lines = (tmp_path / "s2" / "point_0000.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 10  # header + warmup steps

    def test_warmup_runs_the_prefix_of_the_horizon_stream(self, tmp_path):
        # gen_dependent_segments spaces x over the whole horizon, so a stream
        # generated at T = warmup is not a prefix of the horizon stream
        raw = {
            "experiment": "dependent-segments",
            "horizon": 50,
            "warmup": 10,
            "trials": 2,
            "method": {
                "name": "C-Static",
                "model": {"family": "segment-poly-gaussian", "obs_noise": 1.0},
                "prior": {"kind": "static", "base_mean": [0, 0, 0], "base_cov_scale": 3.0},
            },
            "sweep": {"method.prior.base_cov_scale": [1.0, 3.0]},
        }
        run_sweep(parse_config(raw), tmp_path / "s")
        for idx, scale in enumerate([1.0, 3.0]):
            point = copy.deepcopy(raw)
            del point["sweep"], point["warmup"]
            point["method"]["prior"]["base_cov_scale"] = scale
            with open(tmp_path / "s" / f"point_{idx:04d}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2 * 10
            for trace in run_experiment(parse_config(point)):
                got = [float(r["loss"]) for r in rows if int(r["trial"]) == trace.trial]
                assert got == trace.losses[:10].tolist()


class TestRunlengthExport:
    def test_posterior_matrix_written(self, tmp_path):
        out = tmp_path / "rl.csv"
        raw = static_config(horizon=15, runlength_output_path=str(out))
        raw["method"]["name"] = "RL-PR[inf]"
        raw["method"]["prior"]["kind"] = "rl-prior-reset"
        raw["method"]["hazard"] = 0.05
        run_experiment(parse_config(raw))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,r,log_posterior"
        assert len(lines) == 1 + sum(t + 2 for t in range(15))

    def test_parallel_writes_the_same_bytes(self, tmp_path):
        # trial 0 writes the matrix in whichever process runs it
        raw = method_config("RL-PR[inf]", "rl-prior-reset", hazard=0.05)
        raw.update(horizon=15, trials=3)
        digests = []
        for parallel in (1, 2):
            out = tmp_path / f"rl{parallel}.csv"
            run_experiment(parse_config(dict(raw, runlength_output_path=str(out))), parallel)
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


    @pytest.mark.parametrize(
        "out_args,dump",
        [(["--out", "res.csv"], "res.csv"), ([], "results.csv"), (["--out", "res.csv"], "res.summary.json")],
    )
    def test_cli_exits_2_when_the_dump_is_a_results_file(self, tmp_path, monkeypatch, capsys, out_args, dump):
        monkeypatch.chdir(tmp_path)
        raw = method_config("RL-PR[inf]", "rl-prior-reset", hazard=0.05)
        raw.update(horizon=5, runlength_output_path=str(tmp_path / dump))
        Path("cfg.json").write_text(json.dumps(raw))
        assert cli_main(["run", "--config", "cfg.json", *out_args]) == 2
        assert "runlength_output_path would overwrite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_dump_keeps_the_posterior_not_the_banks(self, tmp_path):
        # a full bank of this 97-parameter MLP holds 10 covariances of 75 KB
        # each; keeping 60 of them would cost 45 MB
        base_mean = np.random.default_rng(0).normal(scale=0.5, size=97).tolist()
        raw = {
            "experiment": "dependent-segments",
            "horizon": 60,
            "method": {
                "name": "RL-PR[K]",
                "K": 10,
                "hazard": 0.01,
                "model": {"family": "mlp-gaussian", "in_dim": 1, "hidden": [8, 8], "obs_noise": 0.01},
                "prior": {"kind": "rl-prior-reset", "base_mean": base_mean, "base_cov_scale": 1.0},
            },
        }
        peaks = []
        for dump in (None, str(tmp_path / "rl.csv")):
            cfg = parse_config(dict(raw, runlength_output_path=dump))
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "rl.csv").read_text().splitlines()) > 60
        assert peaks[1] - peaks[0] < 5 * 2**20


class TestCsvIngestion:
    def test_features_then_target(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n")
        recs = load_csv_stream(str(path))
        assert len(recs) == 2
        np.testing.assert_array_equal(recs[0].x, [1.0, 2.0])
        assert recs[1].y == 6.0

    def test_header_required(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_csv_stream(str(path))

    def test_header_only_csv_has_no_data_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n")
        with pytest.raises(ConfigError, match=r"d\.csv: no data rows after the header"):
            load_csv_stream(str(path))

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
    def test_bad_cell_is_config_error_naming_row_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,y\n1,2,3\n4,{cell},6\n")
        with pytest.raises(ConfigError, match=r"d\.csv: row 3, column 'b'"):
            load_csv_stream(str(path))

    def test_ragged_row_is_config_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ConfigError, match="row 3"):
            load_csv_stream(str(path))

    @pytest.mark.parametrize("cell", ["abc", "nan", None])  # None: no data rows
    def test_cli_exits_2_on_bad_cell(self, tmp_path, cell):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" if cell is None else f"x,y\n1,2\n{cell},3\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(csv_stream_config(data)))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2

    def test_ewma_flags_applied(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = "\n".join(f"{i},{i * 2}" for i in range(1, 40))
        path.write_text("x,y\n" + rows + "\n")
        recs = load_csv_stream(str(path), ewma_target_half_life=5.0, ewma_feature_half_life=5.0)
        assert recs[0].y == 0.0  # first normalized target is zero
        assert recs[5].x[0] > 1.0  # rising series divided by trailing mean
