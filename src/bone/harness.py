"""Experiment runner: prequential loops, bandit simulation, metrics, export.

Configuration is a strict JSON document (unknown keys are rejected so a
typo in a sweep cannot silently run the wrong hyperparameter).  All
randomness flows from the single master seed through the declared split
scheme: SeedSequence([seed, trial, role]) with role 0 = data stream,
role 1 = agent (Thompson draws), role 2 = reward realization.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import (
    MethodConfig,
    bone_step,
    drift_unobserved,
    init_agent,
    predict_weighted,
    thompson_action,
)
from .core import ConfigError, GaussBelief, LinearDynamics, is_finite_number, is_integer
from .datagen import GENERATORS, StreamRecord
from .measurement import MeasurementSpec
from .priors import PriorPolicy
from .weighting import HazardSpec, runlength_posterior_rows

log = logging.getLogger("bone")

EXPERIMENTS = (
    "periodic-drift",
    "drift-jumps",
    "heavy-tail",
    "bandit",
    "dependent-segments",
    "csv-stream",
)

EXPERIMENT_KIND = {
    "periodic-drift": "classification",
    "drift-jumps": "classification",
    "heavy-tail": "regression",
    "dependent-segments": "regression",
    "csv-stream": "regression",
    "bandit": "bandit",
}

DEFAULT_HORIZON = {
    "periodic-drift": 720,
    "drift-jumps": 1000,
    "heavy-tail": 500,
    "bandit": 10000,
    "dependent-segments": 500,
}

PRIMARY_METRIC = {
    "classification": "misclassification_rate",
    "regression": "rmse",
    "bandit": "cumulative_regret",
}

_TOP_KEYS = {
    "experiment", "horizon", "trials", "seed", "output_path", "warmup",
    "rolling_window", "runlength_output_path", "data_path",
    "ewma_target_half_life", "ewma_feature_half_life", "generator",
    "method", "sweep",
}
_METHOD_KEYS = {"name", "model", "prior", "hazard", "K", "wolf_c", "cpp", "drift_unpulled"}
_MODEL_KEYS = {"family", "out_dim", "obs_noise", "feature_map", "hidden", "activation", "in_dim"}
_PRIOR_KEYS = {
    "kind", "base_mean", "base_cov", "base_cov_scale", "gamma", "alpha",
    "shrink", "perturb_var", "epsilon", "dyn",
}
_CPP_KEYS = {"steps", "lr"}
_DYN_KEYS = {"F", "b", "Q"}
_GENERATOR_KEYS = {
    "periodic-drift": set(),
    "drift-jumps": {"p_jump", "drift_sd"},
    "heavy-tail": {"p_eps", "df"},
    "bandit": {"arms", "walk_sd"},
    "dependent-segments": {"pi", "noise_sd", "coef_range", "x_max"},
    "csv-stream": set(),
}
# generator probabilities lie in [0, 1]; every other generator number (bar
# the count ``arms``) and the EWMA half-lives are scales, > 0
_PROBABILITY_KEYS = {"p_eps", "p_jump", "pi"}


class TrialError(RuntimeError):
    """An agent failed mid-trial; carries the trial and step indices."""

    def __init__(self, trial: int, step: int, cause: Exception):
        super().__init__(f"trial {trial} failed at step {step}: {cause}")
        self.trial = trial
        self.step = step
        self.cause = cause


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_model(d: dict) -> MeasurementSpec:
    _check_keys(d, _MODEL_KEYS, "method.model")
    if "family" not in d:
        raise ConfigError("method.model requires a family")
    try:
        noise = d.get("obs_noise")
        if noise is not None and np.isscalar(noise):
            noise = (noise * np.eye(int(d.get("out_dim", 1)))).tolist()
        return MeasurementSpec(
            family=d["family"],
            out_dim=int(d.get("out_dim", 1)),
            obs_noise=None if noise is None else np.asarray(noise, dtype=float),
            feature_map=d.get("feature_map"),
            hidden=tuple(d.get("hidden", ())),
            activation=d.get("activation", "relu"),
            in_dim=d.get("in_dim"),
        )
    except ValueError as err:  # includes non-PSD obs_noise
        raise ConfigError(f"method.model: {err}") from err


def _parse_prior(d: dict) -> PriorPolicy:
    _check_keys(d, _PRIOR_KEYS, "method.prior")
    if "kind" not in d or "base_mean" not in d:
        raise ConfigError("method.prior requires kind and base_mean")
    if "base_cov" in d and "base_cov_scale" in d:
        raise ConfigError("give base_cov or base_cov_scale, not both")
    try:
        mean = np.asarray(d["base_mean"], dtype=float)
        if "base_cov" in d:
            cov = np.asarray(d["base_cov"], dtype=float)
        else:
            scale = d.get("base_cov_scale", 1.0)
            if not is_finite_number(scale):
                raise ConfigError(f"base_cov_scale must be a finite number, got {scale!r}")
            cov = float(scale) * np.eye(mean.size)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ConfigError("base_mean and base_cov must be finite")
        dyn = None
        if d.get("dyn") is not None:
            dd = d["dyn"]
            _check_keys(dd, _DYN_KEYS, "method.prior.dyn")
            dyn = LinearDynamics(
                np.asarray(dd["F"], dtype=float),
                np.asarray(dd["b"], dtype=float),
                np.asarray(dd["Q"], dtype=float),
            )
        return PriorPolicy(
            kind=d["kind"],
            base_prior=GaussBelief(mean, cov),
            gamma=d.get("gamma"),
            alpha=d.get("alpha"),
            shrink=d.get("shrink"),
            perturb_var=d.get("perturb_var"),
            dyn=dyn,
            epsilon=d.get("epsilon"),
        )
    except (KeyError, TypeError, ValueError) as err:  # ValueError includes ConfigError
        raise ConfigError(f"method.prior: {err}") from err


def parse_method(d: dict) -> MethodConfig:
    """Parse the JSON 'method' stanza into a validated MethodConfig."""
    _check_keys(d, _METHOD_KEYS, "method")
    for key in ("name", "model", "prior"):
        if key not in d:
            raise ConfigError(f"method requires {key}")
    cpp = d.get("cpp", {})
    _check_keys(cpp, _CPP_KEYS, "method.cpp")
    hazard = d.get("hazard")
    drift_unpulled = d.get("drift_unpulled", True)
    if not isinstance(drift_unpulled, bool):
        raise ConfigError(f"drift_unpulled must be true or false, got {drift_unpulled!r}")
    return MethodConfig(
        name=d["name"],
        spec=_parse_model(d["model"]),
        policy=_parse_prior(d["prior"]),
        hazard=None if hazard is None else HazardSpec(hazard),
        capacity=d.get("K"),
        wolf_c=d.get("wolf_c"),
        cpp_steps=cpp.get("steps", 10),
        cpp_lr=cpp.get("lr", 0.1),
        drift_unpulled=drift_unpulled,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw dict it came from."""

    experiment: str
    method: MethodConfig
    trials: int
    horizon: int
    seed: int
    output_path: str | None
    warmup: int | None
    rolling_window: int
    runlength_output_path: str | None
    data_path: str | None
    ewma_target_half_life: float | None
    ewma_feature_half_life: float | None
    generator_params: dict
    sweep: dict | None
    raw: dict = field(repr=False)


def _count(raw: dict, key: str, default: int, minimum: int) -> int:
    value = raw.get(key, default)
    if not (is_integer(value) and value >= minimum):
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_number(key: str, value):
    if key in _PROBABILITY_KEYS:
        ok, rule = is_finite_number(value) and 0.0 <= value <= 1.0, "in [0, 1]"
    else:
        ok, rule = is_finite_number(value) and value > 0.0, "> 0"
    if not ok:
        raise ConfigError(f"{key} must be a finite number {rule}, got {value!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, _TOP_KEYS, "config")
    if "experiment" not in raw or "method" not in raw:
        raise ConfigError("config requires experiment and method")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    gen = raw.get("generator", {})
    _check_keys(gen, _GENERATOR_KEYS[experiment], f"generator ({experiment})")
    for key, value in gen.items():
        if key == "arms":
            _count(gen, "arms", None, 1)
        else:
            _check_number(key, value)
    for key in ("ewma_target_half_life", "ewma_feature_half_life"):
        if raw.get(key) is not None:
            _check_number(key, raw[key])
    horizon = _count(raw, "horizon", DEFAULT_HORIZON.get(experiment, 0), 0)
    if experiment == "csv-stream" and not raw.get("data_path"):
        raise ConfigError("csv-stream requires data_path")
    trials = _count(raw, "trials", 1, 1)
    rolling_window = _count(raw, "rolling_window", 12, 1)
    seed = _count(raw, "seed", 0, 0)
    warmup = None if raw.get("warmup") is None else _count(raw, "warmup", None, 0)
    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict) or not sweep:
            raise ConfigError("sweep must be a non-empty mapping")
        for key in sweep:
            _validate_sweep_key(key)
    return ExperimentConfig(
        experiment=experiment,
        method=parse_method(raw["method"]),
        trials=trials,
        horizon=horizon,
        seed=seed,
        output_path=raw.get("output_path"),
        warmup=warmup,
        rolling_window=rolling_window,
        runlength_output_path=raw.get("runlength_output_path"),
        data_path=raw.get("data_path"),
        ewma_target_half_life=raw.get("ewma_target_half_life"),
        ewma_feature_half_life=raw.get("ewma_feature_half_life"),
        generator_params=dict(gen),
        sweep=sweep,
        raw=raw,
    )


_SWEEPABLE = {
    "horizon", "seed",
    "method.hazard", "method.K", "method.wolf_c", "method.drift_unpulled",
    "method.cpp.steps", "method.cpp.lr",
    "method.prior.gamma", "method.prior.alpha", "method.prior.shrink",
    "method.prior.perturb_var", "method.prior.epsilon",
    "method.prior.base_cov_scale",
    "method.model.obs_noise",
}


def _validate_sweep_key(key: str):
    if key in _SWEEPABLE:
        return
    if key.startswith("generator."):
        leaf = key.split(".", 1)[1]
        if any(leaf in ks for ks in _GENERATOR_KEYS.values()):
            return
    raise ConfigError(f"sweep key {key!r} does not name a hyperparameter")


def _set_by_path(raw: dict, key: str, value):
    parts = key.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


@dataclass
class MetricTrace:
    """Per-trial evaluation trace with rolling aggregates and final scalars."""

    kind: str
    losses: np.ndarray
    rolling: np.ndarray
    trial: int
    seed: int
    method: str
    experiment: str
    errors: np.ndarray | None = None
    mode_runlengths: np.ndarray | None = None
    regret: np.ndarray | None = None
    predictions: np.ndarray | None = None
    finals: dict = field(default_factory=dict)


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean with partial windows at the start."""
    out = np.empty_like(values, dtype=float)
    c = np.concatenate([[0.0], np.cumsum(values, dtype=float)])
    for t in range(values.size):
        lo = max(0, t + 1 - window)
        out[t] = (c[t + 1] - c[lo]) / (t + 1 - lo)
    return out


def compute_metrics(trace: MetricTrace, kind: str | None = None) -> dict:
    """Final scalars for a trace: RMSE, MAE, misclassification, regret,
    changepoint count, as applicable to the trace kind."""
    kind = kind or trace.kind
    finals: dict = {}
    if trace.losses.size == 0:
        return finals
    if kind == "regression":
        e = trace.errors if trace.errors is not None else np.sqrt(trace.losses)
        finals["rmse"] = float(np.sqrt(np.mean(e**2)))
        finals["mae"] = float(np.mean(np.abs(e)))
    elif kind == "classification":
        finals["misclassification_rate"] = float(np.mean(trace.losses))
    elif kind == "bandit":
        reg = trace.regret if trace.regret is not None else trace.losses
        finals["cumulative_regret"] = float(np.sum(reg))
    if trace.mode_runlengths is not None and trace.mode_runlengths.size:
        finals["changepoint_count"] = int(np.sum(trace.mode_runlengths == 0))
    return finals


def ewma_normalize(series, half_life: float) -> np.ndarray:
    """Standardize a series against its own exponential history.

    Decay 2^(-1/half_life); statistics are weight-normalized so a large
    half-life approaches global standardization.  Element t is scored
    against the mean/variance available at t-1; the first element is 0 and
    the variance is guarded at 1e-12.
    """
    if half_life <= 0:
        raise ValueError("half_life must be positive")
    y = np.asarray(series, dtype=float)
    lam = 2.0 ** (-1.0 / half_life)
    out = np.zeros_like(y)
    if y.size == 0:
        return out
    # weighted Welford recurrence: m is the decayed weighted mean, s the
    # decayed weighted sum of squared deviations, w the total weight
    m, s, w = y[0], 0.0, 1.0
    for t in range(1, y.size):
        d = y[t] - m
        # the variance track seeds from the first squared deviation
        v = d * d if t == 1 else s / w
        out[t] = d / np.sqrt(max(v, 1e-12))
        w = lam * w + 1.0
        s = lam * s + d * (y[t] - (m + d / w))
        m = m + d / w
    return out


def ewma_scale(series, half_life: float) -> np.ndarray:
    """Divide a series by its trailing exponentially weighted mean."""
    if half_life <= 0:
        raise ValueError("half_life must be positive")
    y = np.asarray(series, dtype=float)
    lam = 2.0 ** (-1.0 / half_life)
    out = np.empty_like(y)
    if y.size == 0:
        return out
    out[0] = y[0] / max(abs(y[0]), 1e-12)
    s1, w = y[0], 1.0
    for t in range(1, y.size):
        m = s1 / w
        out[t] = y[t] / max(abs(m), 1e-12)
        s1 = lam * s1 + y[t]
        w = lam * w + 1.0
    return out


def _csv_row(path: str, line: int, header: list[str], row: list[str]) -> list[float]:
    if len(row) != len(header):
        raise ConfigError(f"{path}: row {line} has {len(row)} cells, header has {len(header)}")
    values = []
    for name, cell in zip(header, row):
        try:
            v = float(cell)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise ConfigError(f"{path}: row {line}, column {name!r}: {cell!r} is not a finite number")
        values.append(v)
    return values


def load_csv_stream(
    path: str,
    ewma_target_half_life: float | None = None,
    ewma_feature_half_life: float | None = None,
) -> list[StreamRecord]:
    """CSV ingestion: header row required, feature columns first, target last."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty CSV, header row required")
        rows = [_csv_row(path, reader.line_num, header, row) for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ConfigError(f"{path}: need at least one feature column and a target")
    X, y = data[:, :-1], data[:, -1]
    if ewma_target_half_life is not None:
        y = ewma_normalize(y, ewma_target_half_life)
    if ewma_feature_half_life is not None:
        X = np.column_stack(
            [ewma_scale(X[:, j], ewma_feature_half_life) for j in range(X.shape[1])]
        )
    return [StreamRecord(t=t, x=X[t], y=float(y[t])) for t in range(data.shape[0])]


def _trial_rng(seed: int, trial: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial, role]))


def _make_stream(cfg: ExperimentConfig, trial: int) -> list[StreamRecord]:
    if cfg.experiment == "csv-stream":
        records = load_csv_stream(
            cfg.data_path, cfg.ewma_target_half_life, cfg.ewma_feature_half_life
        )
        return records[: cfg.horizon] if cfg.horizon else records
    gen = GENERATORS[cfg.experiment]
    rng_seed = np.random.SeedSequence([cfg.seed, trial, 0])
    if cfg.experiment == "bandit":
        params = dict(cfg.generator_params)
        arms = int(params.pop("arms", 10))
        return gen(arms=arms, T=cfg.horizon, seed=rng_seed, **params)
    return gen(T=cfg.horizon, seed=rng_seed, **cfg.generator_params)


def _classify_loss(yhat, y) -> float:
    p = np.atleast_1d(np.asarray(yhat, dtype=float))
    if p.size == 1:  # bernoulli: probability of class 1
        label = int(p[0] > 0.5)
        return float(label != int(y))
    return float(int(np.argmax(p)) != int(np.atleast_1d(y).argmax() if np.size(y) > 1 else y))


def _run_prequential_trial(cfg: ExperimentConfig, trial: int):
    kind = EXPERIMENT_KIND[cfg.experiment]
    records = _make_stream(cfg, trial)
    method = cfg.method
    anchor0 = None
    if method.spec.family == "segment-poly-gaussian" and records:
        anchor0 = float(np.atleast_1d(records[0].x)[0])
    state = init_agent(method, anchor_x=anchor0)
    n = len(records)
    losses = np.zeros(n)
    errors = np.zeros(n) if kind == "regression" else None
    preds = np.zeros(n)
    modes = np.zeros(n, dtype=int)
    banks = [] if cfg.runlength_output_path else None
    for t, rec in enumerate(records):
        try:
            yhat, _ = predict_weighted(state, method, rec.x)
            yhat_scalar = float(np.asarray(yhat).ravel()[0])
            preds[t] = yhat_scalar
            if kind == "regression":
                errors[t] = float(rec.y) - yhat_scalar
                losses[t] = errors[t] ** 2
            else:
                losses[t] = _classify_loss(yhat, rec.y)
            state, _, _ = bone_step(state, method, rec.x, rec.y)
        except Exception as err:  # noqa: BLE001 - surfaced with the step index
            raise TrialError(trial, t, err) from err
        modes[t] = state.bank.map_runlength
        if banks is not None:
            banks.append(state.bank)
    window = cfg.rolling_window
    roll_base = np.abs(errors) if kind == "regression" else losses
    trace = MetricTrace(
        kind=kind,
        losses=losses,
        rolling=rolling_mean(roll_base, window) if n else np.zeros(0),
        trial=trial,
        seed=cfg.seed,
        method=method.name,
        experiment=cfg.experiment,
        errors=errors,
        mode_runlengths=modes,
        predictions=preds,
    )
    trace.finals = compute_metrics(trace)
    return trace, banks


def _run_bandit_trial(cfg: ExperimentConfig, trial: int) -> MetricTrace:
    records = _make_stream(cfg, trial)
    method = cfg.method
    agent_rng = _trial_rng(cfg.seed, trial, 1)
    reward_rng = _trial_rng(cfg.seed, trial, 2)
    arms = records[0].arm_probs.size if records else 0
    states = [init_agent(method) for _ in range(arms)]
    n = len(records)
    regret = np.zeros(n)
    for t, rec in enumerate(records):
        try:
            a = thompson_action(states, method, rec.x, agent_rng)
            probs = rec.arm_probs
            reward = float(reward_rng.random() < probs[a])
            regret[t] = float(probs.max() - probs[a])
            states[a], _, _ = bone_step(states[a], method, rec.x, reward)
            for j in range(arms):
                if j != a:
                    states[j] = drift_unobserved(states[j], method)
        except Exception as err:  # noqa: BLE001
            raise TrialError(trial, t, err) from err
    trace = MetricTrace(
        kind="bandit",
        losses=regret,
        rolling=rolling_mean(regret, cfg.rolling_window) if n else np.zeros(0),
        trial=trial,
        seed=cfg.seed,
        method=method.name,
        experiment=cfg.experiment,
        regret=regret,
    )
    trace.finals = compute_metrics(trace)
    return trace


def _worker(raw_json: str, trial: int):
    cfg = parse_config(json.loads(raw_json))
    if cfg.experiment == "bandit":
        return _run_bandit_trial(cfg, trial)
    return _run_prequential_trial(cfg, trial)[0]


def run_prequential(cfg: ExperimentConfig, parallel: int = 1) -> list[MetricTrace]:
    """Run every trial of a prequential experiment; output ordered by trial."""
    if cfg.experiment == "bandit":
        raise ConfigError("use run_bandit for the bandit experiment")
    traces = []
    if parallel > 1 and cfg.trials > 1:
        # trial 0 runs here when the runlength matrix is requested, so the
        # export works identically regardless of the worker pool
        first = 0
        if cfg.runlength_output_path:
            trace, banks = _run_prequential_trial(cfg, 0)
            traces.append(trace)
            _write_runlength_csv(banks, cfg.runlength_output_path)
            first = 1
        raw_json = json.dumps(cfg.raw)
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            traces += list(
                pool.map(_worker, itertools.repeat(raw_json), range(first, cfg.trials))
            )
    else:
        for trial in range(cfg.trials):
            trace, banks = _run_prequential_trial(cfg, trial)
            traces.append(trace)
            if banks is not None and trial == 0:
                _write_runlength_csv(banks, cfg.runlength_output_path)
            log.info("trial %d/%d done: %s", trial + 1, cfg.trials, trace.finals)
    return traces


def run_bandit(cfg: ExperimentConfig, parallel: int = 1) -> list[MetricTrace]:
    """Thompson-sampling simulation per trial; rewards realized for the
    pulled arm only, regret measured against the true arm probabilities."""
    if cfg.experiment != "bandit":
        raise ConfigError("run_bandit requires the bandit experiment")
    if parallel > 1 and cfg.trials > 1:
        raw_json = json.dumps(cfg.raw)
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(_worker, itertools.repeat(raw_json), range(cfg.trials)))
    traces = []
    for trial in range(cfg.trials):
        trace = _run_bandit_trial(cfg, trial)
        traces.append(trace)
        log.info("simulation %d/%d done: %s", trial + 1, cfg.trials, trace.finals)
    return traces


def run_experiment(cfg: ExperimentConfig, parallel: int = 1) -> list[MetricTrace]:
    if cfg.experiment == "bandit":
        return run_bandit(cfg, parallel)
    return run_prequential(cfg, parallel)


def _fmt(v) -> str:
    return repr(float(v))


def _write_runlength_csv(banks, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "log_posterior"])
        for t, r, lp in runlength_posterior_rows(banks):
            writer.writerow([t, r, _fmt(lp)])


def export_results(traces: list[MetricTrace], path: str, config_echo: dict | None = None) -> Path:
    """Write the per-step CSV and a companion JSON summary.

    The CSV header is (trial, t, loss, rolling, method, experiment, seed);
    rows are ordered by (trial, t) and floats are emitted with repr so a
    rerun with an identical config is byte-identical.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "t", "loss", "rolling", "method", "experiment", "seed"])
        for trace in sorted(traces, key=lambda tr: tr.trial):
            for t in range(trace.losses.size):
                writer.writerow(
                    [
                        trace.trial,
                        t,
                        _fmt(trace.losses[t]),
                        _fmt(trace.rolling[t]),
                        trace.method,
                        trace.experiment,
                        trace.seed,
                    ]
                )
    summary = {
        "config": config_echo or {},
        "trials": [
            {"trial": tr.trial, "finals": tr.finals}
            for tr in sorted(traces, key=lambda tr: tr.trial)
        ],
    }
    spath = path.with_suffix(".summary.json")
    with open(spath, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_sweep(cfg: ExperimentConfig, out_dir: str, parallel: int = 1) -> dict:
    """Visit the full hyperparameter grid and report the grid argmin.

    Each grid point runs all trials on the warmup prefix (when configured)
    and writes its own CSV/JSON pair under out_dir.  The index maps every
    (grid point, trial) to its final scalars and names the best point by
    mean primary metric.
    """
    if not cfg.sweep:
        raise ConfigError("config has no sweep stanza")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys = sorted(cfg.sweep)
    grids = [cfg.sweep[k] for k in keys]
    kind = EXPERIMENT_KIND[cfg.experiment]
    metric = PRIMARY_METRIC[kind]
    rows = []
    best = None
    for idx, combo in enumerate(itertools.product(*grids)):
        raw = copy.deepcopy(cfg.raw)
        raw.pop("sweep", None)
        raw.pop("output_path", None)
        for k, v in zip(keys, combo):
            _set_by_path(raw, k, v)
        if cfg.warmup:
            raw["horizon"] = cfg.warmup
        point_cfg = parse_config(raw)
        traces = run_experiment(point_cfg, parallel)
        export_results(traces, out / f"point_{idx:04d}.csv", config_echo=raw)
        values = [tr.finals.get(metric, np.nan) for tr in traces]
        mean_val = float(np.mean(values))
        point = dict(zip(keys, combo))
        for tr in traces:
            rows.append({"point": point, "trial": tr.trial, "finals": tr.finals})
        if best is None or mean_val < best[1]:
            best = (point, mean_val)
        log.info("sweep point %s -> mean %s = %.6g", point, metric, mean_val)
    index = {
        "metric": metric,
        "rows": rows,
        "best": {"point": best[0], "mean": best[1]},
    }
    with open(out / "index.json", "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return index
