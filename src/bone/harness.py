"""Experiment runner: prequential loops, bandit simulation, metrics, export.

A configuration is a strict JSON document.  ``SCHEMA`` holds one row per
key path, with the rule its value must obey and whether a sweep may vary
it; a path with no row is rejected, so a typo in a sweep cannot silently
run the wrong hyperparameter.  All randomness flows from the single master
seed through the declared split scheme: SeedSequence([seed, trial, role])
with role 0 = data stream, role 1 = agent (Thompson draws), role 2 =
reward realization.
The trial runners hold only their step loops and share one trace builder
(``_trace``); worker processes receive the parsed ``ExperimentConfig``.
"""

from __future__ import annotations

import copy
import csv
import functools
import inspect
import itertools
import json
import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .agents import (
    DRIFT_KINDS,
    MethodConfig,
    bone_step,
    drift_unobserved,
    init_agent,
    predict_weighted,
    thompson_action,
)
from .core import ConfigError, GaussBelief, NumericDomainError, is_finite_number, is_integer
from .datagen import GENERATORS, StreamRecord
from .measurement import MeasurementSpec
from .priors import PriorPolicy
from .weighting import HazardSpec

log = logging.getLogger("bone")

EXPERIMENT_KIND = {
    "periodic-drift": "classification",
    "drift-jumps": "classification",
    "heavy-tail": "regression",
    "dependent-segments": "regression",
    "csv-stream": "regression",
    "bandit": "bandit",
}

PRIMARY_METRIC = {
    "classification": "misclassification_rate",
    "regression": "rmse",
    "bandit": "cumulative_regret",
}


class TrialError(RuntimeError):
    """An agent failed mid-trial; carries the trial and step indices."""

    def __init__(self, trial: int, step: int, cause: Exception):
        super().__init__(f"trial {trial} failed at step {step}: {cause}")
        self.trial = trial
        self.step = step
        self.cause = cause

    def __reduce__(self):  # a worker process sends it back pickled
        return TrialError, (self.trial, self.step, self.cause)


# A rule is (test, what the test asks for).
def _count(n: int):
    return (lambda v: is_integer(v) and v >= n), f"an integer >= {n}"


def _nullable(rule):
    test, text = rule
    return (lambda v: v is None or test(v)), f"{text} or null"


def _is_finite_array(v) -> bool:
    """A finite number or a rectangular nested list of them; bools are not numbers."""
    try:
        a = np.asarray(v)
    except ValueError:  # a ragged list
        return False
    return a.dtype.kind in "if" and bool(np.isfinite(a).all())


_NUMBER = is_finite_number, "a finite number"
_POSITIVE = (lambda v: is_finite_number(v) and v > 0), "a finite number > 0"
_PROBABILITY = (lambda v: is_finite_number(v) and 0 <= v <= 1), "a finite number in [0, 1]"
_BOOL = (lambda v: isinstance(v, bool)), "true or false"
_STRING = (lambda v: isinstance(v, str)), "a string"
_ARRAY = _is_finite_array, "a finite number or a rectangular list of them"
_COUNTS = (lambda v: isinstance(v, list) and all(map(_count(1)[0], v))), "a list of integers >= 1"
_SWEEP = (
    (lambda v: isinstance(v, dict) and v and all(isinstance(g, list) and g for g in v.values())),
    "a non-empty mapping of keys to non-empty lists",
)
_EXPERIMENT = (
    (lambda v: isinstance(v, str) and v in EXPERIMENT_KIND),
    f"one of {sorted(EXPERIMENT_KIND)}",
)

# Dotted key path -> (rule, sweepable).  The prefixes of the paths are the
# sections, each a JSON object.  Null means "not given" where a row is
# nullable.  The method stanza's numbers are range-checked by the dataclasses
# they build (callers also construct those directly), so their rows check
# only that the value is a finite number.  A generator key is allowed where
# the experiment's generator takes it.
SCHEMA = {
    "experiment": (_EXPERIMENT, False),
    "horizon": (_count(0), True),
    "trials": (_count(1), False),
    "seed": (_count(0), True),
    "warmup": (_nullable(_count(1)), False),
    "rolling_window": (_count(1), False),
    "output_path": (_nullable(_STRING), False),
    "runlength_output_path": (_nullable(_STRING), False),
    "data_path": (_nullable(_STRING), False),
    "ewma_target_half_life": (_nullable(_POSITIVE), False),
    "ewma_feature_half_life": (_nullable(_POSITIVE), False),
    "sweep": (_nullable(_SWEEP), False),
    "generator.arms": (_count(1), True),
    "generator.walk_sd": (_POSITIVE, True),
    "generator.p_eps": (_PROBABILITY, True),
    "generator.df": (_POSITIVE, True),
    "generator.p_jump": (_PROBABILITY, True),
    "generator.drift_sd": (_POSITIVE, True),
    "generator.pi": (_PROBABILITY, True),
    "generator.noise_sd": (_POSITIVE, True),
    "generator.coef_range": (_POSITIVE, True),
    "generator.x_max": (_POSITIVE, True),
    "method.name": (_STRING, False),
    "method.hazard": (_nullable(_NUMBER), True),
    "method.K": (_nullable(_NUMBER), True),
    "method.wolf_c": (_nullable(_NUMBER), True),
    "method.drift_unpulled": (_BOOL, True),
    "method.cpp.steps": (_NUMBER, True),
    "method.cpp.lr": (_NUMBER, True),
    "method.model.family": (_STRING, False),
    "method.model.out_dim": (_count(1), False),
    "method.model.obs_noise": (_nullable(_ARRAY), True),
    "method.model.feature_map": (_nullable(_STRING), False),
    "method.model.hidden": (_COUNTS, False),
    "method.model.in_dim": (_nullable(_count(1)), False),
    "method.prior.kind": (_STRING, False),
    "method.prior.base_mean": (_ARRAY, False),
    "method.prior.base_cov": (_ARRAY, False),
    "method.prior.base_cov_scale": (_NUMBER, True),
    "method.prior.gamma": (_nullable(_NUMBER), True),
    "method.prior.alpha": (_nullable(_NUMBER), True),
    "method.prior.epsilon": (_nullable(_NUMBER), True),
}
_SECTIONS = {path.rsplit(".", 1)[0] for path in SCHEMA if "." in path}


@functools.cache
def _generator_params(experiment: str):
    """The experiment generator's parameters by name; csv-stream has none."""
    gen = GENERATORS.get(experiment)
    return inspect.signature(gen).parameters if gen else {}


def check_key(path: str, value, generator_params=()):
    """Raise ConfigError unless ``path`` has a row in SCHEMA, and the
    experiment's generator takes it, and ``value`` obeys the row's rule."""
    leaf = path.removeprefix("generator.")
    if path not in SCHEMA or (leaf != path and leaf not in generator_params):
        raise ConfigError(f"unknown key {path!r}")
    test, text = SCHEMA[path][0]
    if not test(value):
        raise ConfigError(f"{path} must be {text}, got {value!r}")


def _flatten(node: dict, prefix: str, out: dict) -> dict:
    for key, value in node.items():
        path = prefix + key
        if path in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be a JSON object, got {value!r}")
            _flatten(value, path + ".", out)
        else:
            out[path] = value
    return out


def _make(cls, where: str, kwargs: dict):
    """``cls(**kwargs)``; a field with no default must be among the kwargs."""
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} requires {f.name}")
    try:
        return cls(**kwargs)
    except ValueError as err:  # includes ConfigError and a non-PSD matrix
        raise ConfigError(f"{where}: {err}") from err


def _require_symmetric(key: str, matrix) -> None:
    """A ConfigError unless a given 2-D matrix equals its transpose, checked
    as given: GaussBelief and MeasurementSpec would store the symmetric part."""
    if np.ndim(matrix) == 2 and not np.array_equal(matrix, np.transpose(matrix)):
        raise ConfigError(f"{key} must be a symmetric matrix, got {matrix!r}")


def _method(given: dict) -> MethodConfig:
    """The method built from ``given`` (section -> leaf name -> value)."""
    model = given.get("method.model", {})
    if "hidden" in model:
        model["hidden"] = tuple(model["hidden"])
    if "obs_noise" in model and np.ndim(model["obs_noise"]) == 0:  # a scalar variance
        model["obs_noise"] = model["obs_noise"] * np.eye(model.get("out_dim", 1))
    _require_symmetric("method.model.obs_noise", model.get("obs_noise"))
    spec = _make(MeasurementSpec, "method.model", model)
    prior = given.get("method.prior", {})
    if "base_cov" in prior and "base_cov_scale" in prior:
        raise ConfigError("give method.prior.base_cov or base_cov_scale, not both")
    if "base_mean" not in prior:
        raise ConfigError("method.prior requires base_mean")
    mean = np.asarray(prior.pop("base_mean"), dtype=float)
    cov = prior.pop("base_cov", None)
    if cov is None:
        cov = prior.pop("base_cov_scale", 1.0) * np.eye(mean.size)
    _require_symmetric("method.prior.base_cov", cov)
    prior["base_prior"] = _make(GaussBelief, "method.prior", {"mean": mean, "cov": cov})
    method = given.get("method", {})
    if "hazard" in method:
        method["hazard"] = HazardSpec(method["hazard"])
    if "K" in method:
        method["capacity"] = method.pop("K")
    cpp = given.get("method.cpp", {})
    method.update((f"cpp_{k}", v) for k, v in cpp.items())
    policy = _make(PriorPolicy, "method.prior", prior)
    cfg = _make(MethodConfig, "method", dict(method, spec=spec, policy=policy))
    if cpp and cfg.name != "CPP-OU":
        raise ConfigError(f"method.cpp: {cfg.name} does not take a cpp section")
    return cfg


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw dict it came from.

    A horizon of 0 reads the whole CSV stream; ``parse_config`` passes a
    synthetic experiment its generator's default horizon.
    """

    experiment: str
    method: MethodConfig
    trials: int = 1
    horizon: int = 0
    seed: int = 0
    output_path: str | None = None
    warmup: int | None = None
    rolling_window: int = 12
    runlength_output_path: str | None = None
    data_path: str | None = None
    ewma_target_half_life: float | None = None
    ewma_feature_half_life: float | None = None
    generator_params: dict = field(default_factory=dict)
    sweep: dict | None = None
    raw: dict = field(default_factory=dict, repr=False)


def parse_config(raw: dict) -> ExperimentConfig:
    """Check ``raw`` against SCHEMA and build the experiment it describes."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {raw!r}")
    flat = _flatten(raw, "", {})
    check_key("experiment", flat.get("experiment"))
    params = _generator_params(flat["experiment"])
    given = {}  # section -> leaf name -> value, less the nulls
    for path, value in flat.items():
        check_key(path, value, params)
        if value is not None:
            section, _, leaf = path.rpartition(".")
            given.setdefault(section, {})[leaf] = value
    for key, grid in (flat.get("sweep") or {}).items():
        if not SCHEMA.get(key, (None, False))[1]:
            raise ConfigError(f"sweep key {key!r} does not name a hyperparameter")
        for value in grid:
            check_key(key, value, params)
    top = given[""]
    if "horizon" not in top and params:
        top["horizon"] = params["T"].default
    warmup, horizon = top.get("warmup"), top.get("horizon")
    if warmup and horizon and warmup > horizon:
        raise ConfigError(f"warmup {warmup} exceeds the horizon {horizon}")
    if warmup and "horizon" in (top.get("sweep") or {}):
        raise ConfigError(
            "sweep over horizon with a warmup: every grid point would run the warmup prefix"
        )
    experiment = top["experiment"]
    if experiment == "csv-stream" and not top.get("data_path"):
        raise ConfigError("csv-stream requires data_path")
    if experiment == "bandit" and "runlength_output_path" in top:
        raise ConfigError("runlength_output_path: a bandit trial writes no runlength posterior")
    method = _method(given)
    if "drift_unpulled" in given.get("method", {}) and (
        experiment != "bandit" or method.policy.kind not in DRIFT_KINDS
    ):
        raise ConfigError(
            f"method.drift_unpulled: {method.name} on {experiment} does not read it; "
            f"only bandit arms of prior kind {' or '.join(DRIFT_KINDS)} drift"
        )
    return ExperimentConfig(
        **top, method=method, generator_params=given.get("generator", {}), raw=raw
    )


def _set_by_path(raw: dict, key: str, value):
    parts = key.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def read_config(path) -> dict:
    """The JSON document at ``path`` (UTF-8); a ConfigError names a bad file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from err


def load_config(path) -> ExperimentConfig:
    return parse_config(read_config(path))


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
    finals: dict = field(default_factory=dict)


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean with partial windows at the start."""
    c = np.concatenate([[0.0], np.cumsum(values, dtype=float)])
    end = np.arange(1, values.size + 1)
    lo = np.maximum(0, end - window)
    return (c[end] - c[lo]) / (end - lo)


def compute_metrics(trace: MetricTrace) -> dict:
    """Final scalars for a trace: RMSE, MAE, misclassification, regret,
    changepoint count, as applicable to the trace kind.  A scalar that
    overflows is a NumericDomainError."""
    finals: dict = {}
    if trace.losses.size == 0:
        return finals
    with np.errstate(over="ignore"):  # an overflow is raised below
        if trace.kind == "regression":
            e = trace.errors if trace.errors is not None else np.sqrt(trace.losses)
            finals["rmse"] = float(np.sqrt(np.mean(e**2)))
            finals["mae"] = float(np.mean(np.abs(e)))
        elif trace.kind == "classification":
            finals["misclassification_rate"] = float(np.mean(trace.losses))
        elif trace.kind == "bandit":  # a bandit's losses are its per-step regret
            finals["cumulative_regret"] = float(np.sum(trace.losses))
    for name, value in finals.items():
        if not math.isfinite(value):
            raise NumericDomainError(f"{name} of trial {trace.trial} is {value}")
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
    """CSV ingestion (UTF-8): header row required, feature columns first, target last."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty CSV, header row required")
            rows = [_csv_row(path, reader.line_num, header, row) for row in reader if row]
    except UnicodeDecodeError as err:
        raise ConfigError(f"data_path {path}: {err}") from err
    if not rows:
        raise ConfigError(f"{path}: no data rows after the header")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
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
    """The trial's stream, checked against the MLP input width, the length
    of the base prior and, for a stream with targets, the model's outputs:
    a Gaussian family reads ``out_dim`` entries, a categorical one an
    integer class in [0, out_dim) and a bernoulli one 0 or 1.  The targets
    checked are the ones the model reads, after ``ewma_target_half_life``."""
    if cfg.experiment == "csv-stream":
        records = load_csv_stream(
            cfg.data_path, cfg.ewma_target_half_life, cfg.ewma_feature_half_life
        )[: cfg.horizon or None]
    else:
        rng_seed = np.random.SeedSequence([cfg.seed, trial, 0])
        records = GENERATORS[cfg.experiment](T=cfg.horizon, seed=rng_seed, **cfg.generator_params)
    if records:
        spec, n = cfg.method.spec, np.size(records[0].x)
        if spec.family == "mlp-gaussian" and spec.in_dim != n:
            raise ConfigError(
                f"method.model.in_dim is {spec.in_dim}, but the stream has {n} features"
            )
        m = spec.param_count(records[0].x)
        dim = cfg.method.policy.base_prior.dim
        if m != dim:
            raise ConfigError(
                f"method.prior.base_mean has length {dim}, but the model has {m} parameters"
            )
        if cfg.experiment != "bandit":  # a bandit stream holds no targets
            _check_targets(spec, records)
    return records


def _check_targets(spec, records) -> None:
    if spec.is_gaussian:
        d = np.size(records[0].y)
        if d != spec.out_dim:
            raise ConfigError(
                f"method.model.out_dim is {spec.out_dim}, but the stream's targets have {d} entries"
            )
    else:  # a class: 0 or 1 for bernoulli-logit, in [0, out_dim) for categorical-softmax
        if spec.family == "bernoulli-logit":
            C, model = 2, "method.model.family is 'bernoulli-logit'"
        else:
            C, model = spec.out_dim, f"method.model.out_dim is {spec.out_dim}"
        for rec in records:
            y = np.ravel(np.asarray(rec.y, dtype=float))
            if not (y.size == 1 and 0 <= y[0] < C and y[0].is_integer()):
                raise ConfigError(
                    f"{model}, but the target {rec.y!r} at step {rec.t}"
                    f" is not a class in [0, {C})"
                )


def _classify_loss(yhat, y) -> float:
    p = np.atleast_1d(np.asarray(yhat, dtype=float))
    label = int(p[0] > 0.5) if p.size == 1 else int(np.argmax(p))  # y is a class index
    return float(label != int(y))


def _trace(cfg, trial, losses, roll_base, errors=None, modes=None) -> MetricTrace:
    """The trace of ``losses``, with the rolling mean of ``roll_base`` and the finals."""
    trace = MetricTrace(
        kind=EXPERIMENT_KIND[cfg.experiment],
        losses=losses,
        rolling=rolling_mean(roll_base, cfg.rolling_window),
        trial=trial,
        seed=cfg.seed,
        method=cfg.method.name,
        experiment=cfg.experiment,
        errors=errors,
        mode_runlengths=modes,
    )
    trace.finals = compute_metrics(trace)
    return trace


def _run_prequential_trial(cfg: ExperimentConfig, trial: int, records) -> MetricTrace:
    """One prequential trial over ``records``; trial 0 also writes the
    runlength CSV when ``runlength_output_path`` is set, whichever process
    runs it.  A non-finite prediction or loss is a NumericDomainError at its
    step."""
    kind = EXPERIMENT_KIND[cfg.experiment]
    method = cfg.method
    state = init_agent(method, records[0].x if records else None)
    n = len(records)
    losses = np.zeros(n)
    errors = np.zeros(n) if kind == "regression" else None
    modes = np.zeros(n, dtype=int)
    # trial 0's runlength posterior, one (t, runlengths, log_weights) per step
    posterior = [] if cfg.runlength_output_path and trial == 0 else None
    for t, rec in enumerate(records):
        try:
            yhat, _ = predict_weighted(state, method, rec.x)
            yhat_scalar = float(np.asarray(yhat).ravel()[0])
            if kind == "regression":
                errors[t] = float(rec.y) - yhat_scalar
                with np.errstate(over="ignore"):  # an infinite loss is raised below
                    losses[t] = errors[t] ** 2
            else:
                losses[t] = _classify_loss(yhat, rec.y)
            if not (np.isfinite(yhat).all() and math.isfinite(losses[t])):
                raise NumericDomainError(
                    f"loss {float(losses[t])} of prediction {yhat_scalar!r} is not finite"
                )
            state, _, _ = bone_step(state, method, rec.x, rec.y)
        except Exception as err:  # noqa: BLE001 - surfaced with the step index
            raise TrialError(trial, t, err) from err
        bank = state.bank
        modes[t] = bank.map_runlength
        if posterior is not None:
            posterior.append((bank.timestep, bank.runlengths, bank.log_weights))
    roll_base = np.abs(errors) if kind == "regression" else losses
    trace = _trace(cfg, trial, losses, roll_base, errors, modes)
    if posterior is not None:
        _write_runlength_csv(posterior, cfg.runlength_output_path)
    return trace


def _run_bandit_trial(cfg: ExperimentConfig, trial: int, records) -> MetricTrace:
    method = cfg.method
    agent_rng = _trial_rng(cfg.seed, trial, 1)
    reward_rng = _trial_rng(cfg.seed, trial, 2)
    arms = records[0].arm_probs.size if records else 0
    states = [init_agent(method) for _ in range(arms)]
    regret = np.zeros(len(records))
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
    return _trace(cfg, trial, regret, regret)


def _run_trial(cfg: ExperimentConfig, trial: int, steps: int | None = None) -> MetricTrace:
    run = _run_bandit_trial if cfg.experiment == "bandit" else _run_prequential_trial
    return run(cfg, trial, _make_stream(cfg, trial)[:steps])


def _check_parallel(parallel) -> None:
    if not (is_integer(parallel) and parallel >= 1):
        raise ConfigError(f"parallel must be an integer >= 1, got {parallel!r}")


def run_experiment(
    cfg: ExperimentConfig, parallel: int = 1, steps: int | None = None
) -> list[MetricTrace]:
    """Run every trial, in min(parallel, trials) worker processes when that is
    above 1; the traces are ordered by trial and do not depend on ``parallel``.
    With ``steps`` set, each trial runs the first ``steps`` records of its
    stream."""
    _check_parallel(parallel)
    workers = min(parallel, cfg.trials)
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        # the config pickles whole, computed fields (PriorPolicy.base_floor) included
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(
                _run_trial, itertools.repeat(cfg), range(cfg.trials), itertools.repeat(steps)
            ))
    traces = []
    for trial in range(cfg.trials):
        traces.append(_run_trial(cfg, trial, steps))
        log.info("trial %d/%d done: %s", trial + 1, cfg.trials, traces[-1].finals)
    return traces


def _fmt(v) -> str:
    return repr(float(v))


def _write_runlength_csv(posterior, path: str):
    """A (t, r, log_posterior) row per hypothesis of each step's bank in ``posterior``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "log_posterior"])
        for t, runlengths, log_weights in posterior:
            writer.writerows([int(t), int(r), _fmt(lw)] for r, lw in zip(runlengths, log_weights))


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
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def run_sweep(cfg: ExperimentConfig, out_dir: str, parallel: int = 1) -> dict:
    """Visit the full hyperparameter grid and report the grid argmin.

    Each grid point runs all trials on the first ``warmup`` records of the
    horizon-length stream (when configured) and writes its own CSV/JSON pair
    under out_dir, whose config echo gives the warmup as its horizon.  With
    ``runlength_output_path`` set, each point also writes its own runlength
    dump, ``point_<idx>.runlength.csv``, beside them in place of that path.
    The index maps every (grid point, trial) to its final scalars and names
    the best point by mean primary metric.  A point without one (horizon 0)
    is never best; with no such point, the best point and its mean are null.
    """
    if not cfg.sweep:
        raise ConfigError("config has no sweep stanza")
    _check_parallel(parallel)
    keys = sorted(cfg.sweep)
    combos = list(itertools.product(*(cfg.sweep[k] for k in keys)))
    out = Path(out_dir)
    point_cfgs = []  # every grid point is parsed before any runs, so a bad one writes nothing
    for idx, combo in enumerate(combos):
        raw = copy.deepcopy(cfg.raw)
        raw.pop("sweep", None)
        raw.pop("output_path", None)
        for k, v in zip(keys, combo):
            _set_by_path(raw, k, v)
        if cfg.runlength_output_path:
            raw["runlength_output_path"] = str(out / f"point_{idx:04d}.runlength.csv")
        point_cfgs.append(parse_config(raw))
    out.mkdir(parents=True, exist_ok=True)
    metric = PRIMARY_METRIC[EXPERIMENT_KIND[cfg.experiment]]
    rows = []
    best = {"point": None, "mean": None}
    for idx, (combo, point_cfg) in enumerate(zip(combos, point_cfgs)):
        traces = run_experiment(point_cfg, parallel, steps=cfg.warmup)
        echo = dict(point_cfg.raw, horizon=cfg.warmup) if cfg.warmup else point_cfg.raw
        export_results(traces, out / f"point_{idx:04d}.csv", config_echo=echo)
        values = [tr.finals.get(metric) for tr in traces]
        mean_val = None if None in values else float(np.mean(values))
        point = dict(zip(keys, combo))
        for tr in traces:
            rows.append({"point": point, "trial": tr.trial, "finals": tr.finals})
        if mean_val is not None and (best["mean"] is None or mean_val < best["mean"]):
            best = {"point": point, "mean": mean_val}
        log.info("sweep point %s -> mean %s = %s", point, metric, mean_val)
    index = {"metric": metric, "rows": rows, "best": best}
    with open(out / "index.json", "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True, default=str, allow_nan=False)
        fh.write("\n")
    return index
