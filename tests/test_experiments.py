"""The experiment driver, scripts/experiments.py: file set, strict JSON and exit codes."""

import json

import pytest

from bone.harness import parse_config
from experiments import EXPERIMENTS, configs, main

# the per-method file stems each experiment writes, runlength dumps apart
STEMS = {
    "periodic_drift": ["RL-OUPR", "RL-PR_1", "RL-PR_10", "C-ACI", "CPP-OU"],
    "drift_jumps": ["C-ACI", "CPP-OU", "RL-PR_10", "RL-OUPR"],
    "heavy_tail": ["WoLF-RL-PR", "RL-PR", "C-Static"],
    "bandit": ["C-Static", "C-ACI", "CPP-OU", "RL-OUPR"],
    "dependent_segments": ["RL-PR", "RL-MMPR", "RL-OUPR"],
}
DUMPS = {"heavy_tail": ["runlength_WoLF-RL-PR.csv", "runlength_RL-PR.csv"]}


def strict_json(path):
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_table_names_the_five_experiments():
    assert sorted(EXPERIMENTS) == sorted(STEMS)


@pytest.mark.parametrize("name", sorted(STEMS))
def test_configs_take_overrides_and_parse(name):
    raws = configs(name, trials=3, horizon=7, seed=5)
    for raw in raws.values():
        cfg = parse_config(raw)
        assert (cfg.trials, cfg.horizon, cfg.seed) == (3, 7, 5)
    next(iter(raws.values()))["method"]["prior"]["base_mean"].append(1)
    assert configs(name, trials=3, horizon=7, seed=5) != raws  # each call copies the table
    table = EXPERIMENTS[name]["config"]
    for cfg in map(parse_config, configs(name).values()):
        assert (cfg.experiment, cfg.trials, cfg.horizon, cfg.seed) == (
            table["experiment"], table["trials"], table["horizon"], 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(STEMS))
def test_driver_writes_every_file_and_strict_summary(tmp_path, name):
    out = tmp_path / name
    assert main([name, "--trials", "1", "--horizon", "15", "--out", str(out)]) == 0
    expected = {f"{s}{ext}" for s in STEMS[name] for ext in (".csv", ".summary.json")}
    expected |= {"summary.json", *DUMPS.get(name, [])}
    assert {p.name for p in out.iterdir()} == expected
    summary = strict_json(out / "summary.json")
    exp = EXPERIMENTS[name]
    assert set(summary) == set(exp["methods"])
    for label, row in summary.items():
        assert set(row) == set(exp["stats"])
        for key, value in row.items():  # one trial has no standard error
            assert value is None if key == "se" else isinstance(value, float)
    for stem in STEMS[name]:
        strict_json(out / f"{stem}.summary.json")


def test_bad_trials_exit_2_before_the_output_exists(tmp_path, capsys):
    out = tmp_path / "bandit"
    assert main(["bandit", "--trials", "0", "--horizon", "15", "--out", str(out)]) == 2
    assert "config error: trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(STEMS))
def test_zero_horizon_writes_null_statistics(tmp_path, name):
    out = tmp_path / name
    assert main([name, "--trials", "2", "--horizon", "0", "--out", str(out)]) == 0
    summary = strict_json(out / "summary.json")
    assert summary == {label: dict.fromkeys(EXPERIMENTS[name]["stats"]) for label in summary}
    assert set(summary) == set(EXPERIMENTS[name]["methods"])


def test_bad_parallel_exits_2_before_the_output_exists(tmp_path):
    out = tmp_path / "bandit"
    with pytest.raises(SystemExit) as exited:  # an argument error, as argparse reports it
        main(["bandit", "--parallel", "0", "--horizon", "15", "--out", str(out)])
    assert exited.value.code == 2
    assert not out.exists()
