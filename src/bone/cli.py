"""Command line entry point.

bone run   --config cfg.json [--out path] [--seed N] [--trials N] [--parallel N]
bone sweep --config cfg.json --out dir [--parallel N]
bone gen   --experiment name --out stream.csv [--horizon N] [--seed N]

Exit codes: 0 success, 2 configuration error, 3 numeric failure.  BONE_LOG
(error | info | debug) controls diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .core import ConfigError, NumericDomainError
from .datagen import GENERATORS, stream_to_rows
from .harness import (
    TrialError,
    check_key,
    export_results,
    load_config,
    parse_config,
    read_config,
    run_experiment,
    run_sweep,
)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    name = os.environ.get("BONE_LOG", "error").lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(f"BONE_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(
        level=_LOG_LEVELS[name],
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bone", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--parallel", type=int, default=1)

    sweep = sub.add_parser("sweep", help="run the config's hyperparameter grid")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--parallel", type=int, default=1)

    gen = sub.add_parser("gen", help="dump a raw synthetic stream to CSV")
    gen.add_argument("--experiment", required=True, choices=sorted(GENERATORS))
    gen.add_argument("--out", required=True)
    gen.add_argument("--horizon", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)

    return p


def _cmd_run(args) -> int:
    raw = read_config(args.config)
    overrides = {"seed": args.seed, "trials": args.trials, "output_path": args.out}
    if isinstance(raw, dict):  # parse_config rejects any other document
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    cfg = parse_config(raw)
    out = Path(cfg.output_path or "results.csv")
    outputs = [out, out.with_suffix(".summary.json")]
    dump = cfg.runlength_output_path
    if dump and Path(dump).resolve() in {path.resolve() for path in outputs}:
        raise ConfigError(f"runlength_output_path would overwrite the results file {out}")
    for output in outputs + ([Path(dump)] if dump else []):  # checked before any trial runs
        if output.is_dir():
            raise ConfigError(f"output {output} is a directory")
    traces = run_experiment(cfg, parallel=args.parallel)
    path = export_results(traces, out, config_echo=raw)
    print(path)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    index = run_sweep(cfg, args.out, parallel=args.parallel)
    print(json.dumps(index["best"], sort_keys=True))
    return 0


def _cmd_gen(args) -> int:
    gen = GENERATORS[args.experiment]
    check_key("seed", args.seed)
    kwargs = {"seed": args.seed}
    if args.horizon is not None:
        check_key("horizon", args.horizon)
        kwargs["T"] = args.horizon
    records = gen(**kwargs)
    header, rows = stream_to_rows(records)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(args.out)
    return 0


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_gen(args)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericDomainError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except TrialError as err:
        if isinstance(err.cause, NumericDomainError):
            print(f"numeric failure: {err}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
