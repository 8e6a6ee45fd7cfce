"""Command-line interface.

Subcommands: sweep, scan (experiment runs writing results.csv + summary.json),
chart (print the coordinate chart of a subspace file), dims (box dimension of
a sample file), bound (print the exceptional-set bound).

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .charts import to_chart
from .errors import ConfigError, ProjlabError, config_check, parse_json
from .fractal import _scales, box_dimension, load_sample
from .grassmann import Subspace
from .lab import (ExperimentConfig, exceptional_scan, kaufman_bound,
                  marstrand_sweep, result_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(prog="projlab")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("sweep", "scan"):
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("chart", help="print the coordinate chart of a subspace")
    p.add_argument("--subspace", required=True, help="subspace JSON file")

    p = sub.add_parser("dims", help="box dimension of a point-sample file")
    p.add_argument("--sample", required=True, help="binary sample file (with sidecar)")
    p.add_argument("--scale-lo", type=int, default=2)
    p.add_argument("--scale-hi", type=int, default=8)

    p = sub.add_parser("bound", help="print the exceptional-set bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    return parser


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    obj = parse_json(path.read_text(), ConfigError, "config")
    if args.seed is not None and isinstance(obj, dict):
        obj["seed"] = args.seed
    return ExperimentConfig.from_dict(obj)


def _write_outputs(result, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(result_csv(result))
    (out / "summary.json").write_text(json.dumps(result.summary, indent=2) + "\n")


def run_cli(argv=None) -> int:
    """Run one subcommand and return its exit code.  Every call reuses the
    process's one parser; an argparse error raises ``SystemExit(2)``."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bound":
            print(config_check("--n, --k, --s", kaufman_bound, args.n, args.k, args.s))
        elif args.command in ("sweep", "scan"):
            config = _load_config(args)
            runner = marstrand_sweep if args.command == "sweep" else exceptional_scan
            _write_outputs(runner(config), args.out)
        elif args.command == "chart":
            path = Path(args.subspace)
            if not path.exists():
                raise ConfigError(f"subspace file not found: {path}")
            # Invalid JSON exits 2; a document that is no subspace exits 3.
            doc = parse_json(path.read_text(), ConfigError, "subspace file")
            print(to_chart(Subspace.from_json(doc)).to_json())
        elif args.command == "dims":
            config_check("--scale-lo, --scale-hi", _scales, args.scale_lo, args.scale_hi)
            path = Path(args.sample)
            if not path.exists() or not path.with_suffix(".json").exists():
                raise ConfigError(f"sample file or sidecar not found: {path}")
            est = box_dimension(load_sample(path), args.scale_lo, args.scale_hi)
            print(json.dumps({"value": est.value, "stderr": est.slope_stderr,
                              "scales": list(est.scales),
                              "counts": list(est.counts)}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProjlabError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
