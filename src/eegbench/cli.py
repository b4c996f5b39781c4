"""Command-line surface.

Subcommands: ``run`` (full experiment), ``validate`` (config check),
``features`` (dump one feature matrix), ``stats`` (re-run the inferential
statistics on an existing long-format CSV), ``synth`` (write a synthetic
Bonn-layout corpus). Exit codes: 0 success, 1 configuration error,
2 data error, 3 cell failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ENV_CORPUS_ROOT, validate_config
from .errors import CellError, ConfigError, DataError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_CELL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegbench",
        description="Seizure-classification benchmark over wavelet and cepstral features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured experiment")
    run.add_argument("config", help="path to a JSON run configuration")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--jobs", type=int, help="worker processes for cells")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--profile", choices=["reproduction", "custom"],
                     help="override the configured profile")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("config")

    feats = sub.add_parser("features", help="extract and dump one feature matrix")
    feats.add_argument("config")
    feats.add_argument("--scheme", default="imbalanced",
                       choices=["imbalanced", "balanced"])
    feats.add_argument("--extractor", default="db4")
    feats.add_argument("--out", required=True, help="CSV output path")

    stats = sub.add_parser("stats", help="re-run inference on a long-format CSV")
    stats.add_argument("cells_csv")
    stats.add_argument("--out", required=True, help="output directory")

    synth = sub.add_parser("synth", help="write a synthetic Bonn-layout corpus")
    synth.add_argument("out_dir")
    synth.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    from . import runner

    cfg = validate_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.jobs is not None:
        if args.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        cfg.jobs = args.jobs
    if args.out:
        cfg.output_dir = Path(args.out)
    if args.profile:
        cfg.profile = args.profile

    def progress(key, done, total):
        if not args.quiet:
            print(f"[{done:3d}/{total}] {'/'.join(key)}", flush=True)

    try:
        output_dir = runner.run_experiment(cfg, progress=progress)
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"report written to {output_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = validate_config(args.config)
    print(json.dumps(cfg.normalized(), indent=2))
    return EXIT_OK


def _cmd_features(args) -> int:
    from .runner import build_datasets, extract_features

    cfg = validate_config(args.config)
    if args.extractor not in cfg.extractors:
        raise ConfigError(f"extractor {args.extractor!r} not in configured set")
    if args.scheme not in cfg.schemes:
        raise ConfigError(f"scheme {args.scheme!r} not in configured set")
    cfg.schemes, cfg.extractors = [args.scheme], [args.extractor]
    fm = extract_features(cfg, build_datasets(cfg))[(args.scheme, args.extractor)]
    fm.to_csv(args.out)
    print(f"{fm.n_instances} x {len(fm.feature_names)} matrix written to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from .reporting import read_long_csv, write_inference_reports

    try:
        rows = read_long_csv(args.cells_csv)
    except FileNotFoundError:
        raise DataError(f"no such file: {args.cells_csv}") from None
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if not rows:
        raise DataError(f"{args.cells_csv}: no observations")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    schemes = sorted({r[0] for r in rows})
    for scheme in schemes:
        write_inference_reports(rows, scheme, out_dir)
    print(f"inference tables for {', '.join(schemes)} written to {out_dir}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .synthetic import write_corpus

    root = write_corpus(args.out_dir, seed=args.seed)
    print(f"synthetic corpus written to {root} "
          f"(export {ENV_CORPUS_ROOT}={root} to use it as default)")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "features": _cmd_features,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CellError as exc:
        print(f"cell failure: {exc}", file=sys.stderr)
        return EXIT_CELL


if __name__ == "__main__":
    sys.exit(main())
