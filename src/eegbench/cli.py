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
import os
import shutil
import sys
import tempfile
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
    run.add_argument("--jobs", type=int, help="worker processes for feature extraction and cells")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("config")

    feats = sub.add_parser("features", help="extract and dump one feature matrix")
    feats.add_argument("config")
    feats.add_argument("--scheme", choices=["imbalanced", "balanced"],
                       help="class-balance scheme (default: the config's first scheme)")
    feats.add_argument("--extractor", default="db4")
    feats.add_argument("--out", required=True, help="CSV output path")

    stats = sub.add_parser("stats", help="re-run inference on a long-format CSV")
    stats.add_argument("cells_csv")
    stats.add_argument("--out", required=True, help="output directory")

    synth = sub.add_parser("synth", help="write a synthetic Bonn-layout corpus")
    synth.add_argument("out_dir")
    synth.add_argument("--seed", type=int, default=0)
    return parser


def _prepare_output(out: Path, is_dir: bool) -> bool:
    """Make ``out``'s missing parents, or report a path of the wrong kind and return False."""
    if out.exists() and out.is_dir() != is_dir:
        kind = "not a directory" if is_dir else "a directory"
        print(f"error: output path is {kind}: {out}", file=sys.stderr)
        return False
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"error: a parent of the output path is not a directory: {out}", file=sys.stderr)
        return False
    return True


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
    if not _prepare_output(cfg.output_dir, is_dir=True):
        return EXIT_CONFIG

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
    scheme = args.scheme or cfg.schemes[0]
    if args.extractor not in cfg.extractors:
        raise ConfigError(f"extractor {args.extractor!r} not in configured set")
    if scheme not in cfg.schemes:
        raise ConfigError(f"scheme {scheme!r} not in configured set")
    if not _prepare_output(Path(args.out), is_dir=False):
        return EXIT_CONFIG
    cfg.schemes, cfg.extractors = [scheme], [args.extractor]
    fm = extract_features(cfg, build_datasets(cfg))[(scheme, args.extractor)]
    fm.to_csv(args.out)
    print(f"{fm.n_instances} x {len(fm.feature_names)} matrix written to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from .reporting import read_long_csv, write_inference_reports

    out_dir = Path(args.out)
    if not _prepare_output(out_dir, is_dir=True):
        return EXIT_CONFIG
    try:
        rows = read_long_csv(args.cells_csv)
    except FileNotFoundError:
        raise DataError(f"no such file: {args.cells_csv}") from None
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if not rows:
        raise DataError(f"{args.cells_csv}: no observations")
    schemes = sorted({r[0] for r in rows})
    # every scheme's tables reach out_dir together, or none do
    tmp_dir = Path(tempfile.mkdtemp(prefix=out_dir.name + ".tmp-", dir=out_dir.parent))
    try:
        for scheme in schemes:
            try:
                write_inference_reports(rows, scheme, tmp_dir)
            except ValueError as exc:       # a design the ANOVA or HSD cannot analyse
                raise DataError(f"{args.cells_csv}: {exc}") from None
        out_dir.mkdir(exist_ok=True)
        for path in sorted(tmp_dir.iterdir()):
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
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
