"""Experiment orchestration: corpus to finished report bundle.

Feature extraction and the cells (scheme x plan x extractor x model)
both run on ``cfg.jobs`` worker processes. Under ``jobs>1`` each
extractor's signals go to the pool in contiguous chunks, stacked back in
order; under ``jobs=1`` extraction and cells run in-process. Results are
keyed by cell identity so output never depends on completion order.
The report directory is written atomically (temp dir + rename); a cell
failure leaves a ``<output>.partial`` directory with the manifest of
every completed cell instead.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .config import RunConfig
from .corpus import build_dataset, load_corpus, write_manifest
from .errors import CellError
from .evaluation import derive_seed, run_cell
from .features import EXTRACT_BLOCK, FeatureMatrix, extract_matrix
from .reporting import (long_rows, write_boxplot_data, write_inference_reports,
                        write_long_csv, write_performance_tables)

BALANCED_SAMPLING_TAG = "balanced-dataset"


def build_datasets(cfg: RunConfig) -> dict:
    corpus = load_corpus(cfg.corpus_root)
    datasets = {}
    for scheme in cfg.schemes:
        seed = derive_seed(cfg.master_seed, BALANCED_SAMPLING_TAG)
        datasets[scheme] = build_dataset(corpus, scheme, seed=seed)
    return datasets


# extraction chunks per worker and extractor: more than one, so the pool's
# last tasks are short and no worker idles long while another finishes
CHUNKS_PER_WORKER = 2


class _Chunk(NamedTuple):
    """One pool task of extraction: ``extractor`` on signals[start:stop]."""

    extractor: str
    start: int
    stop: int


def _extract(signals, extractor: str) -> FeatureMatrix:
    return extract_matrix((sig.samples for sig in signals),
                          [sig.is_seizure for sig in signals], extractor)


def _extract_unions(cfg: RunConfig, signals: list) -> dict:
    """extractor -> FeatureMatrix over ``signals``, rows in order.

    Under ``jobs=1`` this is one in-process ``extract_matrix`` per
    extractor. Otherwise each extractor's signals are cut into about
    ``CHUNKS_PER_WORKER`` chunks per worker, each a whole number of
    ``EXTRACT_BLOCK``s, and every chunk of every extractor goes to one pool.
    """
    if cfg.jobs <= 1:
        return {extractor: _extract(signals, extractor) for extractor in cfg.extractors}
    per_chunk = -(-len(signals) // (cfg.jobs * CHUNKS_PER_WORKER))
    per_chunk = -(-per_chunk // EXTRACT_BLOCK) * EXTRACT_BLOCK
    chunks = [_Chunk(extractor, start, min(start + per_chunk, len(signals)))
              for extractor in cfg.extractors
              for start in range(0, len(signals), per_chunk)]
    parts = {extractor: [] for extractor in cfg.extractors}
    with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_init_worker,
                             initargs=(cfg, signals)) as pool:
        for chunk, fm in pool.map(_run_one, chunks):
            parts[chunk.extractor].append(fm)
    return {extractor: FeatureMatrix(np.vstack([fm.values for fm in fms]), fms[0].feature_names,
                                     np.concatenate([fm.labels for fm in fms]))
            for extractor, fms in parts.items()}


def extract_features(cfg: RunConfig, datasets: dict) -> dict:
    """(scheme, extractor) -> FeatureMatrix; extraction is per-instance pure.

    Every distinct signal is extracted once per extractor, in the order of
    the largest scheme first: in chunks on ``cfg.jobs`` worker processes
    under ``jobs>1``, in-process under ``jobs=1`` (see ``_extract_unions``).
    Each scheme then takes its rows from that matrix (the largest one as a
    view of it).
    """
    ordered = sorted(datasets.values(), key=lambda ds: -len(ds.instances))
    signals = list({id(sig): sig for ds in ordered for sig in ds.instances}.values())
    row_of = {id(sig): i for i, sig in enumerate(signals)}
    features = {}
    for extractor, union in _extract_unions(cfg, signals).items():
        for scheme, ds in datasets.items():
            rows = [row_of[id(sig)] for sig in ds.instances]
            values = (union.values[:len(rows)] if rows == list(range(len(rows)))
                      else union.values[rows])
            features[(scheme, extractor)] = FeatureMatrix(
                values, list(union.feature_names), ds.labels)
    return features


def enumerate_cells(cfg: RunConfig):
    for scheme in cfg.schemes:
        for plan_name in ("kfold", "holdout"):
            for extractor in cfg.extractors:
                for model in cfg.models:
                    yield (scheme, plan_name, extractor, model)


_WORKER_STATE: dict = {}


def _init_worker(cfg, inputs):
    # inputs: the signal list for extraction chunks, the features for cells
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["inputs"] = inputs


def _run_one(task):
    """One pool task, an extraction ``_Chunk`` or a cell key; returns (task, result)."""
    inputs = _WORKER_STATE["inputs"]
    if isinstance(task, _Chunk):
        return task, _extract(inputs[task.start:task.stop], task.extractor)
    return task, _evaluate_cell(_WORKER_STATE["cfg"], inputs, task)


def _evaluate_cell(cfg: RunConfig, features: dict, cell_key):
    scheme, plan_name, extractor, model = cell_key
    plan = cfg.kfold_plan if plan_name == "kfold" else cfg.holdout_plan
    return run_cell(scheme, extractor, model, plan,
                    features=features[(scheme, extractor)], master_seed=cfg.master_seed)


def execute_cells(cfg: RunConfig, features: dict, progress=None):
    """Run every configured cell; returns {key: CellResult} in cell order.

    A failing cell's ``CellError`` leaves with the results of every cell
    that finished in ``completed``. Under ``jobs>1`` the cells not yet
    started are cancelled and those already running are let finish.
    """
    keys = list(enumerate_cells(cfg))
    results = {}
    try:
        if cfg.jobs <= 1:
            for key in keys:
                results[key] = _evaluate_cell(cfg, features, key)
                if progress:
                    progress(key, len(results), len(keys))
        else:
            _execute_pooled(cfg, features, keys, results, progress)
    except CellError as exc:
        exc.completed = {key: results[key] for key in keys if key in results}
        raise
    return {key: results[key] for key in keys}


def _execute_pooled(cfg: RunConfig, features: dict, keys: list, results: dict, progress):
    # fills ``results`` as cells complete, so a CellError leaves them behind
    with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_init_worker,
                             initargs=(cfg, features)) as pool:
        futures = [pool.submit(_run_one, key) for key in keys]
        try:
            for future in as_completed(futures):
                key, result = future.result()
                results[key] = result
                if progress:
                    progress(key, len(results), len(keys))
        except CellError:
            # cancel the cells not started, wait for the running ones, keep their results
            pool.shutdown(cancel_futures=True)
            for future in futures:
                if not future.cancelled() and future.exception() is None:
                    key, result = future.result()
                    results[key] = result
            raise


def _manifest(cfg: RunConfig, completed, elapsed_s: float) -> dict:
    return {
        "config": cfg.normalized(),
        "config_digest": cfg.digest(),
        "master_seed": cfg.master_seed,
        "completed_cells": ["/".join(key) for key in completed],
        "elapsed_seconds": round(elapsed_s, 3),
        "versions": {
            "eegbench": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_partial(cfg: RunConfig, results: dict, failure: CellError,
                   elapsed: float) -> Path:
    partial_dir = cfg.output_dir.with_name(cfg.output_dir.name + ".partial")
    if partial_dir.exists():
        shutil.rmtree(partial_dir)
    partial_dir.mkdir(parents=True)
    manifest = _manifest(cfg, list(results), elapsed)
    manifest["failure"] = {
        "message": str(failure),
        "scheme": failure.scheme,
        "extractor": failure.extractor,
        "model": failure.model,
        "replication": failure.replication,
    }
    (partial_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    write_long_csv([r for k, r in sorted(results.items()) if k[1] == "holdout"],
                   partial_dir / "cells_holdout.csv")
    write_long_csv([r for k, r in sorted(results.items()) if k[1] == "kfold"],
                   partial_dir / "cells_kfold.csv")
    return partial_dir


def run_experiment(cfg: RunConfig, progress=None) -> Path:
    """Execute the full benchmark, write the report bundle atomically and return its directory."""
    if cfg.output_dir.exists():
        raise FileExistsError(f"output directory already exists: {cfg.output_dir}")
    start = time.time()
    datasets = build_datasets(cfg)
    features = extract_features(cfg, datasets)
    try:
        results = execute_cells(cfg, features, progress)
    except CellError as exc:
        _write_partial(cfg, exc.completed, exc, time.time() - start)
        raise

    ordered = sorted(results.items())
    kfold_cells = [r for k, r in ordered if k[1] == "kfold"]
    holdout_cells = [r for k, r in ordered if k[1] == "holdout"]

    cfg.output_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=cfg.output_dir.name + ".tmp-",
                                    dir=cfg.output_dir.parent))
    try:
        for scheme, ds in datasets.items():
            write_manifest(ds, tmp_dir / f"dataset_{scheme}.csv")
        write_long_csv(kfold_cells, tmp_dir / "cells_kfold.csv")
        write_long_csv(holdout_cells, tmp_dir / "cells_holdout.csv")
        write_performance_tables(kfold_cells, tmp_dir, "kfold")
        write_performance_tables(holdout_cells, tmp_dir, "holdout")
        write_boxplot_data(holdout_cells, tmp_dir)
        if (len(set(cfg.models)) > 1 and len(set(cfg.extractors)) > 1
                and cfg.holdout_plan.n_repeats > 1):
            rows = list(long_rows(holdout_cells))
            for scheme in cfg.schemes:
                write_inference_reports(rows, scheme, tmp_dir)
        manifest = _manifest(cfg, [k for k, _ in ordered], time.time() - start)
        (tmp_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
        os.replace(tmp_dir, cfg.output_dir)
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return cfg.output_dir
