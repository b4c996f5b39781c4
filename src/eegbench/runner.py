"""Experiment orchestration: corpus to finished report bundle.

A run has two phases, and ``_run_tasks`` runs both: feature extraction in
contiguous chunks of signals, then the cells (scheme x plan x extractor
x model). Under ``jobs=1`` the tasks run in order in this process;
otherwise on forked worker processes. Results are keyed by task, so
output never depends on completion order. A cell's result is its long
rows (see :mod:`eegbench.reporting`); ``_write_bundle`` joins those of
the sorted cell keys per plan for every report writer, writes the
report into a temp dir and renames it into place; after a failure in the
cells phase (a ``CellError``, or any other exception once a cell has
finished) it writes ``<output>.partial`` the same way, with the manifest
and cells CSVs of every completed cell.
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
from .evaluation import PLAN_KINDS, derive_seed, run_cell
from .features import EXTRACT_BLOCK, FeatureMatrix, extract_matrix
from .reporting import (write_boxplot_data, write_inference_reports, write_long_csv,
                        write_performance_tables)

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
    """One extraction task: ``extractor`` on signals[start:stop]."""

    extractor: str
    start: int
    stop: int


def extract_features(cfg: RunConfig, datasets: dict) -> dict:
    """(scheme, extractor) -> FeatureMatrix; extraction is per-instance pure.

    Every scheme's instances are a subset of the largest scheme's, so only
    those are extracted. Each extractor's signals are cut into about
    ``CHUNKS_PER_WORKER`` chunks per worker, each a whole number of
    ``EXTRACT_BLOCK``s; ``_run_tasks`` runs them and the chunks are stacked
    in order. The largest scheme takes the whole matrix, and the others
    take their rows from it.
    """
    largest = max(datasets.values(), key=lambda ds: len(ds.instances))
    signals = largest.instances
    per_chunk = -(-len(signals) // (cfg.jobs * CHUNKS_PER_WORKER))
    per_chunk = -(-per_chunk // EXTRACT_BLOCK) * EXTRACT_BLOCK
    chunks = [_Chunk(extractor, start, min(start + per_chunk, len(signals)))
              for extractor in cfg.extractors
              for start in range(0, len(signals), per_chunk)]
    parts = _run_tasks(cfg, signals, chunks)
    row_of = {id(sig): i for i, sig in enumerate(signals)}
    features = {}
    for extractor in cfg.extractors:
        fms = [fm for chunk, fm in parts.items() if chunk.extractor == extractor]
        values = np.vstack([fm.values for fm in fms])
        for scheme, ds in datasets.items():
            own = values if ds is largest else values[[row_of[id(sig)] for sig in ds.instances]]
            features[(scheme, extractor)] = FeatureMatrix(own, list(fms[0].feature_names),
                                                          ds.labels)
    return features


def enumerate_cells(cfg: RunConfig):
    for scheme in cfg.schemes:
        for plan_name in PLAN_KINDS:
            for extractor in cfg.extractors:
                for model in cfg.models:
                    yield (scheme, plan_name, extractor, model)


def execute_cells(cfg: RunConfig, features: dict, progress=None):
    """Run every configured cell through ``_run_tasks``; returns {key: long rows} in cell order.

    Any exception, a failing cell's ``CellError`` or an interrupt, leaves
    with the results of every cell that finished in ``completed``.
    """
    return _run_tasks(cfg, features, list(enumerate_cells(cfg)), progress)


def _run_task(cfg: RunConfig, inputs, task):
    """One task's result: an extraction ``_Chunk`` of the signal list ``inputs``,
    or a cell key over the features ``inputs``."""
    if isinstance(task, _Chunk):
        signals = inputs[task.start:task.stop]
        return extract_matrix((sig.samples for sig in signals),
                              [sig.is_seizure for sig in signals], task.extractor)
    scheme, plan_name, extractor, model = task
    plan = cfg.kfold_plan if plan_name == "kfold" else cfg.holdout_plan
    return run_cell(scheme, extractor, model, plan,
                    features=inputs[(scheme, extractor)], master_seed=cfg.master_seed)


_WORKER_STATE: dict = {}


def _init_worker(cfg, inputs):
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["inputs"] = inputs


def _run_one(task):
    """A pool worker's only entry: one task on its inputs; returns (task, result)."""
    return task, _run_task(_WORKER_STATE["cfg"], _WORKER_STATE["inputs"], task)


def _run_tasks(cfg: RunConfig, inputs, tasks: list, progress=None) -> dict:
    """{task: result} for every task, in task order.

    Under ``jobs=1`` the tasks run in order in this process. Otherwise
    they run on ``min(jobs, len(tasks))`` forked workers, which get
    ``inputs`` at fork. Any exception cancels the tasks not yet started
    and lets the running ones finish; it leaves with the result of every
    finished task in ``completed``.
    """
    results = {}
    try:
        if cfg.jobs <= 1:
            for task in tasks:
                results[task] = _run_task(cfg, inputs, task)
                if progress:
                    progress(task, len(results), len(tasks))
        else:
            with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks)),
                                     initializer=_init_worker, initargs=(cfg, inputs)) as pool:
                futures = [pool.submit(_run_one, task) for task in tasks]
                try:
                    for future in as_completed(futures):
                        task, result = future.result()
                        results[task] = result
                        if progress:
                            progress(task, len(results), len(tasks))
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    for future in futures:
                        if not future.cancelled() and future.exception() is None:
                            task, result = future.result()
                            results[task] = result
                    raise
    except BaseException as exc:
        exc.completed = {task: results[task] for task in tasks if task in results}
        raise
    return {task: results[task] for task in tasks}


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


def _write_bundle(cfg: RunConfig, datasets: dict, results: dict, start: float,
                  failure: BaseException | None = None) -> Path:
    """Write a report bundle into a temp dir beside its target, then rename it there.

    Without ``failure`` the target is ``output_dir`` and the bundle is the
    full report; an earlier run's ``<output>.partial`` is removed once it
    is written. After a failure the target is ``<output>.partial`` (any
    earlier one is removed first), with the cells CSVs and the manifest of
    the completed cells and a ``failure`` block; its scheme, extractor,
    model and replication are null unless the failure is a ``CellError``.
    """
    partial = cfg.output_dir.with_name(cfg.output_dir.name + ".partial")
    target = cfg.output_dir if failure is None else partial
    if failure is not None:
        shutil.rmtree(target, ignore_errors=True)
    ordered = sorted(results.items())
    rows = {plan: [row for key, cell_rows in ordered if key[1] == plan for row in cell_rows]
            for plan in PLAN_KINDS}

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=target.name + ".tmp-", dir=target.parent))
    try:
        for plan, plan_rows in rows.items():
            write_long_csv(plan_rows, tmp_dir / f"cells_{plan}.csv")
        if failure is None:
            for scheme, ds in datasets.items():
                write_manifest(ds, tmp_dir / f"dataset_{scheme}.csv")
            for plan, plan_rows in rows.items():
                write_performance_tables(plan_rows, tmp_dir, plan)
            write_boxplot_data(rows["holdout"], tmp_dir)
            if (len(cfg.models) > 1 and len(cfg.extractors) > 1
                    and cfg.holdout_plan.n_repeats > 1):
                for scheme in cfg.schemes:
                    write_inference_reports(rows["holdout"], scheme, tmp_dir)
        manifest = _manifest(cfg, [k for k, _ in ordered], time.time() - start)
        if failure is not None:
            located = isinstance(failure, CellError)
            manifest["failure"] = {
                "message": str(failure) if located else f"{type(failure).__name__}: {failure}",
                **{key: getattr(failure, key) if located else None
                   for key in ("scheme", "extractor", "model", "replication")},
            }
        (tmp_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
        os.replace(tmp_dir, target)
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    if failure is None:
        shutil.rmtree(partial, ignore_errors=True)   # the failure it recorded is fixed
    return target


def run_experiment(cfg: RunConfig, progress=None) -> Path:
    """Execute the full benchmark, write the report bundle atomically and return its directory."""
    if cfg.output_dir.exists():
        raise FileExistsError(f"output directory already exists: {cfg.output_dir}")
    start = time.time()
    datasets = build_datasets(cfg)
    features = extract_features(cfg, datasets)
    try:
        results = execute_cells(cfg, features, progress)
    except BaseException as exc:
        completed = getattr(exc, "completed", {})
        if completed or isinstance(exc, CellError):
            _write_bundle(cfg, datasets, completed, start, failure=exc)
        raise
    return _write_bundle(cfg, datasets, results, start)
