"""Experiment orchestration: corpus to finished report bundle.

A run has two phases, and ``_run_tasks`` runs both: feature extraction,
one task per ``EXTRACT_BLOCK`` rows of the corpus matrix and extractor,
then the cells (scheme x plan x extractor x model). Under ``jobs=1`` the
tasks run in order in this process; otherwise on workers forked from it,
which inherit the samples and the features. Results are keyed by task,
so output never depends on completion order. Every scheme's rows are a
subset of the largest scheme's, so each extractor has one feature matrix
of those rows, which every scheme's cells index. ``wfe`` is no extraction task: it is the
samples themselves, whose Gram matrix this process computes once, just
before the cells, for their split PCA. A run without ``wfe`` releases the
samples before the cells run. A cell's result is its long rows (see
:mod:`eegbench.reporting`); ``_write_bundle`` joins those of the sorted
cell keys per plan for every report writer, writes the report into a
temp dir and renames it into place; after a failure in the cells phase
(a ``CellError``, or any other exception once a cell has finished) it
writes ``<output>.partial`` the same way, with the manifest and cells
CSVs of every completed cell.

Of scipy, a run loads the package itself, for the manifest's version
entry, and ``scipy.special`` only when the bundle's ANOVA and Tukey
tables are written (more than one model and extractor, and more than
one hold-out repeat): the report stage, after any pool has exited.
Nothing a run reaches imports ``scipy.linalg``; the classifiers and PCA
solve with numpy.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
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


def build_datasets(cfg: RunConfig) -> tuple:
    """(the corpus, {scheme: LabeledDataset}) of a run."""
    corpus = load_corpus(cfg.corpus_root)
    seed = derive_seed(cfg.master_seed, BALANCED_SAMPLING_TAG)
    return corpus, {scheme: build_dataset(corpus, scheme, seed=seed) for scheme in cfg.schemes}


def _largest(datasets: dict):
    """The scheme whose rows hold every other's: all rows, or the one scheme's."""
    return max(datasets.values(), key=lambda ds: ds.rows.size)


class _Chunk(NamedTuple):
    """One extraction task: ``extractor`` on the ``EXTRACT_BLOCK`` samples rows from ``start``."""

    extractor: str
    start: int


def extract_features(cfg: RunConfig, corpus, datasets: dict) -> dict:
    """extractor -> FeatureMatrix of the largest scheme's rows; extraction is per-row pure.

    Those rows are the corpus matrix itself when they are all of it, and
    a gathered copy otherwise. ``wfe`` is those samples, passed through
    one ``extract_matrix`` call in this process, which does not copy
    them. Every other extractor is one ``_Chunk`` task per
    ``EXTRACT_BLOCK`` rows, the same tasks at any ``jobs``;
    ``_run_tasks`` runs them, and the blocks are stacked in order.
    """
    largest = _largest(datasets)
    rows, labels = largest.rows, largest.labels
    samples = corpus.samples if rows.size == len(corpus.samples) else corpus.samples[rows]
    chunks = [_Chunk(extractor, start) for extractor in cfg.extractors if extractor != "wfe"
              for start in range(0, rows.size, EXTRACT_BLOCK)]
    parts = _run_tasks(cfg, (samples, labels), chunks) if chunks else {}
    features = {}
    for extractor in cfg.extractors:
        if extractor == "wfe":
            fm = extract_matrix(samples, labels, extractor)
        else:
            fms = [part for chunk, part in parts.items() if chunk.extractor == extractor]
            fm = FeatureMatrix(np.vstack([p.values for p in fms]), fms[0].feature_names, labels)
        features[extractor] = fm
    return features


def enumerate_cells(cfg: RunConfig):
    for scheme in cfg.schemes:
        for plan_name in PLAN_KINDS:
            for extractor in cfg.extractors:
                for model in cfg.models:
                    yield (scheme, plan_name, extractor, model)


def execute_cells(cfg: RunConfig, datasets: dict, features: dict, progress=None):
    """Run every configured cell through ``_run_tasks``; returns {key: long rows} in cell order.

    Each cell reads its extractor's matrix at its scheme's rows of it.
    Each wide matrix (``wfe``) first gets its Gram matrix, once for every
    scheme and before any worker is forked, so the workers inherit it.
    Any exception, a failing cell's ``CellError`` or an interrupt, leaves
    with the results of every cell that finished in ``completed``.
    """
    for fm in features.values():
        if fm.values.shape[0] < fm.values.shape[1]:
            fm.gram = fm.values @ fm.values.T
    extracted = _largest(datasets).rows
    rows = {scheme: np.searchsorted(extracted, ds.rows) for scheme, ds in datasets.items()}
    return _run_tasks(cfg, (features, rows), list(enumerate_cells(cfg)), progress)


def _run_task(cfg: RunConfig, inputs, task):
    """One task's result: a ``_Chunk`` of the (samples, labels) ``inputs``,
    or a cell key over the (features, rows by scheme) ``inputs``."""
    if isinstance(task, _Chunk):
        samples, labels = inputs
        block = slice(task.start, task.start + EXTRACT_BLOCK)
        return extract_matrix(samples[block], labels[block], task.extractor)
    scheme, plan_name, extractor, model = task
    features, rows = inputs
    plan = cfg.kfold_plan if plan_name == "kfold" else cfg.holdout_plan
    return run_cell(scheme, extractor, model, plan, features=features[extractor],
                    rows=rows[scheme], master_seed=cfg.master_seed)


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
    they run on ``min(jobs, len(tasks))`` workers forked from this
    process, whatever the platform's default start method, so they
    inherit ``inputs`` at fork rather than unpickle a copy each. Any
    exception cancels the tasks not yet started and lets the running ones
    finish; it leaves with the result of every finished task in
    ``completed``.
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
                                     mp_context=multiprocessing.get_context("fork"),
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


def _usage() -> tuple:
    """(peak RSS in MB, CPU seconds) of this process and its reaped workers."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    # ru_maxrss is in KiB on Linux
    return (max(u.ru_maxrss for u in usage) / 1024.0,
            sum(u.ru_utime + u.ru_stime for u in usage))


def _manifest(cfg: RunConfig, completed, started: tuple) -> dict:
    peak_rss_mb, cpu_s = _usage()
    return {
        "config": cfg.normalized(),
        "config_digest": cfg.digest(),
        "master_seed": cfg.master_seed,
        "completed_cells": ["/".join(key) for key in completed],
        "elapsed_seconds": round(time.time() - started[0], 3),
        "resources": {
            "peak_rss_mb": round(peak_rss_mb, 1),
            "cpu_s": round(cpu_s - started[1], 3),
        },
        "versions": {
            "eegbench": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_bundle(cfg: RunConfig, datasets: dict, results: dict, started: tuple,
                  failure: BaseException | None = None) -> Path:
    """Write a report bundle into a temp dir beside its target, then rename it there.

    ``started`` is the run's (wall clock, ``_usage`` CPU seconds) at its
    start; the manifest's ``resources`` block holds the peak RSS so far
    (this process or a reaped worker, whichever is larger) and the CPU
    seconds since then.

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
        manifest = _manifest(cfg, [k for k, _ in ordered], started)
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
    started = (time.time(), _usage()[1])
    corpus, datasets = build_datasets(cfg)
    features = extract_features(cfg, corpus, datasets)
    # the cells read only the features: unless they are the samples
    # (wfe), this releases the samples before the cells run
    del corpus
    try:
        results = execute_cells(cfg, datasets, features, progress)
    except BaseException as exc:
        completed = getattr(exc, "completed", {})
        if completed or isinstance(exc, CellError):
            _write_bundle(cfg, datasets, completed, started, failure=exc)
        raise
    return _write_bundle(cfg, datasets, results, started)
