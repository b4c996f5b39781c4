"""Experiment orchestration: corpus to finished report bundle.

A run has two phases, and ``_run_tasks`` runs both, each with its own
task function: feature extraction, one task per ``EXTRACT_BLOCK`` rows
of the corpus matrix and extractor, then one task per (scheme, plan,
extractor, replication), which fits every model on each of its splits.
Under ``jobs=1`` the tasks run in order here, else on workers forked
from this process, which inherit the task function and so the samples
and features it reads. Results are keyed by task, so output never
depends on completion order. Each extractor has one matrix, of the largest
scheme's rows, which every scheme indexes; ``wfe`` is the samples, whose
Gram matrix is computed once before the cells (a run without ``wfe``
releases the samples then). ``_write_bundle`` writes the long rows of
the sorted cell keys into a temp dir renamed into place, or after a
failure in the cells phase those of every complete cell, as
``<output>.partial``.

Of scipy, a run loads the package, for the manifest, and ``scipy.special``
only when it writes the ANOVA and Tukey tables, after any pool has
exited; nothing it reaches imports ``scipy.linalg``.
"""

from __future__ import annotations

import itertools
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

import numpy as np
import scipy

from . import __version__
from .config import RunConfig
from .corpus import build_dataset, load_corpus, write_manifest
from .errors import CellError
from .evaluation import PLAN_KINDS, derive_seed, run_cell
from .features import FeatureMatrix, extract_matrix
from .reporting import (write_boxplot_data, write_inference_reports, write_long_csv,
                        write_performance_tables)

BALANCED_SAMPLING_TAG = "balanced-dataset"

# signals per extraction task. In a 2-job db2/db4/coif1/mfcc run on the
# 500-signal corpus the largest pool worker's ru_maxrss through extraction was
# 50 MB at 8, 57 at 32 and 67 at 64: at 32 it stays under the parent's 60.6 MB
# peak, which the scipy.special import for the inference reports sets at the end.
EXTRACT_BLOCK = 32


def build_datasets(cfg: RunConfig) -> tuple:
    """(the corpus, {scheme: LabeledDataset}) of a run."""
    corpus = load_corpus(cfg.corpus_root)
    seed = derive_seed(cfg.master_seed, BALANCED_SAMPLING_TAG)
    return corpus, {scheme: build_dataset(corpus, scheme, seed=seed) for scheme in cfg.schemes}


def _largest(datasets: dict):
    """The scheme whose rows hold every other's: all rows, or the one scheme's."""
    return max(datasets.values(), key=lambda ds: ds.rows.size)


def extract_features(cfg: RunConfig, corpus, datasets: dict) -> dict:
    """extractor -> FeatureMatrix of the largest scheme's rows; extraction is per-row pure.

    Those rows are the corpus matrix when they are all of it, and else its
    first rows, moved there in place (spending the corpus), not a copy.
    ``wfe`` is those samples, through one ``extract_matrix`` call here,
    which does not copy them. Every other extractor is one (extractor,
    first row) task per ``EXTRACT_BLOCK`` rows, the same tasks at any
    ``jobs``, and the blocks are stacked in order.
    """
    largest = _largest(datasets)
    rows, labels = largest.rows, largest.labels
    samples = corpus.samples
    for i, row in enumerate(rows if rows.size < len(samples) else ()):
        samples[i] = samples[row]   # rows are sorted: each is read before it is overwritten
    samples = samples[:rows.size]

    def extract_block(task):
        extractor, start = task
        block = slice(start, start + EXTRACT_BLOCK)
        return extract_matrix(samples[block], labels[block], extractor)

    chunks = [(extractor, start) for extractor in cfg.extractors if extractor != "wfe"
              for start in range(0, rows.size, EXTRACT_BLOCK)]
    parts = _run_tasks(cfg.jobs, extract_block, chunks) if chunks else {}
    features = {}
    for extractor in cfg.extractors:
        if extractor == "wfe":
            fm = extract_matrix(samples, labels, extractor)
        else:
            fms = [part for chunk, part in parts.items() if chunk[0] == extractor]
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

    A task is ``run_cell`` of one (scheme, plan, extractor, replication).
    A cell's rows are its replications', in order; ``progress(cell key,
    done, total)`` fires as the last lands. A wide matrix (``wfe``) gets
    its Gram matrix before any worker forks. Any exception leaves with the
    rows of every cell whose replications all finished in ``completed``.
    """
    for fm in features.values():
        if fm.values.shape[0] < fm.values.shape[1]:
            fm.gram = fm.values @ fm.values.T
    extracted = _largest(datasets).rows
    rows = {scheme: np.searchsorted(extracted, ds.rows) for scheme, ds in datasets.items()}
    reps = {"kfold": range(cfg.kfold_plan.n_repeats), "holdout": range(cfg.holdout_plan.n_repeats)}
    cells = list(enumerate_cells(cfg))
    tasks = list(dict.fromkeys((*cell[:3], rep) for cell in cells for rep in reps[cell[1]]))
    finished, landed = itertools.count(1), {}

    def task_landed(task, *_):
        landed[task[:3]] = landed.get(task[:3], 0) + 1
        if progress and landed[task[:3]] == len(reps[task[1]]):
            for model in cfg.models:
                progress((*task[:3], model), next(finished), len(cells))

    def by_cell(results):
        return {cell: [results[(*cell[:3], rep)][cell[3]] for rep in reps[cell[1]]]
                for cell in cells if all((*cell[:3], rep) in results for rep in reps[cell[1]])}

    def run_task(task):
        scheme, plan_name, extractor, rep = task
        plan = cfg.kfold_plan if plan_name == "kfold" else cfg.holdout_plan
        return run_cell(scheme, extractor, cfg.models, plan, rep, features=features[extractor],
                        rows=rows[scheme], master_seed=cfg.master_seed)

    try:
        results = _run_tasks(cfg.jobs, run_task, tasks, task_landed)
    except BaseException as exc:
        exc.completed = by_cell(exc.completed)
        raise
    return by_cell(results)


_WORKER_STATE: dict = {}


def _init_worker(work):
    _WORKER_STATE["work"] = work


def _run_one(task):
    """A pool worker's only entry: its task function on one task; returns (task, result)."""
    return task, _WORKER_STATE["work"](task)


def _run_tasks(jobs: int, work, tasks: list, progress=None) -> dict:
    """{task: ``work(task)``} for every task, in task order.

    Under ``jobs=1`` the tasks run in order in this process. Otherwise
    they run on ``min(jobs, len(tasks))`` workers forked from this
    process, whatever the platform's default start method, so they
    inherit ``work``, and whatever it reads, at fork rather than unpickle
    a copy each; only the tasks and results are pickled. Any exception
    cancels the tasks not yet started and lets the running ones finish;
    it leaves with the result of every finished task in ``completed``.
    """
    results = {}
    try:
        if jobs <= 1:
            for task in tasks:
                results[task] = work(task)
                if progress:
                    progress(task, len(results), len(tasks))
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=(work,)) as pool:
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
        "resources": {"peak_rss_mb": round(peak_rss_mb, 1), "cpu_s": round(cpu_s - started[1], 3)},
        "versions": {"eegbench": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                     "python": platform.python_version()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_bundle(cfg: RunConfig, datasets: dict, results: dict, started: tuple,
                  failure: BaseException | None = None) -> Path:
    """Write a report bundle into a temp dir beside its target, then rename it there.

    ``started`` is the run's (wall clock, ``_usage`` CPU seconds) at its
    start; the manifest's ``resources`` hold the peak RSS so far (this
    process or a reaped worker) and the CPU seconds since then. Without
    ``failure`` the target is ``output_dir``, and an earlier
    ``<output>.partial`` goes once it is written. After a failure the
    target is ``<output>.partial`` (any earlier one removed first): the
    cells CSVs and manifest of the completed cells, with a ``failure``
    block whose cell fields are null unless it is a ``CellError``.
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
