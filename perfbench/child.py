"""One timed step of the benchmark, run in its own process by ``run.py``.

    child.py setup <corpus_dir> <seed>
        Import eegbench and write the synthetic corpus at the seed.
    child.py round <workload> <corpus_dir> <out_dir> <seed> <result.json> [<trace_dir>]
        One ``runner.run_experiment`` of the workload; with a trace
        directory the layers are traced as well.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


def setup(corpus_dir: str, seed: str):
    from eegbench.synthetic import write_corpus

    write_corpus(corpus_dir, seed=int(seed))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children: the largest reaped descendant
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_round(workload, corpus_dir, out_dir, seed, result_path, trace_dir=None):
    from eegbench import runner
    from eegbench.config import build_config
    from eegbench.errors import CellError

    cfg = build_config(workloads.run_config(workload, corpus_dir, out_dir, int(seed)))
    tracer = None
    if trace_dir:
        tracer = tracing.Tracer()
        tracing.install(tracer, Path(trace_dir))

    timing = {}
    exec_orig = runner.execute_cells

    @functools.wraps(exec_orig)
    def execute_cells(*args, **kwargs):
        start = time.perf_counter()
        try:
            return exec_orig(*args, **kwargs)
        finally:
            timing["execute_s"] = time.perf_counter() - start

    runner.execute_cells = execute_cells
    completed = []
    result = {"cells": workloads.cells_per_round(workload)}
    cpu0 = tracing.cpu_seconds()
    start = time.perf_counter()
    try:
        runner.run_experiment(cfg, progress=lambda key, done, total: completed.append(key))
    except CellError as exc:
        result["error"] = str(exc)
    result["run_s"] = time.perf_counter() - start
    result["cpu_s"] = tracing.cpu_seconds() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["execute_s"] = timing.get("execute_s")
    result["completed"] = len(completed)
    result["fits"] = workloads.split_fits_per_round(workload) if "error" not in result else 0
    out = Path(out_dir)
    if out.is_dir():
        result["sha256"] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("cells_kfold.csv", "cells_holdout.csv")}
    if tracer is not None:
        result["worker_files"] = tracer.merge_worker_files(Path(trace_dir))
        result["spans"] = len(tracer.spans)
        metrics = tracing.layer_metrics(tracer, cfg.jobs)
        metrics["reporting.bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
            if out.is_dir() else 0
        result["layers"] = metrics
        result["svm_fits_checked"] = tracer.counts["check.svm_fits"]
        result["svm_kkt_failures"] = tracer.counts["check.svm_kkt_failures"]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:])
    elif sys.argv[1] == "round":
        run_round(*sys.argv[2:])
    else:
        sys.exit(f"unknown step {sys.argv[1]!r}")
