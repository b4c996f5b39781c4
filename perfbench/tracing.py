"""Span tracing of eegbench's layers, installed from outside the program.

``install`` wraps the public functions and classifier methods of each
layer. A wrapper records a span (name, start, end, parent, tag) in
memory and may add counts taken from the call's arguments or result.
Names a module imported by value (``evaluation.pca_fit``,
``runner.extract_matrix``, ...) are rebound too, so every call site
goes through the wrapper.

Pool workers forked by the runner inherit the wrappers. Each worker
clears the copy of the parent's spans it starts with and appends its
own spans to ``worker-<pid>.jsonl`` in the trace directory after every
cell; ``merge_worker_files`` folds them back in.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

MODEL_KINDS = ("lda", "qda", "knn", "nb", "svm", "rf", "gb")
REPORTING_FUNCTIONS = ("write_long_csv", "read_long_csv", "write_performance_tables",
                       "write_boxplot_data", "write_inference_reports")
SPECIAL_FUNCTIONS = ("f_survival", "studentized_range_cdf", "studentized_range_quantile")


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []            # [name, start, end, parent index, tag]
        self.counts = defaultdict(float)
        self._stack = []

    def call(self, name, fn, args, kwargs, tag=None):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def flush_to(self, path: Path):
        """Append finished spans and counts as one JSON line, then clear them."""
        done = [s for s in self.spans if s[2] is not None]
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": done, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], defaultdict(float)

    def merge_worker_files(self, trace_dir: Path) -> int:
        """Fold every worker's spans (re-indexed) and counts into this tracer."""
        n_files = 0
        for path in sorted(trace_dir.glob("worker-*.jsonl")):
            n_files += 1
            for line in path.read_text().splitlines():
                chunk = json.loads(line)
                base = len(self.spans)
                for name, start, end, parent, tag in chunk["spans"]:
                    self.spans.append([name, start, end,
                                       parent + base if parent >= 0 else -1, tag])
                for key, value in chunk["counts"].items():
                    self.counts[key] += value
        return n_files


def _rebind(orig, wrapper):
    """Point every eegbench module attribute that holds ``orig`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("eegbench"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _wrap_function(tracer, module, attr, span, after=None, tag=None):
    orig = getattr(module, attr, None)
    if orig is None:
        return

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        result = tracer.call(span, orig, args, kwargs,
                             tag(args, kwargs) if tag else None)
        if after:
            after(args, result)
        return result

    _rebind(orig, wrapper)


def _wrap_method(tracer, cls, attr, span, after=None):
    orig = getattr(cls, attr)

    @functools.wraps(orig)
    def wrapper(self, *args, **kwargs):
        result = tracer.call(span, orig, (self,) + args, kwargs)
        if after:
            after(self, args)
        return result

    setattr(cls, attr, wrapper)


def _pca_fit_gflop(n_rows: int, n_cols: int) -> float:
    # computed, not measured: R-SVD flop count for singular values plus
    # thin U and V of an m x n matrix, m >= n (Golub & Van Loan, 6mn^2 + 20n^3)
    m, n = max(n_rows, n_cols), min(n_rows, n_cols)
    return (6.0 * m * n * n + 20.0 * n ** 3) / 1e9


def install(tracer: Tracer, trace_dir: Path):
    """Wrap every traced layer; call before ``runner.run_experiment``."""
    from eegbench import corpus, evaluation, features, inference, mfcc, reporting, runner, wavelet
    from eegbench.classifiers import make_model

    import checks

    def add(key, value):
        tracer.counts[key] += value

    _wrap_function(tracer, corpus, "load_corpus", "corpus.load_corpus",
                   after=lambda a, r: add("corpus.signals", sum(len(v) for v in r.values())))
    _wrap_function(tracer, corpus, "write_manifest", "corpus.write_manifest")

    def extractor_of(args, kwargs):
        return kwargs.get("extractor", args[2] if len(args) > 2 else None)

    _wrap_function(tracer, features, "extract_matrix", "features.extract_matrix",
                   after=lambda a, r: add("features.rows", r.n_instances), tag=extractor_of)
    _wrap_function(tracer, wavelet, "denoise", "wavelet.denoise")
    _wrap_function(tracer, wavelet, "wavedec", "wavelet.wavedec")
    _wrap_function(tracer, mfcc, "mfcc_features", "mfcc.mfcc_features")

    def after_pca_fit(args, model):
        add("features.pca_components", model.n_components)
        add("features.pca_fit_gflop", _pca_fit_gflop(*args[0].shape))

    _wrap_function(tracer, features, "pca_fit", "features.pca_fit", after=after_pca_fit)
    _wrap_function(tracer, features, "pca_apply", "features.pca_apply")

    _wrap_function(tracer, evaluation, "make_splits", "evaluation.make_splits")
    _wrap_function(tracer, evaluation, "fit_split", "evaluation.fit_split")
    _wrap_function(tracer, evaluation, "run_cell", "evaluation.run_cell")

    def after_svm_fit(model, args):
        add("classifiers.svm.sweeps", getattr(model, "n_sweeps_", 0))
        add("classifiers.svm.support_vectors", len(model.support_vectors_))
        add("check.svm_fits", 1)
        if checks.check_svm_fit(model, *args[:2]):
            add("check.svm_kkt_failures", 1)

    def after_tree_fit(kind):
        return lambda model, args: add(f"classifiers.{kind}.nodes",
                                       sum(t.n_nodes for t in model.trees_))

    after_fit = {"svm": after_svm_fit, "rf": after_tree_fit("rf"), "gb": after_tree_fit("gb")}
    for kind in MODEL_KINDS:
        cls = type(make_model(kind))
        _wrap_method(tracer, cls, "fit", f"classifiers.{kind}.fit", after=after_fit.get(kind))
        _wrap_method(tracer, cls, "predict", f"classifiers.{kind}.predict")

    _wrap_function(tracer, inference, "two_way_anova", "inference.two_way_anova")
    _wrap_function(tracer, inference, "tukey_hsd", "inference.tukey_hsd")
    try:
        from eegbench import special
    except ImportError:         # the layer may be replaced by scipy
        special = None
    for name in SPECIAL_FUNCTIONS if special else ():
        _wrap_function(tracer, special, name, f"special.{name}")
    for name in REPORTING_FUNCTIONS:
        _wrap_function(tracer, reporting, name, f"reporting.{name}")

    _wrap_function(tracer, runner, "build_datasets", "runner.build_datasets")
    _wrap_function(tracer, runner, "extract_features", "runner.extract_features")
    _wrap_function(tracer, runner, "run_experiment", "runner.run_experiment")

    exec_orig = runner.execute_cells

    @functools.wraps(exec_orig)
    def execute_cells(*args, **kwargs):
        cpu0 = cpu_seconds()
        try:
            return tracer.call("runner.execute_cells", exec_orig, args, kwargs)
        finally:
            add("runner.worker_cpu_s", cpu_seconds() - cpu0)

    _rebind(exec_orig, execute_cells)

    # pool workers: drop the parent's spans copied at fork, ship their own
    init_orig, run_one_orig = getattr(runner, "_init_worker", None), getattr(runner, "_run_one", None)
    if init_orig and run_one_orig:
        worker_file = trace_dir / "worker-{pid}.jsonl"

        @functools.wraps(init_orig)
        def init_worker(*args, **kwargs):
            tracer.reset()
            return init_orig(*args, **kwargs)

        @functools.wraps(run_one_orig)
        def run_one(*args, **kwargs):
            result = run_one_orig(*args, **kwargs)
            tracer.flush_to(Path(str(worker_file).format(pid=os.getpid())))
            return result

        _rebind(init_orig, init_worker)
        _rebind(run_one_orig, run_one)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    special = {"features.pca_fit_gflop": "Gflop", "reporting.bytes": "bytes",
               "runner.parallel_efficiency": "ratio", "special.s": "s"}
    if name in special:
        return special[name]
    return "s" if name.endswith("_s") or "_s." in name else "count"


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer figures from the merged spans and counts of one traced run."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def named(name, parent_not=None):
        return [i for i, s in enumerate(spans) if s[0] == name
                and not (parent_not and s[3] >= 0 and spans[s[3]][0].startswith(parent_not))]

    def total(idx):
        return float(sum(dur[i] for i in idx))

    c = tracer.counts
    m = {}
    m["corpus.load_s"] = total(named("corpus.load_corpus"))
    m["corpus.signals"] = c["corpus.signals"]

    extract = named("features.extract_matrix")
    m["features.extract_s"] = total(extract)
    for ext in ("wfe", "db2", "db4", "coif1", "mfcc"):
        m[f"features.extract_s.{ext}"] = total(i for i in extract if spans[i][4] == ext)
    m["features.rows"] = c["features.rows"]
    m["wavelet.denoise_s"] = total(named("wavelet.denoise"))
    m["wavelet.wavedec_s"] = total(named("wavelet.wavedec"))
    m["mfcc.features_s"] = total(named("mfcc.mfcc_features"))

    pca = named("features.pca_fit")
    m["features.pca_fit_s"] = total(pca)
    m["features.pca_fit_calls"] = len(pca)
    m["features.pca_apply_s"] = total(named("features.pca_apply"))
    m["features.pca_components_mean"] = c["features.pca_components"] / len(pca) if pca else 0.0
    m["features.pca_fit_gflop"] = c["features.pca_fit_gflop"]

    fits = named("evaluation.fit_split")
    m["evaluation.split_fits"] = len(fits)
    m["evaluation.fit_split_s"] = total(fits)
    m["evaluation.make_splits_s"] = total(named("evaluation.make_splits"))
    m["evaluation.fit_split_self_s"] = float(sum(dur[i] - child_time[i] for i in fits))

    for kind in MODEL_KINDS:
        fit = named(f"classifiers.{kind}.fit")
        m[f"classifiers.{kind}.fit_s"] = total(fit)
        m[f"classifiers.{kind}.predict_s"] = total(named(f"classifiers.{kind}.predict"))
        m[f"classifiers.{kind}.fits"] = len(fit)
    m["classifiers.svm.sweeps"] = c["classifiers.svm.sweeps"]
    m["classifiers.svm.support_vectors"] = c["classifiers.svm.support_vectors"]
    m["classifiers.rf.nodes"] = c["classifiers.rf.nodes"]
    m["classifiers.gb.nodes"] = c["classifiers.gb.nodes"]

    run = total(named("runner.run_experiment"))
    m["runner.build_datasets_s"] = total(named("runner.build_datasets"))
    m["runner.extract_features_s"] = total(named("runner.extract_features"))
    m["runner.execute_cells_s"] = total(named("runner.execute_cells"))
    m["runner.report_s"] = (run - m["runner.build_datasets_s"]
                            - m["runner.extract_features_s"] - m["runner.execute_cells_s"])
    m["runner.cells"] = len(named("evaluation.run_cell"))
    m["runner.worker_cpu_s"] = c["runner.worker_cpu_s"]
    wall = m["runner.execute_cells_s"]
    m["runner.parallel_efficiency"] = c["runner.worker_cpu_s"] / (jobs * wall) if wall else 0.0

    m["inference.anova_s"] = total(named("inference.two_way_anova", parent_not="inference.tukey_hsd"))
    m["inference.tukey_s"] = total(named("inference.tukey_hsd"))
    special = [i for i, s in enumerate(spans) if s[0].startswith("special.")
               and not (s[3] >= 0 and spans[s[3]][0].startswith("special."))]
    m["special.calls"] = len(special)
    m["special.s"] = total(special)

    m["reporting.write_s"] = float(sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                                       if s[0].startswith("reporting.")))
    return m
