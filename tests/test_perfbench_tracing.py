"""perfbench's tracer still finds every layer it names.

``tracing._wrap_function`` skips a name the module no longer has, so a
rename would read as a zero per-layer metric rather than a failure; and
pool workers ship their spans only from ``runner._run_one``, so work that
reaches the pool another way would read as zero too. Its counts read the
results of wrapped calls (the sets of ``load_corpus``'s mapping, the rows
of ``extract_matrix``'s matrix), so a change of their shape would also
read as a wrong metric, not a failure. The in-process
path of a ``jobs=1`` run must not go through those two worker functions:
their wrappers reset and flush the process's spans. The checks run in a
child process because ``install`` rebinds module attributes for the whole
process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# record every (module, name) that install asks to wrap, install, then list
# the names that did not end up wrapped
SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from eegbench import runner

requested = [(runner, "execute_cells"), (runner, "_init_worker"), (runner, "_run_one")]
wrap = tracing._wrap_function

def recording_wrap(tracer, module, attr, *args, **kwargs):
    requested.append((module, attr))
    wrap(tracer, module, attr, *args, **kwargs)

tracing._wrap_function = recording_wrap
tracing.install(tracing.Tracer(), Path(sys.argv[3]))
print(json.dumps([f"{m.__name__}.{a}" for m, a in requested
                  if not hasattr(getattr(m, a, None), "__wrapped__")]))
"""

# named by perfbench but already deleted from eegbench; perfbench drops it
# at its next change
GONE = {"eegbench.special.f_survival"}


def test_install_wraps_every_named_function(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=tmp_path)
    unwrapped = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert unwrapped - GONE == set()


# a tiny traced run of the config sys.argv[5] overrides; prints the per-layer
# metrics of the merged trace, the tracer's SVM check counts and the split
# fits the config asks for
TRACED_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from eegbench import runner
from eegbench.config import build_config

trace_dir = Path(sys.argv[4])
trace_dir.mkdir()
cfg = build_config({"corpus_root": sys.argv[3], "output_dir": str(trace_dir.parent / "report"),
                    "kfold": {"k": 2}, "holdout": {"n_repeats": 2}, **json.loads(sys.argv[5])})
tracer = tracing.Tracer()
tracing.install(tracer, trace_dir)
runner.run_experiment(cfg)
tracer.merge_worker_files(trace_dir)
fits = sum(len(cfg.schemes) * len(cfg.extractors) * len(cfg.models)
           * plan.splits_per_repeat * plan.n_repeats
           for plan in (cfg.kfold_plan, cfg.holdout_plan))
checks = {key: tracer.counts[key] for key in ("check.svm_fits", "check.svm_kkt_failures")}
print(json.dumps({"metrics": tracing.layer_metrics(tracer, cfg.jobs), "checks": checks,
                  "split_fits": fits}))
"""


def traced_run(corpus_root, tmp_path, **config) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(corpus_root), str(tmp_path / "trace"), json.dumps(config)],
        capture_output=True, text=True, check=True, cwd=tmp_path)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_pooled_extraction_is_traced(corpus_root, tmp_path, jobs):
    run = traced_run(corpus_root, tmp_path, schemes=["balanced"], extractors=["db2", "mfcc"],
                     models=["lda", "knn", "svm", "rf", "gb"], jobs=jobs)
    metrics = run["metrics"]
    # the tracer counts the recordings load_corpus returns, and the rows
    # extract_matrix returns: the balanced pick's, once per extractor
    assert metrics["corpus.signals"] == 500
    assert metrics["features.rows"] == 2 * 200
    assert metrics["features.extract_s.db2"] > 0
    assert metrics["features.extract_s.mfcc"] > 0
    assert metrics["evaluation.split_fits"] == run["split_fits"]
    assert metrics["runner.execute_cells_s"] > 0
    # what the tracer reads from fitted models: a renamed field fails here
    assert metrics["classifiers.rf.nodes"] > 0
    assert metrics["classifiers.gb.nodes"] > 0
    assert metrics["classifiers.svm.support_vectors"] > 0
    assert metrics["classifiers.svm.sweeps"] > 0
    assert run["checks"]["check.svm_fits"] == metrics["classifiers.svm.fits"] > 0
    assert run["checks"]["check.svm_kkt_failures"] == 0


def test_wfe_extraction_is_traced(corpus_root, tmp_path):
    # wfe is the corpus matrix, yet it must still pass through extract_matrix
    run = traced_run(corpus_root, tmp_path, schemes=["imbalanced"], extractors=["wfe"],
                     models=["lda"])
    metrics = run["metrics"]
    assert metrics["corpus.signals"] == 500
    assert metrics["features.rows"] == 500
    assert metrics["features.extract_s.wfe"] > 0
    assert metrics["evaluation.split_fits"] == run["split_fits"]


def test_inference_is_traced(corpus_root, tmp_path):
    # reporting imports inference only when a run writes its tables, so the
    # names it calls must be the ones install rebound to wrappers; 2 hold-out
    # repeats of 2 extractors x 2 models write them
    run = traced_run(corpus_root, tmp_path, schemes=["balanced"], extractors=["db2", "mfcc"],
                     models=["lda", "nb"])
    metrics = run["metrics"]
    assert metrics["inference.anova_s"] > 0
    assert metrics["inference.tukey_s"] > 0
    assert metrics["special.calls"] > 0
