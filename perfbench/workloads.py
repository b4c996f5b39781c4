"""The benchmark's two workloads, as eegbench run configurations.

Both read a full synthetic Bonn-layout corpus (5 sets x 100 signals);
``run.py`` writes three per run, at seeds derived from the benchmark seed,
which is also the run's master seed.
"""

from __future__ import annotations

CHEAP_MODELS = ["lda", "qda", "knn", "nb", "svm"]
ALL_MODELS = CHEAP_MODELS + ["rf", "gb"]

# Per-split PCA on the 4 097-column raw-sample matrix dominates this run;
# one extractor means the runner skips inference, and jobs=1 takes the
# serial path with a few large cells.
# The wavelet/cepstral extractors leave PCA almost nothing to do (75 or 28
# columns, 2 kept components), so time goes to classifier fits in the
# process pool, serial band-statistic extraction, and ANOVA plus Tukey.
WORKLOADS = {
    "wfe-pca": {
        "schemes": ["imbalanced"],
        "extractors": ["wfe"],
        "models": CHEAP_MODELS,
        "jobs": 1,
        "kfold": {"k": 3, "n_repeats": 1},
        "holdout": {"test_fraction": 0.2, "n_repeats": 1},
    },
    "wavelet-models": {
        "schemes": ["imbalanced", "balanced"],
        "extractors": ["db2", "db4", "coif1", "mfcc"],
        "models": ALL_MODELS,
        "jobs": 2,
        "kfold": {"k": 2, "n_repeats": 1},
        "holdout": {"test_fraction": 0.2, "n_repeats": 2},
    },
}


def run_config(workload: str, corpus_root: str, output_dir: str, seed: int) -> dict:
    """The raw JSON-style mapping handed to ``eegbench.config.build_config``."""
    return {
        **WORKLOADS[workload],
        "corpus_root": corpus_root,
        "output_dir": output_dir,
        "master_seed": seed,
        "profile": "custom",
    }


def split_fits_per_round(workload: str) -> int:
    """Split fits one run of the workload makes: cells times splits per cell."""
    w = WORKLOADS[workload]
    per_design = len(w["schemes"]) * len(w["extractors"]) * len(w["models"])
    splits = w["kfold"]["k"] * w["kfold"]["n_repeats"] + w["holdout"]["n_repeats"]
    return per_design * splits


def cells_per_round(workload: str) -> int:
    w = WORKLOADS[workload]
    return 2 * len(w["schemes"]) * len(w["extractors"]) * len(w["models"])
