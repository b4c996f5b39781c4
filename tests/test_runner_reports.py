import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

import eegbench
from eegbench import cli
from eegbench.classifiers import MODEL_KINDS
from eegbench.config import build_config
from eegbench.errors import CellError
from eegbench.reporting import (five_number_summary, read_long_csv,
                                write_long_csv)
from eegbench.features import EXTRACTORS, extract_matrix
from eegbench.runner import build_datasets, extract_features, run_experiment


def small_config(corpus_root, out_dir, **overrides):
    raw = {
        "corpus_root": str(corpus_root),
        "output_dir": str(out_dir),
        "schemes": ["balanced"],
        "extractors": ["mfcc", "db2"],
        "models": ["lda", "knn"],
        "kfold": {"k": 5},
        "holdout": {"n_repeats": 3},
    }
    raw.update(overrides)
    return build_config(raw)


@pytest.fixture(scope="module")
def bundle(corpus_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "report"
    cfg = small_config(corpus_root, out)
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_reports_cover_exactly_configured_cells(self, bundle):
        cfg, report = bundle
        rows = read_long_csv(report / "cells_holdout.csv")
        cells = {(r[0], r[1], r[2]) for r in rows}
        assert cells == {("balanced", e, m)
                         for e in ("mfcc", "db2") for m in ("lda", "knn")}
        reps = [r[3] for r in rows]
        assert max(reps) == 2  # three replications

    def test_kfold_csv_has_one_row_per_repeat(self, bundle):
        cfg, report = bundle
        rows = read_long_csv(report / "cells_kfold.csv")
        assert len(rows) == 4  # 2 extractors x 2 models x 1 repeat

    def test_manifest_contents(self, bundle):
        cfg, report = bundle
        assert report == cfg.output_dir
        manifest = json.loads((report / "manifest.json").read_text())
        assert manifest["config_digest"] == cfg.digest()
        assert len(manifest["completed_cells"]) == 8  # 2 plans x 2 x 2
        assert manifest["versions"]["eegbench"]
        assert manifest["versions"]["scipy"] == scipy.__version__

    def test_inference_files_equal_stats_on_holdout_csv(self, bundle, tmp_path):
        cfg, report = bundle
        out = tmp_path / "stats"
        assert cli.main(["stats", str(report / "cells_holdout.csv"),
                         "--out", str(out)]) == 0
        names = sorted(p.name for pattern in ("anova_*", "omega_squared_*", "hsd_*",
                                              "inference_*.txt")
                       for p in report.glob(pattern))
        assert len(names) == 5  # one scheme: anova, omega^2, two HSD tables, text
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (report / name).read_bytes()

    def test_manifest_resources(self, bundle):
        cfg, report = bundle
        resources = json.loads((report / "manifest.json").read_text())["resources"]
        assert sorted(resources) == ["cpu_s", "peak_rss_mb"]
        usage = [resource.getrusage(who)
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        # the manifest rounds to 0.1 MB
        assert 0 < resources["peak_rss_mb"] <= max(u.ru_maxrss for u in usage) / 1024.0 + 0.05
        assert 0 < resources["cpu_s"] <= sum(u.ru_utime + u.ru_stime for u in usage)

    def test_performance_tables_exist(self, bundle):
        cfg, report = bundle
        for ext in ("mfcc", "db2"):
            assert (report / f"performance_kfold_balanced_{ext}.csv").exists()
        text = (report / "performance_kfold.txt").read_text()
        assert "extractor=db2" in text

    def test_boxplot_summary_row_count(self, bundle):
        cfg, report = bundle
        lines = (report / "boxplot_summary_balanced.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + extractors x models

    def test_refuses_existing_output_dir(self, bundle, corpus_root):
        cfg, report = bundle
        cfg2 = small_config(corpus_root, report)
        with pytest.raises(FileExistsError):
            run_experiment(cfg2)

    def test_dataset_manifest_written(self, bundle):
        cfg, report = bundle
        lines = (report / "dataset_balanced.csv").read_text().strip().splitlines()
        assert len(lines) == 201


def test_extraction_shared_across_schemes(corpus_root, tmp_path):
    cfg = small_config(corpus_root, tmp_path / "report", schemes=["imbalanced", "balanced"],
                       extractors=["db4", "mfcc"])
    corpus, datasets = build_datasets(cfg)
    features = extract_features(cfg, corpus, datasets)
    assert sorted(features) == ["db4", "mfcc"]
    for extractor, fm in features.items():
        # one matrix for both schemes, over every corpus row
        assert np.array_equal(fm.labels, datasets["imbalanced"].labels)
        for ds in datasets.values():
            alone = extract_matrix(corpus.samples[ds.rows], ds.labels, extractor)
            assert fm.values[ds.rows].tobytes() == alone.values.tobytes()


def test_extraction_independent_of_jobs(corpus_root, tmp_path, monkeypatch):
    # 500 distinct signals: not a multiple of EXTRACT_BLOCK, and the
    # balanced rows are not a prefix of them. Every jobs hands _run_tasks
    # the same extraction tasks, one per block and extractor but wfe
    from eegbench import runner

    tasks = {}
    run_tasks = runner._run_tasks

    def recording(cfg, inputs, task_list, progress=None):
        tasks[cfg.jobs] = list(task_list)
        return run_tasks(cfg, inputs, task_list, progress)

    monkeypatch.setattr(runner, "_run_tasks", recording)
    features = {}
    for jobs in (1, 2, 3):
        cfg = small_config(corpus_root, tmp_path / "report", schemes=["imbalanced", "balanced"],
                           extractors=list(EXTRACTORS), jobs=jobs)
        corpus, datasets = build_datasets(cfg)
        features[jobs] = extract_features(cfg, corpus, datasets)
    signals = len(corpus.samples)
    assert signals % runner.EXTRACT_BLOCK
    assert tasks[1] == tasks[2] == tasks[3]
    assert len(tasks[1]) == (len(EXTRACTORS) - 1) * -(-signals // runner.EXTRACT_BLOCK)
    for jobs in (2, 3):
        assert sorted(features[1]) == sorted(features[jobs]) == sorted(EXTRACTORS)
        for key, fm in features[1].items():
            assert np.array_equal(fm.values, features[jobs][key].values)
            assert fm.feature_names == features[jobs][key].feature_names
            assert np.array_equal(fm.labels, features[jobs][key].labels)


def test_wfe_is_the_corpus_matrix(corpus_root, tmp_path, monkeypatch):
    # a wfe run holds the samples once: wfe is no extraction task, its
    # matrix is the corpus matrix, and loading and extraction together
    # stay under one and a half times that matrix
    import tracemalloc

    from eegbench import runner

    tasks = []
    run_tasks = runner._run_tasks

    def recording(cfg, inputs, task_list, progress=None):
        tasks.extend(task_list)
        return run_tasks(cfg, inputs, task_list, progress)

    monkeypatch.setattr(runner, "_run_tasks", recording)
    cfg = small_config(corpus_root, tmp_path / "report", schemes=["imbalanced", "balanced"],
                       extractors=["wfe"])
    tracemalloc.start()
    try:
        corpus, datasets = build_datasets(cfg)
        features = extract_features(cfg, corpus, datasets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tasks == []
    wfe = features["wfe"]
    assert np.shares_memory(wfe.values, corpus.samples)
    assert wfe.gram is None          # the cells compute it; extraction alone does not
    assert peak < 1.5 * corpus.samples.nbytes

    cfg.extractors = ["wfe", "mfcc"]
    cfg.jobs = 2
    features = extract_features(cfg, corpus, datasets)
    assert tasks and {task.extractor for task in tasks} == {"mfcc"}
    assert np.shares_memory(features["wfe"].values, corpus.samples)


def test_samples_are_released_before_the_cells_run(corpus_root, tmp_path, monkeypatch):
    import weakref

    from eegbench import runner

    samples, alive = [], []
    build, execute = runner.build_datasets, runner.execute_cells

    def recording_build(cfg):
        corpus, datasets = build(cfg)
        samples.append(weakref.ref(corpus.samples))
        return corpus, datasets

    def checking_execute(cfg, datasets, features, progress=None):
        alive.append(samples[0]() is not None)
        return execute(cfg, datasets, features, progress)

    monkeypatch.setattr(runner, "build_datasets", recording_build)
    monkeypatch.setattr(runner, "execute_cells", checking_execute)
    # no wfe, so the cells read nothing of the samples; pooled extraction
    # must not keep them either
    cfg = small_config(corpus_root, tmp_path / "report", schemes=["imbalanced", "balanced"],
                       extractors=["mfcc"], models=["lda"], jobs=2)
    report = run_experiment(cfg)
    assert alive == [False]
    # the dataset manifests still name every recording
    for scheme in cfg.schemes:
        lines = (report / f"dataset_{scheme}.csv").read_text().splitlines()
        assert len(lines) == 1 + (500 if scheme == "imbalanced" else 200)


# scipy.stats alone adds tens of megabytes to a run's peak RSS, and
# scipy.linalg with scipy.special about 33 MB: a run loads scipy.special only
# to write inference tables, and scipy.linalg never
HEAVY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.linalg",
               "scipy.special")


def heavy_scipy_loaded(code, *args) -> list:
    """The ``HEAVY_SCIPY`` modules in ``sys.modules`` after a fresh
    interpreter runs ``code`` with ``args`` as ``sys.argv[1:]``."""
    code += f"\nimport sys\nprint(' '.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))"
    src = str(Path(eegbench.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    return done.stdout.split()


def test_runner_import_loads_no_heavy_scipy_module():
    for module in ("eegbench.runner", "eegbench.cli"):
        assert heavy_scipy_loaded(f"import {module}") == [], module


RUN_CONFIG = """
import json, sys
from eegbench.config import build_config
from eegbench.runner import run_experiment
run_experiment(build_config(json.loads(sys.argv[1])))
"""


@pytest.mark.parametrize("extractors, loaded", [
    (["wfe"], []),
    (["db2", "mfcc"], ["scipy.special"]),
], ids=["wfe_only", "inference"])
def test_run_loads_scipy_special_only_for_inference(corpus_root, tmp_path, extractors, loaded):
    # qda and lda solve with numpy; two extractors and hold-out repeats write
    # the inference tables
    out = tmp_path / "report"
    raw = {"corpus_root": str(corpus_root), "output_dir": str(out), "schemes": ["balanced"],
           "extractors": extractors, "models": ["lda", "qda"], "kfold": {"k": 2},
           "holdout": {"n_repeats": 2}}
    assert heavy_scipy_loaded(RUN_CONFIG, json.dumps(raw)) == loaded
    assert (out / "manifest.json").is_file()
    assert (out / "anova_balanced.csv").is_file() == bool(loaded)


class TestDeterminism:
    def test_two_runs_byte_identical_long_csv(self, corpus_root, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"rep_{name}"
            cfg = small_config(corpus_root, out,
                              extractors=["mfcc"], models=["knn", "gb"])
            run_experiment(cfg)
            outs.append(out)
        for fname in ("cells_holdout.csv", "cells_kfold.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_jobs_one_and_two_byte_identical_long_csv(self, corpus_root, tmp_path):
        # wfe too: its Gram matrix is computed in the parent and inherited by
        # the forked workers
        for extractor in ("mfcc", "wfe"):
            outs = []
            for jobs in (1, 2):
                out = tmp_path / f"{extractor}_jobs_{jobs}"
                cfg = small_config(corpus_root, out, extractors=[extractor],
                                   models=["knn", "gb"], kfold={"k": 3},
                                   holdout={"n_repeats": 2}, jobs=jobs)
                run_experiment(cfg)
                outs.append(out)
            for fname in ("cells_holdout.csv", "cells_kfold.csv"):
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


PINNED = Path(__file__).parent / "pinned"
CELLS_CSVS = ("cells_kfold.csv", "cells_holdout.csv")


def moved_cells(report, pinned) -> list:
    """One line per cell row of ``report``'s cells CSVs that differs from
    the copy pinned in ``pinned``, naming the cell and each rate's change."""
    moved = []
    for name in CELLS_CSVS:
        got = {row[:4]: row[4:] for row in read_long_csv(report / name)}
        want = {row[:4]: row[4:] for row in read_long_csv(pinned / name)}
        for key in sorted(set(got) | set(want)):
            cell = f"{name} {'/'.join(map(str, key))}"
            if key not in got or key not in want:
                moved.append(f"{cell}: only in the {'run' if key in got else 'pinned copy'}")
            elif not np.array_equal(got[key], want[key], equal_nan=True):
                moved.append(cell + ": " + ", ".join(
                    f"{rate} {w!r} -> {g!r} ({g - w:+.3g})"
                    for rate, g, w in zip(("accuracy", "sensitivity", "specificity"),
                                          got[key], want[key]) if g != w))
    return moved


def assert_cells_pinned(report, pinned):
    assert moved_cells(report, pinned) == []
    for name in CELLS_CSVS:
        assert (report / name).read_bytes() == (pinned / name).read_bytes()


class TestDefaultCellBits:
    """Every file of a small run of all seven models but the manifest, pinned bit for bit.

    The run is the session corpus (seed 0), balanced, ``mfcc`` and ``db2``,
    2 folds and 2 hold-outs, at every model's default settings and the
    default master seed. Recorded with numpy 2.4.6 and its bundled OpenBLAS
    0.3.31 on x86-64; another BLAS build or CPU may round differently. The
    cells CSVs are pinned as files under ``tests/pinned/db2_mfcc`` and
    compared row by row, the derived reports by hash. The manifest holds a
    timestamp and the elapsed time, so it is left out.
    """

    EXPECTED = {
        "anova_balanced.csv": "1e25e34822647de2c1cf25e37bbb1dd3c6b58057bf62e389a20ed2804cfd170f",
        "boxplot_balanced.csv": "d359dbd3ba10db753df5c29e708c211e5636e3c309490db601a09e8288e86bfe",
        "boxplot_summary_balanced.csv":
            "97d8d8e3aa2b42cb0a21095a82643bf1dc89d1560fd79febb43e4a350aa9fb77",
        "dataset_balanced.csv": "a0610523976ad4a8ff4cdde72741dad4dae544f97d3e65d8731ef5b252d468ab",
        "hsd_balanced_feat_extr.csv":
            "3b96bf52c1f38ec8b8314489565e1f976989a46708f32c9cff3ff9fd3b37dab2",
        "hsd_balanced_models.csv": "5cc81816c66be6144e01721c931d73d22a2100439ac6086033482d14f5da4c0b",
        "inference_balanced.txt": "f71012e509b9208c4a14f467012b757077bb76fca07d8698ace29886c1eea061",
        "omega_squared_balanced.csv":
            "bf33431fba909bdd286a29b2d5d334381bbed7691d0b4ea8f55928f231fa2290",
        "performance_holdout.txt": "1009594257589d59418d14b310ba9232b6ea60669aa9921acff0f34a63f9c734",
        "performance_holdout_balanced_db2.csv":
            "5a3f423a3c5c3be2a9701f4407358cd4db58400d419808a72aaaa995d4880c15",
        "performance_holdout_balanced_mfcc.csv":
            "a9990313c57d0dea0339fb161d2a33de402c336621fedaf965d2304c6e149edf",
        "performance_kfold.txt": "78f9a1578fc3ef9da6b64e8effcca4bfbfc8570cd8f974f4f1a4ca96476bfdee",
        "performance_kfold_balanced_db2.csv":
            "129e41bfb837bd38c5c81bb9efa958f34dfaec012db6d418234e96f7696a37ce",
        "performance_kfold_balanced_mfcc.csv":
            "ef7b62a17fb1ea4adae2c7440d9aeb2e44a907cdace153032f48a2bb19c72900",
    }

    def test_cells_hash(self, corpus_root, tmp_path):
        cfg = small_config(corpus_root, tmp_path / "report", models=list(MODEL_KINDS),
                           kfold={"k": 2}, holdout={"n_repeats": 2})
        report = run_experiment(cfg)
        assert_cells_pinned(report, PINNED / "db2_mfcc")
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in report.iterdir()
                if p.name != "manifest.json" and p.name not in CELLS_CSVS} == self.EXPECTED


class TestWfeCellBits:
    """The cells of a small ``wfe`` run of all seven models, pinned row by row.

    The run is ``TestDefaultCellBits``'s with ``wfe`` as its one extractor,
    so it covers the wide split PCA and the tree models on its components.
    The expected files under ``tests/pinned/wfe`` were recorded with the
    same numpy and OpenBLAS, at one thread and at two alike. The same run
    on both schemes is pinned under ``tests/pinned/wfe_schemes``, recorded
    alike at one and two jobs, when each scheme still had its own copy of
    the matrix and its own Gram matrix.
    """

    def test_cells_match_pinned(self, corpus_root, tmp_path):
        cfg = small_config(corpus_root, tmp_path / "report", extractors=["wfe"],
                           models=list(MODEL_KINDS), kfold={"k": 2}, holdout={"n_repeats": 2})
        assert_cells_pinned(run_experiment(cfg), PINNED / "wfe")

    def test_both_schemes_match_pinned(self, corpus_root, tmp_path):
        # both schemes' cells read one feature matrix and one Gram matrix,
        # so the balanced cells must not differ from a balanced-only run's
        cfg = small_config(corpus_root, tmp_path / "report", schemes=["imbalanced", "balanced"],
                           extractors=["wfe"], models=list(MODEL_KINDS), kfold={"k": 2},
                           holdout={"n_repeats": 2})
        report = run_experiment(cfg)
        assert_cells_pinned(report, PINNED / "wfe_schemes")
        for name in CELLS_CSVS:
            balanced = [row for row in read_long_csv(report / name) if row[0] == "balanced"]
            assert balanced == read_long_csv(PINNED / "wfe" / name)


class TestFailurePath:
    def test_cell_failure_writes_partial_manifest(self, corpus_root, tmp_path, capsys,
                                                  monkeypatch):
        from eegbench.classifiers import KnnClassifier

        def fail(self, X, y):
            raise ValueError("fit failed")

        monkeypatch.setattr(KnnClassifier, "fit", fail)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus_root": str(corpus_root),
            "output_dir": str(tmp_path / "report"),
            "schemes": ["balanced"],
            "extractors": ["mfcc"],
            "models": ["lda", "knn"],
            "holdout": {"n_repeats": 2},
        }))
        code = cli.main(["run", str(cfg_path), "--quiet"])
        assert code == 3
        assert "cell failure" in capsys.readouterr().err
        partial = tmp_path / "report.partial"
        assert partial.is_dir()
        manifest = json.loads((partial / "manifest.json").read_text())
        assert manifest["failure"]["model"] == "knn"
        # the lda cell runs before the failing knn cell and is kept
        assert "balanced/kfold/mfcc/lda" in manifest["completed_cells"]
        rows = read_long_csv(partial / "cells_kfold.csv")
        assert [r[:4] for r in rows] == [("balanced", "mfcc", "lda", 0)]
        assert not (tmp_path / "report").exists()  # nothing half-written


    def test_pooled_failure_keeps_every_finished_cell(self, bundle, corpus_root, tmp_path,
                                                     monkeypatch):
        from eegbench.classifiers import KnnClassifier

        def fail(self, X, y):
            raise ValueError("fit failed")

        # the first cell fails; the cells already handed to the workers
        # still finish and must be kept
        monkeypatch.setattr(KnnClassifier, "fit", fail)
        cfg = small_config(corpus_root, tmp_path / "report", models=["knn", "lda"], jobs=2)
        with pytest.raises(CellError):
            run_experiment(cfg)
        partial = tmp_path / "report.partial"
        manifest = json.loads((partial / "manifest.json").read_text())
        assert manifest["failure"]["model"] == "knn"
        completed = manifest["completed_cells"]
        assert completed
        assert all(cell.endswith("/lda") for cell in completed)
        _, report = bundle
        for plan in ("kfold", "holdout"):
            rows = read_long_csv(partial / f"cells_{plan}.csv")
            assert sorted({f"{r[0]}/{plan}/{r[1]}/{r[2]}" for r in rows}) == sorted(
                c for c in completed if f"/{plan}/" in c)
            full = {r[:4]: r for r in read_long_csv(report / f"cells_{plan}.csv")}
            assert all(full[r[:4]] == r for r in rows)
        assert not (tmp_path / "report").exists()

    def test_finished_run_removes_earlier_failure_bundle(self, corpus_root, tmp_path,
                                                         monkeypatch):
        from eegbench.classifiers import KnnClassifier

        def fail(self, X, y):
            raise ValueError("fit failed")

        cfg = small_config(corpus_root, tmp_path / "report", extractors=["mfcc"])
        with monkeypatch.context() as patch:
            patch.setattr(KnnClassifier, "fit", fail)
            with pytest.raises(CellError):
                run_experiment(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.partial"]
        run_experiment(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]

    def test_failed_partial_write_leaves_nothing(self, corpus_root, tmp_path, monkeypatch):
        from eegbench import runner
        from eegbench.classifiers import KnnClassifier

        def fail(self, X, y):
            raise ValueError("fit failed")

        calls = []
        write = runner.write_long_csv

        def write_or_fail(cells, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write(cells, path)

        monkeypatch.setattr(KnnClassifier, "fit", fail)
        monkeypatch.setattr(runner, "write_long_csv", write_or_fail)
        cfg = small_config(corpus_root, tmp_path / "report", extractors=["mfcc"])
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg)
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestTaskRunner:
    def test_pool_starts_no_more_workers_than_tasks(self, corpus_root, tmp_path, monkeypatch):
        from concurrent.futures import Future

        from eegbench import runner

        pools = []

        class InlineExecutor:
            """Records its worker count and runs each task at submit."""

            def __init__(self, max_workers, mp_context, initializer, initargs):
                pools.append({"workers": max_workers, "tasks": 0,
                              "start": mp_context.get_start_method()})
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                pools[-1]["tasks"] += 1
                future = Future()
                future.set_result(fn(task))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(runner, "_WORKER_STATE", {})
        cfg = small_config(corpus_root, tmp_path / "report", extractors=["mfcc"],
                           models=["lda"], jobs=8)
        run_experiment(cfg)
        assert len(pools) == 2  # extraction chunks, then the cells
        assert pools[1] == {"workers": 2, "tasks": 2, "start": "fork"}
        # the workers inherit the samples and the features at fork
        assert all(pool["start"] == "fork" for pool in pools)
        assert all(pool["workers"] == min(8, pool["tasks"]) for pool in pools)

    def test_failing_chunk_cancels_queued_chunks(self, corpus_root, tmp_path, monkeypatch):
        from eegbench import runner
        from eegbench.features import FeatureMatrix

        cfg = small_config(corpus_root, tmp_path / "report", jobs=2)
        corpus, datasets = build_datasets(cfg)
        first = corpus.samples[datasets["balanced"].rows[0]]
        ran = tmp_path / "ran.txt"

        def extract(samples, labels, extractor):
            if extractor == cfg.extractors[0] and np.array_equal(samples[0], first):
                raise RuntimeError("first chunk failed")
            time.sleep(0.5)
            with open(ran, "a") as fh:
                fh.write(f"{extractor}\n")
            return FeatureMatrix(np.zeros((len(samples), 1)), ["x"], np.asarray(labels))

        monkeypatch.setattr(runner, "extract_matrix", extract)
        signals = len(datasets["balanced"].rows)
        chunks = len(cfg.extractors) * -(-signals // runner.EXTRACT_BLOCK)
        with pytest.raises(RuntimeError, match="first chunk failed"):
            run_experiment(cfg)
        # every chunk but the failing one sleeps and records itself
        assert len(ran.read_text().splitlines()) < chunks - 1
        assert not (tmp_path / "report").exists()

    def test_failing_cell_cancels_queued_cells(self, corpus_root, tmp_path, monkeypatch):
        # an error that is not a CellError: the cells that finished are kept
        # in the partial bundle, under a failure block that names no cell
        from eegbench import runner

        cfg = small_config(corpus_root, tmp_path / "report", jobs=2)
        cells = list(runner.enumerate_cells(cfg))
        ran = tmp_path / "ran.txt"
        run_cell = runner.run_cell

        def cell(scheme, extractor, model, plan, **kwargs):
            if (scheme, plan.kind, extractor, model) == cells[0]:
                raise RuntimeError("first cell failed")
            time.sleep(0.5)
            result = run_cell(scheme, extractor, model, plan, **kwargs)
            with open(ran, "a") as fh:
                fh.write(f"{scheme}/{plan.kind}/{extractor}/{model}\n")
            return result

        monkeypatch.setattr(runner, "run_cell", cell)
        with pytest.raises(RuntimeError, match="first cell failed"):
            run_experiment(cfg)
        finished = ran.read_text().splitlines()
        assert 0 < len(finished) < len(cells) - 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ran.txt", "report.partial"]
        manifest = json.loads((tmp_path / "report.partial" / "manifest.json").read_text())
        assert sorted(manifest["completed_cells"]) == sorted(finished)
        assert manifest["failure"] == {"message": "RuntimeError: first cell failed",
                                       "scheme": None, "extractor": None, "model": None,
                                       "replication": None}
        for plan in ("kfold", "holdout"):
            rows = read_long_csv(tmp_path / "report.partial" / f"cells_{plan}.csv")
            assert {f"{r[0]}/{plan}/{r[1]}/{r[2]}" for r in rows} == {
                c for c in finished if f"/{plan}/" in c}

    def test_interrupt_keeps_finished_cells(self, corpus_root, tmp_path, monkeypatch):
        from eegbench import runner

        cfg = small_config(corpus_root, tmp_path / "report", extractors=["mfcc"])
        cells = list(runner.enumerate_cells(cfg))
        run_cell = runner.run_cell

        def cell(scheme, extractor, model, plan, **kwargs):
            if (scheme, plan.kind, extractor, model) == cells[2]:
                raise KeyboardInterrupt
            return run_cell(scheme, extractor, model, plan, **kwargs)

        monkeypatch.setattr(runner, "run_cell", cell)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "report.partial" / "manifest.json").read_text())
        assert manifest["completed_cells"] == sorted("/".join(c) for c in cells[:2])
        assert manifest["failure"]["message"] == "KeyboardInterrupt: "
        assert manifest["failure"]["model"] is None
        assert not (tmp_path / "report").exists()

    def test_failure_before_any_cell_finishes_writes_nothing(self, corpus_root, tmp_path,
                                                             monkeypatch):
        from eegbench import runner

        def cell(*args, **kwargs):
            raise RuntimeError("no cell runs")

        monkeypatch.setattr(runner, "run_cell", cell)
        cfg = small_config(corpus_root, tmp_path / "report", extractors=["mfcc"])
        with pytest.raises(RuntimeError, match="no cell runs"):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []


class TestReportingUnits:
    def test_five_number_summary_hand_case(self):
        mn, q1, med, q3, mx, wlo, whi, outliers = five_number_summary(
            [1.0, 2.0, 3.0, 4.0, 100.0])
        assert (mn, q1, med, q3, mx) == (1.0, 2.0, 3.0, 4.0, 100.0)
        assert whi == 4.0  # 100 is beyond q3 + 1.5 iqr
        assert wlo == 1.0
        assert outliers == 1

    def test_five_number_single_replication(self):
        mn, q1, med, q3, mx, _, _, outliers = five_number_summary([0.913])
        assert mn == q1 == med == q3 == mx == 0.913
        assert outliers == 0

    def test_long_csv_round_trip(self, tmp_path):
        rows = [("balanced", "db4", "svm", 0, 0.95, 0.9, 1.0),
                ("balanced", "db4", "svm", 1, 0.975, 1.0, 0.95),
                ("balanced", "db4", "svm", 2, 0.5, float("nan"), 0.5)]
        path = tmp_path / "cells.csv"
        write_long_csv(rows, path)
        back = read_long_csv(path)
        assert back[:2] == rows[:2]
        assert back[2][:5] == rows[2][:5] and back[2][6] == 0.5
        assert math.isnan(back[2][5])  # an undefined rate is an empty field
        assert path.read_text().splitlines()[3] == "balanced,db4,svm,2,0.5,,0.5"

    def test_read_long_csv_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scheme,model\nbalanced,svm\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_long_csv(path)
