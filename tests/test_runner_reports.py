import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import eegbench
from eegbench import cli
from eegbench.config import build_config
from eegbench.evaluation import CellResult
from eegbench.reporting import (five_number_summary, read_long_csv,
                                write_long_csv)
from eegbench.features import extract_matrix
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
    datasets = build_datasets(cfg)
    features = extract_features(cfg, datasets)
    for extractor in cfg.extractors:
        for scheme, ds in datasets.items():
            fm = features[(scheme, extractor)]
            assert np.array_equal(fm.labels, ds.labels)
            alone = extract_matrix([s.samples for s in ds.instances], ds.labels, extractor)
            assert fm.values.tobytes() == alone.values.tobytes()


def test_runner_import_loads_no_heavy_scipy_module():
    # scipy.stats alone adds tens of megabytes to a run's peak RSS
    heavy = ("scipy.stats", "scipy.optimize", "scipy.integrate")
    code = ("import sys, eegbench.runner; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    src = str(Path(eegbench.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == ""


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
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs_{jobs}"
            cfg = small_config(corpus_root, out, extractors=["mfcc"], models=["knn", "gb"],
                               kfold={"k": 3}, holdout={"n_repeats": 2}, jobs=jobs)
            run_experiment(cfg)
            outs.append(out)
        for fname in ("cells_holdout.csv", "cells_kfold.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestFailurePath:
    def test_cell_failure_writes_partial_manifest(self, corpus_root, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus_root": str(corpus_root),
            "output_dir": str(tmp_path / "report"),
            "schemes": ["balanced"],
            "extractors": ["mfcc"],
            "models": ["lda", "knn"],
            "holdout": {"n_repeats": 2},
            "hyperparams": {"knn": {"k": 100000}},
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
        cell = CellResult("balanced", "db4", "svm", "holdout",
                          [0.95, 0.975], [0.9, 1.0], [1.0, 0.95])
        path = tmp_path / "cells.csv"
        write_long_csv([cell], path)
        rows = read_long_csv(path)
        assert len(rows) == 2
        assert rows[0][:4] == ("balanced", "db4", "svm", 0)
        assert rows[1][4] == 0.975

    def test_read_long_csv_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scheme,model\nbalanced,svm\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_long_csv(path)
