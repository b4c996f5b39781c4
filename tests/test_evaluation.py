import dataclasses
import math

import numpy as np
import pytest

from eegbench import evaluation as ev
from eegbench.errors import CellError, ConfigError
from eegbench.features import FeatureMatrix, pca_fit


def same_pca(a, b) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def imbalanced_labels():
    return np.array([0] * 400 + [1] * 100)


class TestSplitPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ev.SplitPlan("bootstrap")
        with pytest.raises(ValueError):
            ev.SplitPlan("kfold", k=1)
        with pytest.raises(ValueError):
            ev.SplitPlan("holdout", test_fraction=1.0)
        with pytest.raises(ValueError):
            ev.SplitPlan("kfold", n_repeats=0)


class TestMakeSplits:
    def test_kfold_partitions_all_indices(self):
        y = imbalanced_labels()
        splits = ev.make_splits(y, ev.SplitPlan("kfold", k=10, seed=1))
        assert len(splits) == 10
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test) == list(range(500))
        for train, test in splits:
            assert len(test) == 50
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 500

    def test_kfold_stratification_exact(self):
        y = imbalanced_labels()
        for train, test in ev.make_splits(y, ev.SplitPlan("kfold", k=10, seed=3)):
            assert y[test].sum() == 10  # exactly 10 positives per fold

    def test_kfold_repeats_cover_separately(self):
        y = np.array([0] * 20 + [1] * 20)
        plan = ev.SplitPlan("kfold", k=4, n_repeats=3, seed=5)
        splits = ev.make_splits(y, plan)
        assert len(splits) == 12
        for r in range(3):
            tests = np.concatenate([splits[r * 4 + f][1] for f in range(4)])
            assert sorted(tests) == list(range(40))

    def test_holdout_fraction_per_label(self):
        y = imbalanced_labels()
        plan = ev.SplitPlan("holdout", test_fraction=0.2, n_repeats=5, seed=2)
        splits = ev.make_splits(y, plan)
        assert len(splits) == 5
        for train, test in splits:
            assert len(test) == 100
            assert y[test].sum() == 20
            assert y[train].sum() == 80

    def test_same_seed_identical(self):
        y = imbalanced_labels()
        p = ev.SplitPlan("holdout", n_repeats=3, seed=11)
        a = ev.make_splits(y, p)
        b = ev.make_splits(y, p)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_kfold_impossible_stratification(self):
        y = np.array([0] * 30 + [1] * 3)
        with pytest.raises(ValueError, match="stratification impossible"):
            ev.make_splits(y, ev.SplitPlan("kfold", k=5))

    def test_holdout_impossible_fraction(self):
        y = np.array([0] * 50 + [1] * 2)
        with pytest.raises(ValueError, match="stratification impossible"):
            ev.make_splits(y, ev.SplitPlan("holdout", test_fraction=0.1))

    @pytest.mark.parametrize("scheme", ["imbalanced", "balanced"])
    def test_every_accepted_plan_trains_on_both_labels(self, tmp_path, scheme):
        # the binary models need both labels on every training side
        from eegbench.config import build_config
        from eegbench.corpus import BALANCED_PER_NEGATIVE_SET, NEGATIVE_TAGS, SIGNALS_PER_SET

        per_negative = SIGNALS_PER_SET if scheme == "imbalanced" else BALANCED_PER_NEGATIVE_SET
        y = np.repeat([0, 1], [len(NEGATIVE_TAGS) * per_negative, SIGNALS_PER_SET])

        def config(kfold, holdout):
            return build_config({"corpus_root": str(tmp_path), "schemes": [scheme],
                                 "kfold": kfold, "holdout": holdout})

        # k at the smallest class count (100 in either scheme), and the
        # smallest and largest test fractions that leave every label on both sides
        for k, fraction in [(SIGNALS_PER_SET, 0.00501), (2, 0.99499)]:
            cfg = config({"k": k, "n_repeats": 2}, {"test_fraction": fraction, "n_repeats": 20})
            for plan in (cfg.kfold_plan, cfg.holdout_plan):
                for train, _ in ev.make_splits(y, dataclasses.replace(plan, seed=k)):
                    assert set(y[train].tolist()) == {0, 1}
        # one step past each boundary the plan is refused
        for kfold, holdout in [({"k": SIGNALS_PER_SET + 1}, {}), ({}, {"test_fraction": 0.005}),
                               ({}, {"test_fraction": 0.995})]:
            with pytest.raises(ConfigError, match="stratification impossible"):
                config(kfold, holdout)


class TestConfusion:
    def test_all_correct(self):
        assert ev.split_rates([1, 0, 1, 0], [1, 0, 1, 0]) == (1.0, 1.0, 1.0)

    def test_hand_computed_metrics(self):
        # tp 90, fn 10, tn 395, fp 5
        y_true = np.repeat([1, 1, 0, 0], [90, 10, 395, 5])
        y_pred = np.repeat([1, 0, 0, 1], [90, 10, 395, 5])
        acc, sen, spe = ev.split_rates(y_true, y_pred)
        assert sen == pytest.approx(0.900)
        assert spe == pytest.approx(0.9875)
        assert acc == pytest.approx(0.970)
        assert (acc, sen, spe) == (485 / 500, 90 / 100, 395 / 400)

    def test_always_negative_predictor_on_imbalanced(self):
        y = imbalanced_labels()
        acc, sen, spe = ev.split_rates(y, np.zeros_like(y))
        assert acc == pytest.approx(0.8)
        assert sen == 0.0
        assert spe == 1.0

    def test_undefined_metric_is_nan_not_zero(self):
        # tp 0, fn 0, tn 8, fp 2
        acc, sen, spe = ev.split_rates(np.zeros(10, int), np.repeat([0, 1], [8, 2]))
        assert math.isnan(sen)
        assert spe == pytest.approx(0.8)


def separable_features(n=80, d=4, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.normal(size=(n // 2, d))
    pos = rng.normal(size=(n // 2, d)) + 8.0
    X = np.vstack([neg, pos])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return FeatureMatrix(X, [f"f{i}" for i in range(d)], y)


class TestRunCell:
    @pytest.mark.parametrize("kind", ["lda", "knn", "svm", "rf", "gb", "nb", "qda"])
    def test_separable_dataset_perfect_accuracy(self, kind):
        fm = separable_features()
        plan = ev.SplitPlan("holdout", test_fraction=0.25, n_repeats=3)
        rows = ev.run_cell("balanced", "wfe", kind, plan, features=fm)
        assert [r[:4] for r in rows] == [("balanced", "wfe", kind, rep) for rep in range(3)]
        assert np.mean([r[4] for r in rows]) == 1.0

    def test_permuted_labels_fall_to_majority_baseline(self):
        rng = np.random.default_rng(9)
        fm = separable_features(n=120)
        shuffled = fm.labels.copy()
        rng.shuffle(shuffled)
        fm2 = FeatureMatrix(fm.values, fm.feature_names, shuffled)
        plan = ev.SplitPlan("holdout", test_fraction=0.25, n_repeats=20)
        rows = ev.run_cell("balanced", "wfe", "lda", plan, features=fm2)
        acc = np.mean([r[4] for r in rows])
        # majority baseline is 0.5; 3 sigma for 20 reps of 30 test points
        sigma = math.sqrt(0.5 * 0.5 / (30 * 20))
        assert abs(acc - 0.5) < 3.5 * sigma + 0.05

    def test_same_seed_identical_cell(self):
        fm = separable_features(n=60)
        plan = ev.SplitPlan("holdout", n_repeats=4)
        a = ev.run_cell("balanced", "wfe", "rf", plan, features=fm, master_seed=5)
        b = ev.run_cell("balanced", "wfe", "rf", plan, features=fm, master_seed=5)
        assert a == b

    def test_kfold_aggregates_folds_per_repeat(self):
        fm = separable_features(n=60)
        plan = ev.SplitPlan("kfold", k=5, n_repeats=2)
        rows = ev.run_cell("balanced", "wfe", "knn", plan, features=fm)
        assert [r[3] for r in rows] == [0, 1]
        # each rate is the mean of its repeat's five folds
        splits = ev.make_splits(fm.labels, dataclasses.replace(plan, seed=ev.derive_seed(
            0, "balanced", "kfold", "wfe", "knn", "split")))
        for rep, row in enumerate(rows):
            folds = [ev.fit_split(fm.values, fm.labels, *splits[rep * 5 + s], "knn",
                                  ev.derive_seed(0, "balanced", "kfold", "wfe", "knn",
                                                 "fit", rep, s))[0] for s in range(5)]
            assert row[4:] == tuple(float(np.mean(col)) for col in zip(*folds))

    def test_failure_carries_cell_context(self, monkeypatch):
        from eegbench.classifiers import KnnClassifier

        def fail(self, X, y):
            raise ValueError("fit failed")

        monkeypatch.setattr(KnnClassifier, "fit", fail)
        fm = separable_features(n=40)
        plan = ev.SplitPlan("holdout", n_repeats=2)
        with pytest.raises(CellError) as err:
            ev.run_cell("balanced", "wfe", "knn", plan, features=fm)
        assert err.value.scheme == "balanced"
        assert err.value.model == "knn"
        assert err.value.extractor == "wfe"
        assert err.value.replication == 0


class TestLeakage:
    def test_pca_untouched_by_test_rows(self):
        fm = separable_features(n=60, d=6, seed=3)
        X, y = fm.values, fm.labels
        splits = ev.make_splits(y, ev.SplitPlan("holdout", seed=1))
        train_idx, test_idx = splits[0]
        _, pca_clean = ev.fit_split(X, y, train_idx, test_idx, "lda")
        garbage = X.copy()
        garbage[test_idx] = 1e6 * np.random.default_rng(0).normal(size=(len(test_idx), 6))
        _, pca_dirty = ev.fit_split(garbage, y, train_idx, test_idx, "lda")
        assert same_pca(pca_clean, pca_dirty)

    def test_pca_fit_matches_train_only_fit(self):
        fm = separable_features(n=50, d=5, seed=4)
        splits = ev.make_splits(fm.labels, ev.SplitPlan("holdout", seed=2))
        train_idx, test_idx = splits[0]
        _, pca_inner = ev.fit_split(fm.values, fm.labels, train_idx, test_idx, "nb")
        direct = pca_fit(fm.values[train_idx], ev.PCA_VARIANCE_TARGET)
        assert same_pca(pca_inner, direct)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = ev.derive_seed(7, "balanced", "kfold", "db4", "svm", "split")
        b = ev.derive_seed(7, "balanced", "kfold", "db4", "svm", "split")
        c = ev.derive_seed(7, "balanced", "kfold", "db4", "rf", "split")
        d = ev.derive_seed(8, "balanced", "kfold", "db4", "svm", "split")
        assert a == b
        assert len({a, c, d}) == 3
