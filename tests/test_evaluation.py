import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eegbench import evaluation as ev
from eegbench.classifiers import STANDARDIZED_KINDS
from eegbench.corpus import SET_TAGS, load_corpus
from eegbench.errors import CellError, ConfigError
from eegbench.features import FeatureMatrix, pca_apply, pca_fit


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
                                                 "fit", rep, s)) for s in range(5)]
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


def reference_fit_split(X, y, train_idx, test_idx, model_kind, seed=0):
    """The split fit that centres copies: ``pca_fit``, then ``pca_apply`` on both sides."""
    X_train, X_test = X[train_idx], X[test_idx]
    pca = pca_fit(X_train, ev.PCA_VARIANCE_TARGET)
    X_train = pca_apply(pca, X_train)
    X_test = pca_apply(pca, X_test)
    if model_kind in STANDARDIZED_KINDS:
        mu = X_train.mean(axis=0)
        sd = X_train.std(axis=0)
        sd[sd == 0] = 1.0
        X_train = (X_train - mu) / sd
        X_test = (X_test - mu) / sd
    model = ev.make_model(model_kind, seed=seed)
    model.fit(X_train, y[train_idx])
    return ev.split_rates(y[test_idx], model.predict(X_test))


@pytest.fixture()
def handed_to_model(monkeypatch):
    """Copies of the matrices each split fit hands its model, fit then predict."""
    seen = []
    make_model = ev.make_model

    def recording(kind, seed=None):
        model = make_model(kind, seed=seed)
        fit, predict = model.fit, model.predict
        model.fit = lambda X, y: seen.append(X.copy()) or fit(X, y)
        model.predict = lambda X: seen.append(X.copy()) or predict(X)
        return model

    monkeypatch.setattr(ev, "make_model", recording)
    return seen


def factor_matrix(rng, n, d):
    """20 latent factors, noise and a mean far from 0, so centring matters."""
    return (rng.normal(size=(n, 20)) @ rng.normal(size=(20, d))
            + 0.3 * rng.normal(size=(n, d)) + rng.normal(size=d) * 50.0)


class TestLeakage:
    @staticmethod
    def train_side_with_garbage_test_rows(handed_to_model, X, y, kind):
        """What the model is fitted on, with the test rows as they are and as 1e6-scale noise."""
        train_idx, test_idx = ev.make_splits(y, ev.SplitPlan("holdout", seed=1))[0]
        ev.fit_split(X, y, train_idx, test_idx, kind)
        garbage = X.copy()
        garbage[test_idx] = 1e6 * np.random.default_rng(0).normal(size=(len(test_idx), X.shape[1]))
        ev.fit_split(garbage, y, train_idx, test_idx, kind)
        clean, _, dirty, _ = handed_to_model
        return clean, dirty

    def test_pca_untouched_by_test_rows(self, handed_to_model):
        fm = separable_features(n=60, d=6, seed=3)
        clean, dirty = self.train_side_with_garbage_test_rows(handed_to_model, fm.values,
                                                              fm.labels, "lda")
        assert clean.tobytes() == dirty.tobytes()

    @pytest.mark.parametrize("kind", ["lda", "knn"])
    def test_wide_pca_untouched_by_test_rows(self, handed_to_model, kind):
        # the split's Gram matrix is computed from all rows, test rows included
        X = factor_matrix(np.random.default_rng(6), 120, 700)
        y = np.repeat([0, 1], 60)
        clean, dirty = self.train_side_with_garbage_test_rows(handed_to_model, X, y, kind)
        assert 0 < clean.shape[1] < 96
        assert clean.tobytes() == dirty.tobytes()

    def test_pca_fit_matches_train_only_fit(self, handed_to_model):
        fm = separable_features(n=50, d=5, seed=4)
        splits = ev.make_splits(fm.labels, ev.SplitPlan("holdout", seed=2))
        train_idx, test_idx = splits[0]
        ev.fit_split(fm.values, fm.labels, train_idx, test_idx, "nb")
        direct = pca_fit(fm.values[train_idx], ev.PCA_VARIANCE_TARGET)
        train, test = handed_to_model
        assert train.tobytes() == pca_apply(direct, fm.values[train_idx]).tobytes()
        assert test.tobytes() == pca_apply(direct, fm.values[test_idx]).tobytes()


def factor_split(n_train, d):
    """A 500-row ``factor_matrix``, labels tied to its first column, and a random split."""
    rng = np.random.default_rng(d)
    X = factor_matrix(rng, 500, d)
    y = (X[:, 0] + rng.normal(size=500) * 5.0 > np.median(X[:, 0])).astype(int)
    order = rng.permutation(500)
    return X, y, np.sort(order[:n_train]), np.sort(order[n_train:])


class TestInPlaceCentring:
    """Split fits against ``reference_fit_split``, which centres copies."""

    # the wide model inputs' largest error over the largest training
    # projection: 2.4e-13 measured
    WIDE_RTOL = 1e-11

    @pytest.mark.parametrize("kind", ["lda", "knn"])
    @pytest.mark.parametrize("n_train, d", [(333, 4097), (400, 75)], ids=["wide", "tall"])
    def test_split_equals_reference_bit_for_bit(self, handed_to_model, n_train, d, kind):
        """Equal rates, and the tall split's model inputs bit for bit; the
        wide split projects from the Gram matrix, within ``WIDE_RTOL``."""
        X, y, train_idx, test_idx = factor_split(n_train, d)
        before = X.copy()
        rates = ev.fit_split(X, y, train_idx, test_idx, kind, seed=3)
        assert X.tobytes() == before.tobytes()
        ref_rates = reference_fit_split(X, y, train_idx, test_idx, kind, seed=3)
        assert np.array_equal(rates, ref_rates, equal_nan=True)
        train, test, ref_train, ref_test = handed_to_model
        assert train.shape == ref_train.shape and 0 < train.shape[1] < min(n_train, d)
        if d < n_train:
            assert train.tobytes() == ref_train.tobytes()
            assert test.tobytes() == ref_test.tobytes()
        else:
            scale = np.abs(ref_train).max()
            assert np.abs(train - ref_train).max() <= self.WIDE_RTOL * scale
            assert np.abs(test - ref_test).max() <= self.WIDE_RTOL * scale

    def test_split_memory_is_bounded(self, corpus_root):
        # the Gram matrix is the runner's, made once per matrix. The split
        # holds its blocks, eigenvectors and one column block of training
        # rows: 5.5 MB measured (0.42x the rows); gathering the rows and
        # forming 4 097-long axes took 27.1 MB (2.07x)
        corpus = load_corpus(corpus_root)
        X = corpus.samples
        y = np.array([int(tag == "S") for tag in SET_TAGS for _ in corpus[tag]])
        train_idx, test_idx = ev.make_splits(y, ev.SplitPlan("holdout", seed=1))[0]
        assert (len(train_idx), X.shape[1]) == (400, 4097)
        gram = X @ X.T
        tracemalloc.start()
        try:
            ev.fit_split(X, y, train_idx, test_idx, "lda", gram=gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * len(train_idx) * X.shape[1] * X.itemsize


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = ev.derive_seed(7, "balanced", "kfold", "db4", "svm", "split")
        b = ev.derive_seed(7, "balanced", "kfold", "db4", "svm", "split")
        c = ev.derive_seed(7, "balanced", "kfold", "db4", "rf", "split")
        d = ev.derive_seed(8, "balanced", "kfold", "db4", "svm", "split")
        assert a == b
        assert len({a, c, d}) == 3
