import math
import tracemalloc

import numpy as np
import pytest

from eegbench.classifiers import (
    DEFAULT_HYPERPARAMS,
    MODEL_KINDS,
    GaussianNaiveBayes,
    GradientBoostingClassifier,
    KnnClassifier,
    LdaClassifier,
    QdaClassifier,
    RandomForestClassifier,
    SvmClassifier,
    make_model,
)
from eegbench.classifiers.tree import DecisionTree, grow_gini_forest


def two_blobs(rng, n=60, d=3, sep=10.0):
    a = rng.normal(size=(n // 2, d))
    b = rng.normal(size=(n // 2, d)) + sep
    X = np.vstack([a, b])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestLda:
    def test_symmetric_one_dimensional_boundary(self):
        # exact sample moments: means -1 / +1, pooled variance 1, equal priors
        X = np.array([[-2.0], [0.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        m = LdaClassifier(ridge=0.0).fit(X, y)
        assert m.predict([[-0.5]])[0] == 0
        assert m.predict([[0.5]])[0] == 1
        s = m.decision_scores([[0.0]])[0]
        assert s[0] == pytest.approx(s[1], abs=1e-12)

    def test_separated_blobs_perfect_training_accuracy(self):
        X, y = two_blobs(np.random.default_rng(0))
        m = LdaClassifier().fit(X, y)
        assert (m.predict(X) == y).all()

    def test_scores_match_matrix_algebra_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        m = LdaClassifier(ridge=0.0).fit(X, y)
        # independent evaluation of mu' S^-1 x - mu' S^-1 mu / 2 + ln prior
        mus, priors = [], []
        pooled = np.zeros((3, 3))
        for c in (0, 1):
            rows = X[y == c]
            mus.append(rows.mean(0))
            priors.append(len(rows) / len(X))
            pooled += (rows - rows.mean(0)).T @ (rows - rows.mean(0))
        pooled /= len(X)
        inv = np.linalg.inv(pooled)
        probe = rng.normal(size=(7, 3))
        got = m.decision_scores(probe)
        for i, x in enumerate(probe):
            for k in (0, 1):
                expected = mus[k] @ inv @ x - 0.5 * mus[k] @ inv @ mus[k] + math.log(priors[k])
                assert got[i, k] == pytest.approx(expected, abs=1e-8)

    def test_argmax_invariance_under_affine_rescale(self):
        X, y = two_blobs(np.random.default_rng(3), sep=2.0)
        m = LdaClassifier().fit(X, y)
        s = m.decision_scores(X)
        assert (np.argmax(s, 1) == np.argmax(2.5 * s + 7.0, 1)).all()

    def test_requires_two_samples_per_class(self):
        with pytest.raises(ValueError, match="fewer than two"):
            LdaClassifier().fit(np.zeros((3, 2)), np.array([0, 1, 1]))


class TestQda:
    def test_variance_ratio_boundary(self):
        # equal means, sigma^2 = 1 vs 4, equal priors: density equality at
        # |x| = sqrt((8/3) ln 2), inner region goes to the tight class
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        m = QdaClassifier(ridge=0.0).fit(X, y)
        xstar = math.sqrt(8.0 / 3.0 * math.log(2.0))
        assert xstar == pytest.approx(1.3595559868917453, abs=1e-12)
        s = m.decision_scores([[xstar]])[0]
        assert s[0] == pytest.approx(s[1], abs=1e-10)
        assert m.predict([[xstar - 0.01], [-xstar + 0.01]]).tolist() == [0, 0]
        assert m.predict([[xstar + 0.01], [-xstar - 0.01]]).tolist() == [1, 1]

    def test_equal_covariances_match_lda(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 2))
        X = np.vstack([base, base + [4.0, -1.0]])  # identical per-class covariance
        y = np.array([0] * 30 + [1] * 30)
        grid = rng.normal(size=(40, 2)) * 3
        qda = QdaClassifier(ridge=0.0).fit(X, y)
        lda = LdaClassifier(ridge=0.0).fit(X, y)
        assert (qda.predict(grid) == lda.predict(grid)).all()

    def test_scores_match_matrix_algebra_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        m = QdaClassifier(ridge=0.0).fit(X, y)
        probe = rng.normal(size=(6, 3))
        got = m.decision_scores(probe)
        for k, c in enumerate((0, 1)):
            rows = X[y == c]
            mu = rows.mean(0)
            cov = (rows - mu).T @ (rows - mu) / len(rows)
            inv = np.linalg.inv(cov)
            _, logdet = np.linalg.slogdet(cov)
            prior = len(rows) / len(X)
            for i, x in enumerate(probe):
                expected = (-0.5 * logdet - 0.5 * (x - mu) @ inv @ (x - mu)
                            + math.log(prior))
                assert got[i, k] == pytest.approx(expected, abs=1e-8)


class TestNaiveBayes:
    def test_symmetric_case_boundary_at_zero(self):
        X = np.array([[-2.0], [0.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        m = GaussianNaiveBayes().fit(X, y)
        assert m.predict([[-0.4]])[0] == 0
        assert m.predict([[0.4]])[0] == 1

    def test_hand_computed_posterior_table(self):
        # class a: values 0, 2 (mean 1, var 1); class b: 6, 8 (mean 7, var 1)
        X = np.array([[0.0], [2.0], [6.0], [8.0]])
        y = np.array(["a", "a", "b", "b"])
        m = GaussianNaiveBayes().fit(X, y)
        for x in (-1.0, 3.0, 4.0, 9.0):
            got = m.log_posteriors([[x]])[0]
            for k, mean in enumerate((1.0, 7.0)):
                expected = (math.log(0.5)
                            - 0.5 * math.log(2 * math.pi * 1.0)
                            - (x - mean) ** 2 / 2.0)
                assert got[k] == pytest.approx(expected, abs=1e-10)

    def test_column_duplication_preserves_training_argmax(self):
        rng = np.random.default_rng(21)
        X, y = two_blobs(rng, n=40, d=2, sep=4.0)
        before = GaussianNaiveBayes().fit(X, y).predict(X)
        X2 = np.hstack([X, X[:, :1]])
        after = GaussianNaiveBayes().fit(X2, y).predict(X2)
        assert (before == after).all()

    def test_zero_variance_feature_is_floored(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 4.0], [1.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        m = GaussianNaiveBayes().fit(X, y)  # constant first column
        assert np.all(np.isfinite(m.log_posteriors(X)))
        assert (m.predict(X) == y).all()


class TestKnn:
    def test_query_equals_training_point(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
        y = np.array([3, 7, 9])
        m = KnnClassifier(k=1).fit(X, y)
        assert m.predict([[5.0, 5.0]])[0] == 7

    def test_majority_vote_on_hand_set(self):
        # distances from query 0: a at 1, 2; b at 3; rest far
        X = np.array([[1.0], [-2.0], [3.0], [10.0], [-11.0]])
        y = np.array([0, 0, 1, 1, 1])
        m = KnnClassifier(k=3).fit(X, y)
        assert m.predict([[0.0]])[0] == 0

    def test_k_equals_n_gives_global_majority(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
        m = KnnClassifier(k=10).fit(X, y)
        assert m.predict([[100.0]])[0] == 1
        assert m.predict([[-100.0]])[0] == 1

    def test_tie_breaks_to_nearest_neighbor(self):
        X = np.array([[1.0], [-1.5], [2.0], [-2.5]])
        y = np.array([0, 1, 0, 1])
        m = KnnClassifier(k=4).fit(X, y)
        assert m.predict([[0.0]])[0] == 0   # 2-2 vote, nearest is +1 -> label 0
        assert m.predict([[-1.0]])[0] == 1  # nearest is -1.5 -> label 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KnnClassifier(k=0)
        with pytest.raises(ValueError, match="exceeds"):
            KnnClassifier(k=5).fit(np.zeros((3, 1)), np.array([0, 1, 0]))

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            KnnClassifier(k=1).fit(np.zeros((0, 2)), np.zeros(0))


class TestSvm:
    def test_two_point_dual_solution(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1, 1])
        m = SvmClassifier(kernel="linear", C=100.0).fit(X, y)
        assert np.allclose(m.alpha_, [0.5, 0.5], atol=1e-9)
        assert m.bias == pytest.approx(0.0, abs=1e-9)
        f = m.decision_function(X)
        assert np.allclose(f, [-1.0, 1.0], atol=1e-6)  # margin 2 around 0
        assert m.decision_function([[0.0]])[0] == pytest.approx(0.0, abs=1e-9)

    def test_xor_with_rbf_kernel(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1, -1, 1, 1])
        m = SvmClassifier(kernel="rbf", gamma=1.0, C=10.0).fit(X, y)
        assert (m.predict(X) == y).all()
        f = m.decision_function(X)
        assert (np.sign(f) == y).all()

    def test_kkt_conditions_on_noisy_data(self):
        rng = np.random.default_rng(17)
        X, y01 = two_blobs(rng, n=80, d=2, sep=2.0)
        y = np.where(y01 == 1, 1, -1)
        m = SvmClassifier(kernel="rbf", C=1.0).fit(X, y)
        assert np.all(m.alpha_ >= -1e-12)
        assert np.all(m.alpha_ <= m.C + 1e-12)
        assert abs(np.sum(m.alpha_ * np.where(y == 1, 1.0, -1.0))) < 1e-6
        assert m.kkt_violation() <= m.tol + 1e-9

    def test_determinism_without_seed(self):
        rng = np.random.default_rng(23)
        X, y = two_blobs(rng, n=60, d=3, sep=1.5)
        a = SvmClassifier().fit(X, y)
        b = SvmClassifier().fit(X, y)
        assert np.array_equal(a.alpha_, b.alpha_)
        assert a.bias == b.bias

    @pytest.mark.parametrize("kernel", ["linear", "poly", "sigmoid", "rbf"])
    def test_kernel_menu_separates_blobs(self, kernel):
        # standardized inputs, as the evaluation pipeline feeds this model
        X, y = two_blobs(np.random.default_rng(2), n=40, d=2, sep=8.0)
        X = (X - X.mean(0)) / X.std(0)
        m = SvmClassifier(kernel=kernel, C=10.0, gamma="scale").fit(X, y)
        assert (m.predict(X) == y).mean() == 1.0

    @pytest.mark.parametrize("kernel", ["linear", "rbf", "poly"])
    def test_dual_objective_matches_slsqp(self, kernel):
        from scipy.optimize import minimize

        X, y01 = two_blobs(np.random.default_rng(5), n=30, d=2, sep=1.0)
        y = np.where(y01 == 1, 1.0, -1.0)
        gamma, C = 0.5, 1.0
        K = {"linear": X @ X.T,
             "rbf": np.exp(-gamma * ((X[:, None] - X[None]) ** 2).sum(-1)),
             "poly": (gamma * X @ X.T + 1.0) ** 3}[kernel]
        Q = K * np.outer(y, y)

        def neg_dual(a):
            return 0.5 * a @ Q @ a - a.sum()

        ref = minimize(neg_dual, np.zeros(y.size), jac=lambda a: Q @ a - 1.0,
                       method="SLSQP", bounds=[(0.0, C)] * y.size,
                       constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
                       options={"ftol": 1e-12, "maxiter": 1000})
        assert ref.success
        m = SvmClassifier(kernel=kernel, C=C, gamma=gamma).fit(X, y01)
        assert -neg_dual(m.alpha_) == pytest.approx(-ref.fun, rel=1e-3)

    def test_sigmoid_nonpositive_curvature_meets_tolerance(self):
        # nearby positive points: K_ii + K_jj - 2 K_ij < 0 for every pair,
        # so every update takes the TAU branch
        X = np.linspace(1.0, 2.0, 12)[:, None]
        y = np.tile([-1, 1], 6)
        K = np.tanh(X @ X.T + 1.0)
        a = np.diag(K)[:, None] + np.diag(K)[None, :] - 2.0 * K
        assert (a[~np.eye(12, dtype=bool)] < 0).all()
        m = SvmClassifier(kernel="sigmoid", C=1.0, gamma=1.0).fit(X, y)
        assert m.n_sweeps_ > 0
        assert m.kkt_violation() <= m.tol

    def test_update_cap_raises_convergence_error(self, monkeypatch):
        from eegbench.classifiers import svm
        from eegbench.errors import ConvergenceError

        X, y = two_blobs(np.random.default_rng(17), n=80, d=2, sep=2.0)
        assert SvmClassifier().fit(X, y).n_sweeps_ > 3
        monkeypatch.setattr(svm, "MAX_UPDATES", 3)
        with pytest.raises(ConvergenceError) as err:
            SvmClassifier().fit(X, y)
        assert err.value.iterations == 3
        assert err.value.achieved > SvmClassifier().tol

    def test_every_runner_split_meets_tolerance(self, corpus_root, tmp_path, monkeypatch):
        from eegbench.config import build_config
        from eegbench.runner import run_experiment

        fitted = []
        fit = SvmClassifier.fit
        monkeypatch.setattr(SvmClassifier, "fit",
                            lambda self, X, y: fitted.append(fit(self, X, y)) or self)
        run_experiment(build_config({
            "corpus_root": str(corpus_root), "output_dir": str(tmp_path / "out"),
            "extractors": ["db4", "mfcc"], "models": ["svm"],
            "kfold": {"k": 3}, "holdout": {"n_repeats": 2}}))
        assert len(fitted) == 2 * 2 * (3 + 2)
        assert all(m.kkt_violation() <= m.tol for m in fitted)

    def test_requires_both_labels(self):
        with pytest.raises(ValueError, match="two labels"):
            SvmClassifier().fit(np.zeros((4, 2)), np.zeros(4))

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            SvmClassifier(kernel="laplace")


def _naive_cart(X, y, feats_order=None):
    """Brute-force CART oracle: exhaustive split search with plain loops."""
    X = np.asarray(X, float)
    y = np.asarray(y)

    def gini_counts(labels):
        n = len(labels)
        score = 0.0
        for c in np.unique(y):
            score += (np.sum(labels == c) / n) ** 2
        return score

    def grow(rows):
        labels = y[rows]
        if (labels == labels[0]).all():
            return ("leaf", labels[0])
        best = None
        n = len(rows)
        for f in range(X.shape[1]):
            vals = np.unique(X[rows, f])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = lo + (hi - lo) / 2
                left = rows[X[rows, f] <= thr]
                right = rows[X[rows, f] > thr]
                quality = (len(left) * gini_counts(y[left])
                           + len(right) * gini_counts(y[right])) / n
                if best is None or quality > best[0] + 1e-12:
                    best = (quality, f, thr, left, right)
        if best is None or best[0] <= gini_counts(labels) + 1e-12:
            vals, counts = np.unique(labels, return_counts=True)
            return ("leaf", vals[np.argmax(counts)])
        _, f, thr, left, right = best
        return ("node", f, thr, grow(left), grow(right))

    root = grow(np.arange(len(y)))

    def predict_one(node, x):
        while node[0] == "node":
            _, f, thr, l, r = node
            node = l if x[f] <= thr else r
        return node[1]

    return lambda Q: np.array([predict_one(root, q) for q in np.asarray(Q, float)])


def _preorder(tree, node=0):
    """A tree's splits and leaves depth first, free of how its nodes are numbered."""
    if tree.feature[node] == -1:
        return [("leaf", tree.value[node])]
    return ([(tree.feature[node], tree.threshold[node])]
            + _preorder(tree, tree.left[node]) + _preorder(tree, tree.right[node]))


def _forest_samples(seed, n_trees, n):
    """The bootstrap rows RandomForestClassifier(seed=seed) draws for each tree."""
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_trees)]
    return rngs, [rng.integers(0, n, size=n) for rng in rngs]


class TestForest:
    def test_pure_labels_all_leaves(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.ones(20, dtype=int)
        m = RandomForestClassifier(n_trees=5, seed=1).fit(X, y)
        assert all(t.n_nodes == 1 for t in m.trees_)
        assert (m.predict(X) == 1).all()

    def test_same_seed_identical_forest(self):
        rng = np.random.default_rng(1)
        X, y = two_blobs(rng, n=50, d=4, sep=1.0)
        q = rng.normal(size=(30, 4))
        a = RandomForestClassifier(n_trees=20, seed=7).fit(X, y)
        b = RandomForestClassifier(n_trees=20, seed=7).fit(X, y)
        assert np.array_equal(a.predict(q), b.predict(q))
        for ta, tb in zip(a.trees_, b.trees_):
            assert ta.feature == tb.feature
            assert ta.threshold == tb.threshold

    def test_single_tree_matches_naive_cart(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        tree = grow_gini_forest(X, y, np.arange(X.shape[0])[None])[0]
        oracle = _naive_cart(X, y)
        q = rng.normal(size=(200, 3))
        assert (tree.predict(X) == oracle(X)).all()
        assert (tree.predict(q) == oracle(q)).all()

    def test_separates_blobs(self):
        X, y = two_blobs(np.random.default_rng(4), n=60, d=3, sep=6.0)
        m = RandomForestClassifier(n_trees=25, seed=3).fit(X, y)
        assert (m.predict(X) == y).mean() == 1.0

    @pytest.mark.parametrize("n, d, n_classes, max_depth, ties", [
        (80, 1, 2, None, False),
        (80, 2, 2, None, False),
        (60, 2, 2, None, True),
        (70, 2, 2, 2, False),
        (90, 2, 3, None, True),
        (3, 1, 2, None, False),
        (2, 2, 2, None, True),
    ], ids=["d1", "d2", "tied_values", "max_depth", "three_classes", "tiny_n", "two_rows"])
    def test_level_wise_trees_equal_depth_first(self, n, d, n_classes, max_depth, ties):
        rng = np.random.default_rng(n + d)
        X = rng.normal(size=(n, d))
        if ties:
            X = np.round(X * 2.0) / 2.0
        y = rng.integers(0, n_classes, size=n)
        m = RandomForestClassifier(n_trees=30, max_depth=max_depth, seed=5).fit(X, y)
        _, samples = _forest_samples(5, 30, n)
        for tree, rows in zip(m.trees_, samples):
            ref = DecisionTree("gini", max_depth=max_depth).fit(X[rows], y[rows])
            assert _preorder(tree) == _preorder(ref)
            assert tree.n_nodes == ref.n_nodes

    def test_level_wise_batches_and_degenerate_samples(self, monkeypatch):
        import eegbench.classifiers.tree as tree_module

        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        samples = rng.integers(0, 40, size=(7, 40))
        samples[3] = np.flatnonzero(y == 0)[rng.integers(0, (y == 0).sum(), size=40)]
        # three trees to a batch, so the last batch is short
        monkeypatch.setattr(tree_module, "GROW_BLOCK", 3 * 40 * 2)
        trees = grow_gini_forest(X, y, samples)
        assert trees[3].n_nodes == 1 and trees[3].value == [0.0]
        for tree, rows in zip(trees, samples):
            assert _preorder(tree) == _preorder(DecisionTree("gini").fit(X[rows], y[rows]))
        # the only cut leaves both sides as mixed as the parent: no split
        X, y = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1])
        assert grow_gini_forest(X, y, [[0, 1, 2, 3]])[0].n_nodes == 1
        assert DecisionTree("gini").fit(X, y).n_nodes == 1

    def test_feature_draws_stay_depth_first(self):
        # sqrt(3) rounds up to 2 of 3 columns: every node draws from the tree's generator
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + X[:, 2] + 0.5 * rng.normal(size=60) > 0).astype(int)
        m = RandomForestClassifier(n_trees=10, seed=4).fit(X, y)
        rngs, samples = _forest_samples(4, 10, 60)
        for tree, tree_rng, rows in zip(m.trees_, rngs, samples):
            ref = DecisionTree("gini", max_features=2, rng=tree_rng).fit(X[rows], y[rows])
            assert (tree.feature, tree.threshold, tree.left) == (ref.feature, ref.threshold, ref.left)

    def test_level_wise_fit_memory_is_bounded(self):
        # all 100 trees of a 400 x 2 fit grown in one batch peak near 15 MB
        rng = np.random.default_rng(10)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + 0.5 * rng.normal(size=400) > 0).astype(int)
        tracemalloc.start()
        try:
            RandomForestClassifier(seed=1).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBoosting:
    def test_single_label_degenerates_gracefully(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        m = GradientBoostingClassifier(n_stages=3).fit(X, np.full(10, 4))
        assert (m.predict(X) == 4).all()

    def test_zero_learning_rate_predicts_prior_majority(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        y = np.array([0] * 40 + [1] * 10)
        m = GradientBoostingClassifier(n_stages=5, learning_rate=0.0).fit(X, y)
        assert (m.predict(rng.normal(size=(20, 2))) == 0).all()

    def test_training_loss_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 4))
        y = ((X[:, 0] + X[:, 1] ** 2 + 0.3 * rng.normal(size=100)) > 0.5).astype(int)
        m = GradientBoostingClassifier(n_stages=60, subsample=1.0, seed=0).fit(X, y)
        path = np.asarray(m.train_loss_path_)
        assert len(path) == 61
        assert np.all(np.diff(path) <= 1e-10)

    def test_same_seed_identical_with_subsampling(self):
        rng = np.random.default_rng(4)
        X, y = two_blobs(rng, n=60, d=3, sep=1.0)
        q = rng.normal(size=(25, 3))
        a = GradientBoostingClassifier(n_stages=20, subsample=0.6, seed=9).fit(X, y)
        b = GradientBoostingClassifier(n_stages=20, subsample=0.6, seed=9).fit(X, y)
        assert np.array_equal(a.predict(q), b.predict(q))

    def test_fits_nonlinear_boundary(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        m = GradientBoostingClassifier(n_stages=80).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    @pytest.mark.parametrize("subsample", [1.0, 0.6])
    def test_training_scores_equal_predicted_scores(self, subsample):
        # the scores each stage updates from its fit's leaves are the model's own
        from eegbench.classifiers.boosting import _log_loss, _sigmoid

        rng = np.random.default_rng(6)
        X = np.round(rng.normal(size=(90, 3)), 1)
        y = (X[:, 0] - X[:, 2] + 0.4 * rng.normal(size=90) > 0).astype(int)
        m = GradientBoostingClassifier(n_stages=15, subsample=subsample, seed=2).fit(X, y)
        assert m.train_loss_path_[-1] == _log_loss(y.astype(float), _sigmoid(m.decision_scores(X)))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=1.5)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_stages=0)


class TestDecisionTreeDirect:
    def test_regression_tree_recovers_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.43, 2.0, 5.0)
        t = DecisionTree("mse", max_depth=2).fit(X, y)
        assert np.abs(t.predict(X) - y).max() < 1e-12

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    def test_leaf_rows_are_the_rows_each_leaf_receives(self, criterion):
        rng = np.random.default_rng(7)
        X = np.round(rng.normal(size=(70, 2)), 1)
        t = (X[:, 0] > 0.2).astype(int) if criterion == "gini" else X[:, 1] ** 2
        tree = DecisionTree(criterion, max_depth=4).fit(X, t)
        leaf_of = tree.apply(X)
        assert sorted(leaf for leaf, _ in tree.leaf_rows_) == sorted(set(leaf_of.tolist()))
        for leaf, rows in tree.leaf_rows_:
            assert np.array_equal(rows, np.flatnonzero(leaf_of == leaf))

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            DecisionTree("entropy")


class TestUniformContract:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fit_predict_and_label_set(self, kind):
        rng = np.random.default_rng(100)
        X, y = two_blobs(rng, n=30, d=2, sep=3.0)
        y = np.where(y == 1, 5, 2)  # arbitrary label values
        model = make_model(kind, seed=1)
        model.fit(X, y)
        pred = model.predict(rng.normal(size=(15, 2)))
        assert set(np.unique(pred)) <= {2, 5}
        assert (model.predict(X) == y).mean() > 0.9

    def test_make_model_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_model("mlp")

    def test_make_model_applies_overrides(self):
        m = make_model("knn", {"k": 9})
        assert m.k == 9
        assert make_model("rf", seed=42).seed == 42

    def test_defaults_match_documented_values(self):
        assert DEFAULT_HYPERPARAMS["svm"]["C"] == 1.0
        assert DEFAULT_HYPERPARAMS["rf"]["n_trees"] == 100
        assert DEFAULT_HYPERPARAMS["gb"]["learning_rate"] == 0.1
        assert DEFAULT_HYPERPARAMS["knn"]["k"] == 5
