import math
import tracemalloc

import numpy as np
import pytest

from eegbench.classifiers import (
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
from eegbench.classifiers.boosting import _sigmoid
from eegbench.classifiers.tree import DecisionTree, apply_trees, grow_forest, predict_trees


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

    def test_scores_match_triangular_solve(self):
        # an imbalanced hold-out split of wfe after PCA: 320 + 80 training
        # rows of 185 decaying components, so the positive class's covariance
        # is singular but for the ridge
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(17)
        d, scales = 185, 0.97 ** np.arange(185)
        y = np.repeat([0, 1], [320, 80])
        X = rng.normal(size=(400, d)) * scales + 0.3 * y[:, None]
        probe = rng.normal(size=(100, d)) * scales + 0.3 * np.repeat([0, 1], 50)[:, None]
        m = QdaClassifier(ridge=1e-6).fit(X, y)
        ref = np.empty((100, 2))
        for k in (0, 1):
            rows = X[y == k]
            mu = rows.mean(axis=0)
            cov = (rows - mu).T @ (rows - mu) / len(rows)
            chol = np.linalg.cholesky(cov + 1e-6 * np.trace(cov) / d * np.eye(d))
            z = solve_triangular(chol, (probe - mu).T, lower=True)
            ref[:, k] = (-np.sum(np.log(np.diag(chol))) - 0.5 * np.sum(z * z, axis=0)
                         + math.log(len(rows) / len(X)))
        np.testing.assert_allclose(m.decision_scores(probe), ref, rtol=1e-12, atol=0)
        assert (m.predict(probe) == ref.argmax(axis=1)).all()


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
        # var X = 1, so gamma = 1 and K_12 = exp(-4); the dual gives
        # a_1 = a_2 = 1 / (1 - K_12), with both margins at exactly 1
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1, 1])
        m = SvmClassifier(C=100.0).fit(X, y)
        assert m.gamma_ == 1.0
        assert np.allclose(m.alpha_, 1.0 / (1.0 - math.exp(-4.0)), atol=1e-9)
        assert m.bias == pytest.approx(0.0, abs=1e-9)
        f = m.decision_function(X)
        assert np.allclose(f, [-1.0, 1.0], atol=1e-6)  # margin 2 around 0
        assert m.decision_function([[0.0]])[0] == pytest.approx(0.0, abs=1e-9)

    def test_xor_with_rbf_kernel(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1, -1, 1, 1])
        m = SvmClassifier(C=10.0).fit(X, y)
        assert (m.predict(X) == y).all()
        f = m.decision_function(X)
        assert (np.sign(f) == y).all()

    def test_kkt_conditions_on_noisy_data(self):
        rng = np.random.default_rng(17)
        X, y01 = two_blobs(rng, n=80, d=2, sep=2.0)
        y = np.where(y01 == 1, 1, -1)
        m = SvmClassifier(C=1.0).fit(X, y)
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

    def test_separates_standardized_blobs(self):
        # standardized inputs, as the evaluation pipeline feeds this model
        X, y = two_blobs(np.random.default_rng(2), n=40, d=2, sep=8.0)
        X = (X - X.mean(0)) / X.std(0)
        m = SvmClassifier(C=10.0).fit(X, y)
        assert (m.predict(X) == y).mean() == 1.0

    def test_dual_objective_matches_slsqp(self):
        from scipy.optimize import minimize

        X, y01 = two_blobs(np.random.default_rng(5), n=30, d=2, sep=1.0)
        y = np.where(y01 == 1, 1.0, -1.0)
        gamma, C = 1.0 / (X.shape[1] * X.var()), 1.0
        K = np.exp(-gamma * ((X[:, None] - X[None]) ** 2).sum(-1))
        Q = K * np.outer(y, y)

        def neg_dual(a):
            return 0.5 * a @ Q @ a - a.sum()

        ref = minimize(neg_dual, np.zeros(y.size), jac=lambda a: Q @ a - 1.0,
                       method="SLSQP", bounds=[(0.0, C)] * y.size,
                       constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
                       options={"ftol": 1e-12, "maxiter": 1000})
        assert ref.success
        m = SvmClassifier(C=C).fit(X, y01)
        assert m.gamma_ == gamma
        assert -neg_dual(m.alpha_) == pytest.approx(-ref.fun, rel=1e-3)

    def test_identical_rows_of_opposite_labels_take_tau_branch(self):
        from eegbench.classifiers.svm import _kernel_matrix

        # rows 0 and 1 are equal with opposite labels: a = K_00 + K_11 - 2 K_01
        # is 0, TAU stands in for it, and the pair's step runs to the box
        X, y = two_blobs(np.random.default_rng(12), n=20, d=2, sep=2.0)
        X[1], y[:2] = X[0], [0, 1]
        K = _kernel_matrix(X, X, 1.0 / (X.shape[1] * X.var()))
        assert K[0, 0] + K[1, 1] - 2.0 * K[0, 1] == 0.0
        m = SvmClassifier(C=1.0).fit(X, y)
        assert m.n_sweeps_ > 0
        assert m.alpha_[0] == m.alpha_[1] == m.C
        assert m.kkt_violation() <= m.tol

    def test_constant_features_take_gamma_one_over_d(self):
        X = np.ones((6, 3))
        m = SvmClassifier().fit(X, np.tile([0, 1], 3))
        assert m.gamma_ == 1.0 / 3.0
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


def _forest_samples(seed, n_trees, n):
    """The bootstrap rows RandomForestClassifier(seed=seed) draws for each tree,
    and each tree's generator in the state it leaves them."""
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_trees)]
    return rngs, [rng.integers(0, n, size=n) for rng in rngs]


def _splits(tree):
    """A tree's node lists, numbered in preorder by both growers."""
    return tree.feature, tree.threshold, tree.left, tree.right, tree.value


def _one_tree(X, y, max_features=None, rng=None):
    """The forest grower's tree on all rows of ``X`` in order."""
    m = X.shape[1] if max_features is None else max_features
    return grow_forest(X, y, np.arange(X.shape[0])[None], m, [rng])[0]


class TestForest:
    def test_pure_labels_all_leaves(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.ones(20, dtype=int)
        m = RandomForestClassifier(n_trees=5, seed=1).fit(X, y)
        assert all(t.n_nodes == 1 for t in m.trees_)
        assert (m.predict(X) == 1).all()

    def test_more_than_two_labels_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(ValueError, match="two labels"):
            RandomForestClassifier(n_trees=3).fit(X, np.arange(30) % 3)

    def test_tied_counts_go_to_the_first_label(self):
        # the only cut leaves both sides as mixed as the parent: one leaf, counts 2 and 2
        X, y = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([5, 2, 5, 2])
        classes, encoded = np.unique(y, return_inverse=True)
        tree = _one_tree(X, encoded)
        assert tree.n_nodes == 1 and classes[int(tree.value[0])] == 2
        # two trees, one vote each way
        m = RandomForestClassifier(n_trees=2).fit(X, y)
        m.trees_ = [_one_tree(X, np.full(4, label)) for label in (1, 0)]
        assert [t.value for t in m.trees_] == [[1.0], [0.0]]
        assert (m.predict(X) == 2).all()

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
        tree = _one_tree(X, y)
        oracle = _naive_cart(X, y)
        q = rng.normal(size=(200, 3))
        assert (predict_trees([tree], X)[0] == oracle(X)).all()
        assert (predict_trees([tree], q)[0] == oracle(q)).all()

    def test_separates_blobs(self):
        X, y = two_blobs(np.random.default_rng(4), n=60, d=3, sep=6.0)
        m = RandomForestClassifier(n_trees=25, seed=3).fit(X, y)
        assert (m.predict(X) == y).mean() == 1.0

    @pytest.mark.parametrize("n, d, ties", [
        (80, 1, False),
        (80, 2, False),
        (60, 2, True),
        (90, 2, True),
        (3, 1, False),
        (2, 2, True),
    ], ids=["d1", "d2", "tied_values", "tied_values_n90", "tiny_n", "two_rows"])
    def test_level_wise_trees_equal_depth_first(self, n, d, ties):
        # forests that draw no feature (d <= 2), which a level-by-level
        # grower once grew: each tree equals the per-node sort's, node for node
        rng = np.random.default_rng(n + d)
        X = rng.normal(size=(n, d))
        if ties:
            X = np.round(X * 2.0) / 2.0
        y = rng.integers(0, 2, size=n)
        m = RandomForestClassifier(n_trees=30, seed=5).fit(X, y)
        _, samples = _forest_samples(5, 30, n)
        for tree, rows in zip(m.trees_, samples):
            assert _splits(tree) == _splits(ReferenceTree("gini").fit(X[rows], y[rows]))

    def test_level_wise_batches_and_degenerate_samples(self, monkeypatch):
        import eegbench.classifiers.tree as tree_module

        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        samples = rng.integers(0, 40, size=(7, 40))
        samples[3] = np.flatnonzero(y == 0)[rng.integers(0, (y == 0).sum(), size=40)]
        # three roots to a step, so the trees start three steps apart, and
        # later a single node larger than the block takes a step alone
        monkeypatch.setattr(tree_module, "FOREST_BLOCK", 3 * 40 * 2)
        trees = grow_forest(X, y, samples, 2)
        assert trees[3].n_nodes == 1 and trees[3].value == [0.0]
        for tree, rows in zip(trees, samples):
            assert _splits(tree) == _splits(ReferenceTree("gini").fit(X[rows], y[rows]))
        monkeypatch.setattr(tree_module, "FOREST_BLOCK", 1)
        assert [_splits(t) for t in grow_forest(X, y, samples, 2)] == [_splits(t) for t in trees]
        # the only cut leaves both sides as mixed as the parent: no split
        X, y = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1])
        assert _one_tree(X, y).n_nodes == 1
        assert len(ReferenceTree("gini").fit(X, y).feature) == 1

    def test_feature_draws_stay_depth_first(self):
        # sqrt(3) rounds up to 2 of 3 columns: every node draws from the tree's generator
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + X[:, 2] + 0.5 * rng.normal(size=60) > 0).astype(int)
        m = RandomForestClassifier(n_trees=10, seed=4).fit(X, y)
        rngs, samples = _forest_samples(4, 10, 60)
        for tree, tree_rng, rows in zip(m.trees_, rngs, samples):
            ref = ReferenceTree("gini", max_features=2, rng=tree_rng).fit(X[rows], y[rows])
            assert _splits(tree) == _splits(ref)

    @pytest.mark.parametrize("d", [1, 2, 3, 200])
    def test_trees_equal_reference_grower(self, d):
        # heavy ties, a constant column, bootstrap rows drawn from 25 of 60
        # (so most rows repeat), and one tree on a single label
        rng = np.random.default_rng(40 + d)
        X = np.round(rng.normal(size=(60, d)) * 2.0) / 2.0
        if d > 1:
            X[:, -1] = 3.0
        y = (X[:, 0] + 0.7 * rng.normal(size=60) > 0).astype(int)
        samples = rng.choice(25, size=(12, 60))
        samples[5] = np.flatnonzero(y == 1)[:1].repeat(60)
        m = math.ceil(math.sqrt(d))
        trees = grow_forest(X, y, samples, m, [np.random.default_rng(b) for b in range(12)])
        assert trees[5].n_nodes == 1 and trees[5].value == [1.0]
        assert sum(t.n_nodes for t in trees) > 12 * 5
        for b, (tree, rows) in enumerate(zip(trees, samples)):
            ref = ReferenceTree("gini", max_features=m, rng=np.random.default_rng(b))
            assert _splits(tree) == _splits(ref.fit(X[rows], y[rows]))

    def test_level_wise_fit_memory_is_bounded(self):
        # FOREST_BLOCK bounds the entries a step scores: a 100-tree fit that
        # grew all its roots in one step would peak near 8 MB at 400 x 2
        # and 45 MB at 450 x 200, where every node draws 15 columns
        rng = np.random.default_rng(10)
        for n, d in ((400, 2), (450, 200)):
            X = rng.normal(size=(n, d))
            y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
            tracemalloc.start()
            try:
                RandomForestClassifier(seed=1).fit(X, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6


class TestBoosting:
    def test_requires_both_labels(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        with pytest.raises(ValueError, match="two labels"):
            GradientBoostingClassifier(n_stages=3).fit(X, np.full(10, 4))

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
        m = GradientBoostingClassifier(n_stages=60).fit(X, y)

        def log_loss(scores):
            p = _sigmoid(scores)
            return -np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p))

        # the training log loss of every prefix of the stages, the empty one first
        scores = np.full(X.shape[0], m._f0)
        path = [log_loss(scores)]
        for values in m.learning_rate * predict_trees(m.trees_, X):
            scores += values
            path.append(log_loss(scores))
        assert len(path) == 61
        assert np.all(np.diff(path) <= 1e-10)

    def test_fits_nonlinear_boundary(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        m = GradientBoostingClassifier(n_stages=80).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_sigmoid_from_one_exp_equals_two_exp_form(self):
        def two_exps(z):                               # the form _sigmoid replaced
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        z = np.concatenate([np.random.default_rng(9).normal(scale=8.0, size=2000),
                            [0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 710.0, -710.0,
                             746.0, -746.0, 1e308, -1e308, np.inf, -np.inf]])
        assert np.array_equal(_sigmoid(z).view(np.int64), two_exps(z).view(np.int64))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=1.5)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_stages=0)


class TestDecisionTreeDirect:
    def test_regression_tree_recovers_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.43, 2.0, 5.0)
        t = DecisionTree(max_depth=2).fit(X, y)
        assert np.abs(predict_trees([t], X)[0] - y).max() < 1e-12

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    def test_leaf_rows_are_the_rows_each_leaf_receives(self, criterion):
        rng = np.random.default_rng(7)
        X = np.round(rng.normal(size=(70, 2)), 1)
        if criterion == "gini":
            # a forest tree keeps no rows: each leaf's value is the class
            # vote of the training rows that reach it, class 0 on a tie
            t = (X[:, 0] + 0.5 * rng.normal(size=70) > 0.2).astype(int)
            tree = _one_tree(X, t)
            leaf_of = apply_trees([tree], X)[0]
            assert len(set(leaf_of.tolist())) > 3
            for leaf in set(leaf_of.tolist()):
                votes = t[leaf_of == leaf]
                assert tree.value[leaf] == float(2 * votes.sum() > votes.size)
            return
        tree = DecisionTree(max_depth=4).fit(X, X[:, 1] ** 2)
        leaf_of = apply_trees([tree], X)[0]
        assert sorted(leaf for leaf, _ in tree.leaf_rows_) == sorted(set(leaf_of.tolist()))
        for leaf, rows in tree.leaf_rows_:
            assert np.array_equal(rows, np.flatnonzero(leaf_of == leaf))


class ReferenceTree:
    """CART grown with a stable argsort at every node, walked with a Python stack.

    A copy of the grower and the walk that presorted growth, the lockstep
    forest grower and the flat walk replaced, kept here as the reference
    they must equal node for node.
    """

    def __init__(self, criterion, max_depth=None, max_features=None, rng=None):
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.rng = rng
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        self.n_classes = 0

    def fit(self, X, targets):
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets)
        if self.criterion == "gini":
            t = t.astype(np.int64)
            self.n_classes = int(t.max()) + 1 if t.size else 0
        else:
            t = t.astype(float)
        self.leaf_rows_ = []
        self._grow(X, t, np.arange(X.shape[0]), depth=0)
        return self

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf(self, node, sub_t, idx):
        if self.criterion == "gini":
            self.value[node] = int(np.argmax(np.bincount(sub_t, minlength=self.n_classes)))
        else:
            self.value[node] = float(sub_t.mean())
        self.leaf_rows_.append((node, idx))
        return node

    def _grow(self, X, t, idx, depth):
        node = self._new_node()
        sub_t = t[idx]
        if self.max_depth is not None and depth >= self.max_depth:
            return self._leaf(node, sub_t, idx)
        pure = (sub_t == sub_t[0]).all() if self.criterion == "gini" else sub_t.var() <= 1e-14
        split = None if pure else self._best_split(X, sub_t, idx)
        if split is None:
            return self._leaf(node, sub_t, idx)
        feat, thr = split
        go_left = X[idx, feat] <= thr
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(X, t, idx[go_left], depth + 1)
        self.right[node] = self._grow(X, t, idx[~go_left], depth + 1)
        return node

    def _best_split(self, X, sub_t, idx):
        d = X.shape[1]
        if self.max_features is None or self.max_features >= d:
            feats = np.arange(d)
        else:
            feats = np.sort(self.rng.choice(d, size=self.max_features, replace=False))
        cols = X[np.ix_(idx, feats)]
        n = idx.size
        order = np.argsort(cols, axis=0, kind="stable")
        sorted_x = np.take_along_axis(cols, order, axis=0)
        valid = sorted_x[:-1] < sorted_x[1:]
        if not valid.any():
            return None
        left_n = np.arange(1, n, dtype=float)[:, None]
        right_n = n - left_n
        if self.criterion == "gini":
            onehot = sub_t[order][:, :, None] == np.arange(self.n_classes)[None, None, :]
            cum = np.cumsum(onehot, axis=0)[:-1].astype(float)
            score = (cum ** 2).sum(axis=2) / left_n
            score += ((cum[-1:] + onehot[-1][None] - cum) ** 2).sum(axis=2) / right_n
            parent = float((np.bincount(sub_t, minlength=self.n_classes).astype(float) ** 2).sum() / n)
        else:
            sorted_y = sub_t[order]
            cum = np.cumsum(sorted_y, axis=0)[:-1]
            total = cum[-1] + sorted_y[-1]
            score = cum ** 2 / left_n + (total[None, :] - cum) ** 2 / right_n
            parent = float((sub_t.sum() ** 2) / n)
        score = np.where(valid, score, -np.inf)
        flat = int(np.argmax(score))
        if score.ravel()[flat] <= parent + 1e-10 * max(1.0, parent):
            return None
        pos, fcol = np.unravel_index(flat, score.shape)
        lo, hi = sorted_x[pos, fcol], sorted_x[pos + 1, fcol]
        thr = lo + (hi - lo) / 2.0
        if thr >= hi:
            thr = lo
        return int(feats[fcol]), float(thr)


def _reference_apply(tree, X):
    """Leaf id of every row, walking one tree's nodes with a Python stack."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if tree.feature[node] == -1:
            out[rows] = node
            continue
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        stack.append((tree.left[node], rows[go_left]))
        stack.append((tree.right[node], rows[~go_left]))
    return out


def _reference_boosting(X, y, n_stages, learning_rate=0.1):
    """Boosting's fit loop driven by ReferenceTree, which argsorts every node's rows
    afresh and keeps no table: its trees and final training scores."""
    from eegbench.classifiers.boosting import MAX_DEPTH

    y01 = (y == np.unique(y)[1]).astype(float)
    p0 = float(y01.mean())
    scores = np.full(X.shape[0], float(np.log(p0 / (1.0 - p0))))
    trees = []
    for _ in range(n_stages):
        prob = _sigmoid(scores)
        residual = y01 - prob
        tree = ReferenceTree("mse", max_depth=MAX_DEPTH).fit(X, residual)
        hess = prob * (1.0 - prob)
        leaf_of = np.empty(X.shape[0], dtype=np.int64)
        for leaf, idx in tree.leaf_rows_:
            tree.value[leaf] = float(residual[idx].sum() / (hess[idx].sum() + 1e-16))
            leaf_of[idx] = leaf
        scores += learning_rate * np.asarray(tree.value)[leaf_of]
        trees.append(tree)
    return trees, scores


def _boosting_case(case, rng):
    """(X, y, stages) of one input shape boosting must grow the reference's trees on.

    "d1" to "d3": rounded values, so columns tie, and a block of equal
    rows, far out and labelled against the rule, which a node can hold
    alone: a pure node. "wfe": 400 x 190 principal-axis scores, variance
    falling along the columns, with one positive in five.
    """
    if case == "wfe":
        X = rng.normal(size=(400, 190)) * np.geomspace(30.0, 0.3, 190)
        y = (X[:, 0] / 30 + X[:, 1] / 25 + 0.5 * rng.normal(size=400) > 0.9).astype(int)
        return X, y, 30
    d = int(case[1:])
    X = np.round(rng.normal(size=(150, d)), 1)
    y = (X[:, 0] * X[:, -1] + 0.3 * rng.normal(size=150) > 0).astype(int)
    X[:12], y[:12] = 9.0, 0                            # the pure block
    return X, y, 100


def _split_paths(tree):
    """Each split node's path from the root: its ancestors' (feature,
    threshold, side) steps, then its own (feature, threshold)."""
    paths, stack = [], [(0, ())]
    while stack:
        node, path = stack.pop()
        if tree.feature[node] == -1:
            continue
        cut = (tree.feature[node], tree.threshold[node])
        paths.append(path + (cut,))
        stack += [(tree.left[node], path + (cut + (0,),)), (tree.right[node], path + (cut + (1,),))]
    return paths


def _leaf_depths(tree):
    """{leaf: depth} of one tree."""
    depths, stack = {}, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        if tree.feature[node] == -1:
            depths[node] = depth
        else:
            stack += [(tree.left[node], depth + 1), (tree.right[node], depth + 1)]
    return depths


def _nodes(tree):
    """Every node field and each leaf's rows, for node-for-node comparison."""
    return (tree.feature, tree.threshold, tree.left, tree.right, tree.value,
            [(leaf, rows.tolist()) for leaf, rows in tree.leaf_rows_])


def _tree_case(case, rng):
    """(X, max_depth) of one shape of input the growers must agree on."""
    if case == "depth_cap":
        return rng.normal(size=(80, 2)), 2
    if case == "tied":
        return np.round(rng.normal(size=(70, 3)) * 2.0) / 2.0, None
    if case == "constant_columns":
        X = rng.normal(size=(50, 3))
        X[:, 0], X[:, 2] = 1.0, -2.0
        return X, None
    if case == "all_constant":
        return np.ones((30, 2)), None
    if case == "two_rows":
        return rng.normal(size=(2, 2)), None
    d = int(case[1:])                                  # "d1", "d2", ...
    return rng.normal(size=(40 if d > 3 else 80, d)), None


class TestPresortedGrowth:
    CASES = ["d1", "d2", "d3", "d200", "tied", "constant_columns", "all_constant",
             "depth_cap", "two_rows"]

    @pytest.mark.parametrize("criterion", ["mse", "gini"])
    @pytest.mark.parametrize("case", CASES)
    def test_trees_equal_per_node_sort(self, criterion, case):
        rng = np.random.default_rng(len(case) + (criterion == "gini"))
        X, depth = _tree_case(case, rng)
        t = (rng.normal(size=X.shape[0]) if criterion == "mse"
             else rng.integers(0, 2, size=X.shape[0]))
        if case == "two_rows" and criterion == "gini":
            t = np.array([0, 1])
        if criterion == "gini":
            # forest trees grow fully: no depth cap
            assert _splits(_one_tree(X, t)) == _splits(ReferenceTree("gini").fit(X, t))
            return
        tree = DecisionTree(max_depth=depth).fit(X, t)
        assert _nodes(tree) == _nodes(ReferenceTree("mse", max_depth=depth).fit(X, t))

    @pytest.mark.parametrize("criterion", ["gini"])
    def test_feature_drawing_trees_keep_per_node_sort(self, criterion):
        rng = np.random.default_rng(27)
        X = np.round(rng.normal(size=(90, 5)), 1)
        t = rng.integers(0, 2, size=90)
        tree = _one_tree(X, t, 2, np.random.default_rng(4))
        assert tree.n_nodes > 9
        ref = ReferenceTree(criterion, max_features=2, rng=np.random.default_rng(4))
        assert _splits(tree) == _splits(ref.fit(X, t))

    @pytest.mark.parametrize("criterion", ["mse", "gini"])
    def test_node_without_gain_stays_a_leaf(self, criterion):
        # the only cut leaves both sides as mixed as the parent
        X, t = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1])
        ref = ReferenceTree(criterion).fit(X, t)
        if criterion == "gini":
            tree = _one_tree(X, t)
            assert tree.n_nodes == 1 and _splits(tree) == _splits(ref)
            return
        tree = DecisionTree().fit(X, t)
        assert tree.n_nodes == 1
        assert _nodes(tree) == _nodes(ref)

    @staticmethod
    def _assert_boosting_equals_reference(X, y, stages, rng):
        """Boosting's trees equal the reference's node for node, and its scores bit for bit."""
        m = GradientBoostingClassifier(n_stages=stages).fit(X, y)
        trees, train_scores = _reference_boosting(X, y, stages)
        assert [_nodes(t) for t in m.trees_] == [_nodes(t) for t in trees]
        assert np.array_equal(m.decision_scores(X), train_scores)
        q = rng.normal(size=(40, X.shape[1]))
        scores = np.full(40, m._f0)
        for tree in trees:
            scores += m.learning_rate * np.asarray(tree.value)[_reference_apply(tree, q)]
        assert np.array_equal(m.decision_scores(q), scores)
        return m

    def test_boosting_equals_reference_grower(self):
        rng = np.random.default_rng(21)
        X = np.round(rng.normal(size=(150, 3)), 1)
        y = (X[:, 0] * X[:, 1] + 0.3 * rng.normal(size=150) > 0).astype(int)
        self._assert_boosting_equals_reference(X, y, 100, rng)

    @pytest.mark.parametrize("case", ["d1", "d2", "d3", "wfe"])
    def test_boosting_equals_reference_on_ties_pure_nodes_and_wide_scores(self, case):
        from eegbench.classifiers.boosting import MAX_DEPTH

        rng = np.random.default_rng(21)
        X, y, stages = _boosting_case(case, rng)
        m = self._assert_boosting_equals_reference(X, y, stages, rng)
        if case != "wfe":
            # some stage isolates the pure block above the depth cap
            assert any(depth < MAX_DEPTH and set(rows.tolist()) <= set(range(12))
                       for t in m.trees_ for leaf, depth in _leaf_depths(t).items()
                       for node, rows in t.leaf_rows_ if node == leaf)

    @pytest.mark.parametrize("budget", [None, 4096])
    def test_stages_read_repeated_split_paths_from_the_table(self, monkeypatch, budget):
        # every split partitions its node once, while the table has room;
        # once it is full, the trees still equal the reference
        import eegbench.classifiers.boosting as boosting_module
        import eegbench.classifiers.tree as tree_module

        calls, tables = [], []
        partition = tree_module._partition
        monkeypatch.setattr(tree_module, "_partition",
                            lambda *args: calls.append(1) or partition(*args))

        class KeptPaths(tree_module.SplitPaths):
            def __init__(self, X):
                super().__init__(X)
                tables.append(self)

        monkeypatch.setattr(boosting_module, "SplitPaths", KeptPaths)
        if budget is not None:
            monkeypatch.setattr(tree_module, "PATH_TABLE_BYTES", budget)
        X, y, stages = _boosting_case("d2", np.random.default_rng(23))
        m = GradientBoostingClassifier(n_stages=stages).fit(X, y)
        trees, _ = _reference_boosting(X, y, stages)
        assert [_nodes(t) for t in m.trees_] == [_nodes(t) for t in trees]
        splits = [p for t in trees for p in _split_paths(t)]
        distinct = len(set(splits))
        assert tables[0].nbytes <= tree_module.PATH_TABLE_BYTES
        if budget is None:
            assert len(calls) == distinct < len(splits) / 2
        else:
            assert distinct < len(calls) < len(splits)

    def test_boosting_table_memory_is_bounded(self):
        from eegbench.classifiers.tree import PATH_TABLE_BYTES

        rng = np.random.default_rng(25)
        X = rng.normal(size=(400, 188)) * np.geomspace(30.0, 0.3, 188)
        y = (X[:, 0] / 30 + 0.5 * rng.normal(size=400) > 0.9).astype(int)
        tracemalloc.start()
        try:
            GradientBoostingClassifier().fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a fit that partitions every split afresh, keeping no table, peaks
        # at 9.12 MB here; one with an unbounded table at about 30 MB
        assert peak <= 9.2e6 + PATH_TABLE_BYTES

    def test_boosting_sorts_once_per_fit(self, monkeypatch):
        import eegbench.classifiers.tree as tree_module

        calls = []
        argsort = np.argsort
        monkeypatch.setattr(tree_module.np, "argsort",
                            lambda *args, **kwargs: calls.append(1) or argsort(*args, **kwargs))
        rng = np.random.default_rng(22)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(int)
        GradientBoostingClassifier(n_stages=20).fit(X, y)
        assert len(calls) == 1


class TestFlatWalk:
    @staticmethod
    def _assert_walk_equals_reference(trees, q):
        # rows sitting exactly on split thresholds, which go left
        thresholds = np.unique(np.concatenate([t.threshold for t in trees]))[:25]
        q = np.vstack([q, np.repeat(thresholds[:, None], q.shape[1], axis=1)])
        expected = np.array([_reference_apply(t, q) for t in trees]).reshape(len(trees), -1)
        assert np.array_equal(apply_trees(trees, q), expected)
        for tree, leaves in zip(trees, expected):
            assert np.array_equal(apply_trees([tree], q)[0], leaves)

    @pytest.mark.parametrize("d", [2, 3], ids=["level_wise", "feature_draws"])
    def test_forest_leaves_and_votes(self, d):
        rng = np.random.default_rng(23 + d)
        X = rng.normal(size=(80, d))
        y = (X.sum(axis=1) + 0.5 * rng.normal(size=80) > 0).astype(int)
        m = RandomForestClassifier(n_trees=30, seed=2).fit(X, y)
        q = rng.normal(size=(50, d))
        self._assert_walk_equals_reference(m.trees_, q)
        votes = np.zeros((50, 2), dtype=np.int64)
        for tree in m.trees_:
            votes[np.arange(50), np.asarray(tree.value, dtype=np.int64)[_reference_apply(tree, q)]] += 1
        assert np.array_equal(m.predict(q), m.classes_[np.argmax(votes, axis=1)])

    def test_boosting_trees(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(90, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        m = GradientBoostingClassifier(n_stages=25).fit(X, y)
        self._assert_walk_equals_reference(m.trees_, rng.normal(size=(60, 2)))

    def test_one_node_tree_and_no_rows(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(20, 2))
        lone = _one_tree(X, np.ones(20, dtype=int))
        deep = DecisionTree().fit(X, rng.normal(size=20))
        assert lone.n_nodes == 1
        self._assert_walk_equals_reference([lone, deep], rng.normal(size=(15, 2)))
        self._assert_walk_equals_reference([lone, deep], np.zeros((0, 2)))
        assert apply_trees([lone, deep], np.zeros((0, 2))).shape == (2, 0)


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
        assert make_model("rf", seed=42).seed == 42
        assert make_model("rf").seed == 0

    def test_defaults_match_documented_values(self):
        from eegbench.classifiers.boosting import MAX_DEPTH

        assert make_model("lda").ridge == make_model("qda").ridge == 1e-6
        assert make_model("nb").var_floor_ratio == 1e-9
        assert make_model("knn").k == 5
        assert make_model("svm").C == 1.0
        assert make_model("rf").n_trees == 100
        gb = make_model("gb")
        assert (gb.n_stages, gb.learning_rate, MAX_DEPTH) == (100, 0.1, 3)
