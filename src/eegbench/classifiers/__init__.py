"""Seven from-scratch binary classifiers behind one fit/predict contract.

Every model exposes ``fit(X, y) -> self``, ``predict(X) -> labels`` and a
``classes_`` attribute after fitting; predictions are always drawn from
the training label set. The forest takes a seed, the evaluation's per
split and model; the rest need none. The models of a split share its
train-fitted PCA inputs, standardized for ``STANDARDIZED_KINDS``, and
its stratified training side with both labels (boosting, the SVM, LDA,
QDA and naive Bayes reject fewer; the forest and kNN fit one as it is;
the forest's trees are two-class).

``make_model`` builds each model at the paper's one setting, the
constructor defaults: LDA and QDA with ridge 1e-6, naive Bayes with a
variance floor of 1e-9 of the largest feature variance, kNN with k = 5,
an rbf SVM with C = 1 and gamma = 1 / (d var X), a random forest of 100
Gini trees drawing ceil(sqrt(d)) candidate features per node, and 100
boosting stages of depth-3 regression trees at learning rate 0.1. The
two tree models share ``tree``'s node lists and its one walk,
``predict_trees``, not a grower: the forest grows all its Gini trees in
one lockstep pass, and boosting grows each stage's regression tree
through one table of its matrix's split paths. A fitted tree keeps its
nodes only, not the training rows that reached them.
"""

from .boosting import GradientBoostingClassifier
from .discriminant import LdaClassifier, QdaClassifier
from .forest import RandomForestClassifier
from .naive_bayes import GaussianNaiveBayes
from .neighbors import KnnClassifier
from .svm import SvmClassifier

MODEL_KINDS = ("lda", "qda", "knn", "nb", "svm", "rf", "gb")

# distance / kernel methods get train-fold standardization upstream
STANDARDIZED_KINDS = frozenset({"knn", "svm"})
SEEDED_KINDS = frozenset({"rf"})

_FACTORIES = {
    "lda": LdaClassifier,
    "qda": QdaClassifier,
    "nb": GaussianNaiveBayes,
    "knn": KnnClassifier,
    "svm": SvmClassifier,
    "rf": RandomForestClassifier,
    "gb": GradientBoostingClassifier,
}


def make_model(kind: str, seed: int | None = None):
    """Instantiate one classifier by kind at its default settings."""
    if kind not in _FACTORIES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind in SEEDED_KINDS:
        return _FACTORIES[kind](seed=0 if seed is None else seed)
    return _FACTORIES[kind]()


__all__ = [
    "MODEL_KINDS", "STANDARDIZED_KINDS", "SEEDED_KINDS",
    "make_model", "LdaClassifier", "QdaClassifier", "GaussianNaiveBayes",
    "KnnClassifier", "SvmClassifier", "RandomForestClassifier",
    "GradientBoostingClassifier",
]
