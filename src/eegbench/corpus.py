"""Load Bonn-layout EEG recordings and assemble the two labeled datasets.

The one accepted corpus is the Bonn one: five directories named Z, O, N,
F, S, each holding exactly 100 ASCII files of exactly 4 097 integer
samples, one per line, recorded at 173.61 Hz. ``load_corpus`` enforces
that shape and raises ``DataError`` on any other, so everything after it
may assume it. Set S is the seizure class; everything else is
non-seizure.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

SET_TAGS = ("Z", "O", "N", "F", "S")
NEGATIVE_TAGS = ("Z", "O", "N", "F")
SAMPLE_RATE_HZ = 173.61
EXPECTED_SAMPLES = 4097
SIGNALS_PER_SET = 100
SCHEMES = ("imbalanced", "balanced")
BALANCED_PER_NEGATIVE_SET = 25


@dataclass(frozen=True)
class EegSignal:
    """One single-channel recording with its provenance."""

    samples: np.ndarray
    set_tag: str
    source_id: str

    def __post_init__(self):
        if self.set_tag not in SET_TAGS:
            raise ValueError(f"set tag {self.set_tag!r} not one of {SET_TAGS}")

    @property
    def is_seizure(self) -> bool:
        return self.set_tag == "S"


def _one_integer(text: str) -> bool:
    try:
        return np.loadtxt([text], dtype=np.int64, comments=None, ndmin=1).shape == (1,)
    except ValueError:
        return False


def _read_integers(path: Path) -> np.ndarray:
    """The integer on each non-empty line, parsed by numpy in one call."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported by the caller's sample-count check
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=1)
        if values.ndim == 1:
            return values
    except ValueError:
        pass
    # parse failed: name the first line that does not hold exactly one integer
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not _one_integer(text):
                raise DataError(f"{path}:{lineno}: not an integer: {text!r}")
    raise DataError(f"{path}: not one integer per line")


def load_signal(path, set_tag: str) -> EegSignal:
    """Parse one Bonn file of the given set: one decimal integer per non-empty line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    values = _read_integers(path)
    if values.size != EXPECTED_SAMPLES:
        raise DataError(f"{path}: expected {EXPECTED_SAMPLES} samples, found {values.size}")
    return EegSignal(values.astype(float), set_tag, path.stem)


def load_corpus(root) -> dict:
    """Read all five sets; returns {tag: [EegSignal, ...]} sorted by file name."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus root is not a directory: {root}")
    missing = [tag for tag in SET_TAGS if not (root / tag).is_dir()]
    if missing:
        raise DataError(f"missing set directories under {root}: {', '.join(missing)}")
    corpus = {}
    for tag in SET_TAGS:
        files = sorted(p for p in (root / tag).iterdir() if p.is_file())
        if len(files) != SIGNALS_PER_SET:
            raise DataError(f"set {tag}: expected {SIGNALS_PER_SET} files, found {len(files)}")
        corpus[tag] = [load_signal(p, tag) for p in files]
    return corpus


@dataclass
class LabeledDataset:
    """Instances plus binary labels (1 = seizure set S) under one scheme."""

    instances: list
    labels: np.ndarray
    scheme: str
    seed: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme {self.scheme!r} not one of {SCHEMES}")
        if len(self.instances) != self.labels.shape[0]:
            raise ValueError("label count does not match instance count")


def build_dataset(corpus: dict, scheme: str, seed: int = 0) -> LabeledDataset:
    """Assemble one evaluation dataset from a corpus.

    imbalanced: every signal (100 positives / 400 negatives).
    balanced: all of S plus 25 signals drawn without replacement from
    each of Z, O, N, F under the given seed.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme {scheme!r} not one of {SCHEMES}")
    if scheme == "imbalanced":
        instances = [s for tag in NEGATIVE_TAGS for s in corpus[tag]] + list(corpus["S"])
    else:
        rng = np.random.default_rng(seed)
        instances = []
        for tag in NEGATIVE_TAGS:
            pool = corpus[tag]
            picks = sorted(rng.choice(len(pool), size=BALANCED_PER_NEGATIVE_SET, replace=False))
            instances.extend(pool[i] for i in picks)
        instances.extend(corpus["S"])
    labels = np.array([1 if s.is_seizure else 0 for s in instances], dtype=int)
    return LabeledDataset(instances, labels, scheme, seed)


def write_manifest(dataset: LabeledDataset, path):
    """CSV manifest: source_id, set_tag, label, scheme, seed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "set_tag", "label", "scheme", "seed"])
        for sig, label in zip(dataset.instances, dataset.labels):
            writer.writerow([sig.source_id, sig.set_tag, int(label),
                             dataset.scheme, dataset.seed])
