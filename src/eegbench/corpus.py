"""Load Bonn-layout EEG recordings and assemble the two labeled datasets.

Expected on disk: five directories named Z, O, N, F, S, each holding 100
ASCII files with one integer sample per line. Set S is the seizure
class; everything else is non-seizure.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
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
    sample_rate: float
    set_tag: str
    source_id: str

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if self.set_tag not in SET_TAGS:
            raise ValueError(f"set tag {self.set_tag!r} not one of {SET_TAGS}")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def is_seizure(self) -> bool:
        return self.set_tag == "S"


def _infer_tag(path: Path) -> str | None:
    head = path.stem[:1].upper()
    if head in SET_TAGS:
        return head
    parent = path.parent.name.upper()
    if parent in SET_TAGS:
        return parent
    return None


def load_signal(path, set_tag: str | None = None, strict: bool = True) -> EegSignal:
    """Parse one Bonn file: one decimal integer per non-empty line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    tag = set_tag or _infer_tag(path)
    if tag is None:
        raise DataError(f"cannot infer set tag from {path}; pass set_tag explicitly")
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(int(text))
            except ValueError:
                raise DataError(f"{path}:{lineno}: not an integer: {text!r}") from None
    if len(values) != EXPECTED_SAMPLES:
        message = f"{path}: expected {EXPECTED_SAMPLES} samples, found {len(values)}"
        if strict:
            raise DataError(message)
        warnings.warn(message, stacklevel=2)
    return EegSignal(np.array(values, dtype=float), SAMPLE_RATE_HZ, tag, path.stem)


def load_corpus(root, strict: bool = True) -> dict:
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
        if strict and len(files) != SIGNALS_PER_SET:
            raise DataError(f"set {tag}: expected {SIGNALS_PER_SET} files, found {len(files)}")
        corpus[tag] = [load_signal(p, tag, strict) for p in files]
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
        expected = 0.2 if self.scheme == "imbalanced" else 0.5
        if abs(self.positive_fraction - expected) > 1e-12:
            raise ValueError(
                f"{self.scheme} scheme requires positive fraction {expected}, "
                f"got {self.positive_fraction:.4f}"
            )

    @property
    def positive_fraction(self) -> float:
        return float(self.labels.mean())

    @property
    def source_ids(self) -> list:
        return [s.source_id for s in self.instances]


def build_dataset(corpus: dict, scheme: str, seed: int = 0) -> LabeledDataset:
    """Assemble one evaluation dataset from a complete corpus.

    imbalanced: every signal (100 positives / 400 negatives).
    balanced: all of S plus 25 signals drawn without replacement from
    each of Z, O, N, F under the given seed.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme {scheme!r} not one of {SCHEMES}")
    for tag in SET_TAGS:
        if tag not in corpus or not corpus[tag]:
            raise DataError(f"corpus is missing set {tag}")
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
