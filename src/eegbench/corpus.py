"""Load the Bonn-layout EEG corpus as one matrix, and pick each scheme's rows of it.

The one accepted corpus is the Bonn one: five directories named Z, O, N,
F, S, each holding exactly 100 ASCII files of exactly 4 097 integer
samples, one per line, recorded at 173.61 Hz. ``load_corpus`` enforces
that shape and raises ``DataError`` on any other, so everything after it
may assume it: set ``SET_TAGS[i]``'s files, in name order, are rows
``100 i`` to ``100 i + 99`` of one 500 x 4 097 float64 matrix. Set S is
the seizure class; everything else is non-seizure. A class-balance
scheme is a sorted array of row indices (``LabeledDataset``).
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


def load_signal(path) -> np.ndarray:
    """The integer samples of one Bonn file: one decimal integer per non-empty line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    values = _read_integers(path)
    if values.size != EXPECTED_SAMPLES:
        raise DataError(f"{path}: expected {EXPECTED_SAMPLES} samples, found {values.size}")
    return values


class Corpus(dict):
    """{set tag: that set's 100 rows of ``samples``, as a view}.

    ``samples`` is the C-contiguous (500, 4 097) float64 matrix of every
    recording, and ``source_ids`` holds the file stem of each row.
    """

    def __init__(self, samples: np.ndarray, source_ids: np.ndarray):
        super().__init__((tag, samples[i * SIGNALS_PER_SET:(i + 1) * SIGNALS_PER_SET])
                         for i, tag in enumerate(SET_TAGS))
        self.samples, self.source_ids = samples, source_ids


def load_corpus(root) -> Corpus:
    """Read all five sets, each sorted by file name, into one matrix."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus root is not a directory: {root}")
    missing = [tag for tag in SET_TAGS if not (root / tag).is_dir()]
    if missing:
        raise DataError(f"missing set directories under {root}: {', '.join(missing)}")
    samples = np.empty((len(SET_TAGS) * SIGNALS_PER_SET, EXPECTED_SAMPLES))
    source_ids = []
    for tag in SET_TAGS:
        files = sorted(p for p in (root / tag).iterdir() if p.is_file())
        if len(files) != SIGNALS_PER_SET:
            raise DataError(f"set {tag}: expected {SIGNALS_PER_SET} files, found {len(files)}")
        for path in files:
            samples[len(source_ids)] = load_signal(path)
            source_ids.append(path.stem)
    return Corpus(samples, np.array(source_ids))


@dataclass
class LabeledDataset:
    """One scheme: sorted corpus rows, their file stems and binary labels (1 = set S)."""

    rows: np.ndarray
    source_ids: np.ndarray
    labels: np.ndarray
    scheme: str
    seed: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme {self.scheme!r} not one of {SCHEMES}")


def build_dataset(corpus: Corpus, scheme: str, seed: int = 0) -> LabeledDataset:
    """Pick one evaluation dataset's rows of a corpus.

    imbalanced: every row (100 positives / 400 negatives).
    balanced: all of S plus 25 rows drawn without replacement from each
    of Z, O, N, F under the given seed.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for i, tag in enumerate(SET_TAGS):
        picks = np.arange(SIGNALS_PER_SET)
        if scheme == "balanced" and tag in NEGATIVE_TAGS:
            picks = np.sort(rng.choice(SIGNALS_PER_SET, size=BALANCED_PER_NEGATIVE_SET,
                                       replace=False))
        parts.append(i * SIGNALS_PER_SET + picks)
    rows = np.concatenate(parts)
    labels = (rows // SIGNALS_PER_SET == SET_TAGS.index("S")).astype(int)
    return LabeledDataset(rows, corpus.source_ids[rows], labels, scheme, seed)


def write_manifest(dataset: LabeledDataset, path):
    """CSV manifest: source_id, set_tag, label, scheme, seed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "set_tag", "label", "scheme", "seed"])
        for row, source_id, label in zip(dataset.rows.tolist(), dataset.source_ids.tolist(),
                                         dataset.labels.tolist()):
            writer.writerow([source_id, SET_TAGS[row // SIGNALS_PER_SET], label,
                             dataset.scheme, dataset.seed])
