"""Run configuration: JSON file in, fully defaulted and validated object out.

Accepted top-level keys (any other is a ``ConfigError``):

* ``corpus_root`` -- the Bonn-layout corpus; ``$EEGBENCH_CORPUS_ROOT`` if unset
* ``output_dir`` -- where the report bundle goes (``eegbench-report``)
* ``schemes``, ``extractors``, ``models`` -- the factors crossed into cells
* ``master_seed``, ``jobs`` -- the seed every random draw derives from; worker processes
  for feature extraction and cells
* ``kfold``, ``holdout`` -- the two resampling plans, ``{"k", "n_repeats"}`` and
  ``{"test_fraction", "n_repeats"}``
* ``profile`` -- ``reproduction`` or ``custom``, recorded in the manifest

That is 12 settable values. The paper's other settings are constants,
not keys: extraction in :mod:`eegbench.wavelet` (``LEVELS``, periodized
extension, soft shrinkage) and :mod:`eegbench.mfcc` (``FRAME_LEN``,
``FRAME_STEP``, ``PREEMPH_ALPHA``, ``N_FILTERS``, ``N_COEFFS``, ``NFFT``);
``evaluation.PCA_VARIANCE_TARGET``; and each model's constructor
defaults, listed in :mod:`eegbench.classifiers`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import MODEL_KINDS
from .corpus import BALANCED_PER_NEGATIVE_SET, NEGATIVE_TAGS, SCHEMES, SIGNALS_PER_SET
from .errors import ConfigError
from .evaluation import SplitPlan, make_splits
from .features import EXTRACTORS

ENV_CORPUS_ROOT = "EEGBENCH_CORPUS_ROOT"

_SCHEMA = {
    "corpus_root": str,
    "output_dir": str,
    "schemes": list,
    "extractors": list,
    "models": list,
    "master_seed": int,
    "jobs": int,
    "kfold": dict,
    "holdout": dict,
    "profile": str,
}

_KFOLD_KEYS = {"k": int, "n_repeats": int}
_HOLDOUT_KEYS = {"test_fraction": float, "n_repeats": int}

DEFAULTS = {
    "schemes": ["imbalanced", "balanced"],
    "extractors": list(EXTRACTORS),
    "models": list(MODEL_KINDS),
    "master_seed": 20200724,
    "jobs": 1,
    "kfold": {"k": 10, "n_repeats": 1},
    "holdout": {"test_fraction": 0.2, "n_repeats": 50},
    "profile": "reproduction",
}


@dataclass
class RunConfig:
    corpus_root: Path
    output_dir: Path
    schemes: list
    extractors: list
    models: list
    master_seed: int
    jobs: int
    kfold_plan: SplitPlan
    holdout_plan: SplitPlan
    profile: str

    def normalized(self) -> dict:
        """Round-trippable plain mapping (stable key order)."""
        return {
            "corpus_root": str(self.corpus_root),
            "output_dir": str(self.output_dir),
            "schemes": list(self.schemes),
            "extractors": list(self.extractors),
            "models": list(self.models),
            "master_seed": self.master_seed,
            "jobs": self.jobs,
            "kfold": {"k": self.kfold_plan.k, "n_repeats": self.kfold_plan.n_repeats},
            "holdout": {"test_fraction": self.holdout_plan.test_fraction,
                        "n_repeats": self.holdout_plan.n_repeats},
            "profile": self.profile,
        }

    def digest(self) -> str:
        payload = json.dumps(self.normalized(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _check_keys(mapping: dict, allowed: dict, context: str):
    for key, value in mapping.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {context}{key!r}")
        expected = (float, int) if allowed[key] is float else allowed[key]
        # bool subclasses int, and no key takes a bool
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ConfigError(
                f"key {context}{key!r}: expected {allowed[key]}, got {type(value).__name__}")


def build_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a parsed mapping, filling every unset key with its default."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(raw, _SCHEMA, "")
    merged = copy.deepcopy(DEFAULTS)
    merged.update(raw)

    corpus_root = merged.get("corpus_root") or os.environ.get(ENV_CORPUS_ROOT)
    if not corpus_root:
        raise ConfigError(f"corpus_root missing (set it or export {ENV_CORPUS_ROOT})")
    corpus_root = Path(corpus_root)
    if base_dir and not corpus_root.is_absolute():
        corpus_root = base_dir / corpus_root
    if not corpus_root.is_dir():
        raise ConfigError(f"corpus_root is not a directory: {corpus_root}")

    output_dir = Path(merged.get("output_dir") or "eegbench-report")
    if base_dir and not output_dir.is_absolute():
        output_dir = base_dir / output_dir

    for key, noun, known in (("schemes", "scheme", SCHEMES),
                             ("extractors", "extractor", EXTRACTORS),
                             ("models", "model", MODEL_KINDS)):
        levels = merged[key]
        for i, level in enumerate(levels):
            if level not in known:
                raise ConfigError(f"unknown {noun} {level!r}")
            if level in levels[:i]:
                raise ConfigError(f"duplicate {noun} {level!r}")
        if not levels:
            raise ConfigError(f"{key} must not be empty")

    _check_keys(merged["kfold"], _KFOLD_KEYS, "kfold.")
    _check_keys(merged["holdout"], _HOLDOUT_KEYS, "holdout.")
    kfold_cfg = {**DEFAULTS["kfold"], **merged["kfold"]}
    holdout_cfg = {**DEFAULTS["holdout"], **merged["holdout"]}
    try:
        kfold_plan = SplitPlan("kfold", k=kfold_cfg["k"], n_repeats=kfold_cfg["n_repeats"])
        holdout_plan = SplitPlan("holdout", test_fraction=holdout_cfg["test_fraction"],
                                 n_repeats=holdout_cfg["n_repeats"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # every plan must stratify each scheme's labels; the corpus shape fixes them
    for scheme in merged["schemes"]:
        per_negative = SIGNALS_PER_SET if scheme == "imbalanced" else BALANCED_PER_NEGATIVE_SET
        labels = np.repeat([0, 1], [len(NEGATIVE_TAGS) * per_negative, SIGNALS_PER_SET])
        for plan in (kfold_plan, holdout_plan):
            try:
                make_splits(labels, dataclasses.replace(plan, n_repeats=1))
            except ValueError as exc:
                raise ConfigError(f"{plan.kind} on the {scheme} scheme: {exc}") from None

    jobs = merged["jobs"]
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    if merged["profile"] not in ("reproduction", "custom"):
        raise ConfigError(f"unknown profile {merged['profile']!r}")

    return RunConfig(
        corpus_root=corpus_root,
        output_dir=output_dir,
        schemes=list(merged["schemes"]),
        extractors=list(merged["extractors"]),
        models=list(merged["models"]),
        master_seed=int(merged["master_seed"]),
        jobs=int(jobs),
        kfold_plan=kfold_plan,
        holdout_plan=holdout_plan,
        profile=merged["profile"],
    )


def validate_config(path) -> RunConfig:
    """Parse and validate a JSON configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return build_config(raw, base_dir=path.parent)
