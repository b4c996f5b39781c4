"""Run configuration: JSON file in, fully defaulted and validated object out."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import DEFAULT_HYPERPARAMS, MODEL_KINDS, make_model
from .corpus import EXPECTED_SAMPLES
from .errors import ConfigError
from .evaluation import SplitPlan
from .features import EXTRACTORS, WAVELET_EXTRACTORS
from .mfcc import MfccConfig, mfcc_features
from .wavelet import EXTENSION_MODES, THRESHOLD_METHODS, filter_for, wavedec

ENV_CORPUS_ROOT = "EEGBENCH_CORPUS_ROOT"

_SCHEMA = {
    "corpus_root": str,
    "output_dir": str,
    "schemes": list,
    "extractors": list,
    "models": list,
    "hyperparams": dict,
    "master_seed": int,
    "jobs": int,
    "kfold": dict,
    "holdout": dict,
    "pca_variance_target": (float, type(None)),
    "mfcc": dict,
    "wavelet": dict,
    "profile": str,
}

_KFOLD_KEYS = {"k": int, "n_repeats": int}
_HOLDOUT_KEYS = {"test_fraction": float, "n_repeats": int}
_MFCC_KEYS = typing.get_type_hints(MfccConfig)
_WAVELET_KEYS = {"levels": int, "extension_mode": str, "threshold_method": str,
                 "denoise": bool}

DEFAULTS = {
    "schemes": ["imbalanced", "balanced"],
    "extractors": list(EXTRACTORS),
    "models": list(MODEL_KINDS),
    "master_seed": 20200724,
    "jobs": 1,
    "kfold": {"k": 10, "n_repeats": 1},
    "holdout": {"test_fraction": 0.2, "n_repeats": 50},
    "pca_variance_target": 0.95,
    "mfcc": {},
    "wavelet": {},
    "profile": "reproduction",
}


@dataclass
class RunConfig:
    corpus_root: Path
    output_dir: Path
    schemes: list
    extractors: list
    models: list
    hyperparams: dict
    master_seed: int
    jobs: int
    kfold_plan: SplitPlan
    holdout_plan: SplitPlan
    pca_variance_target: float | None
    mfcc_options: dict
    wavelet_options: dict
    profile: str

    def normalized(self) -> dict:
        """Round-trippable plain mapping (stable key order)."""
        return {
            "corpus_root": str(self.corpus_root),
            "output_dir": str(self.output_dir),
            "schemes": list(self.schemes),
            "extractors": list(self.extractors),
            "models": list(self.models),
            "hyperparams": copy.deepcopy(self.hyperparams),
            "master_seed": self.master_seed,
            "jobs": self.jobs,
            "kfold": {"k": self.kfold_plan.k, "n_repeats": self.kfold_plan.n_repeats},
            "holdout": {"test_fraction": self.holdout_plan.test_fraction,
                        "n_repeats": self.holdout_plan.n_repeats},
            "pca_variance_target": self.pca_variance_target,
            "mfcc": copy.deepcopy(self.mfcc_options),
            "wavelet": copy.deepcopy(self.wavelet_options),
            "profile": self.profile,
        }

    def digest(self) -> str:
        payload = json.dumps(self.normalized(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _check_keys(mapping: dict, allowed: dict, context: str):
    for key, value in mapping.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {context}{key!r}")
        expected = allowed[key] if isinstance(allowed[key], tuple) else (allowed[key],)
        if allowed[key] is float:
            expected += (int,)
        # bool subclasses int, so a bool passes only where a bool is expected
        if not isinstance(value, expected) or (isinstance(value, bool) and bool not in expected):
            raise ConfigError(
                f"key {context}{key!r}: expected {allowed[key]}, got {type(value).__name__}")


def build_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a parsed mapping, filling every unset key with its default."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(raw, _SCHEMA, "")
    merged = copy.deepcopy(DEFAULTS)
    merged.update({k: v for k, v in raw.items() if v is not None})

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

    for scheme in merged["schemes"]:
        if scheme not in ("imbalanced", "balanced"):
            raise ConfigError(f"unknown scheme {scheme!r}")
    if not merged["schemes"]:
        raise ConfigError("schemes must not be empty")
    for ext in merged["extractors"]:
        if ext not in EXTRACTORS:
            raise ConfigError(f"unknown extractor {ext!r}")
    if not merged["extractors"]:
        raise ConfigError("extractors must not be empty")
    for kind in merged["models"]:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model {kind!r}")
    if not merged["models"]:
        raise ConfigError("models must not be empty")

    hyper = merged.get("hyperparams", {})
    for kind, params in hyper.items():
        if kind not in MODEL_KINDS:
            raise ConfigError(f"hyperparams for unknown model {kind!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"hyperparams.{kind} must be an object")
        for key, value in params.items():
            if key not in DEFAULT_HYPERPARAMS[kind]:
                raise ConfigError(f"unknown key hyperparams.{kind}.{key!r}")
            if isinstance(value, bool):         # no hyperparameter is a switch
                raise ConfigError(f"hyperparams.{kind}: {key} must not be a boolean")
    for kind in merged["models"]:
        try:
            make_model(kind, hyper.get(kind))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"hyperparams.{kind}: {exc}") from None

    _check_keys(merged["kfold"], _KFOLD_KEYS, "kfold.")
    _check_keys(merged["holdout"], _HOLDOUT_KEYS, "holdout.")
    _check_keys(merged["mfcc"], _MFCC_KEYS, "mfcc.")
    _check_keys(merged["wavelet"], _WAVELET_KEYS, "wavelet.")
    wavelet = merged["wavelet"]
    if wavelet.get("extension_mode", EXTENSION_MODES[0]) not in EXTENSION_MODES:
        raise ConfigError(f"wavelet.extension_mode must be one of {EXTENSION_MODES}")
    if wavelet.get("threshold_method", THRESHOLD_METHODS[0]) not in THRESHOLD_METHODS:
        raise ConfigError(f"wavelet.threshold_method must be one of {THRESHOLD_METHODS}")
    if wavelet.get("levels", 1) < 1:
        raise ConfigError("wavelet.levels must be at least 1")
    if "levels" in wavelet:
        # the decomposition must fit a full-length recording for every family in use
        for family in (ext for ext in merged["extractors"] if ext in WAVELET_EXTRACTORS):
            try:
                wavedec(np.zeros(EXPECTED_SAMPLES), filter_for(family), wavelet["levels"],
                        wavelet.get("extension_mode", EXTENSION_MODES[0]))
            except ValueError as exc:
                raise ConfigError(f"wavelet.levels too deep for {family}: {exc}") from None
    try:
        mfcc = MfccConfig(**merged["mfcc"])
        if "mfcc" in merged["extractors"]:
            # the frames and filters must fit a full-length recording
            mfcc_features(np.zeros(EXPECTED_SAMPLES), mfcc)
    except ValueError as exc:
        raise ConfigError(f"mfcc: {exc}") from None

    kfold_cfg = {**DEFAULTS["kfold"], **merged["kfold"]}
    holdout_cfg = {**DEFAULTS["holdout"], **merged["holdout"]}
    try:
        kfold_plan = SplitPlan("kfold", k=kfold_cfg["k"], n_repeats=kfold_cfg["n_repeats"])
        holdout_plan = SplitPlan("holdout", test_fraction=holdout_cfg["test_fraction"],
                                 n_repeats=holdout_cfg["n_repeats"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    target = merged["pca_variance_target"]
    if target is not None and not 0.0 < float(target) <= 1.0:
        raise ConfigError("pca_variance_target must be in (0, 1] or null")
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
        hyperparams=copy.deepcopy(hyper),
        master_seed=int(merged["master_seed"]),
        jobs=int(jobs),
        kfold_plan=kfold_plan,
        holdout_plan=holdout_plan,
        pca_variance_target=None if target is None else float(target),
        mfcc_options=copy.deepcopy(merged["mfcc"]),
        wavelet_options=copy.deepcopy(merged["wavelet"]),
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
