"""Run configuration: nested JSON document with strict key checking."""

from __future__ import annotations

import copy
import json
import sys

from .errors import ConfigError

DEFAULT_CONFIG: dict = {
    "data": {
        "path": None,                 # dataset CSV (required for training)
        "task": "classification",     # classification | regression
        "split": "scaffold",          # scaffold | random
        "ratios": [0.8, 0.1, 0.1],
    },
    "vocab": {
        "representation": "fgr",      # fg | mfg | fgr
        "fg": None,                   # FG vocabulary path (None = packaged starter)
        "mfg": None,                  # mined vocabulary path (required for mfg/fgr)
        "skip_invalid": False,
    },
    "model": {
        "latent": 512,
        "tied": True,
        "alpha_t": 0.25,
        "gamma": 2.0,
        "alpha": 0.1,
        "beta": 0.01,
        "use_descriptors": False,
        "descriptor_length": 211,
    },
    "optimizer": {
        "kind": "sam",                # sam | sgd
        "lr": 0.05,
        "momentum": 0.9,
        "rho": 0.05,
    },
    "training": {
        "epochs": 50,
        "batch_size": 16,
        "seed": 0,
        "runs": 1,
        "checkpoint_out": None,
        "metrics_out": None,
    },
    "interpret": {
        "ig_steps": 128,
        "shap_samples": 200,
        "shap_noise": 0.1,
        "top_k": 25,
    },
}


def _merge_checked(defaults: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"{where} must be a section (object)")
        if isinstance(defaults[key], dict):
            out[key] = _merge_checked(defaults[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(overrides: dict | None = None) -> dict:
    """Defaults overlaid with overrides; unknown keys are errors."""
    return _merge_checked(DEFAULT_CONFIG, overrides or {})


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return resolve_config(raw)


# Integer fields and their least valid values.
_INTEGER_MINIMA = {
    "model.latent": 1,
    "model.descriptor_length": 14,    # the implemented descriptor slots
    "training.epochs": 1,
    "training.batch_size": 1,
    "training.seed": 0,
    "training.runs": 1,
    "interpret.ig_steps": 2,
    "interpret.shap_samples": 1,
    "interpret.top_k": 1,
}


def _number(cfg: dict, where: str, integer: bool):
    """The value at `section.key`; ConfigError unless it is a finite number,
    and an integer if `integer` (bool is neither)."""
    section, key = where.split(".")
    value = cfg[section][key]
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a finite number'}")
    return value


def validate_for_training(cfg: dict) -> None:
    if not cfg["data"]["path"]:
        raise ConfigError("data.path is required for training")
    if cfg["data"]["task"] not in ("classification", "regression"):
        raise ConfigError("data.task must be classification or regression")
    if cfg["data"]["split"] not in ("scaffold", "random"):
        raise ConfigError("data.split must be scaffold or random")
    check_ratios(cfg["data"]["ratios"])
    if cfg["vocab"]["representation"] not in ("fg", "mfg", "fgr"):
        raise ConfigError("vocab.representation must be fg, mfg or fgr")
    if cfg["vocab"]["representation"] in ("mfg", "fgr") and not cfg["vocab"]["mfg"]:
        raise ConfigError("vocab.mfg path is required for the chosen representation")
    if cfg["optimizer"]["kind"] not in ("sam", "sgd"):
        raise ConfigError("optimizer.kind must be sam or sgd")
    for where, low in _INTEGER_MINIMA.items():
        if _number(cfg, where, integer=True) < low:
            raise ConfigError(f"{where} must be an integer >= {low}")
    for where in ("model.alpha_t", "model.gamma", "model.alpha", "model.beta"):
        _number(cfg, where, integer=False)
    if not _number(cfg, "optimizer.lr", integer=False) > 0:
        raise ConfigError("optimizer.lr must be > 0")
    if not 0 <= _number(cfg, "optimizer.momentum", integer=False) < 1:
        raise ConfigError("optimizer.momentum must be in [0, 1)")
    for where in ("optimizer.rho", "interpret.shap_noise"):
        if _number(cfg, where, integer=False) < 0:
            raise ConfigError(f"{where} must be >= 0")


def check_ratios(ratios) -> tuple[float, float, float]:
    """Train/valid/test split ratios as floats; ConfigError unless they are
    three positive numbers summing to 1."""
    try:
        ratios = tuple(float(r) for r in ratios)
    except (TypeError, ValueError):
        ratios = ()
    if len(ratios) != 3 or not all(r > 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("data.ratios must be three positive numbers summing to 1")
    return ratios
