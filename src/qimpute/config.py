"""Flat key=value config files for the experiment harness.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Section structure is spelled with dots in the key (``train.lr``). Keys map
onto :class:`qimpute.experiment.ExperimentConfig`; unknown keys are errors
so typos never pass silently. ``quantum.n_qubits`` sets ``model.embed_dim``,
the one embedding width that every variant shares.
"""

from __future__ import annotations

from .baselines import BaselineConfig
from .errors import ConfigError
from .experiment import ExperimentConfig
from .model import ModelConfig
from .training import TrainConfig


def load_kv_config(path) -> dict[str, str]:
    """Parse a key=value file into a flat string mapping."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}: line {lineno}: empty key")
            if key in mapping:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
            mapping[key] = value.strip()
    return mapping


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_list(value):
    return tuple(part.strip() for part in value.split(",") if part.strip())


# key -> (target, field, parser); targets name sub-configs of ExperimentConfig
_KEYS = {
    "dataset.kind": ("root", "dataset_kind", str),
    "dataset.rows": ("root", "n_rows", _parse_int),
    "dataset.csv": ("root", "csv_path", str),
    "dataset.schema": ("root", "schema_path", str),
    "mask.rate": ("root", "missing_rate", _parse_float),
    "threads": ("root", "threads", _parse_int),
    "text.dim": ("root", "text_dim", _parse_int),
    "quantum.n_qubits": ("model", "embed_dim", _parse_int),
    "quantum.n_layers": ("root", "n_layers", _parse_int),
    "model.d_model": ("model", "d_model", _parse_int),
    "model.n_blocks": ("model", "n_blocks", _parse_int),
    "model.n_heads": ("model", "n_heads", _parse_int),
    "model.d_ff": ("model", "d_ff", _parse_int),
    "model.mlp_hidden": ("model", "mlp_hidden", _parse_int),
    "train.lr": ("train", "learning_rate", _parse_float),
    "train.epochs": ("train", "epochs", _parse_int),
    "train.batch_size": ("train", "batch_size", _parse_int),
    "train.mask_rate": ("train", "mask_rate", _parse_float),
    "train.numeric_loss_weight": ("train", "numeric_loss_weight", _parse_float),
    "train.categorical_loss_weight": ("train", "categorical_loss_weight", _parse_float),
    "baseline.k": ("baseline", "k", _parse_int),
    "baseline.ridge_lambda": ("baseline", "ridge_lambda", _parse_float),
    "baseline.max_sweeps": ("baseline", "max_sweeps", _parse_int),
    "baseline.tolerance": ("baseline", "tolerance", _parse_float),
}


def experiment_config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed keys; unknown keys are errors."""
    buckets: dict[str, dict] = {name: {} for name in ("root", "model", "train", "baseline")}
    root = buckets["root"]
    for key, value in mapping.items():
        if key == "methods":
            root["methods"] = _parse_list(value)
            continue
        if key == "seeds":
            root["seeds"] = tuple(_parse_int("seeds", v) for v in _parse_list(value))
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        target, field_name, parser = _KEYS[key]
        buckets[target][field_name] = parser(key, value) if parser is not str else value

    try:
        return ExperimentConfig(
            model=ModelConfig(**buckets["model"]), train=TrainConfig(**buckets["train"]),
            baseline=BaselineConfig(**buckets["baseline"]), **root,
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
