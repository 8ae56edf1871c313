"""Flat key-value experiment config files (INI sections; CLI overrides win)."""

from __future__ import annotations

import configparser
from pathlib import Path

from drim.harness import ExperimentSpec
from drim.rl import PPOConfig
from drim.strategies import Scheme


def _auto_train(value: str) -> bool:
    """configparser's boolean words, case-insensitive; any other text is an
    error rather than False, so a typo cannot silently disable training."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(
            f"auto_train must be one of 1/yes/true/on or 0/no/false/off, got {value!r}") from None


_EXPERIMENT_KEYS = {
    "scheme": lambda v: Scheme(v),
    "opinion_model": str,
    "fp_strategy": str,
    "runs": int,
    "master_seed": int,
    "dataset": str,
    "out_dir": Path,
    "policy_dir": Path,
    "auto_train": _auto_train,
}

_EPISODE_KEYS = {"k": int, "p_t": int, "p_f": int, "p_nv": float, "prior_a": float}

_TRAINING_KEYS = {
    "gamma": float,
    "clip_epsilon": float,
    "epochs": int,
    "actor_lr": float,
    "critic_lr": float,
    "rollout_episodes": int,
    "updates": int,
    "entropy_coef": float,
    "hidden": int,
    "selfplay_updates_per_side": int,
    "selfplay_alternations": int,
}


def parse_spec_file(path: str | Path | None, overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from an optional config file plus overrides.

    Override keys use the flat field names (e.g. "k", "scheme", "updates");
    values may be already-typed or strings.
    """
    values: dict = {}
    ppo_values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file {path} not found")
        for section, keys, sink in (
            ("experiment", _EXPERIMENT_KEYS, values),
            ("episode", _EPISODE_KEYS, values),
            ("training", _TRAINING_KEYS, ppo_values),
        ):
            if parser.has_section(section):
                for key, raw in parser.items(section):
                    if key not in keys:
                        raise ValueError(f"unknown key {key!r} in [{section}]")
                    sink[key] = keys[key](raw)
        if parser.has_section("sweep"):
            axis = parser.get("sweep", "axis", fallback=None)
            if axis:
                values["sweep_axis"] = axis
            raw_values = parser.get("sweep", "values", fallback=None)
            if raw_values:
                values["sweep_values"] = tuple(
                    int(v) if axis == "ip" else float(v)
                    for v in raw_values.replace(",", " ").split()
                )

    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key in _TRAINING_KEYS:
            ppo_values[key] = _TRAINING_KEYS[key](val) if isinstance(val, str) else val
        elif key in _EXPERIMENT_KEYS:
            values[key] = _EXPERIMENT_KEYS[key](val) if isinstance(val, str) else val
        elif key in _EPISODE_KEYS:
            values[key] = _EPISODE_KEYS[key](val) if isinstance(val, str) else val
        elif key in ("sweep_axis", "sweep_values"):
            values[key] = val
        else:
            raise ValueError(f"unknown spec override {key!r}")

    if ppo_values:
        values["ppo"] = PPOConfig(**ppo_values)
    return ExperimentSpec(**values)
