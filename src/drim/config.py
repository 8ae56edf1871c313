"""Experiment settings: one table of keys, read by config files and the CLI.

`SPEC_KEYS` maps each flat setting key to its INI section and its
converter from text; the `[training]` entries are the fields of
`PPOConfig`. A config file is INI with the sections `[experiment]`,
`[episode]`, `[training]` and `[sweep]`; in `[sweep]` the keys drop
their `sweep_` prefix (`axis`, `values`). An unknown section or key is
an error, and so is a value its converter rejects, named by its key.
Overrides (the CLI's flags) win over the file.
"""

from __future__ import annotations

import configparser
from dataclasses import fields
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
        raise ValueError(f"expected one of 1/yes/true/on or 0/no/false/off, got {value!r}") from None


def _words(value: str) -> tuple[str, ...]:
    """Comma- or space-separated sweep points, as text: `ExperimentSpec`
    turns them into the axis's type."""
    return tuple(value.replace(",", " ").split())


SPEC_KEYS = {
    "scheme": ("experiment", Scheme),
    "opinion_model": ("experiment", str),
    "fp_strategy": ("experiment", str),
    "runs": ("experiment", int),
    "master_seed": ("experiment", int),
    "dataset": ("experiment", str),
    "out_dir": ("experiment", Path),
    "policy_dir": ("experiment", Path),
    "auto_train": ("experiment", _auto_train),
    "k": ("episode", int),
    "p_t": ("episode", int),
    "p_f": ("episode", int),
    "p_nv": ("episode", float),
    "prior_a": ("episode", float),
    # Every PPOConfig field has a plain int or float default.
    **{f.name: ("training", type(f.default)) for f in fields(PPOConfig)},
    "sweep_axis": ("sweep", str),
    "sweep_values": ("sweep", _words),
}


def _read_file(path: str | Path) -> list[tuple[str, str]]:
    """(flat key, text) of every setting in an INI config file."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file {path} not found")
    except configparser.Error as exc:  # a duplicate key, no section header, a line without =
        raise ValueError(f"config file {path}: {' '.join(str(exc).split())}") from None
    keys = {(section, key.removeprefix(f"{section}_")): key
            for key, (section, _) in SPEC_KEYS.items()}
    sections = {section for section, _ in keys}
    if parser.defaults():  # configparser would copy [DEFAULT]'s keys into every section
        raise ValueError(f"unknown section [{parser.default_section}] in {path}")
    items = []
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown section [{section}] in {path}")
        for name, text in parser.items(section):
            if (section, name) not in keys:
                raise ValueError(f"unknown key {name!r} in [{section}]")
            items.append((keys[section, name], text))
    return items


def parse_spec_file(path: str | Path | None, overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from an optional config file plus overrides.

    Override keys are `SPEC_KEYS` keys (e.g. "k", "scheme", "updates");
    values may be already-typed or text, and None means not given.
    """
    items = _read_file(path) if path is not None else []
    values: dict = {}
    ppo_values: dict = {}
    for key, value in [*items, *(overrides or {}).items()]:
        if value is None:
            continue
        if key not in SPEC_KEYS:
            raise ValueError(f"unknown spec override {key!r}")
        section, convert = SPEC_KEYS[key]
        sink = ppo_values if section == "training" else values
        try:
            sink[key] = convert(value) if isinstance(value, str) else value
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return ExperimentSpec(**values, ppo=PPOConfig(**ppo_values))
