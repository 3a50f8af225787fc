"""Run configuration: defaults, INI files, and command-line overrides."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .clustering import DEFAULT_CONCENTRATION
from .data import HOLDOUT_MODES
from .errors import ConfigError
from .gp import DEFAULT_NOISE_VAR
from .inference import ScheduleConfig
from .prior import PriorConfig

TASKS = ("fit", "predict", "cluster", "compare-inference", "synth-data")

# Tasks that read real-world files standardize by default; synthetic
# inputs already live on [0, 10].
_STANDARDIZE_DEFAULT = {
    "fit": True,
    "predict": True,
    "cluster": True,
    "compare-inference": False,
    "synth-data": False,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs beyond its file paths."""

    task: str = "fit"
    prior: PriorConfig = field(default_factory=PriorConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    noise_var: float = DEFAULT_NOISE_VAR
    standardize: bool | None = None
    holdout_fraction: float = 0.2
    holdout_mode: str = "extrapolate-tail"
    probe_count: int = 200
    emit_sample_curves: int = 0
    concentration: float = DEFAULT_CONCENTRATION
    compare_structure: str = '["PER", 1.0, 1.0]'

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task {self.task!r} not one of {TASKS}")
        if self.noise_var <= 0.0:
            raise ConfigError(f"noise_var {self.noise_var} must be positive")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError(
                f"holdout_fraction {self.holdout_fraction} outside [0, 1)"
            )
        if self.holdout_mode not in HOLDOUT_MODES:
            raise ConfigError(
                f"holdout_mode {self.holdout_mode!r} not one of {HOLDOUT_MODES}"
            )
        if self.probe_count < 2:
            raise ConfigError(f"probe_count {self.probe_count} must be at least 2")
        if self.emit_sample_curves < 0:
            raise ConfigError("emit_sample_curves must be non-negative")
        if self.concentration <= 0.0:
            raise ConfigError(
                f"concentration {self.concentration} must be positive"
            )
        if self.task != "synth-data" and self.schedule.sweeps == 0:
            raise ConfigError(f"{self.task} needs a sweep; schedule.sweeps is 0")
        if self.task == "compare-inference" and self.schedule.hyper_steps == 0:
            raise ConfigError(
                "compare-inference needs a hyper step; schedule.hyper_steps is 0"
            )
        if self.task == "cluster" and self.schedule.chains > 1:
            raise ConfigError(
                f"cluster runs one chain; schedule.chains is {self.schedule.chains}"
            )

    def resolved_standardize(self) -> bool:
        if self.standardize is not None:
            return self.standardize
        return _STANDARDIZE_DEFAULT[self.task]


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"cannot read {raw!r} as a boolean") from None


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _parse_weights(raw: str) -> tuple[float, ...]:
    try:
        return tuple(_parse_float(part) for part in raw.split(","))
    except ValueError as err:
        raise ConfigError(f"cannot read {raw!r} as weights: {err}") from None


# Parsers by field annotation, which postponed evaluation leaves as a
# string in `Field.type`.
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "bool | None": _parse_bool,
    "tuple[float, ...]": _parse_weights,
    "tuple[float, float, float]": _parse_weights,
}


# The INI schema: [run] holds RunConfig's own fields but `concentration`,
# which [cluster] holds; [prior] and [schedule] hold the nested configs'.
_NESTED = {"prior": PriorConfig, "schedule": ScheduleConfig}


def _keys(cls) -> dict:
    """Each settable field of a config dataclass, with its annotation's parser."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in _NESTED}


_SCHEMA = {"run": _keys(RunConfig)}
_SCHEMA.update((name, _keys(cls)) for name, cls in _NESTED.items())
_SCHEMA["cluster"] = {"concentration": _SCHEMA["run"].pop("concentration")}


def _convert(section: str, key: str, raw: str):
    keys = _SCHEMA.get(section)
    if keys is None:
        raise ConfigError(f"unknown config section [{section}]")
    parser = keys.get(key)
    if parser is None:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        return parser(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"[{section}] {key}: {err}") from None


def _entries(path, overrides: tuple[str, ...]):
    """(section, key, raw) of each file entry, then of each override."""
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        parser = configparser.ConfigParser()
        try:
            with open(path) as handle:
                parser.read_file(handle)
        except configparser.Error as err:
            raise ConfigError(f"{path}: {err}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                yield section, key, raw
    for override in overrides:
        if "=" not in override or "." not in override.split("=", 1)[0]:
            raise ConfigError(
                f"override {override!r} must look like section.key=value"
            )
        address, raw = override.split("=", 1)
        section, key = address.split(".", 1)
        yield section.strip(), key.strip(), raw


def load_config(path=None, overrides: tuple[str, ...] = ()) -> RunConfig:
    """Build a RunConfig from an optional INI file plus overrides.

    Overrides use the form `section.key=value` and pass through the
    same parsing and validation paths as the file. Unknown sections or
    keys are errors rather than silently ignored.
    """
    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section, key, raw in _entries(path, overrides):
        values[section][key] = _convert(section, key, raw)
    try:
        prior = PriorConfig(**values["prior"])
        schedule = ScheduleConfig(**values["schedule"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(
        prior=prior, schedule=schedule, **values["run"], **values["cluster"]
    )
