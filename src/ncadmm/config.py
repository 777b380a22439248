"""Experiment configuration: strict JSON schema, defaults, round-trip.

The document layout is read off the dataclasses below, which alone declare
the field names, types and defaults; unknown keys anywhere are rejected so
typos fail loudly before any computation starts.  The sweep is the cross
product of ``admm.c`` and ``noise.sigma_e`` in document order
(c-major); that order also fixes the cell indices used to key the noise
substreams, so results are independent of how the sweep is executed.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .admm import PLACEMENT_MODES
from .noise import NOISE_KINDS, NoiseModel
from .objective import DESIGN_KINDS


class ConfigError(ValueError):
    """Invalid or unknown experiment-configuration content."""


@dataclass(frozen=True)
class GraphConfig:
    n_nodes: int = 50
    rho: float = 0.1


@dataclass(frozen=True)
class ProblemConfig:
    dim: int = 3
    obs_noise_var: float = 1e-3
    design_kind: str = "gaussian"


@dataclass(frozen=True)
class AdmmConfig:
    c: tuple[float, ...] = (0.1, 1.0, 10.0)
    max_iter: int = 2000


@dataclass(frozen=True)
class NoiseConfig:
    model: str = "gaussian"
    sigma_e: tuple[float, ...] = (1e-3, 1e-2)
    delta: float = 1e-3
    placement_mode: str = "analysis_faithful"


@dataclass(frozen=True)
class OutputConfig:
    csv_path: str = "experiment.csv"
    svg_path: str | None = "experiment.svg"


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1234
    trials: int = 20
    graph: GraphConfig = field(default_factory=GraphConfig)
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def cells(self) -> list[tuple[float, float]]:
        """(c, sigma_e) sweep cells in document order; index keys the noise."""
        return [(c, s) for c in self.admm.c for s in self.noise.sigma_e]

    def noise_model(self, sigma_e: float) -> NoiseModel:
        return NoiseModel(kind=self.noise.model, sigma_e=sigma_e, delta=self.noise.delta)

    def to_json_dict(self) -> dict:
        # JSON has no tuples: the sweep axes go out as lists
        return asdict(self, dict_factory=lambda items: {
            key: list(value) if isinstance(value, tuple) else value for key, value in items})

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        cfg = _section(cls, doc, "config")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name, values in (("admm.c", self.admm.c),
                             ("noise.sigma_e", self.noise.sigma_e),
                             ("noise.delta", (self.noise.delta,)),
                             ("problem.obs_noise_var", (self.problem.obs_noise_var,))):
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{name} must be finite")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.graph.n_nodes < 2:
            raise ConfigError("graph.n_nodes must be >= 2")
        if not (0.0 < self.graph.rho <= 1.0):
            raise ConfigError("graph.rho must lie in (0, 1]")
        if self.problem.dim < 1:
            raise ConfigError("problem.dim must be >= 1")
        if self.problem.obs_noise_var < 0.0:
            raise ConfigError("problem.obs_noise_var must be nonnegative")
        if self.problem.design_kind not in DESIGN_KINDS:
            raise ConfigError(f"problem.design_kind must be one of {DESIGN_KINDS}")
        if not self.admm.c or any(v <= 0.0 for v in self.admm.c):
            raise ConfigError("admm.c must be a non-empty list of positive reals")
        if len(set(self.admm.c)) < len(self.admm.c):
            raise ConfigError("admm.c entries must be distinct")
        if self.admm.max_iter < 1:
            raise ConfigError("admm.max_iter must be >= 1")
        if self.noise.model not in NOISE_KINDS:
            raise ConfigError(f"noise.model must be one of {NOISE_KINDS}")
        if not self.noise.sigma_e or any(v < 0.0 for v in self.noise.sigma_e):
            raise ConfigError("noise.sigma_e must be a non-empty list of nonnegative reals")
        if len(set(self.noise.sigma_e)) < len(self.noise.sigma_e):
            raise ConfigError("noise.sigma_e entries must be distinct")
        if self.noise.delta < 0.0:
            raise ConfigError("noise.delta must be nonnegative")
        if self.noise.model == "quantizer" and self.noise.delta == 0.0:
            raise ConfigError("noise.delta must be positive for noise.model quantizer")
        if self.noise.placement_mode not in PLACEMENT_MODES:
            raise ConfigError(f"noise.placement_mode must be one of {PLACEMENT_MODES}")
        if not self.output.csv_path:
            raise ConfigError("output.csv_path must be set")

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n",
                              encoding="ascii", newline="")


_type_hints = functools.cache(typing.get_type_hints)


def _section(cls, doc, name: str):
    """Build the dataclass ``cls`` from a JSON object, field by field.

    Field names, types and defaults come from the dataclass; unknown keys
    and values of the wrong shape are rejected, and nested dataclasses are
    built from their own sections.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} section must be a JSON object")
    hints = _type_hints(cls)
    values = {}
    for key, value in doc.items():
        if key not in hints:
            raise ConfigError(f"unknown field {key!r} in {name} section")
        hint = hints[key]
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"{name}.{key} has the wrong type")
            values[key] = _section(hint, value, key)
        else:
            values[key] = _value(hint, value, f"{name}.{key}")
    return cls(**values)


def _value(hint, value, path: str):
    """Check one JSON value against a field's type; numbers come back as floats."""
    if hint is float:
        if not _is_number(value):
            raise ConfigError(f"{path} must be a number")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer")
        return value
    if typing.get_origin(hint) is tuple:  # tuple[float, ...]: a JSON list
        if not isinstance(value, list):
            raise ConfigError(f"{path} has the wrong type")
        if not all(map(_is_number, value)):
            raise ConfigError(f"{path} entries must be numbers")
        return tuple(float(v) for v in value)
    if not isinstance(value, typing.get_args(hint) or hint):
        raise ConfigError(f"{path} has the wrong type")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {p} is not valid JSON: {err}") from err
    return ExperimentConfig.from_json_dict(doc)


def default_config() -> ExperimentConfig:
    """Desk-scale profile: quick enough to sweep interactively."""
    return ExperimentConfig()


def full_config() -> ExperimentConfig:
    """Large profile: 200 nodes, sparse topology, 100 Monte Carlo trials."""
    return ExperimentConfig(
        trials=100,
        graph=GraphConfig(n_nodes=200, rho=0.04),
    )
