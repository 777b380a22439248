"""Experiment configuration: strict JSON schema, defaults, round-trip.

The document layout mirrors the dataclasses below; unknown keys anywhere are
rejected so typos fail loudly before any computation starts.  The sweep is
the cross product of ``admm.c`` and ``noise.sigma_e`` in document order
(c-major); that order also fixes the cell indices used to key the noise
substreams, so results are independent of how the sweep is executed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
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
    delta: float = 0.0
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
        doc = asdict(self)
        doc["admm"]["c"] = list(self.admm.c)
        doc["noise"]["sigma_e"] = list(self.noise.sigma_e)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        top = _take(dict(doc), "config", {
            "seed": int, "trials": int, "graph": dict, "problem": dict,
            "admm": dict, "noise": dict, "output": dict,
        })
        graph = _take(top.get("graph", {}), "graph", {"n_nodes": int, "rho": float})
        problem = _take(top.get("problem", {}), "problem", {
            "dim": int, "obs_noise_var": float, "design_kind": str,
        })
        admm = _take(top.get("admm", {}), "admm", {"c": list, "max_iter": int})
        noise = _take(top.get("noise", {}), "noise", {
            "model": str, "sigma_e": list, "delta": float, "placement_mode": str,
        })
        output = _take(top.get("output", {}), "output", {"csv_path": str, "svg_path": (str, type(None))})

        cfg = cls(
            seed=top.get("seed", cls.seed),
            trials=top.get("trials", cls.trials),
            graph=GraphConfig(**graph),
            problem=ProblemConfig(**problem),
            admm=AdmmConfig(
                c=_float_list(admm["c"], "admm.c") if "c" in admm else AdmmConfig.c,
                max_iter=admm.get("max_iter", AdmmConfig.max_iter),
            ),
            noise=NoiseConfig(
                model=noise.get("model", NoiseConfig.model),
                sigma_e=_float_list(noise["sigma_e"], "noise.sigma_e")
                if "sigma_e" in noise else NoiseConfig.sigma_e,
                delta=noise.get("delta", NoiseConfig.delta),
                placement_mode=noise.get("placement_mode", NoiseConfig.placement_mode),
            ),
            output=OutputConfig(**output),
        )
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
        if self.admm.max_iter < 1:
            raise ConfigError("admm.max_iter must be >= 1")
        if self.noise.model not in NOISE_KINDS:
            raise ConfigError(f"noise.model must be one of {NOISE_KINDS}")
        if not self.noise.sigma_e or any(v < 0.0 for v in self.noise.sigma_e):
            raise ConfigError("noise.sigma_e must be a non-empty list of nonnegative reals")
        if self.noise.delta < 0.0:
            raise ConfigError("noise.delta must be nonnegative")
        if self.noise.placement_mode not in PLACEMENT_MODES:
            raise ConfigError(f"noise.placement_mode must be one of {PLACEMENT_MODES}")
        if not self.output.csv_path:
            raise ConfigError("output.csv_path must be set")

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="ascii")


def _float_list(values, name: str) -> tuple[float, ...]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{name} entries must be numbers")
        out.append(float(v))
    return tuple(out)


def _take(section, name: str, allowed: dict) -> dict:
    """Copy a config section, rejecting unknown keys and wrong shapes."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a JSON object")
    out = {}
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r} in {name} section")
        expected = allowed[key]
        if expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name}.{key} must be a number")
            value = float(value)
        elif expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name}.{key} must be an integer")
        elif isinstance(expected, tuple):
            if not isinstance(value, expected):
                raise ConfigError(f"{name}.{key} has the wrong type")
        elif not isinstance(value, expected):
            raise ConfigError(f"{name}.{key} has the wrong type")
        out[key] = value
    return out


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
