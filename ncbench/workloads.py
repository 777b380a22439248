"""The benchmark's workloads, the checks on their outputs, and the digest matrix.

Each workload is built from a seed and a scratch directory; ``run()`` is one
pass through the package and returns its units (a trial, an engine run or
a CLI command), each with the SHA-256 digests of its outputs and the domain
checks it failed.  The package only ever sees configs and instances built
here from the seed.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ncadmm import admm, analysis, cli, config, experiment, objective, topology
from ncadmm.admm import PLACEMENT_MODES
from ncadmm.config import (AdmmConfig, ExperimentConfig, GraphConfig,
                           NoiseConfig, OutputConfig, ProblemConfig)
from ncadmm.noise import NOISE_KINDS, NoiseModel, RandomStream


@dataclass
class Unit:
    """One trial, engine run or CLI command of a pass."""

    name: str
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_floats(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _all_finite(rows, column: int) -> bool:
    return all(row[column] == "" or math.isfinite(float(row[column])) for row in rows)


class Sweep:
    """The paper's E^DC sweep on the desk-profile shape, through the user path.

    Chosen because it is the headline product and the noise layer does most
    of its work: every iteration of every cell draws a fresh Gaussian block.
    """

    name = "sweep"
    TRIALS = 2
    MAX_ITER = 500

    def __init__(self, seed: int, workdir: Path):
        cfg = ExperimentConfig(
            seed=seed, trials=self.TRIALS,
            graph=GraphConfig(n_nodes=50, rho=0.1),
            problem=ProblemConfig(dim=3, obs_noise_var=1e-3, design_kind="gaussian"),
            admm=AdmmConfig(c=(0.1, 1.0, 10.0), max_iter=self.MAX_ITER),
            noise=NoiseConfig(model="gaussian", sigma_e=(1e-3, 1e-2),
                              placement_mode="analysis_faithful"),
            output=OutputConfig(csv_path=str(workdir / "sweep.csv"),
                                svg_path=str(workdir / "sweep.svg")),
        )
        self.config_path = workdir / "sweep.json"
        cfg.save(self.config_path)
        self.units = self.TRIALS

    def run(self) -> list[Unit]:
        cfg = config.load_config(self.config_path)
        reports = experiment.preflight_reports(cfg)
        result = experiment.run_experiment(cfg, jobs=1, quiet=True)
        experiment.emit_csv(result, cfg.output.csv_path)
        experiment.emit_svg(result, cfg.output.svg_path)

        preflight = repr([None if r is None else r.to_json_dict() for r in reports])
        digests = {
            "sweep.preflight": hashlib.sha256(preflight.encode()).hexdigest(),
            "sweep.csv": sha256_file(cfg.output.csv_path),
            "sweep.svg": sha256_file(cfg.output.svg_path),
        }
        problems = self._check(cfg)
        return [Unit(f"trial{t}", dict(digests), list(problems)) for t in range(cfg.trials)]

    def _check(self, cfg: ExperimentConfig) -> list[str]:
        problems = []
        header, rows = _read_csv(cfg.output.csv_path)
        n_cells = len(cfg.cells())
        if header != ["c", "sigma_e", "k", "mean_edc", "std_edc"]:
            problems.append(f"sweep CSV header {header}")
        if len(rows) != n_cells * (cfg.admm.max_iter + 1):
            problems.append(f"sweep CSV has {len(rows)} rows")
        if not (_all_finite(rows, 3) and _all_finite(rows, 4)):
            problems.append("sweep CSV holds a non-finite value")
        for row in rows:
            k, mean, std = int(row[2]), float(row[3]), float(row[4])
            # every run starts at x = 0, where E^DC is 1 up to rounding
            if k == 0 and (abs(mean - 1.0) > 1e-12 or std > 1e-12):
                problems.append(f"E^DC at k=0 is {mean}, std {std}")
            if mean < 0.0 or std < 0.0:
                problems.append(f"negative E^DC entry in row {row}")
                break
        svg = Path(cfg.output.svg_path).read_text(encoding="ascii")
        if not svg.startswith("<svg") or svg.count("<polyline") != n_cells:
            problems.append("sweep SVG is malformed")
        return problems


class Steady:
    """Criterion 6's shape, run in both placement modes.

    Chosen because at N=20 the per-iteration fixed cost dominates, and
    because broadcast draws twice per iteration where analysis_faithful
    draws once, so a change that helps one mode and costs the other shows.
    K stays at 5000: shorter runs fail the settle rule of the check.
    """

    name = "steady"
    N_NODES = 20
    MAX_ITER = 5000
    SIGMAS = (1e-3, 1e-2)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.graph_seed = rng.randrange(2 ** 32)
        self.problem_seed = rng.randrange(2 ** 32)
        self.noise_seed = rng.randrange(2 ** 32)
        self.units = len(self.SIGMAS) * len(PLACEMENT_MODES)

    def run(self) -> list[Unit]:
        g = topology.gen_connected_graph(self.N_NODES, 0.3, self.graph_seed)
        obj, _ = objective.make_problem(self.N_NODES, 3, 1e-3, "well_conditioned",
                                        self.problem_seed)
        sp = topology.spectral_summary(topology.build_arc_matrices(g)).sigma_max_mplus
        c = 2.0 * obj.m_f / max(sp * sp, sp)
        ref = admm.reference_point(g, obj)
        units = []
        for cell, sigma_e in enumerate(self.SIGMAS):
            # per-node norm sigma_e/sqrt(N) makes the stacked error norm sigma_e
            model = NoiseModel.fixed_norm(sigma_e / math.sqrt(g.n_nodes))
            stream = RandomStream(seed=self.noise_seed, cell=cell)
            for mode in PLACEMENT_MODES:
                traj = admm.run_decentralized(g, obj, c, model, mode, self.MAX_ITER,
                                              stream, record="light")
                xerr = admm.x_err_series(traj, ref)
                name = f"{mode}.{sigma_e:g}"
                unit = Unit(name, {f"xerr.{name}": sha256_floats(xerr)})
                if not np.all(np.isfinite(xerr)):
                    unit.problems.append("non-finite x error")
                try:
                    res = analysis.steady_state_check(traj, ref, sigma_e, g)
                except ValueError as err:
                    unit.problems.append(f"steady_state_check: {err}")
                else:
                    if not res.tail_mean <= res.bound_stated:
                        unit.problems.append(f"tail mean {res.tail_mean:.3e} exceeds "
                                             f"max_degree*sigma_e {res.bound_stated:.3e}")
                units.append(unit)
        return units


class Audit:
    """The `run` and `audit` CLI commands on the full-profile graph, full record.

    Chosen as the workload that bypasses the noise layer (the quantizer is
    deterministic in x) and exercises the dense arc operators, full-record
    bookkeeping, the contraction audit and per-row CSV formatting.  c is
    set from trial 0's certificate so that audited iterations are checked.
    """

    name = "audit"
    MAX_ITER = 1000
    SIGMA = 1e-4

    def __init__(self, seed: int, workdir: Path):
        base = ExperimentConfig(
            seed=seed, trials=1,
            graph=GraphConfig(n_nodes=200, rho=0.04),
            problem=ProblemConfig(dim=3, obs_noise_var=1e-3, design_kind="well_conditioned"),
            admm=AdmmConfig(c=(1.0,), max_iter=self.MAX_ITER),
            noise=NoiseConfig(model="quantizer", sigma_e=(self.SIGMA,), delta=1e-4,
                              placement_mode="analysis_faithful"),
            output=OutputConfig(csv_path=str(workdir / "unused.csv"), svg_path=None),
        )
        self.base_path = workdir / "audit-base.json"
        base.save(self.base_path)
        self.config_path = workdir / "audit.json"
        self.run_csv = workdir / "run.csv"
        self.audit_csv = workdir / "audit.csv"
        self.units = 2

    def run(self) -> list[Unit]:
        cfg = config.load_config(self.base_path)
        graph_seed, problem_seed = experiment.trial_seeds(cfg, 0)
        g = topology.gen_connected_graph(cfg.graph.n_nodes, cfg.graph.rho, graph_seed)
        obj, _ = objective.make_problem(cfg.graph.n_nodes, cfg.problem.dim,
                                        cfg.problem.obs_noise_var,
                                        cfg.problem.design_kind, problem_seed)
        spec = topology.spectral_summary(topology.build_arc_matrices(g))
        sp = spec.sigma_max_mplus
        # half the largest c for which both certificate conditions hold
        c = obj.m_f / max(sp * sp, sp)
        _, delta = analysis.optimize_delta(spec, obj.m_f, obj.M_f, c)
        replace(cfg, admm=replace(cfg.admm, c=(c,))).save(self.config_path)
        cell = ["--config", str(self.config_path), "--cell", f"{c!r},{self.SIGMA!r}"]

        run = Unit("run")
        if delta <= 0.0:
            run.problems.append(f"certificate delta {delta} is not positive")
        rc = cli.main(["run", *cell, "--out", str(self.run_csv)])
        if rc != 0:
            run.problems.append(f"`run` exited {rc}")
        else:
            run.digests["run.csv"] = sha256_file(self.run_csv)
            header, rows = _read_csv(self.run_csv)
            if len(rows) != self.MAX_ITER + 1:
                run.problems.append(f"run CSV has {len(rows)} rows")
            if not all(_all_finite(rows, col) for col in (1, 2, 3)):
                run.problems.append("run CSV holds a non-finite value")

        audit = Unit("audit")
        rc = cli.main(["audit", *cell, "--out", str(self.audit_csv)])
        if rc != 0:
            audit.problems.append(f"`audit` exited {rc}")
        else:
            audit.digests["audit.csv"] = sha256_file(self.audit_csv)
            header, rows = _read_csv(self.audit_csv)
            col = {name: i for i, name in enumerate(header)}
            if len(rows) != self.MAX_ITER:
                audit.problems.append(f"audit CSV has {len(rows)} rows")
            violations = sum(int(row[col["violation"]]) for row in rows)
            checked = sum(int(row[col["checked"]]) for row in rows)
            if violations:
                audit.problems.append(f"{violations} certificate violations")
            if checked == 0:
                audit.problems.append("no iteration was checked against the certificate")
        return [run, audit]


WORKLOADS = {cls.name: cls for cls in (Sweep, Steady, Audit)}


def digest_matrix(workdir: Path) -> dict[str, str]:
    """CSV digests of every noise model x placement x {experiment, run, audit}.

    Runs the CLI in-process on a tiny config; its stdout is discarded.
    """
    digests = {}
    for model in NOISE_KINDS:
        for mode in PLACEMENT_MODES:
            cfg = ExperimentConfig(
                seed=7, trials=2,
                graph=GraphConfig(n_nodes=8, rho=0.5),
                problem=ProblemConfig(dim=2, obs_noise_var=1e-3,
                                      design_kind="well_conditioned"),
                admm=AdmmConfig(c=(0.05, 0.5), max_iter=40),
                noise=NoiseConfig(model=model, sigma_e=(1e-2,), delta=1e-2,
                                  placement_mode=mode),
                output=OutputConfig(csv_path=str(workdir / "matrix-experiment.csv"),
                                    svg_path=None),
            )
            path = workdir / "matrix.json"
            cfg.save(path)
            commands = {
                "experiment": ["experiment", "--config", str(path)],
                "run": ["run", "--config", str(path), "--cell", "0.05,0.01",
                        "--out", str(workdir / "matrix-run.csv")],
                "audit": ["audit", "--config", str(path), "--cell", "0.05,0.01",
                          "--out", str(workdir / "matrix-audit.csv")],
            }
            for command, argv in commands.items():
                with redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"`{' '.join(argv)}` exited {rc}")
                digests[f"{command}/{model}/{mode}"] = sha256_file(
                    workdir / f"matrix-{command}.csv")
    return digests
