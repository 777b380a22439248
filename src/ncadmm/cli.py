"""Command-line interface.

Subcommands:
  gen-graph    sample a connected graph and write its edge list
  theory       print the certificate constants per sweep cell as JSON
  run          single trajectory of one sweep cell, with audit columns
  experiment   the full Monte Carlo sweep -> CSV (and optionally SVG)
  audit        per-iteration contraction audit of one cell -> CSV

Flags override config fields; ``--seed`` always wins.  Exit code is 0 on
success and 1 on any failure, with the reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .admm import BROADCAST, reference_point, run_decentralized
from .analysis import (audit_contraction, edc_metric, error_gates,
                       gnorm_series, optimize_delta, theory_constants,
                       x_err_series)
# not called here; ncbench/tracing.py wraps cli.derive_ez_block by name
from .analysis import derive_ez_block  # noqa: F401
from .config import (ConfigError, ExperimentConfig, default_config,
                     full_config, load_config)
from .experiment import (emit_csv, emit_svg, preflight_reports, require_finite,
                         run_experiment, trial_instance, write_table)
from .noise import RandomStream
# not called here; ncbench/tracing.py wraps cli.make_problem by name
from .objective import make_problem  # noqa: F401
from .topology import (GraphConnectivityError, build_arc_matrices,
                       gen_connected_graph, spectral_summary, write_edge_list)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors through ``main`` (one line, exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncadmm",
        description="Decentralized consensus-ADMM simulator with additive "
                    "computation error and convergence certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("gen-graph", help="sample a connected graph")
    p_graph.add_argument("--nodes", type=int, required=True)
    p_graph.add_argument("--rho", type=float, required=True)
    p_graph.add_argument("--seed", type=int, required=True)
    p_graph.add_argument("--out", required=True)

    for name in ("theory", "run", "experiment", "audit"):
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group() if name == "experiment" else p
        source.add_argument("--config",
                            help="JSON experiment config (defaults to the desk profile)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name != "theory":  # theory evaluates trial 0's certificate, not a run
            p.add_argument("--max-iter", type=int, help="override admm.max_iter")
            p.add_argument("--model", help="override the noise model kind")
        if name in ("run", "audit"):
            p.add_argument("--cell", required=True,
                           help="sweep cell as `c,sigma_e` (must match config values)")
            p.add_argument("--out", help="output CSV path (default: stdout)")
        if name == "experiment":
            source.add_argument("--full", action="store_true",
                                help="use the large profile (200 nodes, 100 trials)")
            p.add_argument("--trials", type=int, help="override the trial count")
            p.add_argument("--jobs", type=int, default=1, help="concurrent trials (default 1)")
            p.add_argument("--csv", help="override output.csv_path")
            p.add_argument("--svg", help="override output.svg_path")
    return parser


def _load_with_overrides(args) -> ExperimentConfig:
    flags = vars(args)  # holds only the flags the command defines
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = full_config() if flags.get("full") else default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if flags.get("trials") is not None:
        cfg = replace(cfg, trials=args.trials)
    if flags.get("max_iter") is not None:
        cfg = replace(cfg, admm=replace(cfg.admm, max_iter=args.max_iter))
    if flags.get("model") is not None:
        cfg = replace(cfg, noise=replace(cfg.noise, model=args.model))
    if flags.get("csv") is not None:
        cfg = replace(cfg, output=replace(cfg.output, csv_path=args.csv))
    if flags.get("svg") is not None:
        cfg = replace(cfg, output=replace(cfg.output, svg_path=args.svg))
    cfg.validate()
    return cfg


def _parse_cell(cfg: ExperimentConfig, text: str) -> int:
    try:
        c_str, sigma_str = text.split(",")
        cell = (float(c_str), float(sigma_str))
    except ValueError:
        raise ConfigError(f"--cell must be `c,sigma_e`, got {text!r}") from None
    cells = cfg.cells()
    if cell not in cells:
        raise ConfigError(f"cell {cell} is not in the config sweep {cells}")
    return cells.index(cell)


def _check_out_paths(*paths) -> None:
    """Fail before any compute on an output path whose file cannot be created."""
    for target in (Path(path) for path in paths if path is not None):
        if target.is_dir() or not target.parent.is_dir():
            raise ConfigError(f"output path '{target}' must name a file in an existing directory")


def _note_placement(cfg: ExperimentConfig) -> None:
    if cfg.noise.placement_mode == BROADCAST:
        print("note: the certificate does not cover placement_mode=broadcast, "
              "where the message error also enters the dual update", file=sys.stderr)


def _cell_instance(args):
    """Config, ``--cell`` index and trial 0's instance; all input is checked first."""
    cfg = _load_with_overrides(args)
    cell_idx = _parse_cell(cfg, args.cell)
    _check_out_paths(args.out)
    g, obj = trial_instance(cfg, 0)
    return cfg, cell_idx, g, obj


def _cell_run(cfg, cell_idx, g, obj):
    """Trial 0's trajectory of the cell (record "errors"), its reference point and (c, sigma_e)."""
    c, sigma_e = cfg.cells()[cell_idx]
    traj = run_decentralized(
        g, obj, c, cfg.noise_model(sigma_e), cfg.noise.placement_mode,
        cfg.admm.max_iter, RandomStream(seed=cfg.seed, trial=0, cell=cell_idx),
        record="errors",
    )
    return traj, reference_point(g, obj), c, sigma_e


def _cmd_gen_graph(args) -> int:
    _check_out_paths(args.out)
    g = gen_connected_graph(args.nodes, args.rho, args.seed)
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: {g.n_nodes} nodes, {g.n_edges} edges")
    return 0


def _cmd_theory(args) -> int:
    cfg = _load_with_overrides(args)
    reports = preflight_reports(cfg)
    docs = []
    for report, (c, sigma_e) in zip(reports, cfg.cells()):
        if report is None:
            raise ConfigError(
                f"instance has m_f = 0 at c={c:g}; no certificate exists "
                "(try design_kind=well_conditioned)")
        docs.append(report.to_json_dict())
    print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    _note_placement(cfg)
    return 0


def _cmd_run(args) -> int:
    cfg, cell_idx, g, obj = _cell_instance(args)
    traj, ref, c, sigma_e = _cell_run(cfg, cell_idx, g, obj)
    # overflow (a huge sigma_e, say) is reported once, by require_finite
    with np.errstate(over="ignore", invalid="ignore"):
        gnorm = gnorm_series(traj, ref)
        xerr = x_err_series(traj, ref)
        edc = edc_metric(traj, ref.x_central)
        gates = error_gates(traj, xerr)
    for name, series in (("gnorm_sq", gnorm), ("x_err_2", xerr), ("edc_mean", edc)):
        require_finite(series, f"{name} at c={c:g} sigma_e={sigma_e:g}")
    k = np.arange(len(traj))
    # the final state has no following step, so no gate
    gate = np.ma.masked_array(np.append(gates, False), mask=k == traj.n_iter)
    write_table(args.out, "k,gnorm_sq,x_err_2,edc_mean,gate_satisfied", k, gnorm, xerr, edc, gate)
    _note_placement(cfg)
    return 0


def _cmd_audit(args) -> int:
    cfg, cell_idx, g, obj = _cell_instance(args)
    if obj.m_f <= 0.0:
        raise ConfigError("instance has m_f = 0; no certificate to audit "
                          "(try design_kind=well_conditioned)")
    traj, ref, c, sigma_e = _cell_run(cfg, cell_idx, g, obj)
    spec = spectral_summary(build_arc_matrices(g))
    mu_star, delta_star = optimize_delta(spec, obj.m_f, obj.M_f, c)
    report = theory_constants(spec, obj.m_f, obj.M_f, c, mu_star, sigma_e=sigma_e)
    with np.errstate(over="ignore", invalid="ignore"):
        audit = audit_contraction(traj, ref, report)
    # skipped steps print no ratio and every other ratio is finite; a
    # non-finite slack (the squared condition violated) prints none
    ratios = np.ma.masked_where(audit.skipped, audit.ratios)
    require_finite(ratios.filled(0.0), f"gnorm_ratio at c={c:g} sigma_e={sigma_e:g}")
    write_table(args.out, "k,gnorm_ratio,gate_satisfied,skipped,checked,x_bound_slack,violation",
                np.arange(traj.n_iter), ratios, audit.gates, audit.skipped, audit.checked,
                np.ma.masked_invalid(audit.x_bound_slack),
                audit.contraction_violated | audit.x_bound_violated)
    print(f"delta_star={delta_star:.12g} at mu={mu_star:.6g}; "
          f"bound={audit.bound:.12g}; "
          f"violations: contraction={audit.contraction_violated.sum()} "
          f"x_bound={audit.x_bound_violated.sum()}", file=sys.stderr)
    _note_placement(cfg)
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _load_with_overrides(args)
    _check_out_paths(cfg.output.csv_path, cfg.output.svg_path or None)
    result = run_experiment(cfg, jobs=args.jobs)
    emit_csv(result, cfg.output.csv_path)
    print(f"wrote {cfg.output.csv_path} "
          f"({len(result.cells)} cells x {result.trials} trials, "
          f"{result.wall_time:.1f}s)")
    if cfg.output.svg_path:
        emit_svg(result, cfg.output.svg_path)
        print(f"wrote {cfg.output.svg_path}")
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "theory": _cmd_theory,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError, GraphConnectivityError,
            MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
