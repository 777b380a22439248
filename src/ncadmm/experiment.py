"""Monte Carlo sweep orchestration and artifact emission.

Each trial draws a fresh connected graph and estimation problem from
trial-derived seeds; within the trial, every (c, sigma_e) sweep cell reuses
that graph and problem but consumes an independent noise substream keyed by
the cell index, isolating the parameter effect.  Trials may execute
concurrently; per-trial results are deterministic functions of the config
seed and trial index, and aggregation always happens in fixed trial order,
so the emitted CSV is byte-identical regardless of the job count.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .admm import run_decentralized
from .analysis import TheoryReport, edc_metric, optimize_delta, theory_constants
from .config import ExperimentConfig
from .noise import RandomStream, fold_key
from .objective import ObjectiveSet, make_problem
from .topology import (Graph, build_arc_matrices, gen_connected_graph,
                       spectral_summary)

# Trial-level seed domains (disjoint from the tags used inside the modules).
_TRIAL_GRAPH = 11
_TRIAL_PROBLEM = 12

SVG_FLOOR = 1e-16


@dataclass(eq=False)
class SweepResult:
    """Aggregated E^DC curves of one sweep.

    ``mean``/``std`` have shape (n_cells, max_iter + 1); the standard
    deviation is the population value over exactly ``trials`` runs.
    """

    cells: list[tuple[float, float]]
    mean: np.ndarray
    std: np.ndarray
    trials: int
    wall_time: float


def trial_seeds(cfg: ExperimentConfig, trial: int) -> tuple[int, int]:
    return (fold_key(cfg.seed, (_TRIAL_GRAPH, trial)),
            fold_key(cfg.seed, (_TRIAL_PROBLEM, trial)))


def trial_instance(cfg: ExperimentConfig, trial: int) -> tuple[Graph, ObjectiveSet]:
    """The graph and estimation problem that every cell of ``trial`` shares."""
    graph_seed, problem_seed = trial_seeds(cfg, trial)
    g = gen_connected_graph(cfg.graph.n_nodes, cfg.graph.rho, graph_seed)
    obj, _ = make_problem(cfg.graph.n_nodes, cfg.problem.dim,
                          cfg.problem.obs_noise_var, cfg.problem.design_kind,
                          problem_seed)
    return g, obj


def run_trial(cfg: ExperimentConfig, trial: int) -> np.ndarray:
    """All sweep-cell E^DC curves of one trial: shape (n_cells, K+1).

    A cell whose curve is not finite (overflow from a huge sigma_e, say)
    fails the trial at once, naming the first non-finite iteration;
    floating-point warnings on the way there are silenced, because the
    error reports them.
    """
    g, obj = trial_instance(cfg, trial)
    x_central = obj.centralized_solution()
    curves = np.empty((len(cfg.cells()), cfg.admm.max_iter + 1))
    for cell_idx, (c, sigma_e) in enumerate(cfg.cells()):
        stream = RandomStream(seed=cfg.seed, trial=trial, cell=cell_idx)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_decentralized(
                g, obj, c,
                cfg.noise_model(sigma_e),
                cfg.noise.placement_mode,
                cfg.admm.max_iter,
                stream,
                record="light",
            )
            curves[cell_idx] = edc_metric(traj, x_central)
        require_finite(curves[cell_idx],
                       f"E^DC in trial {trial} at c={c:g} sigma_e={sigma_e:g}")
    return curves


def require_finite(series: np.ndarray, what: str) -> None:
    """Reject a per-iteration series that is not finite, naming its first bad k."""
    finite = np.isfinite(series)
    if not finite.all():
        raise ValueError(f"non-finite {what}, first at k={int(np.argmin(finite))}")


def preflight_reports(cfg: ExperimentConfig) -> list[TheoryReport]:
    """Certificate constants per sweep cell, evaluated on trial 0's instance."""
    g, obj = trial_instance(cfg, 0)
    spec = spectral_summary(build_arc_matrices(g))
    reports = []
    for c, sigma_e in cfg.cells():
        if obj.m_f > 0.0:
            mu_star, _ = optimize_delta(spec, obj.m_f, obj.M_f, c)
            reports.append(theory_constants(spec, obj.m_f, obj.M_f, c, mu_star,
                                            sigma_e=sigma_e))
        else:
            reports.append(None)
    return reports


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, quiet: bool = False) -> SweepResult:
    """Execute the full sweep: preflight, trials, fixed-order aggregation."""
    start = time.monotonic()
    # allocated first, so a sweep too large to hold fails before any compute
    record = np.empty((cfg.trials, len(cfg.cells()), cfg.admm.max_iter + 1))
    if not quiet:
        for (c, sigma_e), report in zip(cfg.cells(), preflight_reports(cfg)):
            body = ("m_f = 0 (no certificate for this instance)" if report is None
                    else json.dumps(report.to_json_dict()))
            print(f"preflight c={c:g} sigma_e={sigma_e:g}: {body}", file=sys.stderr)
            if report is not None and not report.conditions_hold:
                print(f"warning: certificate conditions violated for "
                      f"c={c:g} sigma_e={sigma_e:g} "
                      f"(cond_squared={report.cond_squared}, "
                      f"cond_linear={report.cond_linear})", file=sys.stderr)

    workers = min(jobs, cfg.trials)
    if workers <= 1:
        for t in range(cfg.trials):
            record[t] = run_trial(cfg, t)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for t, curves in enumerate(pool.map(run_trial, [cfg] * cfg.trials, range(cfg.trials))):
                record[t] = curves

    return SweepResult(
        cells=cfg.cells(),
        mean=record.mean(axis=0),
        std=record.std(axis=0, ddof=0),
        trials=cfg.trials,
        wall_time=time.monotonic() - start,
    )


def format_sci_column(values) -> list[str]:
    """Each entry of ``values``, in C order, as a 17-digit scientific string.

    The notation is locale-independent; zero (either sign) is the
    canonical ``0e0``; exponents carry no sign padding or leading zeros.
    The whole array is formatted by one ``%`` operation.  "%.16e" writes
    the exponent with a sign and at least two digits (e+05, e-12, e+308),
    and only a two-digit exponent can start with a zero, so dropping "+"
    and one leading zero gives those exponents.  A non-finite entry raises
    the ``ValueError`` that formatting the entries one by one would raise
    first.
    """
    flat = np.asarray(values, dtype=float).reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        raise ValueError(f"non-finite value in output: {float(flat[np.argmin(finite)])}")
    text = ("%.16e," * flat.size) % tuple(flat.tolist())
    text = text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")
    strings = text.split(",")[:-1]
    for i in np.flatnonzero(flat == 0.0).tolist():
        strings[i] = "0e0"
    return strings


def write_lines(path, lines) -> None:
    """Write ``lines`` as ASCII, LF-terminated, to ``path`` or, for None, to stdout.

    Every CSV, SVG and edge list the package writes goes out through here.
    """
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def write_table(path, header: str, *columns) -> None:
    """Write ``header`` and one CSV row per entry of the equal-length 1-D ``columns``.

    A float column is written by :func:`format_sci_column`, a string column
    as it is, any other as integers; a masked entry (``numpy.ma``) is left
    blank.
    """
    texts = []
    for column in map(np.ma.asarray, columns):
        if column.dtype.kind == "f":
            text = format_sci_column(column.filled(0.0))
        elif column.dtype.kind == "U":
            text = column.filled("").tolist()
        else:
            text = list(map(str, column.filled(0).astype(int).tolist()))
        if np.ma.is_masked(column):
            text = ["" if blank else t for t, blank in zip(text, column.mask.tolist())]
        texts.append(text)
    write_lines(path, [header, *map(",".join, zip(*texts, strict=True))])


def emit_csv(result: SweepResult, path) -> None:
    """Write `c,sigma_e,k,mean_edc,std_edc` rows sorted by (c, sigma_e, k)."""
    order = sorted(range(len(result.cells)), key=lambda i: result.cells[i])
    n_k = result.mean.shape[1]
    # each cell's c and sigma_e are formatted once and repeated on its rows
    cells = format_sci_column([result.cells[i] for i in order])
    write_table(path, "c,sigma_e,k,mean_edc,std_edc",
                np.repeat(cells[0::2], n_k), np.repeat(cells[1::2], n_k),
                np.tile(np.arange(n_k), len(order)),
                result.mean[order].ravel(), result.std[order].ravel())


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def emit_svg(result: SweepResult, path) -> None:
    """Self-contained log-linear plot: one polyline per sweep cell."""
    if not result.cells:
        raise ValueError("cannot plot an empty sweep")
    width, height = 860.0, 520.0
    left, right, top, bottom = 70.0, 230.0, 30.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    curves = np.maximum(result.mean, SVG_FLOOR)
    n_k = curves.shape[1]
    lo = np.floor(np.log10(curves.min()))
    hi = np.ceil(np.log10(curves.max()))
    if hi <= lo:
        hi = lo + 1.0

    def x_px(k):
        return left + plot_w * (k / max(1, n_k - 1))

    def y_px(v):
        return top + plot_h * (hi - np.log10(v)) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    # y decade ticks and gridlines
    decade = lo
    while decade <= hi:
        y = y_px(10.0 ** decade)
        parts.append(f'<line x1="{left:.1f}" y1="{y:.2f}" x2="{left + plot_w:.1f}" '
                     f'y2="{y:.2f}" stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8:.1f}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="12">1e{int(decade)}</text>')
        decade += 1.0
    # x ticks
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = frac * (n_k - 1)
        x = x_px(k)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.1f}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 5:.1f}" stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 20:.1f}" text-anchor="middle" '
                     f'font-family="monospace" font-size="12">{int(round(k))}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 10:.1f}" '
                 'text-anchor="middle" font-family="monospace" font-size="13">'
                 'iteration k</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="monospace" font-size="13" '
                 f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">mean E_DC</text>')

    xs = x_px(np.arange(n_k)).tolist()
    ys = y_px(curves)
    order = sorted(range(len(result.cells)), key=lambda i: result.cells[i])
    for slot, i in enumerate(order):
        c, sigma_e = result.cells[i]
        color = _PALETTE[slot % len(_PALETTE)]
        points = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys[i].tolist())))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = top + 16 + 18 * slot
        lx = left + plot_w + 14
        parts.append(f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" '
                     f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-family="monospace" '
                     f'font-size="12">c={c:g} sigma_e={sigma_e:g}</text>')
    parts.append("</svg>")
    write_lines(path, parts)
