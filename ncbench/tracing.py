"""Spans and counters around the calls the benchmark makes into ncadmm.

Nothing under ``src/`` is instrumented.  Instead, each public function is
replaced, for the duration of a traced pass, by a wrapper installed on the
module attribute its consumer looks it up through (for example
``ncadmm.admm.sample_error_block``, which is what the engine calls, or
``ncadmm.cli.audit_contraction``).  ``ArcMatrices.apply_*`` and
``ObjectiveSet.centralized_solution`` are wrapped on the class.

A span is ``[layer, key, start, end, parent, failed]``; spans live in a
list in memory and are written out after the pass.  Self time is a span's
duration minus the durations of its direct children.  A ``*_s`` metric of
a key is inclusive: the summed duration of that key's spans that have no
ancestor with the same key, so a call nested in a call of the same kind is
not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

_RANDOM_KINDS = ("gaussian", "fixed_norm")


def _bindings():
    """(owner, attribute, layer, key) for every binding a workload reaches."""
    from ncadmm import admm, analysis, cli, config, experiment, objective, topology
    return [
        (admm, "sample_error_block", "noise", "sample"),
        (analysis, "derive_ez_block", "noise", "derive_ez"),
        (cli, "derive_ez_block", "noise", "derive_ez"),
        (admm, "run_decentralized", "admm", "engine"),
        (experiment, "run_decentralized", "admm", "engine"),
        (cli, "run_decentralized", "admm", "engine"),
        (admm, "reference_point", "admm", "reference"),
        (cli, "reference_point", "admm", "reference"),
        (topology, "gen_connected_graph", "topology", "graph"),
        (experiment, "gen_connected_graph", "topology", "graph"),
        (cli, "gen_connected_graph", "topology", "graph"),
        (topology, "build_arc_matrices", "topology", "arc_build"),
        (admm, "build_arc_matrices", "topology", "arc_build"),
        (analysis, "build_arc_matrices", "topology", "arc_build"),
        (experiment, "build_arc_matrices", "topology", "arc_build"),
        (cli, "build_arc_matrices", "topology", "arc_build"),
        (topology, "spectral_summary", "topology", "spectral"),
        (experiment, "spectral_summary", "topology", "spectral"),
        (cli, "spectral_summary", "topology", "spectral"),
        (objective, "make_problem", "objective", "problem"),
        (experiment, "make_problem", "objective", "problem"),
        (cli, "make_problem", "objective", "problem"),
        (analysis, "optimize_delta", "analysis", "certificate"),
        (experiment, "optimize_delta", "analysis", "certificate"),
        (experiment, "theory_constants", "analysis", "certificate"),
        (cli, "optimize_delta", "analysis", "certificate"),
        (cli, "theory_constants", "analysis", "certificate"),
        (cli, "audit_contraction", "analysis", "audit"),
        (analysis, "steady_state_check", "analysis", "series"),
        (analysis, "gnorm_series", "analysis", "series"),
        (analysis, "x_err_series", "analysis", "series"),
        (admm, "x_err_series", "analysis", "series"),
        (experiment, "edc_metric", "analysis", "series"),
        (cli, "edc_metric", "analysis", "series"),
        (cli, "gnorm_series", "analysis", "series"),
        (cli, "x_err_series", "analysis", "series"),
        (experiment, "preflight_reports", "experiment", "orchestrate"),
        (cli, "preflight_reports", "experiment", "orchestrate"),
        (experiment, "run_experiment", "experiment", "orchestrate"),
        (cli, "run_experiment", "experiment", "orchestrate"),
        (experiment, "run_trial", "experiment", "orchestrate"),
        (experiment, "emit_csv", "experiment", "emit"),
        (experiment, "emit_svg", "experiment", "emit"),
        (cli, "emit_csv", "experiment", "emit"),
        (cli, "emit_svg", "experiment", "emit"),
        (cli, "main", "cli", "command"),
        (config, "load_config", "config", "load"),
        (cli, "load_config", "config", "load"),
        (topology.ArcMatrices, "apply_mplus_t", "topology", "arc_apply"),
        (topology.ArcMatrices, "apply_mminus_t", "topology", "arc_apply"),
        (topology.ArcMatrices, "apply_mplus", "topology", "arc_apply"),
        (topology.ArcMatrices, "apply_mminus", "topology", "arc_apply"),
        (objective.ObjectiveSet, "centralized_solution", "objective", "central"),
    ]


LAYERS = ("noise", "admm", "topology", "objective", "analysis",
          "experiment", "cli", "config")


class EngineProbe:
    """Marks the first engine call of a pass and counts node-iterations.

    This is the only hook active in an untraced pass: one clock read and one
    argument bind per engine run.  With ``abort`` set it raises
    :class:`SetupDone` instead of running the engine, which is how a
    set-up-only repetition ends exactly where a pass's set-up ends.
    """

    def __init__(self):
        self.first_call: float | None = None
        self.node_iters = 0
        self.abort = False

    def reset(self, abort: bool = False) -> None:
        self.first_call = None
        self.node_iters = 0
        self.abort = abort

    def wrap(self, fn):
        sig = inspect.signature(fn)
        probe = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if probe.first_call is None:
                probe.first_call = time.perf_counter()
            if probe.abort:
                raise SetupDone
            bound = sig.bind(*args, **kwargs)
            probe.node_iters += bound.arguments["g"].n_nodes * bound.arguments["max_iter"]
            return fn(*args, **kwargs)
        return probed


class SetupDone(Exception):
    """Raised by an aborting :class:`EngineProbe` at the first engine call."""


@contextmanager
def installed(probe: EngineProbe, tracer: "Tracer | None" = None):
    """Install the engine probe, and the tracer's wrappers when given."""
    saved = []
    try:
        for owner, attr, layer, key in _bindings():
            fn = owner.__dict__[attr]
            wrapped = fn
            if tracer is not None:
                wrapped = tracer.wrap(layer, key, wrapped)
            if key == "engine":
                wrapped = probe.wrap(wrapped)
            if wrapped is not fn:
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


class Tracer:
    """In-memory spans plus exact counters derived from call arguments."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, layer: str, key: str, fn):
        count = self._counter(key, fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, key, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, rec)
            return result
        return traced

    def _counter(self, key: str, fn):
        counts = self.counts
        if key == "sample":
            def count(args, kwargs, result, rec):
                model = args[0] if args else kwargs["model"]
                counts["noise.calls"] += 1
                if model.kind in _RANDOM_KINDS:
                    counts["noise.normals"] += result.size
                    counts["noise.random_s"] += rec[3] - rec[2]
            return count
        if key == "engine":
            bind = _bound(fn)

            def count(args, kwargs, result, rec):
                a = bind(args, kwargs)
                counts["admm.runs"] += 1
                counts["admm.node_iters"] += a["g"].n_nodes * a["max_iter"]
                counts["admm.iters"] += a["max_iter"]
                counts[f"admm.iters.{a['mode']}"] += a["max_iter"]
                counts[f"admm.engine_s.{a['mode']}"] += rec[3] - rec[2]
            return count
        if key == "arc_apply":
            def count(args, kwargs, result, rec):
                am, operand = args[0], args[1]
                counts["topology.arc_apply.calls"] += 1
                counts["topology.arc_apply.bytes"] += (
                    am.m_plus.nbytes + operand.nbytes + result.nbytes)
            return count
        if key == "emit":
            def count(args, kwargs, result, rec):
                path = args[1] if len(args) > 1 else kwargs["path"]
                counts["experiment.emit.bytes"] += os.path.getsize(path)
            return count
        if key == "command":
            def count(args, kwargs, result, rec):
                argv = list(args[0] if args else kwargs["argv"])
                counts[f"cli.{argv[0]}_s"] += rec[3] - rec[2]
                if result == 0 and "--out" in argv:
                    counts["cli.bytes"] += os.path.getsize(argv[argv.index("--out") + 1])
            return count
        return None

    def write(self, path) -> None:
        """Dump the spans as JSON lines: layer, key, start, end, parent, failed."""
        with open(path, "w", encoding="ascii") as fh:
            for layer, key, t0, t1, parent, failed in self.spans:
                fh.write(json.dumps([layer, key, t0, t1, parent, failed]) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, key, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0

        def ancestors(idx: int):
            parent = spans[idx][4]
            while parent >= 0:
                yield spans[parent]
                parent = spans[parent][4]

        incl = defaultdict(float)
        self_key = defaultdict(float)
        failed = defaultdict(int)
        in_engine = defaultdict(float)
        for idx, (layer, key, t0, t1, parent, bad) in enumerate(spans):
            self_key[key] += t1 - t0 - child_time[idx]
            above = list(ancestors(idx))
            if all(a[1] != key for a in above):
                incl[key] += t1 - t0
            if bad and all(a[0] != layer for a in above):
                failed[layer] += 1
            if any(a[1] == "engine" for a in above):
                in_engine[key] += t1 - t0

        c = self.counts
        engine_s = incl["engine"]
        iters = c["admm.iters"]

        def ratio(num, den, scale=1.0):
            return scale * num / den if den > 0 else 0.0

        out = {
            "noise.calls": c["noise.calls"],
            "noise.busy_s": self_key["sample"] + self_key["derive_ez"],
            "noise.normals": c["noise.normals"],
            "noise.normals_per_s": ratio(c["noise.normals"], c["noise.random_s"]),
            "noise.share": ratio(in_engine["sample"], engine_s),
            "admm.runs": c["admm.runs"],
            "admm.node_iters": c["admm.node_iters"],
            "admm.engine_s": engine_s,
            "admm.self_s": self_key["engine"],
            "admm.self_us_per_iter": ratio(self_key["engine"], iters, 1e6),
            "admm.reference_s": incl["reference"],
            "topology.graph_s": incl["graph"],
            "topology.arc_build_s": incl["arc_build"],
            "topology.spectral_s": incl["spectral"],
            "topology.arc_apply.calls": c["topology.arc_apply.calls"],
            "topology.arc_apply_s": incl["arc_apply"],
            "topology.arc_apply.bytes": c["topology.arc_apply.bytes"],
            "topology.arc_apply.engine_share": ratio(in_engine["arc_apply"], engine_s),
            "objective.problem_s": incl["problem"],
            "objective.central_s": incl["central"],
            "analysis.certificate_s": incl["certificate"],
            "analysis.audit_s": incl["audit"],
            "analysis.series_s": incl["series"],
            "experiment.self_s": self_key["orchestrate"],
            "experiment.emit_s": incl["emit"],
            "experiment.emit.bytes": c["experiment.emit.bytes"],
            "cli.run_s": c["cli.run_s"],
            "cli.audit_s": c["cli.audit_s"],
            "cli.self_s": self_key["command"],
            "cli.bytes": c["cli.bytes"],
            "config.load_s": incl["load"],
            "trace.spans": float(len(spans)),
        }
        for mode in ("analysis_faithful", "broadcast"):
            out[f"admm.us_per_iter.{mode}"] = ratio(
                c[f"admm.engine_s.{mode}"], c[f"admm.iters.{mode}"], 1e6)
        for layer in LAYERS:
            out[f"{layer}.failed"] = float(failed[layer])
        return out
