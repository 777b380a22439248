"""ncadmm benchmark.

    python3 ncbench/run.py --workload {sweep,steady,audit,all} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src/`` directory and nowhere else, and scratch output goes
to ``.ncbench_work/`` at the checkout root.  One client, closed loop: the
workload's passes run back to back in this single process, with BLAS and
OpenMP pinned to one thread and trials run with ``jobs=1``.

``--trace 0`` runs untraced passes and reports the end-to-end metrics named
in BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, including the tracing overhead.
``--workload all`` runs the three workloads one after another, each in its
own process.  Every pass is checked against the golden digests in
``golden.json`` for the seed, and against the first pass of the run.  A
metric table and an environment stamp go to stdout, followed by the result
as one JSON line; diagnostics go to stderr.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from tracing import EngineProbe, SetupDone, Tracer, installed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An untraced run fills the time its last whole pass leaves with set-up-only
# repetitions (at least MIN_SETUPS), on top of each pass's own set-up.
MIN_SETUPS = 5
MIN_PASSES = 2

WORKLOADS = ("sweep", "steady", "audit")


def import_package():
    """Import ncadmm from this checkout's src/, or exit non-zero."""
    if not (SRC / "ncadmm" / "__init__.py").is_file():
        sys.exit(f"ncbench: no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ncadmm
    if Path(ncadmm.__file__).resolve().parent != (SRC / "ncadmm").resolve():
        sys.exit(f"ncbench: imported ncadmm from {ncadmm.__file__}, not from {SRC}")


@dataclass
class Pass:
    wall: float
    setup: float
    node_iters: int
    ok: bool


class Checker:
    """Counts units and failures; compares digests with golden and first pass."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.first: dict[str, str] = {}
        self.unchecked: set[str] = set()
        self.matched: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def add(self, units, expected: int) -> None:
        if units is None:
            self.attempted += expected
            self.failed += expected
            return
        for unit in units:
            problems = list(unit.problems)
            for name, digest in unit.digests.items():
                if self.first.setdefault(name, digest) != digest:
                    problems.append(f"{name} differs from the run's first pass")
                if self.golden is None or name not in self.golden:
                    self.unchecked.add(name)
                elif self.golden[name] != digest:
                    problems.append(f"{name} digest {digest[:16]} != golden "
                                    f"{self.golden[name][:16]}")
                else:
                    self.matched.add(name)
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAILED {unit.name}: {problem}", file=sys.stderr)
        if len(units) < expected:
            self.attempted += expected - len(units)
            self.failed += expected - len(units)

    def digest_status(self, seed: int) -> str:
        if self.unchecked:
            return (f"digests UNCHECKED for seed {seed} (no golden digest): "
                    + ", ".join(sorted(self.unchecked)))
        return f"digests matched golden: {len(self.matched)}"


def timed_pass(workload, probe, checker, tracer=None) -> Pass:
    probe.reset()
    units = None
    with installed(probe, tracer):
        start = time.perf_counter()
        try:
            units = workload.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
    checker.add(units, workload.units)
    setup = wall if probe.first_call is None else probe.first_call - start
    return Pass(wall=wall, setup=setup, node_iters=probe.node_iters, ok=units is not None)


def setup_only(workload, probe) -> float | None:
    """One pass cut off at its first engine call; returns the set-up time."""
    probe.reset(abort=True)
    with installed(probe):
        start = time.perf_counter()
        try:
            workload.run()
        except SetupDone:
            return probe.first_call - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
    return None


def _fits(passes, deadline: float) -> bool:
    """Whether one more pass of median length ends before the deadline."""
    return time.perf_counter() + median(p.wall for p in passes) <= deadline


def _timed(passes):
    good = [p for p in passes if p.ok]
    return good or passes


def end_to_end(workload, checker, seconds: float) -> dict[str, float]:
    probe = EngineProbe()
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < MIN_PASSES or _fits(passes, deadline):
        passes.append(timed_pass(workload, probe, checker))
        print(f"pass {len(passes)}: wall {passes[-1].wall:.4f} s, "
              f"setup {passes[-1].setup:.4f} s", file=sys.stderr)
    setups = []
    while len(setups) < MIN_SETUPS or time.perf_counter() < deadline:
        setups.append(setup_only(workload, probe))
    setups = [s for s in setups if s is not None]
    print(f"{len(setups)} set-up-only repetitions", file=sys.stderr)
    timed = _timed(passes)
    return {
        "wall_s": median([p.wall for p in timed]),
        "setup_s": median(setups + [p.setup for p in timed]),
        "node_iters_per_s": median([p.node_iters / (p.wall - p.setup) for p in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, checker, seconds: float, spans_path: Path) -> dict[str, float]:
    probe = EngineProbe()
    deadline = time.perf_counter() + seconds
    plain, traced, layer_metrics = [], [], []
    while not traced or _fits(plain, deadline - median(p.wall for p in traced)):
        plain.append(timed_pass(workload, probe, checker))
        tracer = Tracer()
        traced.append(timed_pass(workload, probe, checker, tracer))
        tracer.write(spans_path)
        layer_metrics.append(tracer.metrics())
        print(f"pass {len(traced)}: untraced {plain[-1].wall:.4f} s, traced "
              f"{traced[-1].wall:.4f} s, {len(tracer.spans)} spans", file=sys.stderr)
    out = {name: median([m[name] for m in layer_metrics]) for name in layer_metrics[0]}
    out["trace.overhead_s"] = (median([p.wall for p in _timed(traced)])
                               - median([p.wall for p in _timed(plain)]))
    return out


def _openblas() -> dict:
    import numpy as np
    info = {"build": np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get(
        "openblas configuration", "unknown")}
    import ctypes
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["runtime"] = get_config().decode()
                    info["threads"] = get_threads()
                    return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy as np
    src = hashlib.sha256()
    for path in sorted((SRC / "ncadmm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "blas_threads_env": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS as classes

    workdir = ROOT / ".ncbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    golden = json.loads((HERE / "golden.json").read_text(encoding="ascii"))
    checker = Checker(golden["workloads"].get(args.workload, {}).get(str(args.seed)))
    workload = classes[args.workload](args.seed, workdir)

    if args.trace:
        values = per_layer(workload, checker, args.seconds, workdir / "spans.jsonl")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(workload, checker, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(args.seed)
    status = checker.digest_status(args.seed)
    print(status, file=sys.stderr)

    failed_frac = checker.failed / checker.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{checker.attempted} units, {checker.failed} failed; {status}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {failed_frac:>16.6g} ratio")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    (workdir / "result.json").write_text(
        json.dumps({"env": env, "digests": checker.first, "digest_status": status,
                    **result}, indent=2) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
