"""Tests of the benchmark itself: golden digests, exact counters, packaging.

    python3 -m pytest ncbench -q

Slow by design (about a minute): each workload runs two traced passes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import EngineProbe, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, digest_matrix  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="ascii"))

EXACT_COUNTERS = ("noise.calls", "noise.normals", "admm.node_iters",
                  "topology.arc_apply.calls", "topology.arc_apply.bytes")


def test_digest_matrix_matches_golden(tmp_path):
    matrix = digest_matrix(tmp_path)
    assert len(matrix) == 4 * 2 * 3
    assert matrix == GOLDEN["matrix"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_passes_repeat_counters_and_match_golden(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path)
    counters, digests = [], []
    for _ in range(2):
        probe, tracer = EngineProbe(), Tracer()
        with installed(probe, tracer):
            units = workload.run()
        assert len(units) == workload.units
        assert [p for u in units for p in u.problems] == []
        digests.append({k: v for u in units for k, v in u.digests.items()})
        metrics = tracer.metrics()
        counters.append({k: metrics[k] for k in EXACT_COUNTERS})
        assert metrics["admm.node_iters"] == probe.node_iters > 0
        assert all(metrics[f"{layer}.failed"] == 0 for layer in
                   ("noise", "admm", "topology", "objective", "analysis",
                    "experiment", "cli", "config"))
    assert counters[0] == counters[1]
    assert digests[0] == digests[1] == GOLDEN["workloads"][name]["0"]


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "ncbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ncbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
