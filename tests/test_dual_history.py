"""No package module reads a trajectory's per-node dual history.

``Trajectory.alphas`` is kept only by record "full", as an oracle for the
tests that compare the engines; the analysis works from the iterates,
beta^0 and the error blocks.  A module that read ``.alphas`` would need
"full" again and the (K+1, N, n) dual history with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncadmm"


def alphas_reads(source: str) -> list[int]:
    """Line numbers of the ``<expr>.alphas`` attribute accesses in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "alphas")


def test_the_check_sees_an_attribute_read():
    assert alphas_reads("x = traj.alphas[0]\ny = Trajectory(alphas=None)\n") == [1]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_the_dual_history(path):
    assert alphas_reads(path.read_text(encoding="utf-8")) == []
