"""No run record holds a per-node dual history, and no package module reads one.

The engines stop at x^K and a :class:`ncadmm.admm.Trajectory` keeps the
iterates and the error draws only (every run starts from zero duals); the
analysis derives every arc variable from those.  The tests derive the duals alpha^0..alpha^{K-1}
themselves (``test_admm.derive_alphas``).  A module that read ``.alphas``
would need a stored (K+1, N, n) dual history again.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from ncadmm.admm import RECORDS, Trajectory

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


def test_records_keep_no_dual_history():
    """No record "full", no stored dual or start dual, and no mode or message count."""
    assert RECORDS == ("light", "errors")
    assert not {"alphas", "beta0", "mode"} & {f.name for f in fields(Trajectory)}
    assert not hasattr(Trajectory, "n_messages")
