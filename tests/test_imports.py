"""Every name imported into a package module is used there, and none is private."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncadmm"

# Imported but not called: the benchmark's tracer wraps these module
# attributes by name, so the names must stay bound in ``cli``.  Each entry
# must stay an unused import, so the list cannot outlive its reason.
ALLOWED = {("cli", "make_problem"), ("cli", "derive_ez_block")}


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in ALLOWED]
    assert unused == []


def test_allowed_entries_are_unused_imports():
    """An entry whose name is now called, or no longer imported, is stale."""
    stale = sorted((module, name) for module, name in ALLOWED
                   if name not in unused_imports(SRC / f"{module}.py"))
    assert stale == []


def private_imports(path):
    """Underscore names that a package module imports from another package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("ncadmm"))
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_imports(path):
    """A module's underscore names, such as admm's block size, stay behind it."""
    assert private_imports(path) == []


def writes_text(call):
    """Whether a call is a text write: ``write_text``, or ``open`` in a text mode for writing."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name == "write_text":
        return True
    if name != "open":
        return False
    keywords = {kw.arg: kw.value for kw in call.keywords}
    mode = call.args[1] if len(call.args) > 1 else keywords.get("mode")
    return (isinstance(mode, ast.Constant) and "b" not in mode.value
            and any(flag in mode.value for flag in "wax"))


def text_writes(path):
    """(enclosing function, call) for each text write in a module.

    The function is named by its dotted path in the module, such as
    ``ExperimentConfig.save``; a write at module level has the name "".
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and writes_text(child):
                found.append((".".join(scope), child))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def unpinned_text_writes(path):
    """Lines of text writes that leave ``newline`` unset.

    Without ``newline=""`` a text write on a platform whose line separator
    is not LF turns every "\\n" into that separator.
    """
    return [call.lineno for _, call in text_writes(path)
            if "newline" not in {kw.arg for kw in call.keywords}]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_text_writes_pin_newline(path):
    """Every file the package writes ends its lines in LF on any platform."""
    assert unpinned_text_writes(path) == []


def test_one_writer():
    """Every output leaves through ``write_lines``; the config's JSON is the one other file."""
    writers = {f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py"))
               for scope, _ in text_writes(path)}
    assert writers == {"experiment.write_lines", "config.ExperimentConfig.save"}


def test_text_writes_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("open('a', 'w')\n"
                     "class C:\n"
                     "    def save(self, p):\n"
                     "        p.write_text('x', newline='')\n"
                     "        def inner():\n"
                     "            open('b', mode='xt')\n"
                     "def read():\n"
                     "    open('c')\n"
                     "    open('d', 'wb')\n",
                     encoding="utf-8", newline="")
    assert [(scope, call.lineno) for scope, call in text_writes(probe)] == [
        ("", 1), ("C.save", 4), ("C.save.inner", 6)]
    assert unpinned_text_writes(probe) == [1, 6]


ENVIRONMENT = ("environ", "getenv")


def environment_reads(path):
    """Lines that reach ``os.environ`` or ``os.getenv``, as an attribute or a from-import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                  or isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name in ENVIRONMENT for alias in node.names))


def test_environment_reads_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom os import environ\nfrom os import getenv as g\n"
                     "from os import path\nos.environ.get('A')\nos.getenv('B')\n",
                     encoding="utf-8", newline="")
    assert environment_reads(probe) == [2, 3, 5, 6]


def test_no_environment_reads():
    """Flags and config files are the only knobs: no module reads the environment."""
    reads = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in environment_reads(path)]
    assert reads == []
