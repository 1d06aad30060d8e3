"""Source-level checks on the package."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpmod"


def test_package_has_no_assert_statements():
    # asserts vanish under ``python -O``; the package raises typed errors
    found = []
    assert (PACKAGE / "__init__.py").is_file()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _reads_environment(node):
    names = ("environ", "getenv")
    if isinstance(node, ast.Attribute):
        return (node.attr in names and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in names for a in node.names)
    return False


def test_package_reads_no_environment():
    # behaviour comes from arguments and config files, not environment knobs
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _reads_environment(node)]
    assert not found, f"environment reads in the package: {found}"


def test_package_imports_only_numpy_and_stdlib():
    # scipy was ruled out for the all-pairs distances: its csgraph.dijkstra
    # gives bitwise-equal distances in about the time of the numpy
    # Bellman-Ford (0.24 s vs 0.25 s at N = 1000 on a 2-CPU Xeon), but
    # importing it costs 0.31-0.39 s and about 33 MB of peak RSS, which every
    # study that computes distances would pay
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".", 1)[0] not in allowed]
    assert not found, f"imports outside numpy and the standard library: {found}"


def test_package_imports_are_all_used():
    # a name imported and never read is a dependency kept for nothing
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{path.name}:{node.lineno}: {name}" for name in
                          (a.asname or a.name.split(".")[0] for a in node.names)
                          if name not in used]
    assert not found, f"imported names the package never reads: {found}"


def test_every_config_key_is_read():
    # a key that no code reads is a knob that does nothing: each known key
    # must appear as a string outside the key table (the assignments that
    # build config.KEYS and _KNOWN_KEYS) and the check that applies it;
    # otherwise listing a key in the table would count as reading it
    from dpmod import config

    table = {"_FILES", "_FAMILY", "KEYS", "_KNOWN_KEYS", "check_reads"}

    def strings(node):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in table for t in node.targets) or \
                isinstance(node, ast.FunctionDef) and node.name in table:
            return set()
        own = {node.value} if isinstance(node, ast.Constant) and \
            isinstance(node.value, str) else set()
        return own.union(*map(strings, ast.iter_child_nodes(node)))

    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= strings(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(config._KNOWN_KEYS - found) == []


def test_oracle_imports_nothing_from_the_solver():
    # the brute-force oracle checks the solver, so it shares no code with it
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [".".join(filter(None, [node.module, a.name])) for a in node.names]
        else:
            continue
        found += [f"oracle.py:{node.lineno}: {name}" for name in names
                  if "solver" in name.split(".")]
    assert not found, f"oracle.py imports the solver: {found}"


def test_readme_python_example_runs():
    # the README's API example imports from the submodules, as every caller
    # must: the package root exports only __version__
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    first, second = run.stdout.splitlines()
    value, label = first.split()
    assert label == "energy-bound"
    assert float(value) == pytest.approx(0.31204396203595114, rel=1e-9)
    assert float(second) == pytest.approx(float(value), rel=1e-12)   # the extremal attains it


def _public_definitions(tree):
    """Each public top-level function and class, and each public method of
    those classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _references(node):
    """How often each name or attribute name is read under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_public_name_is_used_outside_tests():
    # a public helper that only tests call is surface the package carries for
    # them; such helpers live in tests/conftest.py.  A definition counts as
    # used when the package or perfbench/ names it outside its own body.
    # Exempt: oracle.analytic_1d_dp, the closed-form 1-D reference that the
    # tests compare the solver against
    exempt = {"oracle.analytic_1d_dp"}
    modules = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in modules + sorted((ROOT / "perfbench").glob("*.py"))}
    everywhere = sum(map(_references, trees.values()), Counter())
    found = [f"{path.stem}.{name}" for path in modules
             for name, node in _public_definitions(trees[path])
             if f"{path.stem}.{name}" not in exempt
             and everywhere[node.name] <= _references(node)[node.name]]
    assert not found, f"public names that only tests use: {found}"
