"""Source-level checks on the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpmod"


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
