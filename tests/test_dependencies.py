"""Only numpy is declared: the package, the tests and the demos import nothing else outside the stdlib."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {
    "src/merminbell": {"numpy"},
    "tests": {"numpy", "pytest", "merminbell"},
    "demos": {"numpy", "merminbell"},
}


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in one file; relative imports stay in the package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("folder", ALLOWED)
def test_imports_are_stdlib_or_allowed(folder):
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files
    foreign = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        for name in _imported_roots(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED[folder]
    }
    assert not foreign, sorted(foreign)


def test_a_foreign_import_is_seen(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\nfrom . import sibling\n\ndef f():\n    from scipy.special import gamma\n")
    assert _imported_roots(path) == {"os", "scipy"}
