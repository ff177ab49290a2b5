"""Tests for the package's public surface."""

import ast
import pathlib
import sys

import regenext

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "regenext"


def test_every_exported_name_resolves():
    missing = [name for name in regenext.__all__ if not hasattr(regenext, name)]
    assert missing == []
    assert len(set(regenext.__all__)) == len(regenext.__all__)


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module,
    so running regenext needs nothing installed."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
