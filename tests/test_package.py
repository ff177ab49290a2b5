"""Tests for the package's public surface."""

import ast
import importlib
import pathlib
import sys

import regenext

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "regenext"


def test_every_exported_name_resolves():
    """The package and every submodule that declares __all__ export only
    names they define, each once, so a deletion leaves no stale export."""
    modules = [regenext] + [
        importlib.import_module(f"regenext.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    declaring = [mod for mod in modules if hasattr(mod, "__all__")]
    assert {mod.__name__ for mod in declaring} >= {
        "regenext", "regenext.structure", "regenext.alignment", "regenext.extend"
    }
    for mod in declaring:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], mod.__name__
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__


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


def test_every_imported_name_is_used():
    """Every name a submodule imports is read in that module, so a change
    that drops the last use of an import drops the import too."""
    paths = sorted(path for path in SRC.glob("*.py") if path.stem != "__init__")
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_every_public_definition_is_read():
    """Every public function, class and method that a submodule defines is
    read somewhere in the package, so library code that only the tests use
    is deleted.  Matrix and Subspace.contains are held by the benchmark's
    binding check."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    defined = {}
    for stem, tree in trees.items():
        for node in tree.body if stem != "__init__" else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined[f"{node.name}.{item.name}"] = item.name
    unread = {
        qualified
        for qualified, name in defined.items()
        if not name.startswith("_") and name not in read
    }
    assert unread == {"Matrix", "Subspace.contains"}
