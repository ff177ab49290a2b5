"""The mutant catalogue of tests/mutants.py stays anchored in the code: each
mutant's old text occurs exactly once in its file, the mutated file still
compiles, and each named test is defined.  Running the mutants themselves is
the script's job, outside this suite."""

import ast
import pathlib

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_mutant_is_anchored_once_and_compiles():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        path = ROOT / "src" / "regenext" / m.file
        text = path.read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        compile(text.replace(m.old, m.new), str(path), "exec")


def test_every_named_test_is_defined():
    defined = {}
    for m in MUTANTS:
        assert m.tests, m.name
        for node_id in m.tests:
            file, _, name = node_id.partition("::")
            if file not in defined:
                tree = ast.parse((ROOT / file).read_text())
                defined[file] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert name in defined[file], (m.name, node_id)
