"""The benchmark's fast self-tests: every name it traces is still bound."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_bindings_and_spec():
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py",
         "SpecTest", "BindingCoverageTest", "ReferenceCopyTest", "OutputCheckTest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
