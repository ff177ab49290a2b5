"""The benchmark's own tests: binding coverage, exact counts, output checks.

    python3 benchmarks/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py) because the traced runs take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import regenext  # noqa: E402

from layers import metric_units  # noqa: E402
from run import _check_outputs, reference_digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def _traced(workload: str) -> dict:
    proc = _run(
        "--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-trace1.json").read_text())
    return {"result": last, "record": record}


class SpecTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(listed, metric_units())


class BindingCoverageTest(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.uninstall)

    def test_every_binding_is_wrapped(self):
        self.assertEqual(self.tracer.unwrapped_bindings(), [])
        copies = {
            "compute_decomposition": ("structure", "extend"),
            "is_well_aligned": ("alignment", "extend"),
            "nullspace": ("linalg", "structure", "alignment"),
            "inv_mod": ("gf", "linalg"),
            "load_code": ("regen", "cli"),
            "save_code": ("regen", "cli"),
            "check_repair_pair": ("regen", "cli"),
            "verify_structure": ("structure", "cli"),
        }
        for name, modules in copies.items():
            for module in modules:
                fn = getattr(sys.modules[f"regenext.{module}"], name)
                self.assertTrue(hasattr(fn, "__wrapped__"), f"regenext.{module}.{name}")
        self.assertTrue(hasattr(regenext.load_code, "__wrapped__"))
        self.assertTrue(hasattr(regenext.Subspace.contains, "__wrapped__"))
        self.assertTrue(hasattr(regenext.Matrix.__init__, "__wrapped__"))

    def test_a_missed_binding_is_reported(self):
        extend = sys.modules["regenext.extend"]
        wrapper = extend.is_well_aligned
        extend.is_well_aligned = wrapper.__wrapped__
        try:
            self.assertEqual(self.tracer.unwrapped_bindings(), ["regenext.extend.is_well_aligned"])
        finally:
            extend.is_well_aligned = wrapper


class OutputCheckTest(unittest.TestCase):
    @staticmethod
    def _rep(inputs: int, digest: str) -> dict:
        return {
            "inputs": inputs,
            "digests": {"grow k3": digest},
            "ops": [{"label": "grow k3", "failure": None}],
        }

    def test_repeat_and_pin_mismatches_fail_the_op(self):
        reps = [self._rep(0, "a"), self._rep(0, "b"), self._rep(1, "c")]
        self.assertEqual(_check_outputs(reps, None), [])
        self.assertIsNone(reps[0]["ops"][0]["failure"])
        self.assertIsNotNone(reps[1]["ops"][0]["failure"])
        self.assertIsNone(reps[2]["ops"][0]["failure"])
        reps = [self._rep(0, "a"), self._rep(1, "c")]
        self.assertEqual(_check_outputs(reps, {"grow k3": "z"}), [])
        self.assertIsNotNone(reps[0]["ops"][0]["failure"])
        self.assertIsNone(reps[1]["ops"][0]["failure"])

    def test_an_input_digest_mismatch_is_a_problem(self):
        rep = self._rep(0, "a")
        rep["digests"]["artifact"] = "b"
        problems = _check_outputs([rep], {"grow k3": "a", "artifact": "c"})
        self.assertEqual(len(problems), 1)


class ReferenceCopyTest(unittest.TestCase):
    def test_reference_copy_matches_its_pin(self):
        pinned = json.loads((HERE / "pinned.json").read_text())
        self.assertEqual(reference_digest(), pinned["reference_sha256"])


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "grow-large", "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class ExactCountTest(unittest.TestCase):
    """Traced runs on the default seed, each made twice."""

    @classmethod
    def setUpClass(cls):
        cls.runs = {
            w: (_traced(w), _traced(w)) for w in ("grow-large", "verify-large", "small-field")
        }

    def metrics(self, workload: str) -> dict:
        first = self.runs[workload][0]
        self.assertTrue(first["result"]["correct"], first["record"]["problems"])
        return first["record"]["trace"]["metrics"]

    def test_verify_large_counts(self):
        m = self.metrics("verify-large")
        self.assertEqual(m["regen.check_repair_pair.calls"], 1980)
        self.assertEqual(m["structure.verify_structure.calls"], 1980)
        self.assertEqual(m["regen.check_recovery_subset.calls"], 220)
        self.assertEqual(m["regen.brute_force_repairable.calls"], 0)

    def test_small_field_counts(self):
        m = self.metrics("small-field")
        self.assertEqual(m["regen.brute_force_repairable.calls"], 360)
        traced_pass = self.runs["small-field"][0]["record"]["passes"][1]
        self.assertEqual(m["extend.attempts"], sum(traced_pass["attempts"]))

    def test_grow_large_counts(self):
        self.assertEqual(self.metrics("grow-large")["extend.extend_code.calls"], 11)

    def test_counts_repeat_exactly(self):
        units = metric_units()
        for workload, (a, b) in self.runs.items():
            ma, mb = a["record"]["trace"]["metrics"], b["record"]["trace"]["metrics"]
            for name, unit in units.items():
                if unit in ("count", "bytes") or name.endswith(("_ratio", "xscan_depth")):
                    if name != "trace.overhead_ratio":
                        self.assertEqual(ma[name], mb[name], f"{workload}: {name}")


if __name__ == "__main__":
    unittest.main()
