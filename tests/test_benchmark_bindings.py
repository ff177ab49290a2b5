"""The benchmark's fast self-tests: every name it traces is still bound, and
verify makes the calls whose counts the benchmark pins."""

import math
import pathlib
import subprocess
import sys

import regenext.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_bindings_and_spec():
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py",
         "SpecTest", "BindingCoverageTest", "ReferenceCopyTest", "OutputCheckTest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_makes_the_pinned_counts(tmp_path, monkeypatch, capsys):
    """The verify-large workload pins, under the benchmark's own tracer, one
    check_repair_pair and one verify_structure call per repair pair and one
    check_recovery_subset call per recovery subset, the latter made through
    one verify_data_recovery call, whose span the benchmark reports; on a
    valid code the lemma of regenext.structure leaves no split to derive."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from tracer import SpanSummary, Tracer

    base, grown = str(tmp_path / "base.json"), str(tmp_path / "grown.json")
    assert cli.main(["gen-base", "--k", "3", "--p", "65521", "--seed", "1", "--out", base]) == 0
    assert cli.main(["grow", "--in", base, "--out", grown, "--n", "7", "--seed", "1"]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--in", grown]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.endswith("result: PASS\n")
    calls = SpanSummary(tracer).calls
    pairs, subsets = 7 * math.comb(6, 3), math.comb(7, 3)
    assert calls["regen.check_repair_pair"] == pairs
    assert calls["structure.verify_structure"] == pairs
    assert calls["regen.check_recovery_subset"] == subsets
    assert calls["regen.verify_data_recovery"] == 1
    assert calls["structure.compute_decomposition"] == 0
    assert calls["regen.brute_force_repairable"] == 0


def test_small_field_verify_makes_the_pinned_oracle_calls(tmp_path, monkeypatch, capsys):
    """The small-field workload pins one brute_force_repairable call per repair
    pair of each k=3, p=3, n=6 code that verify passes: 60 per code."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from tracer import SpanSummary, Tracer

    base, grown = str(tmp_path / "base.json"), str(tmp_path / "grown.json")
    assert cli.main(["gen-base", "--k", "3", "--p", "3", "--seed", "1", "--out", base]) == 0
    assert cli.main(["grow", "--in", base, "--out", grown, "--n", "6", "--seed", "1"]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--in", grown]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.endswith("result: PASS\n")
    assert SpanSummary(tracer).calls["regen.brute_force_repairable"] == 6 * math.comb(5, 3) == 60
