"""Differential tests against the pinned reference copy of regenext.

`benchmarks/reference/regenext/` is the package as the benchmark was defined
on it: plain elimination, with none of the later lemma, packed kernel or
closed-form oracle.  The current `main` must give the same exit codes, bytes
and lines as the reference `main`, except for the departures named below,
each with the CHANGES.md entry that made it.  The reference is imported
under a name outside `regenext.*`, so the benchmark's tracer ignores it, and
without bytecode, so nothing is written under `benchmarks/`.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pathlib
import random
import re
import sys

import pytest

from regenext.cli import main
from conftest import NONCANONICAL, noncanonical
from test_cli import RANDOM_CORRUPTIONS, grown_n5  # noqa: F401

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "benchmarks" / "reference" / "regenext"
NAME = "reference_regenext"
# json's separators in the layout that save_code writes
COMPACT = (",", ":")

# CHANGES.md, "One check per property": the stall message reads "bound is 0"
# where the reference printed "bound is max(0, -11/13) = 0"
STALL_BOUND = (re.compile(r"bound is max\(0, [^)]*\) = "), "bound is ")
# CHANGES.md, "One check per property": compute_decomposition names the
# pair in every message, so a helper whose leftover is not a line is
# reported as "witness for (x, A): helper ..."
LEFTOVER_PAIR = (
    re.compile(r"^(  pair (\(\d+, \([\d, ]*\)\)): )(helper \d+ stores dimension)", re.M),
    r"\1witness for \2: \3",
)
# CHANGES.md, PR 12: the send-count message reads "stores N basis rows"
# like the node one, where the reference printed "stores N rows"
SEND_ROWS = (
    re.compile(r"stores (\d+) rows, more than beta"), r"stores \1 basis rows, more than beta"
)


@pytest.fixture(scope="module")
def reference_main():
    spec = importlib.util.spec_from_file_location(
        NAME, REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)]
    )
    package = importlib.util.module_from_spec(spec)
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[NAME] = package
    try:
        spec.loader.exec_module(package)
        entry = importlib.import_module(f"{NAME}.cli").main
    finally:
        sys.dont_write_bytecode = bytecode
    yield entry
    for name in [m for m in sys.modules if m == NAME or m.startswith(f"{NAME}.")]:
        del sys.modules[name]


def _run(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = entry(argv)
    return rc, out.getvalue(), err.getvalue()


def _departed(text, departure):
    pattern, replacement = departure
    return pattern.subn(replacement, text)


@pytest.mark.parametrize(
    "k,p,n", [(2, 2, 4), (2, 3, 5), (3, 3, 5), (3, 65521, 6), (4, 2**31 - 1, 6)]
)
def test_gen_base_and_grow_match_the_reference(reference_main, tmp_path, k, p, n):
    """Same exit codes, stdout, stderr and file bytes at seed 1, on each
    side in turn at the same paths; k=2, p=3 stalls at n=4."""
    base, grown = str(tmp_path / "base.json"), str(tmp_path / "grown.json")

    def build(entry):
        runs = [
            _run(entry, ["gen-base", "--k", str(k), "--p", str(p), "--seed", "1", "--out", base]),
            _run(entry, ["grow", "--in", base, "--out", grown, "--n", str(n), "--seed", "1"]),
        ]
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        return runs, files

    (ref_base, ref_grow), ref_files = build(reference_main)
    rc, out, err = ref_grow
    err, stalls = _departed(err, STALL_BOUND)
    assert build(main) == ([ref_base, (rc, out, err)], ref_files)
    assert stalls == ((k, p) == (2, 3))
    assert ("grown.json.partial" in ref_files) == ((k, p) == (2, 3))


def test_verify_matches_the_reference(reference_main, grown_n5, tmp_path):
    """Same exit code, stdout and stderr of `verify --oracle-cap 100` on each
    code of test_cli's corpus and two corrupted copies per kind."""
    paths = []
    for (k, p), obj in grown_n5.items():
        paths.append(tmp_path / f"{k}_{p}.json")
        paths[-1].write_text(json.dumps(obj))
        rng = random.Random(f"reference-{k}-{p}")
        for corrupt in RANDOM_CORRUPTIONS:
            for i in range(2):
                bad = json.loads(json.dumps(obj))
                corrupt(bad, p, rng)
                paths.append(tmp_path / f"{k}_{p}_{corrupt.__name__}_{i}.json")
                # the second copy in save_code's compact layout, which load_code streams
                paths[-1].write_text(json.dumps(bad, separators=COMPACT if i else None))
    departed = []
    for path in paths:
        argv = ["verify", "--in", str(path), "--oracle-cap", "100"]
        rc, out, err = _run(reference_main, argv)
        out, lines = _departed(out, LEFTOVER_PAIR)
        assert _run(main, argv) == (rc, out, err), path.name
        if lines:
            departed.append(path.name)
    assert len(paths) == 78
    assert departed == [
        "2_3__node_row_dropped_0.json",
        "2_3__node_row_dropped_1.json",
        "3_3__node_row_dropped_1.json",
    ]


def test_verify_matches_the_reference_on_noncanonical_rows(reference_main, grown_n5, tmp_path):
    """Same exit code, stdout and stderr of `verify --oracle-cap 100` on each
    code of test_cli's corpus with every row set mixed by an invertible
    matrix, shifted by p or reordered: rows that the loader must eliminate,
    as the reference always does."""
    for (k, p), obj in grown_n5.items():
        for how in NONCANONICAL:
            path = tmp_path / f"{k}_{p}_{how}.json"
            rewritten = noncanonical(obj, how, random.Random(f"{how}-{k}-{p}"))
            path.write_text(json.dumps(rewritten, separators=COMPACT))
            argv = ["verify", "--in", str(path), "--oracle-cap", "100"]
            expected = _run(reference_main, argv)
            assert expected[0] == 0, path.name
            assert _run(main, argv) == expected, path.name


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_repair_demo_matches_the_reference(reference_main, k, p):
    """Same exit code, stdout and stderr of `repair-demo` at seed 1: the
    reassembly it prints, at both ends of the slot widths."""
    argv = ["repair-demo", "--k", str(k), "--p", str(p), "--seed", "1", "--max-attempts", "5000"]
    assert _run(main, argv) == _run(reference_main, argv)


def test_repair_demo_build_failure_matches_the_reference(reference_main):
    """Same exit code 1, empty stdout and one stderr line when repair-demo
    cannot build its example code: one draw at k=3, p=2 finds no aligned
    node, and the line departs only by its stall bound."""
    argv = ["repair-demo", "--k", "3", "--p", "2", "--seed", "1", "--max-attempts", "1"]
    rc, out, err = _run(reference_main, argv)
    err, stalls = _departed(err, STALL_BOUND)
    assert (rc, out, stalls) == (1, "", 1)
    assert err.startswith("repair-demo could not build its example code: ")
    assert _run(main, argv) == (rc, out, err)


def test_verify_words_an_oversized_send_like_a_node(reference_main, tmp_path):
    """Both sides exit 2 on a send with one row more than beta, with nothing
    on stdout, and main's one stderr line departs only by its wording."""
    path = tmp_path / "base.json"
    argv = ["gen-base", "--k", "2", "--p", "5", "--seed", "1", "--out", str(path)]
    assert _run(reference_main, argv)[0] == 0
    obj = json.loads(path.read_text())
    obj["witnesses"][0]["R"]["2"].append([0, 1, 0])
    path.write_text(json.dumps(obj))
    argv = ["verify", "--in", str(path)]
    rc, out, err = _run(reference_main, argv)
    err, worded = _departed(err, SEND_ROWS)
    assert (rc, out, worded) == (2, "", 1)
    assert err == "error: witness (1, (2, 3)) helper 2 stores 2 basis rows, more than beta = 1\n"
    assert _run(main, argv) == (rc, out, err)


def test_main_refuses_what_the_reference_accepted(reference_main, tmp_path):
    """The departures where main refuses a run that the reference completes:
    the reference exits 0, or 1 with its full report, and main exits 2 with
    its one-line reason last on stderr and nothing on stdout."""
    base, again = str(tmp_path / "base.json"), str(tmp_path / "again.json")
    argv = ["gen-base", "--k", "2", "--p", "5", "--seed", "1", "--out", base]
    assert _run(reference_main, argv)[0] == 0
    obj = json.loads(pathlib.Path(base).read_text())
    # a list, not a dict: True and 1.0 are the same key
    versions = []
    for version in (True, 1.0):
        versions.append(tmp_path / f"version_{version}.json")
        versions[-1].write_text(json.dumps({**obj, "version": version}))
    # k=4 with five empty nodes and no witnesses: 12 commas, where a row of
    # F = 15 entries needs 14
    empty = tmp_path / "empty_k4.json"
    head = {"version": 1, "p": 5, "k": 4, "n": 5, "alpha": 4, "beta": 3, "F": 15,
            "nodes": [[]] * 5, "witnesses": []}
    empty.write_text(json.dumps(head, separators=COMPACT))
    cases = [
        # CHANGES.md, PR 12: load_code took "version": true and 1.0 as format 1
        (["verify", "--in", str(versions[0])], 0, "error: unsupported format version True"),
        (["verify", "--in", str(versions[1])], 0, "error: unsupported format version 1.0"),
        # CHANGES.md, "Base synthesis makes one draw": gen-base has no --max-attempts
        ([*argv[:-1], again, "--max-attempts", "5"], 0,
         "regenext: error: unrecognized arguments: --max-attempts 5"),
        # CHANGES.md, "One check per property": verify has no --threads
        (["verify", "--in", base, "--threads", "2"], 0,
         "regenext: error: unrecognized arguments: --threads 2"),
        # CHANGES.md, "the package has one file reader": the header's F is
        # bounded by the text's commas, so the reference's 27-line FAIL
        # report becomes a refusal
        (["verify", "--in", str(empty)], 1,
         "error: file dimension 15 exceeds the 13 entries a row of the file can hold"),
        # CHANGES.md, "One primality rule and one fewer knob": prob-sweep has
        # no --oracle-cap
        (["prob-sweep", "--k", "2", "--p", "3", "--trials", "10", "--oracle-cap", "100000"], 0,
         "regenext: error: unrecognized arguments: --oracle-cap 100000"),
    ]
    for argv, accepted, reason in cases:
        assert _run(reference_main, argv)[0] == accepted, argv
        rc, out, err = _run(main, argv)
        assert (rc, out, err.splitlines()[-1]) == (2, "", reason), argv
