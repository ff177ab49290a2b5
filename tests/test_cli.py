"""End-to-end tests for the command line interface."""

import csv
import errno
import io
import json
import math
import os
import random
import re

import pytest

import regenext.cli as cli
from regenext.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from regenext.gf import FieldSpec
import regenext.structure as structure
from regenext.linalg import Subspace, count_subspaces
from regenext.regen import MalformedCodeFileError, check_repair_pair, load_code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A base file and a grown file over GF(65521), built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    base = root / "base.json"
    grown = root / "grown.json"
    trail = root / "trail.csv"
    assert (
        main(["gen-base", "--k", "3", "--p", "65521", "--seed", "11", "--out", str(base)])
        == EXIT_OK
    )
    assert (
        main(
            [
                "grow",
                "--in",
                str(base),
                "--out",
                str(grown),
                "--n",
                "6",
                "--seed",
                "11",
                "--csv",
                str(trail),
            ]
        )
        == EXIT_OK
    )
    return root


def test_gen_base_writes_verified_code(workdir, capsys):
    code = load_code(str(workdir / "base.json"))
    assert code.params.n == 4
    assert code.params.k == 3
    assert code.params.spec.p == 65521


def test_gen_base_rejects_composite_modulus(tmp_path):
    rc = main(["gen-base", "--k", "3", "--p", "91", "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_USAGE


def test_gen_base_rejects_small_k(tmp_path):
    rc = main(["gen-base", "--k", "1", "--p", "5", "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_USAGE


def test_grow_reaches_target(workdir):
    code = load_code(str(workdir / "grown.json"))
    assert code.params.n == 6
    assert len(code.witnesses) == sum(1 for _ in code.repair_pairs())


def test_grow_trail_csv(workdir):
    with open(workdir / "trail.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["4", "5", "6"]
    assert all(r["F_dim"] == "8" for r in rows)
    assert all(r["alpha"] == "3" and r["beta"] == "2" for r in rows)
    assert rows[0]["attempts"] == "0"
    assert all(int(r["attempts"]) >= 1 for r in rows[1:])


def test_grow_noop_when_target_reached(workdir, capsys):
    rc = main(
        [
            "grow",
            "--in",
            str(workdir / "base.json"),
            "--out",
            str(workdir / "noop.json"),
            "--n",
            "4",
            "--seed",
            "1",
        ]
    )
    assert rc == EXIT_OK
    assert "nothing to do" in capsys.readouterr().err
    assert not (workdir / "noop.json").exists()


def test_grow_rejects_target_below_base(workdir):
    rc = main(
        [
            "grow",
            "--in",
            str(workdir / "base.json"),
            "--out",
            str(workdir / "bad.json"),
            "--n",
            "3",
        ]
    )
    assert rc == EXIT_USAGE


def test_grow_rejects_corrupt_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = main(["grow", "--in", str(bad), "--out", str(tmp_path / "o.json"), "--n", "5"])
    assert rc == EXIT_USAGE


def test_grow_rejects_missing_input(tmp_path, capsys):
    gone = tmp_path / "gone.json"
    rc = main(["grow", "--in", str(gone), "--out", str(tmp_path / "o.json"), "--n", "5"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw.replace(b'"p":65521,', b'"p":2147483659,'),
        lambda raw: b"\xff\xfe" + raw,
        lambda raw: b"[" * 100_000,
    ],
    ids=["modulus-out-of-range", "not-utf8", "deep-nesting"],
)
def test_unreadable_code_file_is_a_usage_error(workdir, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    bad.write_bytes(corrupt((workdir / "base.json").read_bytes()))
    with pytest.raises(MalformedCodeFileError):
        load_code(str(bad))
    assert main(["verify", "--in", str(bad)]) == EXIT_USAGE
    rc = main(["grow", "--in", str(bad), "--out", str(tmp_path / "o.json"), "--n", "5"])
    assert rc == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)


def test_verify_rejects_missing_input(tmp_path, capsys):
    rc = main(["verify", "--in", str(tmp_path / "gone.json")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_grow_deterministic_bytes(workdir, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    base = str(workdir / "base.json")
    for out, trail in ((out1, csv1), (out2, csv2)):
        rc = main(
            ["grow", "--in", base, "--out", str(out), "--n", "6", "--seed", "42", "--csv", str(trail)]
        )
        assert rc == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()


def test_verify_passes_on_grown_code(workdir, capsys):
    rc = main(["verify", "--in", str(workdir / "grown.json")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "node dimensions: checked=6 violations=0" in out
    assert "data recovery: checked=20 violations=0" in out
    assert "repair witnesses: checked=60 violations=0" in out
    assert "decomposition structure: checked=60 violations=0" in out
    assert "oracle cross-check: skipped" in out
    assert "result: PASS" in out


def test_verify_flags_zeroed_node(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "grown.json").read_text())
    obj["nodes"][0] = []
    broken = tmp_path / "zeroed.json"
    broken.write_text(json.dumps(obj))
    rc = main(["verify", "--in", str(broken)])
    out = capsys.readouterr().out
    assert rc == EXIT_VERIFICATION
    assert "node 1: dimension 0 != alpha = 3" in out
    assert "result: FAIL" in out
    # subsets through node 1 can no longer span the file space
    assert "recovery subset" in out


def test_verify_oracle_cap_notice(workdir, capsys):
    rc = main(["verify", "--in", str(workdir / "grown.json"), "--oracle-cap", "10"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "cap of 10" in out


def test_verify_runs_oracle_on_small_field(tmp_path, capsys):
    base = tmp_path / "tiny.json"
    assert main(["gen-base", "--k", "2", "--p", "3", "--out", str(base)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["verify", "--in", str(base)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "oracle cross-check: checked=3 violations=0" in out
    assert "result: PASS" in out


def test_prob_sweep_stdout_csv(capsys):
    rc = main(["prob-sweep", "--k", "2", "--p", "2,3", "--trials", "200"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [r["p"] for r in rows] == ["2", "3"]
    assert rows[0]["census"] == "4" and rows[0]["subspaces_total"] == "7"
    assert rows[1]["census"] == "9" and rows[1]["subspaces_total"] == "13"
    assert rows[0]["probability_exact"] == "4/7"
    assert rows[1]["probability_exact"] == "9/13"
    assert all(r["trials"] == "200" for r in rows)


def test_prob_sweep_csv_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    rc = main(
        ["prob-sweep", "--k", "2", "--p", "5", "--trials", "100", "--csv", str(path)]
    )
    assert rc == EXIT_OK
    assert "wrote" in capsys.readouterr().err
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 1
    assert float(rows[0]["mc_low"]) <= float(rows[0]["probability"]) <= float(
        rows[0]["mc_high"]
    )


def test_prob_sweep_usage_errors(tmp_path):
    assert main(["prob-sweep", "--k", "2", "--p", "2,x"]) == EXIT_USAGE
    assert main(["prob-sweep", "--k", "2", "--p", ","]) == EXIT_USAGE
    assert main(["prob-sweep", "--k", "2", "--p", "4"]) == EXIT_USAGE
    assert main(["prob-sweep", "--k", "2", "--p", "3", "--trials", "0"]) == EXIT_USAGE
    assert main(["prob-sweep", "--k", "1", "--p", "3"]) == EXIT_USAGE


def test_bounds_k3(capsys):
    rc = main(["bounds", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "m=1: storage 1/2, bandwidth 1/6  (minimum bandwidth)" in out
    assert "m=2: storage 3/8, bandwidth 1/4  (operating point of this package)" in out
    assert "m=3: storage 1/3, bandwidth 1/3  (minimum storage)" in out
    assert "capacity if repairs may drift: 8 (meets F)" in out
    assert "single-cut bound (k-1)*alpha + beta: 8 (meets F)" in out
    assert "cut line" in out and "(tight)" in out
    assert "3*storage >= 1: value 9/8 (slack)" in out
    assert "2*storage + bandwidth >= 1: value 1 (tight)" in out
    assert "4*storage + 6*bandwidth >= 3: value 3 (tight)" in out
    assert "6*bandwidth >= 1: value 3/2 (slack)" in out
    assert "MISMATCH" not in out


def test_bounds_k2(capsys):
    rc = main(["bounds", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "minimum bandwidth, operating point of this package" in out
    assert "capacity if repairs may drift: 3 (meets F)" in out
    assert "MISMATCH" not in out


def test_repair_demo_walkthrough(capsys):
    rc = main(["repair-demo", "--k", "2", "--p", "5", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "scenario: node" in out
    assert out.count("[verified]") >= 4
    assert "MISMATCH" not in out


def test_repair_demo_k3(capsys):
    rc = main(["repair-demo", "--k", "3", "--p", "101", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "MISMATCH" not in out


def test_argparse_usage_paths(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["gen-base"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    assert "gen-base" in capsys.readouterr().out


@pytest.fixture(scope="module")
def grown_k3(tmp_path_factory):
    """k=3 codes grown to 5 nodes through the CLI, at a large and a tiny field."""
    root = tmp_path_factory.mktemp("mutation")
    paths = {}
    for p in (65521, 3):
        base, grown = root / f"base{p}.json", root / f"grown{p}.json"
        rc = main(["gen-base", "--k", "3", "--p", str(p), "--seed", "1", "--out", str(base)])
        assert rc == EXIT_OK
        rc = main(
            ["grow", "--in", str(base), "--out", str(grown), "--n", "5", "--seed", "1",
             "--max-attempts", "5000"]
        )
        assert rc == EXIT_OK
        paths[p] = grown
    return paths


def _first_send(obj):
    """The first stored witness and the key of its first helper."""
    witness = obj["witnesses"][0]
    return witness, str(witness["A"][0])


def _send_outside_node(obj, p):
    witness, j = _first_send(obj)
    witness["R"][j] = obj["nodes"][witness["x"] - 1][:2]


def _send_of_dimension_one(obj, p):
    witness, j = _first_send(obj)
    witness["R"][j] = witness["R"][j][:1]


def _dropped_witness(obj, p):
    obj["witnesses"].pop(0)


def _random_node(obj, p):
    rng = random.Random("random-node")
    obj["nodes"][0] = [[rng.randrange(p) for _ in range(8)] for _ in range(3)]


def _node_with_two_rows(obj, p):
    obj["nodes"][0] = obj["nodes"][0][:2]


def _duplicated_node(obj, p):
    obj["nodes"][1] = obj["nodes"][0]


def _other_send_inside_node(obj, p):
    witness, j = _first_send(obj)
    node = obj["nodes"][int(j) - 1]
    sent = Subspace(FieldSpec(p), 8, witness["R"][j])
    witness["R"][j] = next(
        rows
        for rows in ([node[0], node[1]], [node[0], node[2]], [node[1], node[2]])
        if Subspace(FieldSpec(p), 8, rows) != sent
    )


def _scaled_send(obj, p):
    witness, j = _first_send(obj)
    witness["R"][j] = [[2 * v % p for v in row] for row in witness["R"][j]]


def _write_corrupted(src, dst, corrupt, p):
    obj = json.loads(src.read_text())
    corrupt(obj, p)
    dst.write_text(json.dumps(obj))
    return str(dst)


WIT, STRUCT = "repair witnesses", "decomposition structure"
# sections that verify flagged for each corruption before verify_structure
# was reduced to deriving the split; it must still flag at least these
CORRUPTIONS = [
    (_send_outside_node, {65521: {WIT, STRUCT}, 3: {WIT, STRUCT}}),
    (_send_of_dimension_one, {65521: {WIT, STRUCT}, 3: {WIT, STRUCT}}),
    (_dropped_witness, {65521: {WIT, STRUCT}, 3: {WIT, STRUCT}}),
    (_random_node, {65521: {WIT, STRUCT}, 3: {WIT, STRUCT}}),
    (
        _node_with_two_rows,
        {
            65521: {"node dimensions", WIT, STRUCT},
            3: {"node dimensions", "data recovery", WIT, STRUCT},
        },
    ),
    (_duplicated_node, {65521: {"data recovery", WIT, STRUCT}, 3: {"data recovery", WIT, STRUCT}}),
    (_other_send_inside_node, {65521: {WIT}, 3: {WIT}}),
]


@pytest.mark.parametrize("p", [65521, 3])
@pytest.mark.parametrize(
    "corrupt,flagged", CORRUPTIONS, ids=[c.__name__.strip("_") for c, _ in CORRUPTIONS]
)
def test_verify_flags_every_corruption(grown_k3, tmp_path, capsys, p, corrupt, flagged):
    bad = _write_corrupted(grown_k3[p], tmp_path / "bad.json", corrupt, p)
    rc = main(["verify", "--in", bad])
    out = capsys.readouterr().out
    assert rc == EXIT_VERIFICATION
    assert out.endswith("result: FAIL\n")
    sections = set(re.findall(r"^(\S[^:\n]*): checked=\d+ violations=[1-9]", out, re.M))
    assert sections >= flagged[p]


def _changed(value, p, rng):
    return (value + rng.randrange(1, p)) % p


def _node_entry_changed(obj, p, rng):
    row = rng.choice(rng.choice(obj["nodes"]))
    col = rng.randrange(len(row))
    row[col] = _changed(row[col], p, rng)


def _witness_entry_changed(obj, p, rng):
    row = rng.choice(rng.choice(list(rng.choice(obj["witnesses"])["R"].values())))
    col = rng.randrange(len(row))
    row[col] = _changed(row[col], p, rng)


def _random_witness_dropped(obj, p, rng):
    obj["witnesses"].pop(rng.randrange(len(obj["witnesses"])))


def _send_row_dropped(obj, p, rng):
    send = rng.choice(list(rng.choice(obj["witnesses"])["R"].values()))
    send.pop(rng.randrange(len(send)))


def _node_row_dropped(obj, p, rng):
    node = rng.choice(obj["nodes"])
    node.pop(rng.randrange(len(node)))


def _node_copied(obj, p, rng):
    i, j = rng.sample(range(len(obj["nodes"])), 2)
    obj["nodes"][i] = obj["nodes"][j]


RANDOM_CORRUPTIONS = [
    _node_entry_changed,
    _witness_entry_changed,
    _random_witness_dropped,
    _send_row_dropped,
    _node_row_dropped,
    _node_copied,
]


@pytest.fixture(scope="module")
def grown_n5(tmp_path_factory):
    """Codes on 5 nodes at k = 2, 3 and p = 3, 5, 65521, as JSON objects; on
    4 at k = 2, p = 3, the most nodes that field allows there."""
    root = tmp_path_factory.mktemp("n5")
    objs = {}
    for k in (2, 3):
        for p in (3, 5, 65521):
            base, grown = root / f"base{k}_{p}.json", root / f"grown{k}_{p}.json"
            argv = ["gen-base", "--k", str(k), "--p", str(p), "--seed", "1", "--out", str(base)]
            assert main(argv) == EXIT_OK
            n = "4" if (k, p) == (2, 3) else "5"
            argv = ["grow", "--in", str(base), "--out", str(grown), "--n", n, "--seed", "1",
                    "--max-attempts", "5000"]
            assert main(argv) == EXIT_OK
            objs[k, p] = json.loads(grown.read_text())
    return objs


def test_verify_output_is_that_of_deriving_every_split(grown_n5, tmp_path, monkeypatch, capsys):
    """verify derives a split only where the lemma of regenext.structure does
    not settle it; its stdout, stderr and exit code equal those of a verify
    that derives the split of every pair, on 504 codes with one corruption of
    six kinds each.  The oracle runs at k = 2, where it is cheap."""
    paths = []
    for (k, p), obj in grown_n5.items():
        rng = random.Random(f"equivalence-{k}-{p}")
        for corrupt in RANDOM_CORRUPTIONS:
            for i in range(14):
                bad = json.loads(json.dumps(obj))
                corrupt(bad, p, rng)
                paths.append(tmp_path / f"{k}_{p}_{corrupt.__name__}_{i}.json")
                paths[-1].write_text(json.dumps(bad))
    capsys.readouterr()

    def run_all():
        runs = []
        for path in paths:
            rc = main(["verify", "--in", str(path), "--oracle-cap", "100"])
            runs.append((rc, *capsys.readouterr()))
        return runs

    lemma = run_all()
    real = structure.verify_structure
    monkeypatch.setattr(
        cli, "verify_structure", lambda code, helpers, x, established: real(code, helpers, x)
    )
    assert run_all() == lemma
    assert len(lemma) == 504
    # all but a few changed node entries at k = 2, p = 3 leave the code invalid
    assert sum(rc == EXIT_VERIFICATION for rc, _, _ in lemma) > 480
    flagged = re.compile(r"^decomposition structure: checked=\d+ violations=[1-9]", re.M)
    assert sum(1 for _, out, _ in lemma if flagged.search(out)) > 400


@pytest.mark.parametrize("p", [65521, 3])
def test_verify_accepts_rescaled_send(grown_k3, tmp_path, capsys, p):
    ok = _write_corrupted(grown_k3[p], tmp_path / "scaled.json", _scaled_send, p)
    assert main(["verify", "--in", ok]) == EXIT_OK
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("corrupt", [_dropped_witness, _send_outside_node, _other_send_inside_node])
def test_grow_reports_invalid_code(grown_k3, tmp_path, capsys, corrupt):
    bad = _write_corrupted(grown_k3[65521], tmp_path / "bad.json", corrupt, 65521)
    out = tmp_path / "out.json"
    rc = main(["grow", "--in", bad, "--out", str(out), "--n", "6"])
    assert rc == EXIT_VERIFICATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    # the pair is failed node 1 with helpers (2, 3, 4)
    assert re.search(r"\b1\b\D*\(2, 3, 4\)", lines[0])
    assert "regenext verify" in lines[0]
    assert not out.exists() and not (tmp_path / "out.json.partial").exists()


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_end_to_end_at_largest_prime(tmp_path, capsys, k, n):
    base, grown = tmp_path / "base.json", tmp_path / "grown.json"
    p = str(2**31 - 1)
    assert main(["gen-base", "--k", str(k), "--p", p, "--seed", "1", "--out", str(base)]) == EXIT_OK
    assert main(["grow", "--in", str(base), "--out", str(grown), "--n", str(n)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--in", str(grown)]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"n={n} k={k}" in out and out.endswith("result: PASS\n")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["gen-base", "--k", "1", "--p", "5", "--out", "x.json"], "--k"),
        (["grow", "--in", "x.json", "--out", "y.json", "--n", "5", "--max-attempts", "0"],
         "--max-attempts"),
        (["bounds", "--k", "-3"], "--k"),
        (["prob-sweep", "--k", "2", "--p", "3", "--trials", "0"], "--trials"),
        (["prob-sweep", "--k", "2", "--p", "3", "--oracle-cap", "0"], "--oracle-cap"),
        (["verify", "--in", "x.json", "--oracle-cap", "-1"], "--oracle-cap"),
        (["repair-demo", "--k", "2", "--p", "5", "--max-attempts", "0"], "--max-attempts"),
        (["bounds", "--k", "two"], "--k"),
    ],
)
def test_bad_flag_value_names_the_flag(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_gen_base_has_no_attempt_budget(tmp_path, monkeypatch, capsys):
    """Base synthesis makes one draw, so gen-base takes no --max-attempts."""
    monkeypatch.chdir(tmp_path)
    argv = ["gen-base", "--k", "3", "--p", "5", "--max-attempts", "5", "--out", "x.json"]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments: --max-attempts 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_base_failure_is_one_line(tmp_path, monkeypatch, capsys):
    """A base code that fails its checks is a bug: exit 1, one line, no file."""
    import regenext.extend as extend

    def hollow_witness(cert):
        dec = cert.decomposition
        return {j: Subspace(dec.spec, dec.ambient_dim) for j in dec.helpers}

    monkeypatch.setattr(extend, "new_node_repair_witness", hollow_witness)
    out = tmp_path / "x.json"
    assert main(["gen-base", "--k", "3", "--p", "5", "--out", str(out)]) == EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert err.startswith("gen-base failed: base code failed verification, which indicates a bug")
    assert err.count("\n") == 1
    assert not out.exists()


def test_grow_stall_past_the_digit_limit_is_one_line(tmp_path, monkeypatch, capsys):
    """At k=10, p=2^31-1 the exact single-draw bound has more digits than
    Python turns into a str, so the stall line gives only its float."""
    import regenext.extend as extend

    with pytest.raises(ValueError):
        str(extend.attempts_bound(11, 10, FieldSpec(2147483647)))
    base = tmp_path / "base.json"
    assert main(["gen-base", "--k", "10", "--p", "2147483647", "--out", str(base)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(extend, "find_alignments", lambda code, candidate: None)
    out = tmp_path / "grown.json"
    argv = ["grow", "--in", str(base), "--out", str(out), "--n", "12", "--max-attempts", "1"]
    assert main(argv) == EXIT_VERIFICATION
    assert capsys.readouterr().err.splitlines() == [
        "grow stalled at n=11: no aligned draw in 1 attempts at n=11, k=10, p=2147483647; "
        "single-draw success bound is about 1.000000, so small fields may need many more "
        "attempts",
        f"saved the verified partial code to {out}.partial",
    ]


def test_grow_target_below_k_plus_one_is_a_usage_error(workdir, tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = main(["grow", "--in", str(workdir / "base.json"), "--out", str(out), "--n", "3"])
    assert rc == EXIT_USAGE
    assert "--n must be at least k+1 = 4, got 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n,attempts", [(4, "64"), (6, "1")], ids=["grows", "stalls"])
def test_grow_unwritable_csv_writes_nothing(tmp_path, capsys, n, attempts):
    """The CSV opens before the first step: no output and no .partial."""
    base = tmp_path / "p2.json"
    assert main(["gen-base", "--k", "2", "--p", "2", "--seed", "1", "--out", str(base)]) == EXIT_OK
    out = tmp_path / "x.json"
    csv_path = tmp_path / "missing" / "x.csv"
    argv = ["grow", "--in", str(base), "--out", str(out), "--n", str(n),
            "--max-attempts", attempts, "--csv", str(csv_path)]
    assert main(argv) == EXIT_USAGE
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [base]


def _missing_dir_error(path) -> str:
    return f"error: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize("n,attempts", [(4, "64"), (6, "500")], ids=["grows", "stalls"])
def test_grow_into_missing_directory_fails_first(tmp_path, capsys, n, attempts):
    """The directory of --out is checked before the first draw, and the
    error names the path given, not a temporary file."""
    base = tmp_path / "p2.json"
    assert main(["gen-base", "--k", "2", "--p", "2", "--seed", "1", "--out", str(base)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "missing" / "x.json"
    argv = ["grow", "--in", str(base), "--out", str(out), "--n", str(n),
            "--max-attempts", attempts, "--csv", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == _missing_dir_error(out)
    assert sorted(tmp_path.iterdir()) == [base]


def test_gen_base_into_missing_directory_fails_first(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["gen-base", "--k", "3", "--p", "3", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == _missing_dir_error(out)
    assert list(tmp_path.iterdir()) == []


def test_save_error_names_the_given_path(tmp_path, monkeypatch, capsys):
    """A save that fails after the work names --out, not its temporary file."""
    out = tmp_path / "x.json"

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src)

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["gen-base", "--k", "2", "--p", "5", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command", ["gen-base", "grow", "grow-stalls"], ids=["gen-base", "grows", "stalls"]
)
def test_out_naming_a_directory_fails_first(tmp_path, monkeypatch, capsys, command):
    """An --out that is a directory exits 2 before any work: nothing is
    synthesized, no step runs, and no file (not even a .partial inside it)
    is written."""
    base = tmp_path / "p2.json"
    assert main(["gen-base", "--k", "2", "--p", "2", "--seed", "1", "--out", str(base)]) == EXIT_OK
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(cli, "synthesize_base_code", no_work)
    monkeypatch.setattr(cli, "extend_code", no_work)
    taken = tmp_path / "taken"
    taken.mkdir()
    out = str(taken)
    if command == "gen-base":
        argv = ["gen-base", "--k", "2", "--p", "2", "--seed", "1", "--out", out]
    elif command == "grow":
        argv = ["grow", "--in", str(base), "--out", out, "--n", "4", "--seed", "1"]
    else:
        out += "/"
        argv = ["grow", "--in", str(base), "--out", out, "--n", "8", "--max-attempts", "3"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{out}'\n"
    assert sorted(tmp_path.iterdir()) == [base, taken]
    assert list(taken.iterdir()) == []


def test_prob_sweep_unwritable_csv_fails_first(tmp_path, capsys):
    csv_path = tmp_path / "missing" / "x.csv"
    argv = ["prob-sweep", "--k", "3", "--p", "3,5", "--trials", "2000", "--csv", str(csv_path)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _missing_dir_error(csv_path)
    assert list(tmp_path.iterdir()) == []


def test_prob_sweep_checks_every_prime_first(tmp_path, capsys):
    csv_path = tmp_path / "x.csv"
    argv = ["prob-sweep", "--k", "2", "--p", "3,4", "--trials", "10", "--csv", str(csv_path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.count("\n") == 1
    assert not csv_path.exists()


def test_verify_builds_no_basis_inverse(workdir, monkeypatch, capsys):
    """verify derives a split only where the witness and recovery checks
    leave it open, and a split inverts its basis only when coordinates are
    asked of it."""

    def no_inverse(*args):
        raise AssertionError("verify inverted a matrix")

    monkeypatch.setattr(structure, "inverse", no_inverse)
    assert main(["verify", "--in", str(workdir / "grown.json")]) == EXIT_OK
    assert capsys.readouterr().out.endswith("result: PASS\n")


def test_verify_runs_the_oracle_only_where_witnesses_pass(tmp_path, monkeypatch, capsys):
    """The oracle backs up witnesses that pass, so on a p=3 code with one node
    entry changed it searches only the pairs without witness violations."""
    base, grown = tmp_path / "base.json", tmp_path / "grown.json"
    assert main(["gen-base", "--k", "3", "--p", "3", "--seed", "1", "--out", str(base)]) == EXIT_OK
    argv = ["grow", "--in", str(base), "--out", str(grown), "--n", "6", "--seed", "1"]
    assert main(argv) == EXIT_OK
    obj = json.loads(grown.read_text())
    obj["nodes"][0][0][7] = (obj["nodes"][0][0][7] + 1) % 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = load_code(str(bad))
    passing = [pair for pair in code.repair_pairs() if not check_repair_pair(code, *pair)]
    assert 0 < len(passing) < 60
    calls = []
    original = cli.brute_force_repairable

    def counting(code, x, helpers, cap):
        calls.append((x, helpers))
        return original(code, x, helpers, cap=cap)

    monkeypatch.setattr(cli, "brute_force_repairable", counting)
    capsys.readouterr()
    assert main(["verify", "--in", str(bad)]) == EXIT_VERIFICATION
    assert "oracle cross-check: checked=60 violations=0" in capsys.readouterr().out
    assert calls == passing


def test_grow_derives_each_split_once(tmp_path, monkeypatch):
    """Each code grow extends hands its splits on to the grown code.  At
    p=65521 the first x aligns for every helper subset, so 4 -> 9 derives
    C(8, 3) = 56 splits, one per helper subset of the largest code it
    extends; deriving them afresh at every step would take
    C(4, 3) + ... + C(8, 3) = 125."""
    import regenext.extend as extend

    calls = []
    original = extend.compute_decomposition

    def counting(code, helpers, x):
        calls.append((tuple(helpers), x))
        return original(code, helpers, x)

    monkeypatch.setattr(extend, "compute_decomposition", counting)
    base, grown = str(tmp_path / "base.json"), str(tmp_path / "grown.json")
    assert main(["gen-base", "--k", "3", "--p", "65521", "--seed", "1", "--out", base]) == EXIT_OK
    assert main(["grow", "--in", base, "--out", grown, "--n", "9", "--seed", "1"]) == EXIT_OK
    assert len(calls) == len(set(calls)) == math.comb(8, 3)


def test_verify_tests_each_send_for_containment_once(workdir, monkeypatch, capsys):
    """Per pair, the witness check tests each of the k sends against its node
    and reduces the failed node against the sent rows in one echelon, with no
    Subspace of their sum; on a valid code no split is derived."""
    calls = []
    original = Subspace.contains_subspace

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Subspace, "contains_subspace", counting)
    assert main(["verify", "--in", str(workdir / "grown.json")]) == EXIT_OK
    assert "repair witnesses: checked=60 violations=0" in capsys.readouterr().out
    assert len(calls) == 3 * 60
    assert all(other.dim == 2 for other in calls)


@pytest.mark.parametrize("to_file", [False, True])
def test_prob_sweep_refuses_counts_past_the_digit_limit(tmp_path, capsys, to_file):
    """At k=9 and p=2^31-1 the subspace count has more digits than Python
    converts to a string, so prob-sweep refuses before writing any row, even
    the row of a prime listed first that would fit."""
    csv_path = tmp_path / "x.csv"
    argv = ["prob-sweep", "--k", "9", "--p", "3,2147483647", "--trials", "1"]
    assert main(argv + (["--csv", str(csv_path)] if to_file else [])) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: k=9 at p=2147483647 gives counts too long to print in decimal\n"
    )
    assert not csv_path.exists()


def test_verify_reports_a_combination_count_past_the_digit_limit(tmp_path, capsys):
    """At k=22 and p=2^31-1 the oracle's combination count has more digits
    than Python converts to a string.  verify still reports every section,
    names a power of two below the count, and exits by its verdict."""
    k = 22
    obj = {
        "version": 1, "p": 2**31 - 1, "k": k, "n": k + 1, "alpha": k, "beta": k - 1,
        "F": k * k - 1, "nodes": [[] for _ in range(k + 1)], "witnesses": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(obj))
    combos = count_subspaces(k, k - 1, FieldSpec(2**31 - 1)) ** k
    assert main(["verify", "--in", str(path)]) == EXIT_VERIFICATION
    out = capsys.readouterr().out
    sections = ["node dimensions", "data recovery", "repair witnesses", "decomposition structure"]
    for section in sections:
        assert f"{section}: checked=23 violations=23\n" in out
    assert (
        f"oracle cross-check: skipped (at least 2^{combos.bit_length() - 1} combinations "
        f"per pair exceed the cap of {cli.DEFAULT_ORACLE_CAP})\n"
    ) in out
    assert out.endswith("result: FAIL\n")
