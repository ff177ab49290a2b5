"""End-to-end tests for the command line interface."""

import csv
import io
import json
import random
import re

import pytest

from regenext.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from regenext.gf import FieldSpec
from regenext.linalg import Subspace
from regenext.regen import MalformedCodeFileError, load_code


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


@pytest.mark.parametrize("p", [65521, 3])
def test_verify_accepts_rescaled_send(grown_k3, tmp_path, capsys, p):
    ok = _write_corrupted(grown_k3[p], tmp_path / "scaled.json", _scaled_send, p)
    assert main(["verify", "--in", ok]) == EXIT_OK
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("corrupt", [_dropped_witness, _send_outside_node])
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
