"""Tests for code parameters, verification, oracles, and the file format."""

import json
import math
import random
from fractions import Fraction

import pytest

from regenext.gf import FieldSpec, NotPrimeError
from regenext.linalg import CapExceededError, Matrix, Subspace
from regenext.regen import (
    Code,
    CodeDimensionError,
    CodeVersionError,
    MalformedCodeFileError,
    MissingWitnessError,
    Params,
    RepairWitness,
    brute_force_repairable,
    check_repair_pair,
    corner_point,
    cutset_bound,
    functional_repair_capacity,
    load_code,
    save_code,
    verify_data_recovery,
    verify_repair_witnesses,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def test_corner_point_values():
    assert corner_point(1, 3) == (Fraction(1, 2), Fraction(1, 6))
    assert corner_point(2, 3) == (Fraction(3, 8), Fraction(1, 4))
    assert corner_point(3, 3) == (Fraction(1, 3), Fraction(1, 3))
    assert corner_point(3, 4) == (Fraction(4, 15), Fraction(1, 5))
    assert corner_point(1, 2) == (Fraction(2, 3), Fraction(1, 3))


def test_corner_point_next_to_minimum_storage():
    """At m = k-1 the point is exactly (k, k-1) scaled by the file size k^2-1."""
    for k in range(2, 7):
        f = k * k - 1
        assert corner_point(k - 1, k) == (Fraction(k, f), Fraction(k - 1, f))


def test_corner_point_errors():
    with pytest.raises(ValueError):
        corner_point(0, 3)
    with pytest.raises(ValueError):
        corner_point(4, 3)
    with pytest.raises(ValueError):
        corner_point(1, 1)


def test_functional_repair_capacity_examples():
    assert functional_repair_capacity(3, 3, 3, 2) == 8
    assert functional_repair_capacity(2, 2, 2, 1) == 3
    assert functional_repair_capacity(3, 3, 3, 1) == 3 + 2 + 1
    assert functional_repair_capacity(3, 4, 2, 1) == 2 + 2 + 2


def test_capacity_meets_cutset_at_operating_point():
    for k in range(2, 7):
        assert functional_repair_capacity(k, k, k, k - 1) == k * k - 1
        assert cutset_bound(k, k, k - 1) == k * k - 1


def test_capacity_and_cutset_errors():
    with pytest.raises(ValueError):
        functional_repair_capacity(3, 2, 3, 2)
    with pytest.raises(ValueError):
        functional_repair_capacity(0, 3, 3, 2)
    with pytest.raises(ValueError):
        functional_repair_capacity(2, 2, -1, 1)
    with pytest.raises(ValueError):
        cutset_bound(0, 3, 2)
    with pytest.raises(ValueError):
        cutset_bound(3, 3, -1)


def test_params_derived_fields():
    pr = Params(4, 3, GF5)
    assert (pr.d, pr.alpha, pr.beta, pr.f_dim) == (3, 3, 2, 8)
    pr = Params(7, 4, GF2)
    assert (pr.d, pr.alpha, pr.beta, pr.f_dim) == (4, 4, 3, 15)


def test_params_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Params(3, 1, GF5)
    with pytest.raises(ValueError):
        Params(3, 3, GF5)


def test_repair_witness_sorted_and_lookup():
    a = Subspace(GF3, 3, [(1, 0, 0)])
    b = Subspace(GF3, 3, [(0, 1, 0)])
    w = RepairWitness.of({3: b, 1: a})
    assert w.helpers == (1, 3)
    assert w.space(1) == a and w.space(3) == b
    assert w.items() == ((1, a), (3, b))
    with pytest.raises(KeyError):
        w.space(2)


def test_code_rejects_wrong_node_count():
    pr = Params(3, 2, GF2)
    with pytest.raises(ValueError):
        Code(pr, (Subspace(GF2, 3, Matrix.identity(GF2, 3).entries),) * 2)


def test_code_rejects_bad_witness_keys():
    pr = Params(3, 2, GF2)
    nodes = (Subspace(GF2, 3, Matrix.identity(GF2, 3).entries),) * 3
    w = RepairWitness.of({1: Subspace.zero(GF2, 3), 2: Subspace.zero(GF2, 3)})
    with pytest.raises(ValueError, match="own helper"):
        Code(pr, nodes, {(1, (1, 2)): w})
    with pytest.raises(ValueError, match="sorted"):
        Code(pr, nodes, {(3, (2, 1)): RepairWitness.of({2: Subspace.zero(GF2, 3), 1: Subspace.zero(GF2, 3)})})
    with pytest.raises(ValueError, match="covers helpers"):
        Code(pr, nodes, {(3, (1, 2)): RepairWitness.of({1: Subspace.zero(GF2, 3)})})


def test_code_node_indexing(base_k3_p5):
    code = base_k3_p5
    assert code.node(1) == code.nodes[0]
    assert code.node(4) == code.nodes[3]
    with pytest.raises(ValueError):
        code.node(0)
    with pytest.raises(ValueError):
        code.node(5)


def test_code_witness_lookup(base_k3_p5):
    code = base_k3_p5
    w = code.witness(4, (3, 1, 2))
    assert w.helpers == (1, 2, 3)
    with pytest.raises(MissingWitnessError):
        Code(code.params, code.nodes, {}).witness(4, (1, 2, 3))


def test_subset_and_pair_enumeration(base_k3_p5):
    code = base_k3_p5
    n, k = code.params.n, code.params.k
    subsets = list(code.recovery_subsets())
    pairs = list(code.repair_pairs())
    assert len(subsets) == math.comb(n, k)
    assert len(pairs) == n * math.comb(n - 1, k)
    assert all(x not in helpers for x, helpers in pairs)


def test_verify_data_recovery_passes(base_k3_p5):
    report = verify_data_recovery(base_k3_p5)
    assert report.ok
    assert report.checked == 4
    assert report.summary() == "checked=4 violations=0"


def test_verify_data_recovery_flags_deficient_nodes():
    pr = Params(3, 2, GF2)
    plane = Subspace(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    report = verify_data_recovery(Code(pr, (plane, plane, plane)))
    assert not report.ok
    assert report.checked == 3
    assert len(report.violations) == 3
    assert "joint rank 2 != 3" in report.violations[0]


def test_verify_repair_witnesses_passes(extended_k3_big):
    report = verify_repair_witnesses(extended_k3_big)
    assert report.ok
    assert report.checked == 5 * math.comb(4, 3)


def test_verify_repair_witnesses_missing_raises(base_k3_p5):
    code = base_k3_p5
    stripped = dict(code.witnesses)
    stripped.pop(next(iter(sorted(stripped))))
    with pytest.raises(MissingWitnessError):
        verify_repair_witnesses(Code(code.params, code.nodes, stripped))


def test_check_repair_pair_flags_coverage_gap(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    zeroed = dict(code.witnesses)
    zeroed[(x, helpers)] = RepairWitness.of(
        {j: Subspace.zero(GF5, 8) for j in helpers}
    )
    msgs = check_repair_pair(Code(code.params, code.nodes, zeroed), x, helpers)
    assert len(msgs) == 1
    assert "do not cover the failed node" in msgs[0]


def test_check_repair_pair_flags_oversized_send(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    j0 = helpers[0]
    w = code.witnesses[(x, helpers)]
    fat = {j: w.space(j) for j in helpers}
    fat[j0] = code.node(j0)
    patched = dict(code.witnesses)
    patched[(x, helpers)] = RepairWitness.of(fat)
    msgs = check_repair_pair(Code(code.params, code.nodes, patched), x, helpers)
    assert any(f"helper {j0} sends dimension 3 > 2" in m for m in msgs)


def test_check_repair_pair_flags_escaped_send(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    j0 = helpers[0]
    outside = next(
        v
        for i in range(8)
        if not code.node(j0).contains(v := tuple(1 if t == i else 0 for t in range(8)))
    )
    w = code.witnesses[(x, helpers)]
    patched_spaces = {j: w.space(j) for j in helpers}
    patched_spaces[j0] = Subspace(GF5, 8, [outside])
    patched = dict(code.witnesses)
    patched[(x, helpers)] = RepairWitness.of(patched_spaces)
    msgs = check_repair_pair(Code(code.params, code.nodes, patched), x, helpers)
    assert any(f"helper {j0} sends vectors outside its node" in m for m in msgs)


def test_brute_force_agrees_with_witnesses_k2(base_k2_p3):
    """The exhaustive search confirms every stored witness pair."""
    code = base_k2_p3
    for x, helpers in code.repair_pairs():
        assert check_repair_pair(code, x, helpers) == []
        assert brute_force_repairable(code, x, helpers)


def test_brute_force_detects_unrepairable_node():
    pr = Params(3, 2, GF2)
    plane12 = Subspace(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    plane13 = Subspace(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    code = Code(pr, (plane12, plane12, plane13))
    assert not brute_force_repairable(code, 3, (1, 2))
    assert brute_force_repairable(code, 1, (2, 3))


def test_brute_force_cap(base_k2_p3):
    code = base_k2_p3
    x, helpers = next(code.repair_pairs())
    with pytest.raises(CapExceededError):
        brute_force_repairable(code, x, helpers, cap=10)


def test_save_load_roundtrip(tmp_path, extended_k3_big):
    path = tmp_path / "code.json"
    save_code(extended_k3_big, str(path))
    assert load_code(str(path)) == extended_k3_big


def test_save_is_byte_stable(tmp_path, base_k3_p5):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_code(base_k3_p5, str(a))
    save_code(base_k3_p5, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_save_is_atomic(tmp_path, monkeypatch, base_k3_p5, extended_k3_big):
    path = tmp_path / "code.json"
    save_code(base_k3_p5, str(path))
    before = path.read_bytes()

    def dump_partway(obj, fh, **kwargs):
        fh.write('{"version":1,')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_partway)
    with pytest.raises(OSError, match="disk full"):
        save_code(extended_k3_big, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["code.json"]


def _patched_file(tmp_path, code, mutate):
    src = tmp_path / "src.json"
    save_code(code, str(src))
    obj = json.loads(src.read_text())
    mutate(obj)
    dst = tmp_path / "patched.json"
    dst.write_text(json.dumps(obj))
    return str(dst)


def test_load_rejects_composite_modulus(tmp_path, base_k3_p5):
    path = _patched_file(tmp_path, base_k3_p5, lambda o: o.update(p=4))
    with pytest.raises(NotPrimeError):
        load_code(path)


def test_load_rejects_unknown_version(tmp_path, base_k3_p5):
    path = _patched_file(tmp_path, base_k3_p5, lambda o: o.update(version=2))
    with pytest.raises(CodeVersionError):
        load_code(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("this is not json {{{")
    with pytest.raises(MalformedCodeFileError):
        load_code(str(path))


def test_load_rejects_mismatched_declared_dims(tmp_path, base_k3_p5):
    path = _patched_file(tmp_path, base_k3_p5, lambda o: o.update(alpha=5))
    with pytest.raises(CodeDimensionError):
        load_code(path)


def test_load_rejects_wrong_row_length(tmp_path, base_k3_p5):
    def chop(o):
        o["nodes"][0][0] = o["nodes"][0][0][:-1]

    path = _patched_file(tmp_path, base_k3_p5, chop)
    with pytest.raises(CodeDimensionError):
        load_code(path)


def test_load_rejects_missing_node(tmp_path, base_k3_p5):
    path = _patched_file(tmp_path, base_k3_p5, lambda o: o["nodes"].pop())
    with pytest.raises(CodeDimensionError):
        load_code(path)


def test_load_rejects_wrong_witness_helpers(tmp_path, base_k3_p5):
    def rekey(o):
        w = o["witnesses"][0]
        rows = w["R"].pop(str(w["A"][0]))
        w["R"]["9"] = rows

    path = _patched_file(tmp_path, base_k3_p5, rekey)
    with pytest.raises(MalformedCodeFileError):
        load_code(path)


def test_load_rejects_duplicate_witness(tmp_path, base_k3_p5):
    def dup(o):
        o["witnesses"].append(o["witnesses"][0])

    path = _patched_file(tmp_path, base_k3_p5, dup)
    with pytest.raises(MalformedCodeFileError):
        load_code(path)


def test_load_rejects_missing_keys(tmp_path, base_k3_p5):
    path = _patched_file(tmp_path, base_k3_p5, lambda o: o.pop("nodes"))
    with pytest.raises(MalformedCodeFileError):
        load_code(path)
