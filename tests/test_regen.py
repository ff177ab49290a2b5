"""Tests for code parameters, verification, oracles, and the file format."""

import contextlib
import io
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regenext.cli as cli
import regenext.regen as regen
from regenext.cli import EXIT_OK, EXIT_VERIFICATION, main
from regenext.extend import extend_code, synthesize_base_code
from regenext.gf import FieldSpec, NotPrimeError
from regenext.linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    random_subspace,
)
from regenext.regen import (
    Code,
    CodeDimensionError,
    CodeVersionError,
    MalformedCodeFileError,
    Params,
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
from regenext.structure import DecompositionError, compute_decomposition

from conftest import (
    NONCANONICAL, combine, identity_rows, noncanonical, random_invertible_matrix, subspace_sum,
)
from test_cli import RANDOM_CORRUPTIONS, grown_n5  # noqa: F401
from test_fuzz import _flip_bytes

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)


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


def test_code_rejects_wrong_node_count():
    pr = Params(3, 2, GF2)
    with pytest.raises(ValueError):
        Code(pr, (Subspace(GF2, 3, identity_rows(3)),) * 2)


def test_code_rejects_bad_witness_keys():
    pr = Params(3, 2, GF2)
    nodes = (Subspace(GF2, 3, identity_rows(3)[:2]),) * 3
    w = {1: Subspace(GF2, 3), 2: Subspace(GF2, 3)}
    with pytest.raises(ValueError, match="own helper"):
        Code(pr, nodes, {(1, (1, 2)): w})
    with pytest.raises(ValueError, match="sorted"):
        Code(pr, nodes, {(3, (2, 1)): {2: Subspace(GF2, 3), 1: Subspace(GF2, 3)}})
    with pytest.raises(ValueError, match=r"covers helpers \(1,\)"):
        Code(pr, nodes, {(3, (1, 2)): {1: Subspace(GF2, 3)}})
    with pytest.raises(ValueError, match=r"covers helpers \(1, 2, 3\)"):
        Code(pr, nodes, {(3, (1, 2)): {**w, 3: Subspace(GF2, 3)}})


@pytest.mark.parametrize(
    "node,send,message",
    [
        (Subspace(GF7, 8, identity_rows(8)[:3]), None, "node 2 uses a different field"),
        (Subspace(GF5, 9, identity_rows(9)[:3]), None, "node 2 lives in dimension 9, expected 8"),
        (None, Subspace(GF7, 8, identity_rows(8)[:2]), "misplaced subspace"),
        (None, Subspace(GF5, 9, identity_rows(9)[:2]), "misplaced subspace"),
    ],
    ids=["node over GF(7)", "node of width F+1", "send over GF(7)", "send of width F+1"],
)
def test_code_rejects_a_node_or_send_from_another_space(node, send, message):
    """Code names a node over another field or of another width, and a send
    whose layout is not that of the code's file space."""
    pr = Params(4, 3, GF5)
    nodes = [Subspace(GF5, 8, identity_rows(8)[:3])] * 4
    sends = {j: Subspace(GF5, 8, identity_rows(8)[:2]) for j in (2, 3, 4)}
    if node is not None:
        nodes[1] = node
    if send is not None:
        sends[3] = send
    with pytest.raises(ValueError, match=re.escape(message)):
        Code(pr, tuple(nodes), {(1, (2, 3, 4)): sends})


def test_code_node_indexing(base_k3_p5):
    code = base_k3_p5
    assert code.node(1) == code.nodes[0]
    assert code.node(4) == code.nodes[3]
    with pytest.raises(ValueError):
        code.node(0)
    with pytest.raises(ValueError):
        code.node(5)


def test_subset_and_pair_enumeration(base_k3_p5):
    code = base_k3_p5
    n, k = code.params.n, code.params.k
    subsets = list(code.recovery_subsets())
    pairs = list(code.repair_pairs())
    assert len(subsets) == math.comb(n, k)
    assert len(pairs) == n * math.comb(n - 1, k)
    assert all(x not in helpers for x, helpers in pairs)


def test_verify_data_recovery_passes(base_k3_p5):
    assert verify_data_recovery(base_k3_p5) == {}


def test_verify_data_recovery_flags_deficient_nodes():
    pr = Params(3, 2, GF2)
    plane = Subspace(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    code = Code(pr, (plane, plane, plane))
    violations = verify_data_recovery(code)
    assert list(violations) == [(1, 2), (1, 3), (2, 3)]
    assert violations[(1, 2)] == "recovery subset (1, 2): joint rank 2 != 3"
    # given subsets, only those are checked
    assert verify_data_recovery(code, [(2, 3)]) == {(2, 3): violations[(2, 3)]}
    assert verify_data_recovery(code, []) == {}


def test_verify_repair_witnesses_passes(extended_k3_big):
    assert len(extended_k3_big.witnesses) == 5 * math.comb(4, 3)
    assert verify_repair_witnesses(extended_k3_big) == []


@pytest.mark.parametrize(
    "x,helpers,message",
    [
        (0, (1, 2, 3), "failed node 0 outside 1..5"),
        (1, (2, 3), "helper set (2, 3) must hold 3 distinct nodes"),
        (1, (2, 2, 3), "helper set (2, 2, 3) must hold 3 distinct nodes"),
        (1, (3, 2, 4), "helper set (3, 2, 4) must be sorted ascending"),
        (1, (2, 3, 6), "helper set (2, 3, 6) outside 1..5"),
        (1, (0, 2, 3), "helper set (0, 2, 3) outside 1..5"),
        (2, (1, 2, 3), "failed node 2 cannot be its own helper"),
    ],
)
def test_a_miss_on_an_invalid_key_names_the_flaw(x, helpers, message):
    code = Code(Params(5, 3, GF2), (Subspace(GF2, 8),) * 5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_repair_pair(code, x, helpers)


def test_verify_repair_witnesses_reports_missing_witness(base_k3_p5):
    code = base_k3_p5
    stripped = dict(code.witnesses)
    x, helpers = next(iter(sorted(stripped)))
    stripped.pop((x, helpers))
    code = Code(code.params, code.nodes, stripped)
    line = f"no witness for failed node {x} with helpers {helpers}"
    assert verify_repair_witnesses(code) == [line]
    # given pairs, only those are checked
    assert verify_repair_witnesses(code, [(x, helpers)]) == [line]
    assert verify_repair_witnesses(code, sorted(stripped)) == []
    # the split reports the missing witness in the same words
    with pytest.raises(DecompositionError) as exc:
        compute_decomposition(code, helpers, x)
    assert str(exc.value) == line
    # a miss on an invalid key is a ValueError, not a missing witness
    with pytest.raises(ValueError, match="own helper"):
        check_repair_pair(code, helpers[0], helpers)
    with pytest.raises(ValueError, match="own helper"):
        compute_decomposition(code, helpers, helpers[0])
    # check_repair_pair reads the sorted key as stored; compute_decomposition
    # sorts its helpers first
    y, others = next(iter(sorted(stripped)))
    with pytest.raises(ValueError, match="sorted ascending"):
        check_repair_pair(code, y, others[::-1])
    split, reversed_split = (compute_decomposition(code, a, y) for a in (others, others[::-1]))
    assert reversed_split.repair_spaces == split.repair_spaces
    assert reversed_split.complement_vectors == split.complement_vectors


def test_check_repair_pair_flags_coverage_gap(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    zeroed = dict(code.witnesses)
    zeroed[(x, helpers)] = {j: Subspace(GF5, 8) for j in helpers}
    msgs = check_repair_pair(Code(code.params, code.nodes, zeroed), x, helpers)
    assert len(msgs) == 1
    assert "do not cover the failed node" in msgs[0]


def test_check_repair_pair_flags_oversized_send(base_k3_p5):
    """A send of more than beta = k-1 dimensions is a ValueError from Code,
    naming the witness, the helper and the dimension, so check_repair_pair
    never sees one.  The node bound is checked with the other node edits in
    test_structure::test_compute_decomposition_rejects_a_bad_leftover."""
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    j0 = helpers[0]
    fat = dict(code.witnesses[(x, helpers)])
    fat[j0] = code.node(j0)
    patched = {**code.witnesses, (x, helpers): fat}
    message = f"witness for {(x, helpers)}: helper {j0} sends dimension 3 > beta = 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        Code(code.params, code.nodes, patched)


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
    patched_spaces = {j: w[j] for j in helpers}
    patched_spaces[j0] = Subspace(GF5, 8, [outside])
    patched = dict(code.witnesses)
    patched[(x, helpers)] = patched_spaces
    msgs = check_repair_pair(Code(code.params, code.nodes, patched), x, helpers)
    assert any(f"helper {j0} sends vectors outside its node" in m for m in msgs)


def test_brute_force_agrees_with_witnesses_k2(base_k2_p3):
    """The oracle confirms every stored witness pair."""
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


def reference_repairable(code, x, helpers):
    """The repair search written plainly: every choice of sends of dimension
    min(beta, dim W_j) inside each helper, in helper order, pruned unless
    the sends so far and all that the remaining helpers store cover the
    failed node, with a fresh Subspace spanned at every step."""
    pr = code.params
    spec, p = pr.spec, pr.spec.p
    candidates = []
    for j in helpers:
        node = code.node(j)
        coeff_spaces = enumerate_subspaces(node.dim, min(pr.beta, node.dim), spec)
        candidates.append(
            [tuple(combine(p, c, node.basis_rows()) for c in s.basis_rows()) for s in coeff_spaces]
        )
    tails = [()] * (len(helpers) + 1)
    for i in range(len(helpers) - 1, -1, -1):
        tails[i] = code.node(helpers[i]).basis_rows() + tails[i + 1]

    def covered(rows):
        span = Subspace(spec, pr.f_dim, rows)
        return span.contains_subspace(code.node(x))

    def search(i, rows):
        if not covered(rows + tails[i]):
            return False
        if i == len(helpers):
            return True
        return any(search(i + 1, rows + opt) for opt in candidates[i])

    return search(0, ())


def _oracle_matches_reference(code, x, helpers):
    """The oracle's verdict on one pair, checked: it is the search's verdict
    wherever it is a bool, and None exactly where the helpers cover the
    failed node with dim K = sum of dim W_j - dim(sum of W_j) >= 2."""
    verdict = brute_force_repairable(code, x, helpers)
    nodes = [code.node(j) for j in helpers]
    span = subspace_sum(*nodes)
    undecided = sum(node.dim for node in nodes) - span.dim >= 2 and span.contains_subspace(
        code.node(x)
    )
    assert (verdict is None) == undecided, (code.nodes, x, helpers)
    if verdict is not None:
        assert verdict == reference_repairable(code, x, helpers), (code.nodes, x, helpers)
    return verdict


def test_brute_force_matches_reference_search():
    """Random nodes, some a dimension short, give True, False and None; the
    oracle must agree with the plain search wherever it decides, and leave
    undecided exactly the covered pairs with dim K >= 2."""
    verdicts = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.integers(0, 2**32))
    def check(case, seed):
        k, p = case
        spec = FieldSpec(p)
        rng = random.Random(seed)
        pr = Params(k + 2, k, spec)
        nodes = tuple(
            random_subspace(pr.f_dim, rng.choice([k, k, k - 1]), spec, rng) for _ in range(pr.n)
        )
        code = Code(pr, nodes)
        for x, helpers in code.repair_pairs():
            verdicts.add(_oracle_matches_reference(code, x, helpers))

    check()
    assert verdicts == {True, False, None}


def _node_changed(code, rng, drop_row):
    """A copy of the code, witnesses left out, with one node a dimension
    short or with one entry of one of its rows changed."""
    spec, ambient = code.params.spec, code.params.f_dim
    nodes = list(code.nodes)
    i = rng.randrange(len(nodes))
    rows = [list(row) for row in nodes[i].basis_rows()]
    if drop_row:
        del rows[rng.randrange(len(rows))]
    else:
        row, col = rng.choice(rows), rng.randrange(ambient)
        row[col] = (row[col] + rng.randrange(1, spec.p)) % spec.p
    nodes[i] = Subspace(spec, ambient, rows)
    return Code(code.params, tuple(nodes))


def _short_failed_node(k, spec, rng):
    """A code on k+1 nodes whose helpers 1..k split the rows of a random
    invertible matrix, helpers 1 and 2 sharing the first row, and whose node
    k+1 is one dimension short: the shared row and the first row of each of
    helpers 3..k.  The helpers' one dependency is the shared row, so on the
    pair (k+1, (1, ..., k)) every block of the closed form has k rows, none
    spanning GF(p)^k, and only the filter on D_j keeps e_0 out of their sum:
    the node is repairable."""
    f = k * k - 1
    rows = random_invertible_matrix(spec, f, rng)
    parts = [rows[:k], rows[:1] + rows[k:2 * k - 1]]
    parts += [rows[start:start + k] for start in range(2 * k - 1, f, k)]
    failed = rows[:1] + tuple(part[0] for part in parts[2:])
    return Code(
        Params(k + 1, k, spec), tuple(Subspace(spec, f, part) for part in parts + [failed])
    )


@pytest.mark.parametrize("k,p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5)])
def test_brute_force_matches_reference_in_closed_form_and_search(k, p):
    """The closed form of regenext.regen must give the plain search's
    verdict wherever it decides, and leave undecided exactly the covered
    pairs with dim K >= 2, on every pair of a grown valid code, of codes
    with one node entry changed or one node a dimension short, of a code
    whose failed node is a dimension short and whose helper blocks span
    nothing, of a random code, of a code with three equal nodes, whose
    pairs among them have dim K >= 2 and a repair, and of a code with
    k empty helpers, which the closed form finds unable to rebuild a
    nonempty node; True, False and None must all occur."""
    spec = FieldSpec(p)
    rng = random.Random(f"oracle-{k}-{p}")
    grown = extend_code(synthesize_base_code(k, spec, rng), rng, max_attempts=10**4).code
    pr = Params(k + 2, k, spec)
    shared = random_subspace(pr.f_dim, k, spec, rng)
    rest = tuple(random_subspace(pr.f_dim, k, spec, rng) for _ in range(pr.n - 3))
    equal = Code(pr, (shared,) * 3 + rest)
    # dim K >= k there, and yet helpers 1 and 2 send two hyperplanes of node 3
    assert reference_repairable(equal, 3, (1, 2, *range(4, k + 2))) is True
    codes = [
        grown,
        _node_changed(grown, rng, drop_row=False),
        _node_changed(grown, rng, drop_row=False),
        _node_changed(grown, rng, drop_row=True),
        _short_failed_node(k, spec, rng),
        Code(pr, tuple(random_subspace(pr.f_dim, k, spec, rng) for _ in range(pr.n))),
        equal,
    ]
    # k helpers that store nothing, a failed node of one row and an empty one
    empty = Subspace(spec, pr.f_dim)
    line = random_subspace(pr.f_dim, 1, spec, rng)
    codes.append(Code(pr, (empty,) * k + (line, empty)))
    assert brute_force_repairable(codes[-1], k + 1, tuple(range(1, k + 1))) is False
    verdicts = [
        _oracle_matches_reference(code, x, helpers)
        for code in codes
        for x, helpers in code.repair_pairs()
    ]
    assert set(verdicts) == {True, False, None}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_leaves_an_unrepairable_dim_k2_pair_undecided(p):
    """k = 3, helpers W_1 = <e0, e1, e2>, W_2 = <e0, e1, e3> and
    W_3 = <e4, e5, e6>, whose rows have two dependencies, and W_x = <e2+e4,
    e3+e5, e0+e6> inside their sum: the search finds no repair, so dim K = 2
    does not make a pair repairable, and the oracle answers None."""
    spec = FieldSpec(p)

    def span(*rows):
        """The span of the rows of GF(p)^8, each given by where its ones are."""
        return Subspace(spec, 8, [[int(c in ones) for c in range(8)] for ones in rows])

    nodes = (
        span((0,), (1,), (2,)), span((0,), (1,), (3,)), span((4,), (5,), (6,)),
        span((2, 4), (3, 5), (0, 6)),
    )
    code = Code(Params(4, 3, spec), nodes)
    assert brute_force_repairable(code, 4, (1, 2, 3)) is None
    assert reference_repairable(code, 4, (1, 2, 3)) is False


@pytest.mark.parametrize("k,p", [(2, 3), (2, 65521), (3, 3), (3, 65521), (4, 2)])
def test_oracle_reads_dependencies_off_minors_up_to_k3(k, p, monkeypatch):
    """On every pair of a valid code the closed form finds a repair, and the
    oracle finds each helper's D_j as the signed minors of its block for k
    in {2, 3}, with no nullspace call; at k = 4 it still takes one nullspace
    per helper."""
    spec = FieldSpec(p)
    rng = random.Random(f"minors-{k}-{p}")
    code = synthesize_base_code(k, spec, rng)
    if k < 4:
        code = extend_code(code, rng, max_attempts=10**4).code
    calls = []
    original = regen.nullspace
    monkeypatch.setattr(regen, "nullspace", lambda *args: calls.append(args) or original(*args))
    pairs = list(code.repair_pairs())
    for x, helpers in pairs:
        assert brute_force_repairable(code, x, helpers) is True
    assert len(calls) == (k * len(pairs) if k == 4 else 0)


def test_brute_force_builds_no_subspace(base_k2_p3, monkeypatch):
    plane12 = Subspace(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    plane13 = Subspace(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    unrepairable = Code(Params(3, 2, GF2), (plane12, plane12, plane13))
    built = _count_built(monkeypatch, Subspace)
    for x, helpers in base_k2_p3.repair_pairs():
        assert brute_force_repairable(base_k2_p3, x, helpers)
    assert not brute_force_repairable(unrepairable, 3, (1, 2))
    assert built == []


def test_save_load_roundtrip(tmp_path, extended_k3_big):
    path = tmp_path / "code.json"
    save_code(extended_k3_big, str(path))
    assert load_code(str(path)) == extended_k3_big


def test_subspaces_and_load_code_build_no_matrix(tmp_path, monkeypatch, base_k3_p5):
    """A Subspace holds its RREF rows, so building or summing subspaces,
    splitting a repair pair's helper nodes, or loading a code, constructs no
    Matrix."""
    path = tmp_path / "code.json"
    save_code(base_k3_p5, str(path))
    built = _count_built(monkeypatch, Matrix)
    whole = Subspace(GF5, 3, [(1, 2, 3), (2, 4, 6), (0, 1, 7)])
    part = Subspace(GF5, 3, [(1, 2, 3)])
    assert subspace_sum(part, Subspace(GF5, 3, [(0, 1, 7)])) == whole
    x, helpers = next(base_k3_p5.repair_pairs())
    assert compute_decomposition(base_k3_p5, helpers, x).helpers == helpers
    assert load_code(str(path)) == base_k3_p5
    assert built == []


@pytest.mark.parametrize("fixture", ["extended_k3_big", "base_k2_p3"])
def test_load_code_eliminates_only_rows_save_code_did_not_write(fixture, request, tmp_path, pushes):
    """A file that save_code wrote loads with no elimination, since its row
    sets are already canonical RREF.  With every row set mixed by an
    invertible matrix, shifted by p or reordered, the file loads equal
    through elimination and saves to the same bytes again."""
    code = request.getfixturevalue(fixture)
    path = tmp_path / "code.json"
    save_code(code, str(path))
    saved = path.read_bytes()
    assert load_code(str(path)) == code
    assert pushes == []
    for how in NONCANONICAL:
        path.write_text(json.dumps(noncanonical(json.loads(saved), how, random.Random(how))))
        loaded = load_code(str(path))
        assert loaded == code and pushes, how
        pushes.clear()
        save_code(loaded, str(path))
        assert path.read_bytes() == saved, how


def test_command_line_builds_no_matrix(tmp_path, monkeypatch, capsys):
    """rank, inverse and nullspace take residue rows, so building, growing,
    verifying and sweeping a p=3 code constructs no Matrix; and every span
    on those paths is built by a trusted constructor or adopted by the
    loader, so none goes through the Subspace constructor."""
    base, grown = tmp_path / "base.json", tmp_path / "grown.json"
    built = _count_built(monkeypatch, Matrix)
    spans = _count_built(monkeypatch, Subspace)
    for argv in (
        ["gen-base", "--k", "3", "--p", "3", "--seed", "1", "--out", str(base)],
        ["grow", "--in", str(base), "--out", str(grown), "--n", "6", "--seed", "1"],
        ["verify", "--in", str(grown)],
        ["prob-sweep", "--k", "3", "--p", "3", "--trials", "100"],
    ):
        assert main(argv) == EXIT_OK
    assert built == [] and spans == []


def _count_built(monkeypatch, cls):
    """A list that records the arguments of every call of cls.__init__."""
    built = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_save_is_byte_stable(tmp_path, base_k3_p5):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_code(base_k3_p5, str(a))
    save_code(base_k3_p5, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_save_bytes_ignore_witness_insertion_order(tmp_path, extended_k3_big):
    """A witness is a dict, so save_code sorts both the table and each
    witness's helpers: the same code with every dict built in reverse
    order writes the same bytes."""
    code = extended_k3_big
    reversed_witnesses = {
        key: dict(reversed(code.witnesses[key].items())) for key in reversed(code.witnesses)
    }
    flipped = Code(code.params, code.nodes, reversed_witnesses)
    assert any(
        list(flipped.witnesses[key]) != list(w) for key, w in code.witnesses.items()
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_code(code, str(a))
    save_code(flipped, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_save_is_atomic(tmp_path, monkeypatch, base_k3_p5, extended_k3_big):
    path = tmp_path / "code.json"
    save_code(base_k3_p5, str(path))
    before = path.read_bytes()

    def open_then_fill_disk(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        write = fh.write

        def write_partway(text):
            write(text[:13])
            raise OSError("disk full")

        fh.write = write_partway
        return fh

    # the module-level name shadows the builtin inside regen only
    monkeypatch.setattr(regen, "open", open_then_fill_disk, raising=False)
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


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_load_rejects_a_version_that_only_equals_one(tmp_path, base_k3_p5, version):
    """JSON true and 1.0 compare equal to 1 in Python; only the integer 1 is
    format version 1."""
    path = _patched_file(tmp_path, base_k3_p5, lambda o: o.update(version=version))
    with pytest.raises(CodeVersionError, match="unsupported format version"):
        load_code(path)


@pytest.mark.parametrize("where,bound", [("node", "alpha = 3"), ("send", "beta = 2")])
def test_load_names_the_row_bound_a_subspace_exceeds(tmp_path, base_k3_p5, where, bound):
    """Nodes and sends are read by one reader, so an extra row is reported in
    the same words for both."""

    def add_row(o):
        rows = o["nodes"][0] if where == "node" else o["witnesses"][0]["R"]["2"]
        rows.append([0] * 8)

    path = _patched_file(tmp_path, base_k3_p5, add_row)
    with pytest.raises(CodeDimensionError, match=f"stores \\d basis rows, more than {bound}$"):
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


def _set_rows(where, *rows):
    """A mutation that replaces the first rows of node 1 or of the first
    witness's send from helper 2."""

    def mutate(o):
        target = o["nodes"][0] if where == "node" else o["witnesses"][0]["R"]["2"]
        target[: len(rows)] = rows

    return mutate


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_set_rows("node", [0] * 7 + [1.5]), "node 1 entries must be integers"),
        (_set_rows("node", [True] + [0] * 7), "node 1 entries must be integers"),
        (_set_rows("node", [0] * 7 + ["1"], "x"), "node 1 entries must be integers"),
        (_set_rows("node", "x", [0] * 7 + [1.5]), "node 1 rows must be lists"),
        (_set_rows("node", [0] * 7, [None] * 8), "node 1 entries must be integers"),
        (lambda o: o["nodes"].__setitem__(0, {}), "node 1 must be a list of rows"),
        (_set_rows("send", [0] * 7 + [None]), r"witness \(\d+, \(.*\)\) helper 2 entries"),
    ],
)
def test_load_reports_the_first_bad_row_entry(tmp_path, base_k3_p5, mutate, message):
    """Row and entry types are checked row by row before any row length, so
    the first bad row in file order names the error."""
    path = _patched_file(tmp_path, base_k3_p5, mutate)
    with pytest.raises(MalformedCodeFileError, match=message):
        load_code(path)


def test_load_reduces_large_integers_mod_p(tmp_path, base_k3_p5):
    """Any JSON integer is an entry; the loader reduces it mod p."""

    def shift(o):
        o["nodes"][0] = [[x + 5 * 2**40 for x in row] for row in o["nodes"][0]]

    assert load_code(_patched_file(tmp_path, base_k3_p5, shift)) == load_code(
        _patched_file(tmp_path, base_k3_p5, lambda o: None)
    )


def _grown(k, p, n):
    """A code on n nodes over GF(p), grown from a base at fixed seeds."""
    code = synthesize_base_code(k, FieldSpec(p), random.Random(f"grown-{k}-{p}"))
    while code.params.n < n:
        code = extend_code(code, random.Random(f"grown-{k}-{p}-{code.params.n}"), 5000).code
    return code


@pytest.fixture
def wholly_read(monkeypatch):
    """The texts that reached the whole parse of scan_code, which load_code
    and verify read through."""
    read = []
    whole = regen._load_whole
    monkeypatch.setattr(regen, "_load_whole", lambda text: read.append(text) or whole(text))
    return read


def _whole_tree(path):
    """load_code by one json.load of the whole file, which decides every
    error: the reference that load_code's single read is checked against."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedCodeFileError(f"not valid JSON: {exc}") from exc
    return regen._checked(obj, text.count(",") + 1, packed=False)


def _outcome(load, path):
    """The code that load(path) gives, or the type and message it raises."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def _streams(path, wholly_read):
    """Whether load_code streams the file at path, after checking that it
    gives what parsing the whole file gives."""
    expected = _outcome(_whole_tree, path)
    wholly_read.clear()
    assert _outcome(load_code, path) == expected
    return not wholly_read


@pytest.mark.parametrize("k,p,n", [(2, 5, 4), (3, 3, 5)])
def test_streamed_load_matches_the_whole_tree_on_mutated_files(tmp_path, wholly_read, k, p, n):
    """On 200 byte mutations of a saved code, load_code gives what parsing
    the whole file gives: the same code, or the same exception and message.
    Some mutations stream to the end and some fall back."""
    path = tmp_path / "code.json"
    save_code(_grown(k, p, n), str(path))
    saved = path.read_bytes()
    rng = random.Random(f"streamed-{k}-{p}")
    streamed = 0
    for _ in range(200):
        path.write_bytes(_flip_bytes(saved, rng))
        streamed += _streams(str(path), wholly_read)
    assert 0 < streamed < 200


def _cases(saved: bytes) -> dict[str, tuple[bytes, bool]]:
    """Hand-made variants of a saved code file, each with whether load_code
    streams it."""
    obj = json.loads(saved)
    witnesses = obj.pop("witnesses")
    compact = {"separators": (",", ":")}
    head = json.dumps(obj, **compact)[:-1].encode()
    items = list(obj.items())
    deep = "[" * 100_000 + "]" * 100_000
    return {
        "indented": (json.dumps({**obj, "witnesses": witnesses}, indent=1).encode(), False),
        "nodes last": (json.dumps(dict([*items[:-1], ("witnesses", witnesses), items[-1]]),
                                  **compact).encode(), False),
        "header reversed": (json.dumps(dict([*items[::-1], ("witnesses", witnesses)]),
                                       **compact).encode(), True),
        "witnesses first": (json.dumps({"witnesses": witnesses, **obj}, **compact).encode(),
                            False),
        "second key, not a list": (head + b',"witnesses":5' + saved[len(head):], True),
        "second key, a list": (saved.replace(b',"p"', b',"witnesses":[],"p"', 1), False),
        "space between witnesses": (saved.replace(b'},{"x"', b'}, {"x"', 1), False),
        "comma missing": (saved.replace(b'},{"x"', b'}{"x"', 1), False),
        "comma after the last": (saved.replace(b"}]}", b"},]}"), False),
        "bytes after the end": (saved + b"x", False),
        "whitespace after the end": (saved + b" \t\r\n", True),
        "cut in a witness": (saved[: len(saved) - 40], False),
        "no witnesses": (head + b',"witnesses":[]}', True),
        "BOM": (b"\xef\xbb\xbf" + saved, False),
        "nested too deep": (saved.replace(b'[{"x"', f"[{deep},{{\"x\"".encode(), 1), False),
    }


def test_streamed_load_matches_the_whole_tree_on_other_layouts(
    tmp_path, wholly_read, extended_k3_big
):
    """Files that are not in save_code's layout go to the whole-tree path;
    the others stream.  Either way load_code gives what parsing the whole
    file gives."""
    path = tmp_path / "code.json"
    save_code(extended_k3_big, str(path))
    saved = path.read_bytes()
    for name, (data, streams) in _cases(saved).items():
        assert data != saved, name
        path.write_bytes(data)
        assert _streams(str(path), wholly_read) == streams, name


def _first_send(o):
    """The rows that the first witness of a parsed code file sends from its
    first helper."""
    w = o["witnesses"][0]
    return w["R"][str(w["A"][0])]


def _set_leading_one(value):
    """An edit that writes value over the leading 1 of the first send row."""

    def edit(o):
        row = _first_send(o)[0]
        row[next(i for i, e in enumerate(row) if e)] = value

    return edit


def _note_true(o):
    witnesses = o.pop("witnesses")
    o["note"] = "true"
    o["witnesses"] = witnesses


def _helper_node_sent(o):
    w = o["witnesses"][0]
    w["R"][str(w["A"][0])] = [list(row) for row in o["nodes"][w["A"][0] - 1]]


def _node_of_four_rows(o):
    spec, width = FieldSpec(o["p"]), o["F"]
    o["nodes"][0] = [list(row) for row in Subspace(spec, width, o["nodes"][0] + o["nodes"][1])
                     .basis_rows()[:4]]


def _second_send(o):
    """The rows that the first witness sends from its second helper."""
    w = o["witnesses"][0]
    return w["R"][str(w["A"][1])]


def _rows_mixed(send):
    """An edit that adds the second row of a send to its first, so that its
    rows span the same space but are not in RREF."""

    def edit(o):
        rows = send(o)
        rows[0] = [(a + b) % o["p"] for a, b in zip(*rows)]

    return edit


def _helper_repeated(o):
    w = o["witnesses"][0]
    w["A"] = [w["A"][0], w["A"][0], w["A"][1]]


def _extra_send(o):
    o["witnesses"][0]["R"]["99"] = _first_send(o)


def _rows_shifted(o):
    rows, p = _first_send(o), o["p"]
    rows[0] = [e + p * 2**40 for e in rows[0]]
    rows[1] = [e - p for e in rows[1]]


# edits of a compact code file, each with the outcome of the checks: None
# for the saved code, else the error's type and the end of its message
_PACKED_CASES = {
    "true at a leading 1": (_set_leading_one(True), (MalformedCodeFileError, "must be integers")),
    "true in a string only": (_note_true, None),
    "1.0 at a leading 1": (_set_leading_one(1.0), (MalformedCodeFileError, "must be integers")),
    "row of F-1 entries": (lambda o: _first_send(o)[0].pop(),
                           (CodeDimensionError, "row length 7 != file dimension 8")),
    "row of F+1 entries": (lambda o: _first_send(o)[0].append(0),
                           (CodeDimensionError, "row length 9 != file dimension 8")),
    "beta+1 rows in a send": (_helper_node_sent,
                              (CodeDimensionError, "stores 3 basis rows, more than beta = 2")),
    "alpha+1 rows in a node": (_node_of_four_rows,
                               (CodeDimensionError, "stores 4 basis rows, more than alpha = 3")),
    "rows not in RREF": (_rows_mixed(_first_send), None),
    "second send not in RREF": (_rows_mixed(_second_send), None),
    "second send of F+1 entries": (lambda o: _second_send(o)[0].append(0),
                                   (CodeDimensionError, "row length 9 != file dimension 8")),
    "a helper twice": (_helper_repeated, (MalformedCodeFileError, "must list exactly its helpers")),
    "an extra R key": (_extra_send, (MalformedCodeFileError, "must list exactly its helpers")),
    "entries off by multiples of p": (_rows_shifted, None),
}


def test_packed_read_leaves_every_surprise_to_the_checks(tmp_path, wholly_read, extended_k3_big):
    """load_code reads a compact file with no bool by packing its rows, and
    runs the checks only when that read fails.  On edits that only a check,
    the reduction mod p or an elimination reads right, the streamed load
    gives what the whole-tree checks give, and a file that loads streams."""
    path = tmp_path / "code.json"
    save_code(extended_k3_big, str(path))
    saved = json.loads(path.read_text())
    for name, (edit, outcome) in _PACKED_CASES.items():
        obj = json.loads(json.dumps(saved))
        edit(obj)
        path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
        assert _streams(str(path), wholly_read) == (outcome is None), name
        got = _outcome(load_code, str(path))
        if outcome is None:
            assert got == extended_k3_big, name
        else:
            assert got[0] is outcome[0] and got[1].endswith(outcome[1]), (name, got)


@pytest.mark.parametrize("p", [2, 65521, 2**31 - 1])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_save_code_writes_what_json_writes(tmp_path, k, p):
    """save_code formats each witness itself; its bytes are json's compact
    text of the code plus a newline, for the widest entries, the longest
    rows and sends of every dimension up to beta."""
    spec, rng = FieldSpec(p), random.Random(f"encoder-{k}-{p}")
    pr = Params(k + 2, k, spec)
    nodes = tuple(random_subspace(pr.f_dim, k, spec, rng) for _ in range(pr.n))
    sends = {
        (x, helpers): {j: random_subspace(pr.f_dim, rng.randrange(k), spec, rng) for j in helpers}
        for x, helpers in Code(pr, nodes).repair_pairs()
    }
    code = Code(pr, nodes, sends)
    obj = {
        "version": 1, "p": p, "k": k, "n": pr.n, "alpha": k, "beta": k - 1, "F": pr.f_dim,
        "nodes": [node.basis_rows() for node in code.nodes],
        "witnesses": [
            {"x": x, "A": helpers, "R": {str(j): w[j].basis_rows() for j in helpers}}
            for (x, helpers), w in sorted(code.witnesses.items())
        ],
    }
    path = tmp_path / "code.json"
    save_code(code, str(path))
    assert path.read_text() == json.dumps(obj, separators=(",", ":")) + "\n"
    assert load_code(str(path)) == code


def test_load_code_opens_the_file_once(tmp_path, monkeypatch, wholly_read, extended_k3_big):
    """An indented file, not in save_code's layout, falls back to the whole
    parse of the text already read: one open, one read."""
    path = tmp_path / "code.json"
    save_code(extended_k3_big, str(path))
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    opened = []
    monkeypatch.setattr(
        regen, "open", lambda *args, **kw: opened.append(args[0]) or open(*args, **kw),
        raising=False,
    )
    assert load_code(str(path)) == extended_k3_big
    assert opened == [str(path)] and len(wholly_read) == 1


def _traced(make):
    """make()'s result, the traced bytes still held when it returns, and the
    traced peak while it ran."""
    tracemalloc.start()
    try:
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def saved_k3_n8(tmp_path_factory):
    """An (8, 3, 3) code over GF(65521) and the path of its 82 KB file."""
    code = _grown(3, 65521, 8)
    path = tmp_path_factory.mktemp("n8") / "code.json"
    save_code(code, str(path))
    assert load_code(str(path)) == code  # builds the field's row layout
    return code, path


@pytest.fixture
def codes_built(monkeypatch):
    """A list that gains an entry for each Code that regen builds."""
    built = []

    def counted(*args):
        built.append(None)
        return Code(*args)

    monkeypatch.setattr(regen, "Code", counted)
    return built


def test_load_code_never_holds_the_json_tree(saved_k3_n8, codes_built):
    """Loading a file in save_code's layout peaks below the size of its JSON
    tree alone, since witnesses are decoded one at a time into the one Code
    it builds."""
    code, path = saved_k3_n8
    text = path.read_text()
    _, tree, _ = _traced(lambda: json.loads(text))
    loaded, _, peak = _traced(lambda: load_code(str(path)))
    assert loaded == code
    assert peak < tree
    assert len(codes_built) == 1


def test_save_code_never_holds_the_text(saved_k3_n8):
    """Saving peaks below half the size of the file, since each witness is
    written as soon as it is encoded."""
    code, path = saved_k3_n8
    _, _, peak = _traced(lambda: save_code(code, str(path)))
    assert peak < path.stat().st_size / 2


def _k1000_header(path, length=0):
    """Write to path the compact file of the k = 1000 header with every node
    empty, padded with spaces after its closing brace to length characters."""
    k = 1000
    head = {"version": 1, "p": 65521, "k": k, "n": k + 1, "alpha": k, "beta": k - 1,
            "F": k * k - 1, "nodes": [[]] * (k + 1), "witnesses": []}
    path.write_text(json.dumps(head, separators=(",", ":")).ljust(length) + "\n")


def test_load_refuses_a_file_dimension_longer_than_the_file(tmp_path):
    """A 3 KB file declaring k = 1000 holds no row of F = 999,999 entries,
    so it fails on its header, before anything F wide is built."""
    path = tmp_path / "code.json"
    _k1000_header(path)
    assert path.stat().st_size < 3200

    def load():
        with pytest.raises(CodeDimensionError, match="file dimension 999999 exceeds"):
            load_code(str(path))

    _, _, peak = _traced(load)
    assert peak < 2**20


def test_load_refuses_a_file_dimension_wider_than_any_row(tmp_path):
    """Padded with spaces to 1,000,000 characters, the k = 1000 header is
    longer than F but still holds only 1,008 commas, where a row of F
    entries holds F - 1, so it fails on its header: loading peaks less than
    1 MiB above reading the text, where the row layout of F slots took
    88 MiB."""
    path = tmp_path / "code.json"
    _k1000_header(path, 1_000_000)
    assert path.stat().st_size > 999_999
    _, _, read = _traced(path.read_text)

    def load():
        with pytest.raises(CodeDimensionError, match="file dimension 999999 exceeds the 1009 "):
            load_code(str(path))

    _, _, peak = _traced(load)
    assert peak < read + 2**20


def _verify(path, *flags):
    """verify's exit code, stdout and stderr on the file at path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--in", str(path), *flags])
    return rc, out.getvalue(), err.getvalue()


def _no_stream(text, pos):
    raise ValueError("streaming is switched off")


@pytest.fixture
def verify_both(monkeypatch, wholly_read):
    """A check that `verify --oracle-cap 100` gives the same exit code, stdout
    and stderr on a file as it gives with the streamed source made to fail,
    so that only the whole parse runs; it returns whether the first run
    streamed the file to the end."""

    def check(path):
        wholly_read.clear()
        run = _verify(path, "--oracle-cap", "100")
        streamed = not wholly_read
        with monkeypatch.context() as m:
            m.setattr(regen, "_streamed", _no_stream)
            assert _verify(path, "--oracle-cap", "100") == run, path.name
        return streamed

    return check


def test_verify_streams_what_the_whole_parse_gives_on_the_reference_files(
    grown_n5, tmp_path, verify_both
):
    """The 78 files of test_reference's verify test: test_cli's corpus and
    two corrupted copies per kind, the second in save_code's layout."""
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
                paths[-1].write_text(json.dumps(bad, separators=(",", ":") if i else None))
    assert len(paths) == 78
    assert sum(map(verify_both, paths)) == 36


@pytest.mark.parametrize("k,p,n", [(2, 5, 4), (3, 3, 5)])
def test_verify_streams_what_the_whole_parse_gives_on_mutated_files(tmp_path, verify_both, k, p, n):
    """The 200 byte mutations of
    test_streamed_load_matches_the_whole_tree_on_mutated_files."""
    path = tmp_path / "code.json"
    save_code(_grown(k, p, n), str(path))
    saved = path.read_bytes()
    rng = random.Random(f"streamed-{k}-{p}")
    streamed = 0
    for _ in range(200):
        path.write_bytes(_flip_bytes(saved, rng))
        streamed += verify_both(path)
    assert 0 < streamed < 200


def _swap(i, j):
    def edit(ws):
        ws[i], ws[j] = ws[j], ws[i]

    return edit


def _x_set(i, x):
    def edit(ws):
        ws[i]["x"] = x

    return edit


# edits of the witness list of a saved (7, 3, 3) code, 140 witnesses in key
# order, each with whether verify and load_code stream the file: batches of
# 64 make witnesses 0, 63, 64 and 139 the first and last of a batch
_BATCH_CASES = {
    "as saved": (lambda ws: None, True),
    "the first missing": (lambda ws: ws.pop(0), True),
    "the last of a batch missing": (lambda ws: ws.pop(63), True),
    "the first of a batch missing, between two batches": (lambda ws: ws.pop(64), True),
    "the last missing": (lambda ws: ws.pop(), True),
    "two batches only": (lambda ws: ws.__delitem__(slice(128, None)), True),
    # the last batch then ends at the last pair, so only the stream's end
    # check reads what follows the list
    "the first twelve missing": (lambda ws: ws.__delitem__(slice(12)), True),
    "two swapped in a batch": (_swap(10, 11), False),
    "two swapped across batches": (_swap(63, 64), False),
    "the last two swapped": (_swap(138, 139), False),
    "a key repeated": (lambda ws: ws.insert(11, ws[10]), False),
    "a key repeated across batches": (lambda ws: ws.insert(64, ws[63]), False),
    "a failed node 0": (_x_set(0, 0), False),
    "a failed node n+1": (_x_set(139, 8), False),
}


def test_verify_streams_what_the_whole_parse_gives_at_batch_edges(
    tmp_path, verify_both, wholly_read
):
    """Witnesses missing, swapped or repeated at the edges of the batches
    verify checks, keys outside 1..n, and text after the closing `]}`.
    load_code reads through the same batches: it gives what parsing the
    whole file gives, and streams the files that verify streams."""
    path = tmp_path / "code.json"
    save_code(_grown(3, 65521, 7), str(path))
    saved = json.loads(path.read_text())
    assert len(saved["witnesses"]) == 140 and regen._BATCH == 64
    for name, (edit, streams) in _BATCH_CASES.items():
        obj = json.loads(json.dumps(saved))
        edit(obj["witnesses"])
        text = json.dumps(obj, separators=(",", ":")) + "\n"
        path.write_text(text)
        assert verify_both(path) == streams, name
        assert _streams(str(path), wholly_read) == streams, name
        path.write_text(text + "x")
        assert not verify_both(path), name
        assert not _streams(str(path), wholly_read), name


@pytest.fixture(scope="module")
def saved_k3_n12(tmp_path_factory):
    """The path of an (12, 3, 3) code's file over GF(65521), 579 KB with
    1,980 witnesses."""
    path = tmp_path_factory.mktemp("n12") / "code.json"
    save_code(_grown(3, 65521, 12), str(path))
    return path


def test_verify_holds_the_text_and_one_batch(
    saved_k3_n12, monkeypatch, wholly_read, codes_built
):
    """verify checks the witnesses of a file in save_code's layout as they
    stream, so its traced peak stays below 2.5 times the file's size, where
    the table of every witness took 4.9.  It builds one Code, which holds
    no more than one batch of witnesses when any of the 1,980 pairs is
    checked."""
    assert _verify(saved_k3_n12)[0] == EXIT_OK  # builds the field's row layout
    codes_built.clear()
    held = []

    def check_repair_pair(code, x, helpers):
        # lengths only, so that the record holds no witness
        held.append(len(code.witnesses))
        return regen.check_repair_pair(code, x, helpers)

    monkeypatch.setattr(cli, "check_repair_pair", check_repair_pair)
    (rc, out, _), _, peak = _traced(lambda: _verify(saved_k3_n12))
    assert rc == EXIT_OK and out.endswith("result: PASS\n") and not wholly_read
    assert peak < 2.5 * saved_k3_n12.stat().st_size
    assert len(codes_built) == 1 and len(held) == 1980 and max(held) == regen._BATCH


def test_verify_checks_each_pair_with_one_batch_held(
    saved_k3_n8, monkeypatch, wholly_read, codes_built
):
    """The one-batch bound on the n=8 file, 280 witnesses in five batches:
    verify streams them into one Code, which holds no more than one batch
    of witnesses when any of the 280 pairs is checked."""
    _, path = saved_k3_n8
    held = []

    def check_repair_pair(code, x, helpers):
        held.append(len(code.witnesses))
        return regen.check_repair_pair(code, x, helpers)

    monkeypatch.setattr(cli, "check_repair_pair", check_repair_pair)
    rc, out, _ = _verify(path)
    assert rc == EXIT_OK and out.endswith("result: PASS\n") and not wholly_read
    assert len(codes_built) == 1 and len(held) == 280 and max(held) == regen._BATCH


def test_verify_keeps_only_the_lines_it_prints(saved_k3_n12, tmp_path):
    """With its witness list emptied, the n=12 file flags all 1,980 pairs
    in two sections; verify keeps only the 20 lines per section it prints,
    so its traced peak stays below a quarter MiB, half of what holding all
    3,960 lines took."""
    obj = json.loads(saved_k3_n12.read_text())
    obj["witnesses"] = []
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    assert _verify(path)[0] == EXIT_VERIFICATION
    (rc, out, _), _, peak = _traced(lambda: _verify(path))
    assert rc == EXIT_VERIFICATION
    assert out.count("checked=1980 violations=1980\n") == 2
    assert out.count("  ... and 1960 more\n") == 2
    assert peak < 2**18


@pytest.mark.parametrize("indent", [None, 1])
def test_verify_opens_the_file_once(tmp_path, monkeypatch, wholly_read, extended_k3_big, indent):
    """verify opens and reads its input once, whether it streams the file or
    hands its text to the whole parse."""
    path = tmp_path / "code.json"
    save_code(extended_k3_big, str(path))
    if indent:
        path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
    opened = []
    monkeypatch.setattr(
        regen, "open", lambda *args, **kw: opened.append(args[0]) or open(*args, **kw),
        raising=False,
    )
    rc, out, _ = _verify(path)
    assert rc == EXIT_OK and out.endswith("result: PASS\n")
    assert opened == [str(path)] and len(wholly_read) == bool(indent)
