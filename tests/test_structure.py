"""Tests for the repair-induced direct-sum split of the file space."""

import random

import pytest

import regenext.structure as structure
from regenext.gf import FieldSpec
from regenext.linalg import Subspace, _layout
from regenext.regen import Code, Params, check_repair_pair
from regenext.structure import (
    Decomposition,
    DecompositionError,
    compute_decomposition,
    verify_structure,
)

from conftest import combine, complement, coordinates, expand_complement, identity_rows, split

GF3 = FieldSpec(3)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_constructor_accepts_valid_split():
    repair = {1: Subspace(GF3, 3, [E1]), 2: Subspace(GF3, 3, [E2])}
    lay = _layout(3, 3)
    dec = Decomposition(GF3, (1, 2), None, repair, {1: lay.pack(E3), 2: lay.pack((0, 0, 2))})
    assert dec.k == 2
    assert dec.ambient_dim == 3
    assert dec.helpers == (1, 2)
    assert dec.failed_node is None
    assert Subspace(GF3, 3, complement(dec).values()) == Subspace(GF3, 3, [E3])
    assert coordinates(dec, (1, 2, 1)) == (1, 2, 1)


def test_compute_decomposition_k2(base_k2_p3):
    """At k=2 the two leftover vectors are exact negatives of each other."""
    code = base_k2_p3
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    assert dec.failed_node == x
    assert dec.helpers == helpers
    a, b = helpers
    t = complement(dec)
    assert t[a] == combine(3, (2,), (t[b],))
    assert Subspace(GF3, 3, t.values()).dim == 1
    witness = code.witness(x, helpers)
    for j in helpers:
        assert dec.repair_spaces[j] == witness[j]


def test_compute_decomposition_uses_stored_witness(base_k3_p5):
    code = base_k3_p5
    for x, helpers in code.repair_pairs():
        dec = compute_decomposition(code, helpers, x)
        witness = code.witness(x, helpers)
        for j in helpers:
            assert dec.repair_spaces[j] == witness[j]
            assert code.node(j).contains(complement(dec)[j])


def test_compute_decomposition_rejects_thin_witness(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    thin = dict(code.witnesses)
    thin[(x, helpers)] = {j: Subspace(code.params.spec, 8) for j in helpers}
    broken = Code(code.params, code.nodes, thin)
    with pytest.raises(DecompositionError, match="dimension 0"):
        compute_decomposition(broken, helpers, x)


def test_compute_decomposition_rejects_duplicated_helpers():
    """Identical helpers give a dependency space of dimension above one."""
    pr = Params(3, 2, GF3)
    plane = Subspace(GF3, 3, [E1, E2])
    other = Subspace(GF3, 3, [E1, E3])
    line = Subspace(GF3, 3, [E1])
    w = {1: line, 2: line}
    code = Code(pr, (plane, plane, other), {(3, (1, 2)): w})
    with pytest.raises(DecompositionError, match="dependency"):
        compute_decomposition(code, (1, 2), 3)
    with pytest.raises(DecompositionError, match="dependency"):
        verify_structure(code, (1, 2), 3)


def project(dec, v):
    """Components of v along each repair space and the complement space."""
    parts, weights = split(dec, v)
    return parts, expand_complement(dec, weights)


def test_project_splits_and_reassembles(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    p = code.params.spec.p
    complement_space = Subspace(code.params.spec, 8, complement(dec).values())
    rng = random.Random("project")
    for _ in range(10**3):
        v = tuple(rng.randrange(p) for _ in range(8))
        parts, tau = project(dec, v)
        for j in helpers:
            assert dec.repair_spaces[j].contains(parts[j])
        assert complement_space.contains(tau)
        assert combine(p, [1] * 4, [tau, *parts.values()]) == v


def test_project_known_components(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    j0 = helpers[0]
    row = dec.repair_spaces[j0].basis_rows()[0]
    parts, tau = project(dec, row)
    assert parts[j0] == row
    assert all(not any(parts[j]) for j in helpers if j != j0)
    assert not any(tau)
    parts, tau = project(dec, complement(dec)[j0])
    assert tau == complement(dec)[j0]
    assert all(not any(parts[j]) for j in helpers)


def test_coordinate_blocks_roundtrip(base_k3_p5):
    """The split reads each part off the coordinate blocks, entry by entry."""
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    p = code.params.spec.p
    rng = random.Random("blocks")
    for _ in range(100):
        v = tuple(rng.randrange(p) for _ in range(8))
        coords = coordinates(dec, v)
        parts, weights = split(dec, v)
        for j in helpers:
            rows = dec.repair_spaces[j].basis_rows()
            assert parts[j] == combine(p, dec.repair_block(coords, j), rows)
        assert [weights[j] for j in helpers] == [*coords[6:], 0]
        assert combine(p, [1] * 4, [expand_complement(dec, weights), *parts.values()]) == v


def test_complement_block_is_over_the_complement_vectors(base_k3_p5):
    """The complement block writes T over t_j for every helper but the last."""
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    p = code.params.spec.p
    expected = {helpers[0]: (1, 0, 0), helpers[1]: (0, 1, 0), helpers[2]: (p - 1, p - 1, 0)}
    for j, block in expected.items():
        parts, weights = split(dec, complement(dec)[j])
        assert tuple(weights[i] for i in helpers) == block
        assert all(not any(parts[i]) for i in helpers)
    assert split(dec, (0,) * 8)[1] == dict.fromkeys(helpers, 0)


def test_verify_structure_clean_codes(base_k2_p3, base_k3_p5):
    for code in (base_k2_p3, base_k3_p5):
        for x, helpers in code.repair_pairs():
            # a split that holds leaves nothing to report
            assert verify_structure(code, helpers, x) is None


def test_verify_structure_all_counts_pairs(base_k3_p5):
    pairs = list(base_k3_p5.repair_pairs())
    assert len(pairs) == 4
    for x, helpers in pairs:
        verify_structure(base_k3_p5, helpers, x)


def test_verify_structure_all_extended(extended_k3_big):
    pairs = list(extended_k3_big.repair_pairs())
    assert len(pairs) == 5 * 4
    for x, helpers in pairs:
        verify_structure(extended_k3_big, helpers, x)


def test_verify_structure_derives_where_the_lemma_does_not_apply(base_k3_p5, monkeypatch):
    """Told that every witness passed and every recovery subset spans,
    verify_structure derives no split on a valid code.  A hand-built Code may
    hold a helper node of dimension k+1 that keeps all of that true; the
    lemma then does not apply, and the derivation finds the split broken."""
    code = base_k3_p5
    spanning = set(code.recovery_subsets())
    calls = []
    original = structure.compute_decomposition

    def counting(code, helpers, x):
        calls.append((x, helpers))
        return original(code, helpers, x)

    monkeypatch.setattr(structure, "compute_decomposition", counting)
    for x, helpers in code.repair_pairs():
        verify_structure(code, helpers, x, established=(True, spanning))
    assert calls == []
    rows = code.node(1).basis_rows()
    enlarged = (Subspace(code.params.spec, 8, [*rows, extra]) for extra in identity_rows(8))
    node = next(sub for sub in enlarged if sub.dim == 4)
    big = Code(code.params, (node,) + code.nodes[1:], code.witnesses)
    assert not check_repair_pair(big, 4, (1, 2, 3))
    with pytest.raises(DecompositionError, match="leftover has dimension 2"):
        verify_structure(big, (1, 2, 3), 4, established=(True, spanning))
    assert calls == [(4, (1, 2, 3))]
