"""Tests for the repair-induced direct-sum split of the file space."""

import random

import pytest

from regenext.gf import FieldSpec
from regenext.linalg import Subspace, vec_add, vec_scale
from regenext.regen import Code, Params, RepairWitness
from regenext.structure import (
    Decomposition,
    DecompositionError,
    compute_decomposition,
    verify_structure,
    verify_structure_all,
)

GF3 = FieldSpec(3)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def tiny_split(complement=None):
    """A valid k=2 split of GF(3)^3 to mutate in constructor tests."""
    repair = {1: Subspace(GF3, 3, [E1]), 2: Subspace(GF3, 3, [E2])}
    if complement is None:
        complement = {1: E3, 2: vec_scale(3, -1, E3)}
    return Decomposition(GF3, (1, 2), None, repair, complement)


def test_constructor_accepts_valid_split():
    dec = tiny_split()
    assert dec.k == 2
    assert dec.ambient_dim == 3
    assert dec.helpers == (1, 2)
    assert dec.failed_node is None
    assert dec.complement_space == Subspace(GF3, 3, [E3])


def test_constructor_rejects_single_helper():
    with pytest.raises(DecompositionError, match="two helpers"):
        Decomposition(GF3, (1,), None, {1: Subspace(GF3, 3, [E1])}, {1: E3})


def test_constructor_rejects_zero_complement_vector():
    with pytest.raises(DecompositionError, match="zero"):
        tiny_split({1: (0, 0, 0), 2: (0, 0, 0)})


def test_constructor_rejects_nonvanishing_sum():
    with pytest.raises(DecompositionError, match="sum to zero"):
        tiny_split({1: E3, 2: E3})


def test_constructor_rejects_complement_inside_repair_span():
    # t = e1 sits in the repair spaces, so the stacked basis is singular
    with pytest.raises(DecompositionError, match="span the file space"):
        tiny_split({1: E1, 2: vec_scale(3, -1, E1)})


def test_constructor_rejects_missing_helper_data():
    repair = {1: Subspace(GF3, 3, [E1]), 2: Subspace(GF3, 3, [E2])}
    with pytest.raises(DecompositionError, match="missing"):
        Decomposition(GF3, (1, 2), None, repair, {1: E3})


def test_constructor_rejects_wrong_repair_dimension():
    repair = {1: Subspace(GF3, 3, [E1, E2]), 2: Subspace(GF3, 3, [E2])}
    with pytest.raises(DecompositionError, match="dimension"):
        Decomposition(GF3, (1, 2), None, repair, {1: E3, 2: vec_scale(3, -1, E3)})


def test_compute_decomposition_k2(base_k2_p3):
    """At k=2 the two leftover vectors are exact negatives of each other."""
    code = base_k2_p3
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    assert dec.failed_node == x
    assert dec.helpers == helpers
    a, b = helpers
    assert dec.complement_vectors[a] == vec_scale(3, -1, dec.complement_vectors[b])
    assert dec.complement_space.dim == 1
    witness = code.witness(x, helpers)
    for j in helpers:
        assert dec.repair_spaces[j] == witness.space(j)


def test_compute_decomposition_uses_stored_witness(base_k3_p5):
    code = base_k3_p5
    for x, helpers in code.repair_pairs():
        dec = compute_decomposition(code, helpers, x)
        witness = code.witness(x, helpers)
        for j in helpers:
            assert dec.repair_spaces[j] == witness.space(j)
            assert code.node(j).contains(dec.complement_vectors[j])


def test_compute_decomposition_rejects_thin_witness(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    thin = dict(code.witnesses)
    thin[(x, helpers)] = RepairWitness.of(
        {j: Subspace.zero(code.params.spec, 8) for j in helpers}
    )
    broken = Code(code.params, code.nodes, thin)
    with pytest.raises(DecompositionError, match="dimension 0"):
        compute_decomposition(broken, helpers, x)


def test_compute_decomposition_rejects_duplicated_helpers():
    """Identical helpers give a dependency space of dimension above one."""
    pr = Params(3, 2, GF3)
    plane = Subspace(GF3, 3, [E1, E2])
    other = Subspace(GF3, 3, [E1, E3])
    line = Subspace(GF3, 3, [E1])
    w = RepairWitness.of({1: line, 2: line})
    code = Code(pr, (plane, plane, other), {(3, (1, 2)): w})
    with pytest.raises(DecompositionError, match="dependency"):
        compute_decomposition(code, (1, 2), 3)
    report = verify_structure_all(code)
    assert not report.ok
    assert any("dependency" in v for v in report.violations)


def project(dec, v):
    """Components of v along each repair space and the complement space."""
    coords = dec.coordinates(v)
    parts = {j: dec.expand_repair(j, dec.repair_block(coords, j)) for j in dec.helpers}
    return parts, dec.expand_complement(dec.complement_block(coords))


def test_project_splits_and_reassembles(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    p = code.params.spec.p
    rng = random.Random("project")
    for _ in range(10**3):
        v = tuple(rng.randrange(p) for _ in range(8))
        parts, tau = project(dec, v)
        total = tau
        for j in helpers:
            assert dec.repair_spaces[j].contains(parts[j])
            total = vec_add(p, total, parts[j])
        assert dec.complement_space.contains(tau)
        assert total == v


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
    parts, tau = project(dec, dec.complement_vectors[j0])
    assert tau == dec.complement_vectors[j0]
    assert all(not any(parts[j]) for j in helpers)


def test_coordinate_blocks_roundtrip(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    p = code.params.spec.p
    rng = random.Random("blocks")
    for _ in range(100):
        v = tuple(rng.randrange(p) for _ in range(8))
        coords = dec.coordinates(v)
        total = dec.expand_complement(dec.complement_block(coords))
        for j in helpers:
            total = vec_add(p, total, dec.expand_repair(j, dec.repair_block(coords, j)))
        assert total == v
    with pytest.raises(ValueError):
        dec.coordinates((0, 0))


def test_express_in_complement_basis(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    p = code.params.spec.p
    exclude = helpers[0]
    others = [j for j in helpers if j != exclude]
    # each kept t_j is its own expansion
    coeffs = dec.express_in_complement_basis(dec.complement_vectors[others[0]], exclude)
    assert coeffs == {others[0]: 1, others[1]: 0}
    # the excluded t is minus the sum of the others
    coeffs = dec.express_in_complement_basis(dec.complement_vectors[exclude], exclude)
    assert coeffs == {j: p - 1 for j in others}
    coeffs = dec.express_in_complement_basis((0,) * 8, exclude)
    assert coeffs == {j: 0 for j in others}


def test_express_in_complement_basis_errors(base_k3_p5):
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    outside = dec.repair_spaces[helpers[0]].basis_rows()[0]
    with pytest.raises(ValueError, match="not in the complement space"):
        dec.express_in_complement_basis(outside, helpers[0])
    with pytest.raises(ValueError, match="not a helper"):
        dec.express_in_complement_basis((0,) * 8, 99)


def test_verify_structure_clean_codes(base_k2_p3, base_k3_p5):
    for code in (base_k2_p3, base_k3_p5):
        for x, helpers in code.repair_pairs():
            report = verify_structure(code, helpers, x)
            assert report.ok
            # the report counts the one derivation it makes
            assert report.checked == 1


def test_verify_structure_all_counts_pairs(base_k3_p5):
    report = verify_structure_all(base_k3_p5)
    assert report.ok
    assert report.checked == 4


def test_verify_structure_all_extended(extended_k3_big):
    report = verify_structure_all(extended_k3_big)
    assert report.ok
    assert report.checked == 5 * 4
