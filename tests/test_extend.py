"""Tests for base-code synthesis and single-node extension."""

import math
import random

import pytest

from regenext.alignment import probability_well_aligned, sample_well_aligned
from regenext.extend import (
    ExtensionError,
    SynthesisError,
    attempts_bound,
    extend_code,
    find_alignments,
    helper_repair_witness,
    new_node_repair_witness,
    synthesize_base_code,
    synthesize_decomposition,
)
from regenext.gf import FieldSpec
from regenext.linalg import Subspace
from regenext.regen import verify_data_recovery, verify_repair_witnesses
from regenext.structure import verify_structure_all

GF2 = FieldSpec(2)
GF5 = FieldSpec(5)
BIG = FieldSpec(65521)


@pytest.fixture(scope="module")
def outcome_k3_big():
    base = synthesize_base_code(3, BIG, random.Random("ext-test-base"))
    return base, extend_code(base, random.Random("ext-test-draw"))


def test_synthesize_decomposition_shape():
    dec = synthesize_decomposition(3, GF5, random.Random("synth-dec"))
    assert dec.helpers == (1, 2, 3)
    assert dec.failed_node is None
    assert dec.ambient_dim == 8
    assert dec.complement_space.dim == 2
    for j in dec.helpers:
        assert dec.repair_spaces[j].dim == 2


def test_synthesize_decomposition_deterministic():
    a = synthesize_decomposition(3, GF5, random.Random("same-seed"))
    b = synthesize_decomposition(3, GF5, random.Random("same-seed"))
    assert a.repair_spaces == b.repair_spaces
    assert a.complement_vectors == b.complement_vectors
    with pytest.raises(ValueError):
        synthesize_decomposition(1, GF5, random.Random(1))


@pytest.mark.parametrize("k,p", [(2, 2), (2, 3), (3, 5)])
def test_synthesize_base_code_verified(k, p):
    spec = FieldSpec(p)
    code = synthesize_base_code(k, spec, random.Random(f"base-{k}-{p}"))
    assert code.params.n == k + 1
    assert code.params.k == k
    assert verify_data_recovery(code).ok
    assert verify_repair_witnesses(code).ok
    assert verify_structure_all(code).ok
    assert set(code.witnesses) == set(
        (x, helpers) for x, helpers in code.repair_pairs()
    )


def test_synthesize_base_code_budget_validation():
    with pytest.raises(ValueError):
        synthesize_base_code(3, GF5, random.Random(1), max_attempts=0)


def test_new_node_repair_witness_structure():
    dec = synthesize_decomposition(3, GF5, random.Random("witness-new"))
    candidate, cert = sample_well_aligned(dec, random.Random("witness-new-star"))
    witness = new_node_repair_witness(cert)
    assert witness.helpers == dec.helpers
    sent_rows = []
    for j in dec.helpers:
        sub = witness.space(j)
        node = dec.repair_spaces[j].sum(
            Subspace(dec.spec, 8, [dec.complement_vectors[j]])
        )
        assert sub.dim == 2
        assert node.contains_subspace(sub)
        sent_rows.extend(sub.basis_rows())
    sent = Subspace(dec.spec, 8, sent_rows)
    assert sent.contains_subspace(candidate)


def test_helper_repair_witness_structure():
    dec = synthesize_decomposition(3, GF5, random.Random("witness-old"))
    candidate, cert = sample_well_aligned(dec, random.Random("witness-old-star"))
    failed = dec.helpers[1]
    witness = helper_repair_witness(cert, failed, new_index=4)
    assert failed not in witness.helpers
    assert 4 in witness.helpers
    assert witness.space(4).dim == 2
    assert candidate.contains_subspace(witness.space(4))
    sent_rows = [r for _, sub in witness.items() for r in sub.basis_rows()]
    sent = Subspace(dec.spec, 8, sent_rows)
    failed_node = dec.repair_spaces[failed].sum(
        Subspace(dec.spec, 8, [dec.complement_vectors[failed]])
    )
    assert sent.contains_subspace(failed_node)
    for j in witness.helpers:
        assert witness.space(j).dim <= 2
    with pytest.raises(ValueError):
        helper_repair_witness(cert, 99, new_index=4)


def test_extend_grows_and_verifies(outcome_k3_big):
    base, outcome = outcome_k3_big
    grown = outcome.code
    assert grown.params.n == base.params.n + 1
    assert grown.nodes[:-1] == base.nodes
    assert outcome.attempts >= 1
    assert verify_data_recovery(grown).ok
    assert verify_repair_witnesses(grown).ok
    assert verify_structure_all(grown).ok


def test_extend_alignment_log_covers_every_subset(outcome_k3_big):
    base, outcome = outcome_k3_big
    n, k = base.params.n, base.params.k
    subsets = set(base.recovery_subsets())
    assert set(outcome.alignment_log) == subsets
    for helpers, (x, cert) in outcome.alignment_log.items():
        assert x not in helpers
        assert 1 <= x <= n
        assert cert.subspace() == outcome.code.nodes[-1]


def test_extend_builds_complete_witness_table(outcome_k3_big):
    _, outcome = outcome_k3_big
    grown = outcome.code
    assert set(grown.witnesses) == set(grown.repair_pairs())
    # every pair checks clean, so nothing is missing or malformed
    assert verify_repair_witnesses(grown).checked == 5 * math.comb(4, 3)


def test_extend_deterministic_per_seed():
    base = synthesize_base_code(3, BIG, random.Random("det-base"))
    one = extend_code(base, random.Random("det-draw"))
    two = extend_code(base, random.Random("det-draw"))
    assert one.code == two.code
    assert one.attempts == two.attempts


def test_extend_budget_validation(outcome_k3_big):
    base, _ = outcome_k3_big
    with pytest.raises(ValueError):
        extend_code(base, random.Random(1), max_attempts=0)


def test_extend_fails_deterministically_on_tiny_field():
    """At p=2 the union bound is vacuous and draws essentially never align."""
    base = synthesize_base_code(3, GF2, random.Random("small-field-base"))
    with pytest.raises(ExtensionError) as info:
        extend_code(base, random.Random("small-field-grow-0"), max_attempts=2)
    err = info.value
    assert err.attempts == 2
    assert err.bound == 0
    assert "bound is 0 " in str(err)


def test_find_alignments_accepts_the_grown_node(outcome_k3_big):
    base, outcome = outcome_k3_big
    cache = {}
    log = find_alignments(base, outcome.code.nodes[-1], cache)
    assert log is not None
    assert set(log) == set(base.recovery_subsets())
    assert len(cache) > 0
    before = dict(cache)
    again = find_alignments(base, outcome.code.nodes[-1], cache)
    assert again is not None
    assert cache == before


def test_attempts_bound_values():
    assert attempts_bound(3, 2, GF2) == 0
    assert attempts_bound(4, 3, GF2) == 0
    p_align = probability_well_aligned(3, BIG)
    expected = 1 - math.comb(4, 3) * (1 - p_align)
    assert attempts_bound(4, 3, BIG) == expected
    assert 0 < expected < 1


def test_attempts_bound_monotone_in_n():
    bounds = [attempts_bound(n, 3, BIG) for n in range(4, 13)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(0 <= b <= 1 for b in bounds)
