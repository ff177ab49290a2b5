"""Tests for base-code synthesis and single-node extension."""

import math
import random
from collections import Counter

import pytest

from regenext.alignment import (
    census_well_aligned,
    estimate_probability_monte_carlo,
    probability_well_aligned,
    sample_well_aligned,
)
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
from regenext.regen import (
    Code, save_code, verify_data_recovery, verify_repair_witnesses
)
from regenext.structure import Decomposition, compute_decomposition, verify_structure

from conftest import aligned_basis, combine, complement, coordinates

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
    assert Subspace(GF5, 8, complement(dec).values()).dim == 2
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
    assert verify_data_recovery(code) == {}
    assert verify_repair_witnesses(code) == []
    for x, a in code.repair_pairs():
        verify_structure(code, a, x)
    assert set(code.witnesses) == set(
        (x, helpers) for x, helpers in code.repair_pairs()
    )


def test_new_node_repair_witness_structure():
    dec = synthesize_decomposition(3, GF5, random.Random("witness-new"))
    candidate, cert = sample_well_aligned(dec, random.Random("witness-new-star"))
    witness = new_node_repair_witness(cert)
    assert tuple(sorted(witness)) == dec.helpers
    sent_rows = []
    for j in dec.helpers:
        sub = witness[j]
        node = dec.repair_spaces[j].sum(
            Subspace(dec.spec, 8, [complement(dec)[j]])
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
    assert failed not in witness
    assert 4 in witness
    assert witness[4].dim == 2
    assert candidate.contains_subspace(witness[4])
    sent_rows = [r for sub in witness.values() for r in sub.basis_rows()]
    sent = Subspace(dec.spec, 8, sent_rows)
    failed_node = dec.repair_spaces[failed].sum(
        Subspace(dec.spec, 8, [complement(dec)[failed]])
    )
    assert sent.contains_subspace(failed_node)
    for j in witness:
        assert witness[j].dim <= 2
    with pytest.raises(ValueError):
        helper_repair_witness(cert, 99, new_index=4)


def test_extend_grows_and_verifies(outcome_k3_big):
    base, outcome = outcome_k3_big
    grown = outcome.code
    assert grown.params.n == base.params.n + 1
    assert grown.nodes[:-1] == base.nodes
    assert outcome.attempts >= 1
    assert verify_data_recovery(grown) == {}
    assert verify_repair_witnesses(grown) == []
    for x, a in grown.repair_pairs():
        verify_structure(grown, a, x)


def test_extend_checks_only_the_witnesses_it_adds(monkeypatch):
    """A growth step hands Code(...) only the witnesses it adds, C(4, 3) * (1 + 3)
    from 4 to 5 nodes; the old ones passed when the input was built.  The
    grown code is the one the public constructor accepts in full, and the
    input keeps its own table."""
    base = synthesize_base_code(3, BIG, random.Random("ext-test-base"))
    before = dict(base.witnesses)
    seen = []
    original = Code.__post_init__

    def counting(self):
        seen.append(len(self.witnesses))
        original(self)

    monkeypatch.setattr(Code, "__post_init__", counting)
    grown = extend_code(base, random.Random("ext-test-draw")).code
    assert seen == [16]
    assert grown == Code(grown.params, grown.nodes, dict(grown.witnesses))
    assert base.witnesses == before
    assert len(grown.witnesses) == 16 + len(before)


def test_extend_alignment_log_covers_every_subset(outcome_k3_big):
    base, outcome = outcome_k3_big
    n, k = base.params.n, base.params.k
    subsets = set(base.recovery_subsets())
    assert set(outcome.alignment_log) == subsets
    for helpers, cert in outcome.alignment_log.items():
        x = cert.decomposition.failed_node
        assert x not in helpers
        assert 1 <= x <= n
        dec = cert.decomposition
        basis = aligned_basis(cert).values()
        assert Subspace(dec.spec, dec.ambient_dim, basis) == outcome.code.nodes[-1]


def test_extend_builds_complete_witness_table(outcome_k3_big):
    _, outcome = outcome_k3_big
    grown = outcome.code
    assert set(grown.witnesses) == set(grown.repair_pairs())
    # every pair checks clean, so nothing is missing or malformed
    assert len(grown.witnesses) == 5 * math.comb(4, 3)
    assert verify_repair_witnesses(grown) == []


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
    message = str(info.value)
    assert "in 2 attempts" in message
    assert "bound is 0 " in message


def test_find_alignments_accepts_the_grown_node(outcome_k3_big):
    base, outcome = outcome_k3_big
    log = find_alignments(base, outcome.code.nodes[-1])
    assert log is not None
    assert set(log) == set(base.recovery_subsets())
    assert len(base._splits) > 0
    before = dict(base._splits)
    again = find_alignments(base, outcome.code.nodes[-1])
    assert again is not None
    assert base._splits == before


@pytest.mark.parametrize("p,target", [(65521, 8), (3, 6)])
def test_shared_cache_holds_splits_of_the_grown_code(p, target, tmp_path):
    """Each step of a growth chain hands its splits on to the grown code:
    every split the final code holds is still the one compute_decomposition
    derives from it, and the grown bytes are those of a chain that clears
    the splits at every step.  At p=3 most draws are rejected and the x-scan
    goes past the first x; k=3 at p=3 rarely reaches n=7 within thousands of
    draws, so that chain stops at 6."""

    def grow(keep):
        code = synthesize_base_code(3, FieldSpec(p), random.Random("cache-base"))
        n0, rng = code.params.n, random.Random("cache-grow")
        while code.params.n < target:
            if not keep:
                code._splits.clear()
            code = extend_code(code, rng, max_attempts=5000).code
        return n0, code

    n0, final = grow(keep=True)
    save_code(final, str(tmp_path / "kept"))
    save_code(grow(keep=False)[1], str(tmp_path / "fresh"))
    assert (tmp_path / "kept").read_bytes() == (tmp_path / "fresh").read_bytes()
    splits = final._splits
    assert {max(helpers + (x,)) for helpers, x in splits} == set(range(n0, target))
    for (helpers, x), dec in splits.items():
        derived = compute_decomposition(final, helpers, x)
        assert (dec.helpers, dec.failed_node) == (helpers, x)
        assert dec.repair_spaces == derived.repair_spaces
        assert dec.complement_vectors == derived.complement_vectors


def test_sibling_extensions_hold_separate_splits():
    """Two extensions of one parent each start from a copy of the parent's
    splits, so what one child derives never reaches the other or the parent."""
    parent = synthesize_base_code(3, BIG, random.Random("sibling-base"))
    one = extend_code(parent, random.Random("sibling-1")).code
    two = extend_code(parent, random.Random("sibling-2")).code
    assert one.nodes[-1] != two.nodes[-1]
    inherited = dict(parent._splits)
    assert inherited and one._splits == two._splits == inherited
    assert one._splits is not two._splits
    extend_code(one, random.Random("sibling-3"))
    assert len(one._splits) > len(inherited)
    assert two._splits == parent._splits == inherited
    # a split of the grown child names its new node, which the others lack
    assert any(5 in helpers + (x,) for helpers, x in one._splits)


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


def _count_unit_checks(monkeypatch):
    """Count the recovery subsets and repair pairs the verifiers check."""
    import regenext.regen as regen

    subsets, pairs = Counter(), Counter()
    check_subset, check_pair = regen.check_recovery_subset, regen.check_repair_pair

    def counted_subset(code, subset):
        subsets[tuple(subset)] += 1
        return check_subset(code, subset)

    def counted_pair(code, x, helpers):
        pairs[(x, tuple(helpers))] += 1
        return check_pair(code, x, helpers)

    monkeypatch.setattr(regen, "check_recovery_subset", counted_subset)
    monkeypatch.setattr(regen, "check_repair_pair", counted_pair)
    return subsets, pairs


def test_extend_checks_each_new_unit_once(outcome_k3_big, monkeypatch):
    base, _ = outcome_k3_big
    n, k = base.params.n, base.params.k
    subsets, pairs = _count_unit_checks(monkeypatch)
    grown = extend_code(base, random.Random("ext-test-draw")).code
    star = n + 1
    assert set(subsets.values()) == {1} and set(pairs.values()) == {1}
    assert set(subsets) == {s for s in grown.recovery_subsets() if star in s}
    assert len(subsets) == math.comb(n, k - 1)
    assert sum(1 for x, _ in pairs if x == star) == math.comb(n, k)
    assert sum(1 for x, a in pairs if star in a) == n * math.comb(n - 1, k - 1)
    assert set(pairs) == {(x, a) for x, a in grown.repair_pairs() if star == x or star in a}


def test_base_synthesis_checks_every_unit_once(monkeypatch):
    k = 3
    subsets, pairs = _count_unit_checks(monkeypatch)
    code = synthesize_base_code(k, BIG, random.Random("ext-test-base"))
    assert set(subsets.values()) == {1} and set(pairs.values()) == {1}
    assert set(subsets) == set(code.recovery_subsets()) and len(subsets) == k + 1
    assert set(pairs) == set(code.repair_pairs()) and len(pairs) == k + 1


def test_base_synthesis_checks_its_frame_subset(monkeypatch):
    """The frame subset (1, ..., k) is the base's one unit without node k+1,
    so synthesis checks it apart from the step that adds that node."""
    import regenext.regen as regen

    real = regen.check_recovery_subset

    def frame_fails(code, subset):
        if tuple(subset) == (1, 2, 3):
            return f"recovery subset {subset}: flagged"
        return real(code, subset)

    monkeypatch.setattr(regen, "check_recovery_subset", frame_fails)
    with pytest.raises(SynthesisError, match=r"indicates a bug: recovery subset \(1, 2, 3\)"):
        synthesize_base_code(3, BIG, random.Random("ext-test-base"))


def test_base_synthesis_catches_a_witness_that_misses_its_node(monkeypatch):
    """A base code that fails a check is a bug, raised at once, not redrawn."""
    import regenext.extend as extend

    def short_witness(cert, failed, new_index):
        real = helper_repair_witness(cert, failed, new_index)
        spec, dim = cert.decomposition.spec, cert.decomposition.ambient_dim
        return {j: Subspace(spec, dim, []) if j == new_index else sub for j, sub in real.items()}

    monkeypatch.setattr(extend, "helper_repair_witness", short_witness)
    with pytest.raises(SynthesisError, match="indicates a bug: .*do not cover the failed node"):
        synthesize_base_code(3, GF5, random.Random(1))


def test_extend_catches_a_witness_that_misses_its_node(outcome_k3_big, monkeypatch):
    """Coverage is checked by the verifier, not by the witness builders."""
    import regenext.extend as extend

    base, _ = outcome_k3_big

    def short_witness(cert, failed, new_index):
        real = helper_repair_witness(cert, failed, new_index)
        spec, dim = cert.decomposition.spec, cert.decomposition.ambient_dim
        return {j: Subspace(spec, dim, []) if j == new_index else sub for j, sub in real.items()}

    monkeypatch.setattr(extend, "helper_repair_witness", short_witness)
    with pytest.raises(ExtensionError, match="do not cover the failed node"):
        extend_code(base, random.Random("ext-test-draw"))


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_builders_match_a_per_entry_reference(k, p):
    """Both witness kinds equal the ones built entry by entry from
    sigma(i, j) and theta(i, j) = c_j - c_i, read off coordinates: helper j
    sends sigma(i, j) + theta(i, j) t_j over i != j to the new node, and the
    sigma(i, j), i outside {j, f}, plus t_j when the new node helps repair f."""
    spec = FieldSpec(p)
    rng = random.Random(f"builders-{k}-{p}")
    dec = synthesize_decomposition(k, spec, rng)
    _, cert = sample_well_aligned(dec, rng)
    helpers, t, basis = dec.helpers, complement(dec), aligned_basis(cert)
    sigma, theta = {}, {}

    def span(rows):
        return Subspace(spec, dec.ambient_dim, rows)

    def part(i, j):
        return combine(p, (1, theta[(i, j)]), (sigma[(i, j)], t[j]))

    for i in helpers:
        coords = coordinates(dec, basis[i])
        c = dict(zip(helpers, coords[k * (k - 1) :] + (0,)))
        for n, j in enumerate(helpers):
            block = coords[n * (k - 1) : (n + 1) * (k - 1)]
            sigma[(i, j)] = combine(p, block, dec.repair_spaces[j].basis_rows())
            theta[(i, j)] = (c[j] - c[i]) % p
        assert not any(sigma[(i, i)])
        assert combine(p, [1] * (k - 1), [part(i, j) for j in helpers if j != i]) == basis[i]
    assert new_node_repair_witness(cert) == {
        j: span([part(i, j) for i in helpers if i != j]) for j in helpers
    }
    star = k + 1
    for f in helpers:
        expected = {star: span([basis[i] for i in helpers if i != f])}
        for j in helpers:
            if j != f:
                expected[j] = span([sigma[(i, j)] for i in helpers if i not in (j, f)] + [t[j]])
        assert helper_repair_witness(cert, f, star) == expected


def test_parts_are_split_only_for_kept_certificates(monkeypatch):
    """A certificate splits its k basis vectors once, when a builder first
    reads its parts: one k=3 step from 4 nodes keeps C(4, 3) certificates and
    splits 3 * 4 times however many draws it rejects, and the Monte Carlo
    estimate and the census, which keep no certificate, split nothing."""
    gf3 = FieldSpec(3)
    base = synthesize_base_code(3, gf3, random.Random("parts-base-0"))
    calls = []
    original = Decomposition._split

    def counting(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(Decomposition, "_split", counting)
    outcome = extend_code(base, random.Random("parts-draw-0"), max_attempts=500)
    assert outcome.attempts > 1
    assert len(calls) == 3 * math.comb(4, 3)
    calls.clear()
    rng = random.Random("parts-sample")
    freq, _ = estimate_probability_monte_carlo(synthesize_decomposition(3, gf3, rng), 200, rng)
    assert freq > 0
    assert census_well_aligned(synthesize_decomposition(2, gf3, rng)) == 9
    assert calls == []
