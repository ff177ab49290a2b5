"""Property tests of the GF(p) linear algebra, of the splits that the
decomposition producers return and of alignment certificates, at both ends
of the field range."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regenext.alignment import is_well_aligned, sample_well_aligned
from regenext.extend import synthesize_base_code, synthesize_decomposition
from regenext.gf import FieldSpec
from regenext.linalg import (
    Matrix,
    Subspace,
    _layout,
    inverse,
    nullspace,
    random_subspace,
)
from regenext.regen import (
    Code,
    brute_force_repairable,
    check_recovery_subset,
    check_repair_pair,
    verify_data_recovery,
    verify_repair_witnesses,
)
from regenext.structure import DecompositionError, _lemma_applies, compute_decomposition

from conftest import (
    assert_certificate_consistent,
    combine,
    complement,
    expand_complement,
    identity_rows,
    random_invertible_matrix,
    rank,
    split,
    subspace_sum,
)

PRIMES = [2, 3, 5, 65521, 2**31 - 1]
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def matrices(draw, max_rows=5, max_cols=6, square=False):
    """(spec, cols, rows) of a matrix over one of PRIMES, small entries favoured
    at large p so that dependent rows still turn up."""
    p = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(1, max_cols))
    nrows = cols if square else draw(st.integers(0, max_rows))
    entry = st.one_of(st.integers(0, min(p - 1, 2)), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=nrows,
                         max_size=nrows))
    return FieldSpec(p), cols, rows


@PROPERTY
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_canonical_and_idempotent(case, rng):
    spec, cols, rows = case
    m = Matrix(spec, rows, cols=cols)
    reduced = Subspace(spec, cols, rows).basis_rows()
    assert all(any(row) for row in reduced)
    assert len(reduced) == rank(spec.p, m.entries) == Subspace(spec, cols, m.entries).dim
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert reduced[r][pc] == 1
        assert all(reduced[i][pc] == 0 for i in range(len(pivots)) if i != r)
    assert Subspace(spec, cols, reduced).basis_rows() == reduced
    # any invertible row operation leaves the row space, hence the RREF, alone
    if rows:
        mixer = random_invertible_matrix(spec, len(rows), rng)
        mixed = [combine(spec.p, t, m.entries) for t in mixer]
        assert Subspace(spec, cols, mixed).basis_rows() == reduced


@PROPERTY
@given(matrices(), st.randoms(use_true_random=False))
def test_every_constructor_gives_equal_and_hash_equal_subspaces(case, rng):
    """Subspace(...), the trusted _span_packed and _from_rref, and nullspace
    all hold one canonical packed form, so the same space compares and
    hashes equal whichever built it; basis_rows() round-trips through
    Subspace(...)."""
    spec, cols, rows = case
    p = spec.p
    entries = Matrix(spec, rows, cols=cols).entries

    def span_packed(n, residue_rows):
        lay = _layout(p, n)
        return Subspace._span_packed(spec, n, map(lay.pack, residue_rows))

    for space in (Subspace(spec, cols, rows), nullspace(spec, entries)):
        n, basis = space.ambient_dim, space.basis_rows()
        built = [
            Subspace(spec, n, basis),
            Subspace(spec, n, [[x + p for x in row] for row in basis]),
            span_packed(n, basis),
            Subspace._from_rref(spec, n, space._rows),
        ]
        if basis:
            mixer = random_invertible_matrix(spec, len(basis), rng)
            built.append(span_packed(n, [combine(p, t, basis) for t in mixer]))
        for other in built:
            assert other == space and hash(other) == hash(space)
            assert other.basis_rows() == basis
    assert span_packed(cols, entries) == Subspace(spec, cols, rows)


@PROPERTY
@given(matrices())
def test_nullspace_is_the_kernel(case):
    """Every nullspace row c combines the rows to zero, rank-nullity holds,
    and the rows are the canonical RREF that Subspace would compute; the
    draws include more rows than columns and zero rows."""
    spec, cols, rows = case
    m = Matrix(spec, rows, cols=cols)
    ker = nullspace(spec, m.entries)
    assert ker.ambient_dim == len(rows)
    assert ker.basis_rows() == Subspace(spec, len(rows), ker.basis_rows()).basis_rows()
    assert ker.dim == len(rows) - rank(spec.p, m.entries)
    for c in ker.basis_rows():
        assert not any(combine(spec.p, c, m.entries))


@PROPERTY
@given(matrices(square=True))
def test_inverse_round_trips_or_rejects_singular(case):
    spec, n, rows = case
    p, m = spec.p, Matrix(spec, rows, cols=n).entries
    if rank(p, m) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(p, m)
        return
    inv = inverse(p, m)
    assert tuple(combine(p, row, inv) for row in m) == identity_rows(n)
    assert tuple(combine(p, row, m) for row in inv) == identity_rows(n)


@PROPERTY
@given(st.sampled_from(PRIMES), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_certificate_theta_rebuilds_tau(p, k, seed):
    """theta(i, j) = c_j - c_i writes tau(i) over the t_j with j != i, both for
    a sampled aligned node and for any uniform draw the checker accepts."""
    rng = random.Random(seed)
    dec = synthesize_decomposition(k, FieldSpec(p), rng)
    candidate, cert = sample_well_aligned(dec, rng)
    assert_certificate_consistent(cert, candidate)
    draw = random_subspace(dec.ambient_dim, k, dec.spec, rng)
    cert = is_well_aligned(draw, dec)
    if cert is not None:
        assert_certificate_consistent(cert, draw)


def assert_split_holds(dec, nodes, rng):
    """What both producers guarantee of a split: the t_j sum to zero, each
    t_j lies in its node W_j but not in S_j, they span k-1 dimensions, and
    coordinates round-trip through the repair and complement blocks."""
    p, ambient, t = dec.spec.p, dec.ambient_dim, complement(dec)
    for j in dec.helpers:
        assert nodes[j].contains(t[j])
        assert not dec.repair_spaces[j].contains(t[j])
    assert not any(combine(p, [1] * dec.k, list(t.values())))
    assert Subspace(dec.spec, ambient, t.values()).dim == dec.k - 1
    for _ in range(5):
        v = tuple(rng.randrange(p) for _ in range(ambient))
        parts, weights = split(dec, v)
        back = [expand_complement(dec, weights), *parts.values()]
        assert combine(p, [1] * len(back), back) == v


def _one_entry_changed(code, rng):
    """A copy of the code with one entry of one node or witness row redrawn."""
    spec, ambient = code.params.spec, code.params.f_dim

    def changed(sub):
        rows = [list(row) for row in sub.basis_rows()]
        rows[rng.randrange(len(rows))][rng.randrange(ambient)] = rng.randrange(spec.p)
        return Subspace(spec, ambient, rows)

    nodes, witnesses = list(code.nodes), dict(code.witnesses)
    if rng.random() < 0.5:
        i = rng.randrange(len(nodes))
        nodes[i] = changed(nodes[i])
    else:
        key = rng.choice(sorted(witnesses))
        spaces = dict(witnesses[key])
        j = rng.choice(sorted(spaces))
        spaces[j] = changed(spaces[j])
        witnesses[key] = spaces
    return Code(code.params, tuple(nodes), witnesses)


@PROPERTY
@given(st.sampled_from(PRIMES), st.sampled_from([2, 3, 4]), st.integers(0, 2**32))
def test_base_synthesis_takes_one_draw(p, k, seed):
    """The base code is valid by construction: synthesis consumes exactly one
    random frame and one aligned sample, and every unit of its code verifies."""
    spec = FieldSpec(p)
    rng, twin = random.Random(seed), random.Random(seed)
    code = synthesize_base_code(k, spec, rng)
    sample_well_aligned(synthesize_decomposition(k, spec, twin), twin)
    assert rng.getstate() == twin.getstate()
    assert verify_data_recovery(code) == {}
    assert verify_repair_witnesses(code) == []


@PROPERTY
@given(st.sampled_from(PRIMES), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_producers_return_only_valid_splits(p, k, seed):
    """A Decomposition checks nothing, so every split that
    synthesize_decomposition or compute_decomposition returns must hold up,
    also on code data with one entry changed."""
    rng = random.Random(seed)
    spec = FieldSpec(p)
    dec = synthesize_decomposition(k, spec, rng)
    t = complement(dec)
    frame_nodes = {
        j: subspace_sum(dec.repair_spaces[j], Subspace(spec, dec.ambient_dim, [t[j]]))
        for j in dec.helpers
    }
    assert_split_holds(dec, frame_nodes, rng)
    code = synthesize_base_code(k, spec, rng)
    for variant in [code] + [_one_entry_changed(code, rng) for _ in range(6)]:
        for x, helpers in variant.repair_pairs():
            try:
                dec = compute_decomposition(variant, helpers, x)
            except DecompositionError:
                continue
            assert_split_holds(dec, {j: variant.node(j) for j in helpers}, rng)


@PROPERTY
@given(st.sampled_from(PRIMES), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_lemma_premises_give_a_split(p, k, seed):
    """Where the lemma of regenext.structure applies to what the witness and
    recovery checks found, compute_decomposition succeeds: on the valid code
    and on codes with one node or witness entry redrawn."""
    rng = random.Random(seed)
    code = synthesize_base_code(k, FieldSpec(p), rng)
    variants = [code] + [_one_entry_changed(code, rng) for _ in range(6)]
    applied = 0
    for variant in variants:
        spanning = {s for s in variant.recovery_subsets() if not check_recovery_subset(variant, s)}
        for x, helpers in variant.repair_pairs():
            passed = not check_repair_pair(variant, x, helpers)
            if _lemma_applies(variant, helpers, x, passed, spanning):
                applied += 1
                compute_decomposition(variant, helpers, x)
    assert applied >= k + 1  # every pair of the valid code


@PROPERTY
@given(st.sampled_from([2, 3, 65521, 2**31 - 1]), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_coverage_verdict_is_containment_in_the_sent_span(p, k, seed):
    """check_repair_pair reduces the failed node against the sent rows in one
    echelon; its verdict must be that of the span's contains_subspace, on
    stored sends and on sends cut short, with a row redrawn or replaced by
    k-1 rows of the helper node, which leave gaps or close them."""
    rng = random.Random(seed)
    spec = FieldSpec(p)
    code = synthesize_base_code(k, spec, rng)
    ambient = code.params.f_dim
    witnesses = {}
    for key, witness in code.witnesses.items():
        spaces = {}
        for j, sub in sorted(witness.items()):
            rows = list(sub.basis_rows())
            change = rng.randrange(5)
            if change == 1:
                rows = rows[: rng.randrange(len(rows))]
            elif change == 2:
                rows[rng.randrange(len(rows))] = tuple(rng.randrange(p) for _ in range(ambient))
            elif change == 3:
                rows = rng.sample(code.node(j).basis_rows(), k - 1)
            spaces[j] = Subspace(spec, ambient, rows)
        witnesses[key] = spaces
    variant = Code(code.params, code.nodes, witnesses)
    for x, helpers in variant.repair_pairs():
        sent = [row for sub in variant.witnesses[(x, helpers)].values() for row in sub.basis_rows()]
        covered = Subspace(spec, ambient, sent).contains_subspace(variant.node(x))
        gap = [m for m in check_repair_pair(variant, x, helpers) if "do not cover" in m]
        assert gap == ([] if covered else [
            f"repair of {x} by {helpers}: sent subspaces do not cover the failed node"
        ])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_witness_checks_and_repair_oracle_agree(p, k, seed):
    """A witness that passes check_repair_pair is itself a repair, so the
    oracle finds one wherever the witness passes, and a pair that the oracle
    finds unrepairable has witness lines: on the valid code and on codes
    with one node or witness entry redrawn."""
    rng = random.Random(seed)
    code = synthesize_base_code(k, FieldSpec(p), rng)
    for variant in [code] + [_one_entry_changed(code, rng) for _ in range(6)]:
        for x, helpers in variant.repair_pairs():
            lines = check_repair_pair(variant, x, helpers)
            assert variant is not code or not lines
            if not brute_force_repairable(variant, x, helpers):
                assert lines
