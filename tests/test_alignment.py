"""Tests for the well-aligned candidate checker, sampler, and counts."""

import collections
import copy
import pickle
import random
from fractions import Fraction

import pytest

import regenext.alignment as alignment
from regenext.alignment import (
    census_well_aligned,
    count_well_aligned,
    count_well_aligned_lower,
    estimate_probability_monte_carlo,
    is_well_aligned,
    probability_well_aligned,
    sample_well_aligned,
)
from regenext.extend import synthesize_decomposition
from regenext.gf import FieldSpec
from regenext.linalg import (
    Subspace,
    count_subspaces,
    enumerate_subspaces,
    nullspace,
    random_subspace,
)
from regenext.structure import compute_decomposition

from conftest import (
    aligned_basis,
    assert_certificate_consistent,
    combine,
    complement,
    coordinates,
    identity_rows,
    rank,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def first_decomposition(code):
    x, helpers = next(iter(sorted(code.witnesses)))
    return compute_decomposition(code, helpers, x)


def test_sample_then_check_roundtrip(base_k3_p5):
    dec = first_decomposition(base_k3_p5)
    rng = random.Random("sample-check")
    for _ in range(300):
        candidate, cert = sample_well_aligned(dec, rng)
        assert candidate.dim == dec.k
        assert_certificate_consistent(cert, candidate)
        checked = is_well_aligned(candidate, dec)
        assert checked is not None
        assert_certificate_consistent(checked, candidate)


def test_sample_then_check_roundtrip_k2(base_k2_p3):
    dec = first_decomposition(base_k2_p3)
    rng = random.Random("sample-check-k2")
    for _ in range(300):
        candidate, cert = sample_well_aligned(dec, rng)
        assert_certificate_consistent(cert, candidate)
        assert is_well_aligned(candidate, dec) is not None


def test_helper_nodes_are_not_aligned(base_k3_p5):
    """A node of the split itself projects to zero in the other columns."""
    code = base_k3_p5
    x, helpers = next(iter(sorted(code.witnesses)))
    dec = compute_decomposition(code, helpers, x)
    for j in helpers:
        assert is_well_aligned(code.node(j), dec) is None


def test_is_well_aligned_rejects_wrong_shapes(base_k3_p5):
    dec = first_decomposition(base_k3_p5)
    with pytest.raises(ValueError):
        is_well_aligned(Subspace(dec.spec, 8), dec)
    with pytest.raises(ValueError):
        is_well_aligned(Subspace(dec.spec, 8, identity_rows(8)), dec)
    with pytest.raises(ValueError):
        is_well_aligned(random_subspace(3, 2, dec.spec, random.Random(1)), dec)


def test_is_well_aligned_compares_spaces_by_layout(base_k3_p5):
    """A candidate over another field or of another width raises, with its
    message; a pickled or deep-copied candidate and decomposition give the
    verdicts of the originals."""
    dec = first_decomposition(base_k3_p5)
    rng = random.Random("layout")
    message = "^candidate lives in a different space than the decomposition$"
    for other in (random_subspace(8, 3, FieldSpec(7), rng), random_subspace(9, 3, dec.spec, rng)):
        with pytest.raises(ValueError, match=message):
            is_well_aligned(other, dec)
    aligned, _ = sample_well_aligned(dec, rng)
    helper = base_k3_p5.node(dec.helpers[0])
    for copied in (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        cert = is_well_aligned(copied(aligned), copied(dec))
        assert cert is not None and cert.candidate == aligned
        assert is_well_aligned(copied(helper), copied(dec)) is None


def aligned_by_definition_k2(candidate, dec):
    """Definition-chasing oracle for k = 2, independent of the checker.

    A dim-2 candidate is well aligned iff it holds one nonzero vector with
    zero component in S_a and nonzero component in S_b, and another with the
    roles swapped.
    """
    p = dec.spec.p
    a, b = dec.helpers
    rows = candidate.basis_rows()
    seen_a = False
    seen_b = False
    for c0 in range(p):
        for c1 in range(p):
            if c0 == 0 and c1 == 0:
                continue
            v = combine(p, (c0, c1), rows)
            coords = coordinates(dec, v)
            in_a = any(dec.repair_block(coords, a))
            in_b = any(dec.repair_block(coords, b))
            if not in_a and in_b:
                seen_a = True
            if not in_b and in_a:
                seen_b = True
    return seen_a and seen_b


@pytest.mark.parametrize("p", [2, 3])
def test_checker_matches_definition_k2(p):
    spec = FieldSpec(p)
    dec = synthesize_decomposition(2, spec, random.Random(f"def-oracle-{p}"))
    hits = 0
    for candidate in enumerate_subspaces(3, 2, spec):
        verdict = is_well_aligned(candidate, dec) is not None
        assert verdict == aligned_by_definition_k2(candidate, dec)
        hits += verdict
    assert hits == count_well_aligned(2, spec)
    assert hits == census_well_aligned(dec)


def test_census_frozen_values_k2():
    # enumerated over all planes before freezing: 4 of 7 at p=2, 9 of 13 at p=3
    dec2 = synthesize_decomposition(2, GF2, random.Random("census-2"))
    dec3 = synthesize_decomposition(2, GF3, random.Random("census-3"))
    assert census_well_aligned(dec2) == 4
    assert census_well_aligned(dec3) == 9
    assert count_subspaces(3, 2, GF2) == 7
    assert count_subspaces(3, 2, GF3) == 13


def test_census_is_decomposition_invariant():
    """The aligned count depends only on (k, p), not the split chosen."""
    counts = set()
    for seed in range(3):
        dec = synthesize_decomposition(2, GF3, random.Random(f"invariant-{seed}"))
        counts.add(census_well_aligned(dec))
    assert counts == {9}


def test_count_formulas():
    assert count_well_aligned(2, GF2) == 4
    assert count_well_aligned(2, GF3) == 9
    assert count_well_aligned_lower(2, GF2) == 1
    assert count_well_aligned_lower(2, GF3) == 4
    assert count_well_aligned(3, GF2) == 13824
    with pytest.raises(ValueError):
        count_well_aligned(1, GF2)
    with pytest.raises(ValueError):
        count_well_aligned_lower(1, GF2)


def test_exact_vs_lower_scaling_identity():
    # the two divisors differ by exactly (q / (q-1))^k
    for k in (2, 3, 4):
        for p in (2, 3, 5, 101):
            spec = FieldSpec(p)
            exact = count_well_aligned(k, spec)
            lower = count_well_aligned_lower(k, spec)
            assert exact * (p - 1) ** k == lower * p**k
            assert lower < exact


def test_probability_values_and_monotonicity():
    assert probability_well_aligned(2, GF2) == Fraction(4, 7)
    assert probability_well_aligned(2, GF3) == Fraction(9, 13)
    assert probability_well_aligned(3, GF2) == Fraction(13824, 97155)
    probs = [probability_well_aligned(3, FieldSpec(p)) for p in (101, 1009, 65521)]
    assert probs[0] < probs[1] < probs[2] < 1
    assert probs[0] > Fraction(49, 50)


def test_monte_carlo_brackets_exact_probability():
    dec = synthesize_decomposition(2, GF3, random.Random("mc-dec"))
    freq, (lo, hi) = estimate_probability_monte_carlo(
        dec, 10**4, random.Random("mc-draws")
    )
    truth = probability_well_aligned(2, GF3)
    assert lo <= float(truth) <= hi
    assert abs(float(freq) - float(truth)) < 0.05
    with pytest.raises(ValueError):
        estimate_probability_monte_carlo(dec, 0, random.Random(1))


def reference_alignment(candidate, dec):
    """The verdict by elimination, independent of the closed form: each
    helper's block through nullspace, then the rank of the kernel lines.
    "deficient" when some kernel is not a line, "dependent" when the lines
    do not span the candidate, else "aligned", with the aligned basis."""
    p = dec.spec.p
    rows = candidate.basis_rows()
    coords = [coordinates(dec, r) for r in rows]
    lines = []
    for j in dec.helpers:
        kernel = nullspace(dec.spec, [dec.repair_block(c, j) for c in coords])
        if kernel.dim != 1:
            return "deficient", None
        lines.append(kernel.basis_rows()[0])
    if rank(p, lines) < dec.k:
        return "dependent", None
    return "aligned", {i: combine(p, line, rows) for i, line in zip(dec.helpers, lines)}


def from_coordinates(dec, rows):
    """The span of the vectors with the given coordinates in the
    decomposition's basis, or None when it is not k-dimensional."""
    basis = [r for j in dec.helpers for r in dec.repair_spaces[j].basis_rows()]
    basis += [complement(dec)[j] for j in dec.helpers[:-1]]
    span = Subspace(dec.spec, dec.ambient_dim, [combine(dec.spec.p, row, basis) for row in rows])
    return span if span.dim == dec.k else None


def random_rows(p, count, width, rng):
    return [[rng.randrange(p) for _ in range(width)] for _ in range(count)]


def block_with_kernel(p, line):
    """A k x (k-1) block whose left kernel is the line: its columns are a
    basis of the vectors orthogonal to the line."""
    columns = nullspace(FieldSpec(p), [[x] for x in line]).basis_rows()
    return [list(row) for row in zip(*columns)]


def candidate_from_blocks(dec, make_blocks, rng):
    """A candidate whose coordinates are the blocks make_blocks() returns,
    one per helper, next to a random complement part; redrawn until the
    rows are independent."""
    k, p = dec.k, dec.spec.p
    while True:
        blocks = make_blocks()
        rows = [sum((b[r] for b in blocks), []) for r in range(k)]
        tail = random_rows(p, k, k - 1, rng)
        candidate = from_coordinates(dec, [row + t for row, t in zip(rows, tail)])
        if candidate is not None:
            return candidate


def deficient_candidate(dec, rng):
    """One helper's block has rank at most k-2, the others are random."""
    k, p = dec.k, dec.spec.p
    low = rng.randrange(k)

    def make_blocks():
        blocks = [random_rows(p, k, k - 1, rng) for _ in range(k)]
        factor = random_rows(p, k - 2, k - 1, rng)
        blocks[low] = [
            list(combine(p, g, factor)) if factor else [0] * (k - 1)
            for g in random_rows(p, k, k - 2, rng)
        ]
        return blocks

    return candidate_from_blocks(dec, make_blocks, rng)


def dependent_candidate(dec, rng):
    """Every block has rank k-1, so every minor vector is nonzero, but the
    last kernel line is a combination of the others."""
    k, p = dec.k, dec.spec.p

    def nonzero_line(make):
        while True:
            line = make()
            if any(line):
                return line

    def make_blocks():
        lines = [nonzero_line(lambda: random_rows(p, 1, k, rng)[0]) for _ in range(k - 1)]
        lines.append(nonzero_line(lambda: combine(p, random_rows(p, 1, k - 1, rng)[0], lines)))
        return [block_with_kernel(p, line) for line in lines]

    return candidate_from_blocks(dec, make_blocks, rng)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_closed_form_matches_elimination(k, p):
    """is_well_aligned agrees with reference_alignment, verdict and basis, on
    aligned, rank-deficient, dependent and uniform random candidates."""
    spec = FieldSpec(p)
    rng = random.Random(f"closed-form-{k}-{p}")
    dec = synthesize_decomposition(k, spec, rng)
    kinds = {
        "aligned": lambda: sample_well_aligned(dec, rng)[0],
        "deficient": lambda: deficient_candidate(dec, rng),
        "dependent": lambda: dependent_candidate(dec, rng),
        None: lambda: random_subspace(dec.ambient_dim, k, spec, rng),
    }
    seen = set()
    for kind, draw in kinds.items():
        for _ in range(8):
            candidate = draw()
            verdict, basis = reference_alignment(candidate, dec)
            assert kind in (None, verdict)
            seen.add(verdict)
            cert = is_well_aligned(candidate, dec)
            assert (cert and aligned_basis(cert)) == basis
    assert seen == {"aligned", "deficient", "dependent"}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_closed_form_runs_no_elimination(k, monkeypatch):
    """Up to k = 4 the test takes the signed minors and eliminates nothing;
    from k = 5 on it takes nullspace, k+1 times for an aligned candidate:
    once per helper's block and once for the span of the kernel lines."""
    calls = collections.Counter()
    original = alignment.nullspace

    def counting(*args):
        calls["nullspace"] += 1
        return original(*args)

    monkeypatch.setattr(alignment, "nullspace", counting)
    rng = random.Random(f"fast-path-{k}")
    dec = synthesize_decomposition(k, GF3, rng)
    verdicts, aligned = set(), []
    for _ in range(10):
        before = calls["nullspace"]
        verdicts.add(sample_well_aligned(dec, rng)[1] is not None)
        aligned.append(calls["nullspace"] - before)
        verdicts.add(is_well_aligned(random_subspace(dec.ambient_dim, k, GF3, rng), dec) is not None)
    assert verdicts == {True, False}
    if k <= 4:
        assert calls == {}
    else:
        # each uniform draw takes at least one block's nullspace
        assert aligned == [k + 1] * 10 and calls["nullspace"] >= 10 * (k + 2)
