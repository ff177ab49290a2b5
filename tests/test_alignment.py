"""Tests for the well-aligned candidate checker, sampler, and counts."""

import random
from fractions import Fraction

import pytest

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
    CapExceededError,
    Matrix,
    Subspace,
    count_subspaces,
    enumerate_subspaces,
    random_subspace,
    vec_add,
)
from regenext.structure import compute_decomposition

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def first_decomposition(code):
    x, helpers = next(iter(sorted(code.witnesses)))
    return compute_decomposition(code, helpers, x)


def assert_certificate_consistent(cert, candidate):
    """Re-verify every certificate claim from scratch."""
    dec = cert.decomposition
    p = dec.spec.p
    helpers = dec.helpers
    assert cert.subspace() == candidate
    for i in helpers:
        # the basis vector reassembles from its recorded parts
        total = cert.complement_parts[i]
        for j in helpers:
            total = vec_add(p, total, cert.repair_parts[(i, j)])
        assert total == cert.basis[i]
        assert candidate.contains(cert.basis[i])
        assert not any(cert.repair_parts[(i, i)])
        assert dec.complement_space.contains(cert.complement_parts[i])
        for j in helpers:
            assert dec.repair_spaces[j].contains(cert.repair_parts[(i, j)])
        # recorded coefficients rebuild tau over the other leftovers
        tau = (0,) * dec.ambient_dim
        for j in helpers:
            if j == i:
                continue
            c = cert.complement_coeffs[(i, j)]
            tau = vec_add(
                p, tau, tuple((c * v) % p for v in dec.complement_vectors[j])
            )
        assert tau == cert.complement_parts[i]
    for j in helpers:
        rows = [cert.repair_parts[(i, j)] for i in helpers if i != j]
        block = Matrix(dec.spec, rows, cols=dec.ambient_dim)
        assert block.rank() == dec.k - 1


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
        is_well_aligned(Subspace.zero(dec.spec, 8), dec)
    with pytest.raises(ValueError):
        is_well_aligned(Subspace(dec.spec, 8, Matrix.identity(dec.spec, 8).entries), dec)
    with pytest.raises(ValueError):
        is_well_aligned(random_subspace(3, 2, dec.spec, random.Random(1)), dec)


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
            v = vec_add(p, tuple((c0 * t) % p for t in rows[0]),
                        tuple((c1 * t) % p for t in rows[1]))
            coords = dec.coordinates(v)
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


def test_census_cap(base_k3_p5):
    dec = first_decomposition(base_k3_p5)
    with pytest.raises(CapExceededError):
        census_well_aligned(dec, cap=100)


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
