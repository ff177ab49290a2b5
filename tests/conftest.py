"""Shared fixtures: small verified codes built once per session, and the
certificate check that the alignment and property tests share."""

import random

import pytest

from regenext.extend import extend_code, synthesize_base_code
from regenext.gf import FieldSpec
from regenext.linalg import Subspace, rank, vec_add, vec_sub


def combine(p, coeffs, rows):
    """Linear combination sum(coeffs[i] * rows[i]) over GF(p), entry by entry:
    the reference that the packed combinations of regenext.linalg are
    checked against."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for idx, x in enumerate(row):
            acc[idx] += c * x
    return tuple(x % p for x in acc)


@pytest.fixture(scope="session")
def base_k2_p3():
    return synthesize_base_code(2, FieldSpec(3), random.Random("fixture-base-2-3"))


@pytest.fixture(scope="session")
def base_k3_p5():
    return synthesize_base_code(3, FieldSpec(5), random.Random("fixture-base-3-5"))


@pytest.fixture(scope="session")
def extended_k3_big():
    """A (5, 3, 3) code over GF(65521), one extension past the base."""
    base = synthesize_base_code(
        3, FieldSpec(65521), random.Random("fixture-base-3-big")
    )
    outcome = extend_code(base, random.Random("fixture-grow-3-big"))
    return outcome.code


def identity_rows(n):
    """The rows of the n x n identity matrix, as tuples."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def coordinates(dec, v):
    """The coordinates of v in the decomposition's basis: the bases of the
    repair spaces, then t_j for every helper but the last."""
    return dec._lay.unpack(dec._coords(v))


def expand_complement(dec, block):
    """The vector of T whose complement-block coordinates are block, which
    weighs t_j for every helper j but the last."""
    return combine(dec.spec.p, block, [dec.complement_vectors[j] for j in dec.helpers[:-1]])


def assert_certificate_consistent(cert, candidate):
    """Re-verify every certificate claim from scratch."""
    dec = cert.decomposition
    p = dec.spec.p
    helpers = dec.helpers
    complement_space = Subspace(dec.spec, dec.ambient_dim, dec.complement_vectors.values())
    assert Subspace(dec.spec, dec.ambient_dim, cert.basis.values()) == candidate
    for i in helpers:
        # what the basis vector holds beyond its recorded repair parts lies in T
        complement_part = cert.basis[i]
        for j in helpers:
            complement_part = vec_sub(p, complement_part, cert.repair_parts[(i, j)])
        assert candidate.contains(cert.basis[i])
        assert not any(cert.repair_parts[(i, i)])
        assert complement_space.contains(complement_part)
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
        assert tau == complement_part
    for j in helpers:
        rows = [cert.repair_parts[(i, j)] for i in helpers if i != j]
        assert rank(p, rows) == dec.k - 1
