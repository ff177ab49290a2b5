"""k=2 codes are arcs of PG(2, p).

At k=2 a node is a plane of GF(p)^3, the kernel of one functional: a point
of the dual plane.  Node x is repairable from {a, b} exactly when the lines
W_a meet W_x and W_b meet W_x differ, that is, when the three dual points are
not collinear.  So a valid k=2 code on n nodes is an n-arc, and n <= p+1 for
odd p (Bose).  The conic reaches that ceiling, so no node extends it.
"""

import itertools
import random

import pytest

from regenext.extend import ExtensionError, extend_code, find_alignments, synthesize_base_code
from regenext.gf import FieldSpec
from regenext.linalg import enumerate_subspaces, nullspace, rank
from regenext.regen import verify_data_recovery, verify_repair_witnesses

from conftest import conic_code

ODD_PRIMES = [3, 5, 7]


def dual_point(node):
    """The functional whose kernel is the plane node, up to scale."""
    (point,) = nullspace(node.spec, list(zip(*node.basis_rows()))).basis_rows()
    return point


def is_arc(code):
    """No three of the code's dual points are collinear."""
    points = [dual_point(node) for node in code.nodes]
    return all(rank(code.params.spec.p, trio) == 3 for trio in itertools.combinations(points, 3))


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_conic_code_verifies_and_cannot_grow(p):
    code = conic_code(p)
    assert code.params.n == p + 1 and is_arc(code)
    assert verify_data_recovery(code) == {}
    assert verify_repair_witnesses(code) == []
    for candidate in enumerate_subspaces(3, 2, FieldSpec(p)):
        assert find_alignments(code, candidate) is None


@pytest.mark.parametrize("p", ODD_PRIMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_grown_k2_code_is_an_arc(p, seed):
    """Growth until a draw budget runs out: each code on the way is an arc,
    so it stays within the ceiling of p+1 nodes."""
    code = synthesize_base_code(2, FieldSpec(p), random.Random(f"arc-base-{p}-{seed}"))
    rng = random.Random(f"arc-grow-{p}-{seed}")
    while True:
        assert code.params.n <= p + 1 and is_arc(code)
        try:
            code = extend_code(code, rng, max_attempts=200).code
        except ExtensionError:
            break
