"""k=2 codes are arcs of PG(2, p).

At k=2 a node is a plane of GF(p)^3, the kernel of one functional: a point
of the dual plane.  Node x is repairable from {a, b} exactly when the lines
W_a meet W_x and W_b meet W_x differ, that is, when the three dual points are
not collinear.  So a valid k=2 code on n nodes is an n-arc, and n <= p+1 for
odd p (Bose) and n <= 4 for p = 2.  The conic reaches the odd ceiling and
the conic plus its nucleus the even one, so no node extends them.  A node
extends a shorter arc exactly when its dual point lies on no secant.
"""

import itertools
import random

import pytest

from regenext.extend import ExtensionError, extend_code, find_alignments, synthesize_base_code
from regenext.gf import FieldSpec
from regenext.linalg import enumerate_subspaces, nullspace
from regenext.regen import (
    Code,
    Params,
    brute_force_repairable,
    check_recovery_subset,
    verify_data_recovery,
    verify_repair_witnesses,
)

from conftest import arc_code, conic_code, conic_points, rank

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


def extends(code, candidate):
    """Whether the candidate as node n+1 passes the checks that need no
    witness: every new recovery subset spans F and the oracle repairs every
    new pair."""
    pr = code.params
    new = pr.n + 1
    grown = Code(Params(new, 2, pr.spec), (*code.nodes, candidate))
    return not any(check_recovery_subset(grown, (j, new)) for j in range(1, new)) and all(
        brute_force_repairable(grown, x, helpers)
        for x, helpers in grown.repair_pairs()
        if new in (x, *helpers)
    )


def off_secants(p, points):
    """The number of points of PG(2, p) on no line through two of points."""
    # one representative per point: its first nonzero coordinate is 1
    plane = [q for q in itertools.product(range(p), repeat=3) if next(filter(None, q), 0) == 1]
    return sum(
        all(rank(p, (a, b, q)) == 3 for a, b in itertools.combinations(points, 2))
        for q in plane
    )


@pytest.mark.parametrize(
    "p,counts", [(5, (16, 6, 1, 0)), (7, (36, 20, 7, 2))], ids=["p5", "p7"]
)
def test_sub_arcs_extend_exactly_off_their_secants(p, counts):
    """On the first m = 3, ..., 6 points of the conic, the planes that
    find_alignments accepts, the planes that extend the code by the
    witness-free checks and the points on no secant are equally many."""
    for m, expected in zip(range(3, 7), counts):
        points = conic_points(p)[:m]
        code = arc_code(p, points)
        planes = list(enumerate_subspaces(3, 2, FieldSpec(p)))
        aligned = sum(find_alignments(code, plane) is not None for plane in planes)
        extending = sum(extends(code, plane) for plane in planes)
        assert aligned == extending == off_secants(p, points) == expected, m


def test_hyperoval_at_p2_verifies_and_cannot_grow():
    """At p = 2 the conic's 3 points and its nucleus (0, 1, 0) form a 4-arc,
    the longest: its code verifies and no plane extends it by either test."""
    code = arc_code(2, [*conic_points(2), (0, 1, 0)])
    assert code.params.n == 4 and is_arc(code)
    assert verify_data_recovery(code) == {}
    assert verify_repair_witnesses(code) == []
    for plane in enumerate_subspaces(3, 2, FieldSpec(2)):
        assert find_alignments(code, plane) is None and not extends(code, plane)
