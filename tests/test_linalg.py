"""Tests for exact linear algebra over GF(p)."""

import itertools
import random

import pytest

from regenext.gf import FieldSpec
from regenext.linalg import (
    CapExceededError,
    Matrix,
    Subspace,
    combine,
    count_subspaces,
    enumerate_subspaces,
    nullspace,
    random_invertible_matrix,
    random_matrix,
    random_subspace,
    solve_left,
    vec_add,
    vec_scale,
    vec_sub,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def gaussian_binomial_recurrence(n, k, q):
    """Independent oracle: q-Pascal recurrence, no product formula."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial_recurrence(
        n - 1, k - 1, q
    ) + q**k * gaussian_binomial_recurrence(n - 1, k, q)


def test_vec_helpers():
    assert vec_add(5, (1, 2, 3), (4, 4, 4)) == (0, 1, 2)
    assert vec_sub(5, (1, 2, 3), (4, 4, 4)) == (2, 3, 4)
    assert vec_scale(5, 3, (1, 2, 3)) == (3, 1, 4)
    assert combine(7, (2, 3), [(1, 0, 1), (0, 1, 1)]) == (2, 3, 5)


def test_matrix_construction_reduces_mod_p():
    m = Matrix(GF5, [[7, -1], [5, 12]])
    assert m.entries == ((2, 4), (0, 2))
    assert m.rows == 2 and m.cols == 2


def test_matrix_ragged_rejected():
    with pytest.raises(ValueError):
        Matrix(GF5, [[1, 2], [3]])


def test_matrix_ops():
    a = Matrix(GF7 := FieldSpec(7), [[1, 2], [3, 4]])
    b = Matrix(GF7, [[0, 1], [1, 0]])
    assert [b.left_mul(row) for row in a.entries] == [(2, 1), (4, 3)]
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert a.augment(b).entries == ((1, 2, 0, 1), (3, 4, 1, 0))
    assert a.left_mul((1, 1)) == (4, 6)
    assert Matrix.identity(GF7, 3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rref_known_case():
    m = Matrix(GF5, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    reduced, pivots = m.rref_with_pivots()
    assert pivots == [0, 1, 2]
    assert reduced == Matrix.identity(GF5, 3)


def test_rref_with_dependent_rows():
    # third row is row0 + row1, so the rank drops to 2
    m = Matrix(GF3, [[1, 2, 0], [0, 1, 2], [1, 0, 2]])
    reduced, pivots = m.rref_with_pivots()
    assert pivots == [0, 1]
    assert reduced.entries[0] == (1, 0, 2)
    assert reduced.entries[1] == (0, 1, 2)
    assert reduced.entries[2] == (0, 0, 0)


def test_rref_idempotent_on_randoms():
    rng = random.Random("rref-idem")
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        spec = FieldSpec(p)
        m = random_matrix(spec, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        reduced, pivots = m.rref_with_pivots()
        again, pivots2 = reduced.rref_with_pivots()
        assert again == reduced
        assert pivots == pivots2
        assert len(pivots) == m.rank()


def test_rank_and_nullspace_dimensions():
    """Rank-nullity on random matrices, and the kernel really kills the matrix."""
    rng = random.Random("rank-null")
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        spec = FieldSpec(p)
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = random_matrix(spec, rows, cols, rng)
        ker = nullspace(m)
        assert m.rank() + ker.dim == cols
        for v in ker.basis_rows():
            assert not any(m.transpose().left_mul(v))


def test_inverse_roundtrip():
    rng = random.Random("inv-mat")
    for _ in range(50):
        p = rng.choice([2, 3, 5, 101])
        spec = FieldSpec(p)
        n = rng.randrange(1, 5)
        m = random_invertible_matrix(spec, n, rng)
        inv = m.inverse()
        identity = Matrix.identity(spec, n)
        assert Matrix(spec, [inv.left_mul(row) for row in m.entries]) == identity
        assert Matrix(spec, [m.left_mul(row) for row in inv.entries]) == identity


def test_inverse_rejects_singular():
    m = Matrix(GF3, [[1, 2], [2, 1]])
    # rows are dependent over GF(3): (2,1) = 2*(1,2)
    with pytest.raises(ValueError):
        m.inverse()
    with pytest.raises(ValueError):
        Matrix(GF3, [[1, 2, 0]], cols=3).inverse()


def test_solve_left_unique():
    m = Matrix(GF5, [[1, 0, 2], [0, 1, 3]])
    x = solve_left(m, (2, 3, 3))
    assert x == (2, 3)
    assert m.left_mul(x) == (2, 3, 3)


def test_solve_left_inconsistent():
    m = Matrix(GF5, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_left(m, (0, 0, 1))


def test_solve_left_underdetermined():
    m = Matrix(GF5, [[1, 2, 3], [0, 1, 4]])
    assert solve_left(m, (3, 3, 2)) == (3, 2)
    dep = Matrix(GF5, [[1, 2, 3], [2, 4, 6]])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_left(dep, (1, 2, 3))


def test_solve_left_randomized():
    rng = random.Random("solve-left")
    for _ in range(200):
        p = rng.choice([3, 5, 101])
        spec = FieldSpec(p)
        n = rng.randrange(1, 5)
        cols = n + rng.randrange(0, 3)
        while True:
            m = random_matrix(spec, n, cols, rng)
            if m.rank() == n:
                break
        x = tuple(rng.randrange(p) for _ in range(n))
        v = m.left_mul(x)
        assert solve_left(m, v) == x


def test_subspace_canonical_and_hashable():
    """Different generating sets of the same plane compare and hash equal."""
    a = Subspace(GF5, 3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace(GF5, 3, [(2, 2, 3), (3, 3, 1), (4, 4, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.dim == 2


def test_subspace_zero_and_full():
    z = Subspace.zero(GF3, 4)
    f = Subspace(GF3, 4, Matrix.identity(GF3, 4).entries)
    assert z.dim == 0 and f.dim == 4
    assert f.contains_subspace(z)
    assert z.contains((0, 0, 0, 0))
    assert not z.contains((0, 1, 0, 0))


def test_subspace_contains():
    s = Subspace(GF5, 3, [(1, 2, 0), (0, 0, 1)])
    assert s.contains((2, 4, 3))
    assert not s.contains((0, 1, 0))
    with pytest.raises(ValueError):
        s.contains((1, 2))


def test_subspace_membership_matches_span_brute_force():
    rng = random.Random("member")
    for _ in range(100):
        p = rng.choice([2, 3])
        spec = FieldSpec(p)
        s = random_subspace(3, 2, spec, rng)
        spanned = set()
        b = s.basis_rows()
        for c0 in range(p):
            for c1 in range(p):
                spanned.add(combine(p, (c0, c1), b))
        for v in [tuple(rng.randrange(p) for _ in range(3)) for _ in range(20)]:
            assert s.contains(v) == (v in spanned)


def span_vectors(s):
    """Every vector of a subspace, by brute force over its coefficients."""
    p = s.spec.p
    rows = s.basis_rows()
    if not rows:
        return {(0,) * s.ambient_dim}
    return {combine(p, c, rows) for c in itertools.product(range(p), repeat=len(rows))}


def test_sum_intersect_modular_law():
    """dim(U + V) + dim(U meet V) == dim U + dim V on random pairs, with the
    meet counted by brute force."""
    rng = random.Random("modular")
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        spec = FieldSpec(p)
        n = rng.randrange(2, 6)
        u = random_subspace(n, rng.randrange(0, n + 1), spec, rng)
        v = random_subspace(n, rng.randrange(0, n + 1), spec, rng)
        total = u.sum(v)
        meet = sum(1 for w in span_vectors(u) if v.contains(w))
        assert p ** (u.dim + v.dim - total.dim) == meet
        assert total.contains_subspace(u) and total.contains_subspace(v)


def test_complement_in_direct_sum_law():
    rng = random.Random("complement")
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        spec = FieldSpec(p)
        n = rng.randrange(2, 6)
        whole = random_subspace(n, rng.randrange(1, n + 1), spec, rng)
        inner_rows = whole.basis_rows()[: rng.randrange(0, whole.dim + 1)]
        inner = Subspace(spec, n, inner_rows)
        comp = inner.complement_in(whole)
        # the sum is whole and the dimensions add up, so the sum is direct
        assert inner.sum(comp) == whole
        assert comp.dim == whole.dim - inner.dim


def test_complement_in_requires_containment():
    inner = Subspace(GF3, 3, [(1, 0, 0)])
    whole = Subspace(GF3, 3, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        inner.complement_in(whole)


def test_random_subspace_dimension_and_determinism():
    rng = random.Random("rs-dim")
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        spec = FieldSpec(p)
        n = rng.randrange(1, 6)
        d = rng.randrange(0, n + 1)
        assert random_subspace(n, d, spec, rng).dim == d
    one = random_subspace(4, 2, GF3, random.Random(77))
    two = random_subspace(4, 2, GF3, random.Random(77))
    assert one == two


def test_random_subspace_uniform_over_planes_of_gf2_cubed():
    # 7 planes, 7 * 10**4 draws, each count within 5 sigma of the mean
    rng = random.Random("rs-uniform")
    planes = list(enumerate_subspaces(3, 2, GF2))
    assert len(planes) == 7
    n = 7 * 10**4
    counts = {s: 0 for s in planes}
    for _ in range(n):
        counts[random_subspace(3, 2, GF2, rng)] += 1
    expected = n / 7
    sigma = (n * (1 / 7) * (6 / 7)) ** 0.5
    for c in counts.values():
        assert abs(c - expected) < 5 * sigma


def test_count_subspaces_matches_recurrence():
    for n in range(0, 7):
        for k in range(0, n + 1):
            for p in (2, 3, 5):
                spec = FieldSpec(p)
                assert count_subspaces(n, k, spec) == gaussian_binomial_recurrence(
                    n, k, p
                )
    assert count_subspaces(3, 5, GF2) == 0
    assert count_subspaces(3, -1, GF2) == 0


def test_count_subspaces_frozen_values():
    # derived with the recurrence above before freezing
    assert count_subspaces(8, 3, GF2) == 97155
    assert count_subspaces(3, 2, GF2) == 7
    assert count_subspaces(3, 2, GF3) == 13
    assert count_subspaces(15, 4, GF2) == 57162391576563


def test_enumerate_subspaces_planes_of_gf2_cubed():
    subs = list(enumerate_subspaces(3, 2, GF2))
    assert len(subs) == 7
    assert len(set(subs)) == 7
    for s in subs:
        assert s.dim == 2


def test_enumerate_subspaces_counts_match():
    for n in range(0, 5):
        for k in range(0, n + 1):
            for p in (2, 3):
                spec = FieldSpec(p)
                got = list(enumerate_subspaces(n, k, spec))
                assert len(got) == len(set(got)) == count_subspaces(n, k, spec)


def test_enumerate_subspaces_cap():
    with pytest.raises(CapExceededError):
        enumerate_subspaces(8, 3, GF2, cap=10**4)
    with pytest.raises(ValueError):
        enumerate_subspaces(3, 4, GF2)
