"""Tests for exact linear algebra over GF(p)."""

import copy
import itertools
import pickle
import random

import pytest

from regenext.gf import FieldSpec
from regenext.linalg import (
    CapExceededError,
    Matrix,
    Subspace,
    _Echelon,
    _layout,
    count_subspaces,
    enumerate_subspaces,
    inverse,
    nullspace,
    random_invertible_matrix,
    random_subspace,
    rank,
)

from conftest import combine, identity_rows

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


def random_rows(rng, p, rows, cols):
    return [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)]


def test_packed_combine_helpers():
    """Sums, differences and multiples of rows by _Layout.combine, against
    the per-entry reference."""
    lay = _layout(5, 3)
    a, b = lay.pack((1, 2, 3)), lay.pack((4, 4, 4))
    assert lay.unpack(lay.combine((1, 1), (a, b))) == (0, 1, 2)
    assert lay.unpack(lay.combine((1, 4), (a, b))) == (2, 3, 4)
    assert lay.unpack(lay.combine((3,), (a,))) == (3, 1, 4)
    assert combine(7, (2, 3), [(1, 0, 1), (0, 1, 1)]) == (2, 3, 5)
    assert combine(5, (1, -1), [(1, 2, 3), (4, 4, 4)]) == (2, 3, 4)


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
    assert [combine(7, row, b.entries) for row in a.entries] == [(2, 1), (4, 3)]
    assert combine(7, (1, 1), a.entries) == (4, 6)
    # det = -2 = 5 and 1/5 = 3 over GF(7)
    assert inverse(7, a.entries) == ((5, 1), (5, 3))
    assert rank(7, a.entries) == 2
    # the only dependency among (1, 2), (3, 4), (4, 6) is their sum's
    assert nullspace(GF7, a.entries + ((4, 6),)).basis_rows() == ((1, 1, 6),)


def test_rref_known_case():
    s = Subspace(GF5, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert s.basis_rows() == identity_rows(3)


def test_rref_with_dependent_rows():
    # third row is row0 + row1, so the rank drops to 2
    s = Subspace(GF3, 3, [[1, 2, 0], [0, 1, 2], [1, 0, 2]])
    assert s.basis_rows() == ((1, 0, 2), (0, 1, 2))


def test_rref_idempotent_on_randoms():
    rng = random.Random("rref-idem")
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        spec = FieldSpec(p)
        cols = rng.randrange(1, 5)
        rows = random_rows(rng, p, rng.randrange(1, 5), cols)
        reduced = Subspace(spec, cols, rows).basis_rows()
        assert Subspace(spec, cols, reduced).basis_rows() == reduced
        assert len(reduced) == rank(p, rows)


def test_rank_and_nullspace_dimensions():
    """Rank-nullity on random rows, and every dependency the nullspace
    returns really combines the rows to zero."""
    rng = random.Random("rank-null")
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        spec = FieldSpec(p)
        rows = random_rows(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
        ker = nullspace(spec, rows)
        assert ker.ambient_dim == len(rows)
        assert rank(p, rows) + ker.dim == len(rows)
        for c in ker.basis_rows():
            assert not any(combine(p, c, rows))


def test_inverse_roundtrip():
    rng = random.Random("inv-mat")
    for _ in range(50):
        p = rng.choice([2, 3, 5, 101])
        spec = FieldSpec(p)
        n = rng.randrange(1, 5)
        m = random_invertible_matrix(spec, n, rng)
        inv = inverse(p, m)
        assert tuple(combine(p, row, inv) for row in m) == identity_rows(n)
        assert tuple(combine(p, row, m) for row in inv) == identity_rows(n)


def test_inverse_rejects_singular():
    m = Matrix(GF3, [[1, 2], [2, 1]])
    # rows are dependent over GF(3): (2,1) = 2*(1,2)
    with pytest.raises(ValueError, match="singular"):
        inverse(3, m.entries)
    with pytest.raises(ValueError, match="square"):
        inverse(3, Matrix(GF3, [[1, 2, 0]], cols=3).entries)


def test_subspace_canonical_and_hashable():
    """Different generating sets of the same plane compare and hash equal."""
    a = Subspace(GF5, 3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace(GF5, 3, [(2, 2, 3), (3, 3, 1), (4, 4, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.dim == 2


def test_subspace_pickles_and_copies():
    s = Subspace(FieldSpec(65521), 4, [(1, 2, 3, 4), (0, 5, 6, 7)])
    for other in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert other == s and hash(other) == hash(s)
        assert other.contains_subspace(s) and other.basis_rows() == s.basis_rows()


def test_subspace_zero_and_full():
    z = Subspace(GF3, 4)
    f = Subspace(GF3, 4, identity_rows(4))
    assert z.dim == 0 and f.dim == 4
    assert f.contains_subspace(z)
    assert z.contains((0, 0, 0, 0))
    assert not z.contains((0, 1, 0, 0))


def test_zero_dimension_takes_the_general_path():
    """Counting, drawing and listing 0-dimensional subspaces need no special
    case: each gives the zero subspace, and the draw uses no randomness."""
    rng = random.Random("zero-dim")
    state = rng.getstate()
    assert random_subspace(4, 0, GF3, rng) == Subspace(GF3, 4)
    assert rng.getstate() == state
    assert list(enumerate_subspaces(4, 0, GF3)) == [Subspace(GF3, 4)]
    assert count_subspaces(4, 0, GF3) == 1


def test_subspace_contains():
    s = Subspace(GF5, 3, [(1, 2, 0), (0, 0, 1)])
    assert s.contains((2, 4, 3))
    assert not s.contains((0, 1, 0))
    # a public entry point: integers outside [0, p) are taken mod p
    assert s.contains((6, -3, 5))
    assert not s.contains((6, -2, 5))
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


def slots_packed(lay, slots):
    """A packed int from its slot values, by shifts, independent of struct."""
    return sum(x << i * lay.slot for i, x in enumerate(slots))


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
@pytest.mark.parametrize("width", [3, 8, 15, 30])
def test_packed_canonical_reduction_is_the_per_slot_residue(p, width):
    """One packed Barrett step and conditional subtract give every slot's
    residue, for slot values at the edges: 0, p-1, p, 2p-1 and 2^B - 1, the
    largest the kernel's bound lets in, alone and mixed."""
    lay = _layout(p, width)
    top = 1 << lay.shift
    assert (width + 1) * p * p < top
    edges = [0, p - 1, p, 2 * p - 1, top - 1]
    rng = random.Random(f"canon-{p}-{width}")
    cases = [[e] * width for e in edges]
    cases += [[rng.choice(edges) for _ in range(width)] for _ in range(40)]
    for slots in cases:
        assert lay.unpack(lay.canon(slots_packed(lay, slots))) == tuple(x % p for x in slots)
    residues = [rng.randrange(p) for _ in range(width)]
    assert lay.pack(residues) == slots_packed(lay, residues)
    assert lay.unpack(lay.pack(residues)) == tuple(residues)


def reference_reduce(p, rows, pivots, v):
    """Per-entry elimination of v against an echelon, with the factors used."""
    factors = []
    for row, pc in zip(rows, pivots):
        f = v[pc]
        factors.append(f)
        v = tuple((x - f * y) % p for x, y in zip(v, row))
    return v, factors


@pytest.mark.parametrize("width", [8, 15, 30])
@pytest.mark.parametrize("entry", ["p-1", "0"])
def test_longest_elimination_at_the_largest_prime(width, entry):
    """At p = 2^31-1 a vector meets every row of a full-width echelon with
    factor p-1, the most a slot can take.  With entries p-1 right of each
    pivot every factor and entry is p-1; with entries 0 each negated row
    holds p in every other slot, the largest addend.  Packed elimination
    matches the per-entry reference, for the full echelon (remainder 0) and
    without its last row (a nonzero remainder that push normalizes)."""
    p = 2**31 - 1
    e = p - 1 if entry == "p-1" else 0
    rows = [tuple([0] * i + [1] + [e] * (width - 1 - i)) for i in range(width)]
    v = tuple(sum((p - 1) * row[c] for row in rows) % p for c in range(width))
    lay = _layout(p, width)
    for size in (width, width - 1):
        expected, factors = reference_reduce(p, rows[:size], range(size), v)
        assert factors == [p - 1] * size
        echelon = _Echelon(lay, map(lay.pack, rows[:size]))
        assert lay.unpack(echelon.reduce(lay.pack(v))) == expected
    assert any(expected) and echelon.push(lay.pack(v))
    assert lay.unpack(echelon.rows[-1]) == rows[-1]


FIELD_EDGES = [2, 3, 251, 257, 65521, 65537, 2**31 - 1]


def codec_max(p):
    """The largest value struct packs into a residue's 1, 2 or 4 bytes."""
    return (1 << (8 if p <= 1 << 8 else 16 if p <= 1 << 16 else 32)) - 1


@pytest.mark.parametrize("p", FIELD_EDGES)
@pytest.mark.parametrize("width", [1, 2, 3, 8, 15, 30])
def test_range_flag_is_exact_for_every_value_the_codec_packs(p, width):
    """Every value the codec packs is below 2^(W-1) + p, so adding HALF
    carries into no other slot and sets bit W-1 exactly for slots >= p."""
    lay = _layout(p, width)
    top = codec_max(p)
    assert top < (1 << lay.flag) + p
    for x in (0, p - 1, p, top):
        packed = lay.pack([x] * width)
        assert packed == slots_packed(lay, [x] * width)
        assert (packed + lay.half) >> lay.flag & lay.ones == (lay.ones if x >= p else 0)


def rref_with_one_flaw(p, width, rng):
    """Row sets that are canonical RREF but for one flaw each, by name, from
    a random RREF with free entries: at width 2 one row (1, a) and the rows
    of the identity, wider three rows with pivots 0, 2 and width-1."""
    if width == 2:
        bases = [[[1, rng.randrange(p)]], [[1, 0], [0, 1]]]
    else:
        pivots = (0, 2, width - 1)
        rows = []
        for pc in pivots:
            rows.append([rng.randrange(p) if c > pc else 0 for c in range(width)])
            for c in pivots:
                rows[-1][c] = int(c == pc)
        bases = [rows]
    flaws = []
    for rows in bases:
        pivots = [row.index(1) for row in rows]
        free = [c for c in range(pivots[0] + 1, width) if c not in pivots]

        def flawed(name, edit):
            edited = [list(row) for row in rows]
            edit(edited)
            flaws.append((name, edited))

        flawed("canonical", lambda r: None)
        flawed("pivot of 2", lambda r: r[0].__setitem__(pivots[0], 2))
        flawed("zero row", lambda r: r.append([0] * width))
        flawed("repeated row", lambda r: r.append(list(r[0])))
        flawed("bool at pivot", lambda r: r[0].__setitem__(pivots[0], True))
        flawed("float at pivot", lambda r: r[0].__setitem__(pivots[0], 1.0))
        if len(rows) > 1:
            flawed("pivots out of order", lambda r: r.reverse())
            flawed("entry at another pivot", lambda r: r[0].__setitem__(pivots[1], 1))
        for c in free[:1]:
            flawed("entry p", lambda r: r[0].__setitem__(c, p))
            flawed("entry at the codec maximum", lambda r: r[0].__setitem__(c, codec_max(p)))
            flawed("negative entry", lambda r: r[0].__setitem__(c, -1))
            flawed("bool entry", lambda r: r[0].__setitem__(c, True))
            flawed("float entry", lambda r: r[0].__setitem__(c, float(r[0][c])))
    return flaws


@pytest.mark.parametrize("p", FIELD_EDGES)
@pytest.mark.parametrize("width", [2, 6])
def test_checked_door_adopts_exactly_the_canonical_rref(p, width, pushes):
    """Rows that are canonical RREF but for one flaw give the rows of the
    plain elimination of their residues, given as a list or as a generator;
    only the canonical sets skip elimination."""
    spec = FieldSpec(p)
    rng = random.Random(f"adopt-{p}-{width}")
    for name, rows in rref_with_one_flaw(p, width, rng):
        residues = [[int(x) % p for x in row] for row in rows]
        expected = Subspace._span(spec, width, residues)._rows
        pushes.clear()
        assert Subspace(spec, width, rows)._rows == expected, name
        assert bool(pushes) == (name not in ("canonical", "bool at pivot", "bool entry")), name
        assert Subspace(spec, width, (row for row in rows))._rows == expected, name
