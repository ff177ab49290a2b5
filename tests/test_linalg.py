"""Tests for exact linear algebra over GF(p)."""

import copy
import itertools
import pickle
import random

import pytest

from regenext.gf import FieldSpec
from regenext.linalg import (
    Matrix,
    Subspace,
    _adopted,
    _draws,
    _independent_rows,
    _Layout,
    _layout,
    _push,
    _reduce,
    _residue,
    _rref,
    count_subspaces,
    enumerate_subspaces,
    inverse,
    nullspace,
    random_subspace,
)

from conftest import (
    combine,
    identity_rows,
    random_invertible_matrix,
    rank,
    reference_rref,
    subspace_sum,
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


@pytest.mark.parametrize(
    "entries,cols,message",
    [
        ([[1, 2], [3, 4]], 3, "declared 3 columns but rows have 2"),
        ([], None, "a matrix with no rows needs an explicit column count"),
    ],
)
def test_matrix_names_a_width_it_cannot_take(entries, cols, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Matrix(GF5, entries, cols)


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


def test_subspace_contains_the_same_through_copies():
    """After a containment test, a pickled or copied subspace still equals,
    hashes and contains as before."""
    s = Subspace(FieldSpec(65521), 4, [(1, 2, 3, 4), (0, 5, 6, 7)])
    outside = (0, 0, 0, 1)
    assert s.contains_subspace(s) and not s.contains(outside)
    for other in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert other == s and hash(other) == hash(s)
        assert other.contains((1, 2, 3, 4)) and not other.contains(outside)
        assert not other.contains_subspace(Subspace(FieldSpec(65521), 4, [outside]))


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
        total = subspace_sum(u, v)
        meet = sum(1 for w in span_vectors(u) if v.contains(w))
        assert p ** (u.dim + v.dim - total.dim) == meet
        assert total.contains_subspace(u) and total.contains_subspace(v)


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


@pytest.mark.parametrize("dim", [-1, 4])
def test_random_subspace_refuses_a_dimension_outside_the_ambient(dim):
    rng = random.Random("refused")
    state = rng.getstate()
    with pytest.raises(ValueError, match=rf"^dimension {dim} outside \[0, 3\]$"):
        random_subspace(3, dim, GF3, rng)
    assert rng.getstate() == state


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


def test_enumerate_subspaces_rejects_a_dimension_out_of_range():
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
    without its last row (a nonzero remainder that _push normalizes)."""
    p = 2**31 - 1
    e = p - 1 if entry == "p-1" else 0
    rows = [tuple([0] * i + [1] + [e] * (width - 1 - i)) for i in range(width)]
    v = tuple(sum((p - 1) * row[c] for row in rows) % p for c in range(width))
    lay = _layout(p, width)
    for size in (width, width - 1):
        expected, factors = reference_reduce(p, rows[:size], range(size), v)
        assert factors == [p - 1] * size
        echelon = list(map(lay.pack, rows[:size]))
        assert lay.unpack(_reduce(lay, echelon, lay.pack(v))) == expected
    assert any(expected) and _push(lay, echelon, lay.pack(v))
    assert lay.unpack(echelon[-1]) == rows[-1]


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
        flawed("zero row first", lambda r: r.insert(0, [0] * width))
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
def test_checked_door_adopts_exactly_the_canonical_rref(p, width):
    """Rows that are canonical RREF but for one flaw give the rows of the
    plain elimination of their residues, given as a list or as a generator;
    _adopted returns exactly the canonical sets, packed as they are."""
    spec = FieldSpec(p)
    rng = random.Random(f"adopt-{p}-{width}")
    lay = _layout(p, width)
    for name, rows in rref_with_one_flaw(p, width, rng):
        residues = [lay.pack(int(x) % p for x in row) for row in rows]
        expected = Subspace._span_packed(spec, width, residues)._rows
        assert Subspace(spec, width, rows)._rows == expected, name
        assert Subspace(spec, width, (row for row in rows))._rows == expected, name
        canonical = name in ("canonical", "bool at pivot", "bool entry")
        assert _adopted(lay, rows) == (expected if canonical else None), name


def reference_dependencies(p, rows, width):
    """The RREF of {c : sum c_i rows_i = 0}, from the free columns of the
    RREF of the transposed rows, per entry."""
    n = len(rows)
    reduced = reference_rref(p, [[row[c] for row in rows] for c in range(width)], n)
    pivots = [row.index(1) for row in reduced]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        c = [0] * n
        c[free] = 1
        for row, pc in zip(reduced, pivots):
            c[pc] = -row[free] % p
        basis.append(c)
    return reference_rref(p, basis, n)


def row_sets(p, width, rng):
    """Row sets of width residues, from 0 to width+2 rows: uniform rows, the
    same with one row zero, one repeated and one a combination of others,
    and rows drawn from a span of lower dimension."""
    for count in range(width + 3):
        rows = random_rows(rng, p, count, width)
        yield rows
        if count >= 1:
            zero = list(rows)
            zero[rng.randrange(count)] = (0,) * width
            yield zero
        if count >= 2:
            i, j = rng.sample(range(count), 2)
            repeated = list(rows)
            repeated[j] = rows[i]
            yield repeated
            dependent = list(rows)
            coeffs = [rng.randrange(p) if m != j else 0 for m in range(count)]
            dependent[j] = combine(p, coeffs, rows)
            yield dependent
        if count >= 1:
            span = random_rows(rng, p, rng.randrange(min(count, width)), width)
            yield [combine(p, random_rows(rng, p, 1, len(span))[0], span) if span else (0,) * width
                   for _ in range(count)]


@pytest.mark.parametrize("p", FIELD_EDGES)
@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_gauss_jordan_matches_the_per_entry_reference(p, width):
    """_span_packed, the checked door, nullspace and inverse against per-entry
    Gauss-Jordan, on row sets with zero, repeated and dependent rows, from 0
    to width+2 rows, at every edge of the packed layouts."""
    spec = FieldSpec(p)
    lay = _layout(p, width)
    rng = random.Random(f"gauss-jordan-{p}-{width}")
    for rows in row_sets(p, width, rng):
        expected = reference_rref(p, rows, width)
        assert Subspace._span_packed(spec, width, map(lay.pack, rows)).basis_rows() == expected
        # shifted by p, no row is canonical, so the door eliminates
        assert Subspace(spec, width, [[x + p for x in row] for row in rows]).basis_rows() == expected
        assert nullspace(spec, rows).basis_rows() == reference_dependencies(p, rows, width)
        if len(rows) == width:
            if len(expected) == width:
                inv = inverse(p, rows)
                assert [combine(p, row, rows) for row in inv] == list(identity_rows(width))
            else:
                with pytest.raises(ValueError, match="singular"):
                    inverse(p, rows)


def reference_push(p, rows, pivots, v):
    """Per-entry push of v onto an echelon: v reduced against its rows and
    scaled to a 1 at its first nonzero entry; False when v is in the span."""
    w, _ = reference_reduce(p, rows, pivots, v)
    if not any(w):
        return False
    c = next(i for i, x in enumerate(w) if x)
    inv = pow(w[c], p - 2, p)
    rows.append(tuple(x * inv % p for x in w))
    pivots.append(c)
    return True


@pytest.mark.parametrize("p", FIELD_EDGES)
@pytest.mark.parametrize("width", [2, 5, 8])
def test_echelon_matches_the_per_entry_reference(p, width):
    """_push and _reduce against per-entry elimination that reads each
    factor off the running vector, on echelons pushed from the staircase
    (1 at and right of each pivot, so every earlier row is 1 at every later
    pivot and a factor read off v would be wrong), from the row sets of the
    Gauss-Jordan test, and from RREF rows in shuffled order, where reading
    each factor off v is right too.  A row already in the span is refused
    and leaves the list as it was."""
    lay = _layout(p, width)
    rng = random.Random(f"echelon-{p}-{width}")
    staircase = [tuple([0] * i + [1] * (width - i)) for i in range(width)]
    grown = [staircase, *row_sets(p, width, rng)]
    shuffled = [rng.sample(rref, len(rref)) for rref in (reference_rref(p, r, width) for r in grown)]
    unit = (1,) + (0,) * (width - 1)
    refused = read_off_v_wrong = 0
    for i, rows in enumerate(grown + shuffled):
        echelon, ref_rows, pivots = [], [], []
        for row in rows:
            before = list(echelon)
            pushed = _push(lay, echelon, lay.pack(row))
            assert pushed == reference_push(p, ref_rows, pivots, row)
            if not pushed:
                refused += 1
                assert echelon == before
            assert tuple(map(lay.unpack, echelon)) == tuple(ref_rows)
        inside = combine(p, random_rows(rng, p, 1, len(ref_rows))[0], ref_rows) if ref_rows else unit
        for v in (unit, inside, *random_rows(rng, p, 3, width)):
            expected, _ = reference_reduce(p, ref_rows, pivots, v)
            w = _reduce(lay, echelon, lay.pack(v))
            assert lay.unpack(w) == expected
            read_off_v = _residue(lay, echelon, lay.pack(v))
            if i >= len(grown):
                assert read_off_v == w
            read_off_v_wrong += read_off_v != w
    assert refused and read_off_v_wrong


@pytest.mark.parametrize("p", FIELD_EDGES)
def test_inverse_of_no_rows_and_of_singular_rows(p):
    """The matrix with no rows is its own inverse, and a matrix with a
    repeated, a zero or a dependent row is singular, at every edge of the
    packed layouts."""
    assert inverse(p, []) == ()
    for rows in ([[1, 1], [1, 1]], [[1, 0], [0, 0]], [[1, 2, 3], [0, 1, 4], [1, 3, 7]]):
        with pytest.raises(ValueError, match="singular"):
            inverse(p, [[x % p for x in row] for row in rows])


def test_spaces_are_compared_by_layout():
    """contains_subspace raises for a space over another field or of another
    width, with its message, and == calls it unequal; a pickled or
    deep-copied operand counts as the original, since copies get their
    layout from the cache.  == on a non-subspace defers to the other side."""
    spec = FieldSpec(65521)
    s = Subspace(spec, 4, [(1, 2, 3, 4), (0, 5, 6, 7)])
    message = "^subspaces live in different ambient spaces$"
    for other in (Subspace(FieldSpec(65537), 4, [(1, 2, 3, 4)]), Subspace(spec, 5, [(1, 2, 3, 4, 0)])):
        with pytest.raises(ValueError, match=message):
            s.contains_subspace(other)
        with pytest.raises(ValueError, match=message):
            other.contains_subspace(s)
    # zero spaces hold no rows, so only the layout tells them apart
    for other in (Subspace(FieldSpec(65537), 4), Subspace(spec, 5)):
        assert other != Subspace(spec, 4)
    for other in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert other._lay is s._lay
        assert s.contains_subspace(other) and other.contains_subspace(s)
        assert other == s
    assert s.__eq__(1) is NotImplemented


@pytest.mark.parametrize("width", [8, 15, 30])
@pytest.mark.parametrize("order", ["back-elimination", "reduction"])
def test_longest_gauss_jordan_at_the_largest_prime(width, order, monkeypatch):
    """At p = 2^31-1 the row (1, p-1, ..., p-1) and the unit rows e_1, ...,
    e_(n-1) span everything.  Given first, the row meets each unit row in a
    back-elimination step with factor p-1, and the negated unit row holds p
    in every other slot, so the row's slots right of the new pivot reach
    p-1 + (p-1)p = p^2 - 1, the most one step can add.  Given last, it is
    reduced against every unit row at once with factor p-1, so its first
    slot reaches 1 + (n-1)(p-1)p.  Either way _rref returns the identity,
    and no slot that reaches canonical reduction exceeds 2^B."""
    p = 2**31 - 1
    lay = _layout(p, width)
    head = (1,) + (p - 1,) * (width - 1)
    units = list(identity_rows(width))[1:]
    rows = [head, *units] if order == "back-elimination" else [*units, head]
    seen = []
    canon = _Layout.canon

    def recording(self, v):
        seen.append(max(v >> i * self.slot & self.mask for i in range(self.width)))
        return canon(self, v)

    monkeypatch.setattr(_Layout, "canon", recording)
    assert _rref(lay, map(lay.pack, rows)) == tuple(map(lay.pack, identity_rows(width)))
    assert reference_rref(p, rows, width) == identity_rows(width)
    most = p * p - 1 if order == "back-elimination" else 1 + (width - 1) * (p - 1) * p
    assert max(seen) == most < 1 << lay.shift
    if order == "back-elimination":
        assert len(seen) == width - 1


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
@pytest.mark.parametrize("count", [1, 8, 24, 225])
def test_draws_are_the_values_randrange_gives(p, count):
    """The private draw of count residues returns what count calls of
    randrange(p) return on a generator with the same seed, and leaves it in
    the same state.  At p = 2 it takes 2 bits a value and redraws half of
    them; 24 and 225 are the entries of a 3 x 8 and of a 15 x 15 draw."""
    for seed in (0, 1, 7, 2**40, "draws"):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draws(ours, p, count) == [theirs.randrange(p) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
def test_independent_draw_is_the_invertible_matrix_draw(p, n):
    """The private draw of n independent rows returns the rows of a
    per-entry rejection sampler of invertible matrices, with their RREF,
    and leaves the generator where that sampler does; at p = 2 most
    rounds are rejected."""
    spec, lay = FieldSpec(p), _layout(p, n)
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        rows, reduced = _independent_rows(lay, n, ours)
        assert tuple(map(lay.unpack, rows)) == random_invertible_matrix(spec, n, theirs)
        assert reduced == tuple(map(lay.pack, identity_rows(n)))
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("p", FIELD_EDGES)
@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_membership_matches_the_per_entry_reference(p, width):
    """contains and contains_subspace against per-entry rank, for vectors
    inside and outside the span, the zero vector, and spans of part of the
    rows or of other rows, on the row sets of the Gauss-Jordan test."""
    spec = FieldSpec(p)
    rng = random.Random(f"membership-{p}-{width}")
    for rows in row_sets(p, width, rng):
        space = Subspace(spec, width, rows)
        basis = list(space.basis_rows())
        inside = combine(p, random_rows(rng, p, 1, len(basis))[0], basis) if basis else None
        outside = random_rows(rng, p, 1, width)[0]
        for v in (inside or (0,) * width, outside, (0,) * width):
            expected = rank(p, basis + [v]) == len(basis)
            assert space.contains(v) == expected
            assert space.contains_subspace(Subspace(spec, width, [v])) == expected
        for others in (rows[: len(rows) // 2], random_rows(rng, p, 2, width)):
            expected = rank(p, basis + list(others)) == len(basis)
            assert space.contains_subspace(Subspace(spec, width, others)) == expected


@pytest.mark.parametrize("width", [8, 15, 30])
def test_longest_membership_test_at_the_largest_prime(width, monkeypatch):
    """At p = 2^31-1 the vector (p-1, ..., p-1), held as it is, meets every
    row of the full space's RREF, the identity, with factor p-1: each slot
    reaches p-1 + (p-1)(p-1) + (n-1)(p-1)p = n(p-1)p, p below the bound
    p + n(p-1)p of the module docstring.  The full space contains it and
    the space without the last unit row does not, as per entry."""
    p = 2**31 - 1
    spec, lay = FieldSpec(p), _layout(p, width)
    v = (p - 1,) * width
    seen = []
    canon = _Layout.canon

    def recording(self, x):
        seen.append(max(x >> i * self.slot & self.mask for i in range(self.width)))
        return canon(self, x)

    full = Subspace(spec, width, identity_rows(width))
    short = Subspace(spec, width, identity_rows(width)[:-1])
    monkeypatch.setattr(_Layout, "canon", recording)
    assert full.contains_subspace(Subspace._from_rref(spec, width, (lay.pack(v),)))
    assert seen == [width * (p - 1) * p] and seen[0] < 1 << lay.shift
    assert full.contains(v) and not short.contains(v)
    assert rank(p, [*short.basis_rows(), v]) == width
