"""Property tests of the GF(p) linear algebra at both ends of the field range."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regenext.gf import FieldSpec
from regenext.linalg import Matrix, Subspace, random_invertible_matrix, solve_left

PRIMES = [2, 3, 5, 65521, 2**31 - 1]
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    """(spec, cols, rows) of a matrix over one of PRIMES, small entries favoured
    at large p so that dependent rows still turn up."""
    p = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    entry = st.one_of(st.integers(0, min(p - 1, 2)), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=nrows,
                         max_size=nrows))
    return FieldSpec(p), cols, rows


@PROPERTY
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_canonical_and_idempotent(case, rng):
    spec, cols, rows = case
    m = Matrix(spec, rows, cols=cols)
    reduced, pivots = m.rref_with_pivots()
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert reduced.entries[r][pc] == 1
        assert all(reduced.entries[i][pc] == 0 for i in range(len(pivots)) if i != r)
    assert all(not any(row) for row in reduced.entries[len(pivots):])
    assert reduced.rref_with_pivots() == (reduced, pivots)
    # any invertible row operation leaves the row space, hence the RREF, alone
    if rows:
        mixer = random_invertible_matrix(spec, len(rows), rng)
        mixed = Matrix(spec, [m.left_mul(t) for t in mixer.entries], cols=cols)
        assert mixed.rref_with_pivots() == (reduced, pivots)


@PROPERTY
@given(matrices(), st.data())
def test_complement_in_gives_a_direct_sum(case, data):
    spec, cols, rows = case
    u = Subspace(spec, cols, rows)
    extra = data.draw(st.lists(
        st.lists(st.integers(0, spec.p - 1), min_size=cols, max_size=cols), max_size=4
    ))
    whole = u.sum(Subspace(spec, cols, extra))
    comp = u.complement_in(whole)
    assert whole.contains_subspace(comp)
    assert u.dim + comp.dim == whole.dim
    assert u.sum(comp) == whole


@PROPERTY
@given(matrices(), st.data())
def test_solve_left_round_trips(case, data):
    spec, cols, rows = case
    basis = Matrix(spec, Subspace(spec, cols, rows).basis_rows(), cols=cols)
    coeffs = tuple(data.draw(st.lists(
        st.integers(0, spec.p - 1), min_size=basis.rows, max_size=basis.rows
    )))
    assert solve_left(basis, basis.left_mul(coeffs)) == coeffs
    target = tuple(data.draw(st.lists(st.integers(0, spec.p - 1), min_size=cols, max_size=cols)))
    if not Subspace(spec, cols, rows).contains(target):
        with pytest.raises(ValueError, match="inconsistent"):
            solve_left(basis, target)


def test_solve_left_without_rows():
    """x @ m = v with m of no rows: only v = 0 is solved, by the empty x."""
    empty = Matrix(FieldSpec(5), [], cols=3)
    assert solve_left(empty, (0, 0, 0)) == ()
    with pytest.raises(ValueError, match="inconsistent"):
        solve_left(empty, (0, 1, 0))

