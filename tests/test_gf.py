"""Tests for prime-field arithmetic.

Field elements are plain residues.  The packed rows of regenext.linalg do
the arithmetic: _Layout.combine sums residue multiples of at most n rows of
width n, and _Layout.canon reduces every slot mod p.  inv_mod inverts.
"""

import random

import pytest

from regenext.gf import MAX_MODULUS, FieldSpec, NotPrimeError, inv_mod, is_prime
from regenext.linalg import Matrix, Subspace, _layout

from conftest import combine

PRIMES = [2, 3, 5, 7, 101, 65521, 2**31 - 1]


def packed(p, coeffs, rows):
    """_Layout.combine on the residue rows, unpacked."""
    lay = _layout(p, len(rows[0]))
    return lay.unpack(lay.combine(coeffs, map(lay.pack, rows)))


def test_add_basic():
    assert packed(7, (1, 1), [(3, 2), (5, 6)]) == (1, 1)


def test_sub_underflow():
    assert packed(7, (1, 6), [(2, 0), (5, 0)]) == (4, 0)


def test_mul_basic():
    assert packed(7, (3,), [(5,)]) == (1,)


def test_neg():
    assert packed(7, (6,), [(3, 0)]) == (4, 0)


def test_inv_known():
    assert inv_mod(3, 7) == 5
    assert inv_mod(1, 7) == 1
    assert inv_mod(-4, 7) == 5


def test_canonical_residues():
    lay = _layout(5, 2)
    assert lay.unpack(lay.canon(12 | 24 << lay.slot)) == (2, 4)
    assert Matrix(FieldSpec(5), [[5, -6]]).entries == ((0, 4),)


def test_mismatched_fields_raise():
    a = Subspace(FieldSpec(5), 2, [(1, 2)])
    b = Subspace(FieldSpec(7), 2, [(1, 2)])
    with pytest.raises(ValueError):
        a.sum(b)
    with pytest.raises(ValueError):
        a.contains_subspace(b)


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 13)
    with pytest.raises(ZeroDivisionError):
        inv_mod(26, 13)
    with pytest.raises(ZeroDivisionError):
        inv_mod(26, 13)


def test_inverse_exhaustive_small_primes():
    # every nonzero element of every prime field up to 101
    for p in range(2, 102):
        if not is_prime(p):
            continue
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1


@pytest.mark.parametrize("p", PRIMES)
def test_field_axioms(p):
    """Field laws of canon on one slot, and vector-space laws of combine on
    rows of width 3, on random triples; every combination also equals the
    per-entry reference."""
    one, lay = _layout(p, 1), _layout(p, 3)
    rng = random.Random(f"axioms:{p}")

    def add(x, y):
        return lay.combine((1, 1), (x, y))

    def scale(s, x):
        return lay.combine((s,), (x,))

    for _ in range(10**4):
        s, t, u = (rng.randrange(p) for _ in range(3))
        assert one.canon(s * t) == one.canon(t * s) == s * t % p
        assert one.canon(one.canon(s * t) * u) == one.canon(s * one.canon(t * u))
        assert one.canon(s * (t + u)) == one.canon(s * t + s * u)
        if s:
            assert one.canon(s * inv_mod(s, p)) == 1
        rows = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)]
        a, b, c = map(lay.pack, rows)
        assert lay.unpack(lay.combine((s, t, u), (a, b, c))) == combine(p, (s, t, u), rows)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c)) == lay.combine((1, 1, 1), (a, b, c))
        assert scale(s, scale(t, a)) == scale(one.canon(s * t), a)
        assert scale(s, add(a, b)) == add(scale(s, a), scale(s, b))
        assert lay.combine((s, t), (a, a)) == scale(one.canon(s + t), a)
        assert add(a, 0) == scale(1, a) == a
        assert add(a, scale(p - 1, a)) == 0
        if s:
            assert scale(inv_mod(s, p), scale(s, a)) == a


def test_is_prime_knowns():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(65521)
    assert is_prime(2**31 - 1)
    for n in (-7, 0, 1, 4, 9, 91, 65520, 2**31 - 2):
        assert not is_prime(n)


def test_spec_rejects_composites():
    for n in (4, 6, 91, 65520):
        with pytest.raises(NotPrimeError):
            FieldSpec(n)


def test_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        FieldSpec(0)
    with pytest.raises(ValueError):
        FieldSpec(-3)
    with pytest.raises(ValueError):
        FieldSpec(MAX_MODULUS)
    with pytest.raises(ValueError):
        FieldSpec(2.0)


def test_spec_largest_supported_prime():
    spec = FieldSpec(2**31 - 1)
    assert packed(spec.p, (2**31 - 2,), [(2**31 - 2,)]) == (1,)
    assert inv_mod(2**31 - 2, spec.p) == 2**31 - 2
