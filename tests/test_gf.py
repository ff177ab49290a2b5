"""Tests for prime-field arithmetic.

Field elements are plain residues; the vector helpers of regenext.linalg do
the arithmetic, and inv_mod the inversion.
"""

import random

import pytest

from regenext.gf import MAX_MODULUS, FieldSpec, NotPrimeError, inv_mod, is_prime
from regenext.linalg import Matrix, Subspace, vec_add, vec_scale, vec_sub

PRIMES = [2, 3, 5, 7, 101]


def test_add_basic():
    assert vec_add(7, (3,), (5,)) == (1,)


def test_sub_underflow():
    assert vec_sub(7, (2,), (5,)) == (4,)


def test_mul_basic():
    assert vec_scale(7, 3, (5,)) == (1,)


def test_neg():
    assert vec_scale(7, -1, (3, 0)) == (4, 0)


def test_inv_known():
    assert inv_mod(3, 7) == 5
    assert inv_mod(1, 7) == 1
    assert inv_mod(-4, 7) == 5


def test_canonical_residues():
    assert vec_add(5, (12,), (0,)) == (2,)
    assert vec_scale(5, 1, (-1,)) == (4,)
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
    """Ring and field laws of the residue helpers on random triples."""
    rng = random.Random(f"axioms:{p}")
    zero = (0,)
    for _ in range(10**4):
        a, b, c = ((rng.randrange(p),) for _ in range(3))
        assert vec_add(p, a, b) == vec_add(p, b, a)
        assert vec_scale(p, a[0], b) == vec_scale(p, b[0], a)
        assert vec_add(p, vec_add(p, a, b), c) == vec_add(p, a, vec_add(p, b, c))
        assert vec_scale(p, a[0], vec_scale(p, b[0], c)) == vec_scale(p, a[0] * b[0], c)
        assert vec_scale(p, a[0], vec_add(p, b, c)) == vec_add(
            p, vec_scale(p, a[0], b), vec_scale(p, a[0], c)
        )
        assert vec_add(p, a, zero) == a
        assert vec_scale(p, 1, a) == a
        assert vec_add(p, a, vec_scale(p, -1, a)) == zero
        assert vec_sub(p, a, b) == vec_add(p, a, vec_scale(p, -1, b))
        if a[0] != 0:
            assert vec_scale(p, inv_mod(a[0], p), a) == (1,)


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
    assert vec_scale(spec.p, 2**31 - 2, (2**31 - 2,)) == (1,)
    assert inv_mod(2**31 - 2, spec.p) == 2**31 - 2
