"""Exact arithmetic in prime fields GF(p).

A FieldSpec fixes the modulus and is validated once at construction with a
deterministic primality test, so everything downstream can trust it.  Field
elements are plain ints kept as canonical residues, 0 <= value < p.
"""

from __future__ import annotations

from dataclasses import dataclass

# Deterministic Miller-Rabin witness set, sufficient for n < 3,215,031,751,
# which covers the supported modulus range [2, 2**31).
_MR_WITNESSES = (2, 3, 5, 7)

MAX_MODULUS = 2**31


class NotPrimeError(ValueError):
    """The requested field modulus is not a prime number."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**31."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo the prime p."""
    if a % p == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return pow(a, -1, p)


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p) with 2 <= p < 2**31."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"field modulus must be an int, got {self.p!r}")
        if not 2 <= self.p < MAX_MODULUS:
            raise ValueError(f"field modulus must lie in [2, 2**31), got {self.p}")
        if not is_prime(self.p):
            raise NotPrimeError(f"{self.p} is not prime")
