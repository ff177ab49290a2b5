"""Exact arithmetic in prime fields GF(p).

A FieldSpec fixes the modulus and is validated once at construction, by
trial division, so everything downstream can trust it.  Field elements are
plain ints kept as canonical residues, 0 <= value < p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_MODULUS = 2**31


class NotPrimeError(ValueError):
    """The requested field modulus is not a prime number."""


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division up to its square root."""
    if n < 3 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


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
