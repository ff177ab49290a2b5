"""Well-aligned candidate nodes relative to a decomposition.

Given a split of the file space into k repair spaces S_j and the complement
space T, a k-dimensional candidate subspace is well aligned when it admits a
basis w(1), ..., w(k), indexed by the helpers, with

    w(i) = sum over helpers j of sigma(i, j) + tau(i),

where sigma(i, j) lies in S_j, tau(i) lies in T, sigma(i, i) = 0 (one vanishing
component per column, hitting each column once), and for every column j the
k-1 nonzero components sigma(i, j) are linearly independent.

Equivalently: for each helper j, the projection of the candidate to S_j along
the rest of the split must have a one-dimensional kernel, and the k kernel
lines must jointly span the candidate.  The checker tests exactly that and
returns the aligned basis; the sampler builds such a basis directly and
hands the candidate to the checker, so certificates are made in one place.

The kernel lines in closed form.  Write the candidate's basis rows in the
decomposition's coordinates and let B_j be the k x (k-1) block of helper j:
row r holds the S_j coordinates of basis row r.  The projection to S_j
maps the combination a of the basis rows to a B_j, so its kernel is the
left kernel of B_j, the dependencies among its rows.  Let c be the signed
minors of B_j, c_r = (-1)^r det(B_j without row r), r = 0..k-1.  The lemma
at linalg._signed_minors shows that c spans the kernel when B_j has rank
k-1 and is 0 otherwise, when the kernel has dimension at least 2.

So every kernel is a line exactly when every c is nonzero, and then the
lines span the candidate exactly when the k x k matrix of the c's has a
nonzero determinant, which the same expansion along its first column gives
as its first column against the signed minors of the rest.  Scaled to a
leading 1, a line is the one RREF row that nullspace returns for it, so the
aligned basis is the same either way.  The minors are written out for
k <= 4; beyond that they cost more than an elimination, and the checker
takes nullspace.

A certificate is lazy.  The checker keeps the candidate and its kernel
lines as they come, and the certificate builds the aligned basis, each
line scaled to a leading 1 and combined with the candidate's rows, on its
first read, as it builds the parts on theirs.  Most certificates are never
read: a draw is rejected as soon as one helper subset has no aligned
pair, and Monte Carlo estimation only counts the hits.  The test is lean
for the same reason, since at p = 3 three candidates in five fail it: it
reads the decomposition's basis inverse once, takes the coordinates of
each basis row as one packed combination, and slices the block of the
helper in position h at offset h(k-1) of them.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .gf import FieldSpec, inv_mod
from .linalg import (
    Subspace,
    Vec,
    _draws,
    _independent_rows,
    _layout,
    _signed_minors,
    count_subspaces,
    enumerate_subspaces,
    nullspace,
    random_subspace,
)
from .structure import Decomposition

__all__ = [
    "AlignmentCertificate",
    "is_well_aligned",
    "sample_well_aligned",
    "count_well_aligned",
    "count_well_aligned_lower",
    "census_well_aligned",
    "probability_well_aligned",
    "estimate_probability_monte_carlo",
]


@dataclass(frozen=True)
class AlignmentCertificate:
    """A well-aligned candidate node, split along a decomposition, with the
    kernel line of each helper's block in helper order, as the checker found
    them.  The witnesses in both directions follow from its basis, via
    parts."""

    decomposition: Decomposition
    candidate: Subspace
    lines: list[Sequence[int]]

    @functools.cached_property
    def basis(self) -> dict[int, int]:
        """Maps each helper i to the aligned basis vector w(i) whose component
        in S_i vanishes, a canonical row packed in decomposition._lay; built
        on first read, from line i scaled to a leading 1."""
        dec, p = self.decomposition, self.decomposition.spec.p
        basis = {}
        for i, line in zip(dec.helpers, self.lines):
            lead = inv_mod(next(filter(None, line)), p)
            basis[i] = self.candidate._combine([lead * m % p for m in line])
        return basis

    @functools.cached_property
    def parts(self) -> dict[tuple[int, int], int]:
        """For i != j, the part sigma(i, j) + theta(i, j) t_j of w(i) that node
        j holds, packed; computed on first read, by k splits.  Split w(i) into
        its sigma(i, j) and tau(i) = sum of c_j t_j.  The t_j sum to zero, so
        tau(i) is the sum over j != i of theta(i, j) t_j with
        theta(i, j) = c_j - c_i (mod p), and the parts of w(i) sum to w(i)."""
        dec = self.decomposition
        lay, t = dec._lay, dec.complement_vectors
        parts = {}
        for i, w in self.basis.items():
            sigma, c = dec._split(w)
            for j in dec.helpers:
                if j != i:
                    parts[(i, j)] = lay.combine((1, (c[j] - c[i]) % lay.p), (sigma[j], t[j]))
        return parts


def is_well_aligned(
    candidate: Subspace, dec: Decomposition
) -> AlignmentCertificate | None:
    """Certificate for a well-aligned candidate, or None.

    The test reads the coordinates of the candidate's basis, and a hit
    keeps its kernel lines for the certificate to build the aligned basis
    from, when it is read.  The candidate must be a k-dimensional
    subspace of the decomposition's file space; anything else raises
    ValueError.
    """
    k = dec.k
    # one layout per (p, width), so the same layout is the same space
    if candidate._lay is not dec._lay:
        raise ValueError("candidate lives in a different space than the decomposition")
    if candidate.dim != k:
        raise ValueError(f"candidate has dimension {candidate.dim}, expected {k}")
    lines = _kernel_lines(candidate.basis_rows(), dec)
    if lines is None:
        return None
    return AlignmentCertificate(decomposition=dec, candidate=candidate, lines=lines)


def _kernel_lines(rows: Sequence[Vec], dec: Decomposition) -> list[Sequence[int]] | None:
    """A nonzero vector on the kernel line of each helper's block, in helper
    order, or None when the candidate of the basis rows is not well aligned.
    For k <= 4 the lines are the blocks' signed minors, by the module
    docstring; beyond, they come from nullspace."""
    k = dec.k
    p = dec.spec.p
    w = k - 1
    unpack, canon, inv = dec._lay.unpack, dec._lay.canon, dec._inverse()
    # lay.combine inlined: the test runs on every draw
    coords = [unpack(canon(sum(map(mul, row, inv)))) for row in rows]
    # the block of the helper in position h sits at offset h * w
    offsets = range(0, k * w, w)
    if k > 4:
        lines = []
        for off in offsets:
            kernel = nullspace(dec.spec, [c[off : off + w] for c in coords])
            if kernel.dim != 1:
                return None
            lines.append(kernel.basis_rows()[0])
        return lines if nullspace(dec.spec, lines).dim == 0 else None
    lines = []
    for off in offsets:
        line = [m % p for m in _signed_minors([c[off : off + w] for c in coords])]
        if not any(line):
            return None
        lines.append(line)
    firsts, rests = zip(*((line[0], line[1:]) for line in lines))
    if not sum(map(mul, firsts, _signed_minors(rests))) % p:
        return None
    return lines


def sample_well_aligned(
    dec: Decomposition, rng: random.Random
) -> tuple[Subspace, AlignmentCertificate]:
    """Draw a uniform well-aligned candidate by building an aligned basis.

    Per column j, the k-1 components sigma(i, j) for i != j are a uniform
    independent tuple in S_j (rejection on the coefficient matrix); the
    complement components tau(i) are uniform in T.  Such a basis always
    spans k dimensions and each w(i) lies on the checker's kernel line i, so
    the checker's certificate differs from it only by nonzero scalars.
    """
    spec = dec.spec
    p = spec.p
    k = dec.k
    # packed sums of canonical parts, k per vector, reduced once at the end
    basis = dict.fromkeys(dec.helpers, 0)
    lay = _layout(p, k - 1)
    for j in dec.helpers:
        others = [i for i in dec.helpers if i != j]
        coeffs, _ = _independent_rows(lay, k - 1, rng)
        for i, crow in zip(others, coeffs):
            basis[i] += dec.repair_spaces[j]._combine(lay.unpack(crow))
    complement = Subspace._span_packed(spec, dec.ambient_dim, dec.complement_vectors.values())
    draws = _draws(rng, p, k * (k - 1))
    for off, i in zip(range(0, k * (k - 1), k - 1), dec.helpers):
        basis[i] += complement._combine(draws[off : off + k - 1])
    candidate = Subspace._span_packed(spec, dec.ambient_dim, map(dec._lay.canon, basis.values()))
    return candidate, is_well_aligned(candidate, dec)


def _aligned_bases_over(k: int, spec: FieldSpec, div: int) -> int:
    """Number of ordered aligned bases divided by div: per column, an
    independent (k-1)-tuple in a (k-1)-dimensional space; per row, a free
    complement component."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    q = spec.p
    per_column = 1
    for h in range(k - 1):
        per_column *= q ** (k - 1) - q**h
    total = per_column**k * q ** (k * (k - 1))
    assert total % div == 0
    return total // div


def count_well_aligned(k: int, spec: FieldSpec) -> int:
    """Exact number of well-aligned k-dimensional subspaces.

    Each well-aligned subspace is hit by exactly (q-1)^k ordered aligned
    bases: the basis vectors are pinned to the k kernel lines, leaving one
    nonzero scalar of freedom apiece.  Validated against the census.
    """
    return _aligned_bases_over(k, spec, (spec.p - 1) ** k)


def count_well_aligned_lower(k: int, spec: FieldSpec) -> int:
    """Tuple count divided by q^k instead of (q-1)^k.

    A convenient closed form that treats each basis row as carrying q
    redundant rescalings; it strictly undercounts (the zero scalar never
    occurs), so it is a lower bound on count_well_aligned.  Kept for
    reporting alongside the exact value.
    """
    return _aligned_bases_over(k, spec, spec.p**k)


def probability_well_aligned(k: int, spec: FieldSpec) -> Fraction:
    """Probability that a uniform k-dimensional subspace is well aligned.

    Exact count over the Gaussian binomial; does not depend on which
    decomposition is fixed.
    """
    f_dim = k * k - 1
    return Fraction(count_well_aligned(k, spec), count_subspaces(f_dim, k, spec))


def census_well_aligned(dec: Decomposition) -> int:
    """Count well-aligned subspaces by exhaustive enumeration."""
    return sum(
        is_well_aligned(candidate, dec) is not None
        for candidate in enumerate_subspaces(dec.ambient_dim, dec.k, dec.spec)
    )


def estimate_probability_monte_carlo(
    dec: Decomposition, trials: int, rng: random.Random
) -> tuple[Fraction, tuple[float, float]]:
    """Empirical alignment frequency and a 3-sigma normal interval."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    hits = sum(
        is_well_aligned(random_subspace(dec.ambient_dim, dec.k, dec.spec, rng), dec) is not None
        for _ in range(trials)
    )
    freq = Fraction(hits, trials)
    f = hits / trials
    half = 3.0 * math.sqrt(max(f * (1.0 - f), 0.0) / trials)
    return freq, (max(0.0, f - half), min(1.0, f + half))
