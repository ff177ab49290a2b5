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
left kernel of B_j.  Let c_r = (-1)^r det(B_j without row r), r = 0..k-1.

  * c B_j = 0.  For a column v of B_j the k x k matrix [v | B_j] repeats a
    column, so its determinant is 0, and expanding it along its first
    column gives sum over r of (-1)^r v_r det(B_j without row r) = c . v.
  * If B_j has rank k-1, some minor of order k-1 is nonzero, so c != 0,
    and the kernel has dimension k - (k-1) = 1: c spans it.
  * If B_j has rank below k-1, every minor of order k-1 vanishes, so
    c = 0, and the kernel has dimension at least 2: not aligned.

So every kernel is a line exactly when every c is nonzero, and then the
lines span the candidate exactly when the k x k matrix of the c's has a
nonzero determinant, which the same expansion along its first column gives
as its first column against the signed minors of the rest.  Scaled to a
leading 1, a line is the one RREF row that nullspace returns for it, so the
aligned basis is the same either way.  The minors are written out for
k <= 4; beyond that they cost more than an elimination, and the checker
takes nullspace and rank.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .gf import FieldSpec, inv_mod
from .linalg import (
    Subspace,
    Vec,
    count_subspaces,
    enumerate_subspaces,
    nullspace,
    random_invertible_matrix,
    random_subspace,
    rank,
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
    """Aligned basis of a candidate node, split along a decomposition: basis
    maps each helper i to the basis vector w(i) whose component in S_i
    vanishes, a canonical row packed in decomposition._lay.  The witnesses in
    both directions follow from it, via parts."""

    decomposition: Decomposition
    basis: dict[int, int]

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
    builds only the aligned basis.  The candidate must be a k-dimensional
    subspace of the decomposition's file space; anything else raises
    ValueError.
    """
    k = dec.k
    if candidate.spec != dec.spec or candidate.ambient_dim != dec.ambient_dim:
        raise ValueError("candidate lives in a different space than the decomposition")
    if candidate.dim != k:
        raise ValueError(f"candidate has dimension {candidate.dim}, expected {k}")
    lines = _kernel_lines(candidate, dec)
    if lines is None:
        return None
    basis = {i: candidate._combine(g) for i, g in zip(dec.helpers, lines)}
    return AlignmentCertificate(decomposition=dec, basis=basis)


def _kernel_lines(candidate: Subspace, dec: Decomposition) -> list[Vec] | None:
    """The kernel line of each helper's block, in helper order and scaled to
    a leading 1, or None when the candidate is not well aligned.  For
    k <= 4 the lines are the blocks' signed minors, by the module docstring;
    beyond, they come from nullspace."""
    k = dec.k
    p = dec.spec.p
    coords = [dec._lay.unpack(dec._coords(r)) for r in candidate._rows]
    blocks = [[dec.repair_block(c, j) for c in coords] for j in dec.helpers]
    if k > 4:
        lines = []
        for block in blocks:
            kernel = nullspace(dec.spec, block)
            if kernel.dim != 1:
                return None
            lines.append(kernel.basis_rows()[0])
        return lines if rank(p, lines) == k else None
    lines = []
    for block in blocks:
        line = [m % p for m in _signed_minors(block)]
        if not any(line):
            return None
        lines.append(line)
    firsts, rests = zip(*((line[0], line[1:]) for line in lines))
    if not sum(map(mul, firsts, _signed_minors(rests))) % p:
        return None
    scaled = []
    for line in lines:
        lead = inv_mod(next(filter(None, line)), p)
        scaled.append(tuple(lead * m % p for m in line))
    return scaled


def _signed_minors(rows) -> tuple[int, ...]:
    """(-1)^r det(rows without row r) for r = 0, ..., k-1, unreduced, for k
    rows of k-1 entries and k in {2, 3, 4}."""
    if len(rows) == 2:
        (a,), (b,) = rows
        return b, -a
    if len(rows) == 3:
        (a0, a1), (b0, b1), (c0, c1) = rows
        return b0 * c1 - b1 * c0, a1 * c0 - a0 * c1, a0 * b1 - a1 * b0
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = rows
    # the 2x2 minors of the last two columns, one per pair of rows
    ab, ac, ad = a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, a1 * d2 - a2 * d1
    bc, bd, cd = b1 * c2 - b2 * c1, b1 * d2 - b2 * d1, c1 * d2 - c2 * d1
    return (
        b0 * cd - c0 * bd + d0 * bc,
        c0 * ad - a0 * cd - d0 * ac,
        a0 * bd - b0 * ad + d0 * ab,
        b0 * ac - a0 * bc - c0 * ab,
    )


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
    for j in dec.helpers:
        others = [i for i in dec.helpers if i != j]
        coeffs = random_invertible_matrix(spec, k - 1, rng)
        for i, crow in zip(others, coeffs):
            basis[i] += dec.repair_spaces[j]._combine(crow)
    complement = Subspace._span_packed(spec, dec.ambient_dim, dec.complement_vectors.values())
    for i in dec.helpers:
        basis[i] += complement._combine([rng.randrange(p) for _ in range(k - 1)])
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


def census_well_aligned(dec: Decomposition, cap: int = 10**7) -> int:
    """Count well-aligned subspaces by exhaustive enumeration.

    Raises CapExceededError when the number of k-dimensional subspaces of the
    file space exceeds cap.
    """
    return sum(
        is_well_aligned(candidate, dec) is not None
        for candidate in enumerate_subspaces(dec.ambient_dim, dec.k, dec.spec, cap=cap)
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
