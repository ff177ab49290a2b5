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
returns the certificate data; the sampler builds such a basis directly, which
is what makes random extension work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .gf import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    Vec,
    combine,
    count_subspaces,
    enumerate_subspaces,
    nullspace,
    random_subspace,
    vec_add,
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
    """Aligned basis of a candidate node, split along a decomposition.

    basis maps each helper index i to the basis vector w(i) whose component
    in S_i vanishes.  repair_parts maps (i, j) to sigma(i, j), the component
    of w(i) in S_j; complement_parts maps i to tau(i); complement_coeffs maps
    (i, j) to the coefficient of t_j when tau(i) is written over the
    complement vectors other than t_i.
    """

    decomposition: Decomposition
    basis: dict[int, Vec]
    repair_parts: dict[tuple[int, int], Vec]
    complement_parts: dict[int, Vec]
    complement_coeffs: dict[tuple[int, int], int]

    def subspace(self) -> Subspace:
        dec = self.decomposition
        return Subspace(dec.spec, dec.ambient_dim, [self.basis[i] for i in dec.helpers])


def is_well_aligned(
    candidate: Subspace, dec: Decomposition
) -> AlignmentCertificate | None:
    """Certificate for a well-aligned candidate, or None.

    The candidate must be a k-dimensional subspace of the decomposition's
    file space; anything else raises ValueError.
    """
    k = dec.k
    if candidate.spec != dec.spec or candidate.ambient_dim != dec.ambient_dim:
        raise ValueError("candidate lives in a different space than the decomposition")
    if candidate.dim != k:
        raise ValueError(f"candidate has dimension {candidate.dim}, expected {k}")
    spec = dec.spec
    p = spec.p
    rows = candidate.basis_rows()
    coords = [dec.coordinates(r) for r in rows]
    kernel_gens: dict[int, Vec] = {}
    for j in dec.helpers:
        block = Matrix(spec, [dec.repair_block(c, j) for c in coords], cols=k - 1)
        kernel = nullspace(block.transpose())
        if kernel.dim != 1:
            return None
        kernel_gens[j] = kernel.basis_rows()[0]
    mix = Matrix(spec, [kernel_gens[j] for j in dec.helpers], cols=k)
    if mix.rank() != k:
        return None
    basis: dict[int, Vec] = {}
    basis_coords: dict[int, Vec] = {}
    for j in dec.helpers:
        basis[j] = combine(p, kernel_gens[j], rows)
        basis_coords[j] = combine(p, kernel_gens[j], coords)
    repair_parts: dict[tuple[int, int], Vec] = {}
    complement_parts: dict[int, Vec] = {}
    complement_coeffs: dict[tuple[int, int], int] = {}
    for i in dec.helpers:
        for j in dec.helpers:
            repair_parts[(i, j)] = dec.expand_repair(
                j, dec.repair_block(basis_coords[i], j)
            )
        tau = dec.expand_complement(dec.complement_block(basis_coords[i]))
        complement_parts[i] = tau
        for j, c in dec.express_in_complement_basis(tau, exclude=i).items():
            complement_coeffs[(i, j)] = c
    return AlignmentCertificate(
        decomposition=dec,
        basis=basis,
        repair_parts=repair_parts,
        complement_parts=complement_parts,
        complement_coeffs=complement_coeffs,
    )


def sample_well_aligned(
    dec: Decomposition, rng: random.Random
) -> tuple[Subspace, AlignmentCertificate]:
    """Draw a uniform well-aligned candidate by building an aligned basis.

    Per column j, the k-1 components sigma(i, j) for i != j are a uniform
    independent tuple in S_j (rejection on the coefficient matrix); the
    complement components tau(i) are uniform in T.
    """
    spec = dec.spec
    p = spec.p
    k = dec.k
    repair_parts: dict[tuple[int, int], Vec] = {}
    zero = (0,) * dec.ambient_dim
    for j in dec.helpers:
        srows = dec.repair_spaces[j].basis_rows()
        others = [i for i in dec.helpers if i != j]
        while True:
            coeffs = [[rng.randrange(p) for _ in range(k - 1)] for _ in others]
            if Matrix(spec, coeffs, cols=k - 1).rank() == k - 1:
                break
        for i, crow in zip(others, coeffs):
            repair_parts[(i, j)] = combine(p, crow, srows)
        repair_parts[(j, j)] = zero
    trows = dec.complement_space.basis_rows()
    complement_parts: dict[int, Vec] = {}
    basis: dict[int, Vec] = {}
    for i in dec.helpers:
        tau = combine(p, [rng.randrange(p) for _ in range(k - 1)], trows)
        complement_parts[i] = tau
        w = tau
        for j in dec.helpers:
            w = vec_add(p, w, repair_parts[(i, j)])
        basis[i] = w
    candidate = Subspace(spec, dec.ambient_dim, [basis[i] for i in dec.helpers])
    if candidate.dim != k:
        raise AssertionError("aligned basis failed to span k dimensions")
    complement_coeffs: dict[tuple[int, int], int] = {}
    for i in dec.helpers:
        for j, c in dec.express_in_complement_basis(complement_parts[i], exclude=i).items():
            complement_coeffs[(i, j)] = c
    cert = AlignmentCertificate(
        decomposition=dec,
        basis=basis,
        repair_parts=repair_parts,
        complement_parts=complement_parts,
        complement_coeffs=complement_coeffs,
    )
    return candidate, cert


def _aligned_basis_tuple_count(k: int, spec: FieldSpec) -> int:
    """Number of ordered aligned bases: per column, an independent (k-1)-tuple
    in a (k-1)-dimensional space; per row, a free complement component."""
    q = spec.p
    per_column = 1
    for h in range(k - 1):
        per_column *= q ** (k - 1) - q**h
    return per_column**k * q ** (k * (k - 1))


def count_well_aligned(k: int, spec: FieldSpec) -> int:
    """Exact number of well-aligned k-dimensional subspaces.

    Each well-aligned subspace is hit by exactly (q-1)^k ordered aligned
    bases: the basis vectors are pinned to the k kernel lines, leaving one
    nonzero scalar of freedom apiece.  Validated against the census.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    q = spec.p
    total = _aligned_basis_tuple_count(k, spec)
    div = (q - 1) ** k
    assert total % div == 0
    return total // div


def count_well_aligned_lower(k: int, spec: FieldSpec) -> int:
    """Tuple count divided by q^k instead of (q-1)^k.

    A convenient closed form that treats each basis row as carrying q
    redundant rescalings; it strictly undercounts (the zero scalar never
    occurs), so it is a lower bound on count_well_aligned.  Kept for
    reporting alongside the exact value.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    q = spec.p
    total = _aligned_basis_tuple_count(k, spec)
    div = q**k
    assert total % div == 0
    return total // div


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
    k = dec.k
    hits = 0
    for candidate in enumerate_subspaces(dec.ambient_dim, k, dec.spec, cap=cap):
        if is_well_aligned(candidate, dec) is not None:
            hits += 1
    return hits


def estimate_probability_monte_carlo(
    dec: Decomposition, trials: int, rng: random.Random
) -> tuple[Fraction, tuple[float, float]]:
    """Empirical alignment frequency and a 3-sigma normal interval."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    hits = 0
    for _ in range(trials):
        candidate = random_subspace(dec.ambient_dim, dec.k, dec.spec, rng)
        if is_well_aligned(candidate, dec) is not None:
            hits += 1
    freq = Fraction(hits, trials)
    f = hits / trials
    half = 3.0 * math.sqrt(max(f * (1.0 - f), 0.0) / trials)
    return freq, (max(0.0, f - half), min(1.0, f + half))
