"""Linear algebra on residue rows over a prime field.

Vectors are tuples of canonical residues and act as row vectors throughout:
a node stores the row space of its basis rows.  A Subspace holds the unique
reduced row-echelon rows of its row space, so equal subspaces compare equal
and hash equal, which makes censuses and witness comparisons structural.

Gaussian elimination lives in one place, the private _Echelon.  rank,
inverse and nullspace take residue rows and return them; they, Subspace
construction, membership, sums and complements, and regen's coverage
check and repair oracle all eliminate through it.  Integers from outside enter through a
checked door that reduces them mod p once: a Matrix (which also checks the
row widths), the Subspace constructor or Subspace.contains.  Inside the
package only load_code uses that door; every other span of residue rows is
built by the trusted Subspace._span.  The echelon and everything built from
its rows keep residues as they are.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Sequence

from .gf import FieldSpec, inv_mod

Vec = tuple[int, ...]


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured work cap."""


def vec_add(p: int, a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple((x + y) % p for x, y in zip(a, b))


def vec_sub(p: int, a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple((x - y) % p for x, y in zip(a, b))


def vec_scale(p: int, c: int, a: Sequence[int]) -> Vec:
    c %= p
    return tuple((c * x) % p for x in a)


def combine(p: int, coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> Vec:
    """Linear combination sum(coeffs[i] * rows[i]) over GF(p)."""
    if not rows:
        raise ValueError("combine needs at least one row")
    width = len(rows[0])
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        c %= p
        if c == 0:
            continue
        for idx in range(width):
            acc[idx] += c * row[idx]
    return tuple(x % p for x in acc)


class _Echelon:
    """Gaussian elimination over GF(p), one row at a time.

    Rows have a leading 1 at their pivot column and are each reduced against
    the rows before them, so reducing a vector against them in order clears
    every pivot.  Entries are residues in [0, p); rows and pivots given to
    the constructor must already form such an echelon, as a Subspace basis
    does.  Undo pushes by truncating back to a saved len(rows).
    """

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int, rows: Iterable[Sequence[int]] = (), pivots: Iterable[int] = ()):
        self.p = p
        self.rows = list(rows)
        self.pivots = list(pivots)

    def reduce(self, v: Sequence[int]) -> Sequence[int]:
        """v minus its component along the rows; all zero exactly when v is in their span."""
        p = self.p
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    def push(self, v: Sequence[int]) -> bool:
        """Add v as a row; False, changing nothing, when v is already in the span."""
        w = self.reduce(v)
        head = next(filter(None, w), 0)
        if not head:
            return False
        lead = w.index(head)
        if head != 1:
            inv = inv_mod(head, self.p)
            w = [(inv * x) % self.p for x in w]
        self.rows.append(w)
        self.pivots.append(lead)
        return True

    def truncate(self, size: int) -> None:
        del self.rows[size:]
        del self.pivots[size:]

    def rref(self) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
        """Turn the rows into the canonical RREF and return them, as tuples,
        with their pivots.  Back-substitution runs from the highest pivot
        down, against finished rows, which are zero at one another's pivots."""
        order = sorted(zip(self.pivots, self.rows), reverse=True)
        self.rows, self.pivots = [], []
        for pc, row in order:
            self.rows.append(self.reduce(row))
            self.pivots.append(pc)
        self.rows.reverse()
        self.pivots.reverse()
        return tuple(map(tuple, self.rows)), tuple(self.pivots)


class Matrix:
    """Immutable row-major matrix with entries kept in [0, p).

    The checked door for integers from outside: it reduces every entry mod p
    and checks that the rows have one width.  Its entries are residue rows
    that rank, inverse and nullspace take as they are.
    """

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(
        self,
        spec: FieldSpec,
        entries: Iterable[Iterable[int]],
        cols: int | None = None,
    ):
        p = spec.p
        ent = tuple(tuple(int(x) % p for x in row) for row in entries)
        if ent:
            widths = {len(row) for row in ent}
            if len(widths) != 1:
                raise ValueError("matrix rows have inconsistent lengths")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns but rows have {width}")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.spec = spec
        self.rows = len(ent)
        self.cols = cols
        self.entries = ent

    def __repr__(self) -> str:
        return f"Matrix(GF({self.spec.p}), {self.rows}x{self.cols})"


def rank(p: int, rows: Iterable[Sequence[int]]) -> int:
    """Dimension of the span of residue rows."""
    echelon = _Echelon(p)
    return sum(echelon.push(row) for row in rows)


def _augmented(p: int, rows: Sequence[Sequence[int]]) -> _Echelon:
    """An echelon of the rows [row_i | e_i]: a row whose pivot lies in the
    unit block is zero on the left, so its unit part c has sum c_i row_i = 0."""
    n = len(rows)
    echelon = _Echelon(p)
    for i, row in enumerate(rows):
        unit = [0] * n
        unit[i] = 1
        echelon.push([*row, *unit])
    return echelon


def inverse(p: int, rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Rows of the inverse of the square matrix of residue rows.

    The rows [m | I] reduce to [I | m^-1] exactly when m is invertible.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("only square matrices can be inverted")
    reduced, pivots = _augmented(p, rows).rref()
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def nullspace(spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "Subspace":
    """The dependencies among residue rows, {c : sum c_i rows_i = 0}, as a
    subspace of GF(p)^len(rows)."""
    width = len(rows[0]) if rows else 0
    echelon = _augmented(spec.p, rows)
    # the unit parts of the rows pivoting in the unit block already form an
    # echelon, so they need only back-substitution, not a second elimination
    kernel = _Echelon(spec.p)
    for row, pc in zip(echelon.rows, echelon.pivots):
        if pc >= width:
            kernel.rows.append(row[width:])
            kernel.pivots.append(pc - width)
    return Subspace._from_rref(spec, len(rows), *kernel.rref())


class Subspace:
    """A subspace of GF(p)^n held by its unique RREF rows, with no zero rows."""

    __slots__ = ("spec", "ambient_dim", "_rows", "_pivots")

    def __init__(
        self,
        spec: FieldSpec,
        ambient_dim: int,
        vectors: Iterable[Sequence[int]] = (),
    ):
        p = spec.p
        echelon = _Echelon(p)
        for row in vectors:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(row)} in ambient dimension {ambient_dim}"
                )
            echelon.push([int(x) % p for x in row])
        self.spec = spec
        self.ambient_dim = ambient_dim
        self._rows, self._pivots = echelon.rref()

    @classmethod
    def _from_rref(
        cls, spec: FieldSpec, ambient_dim: int, rows: tuple[Vec, ...], pivots: tuple[int, ...]
    ) -> "Subspace":
        """Trusted constructor for residue rows already in RREF with no zero rows."""
        obj = cls.__new__(cls)
        obj.spec = spec
        obj.ambient_dim = ambient_dim
        obj._rows = rows
        obj._pivots = pivots
        return obj

    @classmethod
    def _span(
        cls, spec: FieldSpec, ambient_dim: int, rows: Iterable[Sequence[int]]
    ) -> "Subspace":
        """Trusted constructor for the span of rows of residues."""
        echelon = _Echelon(spec.p)
        for row in rows:
            echelon.push(row)
        return cls._from_rref(spec, ambient_dim, *echelon.rref())

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis_rows(self) -> tuple[Vec, ...]:
        return self._rows

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        p = self.spec.p
        echelon = _Echelon(p, self._rows, self._pivots)
        return not any(echelon.reduce([int(x) % p for x in v]))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        echelon = _Echelon(self.spec.p, self._rows, self._pivots)
        return not any(any(echelon.reduce(row)) for row in other._rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.spec, self.ambient_dim, self._rows + other._rows)

    def complement_in(self, whole: "Subspace") -> "Subspace":
        """A direct complement of self inside whole.

        Deterministic: greedily keeps the first basis vectors of whole (in its
        canonical basis order) that are independent of self and of the vectors
        already kept.
        """
        self._check_compatible(whole)
        echelon = _Echelon(self.spec.p, self._rows, self._pivots)
        chosen = [cand for cand in whole._rows if echelon.push(cand)]
        # self and the chosen vectors span self + whole, which is whole
        # exactly when self lies inside it
        if self.dim + len(chosen) != whole.dim:
            raise ValueError("complement_in needs self to be a subspace of whole")
        return Subspace._span(self.spec, self.ambient_dim, chosen)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.spec != other.spec or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.ambient_dim, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(GF({self.spec.p}), dim {self.dim} of {self.ambient_dim})"


def random_invertible_matrix(spec: FieldSpec, n: int, rng: random.Random) -> tuple[Vec, ...]:
    """Rows of a uniformly random invertible n x n matrix, by rejection."""
    p = spec.p
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if rank(p, rows) == n:
            return rows


def random_subspace(
    ambient_dim: int, dim: int, spec: FieldSpec, rng: random.Random
) -> Subspace:
    """Uniformly random dim-dimensional subspace of GF(p)^ambient_dim.

    Rejection sampling: a uniform dim x ambient matrix conditioned on full rank
    hits every subspace with the same number of preimages (its ordered bases).
    """
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} outside [0, {ambient_dim}]")
    p = spec.p
    while True:
        rows = [[rng.randrange(p) for _ in range(ambient_dim)] for _ in range(dim)]
        sub = Subspace._span(spec, ambient_dim, rows)
        if sub.dim == dim:
            return sub


def count_subspaces(ambient_dim: int, dim: int, spec: FieldSpec) -> int:
    """Number of dim-dimensional subspaces of GF(p)^ambient_dim (Gaussian binomial)."""
    if dim < 0 or dim > ambient_dim:
        return 0
    q = spec.p
    num = 1
    den = 1
    for h in range(dim):
        num *= q**ambient_dim - q**h
        den *= q**dim - q**h
    assert num % den == 0
    return num // den


def enumerate_subspaces(
    ambient_dim: int, dim: int, spec: FieldSpec, cap: int = 10**7
) -> Iterator[Subspace]:
    """All dim-dimensional subspaces, each exactly once, in a fixed order.

    Iterates over RREF shapes: a choice of pivot columns plus free entries to
    the right of each pivot and outside pivot columns.  Raises CapExceededError
    up front if the total count exceeds cap.
    """
    if dim < 0 or dim > ambient_dim:
        raise ValueError(f"dimension {dim} outside [0, {ambient_dim}]")
    total = count_subspaces(ambient_dim, dim, spec)
    if total > cap:
        raise CapExceededError(
            f"{total} subspaces of dimension {dim} in GF({spec.p})^{ambient_dim} "
            f"exceed the cap of {cap}"
        )
    return _iter_subspaces(ambient_dim, dim, spec)


def _iter_subspaces(ambient_dim: int, dim: int, spec: FieldSpec) -> Iterator[Subspace]:
    p = spec.p
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        free_cells = [
            (r, c)
            for r in range(dim)
            for c in range(pivots[r] + 1, ambient_dim)
            if c not in pivot_set
        ]
        for values in itertools.product(range(p), repeat=len(free_cells)):
            rows = [[0] * ambient_dim for _ in range(dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), val in zip(free_cells, values):
                rows[r][c] = val
            yield Subspace._from_rref(spec, ambient_dim, tuple(map(tuple, rows)), pivots)
