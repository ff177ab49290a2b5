"""Dense matrices and subspaces over a prime field.

Vectors are tuples of canonical residues and act as row vectors throughout:
a node stores the row space of its basis matrix, and v @ M composes on the
left.  A Subspace is identified with the unique reduced row-echelon basis of
its row space, so equal subspaces compare equal and hash equal, which makes
censuses and witness comparisons structural.
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


def _rref_in_place(p: int, rows: list[list[int]]) -> list[int]:
    """Reduce rows to RREF in place; returns the pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        head = rows[r][c]
        if head != 1:
            inv = inv_mod(head, p)
            rows[r] = [(inv * x) % p for x in rows[r]]
        base = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row = rows[i]
                rows[i] = [(x - f * y) % p for x, y in zip(row, base)]
        pivots.append(c)
        r += 1
    return pivots


class Matrix:
    """Immutable row-major matrix with entries kept in [0, p)."""

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

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(
            self.spec,
            list(zip(*self.entries)) if self.entries else [],
            cols=self.rows,
        )

    def augment(self, other: "Matrix") -> "Matrix":
        if other.spec != self.spec or other.rows != self.rows:
            raise ValueError("augmented matrices must share field and height")
        rows = [a + b for a, b in zip(self.entries, other.entries)]
        return Matrix(self.spec, rows, cols=self.cols + other.cols)

    def left_mul(self, v: Sequence[int]) -> Vec:
        """Row vector times matrix: v @ self."""
        if len(v) != self.rows:
            raise ValueError(f"vector of length {len(v)} against {self.rows} rows")
        p = self.spec.p
        acc = [0] * self.cols
        for c, row in zip(v, self.entries):
            c %= p
            if c == 0:
                continue
            for idx in range(self.cols):
                acc[idx] += c * row[idx]
        return tuple(x % p for x in acc)

    def rref_with_pivots(self) -> tuple["Matrix", list[int]]:
        work = [list(row) for row in self.entries]
        pivots = _rref_in_place(self.spec.p, work)
        return Matrix(self.spec, work, cols=self.cols), pivots

    def rank(self) -> int:
        work = [list(row) for row in self.entries]
        return len(_rref_in_place(self.spec.p, work))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        aug = self.augment(Matrix.identity(self.spec, n))
        reduced, pivots = aug.rref_with_pivots()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.spec, [row[n:] for row in reduced.entries], cols=n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix(GF({self.spec.p}), {self.rows}x{self.cols})"


def nullspace(m: Matrix) -> "Subspace":
    """Right nullspace {v : m @ v^T = 0} as a subspace of GF(p)^cols."""
    reduced, pivots = m.rref_with_pivots()
    pivot_set = set(pivots)
    p = m.spec.p
    rows = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [0] * m.cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced.entries[r][free]) % p
        rows.append(v)
    return Subspace(m.spec, m.cols, rows)


def solve_left(m: Matrix, v: Sequence[int]) -> Vec:
    """The unique x with x @ m = v.

    Raises ValueError if the system is inconsistent (v outside the row space)
    or underdetermined (the rows of m are linearly dependent).
    """
    if len(v) != m.cols:
        raise ValueError(f"target length {len(v)} does not match {m.cols} columns")
    at = m.transpose()
    target = Matrix(m.spec, [[x] for x in v], cols=1)
    aug = at.augment(target)
    reduced, pivots = aug.rref_with_pivots()
    if any(pc == m.rows for pc in pivots):
        raise ValueError("inconsistent system: target outside the row space")
    if len(pivots) < m.rows:
        raise ValueError("underdetermined system: rows are linearly dependent")
    x = [0] * m.rows
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entries[r][m.rows]
    return tuple(x)


class Subspace:
    """A subspace of GF(p)^n held by its unique RREF basis with no zero rows."""

    __slots__ = ("spec", "ambient_dim", "basis", "_pivots")

    def __init__(
        self,
        spec: FieldSpec,
        ambient_dim: int,
        vectors: Iterable[Sequence[int]] = (),
    ):
        p = spec.p
        work = [[int(x) % p for x in row] for row in vectors]
        for row in work:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(row)} in ambient dimension {ambient_dim}"
                )
        pivots = _rref_in_place(p, work)
        basis_rows = work[: len(pivots)]
        self.spec = spec
        self.ambient_dim = ambient_dim
        self.basis = Matrix(spec, basis_rows, cols=ambient_dim)
        self._pivots = tuple(pivots)

    @classmethod
    def _from_rref(
        cls, spec: FieldSpec, ambient_dim: int, rows: list[list[int]], pivots: tuple[int, ...]
    ) -> "Subspace":
        """Trusted constructor for rows already in RREF with no zero rows."""
        obj = cls.__new__(cls)
        obj.spec = spec
        obj.ambient_dim = ambient_dim
        obj.basis = Matrix(spec, rows, cols=ambient_dim)
        obj._pivots = pivots
        return obj

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(spec, ambient_dim, ())

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple[Vec, ...]:
        return self.basis.entries

    def _residual(self, v: Sequence[int]) -> list[int]:
        p = self.spec.p
        work = [int(x) % p for x in v]
        for row, pc in zip(self.basis.entries, self._pivots):
            f = work[pc]
            if f:
                work = [(x - f * y) % p for x, y in zip(work, row)]
        return work

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        return all(x == 0 for x in self._residual(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other.basis.entries)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(
            self.spec,
            self.ambient_dim,
            self.basis.entries + other.basis.entries,
        )

    def complement_in(self, whole: "Subspace") -> "Subspace":
        """A direct complement of self inside whole.

        Deterministic: greedily keeps the first basis vectors of whole (in its
        canonical basis order) that are independent of self and of the vectors
        already kept.
        """
        self._check_compatible(whole)
        if not whole.contains_subspace(self):
            raise ValueError("complement_in needs self to be a subspace of whole")
        p = self.spec.p
        # echelon rows for membership testing, keyed by leading column
        echelon: dict[int, list[int]] = {
            pc: list(row) for pc, row in zip(self._pivots, self.basis.entries)
        }
        chosen: list[Vec] = []
        for cand in whole.basis.entries:
            work = list(cand)
            for c in sorted(echelon):
                f = work[c]
                if f:
                    row = echelon[c]
                    work = [(x - f * y) % p for x, y in zip(work, row)]
            lead = next((idx for idx, x in enumerate(work) if x), None)
            if lead is None:
                continue
            head = work[lead]
            if head != 1:
                inv = inv_mod(head, p)
                work = [(inv * x) % p for x in work]
            echelon[lead] = work
            chosen.append(cand)
        return Subspace(self.spec, self.ambient_dim, chosen)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.spec != other.spec or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ambient_dim == other.ambient_dim
            and self.basis.entries == other.basis.entries
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.ambient_dim, self.basis.entries))

    def __repr__(self) -> str:
        return f"Subspace(GF({self.spec.p}), dim {self.dim} of {self.ambient_dim})"


def random_matrix(spec: FieldSpec, rows: int, cols: int, rng: random.Random) -> Matrix:
    p = spec.p
    return Matrix(
        spec,
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_invertible_matrix(spec: FieldSpec, n: int, rng: random.Random) -> Matrix:
    while True:
        m = random_matrix(spec, n, n, rng)
        if m.rank() == n:
            return m


def random_subspace(
    ambient_dim: int, dim: int, spec: FieldSpec, rng: random.Random
) -> Subspace:
    """Uniformly random dim-dimensional subspace of GF(p)^ambient_dim.

    Rejection sampling: a uniform dim x ambient matrix conditioned on full rank
    hits every subspace with the same number of preimages (its ordered bases).
    """
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} outside [0, {ambient_dim}]")
    if dim == 0:
        return Subspace.zero(spec, ambient_dim)
    while True:
        m = random_matrix(spec, dim, ambient_dim, rng)
        sub = Subspace(spec, ambient_dim, m.entries)
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
    if dim:
        assert num % den == 0
        return num // den
    return 1


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
    if dim == 0:
        yield Subspace.zero(spec, ambient_dim)
        return
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
            yield Subspace._from_rref(spec, ambient_dim, rows, pivots)
