"""Linear algebra on residue rows over a prime field.

Vectors are rows of canonical residues and act as row vectors throughout:
a node stores the row space of its basis rows.  A Subspace holds the unique
reduced row-echelon rows of its row space, so equal subspaces compare equal
and hash equal, which makes censuses and witness comparisons structural.

Rows are tuples at the API and packed ints inside.  A row of n residues is
one int whose slot i, bits i*W to i*W + W - 1, holds entry i, so a row
operation or a combination of rows is a few big-int operations with no
Python loop per entry.  A row is packed where it enters (the Subspace
constructors, rank, inverse, nullspace) and unpacked where it leaves as a
tuple (basis_rows, inverse); struct does either in one call.  The splits
and alignment certificates built on a Subspace keep their rows packed too.
Integers from outside enter through a checked door that reduces them mod p
once: a Matrix (which also checks the row widths), the Subspace constructor
or Subspace.contains.  Inside the package only load_code uses that door;
every other span is built by the trusted Subspace._span (residue rows) or
Subspace._span_packed (rows already packed).  The constructor adopts rows
that already are the canonical RREF, as save_code writes them: it packs them
and eliminates nothing (the last part below proves that exact).

Gaussian elimination lives in one place, the private _Echelon.  It keeps
each row also negated, N = p*ONES - row, whose slots lie in [1, p].  The
pivot of a row is its lowest nonzero slot, found from its lowest set bit.
Reducing v by a row of pivot c adds f*N for f = v_c mod p: modulo p that
subtracts f*row, and since it only ever adds, no slot borrows.  The slots
then hold residues plus multiples of p, and one canonical reduction brings
every slot back to [0, p) at once: a packed Barrett step

    V -= p * (((V * m) >> B) & QMASK)

and a packed conditional subtract of p.  _Layout fixes, per (p, n) and on
first use, the slot width and the constants: B is the bit length of
(n+1)p^2, m = floor(2^B / p), and W is B plus the bit length of m, rounded
up to whole bytes so that struct packs a row, and at least one byte more
than the 1, 2 or 4 bytes ('B', 'H' or 'I') that struct gives a residue
(which widens only p = 2 with n <= 2, from 8 bits to 16).
Canonical reduction is exact for every slot x < 2^B:

  * Every slot stays below (n+1)p^2 < 2^B.  A reduced vector starts
    canonical and meets each of at most n echelon rows once, so a slot
    stays below p + n(p-1)p <= (n+1)p^2.  Scaling a canonical row by a
    residue leaves slots below p^2, and a combination of at most n
    canonical rows with residue coefficients below n*p^2.
  * The Barrett quotient is off by at most 1, since x < 2^B: with
    m > 2^B/p - 1, x/p - 1 < x/p - x/2^B < x*m/2^B <= x/p, so
    q = floor(x*m / 2^B) is floor(x/p) or one less, and x - q*p lies in
    [0, 2p).
  * No carry crosses a slot, since x*m < 2^B * m < 2^W: V*m holds each
    x*m in its own slot, so the shift and QMASK (the low W - B bits of
    every slot) give each q exactly, and x - q*p >= 0 borrows from nothing.
  * The conditional subtract leaves each slot in [0, p).  m >= 2, so
    H = 2^(W-1) >= 2^B > 2p, and for r in [0, 2p) the slot r + H - p stays
    in [0, 2^W) and has bit W-1 set exactly when r >= p.  Subtracting p
    times those bits leaves r mod p.

So a slot that reaches canonical reduction never exceeds its W bits, and
the result is the per-slot residue: the same rows as per-entry arithmetic
mod p, for every p in [2, 2^31).

The Subspace constructor packs its rows with the codec, which raises on an
entry that is not an integer, is negative or overflows its field, and on a
row of the wrong length; it packs a bool as 0 or 1, the value int() gives.
It keeps the packed rows v_1, ..., v_r exactly when

  * every v_i is nonzero and every slot is below p;
  * the lowest nonzero slot of v_i, its pivot c_i, holds 1;
  * c_1 < ... < c_r;
  * v_i is 0 at every c_j with j != i,

and otherwise reduces the rows mod p and eliminates.  The four conditions
define a reduced row-echelon form with no zero row.  Its rows are
independent, since only v_i is nonzero at c_i, so they are a basis of their
span, and the RREF of a row space is unique: adopting gives the rows that
_Echelon.rref() gives, in the same pivot order.  The rows save_code writes,
a Subspace's own, meet all four.  The range test is one packed step: add
HALF, which holds H - p in every slot, and test bit W-1 of each.  A packed
slot x is below 2^(W-8) < H, since W is a byte wider than the codec's
field, and H > 2p, so x + H - p lies in [0, 2^W): no slot carries into the
next, and bit W-1 is set exactly when x >= p.
"""

from __future__ import annotations

import functools
import itertools
import random
import struct
from operator import mul
from typing import Iterable, Iterator, Sequence

from .gf import FieldSpec, inv_mod

Vec = tuple[int, ...]


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured work cap."""


class _Layout:
    """Slot width and reduction constants for rows of `width` residues mod p;
    the module docstring derives them and proves their bounds."""

    __slots__ = (
        "p", "width", "slot", "mask", "ones", "pones", "shift", "barrett", "qmask", "half",
        "flag", "nbytes", "_codec",
    )

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.shift = ((width + 1) * p * p).bit_length()
        self.barrett = (1 << self.shift) // p
        # a residue fits the low 1, 2 or 4 bytes of its slot
        field = "B" if p <= 1 << 8 else "H" if p <= 1 << 16 else "I"
        size = struct.calcsize(field)
        self.slot = max(-(-(self.shift + self.barrett.bit_length()) // 8), size + 1) * 8
        self.mask = (1 << self.slot) - 1
        self.ones = int.from_bytes((b"\x01" + bytes(self.slot // 8 - 1)) * width, "little")
        self.pones = p * self.ones
        self.qmask = self.ones * ((1 << self.slot - self.shift) - 1)
        self.flag = self.slot - 1
        self.half = self.ones * ((1 << self.flag) - p)
        self.nbytes = width * self.slot // 8
        self._codec = struct.Struct("<" + f"{field}{self.slot // 8 - size}x" * width)

    def __reduce__(self):
        # a Struct does not pickle, so a copied or unpickled Subspace gets
        # its layout from the cache
        return _layout, (self.p, self.width)

    def pack(self, row: Iterable[int]) -> int:
        """The packed form of a row of residues."""
        return int.from_bytes(self._codec.pack(*row), "little")

    def unpack(self, v: int) -> Vec:
        """The residues of a canonical packed row."""
        return self._codec.unpack(v.to_bytes(self.nbytes, "little"))

    def canon(self, v: int) -> int:
        """Every slot of v, each below 2^B, reduced to [0, p)."""
        v -= (v * self.barrett >> self.shift & self.qmask) * self.p
        return v - ((v + self.half) >> self.flag & self.ones) * self.p

    def combine(self, coeffs: Iterable[int], rows: Iterable[int]) -> int:
        """The canonical sum of coeffs[i] * rows[i], for residue coefficients
        and at most n canonical rows."""
        return self.canon(sum(map(mul, coeffs, rows)))


@functools.cache
def _layout(p: int, width: int) -> _Layout:
    return _Layout(p, width)


class _Echelon:
    """Gaussian elimination over GF(p) on packed rows, one row at a time.

    Rows are canonical with a leading 1 at their pivot and are each reduced
    against the rows before them, so reducing a vector against them in
    order clears every pivot.  Rows given to the constructor must already
    form such an echelon, as a Subspace's rows do.  negs holds each row
    negated and shifts the bit offset of its pivot slot, which is its lowest
    set bit.  Undo pushes by truncating back to a saved len(rows).
    """

    __slots__ = ("lay", "rows", "negs", "shifts")

    def __init__(self, lay: _Layout, rows: Iterable[int] = ()):
        self.lay = lay
        self.rows = list(rows)
        self.negs = [lay.pones - row for row in self.rows]
        self.shifts = [(row & -row).bit_length() - 1 for row in self.rows]

    def reduce(self, v: int) -> int:
        """v minus its component along the rows, canonical, for canonical v;
        zero exactly when v is in their span."""
        p, mask = self.lay.p, self.lay.mask
        acc = v
        for neg, shift in zip(self.negs, self.shifts):
            f = (acc >> shift & mask) % p
            if f:
                acc += f * neg
        # a row operation only ever adds, so an unchanged v is still canonical
        return v if acc == v else self.lay.canon(acc)

    def push(self, v: int) -> bool:
        """Add canonical v as a row; False, changing nothing, when v is
        already in the span."""
        w = self.reduce(v)
        if not w:
            return False
        lay = self.lay
        low = (w & -w).bit_length() - 1
        shift = low - low % lay.slot
        head = w >> shift & lay.mask
        if head != 1:
            w = lay.canon(w * inv_mod(head, lay.p))
        self.rows.append(w)
        self.negs.append(lay.pones - w)
        self.shifts.append(shift)
        return True

    def truncate(self, size: int) -> None:
        del self.rows[size:]
        del self.negs[size:]
        del self.shifts[size:]

    def rref(self) -> tuple[int, ...]:
        """Turn the rows into the canonical RREF, in pivot order, and return
        them.  Back-substitution runs from the highest pivot down, against
        finished rows, which are zero at one another's pivots."""
        order = sorted(zip(self.shifts, self.rows), reverse=True)
        self.truncate(0)
        for shift, row in order:
            row = self.reduce(row)
            self.rows.append(row)
            self.negs.append(self.lay.pones - row)
            self.shifts.append(shift)
        self.rows.reverse()
        self.negs.reverse()
        self.shifts.reverse()
        return tuple(self.rows)


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
    rows = list(rows)
    if not rows:
        return 0
    lay = _layout(p, len(rows[0]))
    echelon = _Echelon(lay)
    return sum(echelon.push(lay.pack(row)) for row in rows)


def _augmented(p: int, rows: Sequence[Sequence[int]]) -> tuple[_Echelon, int]:
    """An echelon of the rows [row_i | e_i], and the width of the rows: a row
    whose pivot lies in the unit block is zero on the left, so its unit part
    c has sum c_i row_i = 0."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    lay = _layout(p, width + n)
    echelon = _Echelon(lay)
    pad = (0,) * n
    for i, row in enumerate(rows):
        echelon.push(lay.pack((*row, *pad)) | 1 << (width + i) * lay.slot)
    return echelon, width


def inverse(p: int, rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Rows of the inverse of the square matrix of residue rows.

    The rows [m | I] reduce to [I | m^-1] exactly when m is invertible.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("only square matrices can be inverted")
    echelon, _ = _augmented(p, rows)
    reduced = echelon.rref()
    slot = echelon.lay.slot
    if echelon.shifts != list(range(0, n * slot, slot)):
        raise ValueError("matrix is singular")
    return tuple(echelon.lay.unpack(row)[n:] for row in reduced)


def nullspace(spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "Subspace":
    """The dependencies among residue rows, {c : sum c_i rows_i = 0}, as a
    subspace of GF(p)^len(rows)."""
    echelon, width = _augmented(spec.p, rows)
    lay, unit = echelon.lay, _layout(spec.p, len(rows))
    cut = width * lay.slot
    # the unit parts of the rows pivoting in the unit block already form an
    # echelon, so they need only back-substitution, not a second elimination
    kernel = _Echelon(
        unit,
        (
            unit.pack(lay.unpack(row)[width:])
            for row, shift in zip(echelon.rows, echelon.shifts)
            if shift >= cut
        ),
    )
    return Subspace._from_rref(spec, len(rows), kernel.rref())


def _adopted(lay: _Layout, vectors: list) -> tuple[int, ...] | None:
    """The rows packed, when they already are the canonical RREF with no zero
    row; None otherwise.  The module docstring proves the test exact."""
    try:
        rows = tuple(map(lay.pack, vectors))
    except (struct.error, TypeError):
        return None
    shifts, pivots = [], 0
    for v in rows:
        low = (v & -v).bit_length() - 1
        shift = low - low % lay.slot
        # a zero row, or a pivot that is not right of the one before
        if not v or shifts and shift <= shifts[-1]:
            return None
        shifts.append(shift)
        pivots |= lay.mask << shift
    for v, shift in zip(rows, shifts):
        if v & pivots != 1 << shift or (v + lay.half) >> lay.flag & lay.ones:
            return None
    return rows


class Subspace:
    """A subspace of GF(p)^n held by its unique RREF rows, packed, with no
    zero rows."""

    __slots__ = ("spec", "ambient_dim", "_lay", "_rows")

    def __init__(
        self,
        spec: FieldSpec,
        ambient_dim: int,
        vectors: Iterable[Sequence[int]] = (),
    ):
        p = spec.p
        lay = _layout(p, ambient_dim)
        vectors = list(vectors)
        rows = _adopted(lay, vectors)
        if rows is None:
            echelon = _Echelon(lay)
            for row in vectors:
                if len(row) != ambient_dim:
                    raise ValueError(
                        f"vector of length {len(row)} in ambient dimension {ambient_dim}"
                    )
                echelon.push(lay.pack(map(p.__rmod__, map(int, row))))
            rows = echelon.rref()
        self.spec = spec
        self.ambient_dim = ambient_dim
        self._lay = lay
        self._rows = rows

    @classmethod
    def _from_rref(cls, spec: FieldSpec, ambient_dim: int, rows: tuple[int, ...]) -> "Subspace":
        """Trusted constructor for packed rows already in RREF with no zero rows."""
        obj = cls.__new__(cls)
        obj.spec = spec
        obj.ambient_dim = ambient_dim
        obj._lay = _layout(spec.p, ambient_dim)
        obj._rows = rows
        return obj

    @classmethod
    def _span(
        cls, spec: FieldSpec, ambient_dim: int, rows: Iterable[Sequence[int]]
    ) -> "Subspace":
        """Trusted constructor for the span of rows of residues."""
        lay = _layout(spec.p, ambient_dim)
        return cls._span_packed(spec, ambient_dim, map(lay.pack, rows))

    @classmethod
    def _span_packed(cls, spec: FieldSpec, ambient_dim: int, rows: Iterable[int]) -> "Subspace":
        """Trusted constructor for the span of canonical packed rows."""
        echelon = _Echelon(_layout(spec.p, ambient_dim))
        for row in rows:
            echelon.push(row)
        return cls._from_rref(spec, ambient_dim, echelon.rref())

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis_rows(self) -> tuple[Vec, ...]:
        return tuple(map(self._lay.unpack, self._rows))

    def _combine(self, coeffs: Iterable[int]) -> int:
        """The packed canonical combination sum(coeffs[i] * row_i) of the
        basis rows, for residue coefficients."""
        return self._lay.combine(coeffs, self._rows)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        lay = self._lay
        return not _Echelon(lay, self._rows).reduce(lay.pack(map(lay.p.__rmod__, map(int, v))))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        echelon = _Echelon(self._lay, self._rows)
        return not any(map(echelon.reduce, other._rows))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        echelon = _Echelon(self._lay, self._rows)
        for row in other._rows:
            echelon.push(row)
        return Subspace._from_rref(self.spec, self.ambient_dim, echelon.rref())

    def complement_in(self, whole: "Subspace") -> "Subspace":
        """A direct complement of self inside whole.

        Deterministic: greedily keeps the first basis vectors of whole (in its
        canonical basis order) that are independent of self and of the vectors
        already kept.
        """
        self._check_compatible(whole)
        echelon = _Echelon(self._lay, self._rows)
        chosen = [cand for cand in whole._rows if echelon.push(cand)]
        # self and the chosen vectors span self + whole, which is whole
        # exactly when self lies inside it
        if self.dim + len(chosen) != whole.dim:
            raise ValueError("complement_in needs self to be a subspace of whole")
        return Subspace._span_packed(self.spec, self.ambient_dim, chosen)

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
    lay = _layout(p, ambient_dim)
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
            yield Subspace._from_rref(spec, ambient_dim, tuple(map(lay.pack, rows)))
