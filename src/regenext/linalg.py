"""Linear algebra on residue rows over a prime field.

Vectors are rows of canonical residues and act as row vectors throughout:
a node stores the row space of its basis rows.  A Subspace holds the unique
reduced row-echelon rows of its row space, so equal subspaces compare equal
and hash equal, which makes censuses and witness comparisons structural.

Rows are tuples at the API and packed ints inside.  A row of n residues is
one int whose slot i, bits i*W to i*W + W - 1, holds entry i, so a row
operation or a combination of rows is a few big-int operations with no
Python loop per entry.  A row is packed where it enters (the Subspace
constructors, inverse, nullspace) and unpacked where it leaves as a tuple
(basis_rows, inverse); struct does either in one call.  Splits and
alignment certificates keep their rows packed too.  Integers from outside
enter through a checked door that reduces them mod p once: a Matrix (which
also checks the row widths) or the Subspace constructor, which
Subspace.contains goes through.  Inside the package only regen._subspace
uses that door, for the rows that _adopted refuses: _adopted takes rows
that already are the canonical RREF, as save_code writes them, and
eliminates nothing (proved below).  Every other span is built by one of
two trusted constructors: Subspace._from_rref (packed rows already in
RREF) or Subspace._span_packed (canonical packed rows, eliminated).

Gaussian elimination comes as two routines on packed rows.  An echelon is a
plain list of canonical rows, each with a leading 1 and reduced against the
rows before it, but not, in general, the RREF.  _push reduces a row against
the list, scales it to a leading 1 and appends it; _reduce reduces a vector
against the list, each factor read off the running sum.  Callers that take
their rows one at a time keep such a list: _augmented (so nullspace and
inverse), the recovery and cover checks of regen, and the oracle's closed
form.  _residue reduces against RREF rows
instead, each factor read straight off v (proved below), and _rref is the
Gauss-Jordan pass: it returns the RREF of the span of its rows, in pivot
order, and every Subspace basis that is not adopted or built by _from_rref
comes from it.  nullspace and inverse first eliminate their tall augmented
rows into an echelon and hand _rref the echelon from its highest pivot
down, the order in which a pass only back-substitutes (see _top_down); on
raw rows it would clear each new pivot from every finished row.  All of them
reduce by a row negated, N = p*ONES - row, whose slots lie in [1, p].  The
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

_rref keeps its rows r_1, ..., r_s, with pivots c_1, ..., c_s, as the RREF
of the rows given so far, up to order: each r_i is canonical with a 1 at
c_i, its lowest nonzero slot, and a 0 at every other c_j, and together
they span the rows given so far.  A new canonical row v keeps it so:

  * Reduction, by _residue: w = v + sum of v_(c_i) * N_i, one canonical
    reduction.  Modulo p that is v - sum of v_(c_i) * r_i, which is 0 at
    every c_j, since only r_j is nonzero there.  So each factor is read
    straight off v, which is canonical, and no factor depends on another.
    w is 0 exactly when v lies in the span, and then nothing changes.
  * Otherwise w is scaled to a 1 at its lowest nonzero slot c, which is no
    c_j.  Back-elimination: each r_i with f = r_i[c] != 0 becomes
    r_i + f*N_w, one addition and one canonical reduction.  Modulo p that
    is r_i - f*w: 0 at c, and unchanged left of c and at every c_j, where w
    is 0.  Such an r_i is 0 left of c_i and nonzero at c, so c_i < c, and
    r_i keeps its 1 at c_i as its lowest nonzero slot.
  * w is 0 at every c_j and every new r_i at c, so the rows with w
    appended keep the invariant, and they span v too.

At the end the rows sorted by pivot are the RREF of the span, which is
unique.  Canonical reduction is exact for every slot x < 2^B:

  * Every slot stays below (n+1)p^2 < 2^B.  A reduced vector starts
    canonical and meets each of at most n echelon rows once, so a slot
    stays below p + n(p-1)p <= (n+1)p^2.  A back-elimination step adds one
    f*N to a canonical row, so a slot stays below p + (p-1)p = p^2.
    Scaling a canonical row by a residue leaves slots below p^2, and a
    combination of at most n canonical rows with residue coefficients
    below n*p^2.
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

A membership test needs only the reduction step.  A Subspace's rows are
RREF, so _residue reduces a vector against them as it does against _rref's
rows: each factor is the vector's own entry at a pivot, and every slot
stays below (n+1)p^2.

_adopted packs its rows with the codec, which raises on an entry that is
not an integer, is negative or overflows its field, and on a row of the
wrong length; it packs a bool as 0 or 1, the value int() gives.  It
returns the packed rows v_1, ..., v_r exactly when

  * every v_i is nonzero and every slot is below p;
  * the lowest nonzero slot of v_i, its pivot c_i, holds 1;
  * c_1 < ... < c_r;
  * v_i is 0 at every c_j with j != i,

and None otherwise.  The four conditions define a reduced row-echelon
form with no zero row.  Its rows are independent, since only v_i is
nonzero at c_i, so they are a basis of their span, and the RREF of a row
space is unique: adopting gives the rows that _rref gives, in the same
pivot order.  The rows save_code writes, a Subspace's own, meet all four.
The range test is one packed step: add HALF, which holds H - p in every
slot, and test bit W-1 of each.  A packed slot x is below 2^(W-8) < H,
since W is a byte wider than the codec's field, and H > 2p, so x + H - p
lies in [0, 2^W): no slot carries into the next, and bit W-1 is set
exactly when x >= p.

The samplers draw residues with _draws, which returns the values that as
many calls of rng.randrange(p) would, from the same stream and leaving
the generator in the same state.  For an int n > 0, randrange(n) returns
random.Random._randbelow(n), which for random.Random itself is
_randbelow_with_getrandbits: it calls getrandbits(k) with k =
n.bit_length() and calls it again while the value is >= n.  _draws runs
that loop with n = p, once per value, without the per-call checks of
randrange.  CPython's random module does this on every version from 3.10,
the oldest that pyproject.toml admits.  A Random subclass that overrides
random() but not getrandbits() draws differently, and the package makes
none.
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


def _pivot(row: int) -> int:
    """The bit offset of the pivot slot of a packed row with a leading 1,
    which is its lowest set bit."""
    return (row & -row).bit_length() - 1


def _reduce(lay: _Layout, rows: list[int], v: int) -> int:
    """v minus its component along echelon rows, canonical, for canonical v:
    zero exactly when v is in their span.  Each row is canonical with a
    leading 1 and reduced against the rows before it, so each factor is
    read off the running sum, in row order."""
    p, mask, pones = lay.p, lay.mask, lay.pones
    acc = v
    for row in rows:
        f = (acc >> (row & -row).bit_length() - 1 & mask) % p
        if f:
            acc += f * (pones - row)
    # a row operation only ever adds, so an unchanged v is still canonical
    return v if acc == v else lay.canon(acc)


def _push(lay: _Layout, rows: list[int], v: int) -> bool:
    """Append canonical v, reduced and scaled to a leading 1, to echelon
    rows; False, leaving them as they are, when v is already in their span."""
    w = _reduce(lay, rows, v)
    if not w:
        return False
    low = (w & -w).bit_length() - 1
    head = w >> low - low % lay.slot & lay.mask
    if head != 1:
        w = lay.canon(w * inv_mod(head, lay.p))
    rows.append(w)
    return True


def _residue(lay: _Layout, rows: Iterable[int], v: int) -> int:
    """v minus its component along RREF rows, in any order, canonical, for
    canonical v: zero exactly when v is in their span.  Each factor is v's
    own entry at a pivot; the module docstring proves it."""
    mask, pones = lay.mask, lay.pones
    w = v
    for row in rows:
        f = v >> (row & -row).bit_length() - 1 & mask
        if f:
            w += f * (pones - row)
    return w if w == v else lay.canon(w)


def _rref(lay: _Layout, rows: Iterable[int]) -> tuple[int, ...]:
    """The canonical RREF of the span of canonical packed rows, in pivot
    order, by one Gauss-Jordan pass; the module docstring proves it."""
    p, mask, pones, slot = lay.p, lay.mask, lay.pones, lay.slot
    out, shifts = [], []
    for v in rows:
        w = _residue(lay, out, v)
        if not w:
            continue
        low = (w & -w).bit_length() - 1
        shift = low - low % slot
        head = w >> shift & mask
        if head != 1:
            w = lay.canon(w * inv_mod(head, p))
        neg = pones - w
        for i, row in enumerate(out):
            f = row >> shift & mask
            if f:
                out[i] = lay.canon(row + f * neg)
        out.append(w)
        shifts.append(shift)
    return tuple(row for _, row in sorted(zip(shifts, out)))


class Matrix:
    """Immutable row-major matrix with entries kept in [0, p).

    The checked door for integers from outside: it reduces every entry mod p
    and checks that the rows have one width.  Its entries are residue rows
    that inverse and nullspace take as they are.
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


def _signed_minors(rows) -> tuple[int, ...]:
    """(-1)^r det(rows without row r) for r = 0, ..., k-1, unreduced, for k
    rows of k-1 entries and k in {2, 3, 4}: their dependencies in closed
    form.  Write B for the k x (k-1) matrix of the rows and c for the minors.

      * c B = 0.  For a column v of B the k x k matrix [v | B] repeats a
        column, so its determinant is 0, and expanding it along its first
        column gives sum over r of (-1)^r v_r det(B without row r) = c . v.
      * If B has rank k-1, some minor of order k-1 is nonzero, so c != 0,
        and the dependencies {a : a B = 0} have dimension k - (k-1) = 1:
        c spans them.
      * If B has rank below k-1, every minor of order k-1 vanishes, so
        c = 0, and the dependencies have dimension at least 2.

    So c is nonzero exactly when B has rank k-1, and then it spans the
    dependencies among the rows.  The same expansion gives the determinant
    of a k x k matrix as its first column against the minors of the rest.
    """
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


def _augmented(p: int, rows: Sequence[Sequence[int]]) -> tuple[_Layout, list[int], int]:
    """The layout and an echelon of the rows [row_i | e_i], row i at index
    i, and the width of the rows: a row whose pivot lies in the unit block
    is zero on the left, so its unit part c has sum c_i row_i = 0."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    lay = _layout(p, width + n)
    echelon: list[int] = []
    pad = (0,) * n
    for i, row in enumerate(rows):
        _push(lay, echelon, lay.pack((*row, *pad)) | 1 << (width + i) * lay.slot)
    return lay, echelon, width


def _top_down(echelon: list[int], cut: int = 0) -> list[int]:
    """The echelon's rows whose pivot lies at bit cut or beyond, from the
    highest pivot down.  In that order each row _rref takes is zero at the
    pivots of the rows it has, so it clears nothing and only back-substitutes,
    one reduction per row."""
    order = sorted(((_pivot(row), row) for row in echelon), reverse=True)
    return [row for shift, row in order if shift >= cut]


def inverse(p: int, rows: Sequence[Sequence[int]]) -> tuple[Vec, ...]:
    """Rows of the inverse of the square matrix of residue rows.

    The rows [m | I] reduce to [I | m^-1] exactly when m is invertible, that
    is when the echelon has a pivot in each of the first n slots.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("only square matrices can be inverted")
    lay, echelon, _ = _augmented(p, rows)
    # n rows with n distinct pivots: all of them in the first n slots, or
    # some row zero on the left
    if any(_pivot(row) >= n * lay.slot for row in echelon):
        raise ValueError("matrix is singular")
    reduced = _rref(lay, _top_down(echelon))
    return tuple(lay.unpack(row)[n:] for row in reduced)


def nullspace(spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "Subspace":
    """The dependencies among residue rows, {c : sum c_i rows_i = 0}, as a
    subspace of GF(p)^len(rows)."""
    lay, echelon, width = _augmented(spec.p, rows)
    unit = _layout(spec.p, len(rows))
    cut = width * lay.slot
    # the unit parts of the rows pivoting in the unit block span the
    # dependencies and already form an echelon, so they need only
    # back-substitution, not a second elimination
    kernel = [unit.pack(lay.unpack(row)[width:]) for row in _top_down(echelon, cut)]
    return Subspace._from_rref(spec, len(rows), _rref(unit, kernel))


def _adopted(lay: _Layout, vectors: list) -> tuple[int, ...] | None:
    """The rows packed, when they already are the canonical RREF with no zero
    row; None otherwise.  regen._subspace, its one caller, tries it first;
    the module docstring proves the test exact."""
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

    __slots__ = ("spec", "_lay", "_rows")

    def __init__(
        self,
        spec: FieldSpec,
        ambient_dim: int,
        vectors: Iterable[Sequence[int]] = (),
    ):
        p = spec.p
        lay = _layout(p, ambient_dim)
        packed = []
        for row in vectors:
            if len(row) != ambient_dim:
                raise ValueError(f"vector of length {len(row)} in ambient dimension {ambient_dim}")
            packed.append(lay.pack(map(p.__rmod__, map(int, row))))
        self.spec = spec
        self._lay = lay
        self._rows = _rref(lay, packed)

    @classmethod
    def _from_rref(cls, spec: FieldSpec, ambient_dim: int, rows: tuple[int, ...]) -> "Subspace":
        """Trusted constructor for packed rows already in RREF with no zero rows."""
        obj = cls.__new__(cls)
        obj.spec = spec
        obj._lay = _layout(spec.p, ambient_dim)
        obj._rows = rows
        return obj

    @classmethod
    def _span_packed(cls, spec: FieldSpec, ambient_dim: int, rows: Iterable[int]) -> "Subspace":
        """Trusted constructor for the span of canonical packed rows."""
        return cls._from_rref(spec, ambient_dim, _rref(_layout(spec.p, ambient_dim), rows))

    @property
    def ambient_dim(self) -> int:
        return self._lay.width

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
        return self.contains_subspace(Subspace(self.spec, self.ambient_dim, [v]))

    def contains_subspace(self, other: "Subspace") -> bool:
        # one layout per (p, width), so the same layout is the same space
        if other._lay is not self._lay:
            raise ValueError("subspaces live in different ambient spaces")
        lay, rows = self._lay, self._rows
        # a loop: any() over a generator made each test a tenth slower
        for v in other._rows:
            if _residue(lay, rows, v):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._lay is other._lay and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.spec.p, self.ambient_dim, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(GF({self.spec.p}), dim {self.dim} of {self.ambient_dim})"


def _draws(rng: random.Random, p: int, count: int) -> list[int]:
    """The count values that count calls of rng.randrange(p) return, drawn
    from the same stream, for a random.Random and p >= 1; the module
    docstring says why the stream is the same."""
    bits = p.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= p:
            r = getrandbits(bits)
        out.append(r)
    return out


def _independent_rows(
    lay: _Layout, count: int, rng: random.Random
) -> tuple[list[int], tuple[int, ...]]:
    """count uniform packed rows of lay.width residues, conditioned on being
    independent, by rejection, and their RREF.  Each round draws the rows'
    count * width entries in row order with one _draws call."""
    p, width = lay.p, lay.width
    size = count * width
    while True:
        entries = _draws(rng, p, size)
        rows = [lay.pack(entries[i : i + width]) for i in range(0, size, width)]
        reduced = _rref(lay, rows)
        if len(reduced) == count:
            return rows, reduced


def random_subspace(
    ambient_dim: int, dim: int, spec: FieldSpec, rng: random.Random
) -> Subspace:
    """Uniformly random dim-dimensional subspace of GF(p)^ambient_dim.

    Rejection sampling: a uniform dim x ambient matrix conditioned on full rank
    hits every subspace with the same number of preimages (its ordered bases).
    """
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} outside [0, {ambient_dim}]")
    _, reduced = _independent_rows(_layout(spec.p, ambient_dim), dim, rng)
    return Subspace._from_rref(spec, ambient_dim, reduced)


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


def enumerate_subspaces(ambient_dim: int, dim: int, spec: FieldSpec) -> Iterator[Subspace]:
    """All dim-dimensional subspaces, each exactly once, in a fixed order.

    Iterates over RREF shapes: a choice of pivot columns plus free entries to
    the right of each pivot and outside pivot columns.
    """
    if dim < 0 or dim > ambient_dim:
        raise ValueError(f"dimension {dim} outside [0, {ambient_dim}]")
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
