"""Per-repair decompositions of the file space.

Fix a failed node x and a helper set A of size k in a valid code.  Each
helper j sends a (k-1)-dimensional repair space S_j inside its node space
W_j, and since dim W_j = k there is a one-dimensional leftover.  The k^2
vectors formed by the S_j bases plus one leftover generator per helper
admit, up to scale, exactly one linear dependency; its per-helper pieces
are the complement vectors t_j.  They satisfy:

  * t_j lies in W_j but not in S_j, and W_j = S_j + span(t_j),
  * the t_j sum to zero,
  * any k-1 of them span the same (k-1)-dimensional complement space T,
  * the S_j are mutually independent and F = S_1 + ... + S_k + T directly.

A Decomposition records this split and gives coordinates in one basis:
the bases of S_1, ..., S_k, then t_j for every helper but the last, off
which _split reads a vector's parts in the S_j and its weights over the t_j.
It checks nothing, because its two producers establish every claim above.
extend.synthesize_decomposition takes that basis from the rows of a random
invertible matrix and sets the last t_j to minus the sum of the others.
compute_decomposition checks that each helper sends k-1 dimensions inside a
node of dimension k, that the k^2 stacked vectors have a one-dimensional
dependency space, and that no leftover coefficient of that dependency
vanishes.  Then the k^2 vectors, in k^2-1 dimensions, span F.  The
dependency is the zero sum of the t_j, and a nonzero coefficient puts t_j
in W_j outside S_j and the leftover in span(S_j, t_j).  The basis spans
each S_j, each t_j (t_k being minus the sum of the others) and so each
leftover, hence F; having k^2-1 vectors, it is a basis.  So the sum is
direct, dim T = k-1, and by the zero sum any k-1 of the t_j span T.

Lemma: if the witness of (x, A) passes check_repair_pair, every node of A
has dimension at most k, and the k recovery subsets (A - {m}) + {x}, m in
A, span F, then compute_decomposition succeeds.  Proof: W_x lies in the
sum of the S_j, so recovery of (A - {m}) + {x} gives F = sum over j != m of
W_j, plus S_m.  By the premises that sum has dimension at most k(k-1) +
(k-1) = k^2-1, so dim S_m = k-1, each W_j, j != m, has dimension k (k >= 2,
so every node of A does), and the sum is direct.  S_m lies in W_m, leaving a line, and
the k^2 stacked vectors span the sum of the W_j, which holds F: rank k^2-1,
one dependency.  Each helper's k vectors are a basis of its node, so were
the dependency's leftover coefficient for m zero, it would be a nonzero
relation among the W_j, j != m, and S_m, which the direct sum forbids.
The recovery of A itself follows, so the lemma does not ask for it.
"""

from __future__ import annotations

from .gf import inv_mod
from .linalg import Vec, _layout, inverse, nullspace
from .regen import Code

__all__ = [
    "DecompositionError",
    "Decomposition",
    "compute_decomposition",
    "verify_structure",
]


class DecompositionError(ValueError):
    """The code data does not admit the expected split for this repair pair."""


class Decomposition:
    """Direct-sum split of the file space induced by one repair scenario.

    A record that trusts its input, as made by compute_decomposition (from
    code data) or extend.synthesize_decomposition (from a random frame).
    helpers are the k node indices in ascending order; failed_node is the
    node whose repair induced the split (None for a synthetic frame).
    repair_spaces maps each helper to its sent subspace S_j and
    complement_vectors to its t_j, a canonical row packed in _lay.  _coords
    builds the basis inverse on its first call and keeps it.
    """

    __slots__ = (
        "spec",
        "k",
        "ambient_dim",
        "helpers",
        "failed_node",
        "repair_spaces",
        "complement_vectors",
        "_lay",
        "_basis_inv",
    )

    def __init__(self, spec, helpers, failed_node, repair_spaces, complement_vectors):
        self.spec = spec
        self.helpers = tuple(helpers)
        self.k = len(self.helpers)
        self.ambient_dim = self.k * self.k - 1
        self.failed_node = failed_node
        self.repair_spaces = repair_spaces
        self.complement_vectors = complement_vectors
        self._lay = _layout(spec.p, self.ambient_dim)
        self._basis_inv = None

    def _coords(self, v: int) -> int:
        """The coordinates of packed v, packed, in the basis of the module
        docstring: the bases of the S_j, then t_j for every helper but the last."""
        lay = self._lay
        if self._basis_inv is None:
            rows = [r for j in self.helpers for r in self.repair_spaces[j].basis_rows()]
            rows.extend(lay.unpack(self.complement_vectors[j]) for j in self.helpers[:-1])
            self._basis_inv = tuple(map(lay.pack, inverse(self.spec.p, rows)))
        return lay.combine(lay.unpack(v), self._basis_inv)

    def repair_block(self, coords: Vec, j: int) -> Vec:
        """The k-1 coordinates of the repair space of helper j."""
        off = self.helpers.index(j) * (self.k - 1)
        return coords[off : off + self.k - 1]

    def _split(self, v: int) -> tuple[dict[int, int], dict[int, int]]:
        """Packed v read off _coords(v): its part in each S_j, packed, and the
        weight c_j of each t_j in its part in T, with c_j = 0 for the last helper."""
        c = self._lay.unpack(self._coords(v))
        sigma = {j: s._combine(self.repair_block(c, j)) for j, s in self.repair_spaces.items()}
        return sigma, dict(zip(self.helpers, c[self.k * (self.k - 1) :] + (0,)))

    def __repr__(self) -> str:
        tag = "synthetic" if self.failed_node is None else f"x={self.failed_node}"
        return f"Decomposition(GF({self.spec.p}), helpers={self.helpers}, {tag})"


def compute_decomposition(code: Code, helpers, x: int) -> Decomposition:
    """Derive the split of the helper spaces for the stored repair of x.

    Uses the stored witness: the sent space of helper j is taken as S_j, and
    the complement vectors come from the unique dependency among the k^2
    stacked vectors (repair bases plus one leftover generator per helper).
    Raises DecompositionError when the code data is not a valid exact-repair
    code at this operating point (dependency not unique, or a leftover
    coefficient vanishes).
    """
    pr = code.params
    helpers = tuple(sorted(helpers))
    witness = code.witness(x, helpers)
    p = pr.spec.p
    repair = {}
    rows: list[int] = []
    unit_positions = {}
    for j in helpers:
        sub = witness[j]
        if sub.dim != pr.beta:
            raise DecompositionError(
                f"witness for ({x}, {helpers}): helper {j} sends dimension {sub.dim}, "
                f"the split needs exactly {pr.beta}"
            )
        node = code.node(j)
        try:
            comp = sub.complement_in(node)
        except ValueError as exc:
            raise DecompositionError(
                f"witness for ({x}, {helpers}): helper {j} sends vectors outside its node"
            ) from exc
        if comp.dim != 1:
            raise DecompositionError(
                f"witness for ({x}, {helpers}): helper {j} stores dimension {node.dim}, "
                f"leftover has dimension {comp.dim}"
            )
        repair[j] = sub
        rows.extend(sub._rows)
        unit_positions[j] = len(rows)
        rows.append(comp._rows[0])
    lay = _layout(p, pr.f_dim)
    kernel = nullspace(pr.spec, [lay.unpack(row) for row in rows])
    if kernel.dim != 1:
        raise DecompositionError(
            f"repair pair ({x}, {helpers}): dependency space has dimension "
            f"{kernel.dim}, expected 1 (helpers must span the file space exactly once)"
        )
    coeff = list(kernel.basis_rows()[0])
    for j in helpers:
        if coeff[unit_positions[j]] == 0:
            raise DecompositionError(
                f"repair pair ({x}, {helpers}): leftover coefficient for helper {j} "
                f"vanishes, repair spaces are not in general position"
            )
    scale = inv_mod(coeff[unit_positions[helpers[0]]], p)
    coeff = [(scale * c) % p for c in coeff]
    comp_vectors = {
        j: lay.combine(coeff[pos - pr.beta : pos + 1], rows[pos - pr.beta : pos + 1])
        for j, pos in unit_positions.items()
    }
    return Decomposition(pr.spec, helpers, x, repair, comp_vectors)


def verify_structure(code: Code, helpers, x: int, *, established=None) -> None:
    """Check the split for one repair pair, deriving it unless the lemma settles it.

    established, when given, is what the other checks found: (whether the
    pair's witness passed check_repair_pair, the set of recovery subsets
    that span F).  Where it meets the premises of the module docstring's
    lemma, the split exists.  Elsewhere, and always without it,
    compute_decomposition derives the split, and by the module docstring a
    derivation that succeeds leaves nothing to flag; its errors propagate.
    """
    if established is None or not _lemma_applies(code, helpers, x, *established):
        compute_decomposition(code, helpers, x)


def _lemma_applies(code: Code, helpers, x: int, witness_passed: bool, spanning) -> bool:
    """Whether the premises of the module docstring's lemma hold for (x, helpers)."""
    return (
        witness_passed
        and all(code.node(j).dim <= code.params.alpha for j in helpers)
        and all(tuple(sorted({x, *helpers} - {m})) in spanning for m in helpers)
    )
