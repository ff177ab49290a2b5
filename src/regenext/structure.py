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

The Decomposition object captures this split and answers coordinate
queries against it.  compute_decomposition derives it from a stored repair,
and together with the constructor it enforces every claim above, so
verify_structure is that derivation and nothing more.
"""

from __future__ import annotations

from .linalg import Matrix, Subspace, Vec, combine, nullspace, solve_left, vec_add
from .regen import CheckReport, Code, MissingWitnessError

__all__ = [
    "DecompositionError",
    "Decomposition",
    "compute_decomposition",
    "verify_structure",
    "verify_structure_all",
]


class DecompositionError(ValueError):
    """The code data does not admit the expected split for this repair pair."""


class Decomposition:
    """Direct-sum split of the file space induced by one repair scenario.

    helpers are the k node indices supplying the split; failed_node is the
    node whose repair induced it (None for synthetic frames built directly).
    repair_spaces maps each helper to its (k-1)-dimensional sent subspace,
    complement_vectors maps each helper to its leftover vector t_j, and
    complement_space is span of the t_j.
    """

    __slots__ = (
        "spec",
        "k",
        "ambient_dim",
        "helpers",
        "failed_node",
        "repair_spaces",
        "complement_vectors",
        "complement_space",
        "_basis_inv",
        "_offsets",
        "_complement_offset",
    )

    def __init__(self, spec, helpers, failed_node, repair_spaces, complement_vectors):
        helpers = tuple(sorted(helpers))
        k = len(helpers)
        if k < 2:
            raise DecompositionError(f"need at least two helpers, got {helpers}")
        ambient = k * k - 1
        p = spec.p
        comp_vectors = {}
        total = (0,) * ambient
        for j in helpers:
            if j not in repair_spaces or j not in complement_vectors:
                raise DecompositionError(f"helper {j} missing from the split data")
            sub = repair_spaces[j]
            if sub.spec != spec or sub.ambient_dim != ambient:
                raise DecompositionError(f"repair space for helper {j} is misplaced")
            if sub.dim != k - 1:
                raise DecompositionError(
                    f"repair space for helper {j} has dimension {sub.dim}, expected {k - 1}"
                )
            t = tuple(int(x) % p for x in complement_vectors[j])
            if len(t) != ambient:
                raise DecompositionError(f"complement vector for helper {j} has wrong length")
            if all(x == 0 for x in t):
                raise DecompositionError(f"complement vector for helper {j} is zero")
            comp_vectors[j] = t
            total = vec_add(p, total, t)
        if any(x != 0 for x in total):
            raise DecompositionError("complement vectors do not sum to zero")
        comp_space = Subspace(spec, ambient, comp_vectors.values())
        if comp_space.dim != k - 1:
            raise DecompositionError(
                f"complement vectors span dimension {comp_space.dim}, expected {k - 1}"
            )
        rows: list[Vec] = []
        offsets = {}
        for j in helpers:
            offsets[j] = len(rows)
            rows.extend(repair_spaces[j].basis_rows())
        complement_offset = len(rows)
        rows.extend(comp_space.basis_rows())
        try:
            basis_inv = Matrix(spec, rows, cols=ambient).inverse()
        except ValueError as exc:
            raise DecompositionError(
                "repair spaces and complement space do not span the file space"
            ) from exc
        self.spec = spec
        self.k = k
        self.ambient_dim = ambient
        self.helpers = helpers
        self.failed_node = failed_node
        self.repair_spaces = {j: repair_spaces[j] for j in helpers}
        self.complement_vectors = comp_vectors
        self.complement_space = comp_space
        self._basis_inv = basis_inv
        self._offsets = offsets
        self._complement_offset = complement_offset

    def coordinates(self, v) -> Vec:
        """Coordinates of v in the concatenated (repair spaces, complement) basis."""
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        return self._basis_inv.left_mul(v)

    def repair_block(self, coords: Vec, j: int) -> Vec:
        """The k-1 coordinates of the repair space of helper j."""
        off = self._offsets[j]
        return coords[off : off + self.k - 1]

    def complement_block(self, coords: Vec) -> Vec:
        return coords[self._complement_offset : self._complement_offset + self.k - 1]

    def expand_repair(self, j: int, block: Vec) -> Vec:
        """Turn repair-space coordinates for helper j back into a file-space vector."""
        rows = self.repair_spaces[j].basis_rows()
        if not rows:
            return (0,) * self.ambient_dim
        return combine(self.spec.p, block, rows)

    def expand_complement(self, block: Vec) -> Vec:
        rows = self.complement_space.basis_rows()
        if not rows:
            return (0,) * self.ambient_dim
        return combine(self.spec.p, block, rows)

    def express_in_complement_basis(self, tau, exclude: int) -> dict[int, int]:
        """Write tau as a combination of the complement vectors t_j, j != exclude.

        Any k-1 of the complement vectors form a basis of the complement
        space, so the coefficients are unique.  Raises ValueError if tau is
        not in the complement space or exclude is not a helper.
        """
        if exclude not in self._offsets:
            raise ValueError(f"{exclude} is not a helper of this decomposition")
        if not self.complement_space.contains(tau):
            raise ValueError("vector is not in the complement space")
        others = [j for j in self.helpers if j != exclude]
        stacked = Matrix(
            self.spec, [self.complement_vectors[j] for j in others], cols=self.ambient_dim
        )
        coeffs = solve_left(stacked, tuple(int(x) % self.spec.p for x in tau))
        return dict(zip(others, coeffs))

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
    leftover = {}
    for j in helpers:
        sub = witness.space(j)
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
        leftover[j] = comp.basis_rows()[0]
    rows: list[Vec] = []
    unit_positions = {}
    for j in helpers:
        rows.extend(repair[j].basis_rows())
        unit_positions[j] = len(rows)
        rows.append(leftover[j])
    stacked = Matrix(pr.spec, rows, cols=pr.f_dim)
    kernel = nullspace(stacked.transpose())
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
    scale = pr.spec.inv_value(coeff[unit_positions[helpers[0]]])
    coeff = [(scale * c) % p for c in coeff]
    comp_vectors = {}
    offset = 0
    for j in helpers:
        block = coeff[offset : offset + pr.beta]
        t = combine(p, block + [coeff[unit_positions[j]]], list(repair[j].basis_rows()) + [leftover[j]])
        comp_vectors[j] = t
        offset += pr.beta + 1
    return Decomposition(pr.spec, helpers, x, repair, comp_vectors)


def verify_structure(code: Code, helpers, x: int) -> CheckReport:
    """Check the split for one repair pair by deriving it.

    A derivation that succeeds leaves nothing to flag.  It has checked that
    each helper sends exactly k-1 dimensions inside a node of dimension k and
    that the k^2 stacked vectors have exactly one dependency, touching every
    leftover, so t_j lies in W_j but not in S_j and W_j = S_j + span(t_j).
    The constructor has checked the zero sum, which makes any k-1 of the t_j
    span T, the dimension of T, and the direct sum through the basis
    inverse, which also keeps every node out of S_1 + ... + S_k.  The report
    counts the pair and holds no violations; errors from the derivation
    propagate.
    """
    compute_decomposition(code, helpers, x)
    return CheckReport(1, ())


def verify_structure_all(code: Code) -> CheckReport:
    """Run verify_structure over every stored repair pair; checked counts pairs."""
    checked = 0
    violations = []
    for x, helpers in code.repair_pairs():
        checked += 1
        try:
            report = verify_structure(code, helpers, x)
        except (DecompositionError, MissingWitnessError) as exc:
            violations.append(f"pair ({x}, {helpers}): {exc}")
            continue
        violations.extend(report.violations)
    return CheckReport(checked, tuple(violations))
