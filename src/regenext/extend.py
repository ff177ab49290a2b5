"""Bootstrap a minimal verified code and grow it one random node at a time.

A fresh code on k+1 nodes is synthesized from a random full-rank frame: k
mutually independent (k-1)-dimensional repair spaces plus a complement space,
with the k node spaces read off the frame and the last node sampled well
aligned.  Growth then repeats a simple step: draw a uniform k-dimensional
subspace as the new node, and accept it as soon as, for every k-subset A of
the old nodes, it is well aligned relative to the repair of some old node x
outside A by A.  Acceptance yields explicit repair witnesses in both
directions, so the grown code is verified end to end; the chance that a
single draw works is at least 1 - C(n, k) * (1 - P) for the per-pair
alignment probability P, which tends to 1 for large fields.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .alignment import (
    AlignmentCertificate,
    is_well_aligned,
    probability_well_aligned,
    sample_well_aligned,
)
from .gf import FieldSpec
from .linalg import Subspace, Vec, random_invertible_matrix, random_subspace, vec_add, vec_scale
from .regen import Code, Params, RepairWitness, verify_data_recovery, verify_repair_witnesses
from .structure import Decomposition, compute_decomposition

__all__ = [
    "SynthesisError",
    "ExtensionError",
    "ExtensionOutcome",
    "DEFAULT_MAX_ATTEMPTS",
    "synthesize_decomposition",
    "synthesize_base_code",
    "new_node_repair_witness",
    "helper_repair_witness",
    "find_alignments",
    "extend_code",
    "attempts_bound",
]

DEFAULT_MAX_ATTEMPTS = 64
DEFAULT_SYNTHESIS_ATTEMPTS = 16


class SynthesisError(RuntimeError):
    """Could not build a verified base code within the attempt budget."""


class ExtensionError(RuntimeError):
    """Could not extend the code within the attempt budget."""

    def __init__(self, message: str, attempts: int, bound: Fraction):
        super().__init__(message)
        self.attempts = attempts
        self.bound = bound


@dataclass
class ExtensionOutcome:
    """A successful extension: the grown code, draws used, and per-subset
    alignment picks (helper subset -> (failed node, certificate))."""

    code: Code
    attempts: int
    alignment_log: dict[tuple[int, ...], tuple[int, AlignmentCertificate]]


def synthesize_decomposition(
    k: int, spec: FieldSpec, rng: random.Random
) -> Decomposition:
    """A random split of GF(p)^(k^2-1) into k repair spaces plus a complement.

    Rows of a random invertible matrix supply k blocks of k-1 rows (the
    repair spaces) and a final k-1 rows spanning the complement space; the
    complement vectors are those rows for the first k-1 helpers and minus
    their sum for the last, so they sum to zero by construction.  The frame
    has no failed node attached (failed_node is None).
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    ambient = k * k - 1
    p = spec.p
    frame = random_invertible_matrix(spec, ambient, rng)
    helpers = tuple(range(1, k + 1))
    repair = {}
    for idx, j in enumerate(helpers):
        rows = frame.entries[idx * (k - 1) : (idx + 1) * (k - 1)]
        repair[j] = Subspace(spec, ambient, rows)
    tail = frame.entries[k * (k - 1) :]
    comp_vectors: dict[int, Vec] = {}
    total = (0,) * ambient
    for j, row in zip(helpers, tail):
        comp_vectors[j] = row
        total = vec_add(p, total, row)
    comp_vectors[helpers[-1]] = vec_scale(p, -1, total)
    return Decomposition(spec, helpers, None, repair, comp_vectors)


def new_node_repair_witness(cert: AlignmentCertificate) -> RepairWitness:
    """Witness for repairing the certificate's node from its helpers.

    Helper j sends span of sigma(i, j) + theta(i, j) * t_j over i != j; the
    aligned basis vectors w(i) = sum of sigma(i, j) + tau(i) then reassemble
    inside the sum of the sends, because tau(i) expands over the t_j.
    """
    dec = cert.decomposition
    p = dec.spec.p
    spaces = {}
    for j in dec.helpers:
        rows = []
        t = dec.complement_vectors[j]
        for i in dec.helpers:
            if i == j:
                continue
            rows.append(
                vec_add(p, cert.repair_parts[(i, j)], vec_scale(p, cert.complement_coeffs[(i, j)], t))
            )
        spaces[j] = Subspace(dec.spec, dec.ambient_dim, rows)
    sent = Subspace(
        dec.spec, dec.ambient_dim, [r for sub in spaces.values() for r in sub.basis_rows()]
    )
    for i in dec.helpers:
        if not sent.contains(cert.basis[i]):
            raise AssertionError("constructed sends fail to cover the aligned node")
    return RepairWitness.of(spaces)


def helper_repair_witness(
    cert: AlignmentCertificate, failed: int, new_index: int
) -> RepairWitness:
    """Witness for repairing old node `failed` with the certificate's node
    (stored at new_index) joining the remaining helpers.

    The new node sends span of w(i) over i != failed; each remaining helper j
    sends span of sigma(i, j) for i outside {j, failed} plus its complement
    vector t_j.  Subtracting the sigma and t contributions from the w(i)
    isolates the k-1 components sigma(i, failed), which together with
    t_failed = minus the sum of the other t_j rebuild the failed node.
    """
    dec = cert.decomposition
    if failed not in dec.helpers:
        raise ValueError(f"{failed} is not a helper of the certificate's decomposition")
    p = dec.spec.p
    spaces = {}
    spaces[new_index] = Subspace(
        dec.spec, dec.ambient_dim, [cert.basis[i] for i in dec.helpers if i != failed]
    )
    for j in dec.helpers:
        if j == failed:
            continue
        rows = [
            cert.repair_parts[(i, j)]
            for i in dec.helpers
            if i != j and i != failed
        ]
        rows.append(dec.complement_vectors[j])
        spaces[j] = Subspace(dec.spec, dec.ambient_dim, rows)
    sent = Subspace(
        dec.spec, dec.ambient_dim, [r for sub in spaces.values() for r in sub.basis_rows()]
    )
    failed_node = dec.repair_spaces[failed].sum(
        Subspace(dec.spec, dec.ambient_dim, [dec.complement_vectors[failed]])
    )
    if not sent.contains_subspace(failed_node):
        raise AssertionError("constructed sends fail to cover the failed node")
    return RepairWitness.of(spaces)


def _add_node(
    nodes: tuple[Subspace, ...],
    witnesses: dict[tuple[int, tuple[int, ...]], RepairWitness],
    candidate: Subspace,
    log: dict[tuple[int, ...], tuple[int | None, AlignmentCertificate]],
) -> tuple[Code, tuple[str, ...]]:
    """Append the candidate as node n+1 and re-verify the result.

    For every helper subset in the log, the subset's certificate yields the
    witnesses in both directions: the new node repaired by the subset, and
    each member repaired by the others plus the new node.  Returns the grown
    code and its first few verification problems (none when it verifies).
    """
    star = len(nodes) + 1
    witnesses = dict(witnesses)
    for helpers, (_, cert) in log.items():
        witnesses[(star, helpers)] = new_node_repair_witness(cert)
        for failed in helpers:
            key = tuple(sorted([j for j in helpers if j != failed] + [star]))
            witnesses[(failed, key)] = helper_repair_witness(cert, failed, star)
    # a node has dimension k, so the candidate fixes k
    params = Params(star, candidate.dim, candidate.spec)
    grown = Code(params, nodes + (candidate,), witnesses)
    problems = verify_data_recovery(grown).violations + verify_repair_witnesses(grown).violations
    return grown, problems[:3]


def synthesize_base_code(
    k: int,
    spec: FieldSpec,
    rng: random.Random,
    max_attempts: int = DEFAULT_SYNTHESIS_ATTEMPTS,
) -> Code:
    """Build a verified code on n = k+1 nodes from scratch.

    Nodes 1..k are repair space plus complement vector from a random frame;
    node k+1 is sampled well aligned relative to that frame and added as a
    one-subset extension of it.  Each attempt is fully verified; raises
    SynthesisError when the budget runs out (tiny fields can need a few
    tries).
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    last_error = ""
    for _ in range(max_attempts):
        dec = synthesize_decomposition(k, spec, rng)
        nodes = tuple(
            dec.repair_spaces[j].sum(Subspace(spec, dec.ambient_dim, [dec.complement_vectors[j]]))
            for j in dec.helpers
        )
        candidate, cert = sample_well_aligned(dec, rng)
        code, problems = _add_node(nodes, {}, candidate, {dec.helpers: (None, cert)})
        if not problems:
            return code
        last_error = "; ".join(problems)
    raise SynthesisError(
        f"no verified base code for k={k} over GF({spec.p}) in {max_attempts} "
        f"attempts (last failure: {last_error or 'none recorded'})"
    )


def find_alignments(
    code: Code,
    candidate: Subspace,
    cache: dict | None = None,
) -> dict[tuple[int, ...], tuple[int, AlignmentCertificate]] | None:
    """For every k-subset of nodes, find a repair pair the candidate aligns with.

    Scans failed nodes x outside each subset in ascending order and keeps the
    first certificate; returns None as soon as one subset has no aligned pair.
    cache maps (helpers, x) to previously computed decompositions and is
    shared across draws.
    """
    if cache is None:
        cache = {}
    pr = code.params
    log: dict[tuple[int, ...], tuple[int, AlignmentCertificate]] = {}
    for helpers in itertools.combinations(range(1, pr.n + 1), pr.k):
        found = None
        for x in range(1, pr.n + 1):
            if x in helpers:
                continue
            key = (helpers, x)
            dec = cache.get(key)
            if dec is None:
                dec = compute_decomposition(code, helpers, x)
                cache[key] = dec
            cert = is_well_aligned(candidate, dec)
            if cert is not None:
                found = (x, cert)
                break
        if found is None:
            return None
        log[helpers] = found
    return log


def attempts_bound(n: int, k: int, spec: FieldSpec) -> Fraction:
    """Lower bound on the chance one uniform draw extends an n-node code.

    Union bound over the C(n, k) helper subsets, each needing alignment with
    at least one of its repair pairs: 1 - C(n, k) * (1 - P) for the
    single-pair probability P, clamped at zero.
    """
    raw = 1 - math.comb(n, k) * (1 - probability_well_aligned(k, spec))
    return max(Fraction(0), raw)


def extend_code(
    code: Code,
    rng: random.Random,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ExtensionOutcome:
    """Grow the code by one node via rejection sampling.

    Each attempt draws a uniform k-dimensional subspace and accepts when every
    k-subset of old nodes has an aligned repair pair; acceptance builds the
    full witness set for the new node in both directions and re-verifies the
    grown code.  Raises ExtensionError (carrying the attempt count and the
    single-draw bound) when the budget runs out.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    pr = code.params
    bound = attempts_bound(pr.n, pr.k, pr.spec)
    cache: dict = {}
    for attempt in range(1, max_attempts + 1):
        candidate = random_subspace(pr.f_dim, pr.k, pr.spec, rng)
        log = find_alignments(code, candidate, cache)
        if log is None:
            continue
        grown, problems = _add_node(code.nodes, code.witnesses, candidate, log)
        if problems:
            raise ExtensionError(
                "grown code failed verification, which indicates a bug: " + "; ".join(problems),
                attempt,
                bound,
            )
        return ExtensionOutcome(grown, attempt, log)
    raise ExtensionError(
        f"no aligned draw in {max_attempts} attempts at n={pr.n}, k={pr.k}, "
        f"p={pr.spec.p}; single-draw success bound is {bound} "
        f"(about {float(bound):.6f}), so small fields may need many more attempts",
        max_attempts,
        bound,
    )
