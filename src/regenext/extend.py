"""Bootstrap a minimal verified code and grow it one random node at a time.

A fresh code on k+1 nodes is synthesized from a random full-rank frame: k
mutually independent (k-1)-dimensional repair spaces S_j plus the complement
space T, with node j = S_j + span(t_j) read off the frame and node k+1
sampled well aligned.  Growth then repeats a simple step: draw a uniform
k-dimensional subspace as the new node, and accept it as soon as, for every
k-subset A of the old nodes, it is well aligned relative to the repair of
some old node x outside A by A.  Acceptance yields explicit repair witnesses
in both directions; the chance that a single draw works is at least
1 - C(n, k) * (1 - P) for the per-pair alignment probability P, which tends
to 1 for large fields.

One draw always gives a valid base code, so synthesis makes exactly one.
Write the sampled node's basis as w(i) = sum over j != i of sigma(i, j) plus
tau(i) in T.  The sampler makes the sigma(i, j), i != j, a basis of S_j (its
rank rejection), and any k-1 of the t_j span T because they sum to zero.

  * Recovery: nodes 1..k span S_1 + ... + S_k + T = F.  Leaving out node m
    instead, the other nodes give every S_j and t_j but S_m, and the
    components sigma(i, m) of the w(i) give S_m.
  * Alignment: the projection of the sampled node to S_j has its image
    spanned by the sigma(i, j), so its kernel is the line of w(j), and these
    lines span the node.  is_well_aligned never returns None on it.
  * Repair of node k+1: helper j sends sigma(i, j) + theta(i, j) t_j over
    i != j, and w(i) = sum over j != i of (sigma(i, j) + theta(i, j) t_j).
  * Repair of node m: each received w(i), minus the received sigma(i, j)
    and tau(i) (in the span of the received t_j), leaves sigma(i, m), a
    basis of S_m; and t_m = minus the sum of the received t_j.

Each step checks the units that contain its new node.  A growth step assumes
a verified input, whose units it leaves unchanged; the base is a step on the
frame's k nodes and also checks its frame subset (1, ..., k), its one unit
without node k+1.  A failure is a bug.  The witness builders check nothing;
`check_repair_pair` checks each witness's coverage.
"""

from __future__ import annotations

import contextlib
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
from .linalg import Subspace, _layout, random_invertible_matrix, random_subspace
from .regen import Code, Params, verify_data_recovery, verify_repair_witnesses
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


class SynthesisError(RuntimeError):
    """The synthesized base code failed verification, which indicates a bug."""


class ExtensionError(RuntimeError):
    """Could not extend the code within the attempt budget."""


@dataclass
class ExtensionOutcome:
    """A successful extension: the grown code, draws used, and per-subset
    alignment picks (helper subset -> certificate, whose decomposition
    names the failed node)."""

    code: Code
    attempts: int
    alignment_log: dict[tuple[int, ...], AlignmentCertificate]


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
        repair[j] = Subspace._span(spec, ambient, frame[idx * (k - 1) : (idx + 1) * (k - 1)])
    lay = _layout(p, ambient)
    tail = [lay.pack(row) for row in frame[k * (k - 1) :]]
    comp_vectors = dict(zip(helpers, tail))
    comp_vectors[helpers[-1]] = lay.combine([p - 1] * (k - 1), tail)
    return Decomposition(spec, helpers, None, repair, comp_vectors)


def new_node_repair_witness(cert: AlignmentCertificate) -> dict[int, Subspace]:
    """Witness for repairing the certificate's node from its helpers.

    Helper j sends the span of its parts of the w(i), i != j
    (AlignmentCertificate.parts); each w(i) is the sum of its parts, so the
    aligned basis reassembles inside the sum of the sends.
    """
    dec = cert.decomposition
    return {
        j: Subspace._span_packed(
            dec.spec, dec.ambient_dim, (cert.parts[(i, j)] for i in dec.helpers if i != j)
        )
        for j in dec.helpers
    }


def helper_repair_witness(
    cert: AlignmentCertificate, failed: int, new_index: int
) -> dict[int, Subspace]:
    """Witness for repairing old node `failed` with the certificate's node
    (stored at new_index) joining the remaining helpers.

    The new node sends span of w(i) over i != failed; each remaining helper j
    sends its parts of the w(i) for i outside {j, failed} plus its complement
    vector t_j, which span the sigma(i, j) plus t_j.  Subtracting the sigma
    and t contributions from the w(i) isolates the k-1 components
    sigma(i, failed), which together with t_failed = minus the sum of the
    other t_j rebuild the failed node.
    """
    dec = cert.decomposition
    if failed not in dec.helpers:
        raise ValueError(f"{failed} is not a helper of the certificate's decomposition")
    spaces = {}
    spaces[new_index] = Subspace._span_packed(
        dec.spec, dec.ambient_dim, [cert.basis[i] for i in dec.helpers if i != failed]
    )
    for j in dec.helpers:
        if j != failed:
            rows = [cert.parts[(i, j)] for i in dec.helpers if i not in (j, failed)]
            rows.append(dec.complement_vectors[j])
            spaces[j] = Subspace._span_packed(dec.spec, dec.ambient_dim, rows)
    return spaces


def _add_node(
    nodes: tuple[Subspace, ...],
    witnesses: dict[tuple[int, tuple[int, ...]], dict[int, Subspace]],
    candidate: Subspace,
    log: dict[tuple[int, ...], AlignmentCertificate],
) -> tuple[Code, list[str]]:
    """Append the candidate as node n+1 and check what that added.

    For every helper subset in the log, the subset's certificate yields the
    witnesses in both directions: the new node repaired by the subset, and
    each member repaired by the others plus the new node.  The one rule:
    check the recovery subsets that hold the new node and the repair pairs
    whose witnesses were just added, which are the pairs that hold it.  Code
    keeps the added dict as its table, so those keys are read before the old
    witnesses join it.  Returns the grown code and its first few problems
    (none when it passes).
    """
    star = len(nodes) + 1
    added = {}
    for helpers, cert in log.items():
        added[(star, helpers)] = new_node_repair_witness(cert)
        for failed in helpers:
            key = tuple(sorted([j for j in helpers if j != failed] + [star]))
            added[(failed, key)] = helper_repair_witness(cert, failed, star)
    # a node has dimension k, so the candidate fixes k
    params = Params(star, candidate.dim, candidate.spec)
    # Code checks the added witnesses; the old ones passed when their code was built
    grown = Code(params, nodes + (candidate,), added)
    pairs = sorted(added)
    grown.witnesses.update(witnesses)
    recovery = verify_data_recovery(grown, (s for s in grown.recovery_subsets() if star in s))
    return grown, [*recovery.values(), *verify_repair_witnesses(grown, pairs)][:3]


def synthesize_base_code(k: int, spec: FieldSpec, rng: random.Random) -> Code:
    """Build a verified code on n = k+1 nodes from scratch in one draw.

    Nodes 1..k are repair space plus complement vector from a random frame;
    node k+1 is sampled well aligned relative to that frame and added as a
    one-subset extension of it.  The module docstring shows why the result
    is valid; the frame subset is checked here and the units holding node
    k+1 by the step, and a failure raises SynthesisError.
    """
    dec = synthesize_decomposition(k, spec, rng)
    nodes = tuple(
        dec.repair_spaces[j].sum(
            Subspace._span_packed(spec, dec.ambient_dim, [dec.complement_vectors[j]])
        )
        for j in dec.helpers
    )
    candidate, cert = sample_well_aligned(dec, rng)
    code, problems = _add_node(nodes, {}, candidate, {dec.helpers: cert})
    problems = [*verify_data_recovery(code, [dec.helpers]).values(), *problems][:3]
    if problems:
        raise SynthesisError(
            "base code failed verification, which indicates a bug: " + "; ".join(problems)
        )
    return code


def find_alignments(
    code: Code, candidate: Subspace
) -> dict[tuple[int, ...], AlignmentCertificate] | None:
    """For every k-subset of nodes, find a repair pair the candidate aligns with.

    Scans failed nodes x outside each subset in ascending order and keeps the
    first certificate; returns None as soon as one subset has no aligned pair.
    Each split is derived once per code and kept in its _splits, by (helpers, x).
    """
    pr = code.params
    log: dict[tuple[int, ...], AlignmentCertificate] = {}
    for helpers in itertools.combinations(range(1, pr.n + 1), pr.k):
        for x in range(1, pr.n + 1):
            if x in helpers:
                continue
            key = (helpers, x)
            dec = code._splits.get(key)
            if dec is None:
                dec = code._splits[key] = compute_decomposition(code, helpers, x)
            cert = is_well_aligned(candidate, dec)
            if cert is not None:
                log[helpers] = cert
                break
        else:
            return None
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

    Precondition: `code` is a verified code; nothing here re-checks it.
    Each attempt draws a uniform k-dimensional subspace and accepts when every
    k-subset of old nodes has an aligned repair pair; acceptance builds the
    full witness set for the new node in both directions and checks the
    recovery subsets and repair pairs that contain the new node.  Raises
    ExtensionError when those checks fail or the budget runs out.  The grown
    code starts with a copy of the code's splits, which growth leaves valid.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    pr = code.params
    for attempt in range(1, max_attempts + 1):
        candidate = random_subspace(pr.f_dim, pr.k, pr.spec, rng)
        log = find_alignments(code, candidate)
        if log is None:
            continue
        grown, problems = _add_node(code.nodes, code.witnesses, candidate, log)
        if problems:
            raise ExtensionError(
                "grown code failed verification, which indicates a bug: " + "; ".join(problems)
            )
        grown._splits.update(code._splits)
        return ExtensionOutcome(grown, attempt, log)
    bound = attempts_bound(pr.n, pr.k, pr.spec)
    shown = f"about {float(bound):.6f}"
    # the exact bound only within Python's int-to-str limit, which is not
    # lifted for a size the input picks
    with contextlib.suppress(ValueError):
        shown = f"{bound} ({shown})"
    raise ExtensionError(
        f"no aligned draw in {max_attempts} attempts at n={pr.n}, k={pr.k}, "
        f"p={pr.spec.p}; single-draw success bound is {shown}, "
        "so small fields may need many more attempts"
    )
