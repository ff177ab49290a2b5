"""Shared fixtures: small verified codes built once per session, per-entry
references for rank and row reduction, the certificate check that the
alignment and property tests share, rewrites of code files whose row sets
are not in canonical form, and the arc codes of PG(2, p), the conic's
among them."""

import itertools
import json
import random

import pytest

from regenext import linalg, regen
from regenext.extend import extend_code, synthesize_base_code
from regenext.gf import FieldSpec
from regenext.linalg import Subspace, nullspace
from regenext.regen import Code, Params


def combine(p, coeffs, rows):
    """Linear combination sum(coeffs[i] * rows[i]) over GF(p), entry by entry:
    the reference that the packed combinations of regenext.linalg are
    checked against."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for idx, x in enumerate(row):
            acc[idx] += c * x
    return tuple(x % p for x in acc)


def reference_rref(p, rows, width):
    """Per-entry Gauss-Jordan over GF(p) on residue tuples: the RREF rows of
    their span, in pivot order, with no zero row."""
    rows = [[x % p for x in row] for row in rows]
    done = 0
    for c in range(width):
        pick = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[done], rows[pick] = rows[pick], rows[done]
        inv = pow(rows[done][c], p - 2, p)
        rows[done] = [x * inv % p for x in rows[done]]
        for i, row in enumerate(rows):
            if i != done and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[done])]
        done += 1
    return tuple(map(tuple, rows[:done]))


def rank(p, rows):
    """Dimension of the span of integer rows over GF(p), per entry."""
    rows = list(rows)
    return len(reference_rref(p, rows, len(rows[0]))) if rows else 0


def random_invertible_matrix(spec, n, rng):
    """Rows of a uniformly random invertible n x n matrix, by rejection:
    each round draws the entries in row order, one randrange(p) each."""
    p = spec.p
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if rank(p, rows) == n:
            return rows


@pytest.fixture(scope="session")
def base_k2_p3():
    return synthesize_base_code(2, FieldSpec(3), random.Random("fixture-base-2-3"))


@pytest.fixture(scope="session")
def base_k3_p5():
    return synthesize_base_code(3, FieldSpec(5), random.Random("fixture-base-3-5"))


@pytest.fixture(scope="session")
def extended_k3_big():
    """A (5, 3, 3) code over GF(65521), one extension past the base."""
    base = synthesize_base_code(
        3, FieldSpec(65521), random.Random("fixture-base-3-big")
    )
    outcome = extend_code(base, random.Random("fixture-grow-3-big"))
    return outcome.code


def subspace_sum(*spaces):
    """The sum of subspaces of one ambient space: the span of their basis
    rows, built through the checked constructor."""
    spec, n = spaces[0].spec, spaces[0].ambient_dim
    return Subspace(spec, n, [row for space in spaces for row in space.basis_rows()])


def conic_points(p):
    """The conic (1, t, t^2), t in GF(p), plus (0, 0, 1) of PG(2, p), in
    that order."""
    return [(1, t, t * t % p) for t in range(p)] + [(0, 0, 1)]


def conic_code(p):
    """The arc code of the conic points of PG(2, p)."""
    return arc_code(p, conic_points(p))


def arc_code(p, points):
    """The k=2 code whose node j is the plane orthogonal to point j of
    PG(2, p), for points no three of which are collinear.  Helpers a, b
    repair node x by sending the lines W_a meet W_x and W_b meet W_x, which
    differ since points a, b and x are not collinear."""
    spec = FieldSpec(p)

    def orthogonal(*us):
        # the c of GF(p)^3 with sum c_i u_i = 0 for every u given
        return nullspace(spec, list(zip(*us)))

    nodes = tuple(orthogonal(u) for u in points)
    n = len(nodes)
    witnesses = {}
    for x in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != x]
        for helpers in itertools.combinations(others, 2):
            witnesses[(x, helpers)] = {
                j: orthogonal(points[j - 1], points[x - 1]) for j in helpers
            }
    return Code(Params(n, 2, spec), nodes, witnesses)


def identity_rows(n):
    """The rows of the n x n identity matrix, as tuples."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.fixture
def pushes(monkeypatch):
    """A list that records every row that enters an elimination, pushed onto
    an echelon or given to the Gauss-Jordan routine: empty exactly when
    nothing was eliminated.  _push is patched at each of its bindings."""
    pushed = []
    push, rref = linalg._push, linalg._rref

    def recording_push(lay, rows, v):
        pushed.append(v)
        return push(lay, rows, v)

    def recording_rref(lay, rows):
        rows = list(rows)
        pushed.extend(rows)
        return rref(lay, rows)

    for module in (linalg, regen):
        monkeypatch.setattr(module, "_push", recording_push)
    monkeypatch.setattr(linalg, "_rref", recording_rref)
    return pushed


def _mixed(spec, rows, rng):
    """rows times a random invertible matrix other than the identity."""
    m = identity_rows(len(rows))
    while m == identity_rows(len(rows)):
        m = random_invertible_matrix(spec, len(rows), rng)
    return [list(combine(spec.p, coeffs, rows)) for coeffs in m]


# ways to write a row set of a code file that span the same subspace but are
# not its canonical RREF (reordering leaves a one-row set as it is)
NONCANONICAL = {
    "mixed": _mixed,
    "shifted": lambda spec, rows, rng: [[x + spec.p for x in row] for row in rows],
    "reordered": lambda spec, rows, rng: rows[::-1],
}


def noncanonical(obj, how, rng):
    """A copy of a code file object with every row set, the nodes and each
    witness's sends, rewritten by NONCANONICAL[how]."""
    spec, edit = FieldSpec(obj["p"]), NONCANONICAL[how]
    obj = json.loads(json.dumps(obj))
    obj["nodes"] = [edit(spec, rows, rng) for rows in obj["nodes"]]
    for witness in obj["witnesses"]:
        witness["R"] = {j: edit(spec, rows, rng) for j, rows in witness["R"].items()}
    return obj


def complement(dec):
    """The complement vectors t_j of a decomposition, unpacked."""
    return {j: dec._lay.unpack(t) for j, t in dec.complement_vectors.items()}


def aligned_basis(cert):
    """The aligned basis w(i) of a certificate, unpacked."""
    return {i: cert.decomposition._lay.unpack(w) for i, w in cert.basis.items()}


def coordinates(dec, v):
    """The coordinates of the residue row v in the decomposition's basis: the
    bases of the repair spaces, then t_j for every helper but the last."""
    return dec._lay.unpack(dec._lay.combine(v, dec._inverse()))


def split(dec, v):
    """Decomposition._split of the residue row v, unpacked: v's part in each
    repair space, and the weight of each t_j in its part in T, 0 for the
    last helper."""
    sigma, weights = dec._split(dec._lay.pack(v))
    return {j: dec._lay.unpack(s) for j, s in sigma.items()}, weights


def expand_complement(dec, weights):
    """The vector of T that weighs each t_j by weights[j]."""
    t = complement(dec)
    return combine(dec.spec.p, [weights[j] for j in dec.helpers], [t[j] for j in dec.helpers])


def assert_certificate_consistent(cert, candidate):
    """Re-verify every certificate claim from scratch: the basis spans the
    candidate, the part of w(i) that node j holds is sigma(i, j) plus a
    multiple of t_j, the parts of w(i) sum to w(i), and for each j the
    sigma(i, j), i != j, have rank k-1."""
    dec = cert.decomposition
    p = dec.spec.p
    helpers = dec.helpers
    basis, t = aligned_basis(cert), complement(dec)
    assert Subspace(dec.spec, dec.ambient_dim, basis.values()) == candidate
    sigma = {}
    for i in helpers:
        assert candidate.contains(basis[i])
        parts_i, _ = split(dec, basis[i])
        assert not any(parts_i[i])
        parts = []
        for j in helpers:
            sigma[(i, j)] = parts_i[j]
            assert dec.repair_spaces[j].contains(parts_i[j])
            if j != i:
                parts.append(dec._lay.unpack(cert.parts[(i, j)]))
                t_line = Subspace(dec.spec, dec.ambient_dim, [t[j]])
                assert t_line.contains(combine(p, (1, -1), (parts[-1], parts_i[j])))
        assert combine(p, [1] * len(parts), parts) == basis[i]
    for j in helpers:
        rows = [sigma[(i, j)] for i in helpers if i != j]
        assert rank(p, rows) == dec.k - 1
