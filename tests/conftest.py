"""Shared fixtures: small verified codes built once per session, the
certificate check that the alignment and property tests share, and
rewrites of code files whose row sets are not in canonical form."""

import json
import random

import pytest

from regenext.extend import extend_code, synthesize_base_code
from regenext.gf import FieldSpec
from regenext.linalg import Subspace, _Echelon, random_invertible_matrix, rank, vec_add, vec_sub


def combine(p, coeffs, rows):
    """Linear combination sum(coeffs[i] * rows[i]) over GF(p), entry by entry:
    the reference that the packed combinations of regenext.linalg are
    checked against."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for idx, x in enumerate(row):
            acc[idx] += c * x
    return tuple(x % p for x in acc)


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


def identity_rows(n):
    """The rows of the n x n identity matrix, as tuples."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.fixture
def pushes(monkeypatch):
    """A list that records every row pushed onto an echelon: empty exactly
    when nothing was eliminated."""
    pushed = []
    push = _Echelon.push
    monkeypatch.setattr(_Echelon, "push", lambda self, v: pushed.append(v) or push(self, v))
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


def coordinates(dec, v):
    """The coordinates of v in the decomposition's basis: the bases of the
    repair spaces, then t_j for every helper but the last."""
    return dec._lay.unpack(dec._coords(v))


def split(dec, v):
    """Decomposition._split(v) unpacked: v's part in each repair space, and
    the weight of each t_j in its part in T, 0 for the last helper."""
    sigma, weights = dec._split(v)
    return {j: dec._lay.unpack(s) for j, s in sigma.items()}, weights


def expand_complement(dec, weights):
    """The vector of T that weighs each t_j by weights[j]."""
    helpers = dec.helpers
    return combine(
        dec.spec.p, [weights[j] for j in helpers], [dec.complement_vectors[j] for j in helpers]
    )


def assert_certificate_consistent(cert, candidate):
    """Re-verify every certificate claim from scratch: the basis spans the
    candidate, the part of w(i) that node j holds is sigma(i, j) plus a
    multiple of t_j, the parts of w(i) sum to w(i), and for each j the
    sigma(i, j), i != j, have rank k-1."""
    dec = cert.decomposition
    p = dec.spec.p
    helpers = dec.helpers
    assert Subspace(dec.spec, dec.ambient_dim, cert.basis.values()) == candidate
    sigma = {}
    for i in helpers:
        assert candidate.contains(cert.basis[i])
        parts_i, _ = split(dec, cert.basis[i])
        assert not any(parts_i[i])
        total = (0,) * dec.ambient_dim
        for j in helpers:
            sigma[(i, j)] = parts_i[j]
            assert dec.repair_spaces[j].contains(parts_i[j])
            if j != i:
                part = dec._lay.unpack(cert.parts[(i, j)])
                t_line = Subspace(dec.spec, dec.ambient_dim, [dec.complement_vectors[j]])
                assert t_line.contains(vec_sub(p, part, parts_i[j]))
                total = vec_add(p, total, part)
        assert total == cert.basis[i]
    for j in helpers:
        rows = [sigma[(i, j)] for i in helpers if i != j]
        assert rank(p, rows) == dec.k - 1
