"""(n, k, k) exact-repair storage codes over a prime field.

A code stores one subspace of the file space GF(p)^(k^2-1) per node, with
per-node dimension k.  Any k nodes must jointly span the file space, and any
failed node must be rebuildable from subspaces of dimension at most k-1 sent
by any k helpers; the sent subspaces are recorded explicitly as witnesses.
This module holds the data model, closed-form bounds, the verification suite,
a brute-force repairability oracle, and the JSON file format.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .gf import FieldSpec, NotPrimeError
from .linalg import CapExceededError, Matrix, Subspace, combine, count_subspaces, enumerate_subspaces

DEFAULT_ORACLE_CAP = 10**6


class CodeFileError(Exception):
    """Base class for problems with serialized code files."""


class MalformedCodeFileError(CodeFileError):
    """The file is not valid JSON or lacks the expected structure."""


class CodeVersionError(CodeFileError):
    """The file declares an unsupported format version."""


class CodeDimensionError(CodeFileError):
    """The file's parameters and matrix shapes do not fit together."""


class MissingWitnessError(LookupError):
    """No repair witness is stored for the requested (failed node, helper set)."""


def corner_point(m: int, k: int) -> tuple[Fraction, Fraction]:
    """Normalized (storage, bandwidth) corner point number m on the d=k tradeoff.

    Points are normalized by the file size; m runs from 1 (minimum bandwidth)
    to k (minimum storage).
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if not 1 <= m <= k:
        raise ValueError(f"corner index m must lie in [1, {k}], got {m}")
    alpha_bar = Fraction(m + 1, m * (k + 1))
    beta_bar = Fraction(m + 1, k * (k + 1))
    return alpha_bar, beta_bar


def functional_repair_capacity(k: int, d: int, alpha: int, beta: int) -> int:
    """Largest file size supported at (alpha, beta) when repairs may drift."""
    if k < 1 or d < k:
        raise ValueError(f"need d >= k >= 1, got k={k}, d={d}")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    return sum(min(alpha, (d - i) * beta) for i in range(k))


def cutset_bound(k: int, alpha: int, beta: int) -> int:
    """File-size bound (k-1) * alpha + beta from a single repair cut."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    return (k - 1) * alpha + beta


@dataclass(frozen=True)
class Params:
    """System parameters pinned to the operating point (k, k-1, k^2-1).

    n nodes, any k recover the file, any k repair a failed node (d = k),
    per-node dimension alpha = k, per-helper repair dimension beta = k-1,
    file dimension k^2 - 1.
    """

    n: int
    k: int
    spec: FieldSpec
    d: int = field(init=False)
    alpha: int = field(init=False)
    beta: int = field(init=False)
    f_dim: int = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.n < self.k + 1:
            raise ValueError(f"n must be at least k+1 = {self.k + 1}, got {self.n}")
        object.__setattr__(self, "d", self.k)
        object.__setattr__(self, "alpha", self.k)
        object.__setattr__(self, "beta", self.k - 1)
        object.__setattr__(self, "f_dim", self.k * self.k - 1)


@dataclass(frozen=True)
class RepairWitness:
    """The subspaces each helper sends to rebuild one failed node."""

    by_helper: tuple[tuple[int, Subspace], ...]

    @classmethod
    def of(cls, spaces: Mapping[int, Subspace]) -> "RepairWitness":
        return cls(tuple(sorted(spaces.items())))

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.by_helper)

    def space(self, j: int) -> Subspace:
        for helper, sub in self.by_helper:
            if helper == j:
                return sub
        raise KeyError(f"helper {j} not in witness")

    def items(self) -> tuple[tuple[int, Subspace], ...]:
        return self.by_helper


@dataclass(frozen=True, eq=True)
class Code:
    """An (n, k, k) code: node subspaces plus a table of repair witnesses.

    Nodes are indexed 1..n.  Witness keys are (failed node, sorted helper
    tuple).  A fully verified code has every node of dimension exactly k and a
    witness for every valid key; partially built or corrupted codes may fall
    short, and the verifiers report exactly how.
    """

    params: Params
    nodes: tuple[Subspace, ...]
    witnesses: dict[tuple[int, tuple[int, ...]], RepairWitness] = field(
        default_factory=dict
    )

    def __post_init__(self):
        pr = self.params
        if len(self.nodes) != pr.n:
            raise ValueError(f"expected {pr.n} nodes, got {len(self.nodes)}")
        for idx, node in enumerate(self.nodes, start=1):
            if node.spec != pr.spec:
                raise ValueError(f"node {idx} uses a different field")
            if node.ambient_dim != pr.f_dim:
                raise ValueError(
                    f"node {idx} lives in dimension {node.ambient_dim}, expected {pr.f_dim}"
                )
        for (x, helpers), witness in self.witnesses.items():
            self._check_key(x, helpers)
            if witness.helpers != helpers:
                raise ValueError(
                    f"witness for {(x, helpers)} covers helpers {witness.helpers}"
                )
            for _, sub in witness.items():
                if sub.spec != pr.spec or sub.ambient_dim != pr.f_dim:
                    raise ValueError(f"witness for {(x, helpers)} has a misplaced subspace")

    def _check_key(self, x: int, helpers: tuple[int, ...]) -> None:
        pr = self.params
        if not 1 <= x <= pr.n:
            raise ValueError(f"failed node {x} outside 1..{pr.n}")
        if len(helpers) != pr.d or len(set(helpers)) != pr.d:
            raise ValueError(f"helper set {helpers} must hold {pr.d} distinct nodes")
        if tuple(sorted(helpers)) != tuple(helpers):
            raise ValueError(f"helper set {helpers} must be sorted ascending")
        if any(not 1 <= j <= pr.n for j in helpers):
            raise ValueError(f"helper set {helpers} outside 1..{pr.n}")
        if x in helpers:
            raise ValueError(f"failed node {x} cannot be its own helper")

    def node(self, j: int) -> Subspace:
        if not 1 <= j <= self.params.n:
            raise ValueError(f"node index {j} outside 1..{self.params.n}")
        return self.nodes[j - 1]

    def witness(self, x: int, helpers: tuple[int, ...]) -> RepairWitness:
        key = (x, tuple(sorted(helpers)))
        self._check_key(*key)
        try:
            return self.witnesses[key]
        except KeyError:
            raise MissingWitnessError(
                f"no witness for failed node {x} with helpers {key[1]}"
            ) from None

    def recovery_subsets(self) -> Iterator[tuple[int, ...]]:
        return itertools.combinations(range(1, self.params.n + 1), self.params.k)

    def repair_pairs(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for x in range(1, self.params.n + 1):
            others = [j for j in range(1, self.params.n + 1) if j != x]
            for helpers in itertools.combinations(others, self.params.d):
                yield x, helpers


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification pass: units checked and violations found."""

    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return f"checked={self.checked} violations={len(self.violations)}"


def check_recovery_subset(code: Code, subset: tuple[int, ...]) -> str | None:
    """None if the subset's nodes span the file space, else a violation line."""
    rows: list = []
    for j in subset:
        rows.extend(code.node(j).basis_rows())
    rank = Matrix(code.params.spec, rows, cols=code.params.f_dim).rank()
    if rank != code.params.f_dim:
        return f"recovery subset {subset}: joint rank {rank} != {code.params.f_dim}"
    return None


def verify_data_recovery(code: Code) -> CheckReport:
    """Check that every k-subset of nodes spans the full file space."""
    violations = []
    checked = 0
    for subset in code.recovery_subsets():
        checked += 1
        msg = check_recovery_subset(code, subset)
        if msg:
            violations.append(msg)
    return CheckReport(checked, tuple(violations))


def check_repair_pair(code: Code, x: int, helpers: tuple[int, ...]) -> list[str]:
    """Violation lines for one stored witness; raises if the witness is absent."""
    pr = code.params
    witness = code.witness(x, helpers)
    msgs = []
    all_rows: list = []
    for j in helpers:
        sub = witness.space(j)
        if sub.dim > pr.beta:
            msgs.append(
                f"repair of {x} by {helpers}: helper {j} sends dimension {sub.dim} > {pr.beta}"
            )
        if not code.node(j).contains_subspace(sub):
            msgs.append(
                f"repair of {x} by {helpers}: helper {j} sends vectors outside its node"
            )
        all_rows.extend(sub.basis_rows())
    sent = Subspace(pr.spec, pr.f_dim, all_rows)
    if not sent.contains_subspace(code.node(x)):
        msgs.append(
            f"repair of {x} by {helpers}: sent subspaces do not cover the failed node"
        )
    return msgs


def verify_repair_witnesses(code: Code) -> CheckReport:
    """Check every stored witness for every (failed node, helper set) pair.

    Raises MissingWitnessError if any pair has no witness at all.
    """
    violations = []
    checked = 0
    for x, helpers in code.repair_pairs():
        checked += 1
        violations.extend(check_repair_pair(code, x, helpers))
    return CheckReport(checked, tuple(violations))


def brute_force_repairable(
    code: Code, x: int, helpers: tuple[int, ...], cap: int = DEFAULT_ORACLE_CAP
) -> bool:
    """Exhaustively decide whether x is repairable from the given helpers.

    Searches all choices of a subspace of dimension min(beta, dim W_j) inside
    each helper (larger sends never exist, smaller ones never help), pruning a
    prefix as soon as the failed node cannot be covered even if all remaining
    helpers sent everything they store.  Independent of the witness table.
    """
    pr = code.params
    helpers = tuple(sorted(helpers))
    code._check_key(x, helpers)
    per_node = []
    total = 1
    for j in helpers:
        node = code.node(j)
        send_dim = min(pr.beta, node.dim)
        cnt = count_subspaces(node.dim, send_dim, pr.spec)
        per_node.append((node, send_dim, cnt))
        total *= cnt
    if total > cap:
        raise CapExceededError(
            f"repair search for node {x} via {helpers} has {total} combinations, "
            f"cap is {cap}"
        )
    spec = pr.spec
    p = spec.p
    f_dim = pr.f_dim
    candidates: list[list[tuple]] = []
    for node, send_dim, _ in per_node:
        opts = []
        for coeffs in enumerate_subspaces(node.dim, send_dim, spec, cap=cap):
            rows = tuple(
                combine(p, crow, node.basis_rows()) for crow in coeffs.basis_rows()
            )
            opts.append(rows)
        candidates.append(opts)
    target_rows = code.node(x).basis_rows()
    tails: list[tuple] = [()] * (len(helpers) + 1)
    for i in range(len(helpers) - 1, -1, -1):
        tails[i] = per_node[i][0].basis_rows() + tails[i + 1]

    def covered(rows) -> bool:
        span = Subspace(spec, f_dim, rows)
        return all(span.contains(t) for t in target_rows)

    def search(i: int, rows: tuple) -> bool:
        if not covered(rows + tails[i]):
            return False
        if i == len(helpers):
            return True
        return any(search(i + 1, rows + opt) for opt in candidates[i])

    return search(0, ())


def _serialize_witness(x: int, helpers: tuple[int, ...], witness: RepairWitness) -> dict:
    return {
        "x": x,
        "A": list(helpers),
        "R": {str(j): [list(row) for row in sub.basis_rows()] for j, sub in witness.items()},
    }


def save_code(code: Code, path: str) -> None:
    """Write the code as JSON; output bytes are a pure function of the code.

    The bytes go to a temporary file next to the target, which then replaces
    the target in one step, so an interrupted write leaves either the old
    file or the complete new one.
    """
    pr = code.params
    payload = {
        "version": 1,
        "p": pr.spec.p,
        "k": pr.k,
        "n": pr.n,
        "alpha": pr.alpha,
        "beta": pr.beta,
        "F": pr.f_dim,
        "nodes": [[list(row) for row in node.basis_rows()] for node in code.nodes],
        "witnesses": [
            _serialize_witness(x, helpers, code.witnesses[(x, helpers)])
            for x, helpers in sorted(code.witnesses)
        ],
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedCodeFileError(message)


def _int_matrix(raw: object, what: str) -> list[list[int]]:
    _expect(isinstance(raw, list), f"{what} must be a list of rows")
    rows = []
    for row in raw:
        _expect(isinstance(row, list), f"{what} rows must be lists")
        for x in row:
            _expect(isinstance(x, int) and not isinstance(x, bool), f"{what} entries must be integers")
        rows.append(list(row))
    return rows


def load_code(path: str) -> Code:
    """Read a code file, validating structure, version, field, and shapes.

    Raises MalformedCodeFileError, CodeVersionError, CodeDimensionError, or
    NotPrimeError depending on what is wrong.  Semantic properties (recovery,
    repair) are left to the verifiers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, or nesting too deep to parse
        raise MalformedCodeFileError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("version", "p", "k", "n", "alpha", "beta", "F", "nodes", "witnesses"):
        _expect(key in obj, f"missing required key {key!r}")
    if obj["version"] != 1:
        raise CodeVersionError(f"unsupported format version {obj['version']!r}")
    for key in ("p", "k", "n", "alpha", "beta", "F"):
        _expect(
            isinstance(obj[key], int) and not isinstance(obj[key], bool),
            f"{key} must be an integer",
        )
    try:
        spec = FieldSpec(obj["p"])
    except NotPrimeError:
        raise
    except ValueError as exc:
        raise MalformedCodeFileError(str(exc)) from exc
    try:
        params = Params(obj["n"], obj["k"], spec)
    except ValueError as exc:
        raise CodeDimensionError(str(exc)) from exc
    declared = (obj["alpha"], obj["beta"], obj["F"])
    derived = (params.alpha, params.beta, params.f_dim)
    if declared != derived:
        raise CodeDimensionError(
            f"declared (alpha, beta, F) = {declared} but k = {params.k} forces {derived}"
        )
    raw_nodes = obj["nodes"]
    _expect(isinstance(raw_nodes, list), "nodes must be a list")
    if len(raw_nodes) != params.n:
        raise CodeDimensionError(f"expected {params.n} nodes, file has {len(raw_nodes)}")
    nodes = []
    for idx, raw in enumerate(raw_nodes, start=1):
        rows = _int_matrix(raw, f"node {idx}")
        for row in rows:
            if len(row) != params.f_dim:
                raise CodeDimensionError(
                    f"node {idx} row length {len(row)} != file dimension {params.f_dim}"
                )
        if len(rows) > params.alpha:
            raise CodeDimensionError(
                f"node {idx} stores {len(rows)} basis rows, more than alpha = {params.alpha}"
            )
        nodes.append(Subspace(spec, params.f_dim, rows))
    raw_witnesses = obj["witnesses"]
    _expect(isinstance(raw_witnesses, list), "witnesses must be a list")
    witnesses: dict[tuple[int, tuple[int, ...]], RepairWitness] = {}
    for raw in raw_witnesses:
        _expect(isinstance(raw, dict), "each witness must be an object")
        for key in ("x", "A", "R"):
            _expect(key in raw, f"witness missing key {key!r}")
        x = raw["x"]
        _expect(isinstance(x, int) and not isinstance(x, bool), "witness x must be an integer")
        _expect(isinstance(raw["A"], list), "witness A must be a list")
        helpers = tuple(raw["A"])
        for j in helpers:
            _expect(isinstance(j, int) and not isinstance(j, bool), "witness helpers must be integers")
        _expect(isinstance(raw["R"], dict), "witness R must be an object")
        if set(raw["R"]) != {str(j) for j in helpers}:
            raise MalformedCodeFileError(
                f"witness for ({x}, {helpers}) must list exactly its helpers"
            )
        spaces = {}
        for j in helpers:
            rows = _int_matrix(raw["R"][str(j)], f"witness ({x}, {helpers}) helper {j}")
            for row in rows:
                if len(row) != params.f_dim:
                    raise CodeDimensionError(
                        f"witness ({x}, {helpers}) helper {j} row length {len(row)} "
                        f"!= file dimension {params.f_dim}"
                    )
            if len(rows) > params.beta:
                raise CodeDimensionError(
                    f"witness ({x}, {helpers}) helper {j} stores {len(rows)} rows, "
                    f"more than beta = {params.beta}"
                )
            spaces[j] = Subspace(spec, params.f_dim, rows)
        key = (x, helpers)
        if key in witnesses:
            raise MalformedCodeFileError(f"duplicate witness for {key}")
        witnesses[key] = RepairWitness.of(spaces)
    try:
        return Code(params, tuple(nodes), witnesses)
    except ValueError as exc:
        raise MalformedCodeFileError(str(exc)) from exc
