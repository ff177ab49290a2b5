"""(n, k, k) exact-repair storage codes over a prime field.

A code stores one subspace of the file space GF(p)^(k^2-1) per node, with
per-node dimension k.  Any k nodes must jointly span the file space, and any
failed node must be rebuildable from subspaces of dimension at most k-1 sent
by any k helpers; the sent subspaces are recorded explicitly as witnesses.
This module holds the data model, closed-form bounds, the verification suite,
a repairability oracle, and the JSON file format.

Repair in closed form.  Fix x and helpers A, let V be the direct sum of the
W_j, j in A, in coordinates on each node's RREF rows, sigma: V -> F the sum
map, K = ker sigma and N = sigma^-1(W_x), which holds K.  A helper with
dim W_j < k sends all of W_j; one with dim W_j = k may as well send a
hyperplane ker phi_j, phi_j != 0.  With Phi(v) = (phi_j(v_j)) over the
latter, the sends add up to sigma(ker Phi).  So x is repairable iff W_x lies
in im sigma and, for some nonzero phi_j, Phi(N) lies in Phi(K).  When
K = span(kappa), that holds iff e_0 is not in the sum of the D_j below,
over the helpers j of dimension k whose g_{i,j} span GF(p)^k:
  1. With W_x = sigma(N), sigma(ker Phi) holds W_x iff N lies in
     ker Phi + K, that is iff Phi(N) lies in Phi(K).
  2. Let g_0 = kappa, g_1, ..., g_t span N, and let B_j be the k x (t+1)
     matrix of columns g_{i,j}.  Phi(g_i) = lambda_i Phi(kappa) for all i iff
     every u_j = phi_j B_j lies in span(lambda), lambda = (1, lambda_1, ...).
  3. As phi_j runs over the nonzero functionals, u_j runs over the nonzero
     vectors of R_j, the row space of B_j, if the g_{i,j} span GF(p)^k; else
     u_j = 0 for some phi_j, and j imposes no condition.  A nonzero u_j lies
     in span(lambda) iff lambda lies in R_j, so x is repairable iff some
     lambda in the intersection R of those R_j has lambda_0 = 1, that is iff
     e_0 is not in R^perp.
  4. R^perp is the sum of the R_j^perp = {c : B_j c = 0} = D_j, the linear
     dependencies of the g_{i,j}.
dim K = 1 on every pair whose helpers store k dimensions each and span F,
hence on every pair of a valid code.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .gf import FieldSpec, NotPrimeError
from .linalg import (
    CapExceededError, Subspace, _augmented, _Echelon, _layout, count_subspaces,
    enumerate_subspaces, nullspace,
)

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


@dataclass(frozen=True, eq=True)
class Code:
    """An (n, k, k) code: node subspaces plus a table of repair witnesses.

    Nodes are indexed 1..n.  Witness keys are (failed node, sorted helper
    tuple), and a witness maps each helper to the subspace it sends.  A
    fully verified code has every node of dimension exactly k and a witness
    for every valid key; partially built or corrupted codes may fall short,
    and the verifiers report exactly how.
    """

    params: Params
    nodes: tuple[Subspace, ...]
    witnesses: dict[tuple[int, tuple[int, ...]], dict[int, Subspace]] = field(
        default_factory=dict
    )
    # splits of this code by (helpers, x), kept by extend.find_alignments
    _splits: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
            if witness.keys() != set(helpers):
                raise ValueError(
                    f"witness for {(x, helpers)} covers helpers {tuple(sorted(witness))}"
                )
            for sub in witness.values():
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

    def witness(self, x: int, helpers: tuple[int, ...]) -> dict[int, Subspace]:
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


def check_recovery_subset(code: Code, subset: tuple[int, ...]) -> str | None:
    """None if the subset's nodes span the file space, else a violation line."""
    echelon = _Echelon(_layout(code.params.spec.p, code.params.f_dim))
    for j in subset:
        for row in code.node(j)._rows:
            echelon.push(row)
    joint = len(echelon.rows)
    if joint != code.params.f_dim:
        return f"recovery subset {subset}: joint rank {joint} != {code.params.f_dim}"
    return None


def verify_data_recovery(code: Code, subsets: Iterable | None = None) -> dict[tuple, str]:
    """Violation lines of the given k-subsets of nodes (all of them by
    default) that do not span the file space, keyed by subset."""
    return {
        subset: msg
        for subset in (code.recovery_subsets() if subsets is None else subsets)
        if (msg := check_recovery_subset(code, subset))
    }


def check_repair_pair(code: Code, x: int, helpers: tuple[int, ...]) -> list[str]:
    """Violation lines for the stored witness of one pair, or for its absence."""
    pr = code.params
    try:
        witness = code.witness(x, helpers)
    except MissingWitnessError as exc:
        return [str(exc)]
    msgs = []
    target = code.node(x)
    sent = _Echelon(target._lay)
    for j in helpers:
        sub = witness[j]
        if sub.dim > pr.beta:
            msgs.append(
                f"repair of {x} by {helpers}: helper {j} sends dimension {sub.dim} > {pr.beta}"
            )
        if not code.node(j).contains_subspace(sub):
            msgs.append(
                f"repair of {x} by {helpers}: helper {j} sends vectors outside its node"
            )
        for row in sub._rows:
            sent.push(row)
    if any(map(sent.reduce, target._rows)):
        msgs.append(
            f"repair of {x} by {helpers}: sent subspaces do not cover the failed node"
        )
    return msgs


def verify_repair_witnesses(code: Code, pairs: Iterable | None = None) -> list[str]:
    """Violation lines of the stored witnesses of the given (failed node,
    helper set) pairs, all of them by default."""
    return [
        msg
        for x, helpers in (code.repair_pairs() if pairs is None else pairs)
        for msg in check_repair_pair(code, x, helpers)
    ]


def _closed_form_repairable(code: Code, x: int, helpers: tuple[int, ...]) -> bool | None:
    """The oracle's verdict by the closed form of the module docstring, or
    None when a helper stores more than k dimensions, or when W_x lies in
    im sigma and dim K != 1."""
    pr = code.params
    p, k, width = pr.spec.p, pr.k, pr.f_dim
    nodes = [code.node(j) for j in helpers]
    rows = [row for node in nodes for row in node.basis_rows()]
    if not rows or max(node.dim for node in nodes) > k:
        return None
    # rows [r | e_r], the helper rows first, then the target rows: the helper
    # parts of the rows that pivot in the unit block span K among the helper
    # rows and N among all of them
    m = len(rows)
    echelon, _ = _augmented(p, rows + list(code.node(x).basis_rows()))
    cut = width * echelon.lay.slot
    if any(shift < cut for shift in echelon.shifts[m:]):
        return False  # W_x is not in im sigma
    kernel = [row for row, shift in zip(echelon.rows[:m], echelon.shifts) if shift >= cut]
    if len(kernel) != 1:
        return None
    gens = [echelon.lay.unpack(row)[width:width + m] for row in kernel + echelon.rows[m:]]
    deps = _Echelon(_layout(p, len(gens)))
    start = 0
    for node in nodes:
        dep = nullspace(pr.spec, [g[start:start + node.dim] for g in gens])
        start += node.dim
        # only a helper whose g_{i,j} span GF(p)^k, leaving t+1-k
        # dependencies, imposes a condition
        if dep.dim == len(gens) - k:
            for row in dep._rows:
                deps.push(row)
    # e_0 packs to 1
    return bool(deps.reduce(1))


def brute_force_repairable(
    code: Code, x: int, helpers: tuple[int, ...], cap: int = DEFAULT_ORACLE_CAP
) -> bool:
    """Decide whether x is repairable from the given helpers, each sending a
    subspace of dimension min(beta, dim W_j) inside its node (larger sends
    never exist, smaller ones never help).

    When every helper stores at most k dimensions, the closed form of the
    module docstring decides if the helpers' rows have exactly one
    dependency, as on every pair of a valid code, or do not span the failed
    node.  Otherwise it searches all choices of sends, pruning a prefix as
    soon as the failed node cannot be covered even if all remaining helpers
    sent everything they store.  Either way it raises CapExceededError up
    front when the search would exceed cap choices.  Independent of the
    witness table.
    """
    pr = code.params
    helpers = tuple(sorted(helpers))
    code._check_key(x, helpers)
    per_node = []
    total = 1
    for j in helpers:
        node = code.node(j)
        send_dim = min(pr.beta, node.dim)
        per_node.append((node, send_dim))
        total *= count_subspaces(node.dim, send_dim, pr.spec)
    if total > cap:
        raise CapExceededError(
            f"repair search for node {x} via {helpers} has {total} combinations, "
            f"cap is {cap}"
        )
    verdict = _closed_form_repairable(code, x, helpers)
    if verdict is not None:
        return verdict
    candidates = [
        [
            tuple(map(node._combine, coeffs.basis_rows()))
            for coeffs in enumerate_subspaces(node.dim, send_dim, pr.spec, cap=cap)
        ]
        for node, send_dim in per_node
    ]
    target = code.node(x)
    # one echelon for the whole search: a choice pushes its rows on the way
    # down and is truncated away on the way back up
    echelon = _Echelon(target._lay)

    def search(i: int) -> bool:
        mark = len(echelon.rows)
        # prune unless x is covered when helpers i, i+1, ... send all they store
        for node, _ in per_node[i:]:
            for row in node._rows:
                echelon.push(row)
        coverable = not any(map(echelon.reduce, target._rows))
        echelon.truncate(mark)
        if not coverable or i == len(helpers):
            return coverable
        for opt in candidates[i]:
            for row in opt:
                echelon.push(row)
            found = search(i + 1)
            echelon.truncate(mark)
            if found:
                return True
        return False

    return search(0)


# what save_code writes between the header's last value and the first witness
_WITNESSES = ',"witnesses":['


def _serialize_witness(x: int, helpers: tuple[int, ...], witness: dict[int, Subspace]) -> dict:
    # json writes the tuples of basis_rows() as arrays
    return {"x": x, "A": helpers, "R": {str(j): witness[j].basis_rows() for j in sorted(witness)}}


def save_code(code: Code, path: str) -> None:
    """Write the code as JSON; output bytes are a pure function of the code.

    The file holds the compact header, `,"witnesses":[`, the witnesses in key
    order and `]}`, the layout that load_code streams, and is written one
    witness at a time.  The bytes go to a temporary file next to the target,
    which then replaces the target in one step, so an interrupted write
    leaves either the old file or the complete new one.
    """
    pr = code.params
    encode = json.JSONEncoder(separators=(",", ":")).encode
    head = encode(
        {
            "version": 1,
            "p": pr.spec.p,
            "k": pr.k,
            "n": pr.n,
            "alpha": pr.alpha,
            "beta": pr.beta,
            "F": pr.f_dim,
            "nodes": [node.basis_rows() for node in code.nodes],
        }
    )
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(head[:-1] + _WITNESSES)
            # the C encoder holds every token of its input until it returns,
            # so the witnesses, nearly all of the file, go one at a time
            for i, key in enumerate(sorted(code.witnesses)):
                fh.write("," * (i > 0) + encode(_serialize_witness(*key, code.witnesses[key])))
            fh.write("]}\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the path the caller gave, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedCodeFileError(message)


def _subspace(
    raw: object, what: Callable[[], str], params: Params, bound: str, most: int
) -> Subspace:
    """The span of raw, checked to be at most `most` integer rows of length F.
    what() names raw in an error message, and is called only to raise one."""
    if not isinstance(raw, list):
        raise MalformedCodeFileError(f"{what()} must be a list of rows")
    for row in raw:
        if not isinstance(row, list):
            raise MalformedCodeFileError(f"{what()} rows must be lists")
        if not set(map(type, row)) <= {int}:
            raise MalformedCodeFileError(f"{what()} entries must be integers")
    for row in raw:
        if len(row) != params.f_dim:
            raise CodeDimensionError(
                f"{what()} row length {len(row)} != file dimension {params.f_dim}"
            )
    if len(raw) > most:
        raise CodeDimensionError(
            f"{what()} stores {len(raw)} basis rows, more than {bound} = {most}"
        )
    return Subspace(params.spec, params.f_dim, raw)


def load_code(path: str) -> Code:
    """Read a code file, validating structure, version, field, and shapes.

    A file in save_code's layout, ending in `]}` and JSON whitespace, is
    streamed: its header is parsed, then each witness is decoded and checked
    in turn, so the file's JSON tree is never held.  Any other file, or one
    on which streaming raises anything, is parsed whole, and that path alone
    decides the error; both feed one check, so results and errors agree.

    Raises MalformedCodeFileError, CodeVersionError, CodeDimensionError, or
    NotPrimeError depending on what is wrong.  Semantic properties (recovery,
    repair) are left to the verifiers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        start = text.index(_WITNESSES) + len(_WITNESSES)
        # closed by an empty list, the header parses only if that list is its
        # last top-level value
        return _checked(json.loads(text[:start] + "]}"), _streamed(text, start))
    except Exception:
        pass
    return _load_whole(path)


def _streamed(text: str, pos: int) -> Iterator[object]:
    """The values of the compact array opening before text[pos], one at a time;
    then raises ValueError unless only `}` and JSON whitespace follow it."""
    decode = json.JSONDecoder().raw_decode
    more = text[pos] != "]"
    while more:
        raw, pos = decode(text, pos)
        yield raw
        more = text[pos] == ","
        pos += more
    if text[pos:pos + 2] != "]}" or text[pos + 2:].strip(" \t\n\r"):
        raise ValueError("the witness list does not end the file")


def _load_whole(path: str) -> Code:
    """load_code by one json.load of the whole file, which decides every error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, or nesting too deep to parse
        raise MalformedCodeFileError(f"not valid JSON: {exc}") from exc
    return _checked(obj)


def _checked(obj: object, streamed: Iterable[object] = ()) -> Code:
    """The code that a parsed code file describes, with the witnesses of
    obj["witnesses"] followed by those of streamed; raises as load_code does."""
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("version", "p", "k", "n", "alpha", "beta", "F", "nodes", "witnesses"):
        _expect(key in obj, f"missing required key {key!r}")
    # JSON ints are exactly type int: true and 1.0 compare equal to 1 but are not
    if type(obj["version"]) is not int or obj["version"] != 1:
        raise CodeVersionError(f"unsupported format version {obj['version']!r}")
    for key in ("p", "k", "n", "alpha", "beta", "F"):
        _expect(type(obj[key]) is int, f"{key} must be an integer")
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
    nodes = tuple(
        _subspace(raw, lambda: f"node {idx}", params, "alpha", params.alpha)
        for idx, raw in enumerate(raw_nodes, start=1)
    )
    raw_witnesses = obj["witnesses"]
    _expect(isinstance(raw_witnesses, list), "witnesses must be a list")
    witnesses: dict[tuple[int, tuple[int, ...]], dict[int, Subspace]] = {}
    for raw in itertools.chain(raw_witnesses, streamed):
        _expect(isinstance(raw, dict), "each witness must be an object")
        for key in ("x", "A", "R"):
            if key not in raw:
                raise MalformedCodeFileError(f"witness missing key {key!r}")
        x = raw["x"]
        _expect(type(x) is int, "witness x must be an integer")
        _expect(isinstance(raw["A"], list), "witness A must be a list")
        helpers = tuple(raw["A"])
        _expect(all(type(j) is int for j in helpers), "witness helpers must be integers")
        _expect(isinstance(raw["R"], dict), "witness R must be an object")
        if set(raw["R"]) != {str(j) for j in helpers}:
            raise MalformedCodeFileError(
                f"witness for ({x}, {helpers}) must list exactly its helpers"
            )
        spaces = {
            j: _subspace(
                raw["R"][str(j)],
                lambda: f"witness ({x}, {helpers}) helper {j}",
                params,
                "beta",
                params.beta,
            )
            for j in helpers
        }
        key = (x, helpers)
        if key in witnesses:
            raise MalformedCodeFileError(f"duplicate witness for {key}")
        witnesses[key] = spaces
    try:
        return Code(params, nodes, witnesses)
    except ValueError as exc:
        raise MalformedCodeFileError(str(exc)) from exc
