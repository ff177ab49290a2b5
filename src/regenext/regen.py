"""(n, k, k) exact-repair storage codes over a prime field.

A code stores one subspace of the file space GF(p)^(k^2-1) per node, with
per-node dimension k.  Any k nodes must jointly span the file space, and any
failed node must be rebuildable from subspaces of dimension at most k-1 sent
by any k helpers; the sent subspaces are recorded explicitly as witnesses.
This module holds the data model, closed-form bounds, the verification suite,
a repairability oracle, and the JSON file format.

Repair in closed form.  Fix x and helpers A, let V be the direct sum of the
W_j, j in A, in coordinates on each node's RREF rows, sigma: V -> F the sum
map, K = ker sigma and N = sigma^-1(W_x), which holds K.  A Code holds no
node of more than k dimensions, so a helper with dim W_j < k sends all of
W_j, and one with dim W_j = k may as well send a hyperplane ker phi_j,
phi_j != 0.  With Phi(v) = (phi_j(v_j)) over the latter, the sends add up
to sigma(ker Phi).  So x is repairable iff W_x lies in im sigma and, for
some nonzero phi_j, Phi(N) lies in Phi(K).  When K = span(kappa), that
holds iff e_0 is not in the sum of the D_j below, over the helpers j of
dimension k whose g_{i,j} span GF(p)^k:
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
  5. When helper j stores k dimensions and t = k, the g_{i,j} are k+1 rows
     of k entries.  Their signed minors span D_j when the rows span
     GF(p)^k and are 0 otherwise (the lemma at linalg._signed_minors, with
     k+1 for its k), so for k <= 3 the line of minors stands in for D_j,
     and a zero line adds nothing to the sum.  Other shapes, and k = 4,
     take nullspace.
dim K = 1 on every pair whose helpers store k dimensions each and span F,
hence on every pair of a valid code, and there t = dim W_x = k.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar

from .gf import FieldSpec, NotPrimeError
from .linalg import (
    CapExceededError, Subspace, _adopted, _augmented, _Layout, _layout, _pivot, _push,
    _reduce, _rref, _signed_minors, count_subspaces, enumerate_subspaces, nullspace,
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
    tuple), and a witness maps each helper to the subspace it sends.  No
    node has more than alpha = k dimensions and no send more than beta =
    k-1, which construction enforces.  A fully verified code has every node
    of dimension exactly k and a witness for every valid key; partially
    built or corrupted codes may fall short, and the verifiers report
    exactly how.
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
            if node.dim > pr.alpha:
                raise ValueError(f"node {idx} has dimension {node.dim} > alpha = {pr.alpha}")
        for key, witness in self.witnesses.items():
            self._check_witness(key, witness)

    def _check_witness(self, key: tuple, witness: dict[int, Subspace]) -> None:
        """Raise ValueError unless this code may hold witness under key: a
        valid pair, exactly its helpers, each sending at most beta
        dimensions of the file space."""
        pr = self.params
        x, helpers = key
        self._check_key(x, helpers)
        if witness.keys() != set(helpers):
            raise ValueError(f"witness for {key} covers helpers {tuple(sorted(witness))}")
        lay = _layout(pr.spec.p, pr.f_dim)
        for j, sub in witness.items():
            # one layout per (p, width), so the same layout is the same space
            if sub._lay is not lay:
                raise ValueError(f"witness for {key} has a misplaced subspace")
            if sub.dim > pr.beta:
                raise ValueError(
                    f"witness for {key}: helper {j} sends dimension {sub.dim} > beta = {pr.beta}"
                )

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

    def recovery_subsets(self) -> Iterator[tuple[int, ...]]:
        return itertools.combinations(range(1, self.params.n + 1), self.params.k)

    def repair_pairs(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for x in range(1, self.params.n + 1):
            others = [j for j in range(1, self.params.n + 1) if j != x]
            for helpers in itertools.combinations(others, self.params.d):
                yield x, helpers


def check_recovery_subset(code: Code, subset: tuple[int, ...]) -> str | None:
    """None if the subset's nodes span the file space, else a violation line."""
    lay, echelon = _layout(code.params.spec.p, code.params.f_dim), []
    for j in subset:
        for row in code.node(j)._rows:
            _push(lay, echelon, row)
    joint = len(echelon)
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
    witness = code.witnesses.get((x, helpers))
    if witness is None:
        code._check_key(x, helpers)
        return [f"no witness for failed node {x} with helpers {helpers}"]
    msgs = []
    target = code.node(x)
    lay = target._lay
    # the first send's rows are RREF, so they seed the echelon as they are
    sent = list(witness[helpers[0]]._rows)
    for i, j in enumerate(helpers):
        sub = witness[j]
        if not code.node(j).contains_subspace(sub):
            msgs.append(
                f"repair of {x} by {helpers}: helper {j} sends vectors outside its node"
            )
        if i:
            for row in sub._rows:
                _push(lay, sent, row)
    # a loop: any() over a generator made verify a twentieth slower
    for row in target._rows:
        if _reduce(lay, sent, row):
            msgs.append(
                f"repair of {x} by {helpers}: sent subspaces do not cover the failed node"
            )
            break
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
    None when W_x lies in im sigma and dim K != 1."""
    pr = code.params
    p, k, width = pr.spec.p, pr.k, pr.f_dim
    nodes = [code.node(j) for j in helpers]
    rows = [row for node in nodes for row in node.basis_rows()]
    # rows [r | e_r], the helper rows first, then the target rows: the helper
    # parts of the rows that pivot in the unit block span K among the helper
    # rows and N among all of them
    m = len(rows)
    lay, echelon, _ = _augmented(p, rows + list(code.node(x).basis_rows()))
    cut = width * lay.slot
    if any(_pivot(row) < cut for row in echelon[m:]):
        return False  # W_x is not in im sigma
    kernel = [row for row in echelon[:m] if _pivot(row) >= cut]
    if len(kernel) != 1:
        return None
    gens = [lay.unpack(row)[width:width + m] for row in kernel + echelon[m:]]
    unit, deps = _layout(p, len(gens)), []
    start = 0
    for node in nodes:
        block = [g[start:start + node.dim] for g in gens]
        start += node.dim
        if k <= 3 and node.dim == k and len(gens) == k + 1:
            # D_j by minors; push leaves the sum as it is for a zero line
            _push(unit, deps, unit.pack([m % p for m in _signed_minors(block)]))
            continue
        dep = nullspace(pr.spec, block)
        # only a helper whose g_{i,j} span GF(p)^k, leaving t+1-k
        # dependencies, imposes a condition
        if dep.dim == len(gens) - k:
            for row in dep._rows:
                _push(unit, deps, row)
    # e_0 packs to 1
    return bool(_reduce(unit, deps, 1))


def brute_force_repairable(
    code: Code, x: int, helpers: tuple[int, ...], cap: int = DEFAULT_ORACLE_CAP
) -> bool:
    """Decide whether x is repairable from the given helpers, each sending a
    subspace of dimension min(beta, dim W_j) inside its node (larger sends
    never exist, smaller ones never help).

    The closed form of the module docstring decides if the helpers' rows
    have exactly one dependency, as on every pair of a valid code, or do
    not span the failed node.  Otherwise it searches all choices of sends in
    helper order, and prunes a prefix unless its sends and all that the
    remaining helpers store span the failed node.  Either way it raises
    CapExceededError up front when the search would exceed cap choices.
    Independent of the witness table.
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
    # stored[i]: the RREF of all that helpers i, i+1, ... store, which enters
    # each span first and so needs no elimination there
    stored = [()]
    for node, _ in reversed(per_node):
        stored.insert(0, _rref(target._lay, [*node._rows, *stored[0]]))

    def search(i: int, sent: tuple[int, ...]) -> bool:
        # prune unless x is covered when helpers i, i+1, ... send all they store
        span = Subspace._span_packed(pr.spec, pr.f_dim, [*stored[i], *sent])
        if not span.contains_subspace(target):
            return False
        return i == len(helpers) or any(search(i + 1, sent + opt) for opt in candidates[i])

    return search(0, ())


# what save_code writes between the header's last value and the first witness
_WITNESSES = ',"witnesses":['


def save_code(code: Code, path: str) -> None:
    """Write the code as JSON; output bytes are a pure function of the code.

    The file holds the compact header, `,"witnesses":[`, the witnesses in key
    order and `]}`, the layout that load_code streams, and is written one
    witness at a time.  A witness is one format string, filled from the
    unpacked rows of its sends in helper order; %d prints an int as json
    does.  The bytes go to a temporary file next to the target, which then
    replaces the target in one step, so an interrupted write leaves either
    the old file or the complete new one.
    """
    pr = code.params
    head = json.dumps(
        {
            "version": 1,
            "p": pr.spec.p,
            "k": pr.k,
            "n": pr.n,
            "alpha": pr.alpha,
            "beta": pr.beta,
            "F": pr.f_dim,
            "nodes": [node.basis_rows() for node in code.nodes],
        },
        separators=(",", ":"),
    )
    unpack = _layout(pr.spec.p, pr.f_dim).unpack
    row = "[" + ",".join(["%d"] * pr.f_dim) + "]"
    # a witness's format string, by the dimensions of its sends
    formats: dict[tuple[int, ...], str] = {}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(head[:-1] + _WITNESSES)
            # the witnesses, nearly all of the file, go one at a time
            for i, key in enumerate(sorted(code.witnesses)):
                x, helpers = key
                sends = [code.witnesses[key][j]._rows for j in helpers]
                # from a list, which sizes the tuple exactly: tuple() of an
                # iterator shrinks a longer one, and CPython's tuple free list
                # keeps the shrunk ones, a held block per witness
                dims = tuple([len(rows) for rows in sends])
                if dims not in formats:
                    formats[dims] = (
                        '{"x":%d,"A":[' + ",".join(["%d"] * len(dims)) + '],"R":{'
                        + ",".join('"%d":[' + ",".join([row] * d) + "]" for d in dims) + "}}"
                    )
                values = [x, *helpers]
                for j, rows in zip(helpers, sends):
                    values.append(j)
                    for v in rows:
                        values += unpack(v)
                fh.write("," * (i > 0) + formats[dims] % tuple(values))
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
    raw: object, what: Callable[[], str], params: Params, bound: str, most: int,
    lay: _Layout | None = None,
) -> Subspace:
    """The span of raw, checked to be at most `most` integer rows of length F.
    what() names raw in an error message, and is called only to raise one.

    Given lay, a list of at most `most` rows is first read by packing: the
    codec rejects a row that is not F residues, and _adopted rows that are
    not the canonical RREF, so the checks, and the reduction mod p, run only
    when that read fails.  This is the loader's one fast path, for every
    node and every send.  The codec packs a bool as 0 or 1, so lay is given
    only for a text with no bool in it."""
    if lay is not None and type(raw) is list and len(raw) <= most:
        rows = _adopted(lay, raw)
        if rows is not None:
            return Subspace._from_rref(params.spec, params.f_dim, rows)
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


def _no_bool(text: str) -> bool:
    """Whether the JSON text holds no bool, which it gives only from these
    literals; a literal inside a string counts too, which costs only speed."""
    return "true" not in text and "false" not in text


def load_code(path: str) -> Code:
    """Read a code file, validating structure, version, field, and shapes.

    The file is read through scan_code, which streams a file in save_code's
    layout into one Code, so its JSON tree is never held, and parses any
    other file whole.  Every node and every send goes through one checked reader, which, in a
    text with no bool, first reads it by packing its rows and runs the
    checks only when that read fails, to name the error.

    Raises MalformedCodeFileError, CodeVersionError, CodeDimensionError, or
    NotPrimeError depending on what is wrong.  Semantic properties (recovery,
    repair) are left to the verifiers.
    """
    return scan_code(path, _drained)


def _drained(code: Code, pairs: Iterator) -> Code:
    """code, once pairs is exhausted, which leaves every witness in it."""
    for _ in pairs:
        pass
    return code


# witnesses that scan_code feeds into a streamed code between two hand-overs
_BATCH = 64

_T = TypeVar("_T")


def scan_code(path: str, check: Callable[[Code, Iterator], _T]) -> _T:
    """check(code, pairs) on the code file at path, opened and read once.
    pairs yields each repair pair (x, helpers) of code in order, and code
    holds the pair's witness, if the file has one, by the time the pair is
    handed over, so check_repair_pair and verify_structure give on it what
    they give on the whole code.

    A file in save_code's layout, ending in `]}` and JSON whitespace, is
    streamed: its header is parsed alone, code starts with the nodes only,
    and the witnesses are decoded, checked and added to code as the pairs
    reach them, _BATCH at a time, so the file's JSON tree is never held;
    check may drop a witness once its pair is checked.  Any anomaly
    (another layout, keys that do not strictly increase, anything raised
    while streaming or in check, pairs left unread) discards that run;
    check then runs on the whole parse of the same text, and that run alone
    decides the result and any error.
    """
    text = _read(path)
    try:
        start = text.index(_WITNESSES) + len(_WITNESSES)
        # closed by an empty list, the header parses only if that list is its
        # last top-level value
        head = json.loads(text[:start] + "]}")
        params, nodes, lay = _header(head, text.count(",") + 1, _no_bool(text))
        code = Code(params, nodes)
        pairs = _fed(code, lay, _streamed(text, start))
        result = check(code, pairs)
        # pairs left unread leave the end of the stream unchecked
        if next(pairs, None) is None:
            return result
    except Exception:
        pass
    code = _load_whole(text)
    return check(code, code.repair_pairs())


def _fed(code: Code, lay: _Layout | None, stream: Iterable) -> Iterator[tuple[int, tuple]]:
    """Each repair pair of code in order, with the witnesses of stream
    checked and added to code ahead of it: after every _BATCH witnesses,
    the pairs up to the last one's key, and once stream ends, which checks
    what follows the list, the rest; raises ValueError unless the keys
    strictly increase."""
    pairs = code.repair_pairs()
    last = None
    for count, raw in enumerate(stream, start=1):
        key, spaces = _witness(raw, code.params, lay)
        if last is not None and key <= last:
            raise ValueError(f"witness {key} does not follow {last}")
        code._check_witness(key, spaces)
        code.witnesses[key], last = spaces, key
        if count % _BATCH == 0:
            # a checked key is a pair and keys increase, so the pair is ahead
            for pair in pairs:
                yield pair
                if pair == key:
                    break
    yield from pairs


def _read(path: str) -> str:
    """The text of the file at path, opened and read once."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except ValueError as exc:
            # bytes that are not UTF-8
            raise MalformedCodeFileError(f"not valid JSON: {exc}") from exc


def _streamed(text: str, pos: int) -> Iterator[object]:
    """The values of the compact array opening before text[pos], one at a
    time; then raises ValueError unless only `}` and JSON whitespace follow
    it."""
    decode = json.JSONDecoder().raw_decode
    more = text[pos] != "]"
    while more:
        raw, pos = decode(text, pos)
        yield raw
        more = text[pos] == ","
        pos += more
    if text[pos:pos + 2] != "]}" or text[pos + 2:].strip(" \t\n\r"):
        raise ValueError("the witness list does not end the file")


def _load_whole(text: str) -> Code:
    """The code of the whole text by one parse, which decides every error."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad JSON, or nesting too deep to parse
        raise MalformedCodeFileError(f"not valid JSON: {exc}") from exc
    return _checked(obj, text.count(",") + 1, packed=_no_bool(text))


def _checked(obj: object, widest: int, packed: bool = False) -> Code:
    """The code that a parsed code file describes; raises as load_code does.
    widest and packed are _header's."""
    params, nodes, lay = _header(obj, widest, packed)
    witnesses: dict[tuple[int, tuple[int, ...]], dict[int, Subspace]] = {}
    for raw in obj["witnesses"]:
        key, spaces = _witness(raw, params, lay)
        if key in witnesses:
            raise MalformedCodeFileError(f"duplicate witness for {key}")
        witnesses[key] = spaces
    try:
        return Code(params, nodes, witnesses)
    except ValueError as exc:
        raise MalformedCodeFileError(str(exc)) from exc


def _header(obj: object, widest: int, packed: bool) -> tuple[Params, tuple, _Layout | None]:
    """The parameters and nodes of a parsed code file, checked down to its
    witness list being a list, and the layout that _subspace reads by, if
    any; raises as load_code does.  packed, for a text with no bool, has
    _subspace read each node and send by packing first.  widest is one more
    than the text's count of commas: a row of F entries holds F-1 of them,
    however much whitespace surrounds them, so an F above widest is refused
    before anything F wide is built."""
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
    if params.f_dim > widest:
        raise CodeDimensionError(
            f"file dimension {params.f_dim} exceeds the {widest} entries a row of the file can hold"
        )
    lay = _layout(spec.p, params.f_dim) if packed else None
    nodes = tuple(
        _subspace(raw, lambda: f"node {idx}", params, "alpha", params.alpha, lay)
        for idx, raw in enumerate(raw_nodes, start=1)
    )
    _expect(isinstance(obj["witnesses"], list), "witnesses must be a list")
    return params, nodes, lay


def _witness(raw: object, params: Params, lay: _Layout | None) -> tuple[tuple, dict]:
    """The key and the sends of a parsed witness, checked; raises as
    load_code does.  Each send goes through _subspace with lay."""
    _expect(isinstance(raw, dict), "each witness must be an object")
    for key in ("x", "A", "R"):
        if key not in raw:
            raise MalformedCodeFileError(f"witness missing key {key!r}")
    x, helpers, sends = raw["x"], raw["A"], raw["R"]
    _expect(type(x) is int, "witness x must be an integer")
    _expect(isinstance(helpers, list), "witness A must be a list")
    helpers = tuple(helpers)
    _expect(all(type(j) is int for j in helpers), "witness helpers must be integers")
    _expect(isinstance(sends, dict), "witness R must be an object")
    names = [str(j) for j in helpers]
    if set(sends) != set(names):
        raise MalformedCodeFileError(
            f"witness for ({x}, {helpers}) must list exactly its helpers"
        )
    spaces = {}
    for j, name in zip(helpers, names):
        spaces[j] = _subspace(sends[name], lambda: f"witness ({x}, {helpers}) helper {j}",
                              params, "beta", params.beta, lay)
    return (x, helpers), spaces
