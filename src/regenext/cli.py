"""Command-line driver: build, grow, verify, and explore codes.

Human-readable progress goes to standard error; machine-readable output
(reports, CSV) goes to standard output or to files.  Exit codes: 0 on
success, 1 when verification or construction fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import math
import os
import random
import sys
from fractions import Fraction
from typing import Iterable

from .alignment import (
    census_well_aligned,
    count_well_aligned,
    count_well_aligned_lower,
    estimate_probability_monte_carlo,
)
from .extend import (
    DEFAULT_MAX_ATTEMPTS,
    ExtensionError,
    attempts_bound,
    extend_code,
    synthesize_base_code,
    synthesize_decomposition,
)
from .gf import FieldSpec, NotPrimeError
from .linalg import Subspace, count_subspaces
from .regen import (
    DEFAULT_ORACLE_CAP,
    Code,
    CodeFileError,
    brute_force_repairable,
    check_repair_pair,
    corner_point,
    cutset_bound,
    functional_repair_capacity,
    load_code,
    save_code,
    scan_code,
    verify_data_recovery,
    verify_repair_witnesses,
)
from .structure import DecompositionError, verify_structure

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

_MAX_LISTED = 20


class UsageError(ValueError):
    """Bad flag values or inconsistent configuration."""


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse words a non-integer as "invalid int value"
    return parse


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _field(p: int) -> FieldSpec:
    try:
        return FieldSpec(p)
    except (NotPrimeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _check_out_dir(path: str) -> None:
    """Fail before any work when an output cannot go to path: it is empty or
    its directory is missing, or path names a directory."""
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _params_line(code: Code) -> str:
    pr = code.params
    return (
        f"params: n={pr.n} k={pr.k} d={pr.d} alpha={pr.alpha} beta={pr.beta} "
        f"F={pr.f_dim} p={pr.spec.p}"
    )


def _decimal(n: int) -> str | None:
    """n in decimal, or None past Python's int-to-str limit; lifting the limit
    for a count whose size the input picks would turn the error into a stall."""
    with contextlib.suppress(ValueError):
        return str(n)


class _Section:
    """One section of the verify report: the number of violations, and the
    lines of the first _MAX_LISTED, the only ones it prints."""

    def __init__(self, name: str, checked: int):
        self.name, self.checked, self.count, self.listed = name, checked, 0, []

    def add(self, violations: Iterable[str]) -> None:
        for line in violations:
            self.count += 1
            if len(self.listed) < _MAX_LISTED:
                self.listed.append(f"  {line}")

    def lines(self) -> list[str]:
        lines = [f"{self.name}: checked={self.checked} violations={self.count}", *self.listed]
        if self.count > _MAX_LISTED:
            lines.append(f"  ... and {self.count - _MAX_LISTED} more")
        return lines


def _cmd_gen_base(args: argparse.Namespace) -> int:
    spec = _field(args.p)
    _check_out_dir(args.out)
    # namespace the stream per command so reusing one --seed across
    # gen-base and grow does not replay the same draws
    rng = random.Random(f"gen-base:{args.seed}")
    try:
        code = synthesize_base_code(args.k, spec, rng)
    except ExtensionError as exc:
        _log(f"gen-base failed: {exc}")
        return EXIT_VERIFICATION
    save_code(code, args.out)
    _log(_params_line(code))
    _log(
        f"verified: data recovery over {sum(1 for _ in code.recovery_subsets())} subsets, "
        f"repair witnesses over {sum(1 for _ in code.repair_pairs())} pairs"
    )
    _log(f"wrote {args.out}")
    return EXIT_OK


def _cmd_grow(args: argparse.Namespace) -> int:
    code = load_code(args.in_path)
    pr = code.params
    if args.n < pr.k + 1:
        raise UsageError(f"--n must be at least k+1 = {pr.k + 1}, got {args.n}")
    if args.n <= pr.n:
        _log(f"nothing to do: code already has n={pr.n} nodes, target is {args.n}")
        return EXIT_OK
    _check_out_dir(args.out)

    def invalid(problem) -> int:
        _log(
            f"grow: {args.in_path} does not hold a valid code ({problem}); "
            f"run `regenext verify --in {args.in_path}` for the full report"
        )
        return EXIT_VERIFICATION

    # the one check of the input: each step then checks only its new node
    problems = [*verify_data_recovery(code).values(), *verify_repair_witnesses(code)]
    if problems:
        return invalid(problems[0])
    rng = random.Random(f"grow:{args.seed}")
    # opened before the first step, so an unwritable path exits 2 having
    # written nothing; each row goes out as its step completes
    sink = None if args.csv is None else open(args.csv, "w", encoding="utf-8", newline="")
    with sink or contextlib.nullcontext():
        trail = None if sink is None else csv.writer(sink)

        def record(*row) -> None:
            if trail is not None:
                trail.writerow(row)

        record("n", "F_dim", "alpha", "beta", "attempts")
        record(pr.n, pr.f_dim, pr.alpha, pr.beta, 0)
        while code.params.n < args.n:
            current = code.params.n
            bound = attempts_bound(current, code.params.k, code.params.spec)
            # every unit is checked, so by the lemma in regenext.structure every split exists
            try:
                outcome = extend_code(code, rng, max_attempts=args.max_attempts)
            except ExtensionError as exc:
                partial = args.out + ".partial"
                save_code(code, partial)
                _log(f"grow stalled at n={current}: {exc}")
                _log(f"saved the verified partial code to {partial}")
                return EXIT_VERIFICATION
            code = outcome.code
            pr = code.params
            record(pr.n, pr.f_dim, pr.alpha, pr.beta, outcome.attempts)
            _log(
                f"extended to n={pr.n}: attempts={outcome.attempts}, "
                f"single-draw success bound {float(bound):.6f}"
            )
        save_code(code, args.out)
    _log(_params_line(code))
    _log(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    """Print the verify report of the code file; exit 1 if any check fails.

    regen.scan_code opens and reads the file once.  In save_code's layout
    the repair pairs are checked batch by batch as the witnesses stream into
    the one code, which drops each witness once its pair is checked, so
    memory follows the size of the file, not the number of pairs, and each
    section keeps only its count and the lines it prints.  The report is
    printed when every check is done, so that a file that scan_code hands to
    the whole parse prints only what that parse decides."""
    check = functools.partial(_verify_report, cap=args.oracle_cap)
    report, failed = scan_code(args.in_path, check)
    print("\n".join(report))
    return EXIT_VERIFICATION if failed else EXIT_OK


def _verify_report(code: Code, pairs: Iterable, cap: int) -> tuple[list[str], bool]:
    """The lines of the verify report and whether a check failed, for code's
    nodes and the repair pairs that scan_code hands over; each pair's
    witness is dropped from code once the pair is checked."""
    pr = code.params
    nodes = _Section("node dimensions", pr.n)
    nodes.add(
        f"node {j}: dimension {code.node(j).dim} != alpha = {pr.alpha}"
        for j in range(1, pr.n + 1)
        if code.node(j).dim != pr.alpha
    )
    subsets = list(code.recovery_subsets())
    recovery = verify_data_recovery(code, subsets)
    data = _Section("data recovery", len(subsets))
    data.add(recovery.values())
    spanning = set(subsets).difference(recovery)

    # a Code holds no node of more than alpha dimensions, so each helper offers
    # at most per_node sends and no pair's search exceeds combos: a pair can
    # only hit the oracle's cap when combos does
    per_node = count_subspaces(pr.alpha, pr.beta, pr.spec)
    combos = per_node**pr.k
    run_oracle = combos <= cap
    checked = pr.n * math.comb(pr.n - 1, pr.d)
    witnesses = _Section("repair witnesses", checked)
    structure = _Section("decomposition structure", checked)
    oracle = _Section("oracle cross-check", checked)
    for x, helpers in pairs:
        msgs = check_repair_pair(code, x, helpers)
        witnesses.add(msgs)
        try:
            verify_structure(code, helpers, x, established=(not msgs, spanning))
        except DecompositionError as exc:
            structure.add([f"pair ({x}, {helpers}): {exc}"])
        # the oracle backs up witnesses that pass; a failed pair is flagged already
        if run_oracle and not msgs and not brute_force_repairable(code, x, helpers, cap=cap):
            oracle.add([
                f"pair ({x}, {helpers}): witness checks pass but exhaustive "
                f"search finds no repair"
            ])
        # a checked witness is not read again, so code holds one batch at most
        code.witnesses.pop((x, helpers), None)
    report = [
        _params_line(code), *nodes.lines(), *data.lines(), *witnesses.lines(),
        *structure.lines(),
    ]
    if run_oracle:
        report += oracle.lines()
    else:
        shown = _decimal(combos) or f"at least 2^{combos.bit_length() - 1}"
        report.append(
            f"oracle cross-check: skipped ({shown} combinations per pair exceed "
            f"the cap of {cap})"
        )
    sections = (nodes, data, witnesses, structure, oracle)
    failed = any(section.count for section in sections)
    report.append("result: " + ("FAIL" if failed else "PASS"))
    return report, failed


def _parse_prime_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--p expects a comma-separated list of primes: {raw!r}") from exc
    if not values:
        raise UsageError("--p lists no primes")
    return values


def _cmd_prob_sweep(args: argparse.Namespace) -> int:
    k = args.k
    f_dim = k * k - 1
    rng = random.Random(f"prob-sweep:{args.seed}")
    specs = [_field(p) for p in _parse_prime_list(args.p)]
    for spec in specs:  # no count in a row exceeds the subspace count
        if _decimal(count_subspaces(f_dim, k, spec)) is None:
            raise UsageError(f"k={k} at p={spec.p} gives counts too long to print in decimal")
    # opened before the first prime, so an unwritable path exits 2 having
    # done no work; each row goes out as its prime completes
    sink = None if args.csv is None else open(args.csv, "w", encoding="utf-8", newline="")
    with sink or contextlib.nullcontext():
        writer = csv.writer(sink or sys.stdout)
        writer.writerow((
            "p", "k", "aligned_exact", "aligned_lower", "subspaces_total",
            "probability_exact", "probability", "census", "census_ratio",
            "mc_frequency", "mc_low", "mc_high", "trials",
        ))
        for spec in specs:
            dec = synthesize_decomposition(k, spec, rng)
            exact = count_well_aligned(k, spec)
            lower = count_well_aligned_lower(k, spec)
            total = count_subspaces(f_dim, k, spec)
            prob = Fraction(exact, total)
            census = census_ratio = ""
            if total <= args.oracle_cap:
                census = census_well_aligned(dec, cap=args.oracle_cap)
                census_ratio = census / total
            freq, (low, high) = estimate_probability_monte_carlo(dec, args.trials, rng)
            writer.writerow((
                spec.p, k, exact, lower, total, str(prob), float(prob), census,
                census_ratio, float(freq), low, high, args.trials,
            ))
            census_note = f", census={census}" if census != "" else ""
            _log(
                f"p={spec.p}: probability {float(prob):.6f} "
                f"(exact {prob}), monte-carlo {float(freq):.6f}{census_note}"
            )
    if args.csv is not None:
        _log(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    k = args.k
    print(f"normalized tradeoff corner points for k = d = {k}:")
    for m in range(1, k + 1):
        a, b = corner_point(m, k)
        tags = []
        if m == 1:
            tags.append("minimum bandwidth")
        if m == k:
            tags.append("minimum storage")
        if m == k - 1:
            tags.append("operating point of this package")
        suffix = f"  ({', '.join(tags)})" if tags else ""
        print(f"  m={m}: storage {a}, bandwidth {b}{suffix}")
    alpha, beta = k, k - 1
    f_dim = k * k - 1
    fr = functional_repair_capacity(k, k, alpha, beta)
    cs = cutset_bound(k, alpha, beta)
    print(f"integer operating point: alpha={alpha} beta={beta} F={f_dim}")
    print(
        f"  capacity if repairs may drift: {fr}"
        + (" (meets F)" if fr == f_dim else " (MISMATCH)")
    )
    print(
        f"  single-cut bound (k-1)*alpha + beta: {cs}"
        + (" (meets F)" if cs == f_dim else " (MISMATCH)")
    )
    a, b = corner_point(k - 1, k)
    line = (k - 1) * a + b
    print(
        f"cut line (k-1)*storage + bandwidth at the operating corner: {line} "
        + ("(tight)" if line == 1 else "(slack)")
    )
    if k == 3:
        checks = [
            ("3*storage >= 1", 3 * a, Fraction(1)),
            ("2*storage + bandwidth >= 1", 2 * a + b, Fraction(1)),
            ("4*storage + 6*bandwidth >= 3", 4 * a + 6 * b, Fraction(3)),
            ("6*bandwidth >= 1", 6 * b, Fraction(1)),
        ]
        print(f"full boundary for k=3, evaluated at ({a}, {b}):")
        for label, value, floor in checks:
            state = "tight" if value == floor else "slack"
            print(f"  {label}: value {value} ({state})")
    return EXIT_OK


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _cmd_repair_demo(args: argparse.Namespace) -> int:
    spec = _field(args.p)
    rng = random.Random(f"repair-demo:{args.seed}")
    try:
        base = synthesize_base_code(args.k, spec, rng)
        outcome = extend_code(base, rng, max_attempts=args.max_attempts)
    except ExtensionError as exc:
        _log(f"repair-demo could not build its example code: {exc}")
        return EXIT_VERIFICATION
    code = outcome.code
    pr = code.params
    p = pr.spec.p
    helpers, cert = next(iter(outcome.alignment_log.items()))
    dec = cert.decomposition
    lay = dec._lay
    star = pr.n
    failed = min(helpers)
    others = [j for j in helpers if j != failed]
    key = tuple(sorted(others + [star]))
    witness = code.witnesses[(failed, key)]
    print(_params_line(code))
    print(
        f"scenario: node {failed} fails and is rebuilt from helpers {key} "
        f"(node {star} is the newly added one)"
    )
    print(
        f"the split below comes from the stored repair of node {dec.failed_node} by {helpers}; "
        f"node {star} was accepted because it aligns with it"
    )
    print()
    print("helper internals (repair basis rows, then leftover vector):")
    for j in helpers:
        for row in dec.repair_spaces[j].basis_rows():
            print(f"  node {j} repair row:  {_fmt_vec(row)}")
        print(f"  node {j} leftover t_{j}: {_fmt_vec(lay.unpack(dec.complement_vectors[j]))}")
    print()
    print(f"aligned basis of node {star} (component in its own column vanishes):")
    for i in helpers:
        print(f"  w({i}) = {_fmt_vec(lay.unpack(cert.basis[i]))}")
    print()
    print("subspaces sent to the replacement node:")
    for j in key:
        sub = witness[j]
        label = "new node" if j == star else f"helper {j}"
        for row in sub.basis_rows():
            print(f"  from {label}: {_fmt_vec(row)}")
    print()
    print("reassembly:")
    t_failed = lay.combine([p - 1] * len(others), [dec.complement_vectors[j] for j in others])
    ok_t = t_failed == dec.complement_vectors[failed]
    print(
        f"  1. leftover of the failed node from the received t_j: "
        f"t_{failed} = -({' + '.join(f't_{j}' for j in others)}) = "
        f"{_fmt_vec(lay.unpack(t_failed))} [{'verified' if ok_t else 'MISMATCH'}]"
    )
    recovered = []
    all_ok = True
    for i in helpers:
        if i == failed:
            continue
        sigma, c = dec._split(cert.basis[i])
        # w(i) minus its parts in the received S_j and its tau(i), the sum of
        # (c_j - c_i) t_j over j != i with t_failed taken from step 1: at most
        # 2k-1 rows, within combine's bound of k^2-1
        rest = [j for j in helpers if j != i]
        ts = [t_failed if j == failed else dec.complement_vectors[j] for j in rest]
        residue = lay.combine(
            [1, *[p - 1] * len(others), *((c[i] - c[j]) % p for j in rest)],
            [cert.basis[i], *(sigma[j] for j in others), *ts],
        )
        ok = residue == sigma[failed]
        all_ok = all_ok and ok
        recovered.append(residue)
        print(
            f"  2. w({i}) minus received interference leaves the component in "
            f"node {failed}: {_fmt_vec(lay.unpack(residue))} [{'verified' if ok else 'MISMATCH'}]"
        )
    span = Subspace._span_packed(pr.spec, pr.f_dim, recovered)
    ok_span = span == dec.repair_spaces[failed]
    print(
        f"  3. those components span the repair space of node {failed} "
        f"(dimension {span.dim}) [{'verified' if ok_span else 'MISMATCH'}]"
    )
    rebuilt = Subspace._span_packed(pr.spec, pr.f_dim, (*span._rows, t_failed))
    ok_node = rebuilt == code.node(failed)
    print(
        f"  4. repair space plus leftover rebuilds node {failed} exactly "
        f"[{'verified' if ok_node else 'MISMATCH'}]"
    )
    return EXIT_OK if (ok_t and all_ok and ok_span and ok_node) else EXIT_VERIFICATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="regenext",
        description=(
            "Build, grow, and verify exact-repair storage codes with per-node "
            "dimension k, repair dimension k-1, and file dimension k^2-1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-base", help="synthesize a verified code on k+1 nodes")
    gen.add_argument("--k", type=_at_least(2), required=True, help="recovery threshold (>= 2)")
    gen.add_argument("--p", type=int, required=True, help="prime field modulus")
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument("--out", required=True, help="output code file")
    gen.set_defaults(handler=_cmd_gen_base)

    grow = sub.add_parser("grow", help="extend a code file to a target node count")
    grow.add_argument("--in", dest="in_path", required=True, help="input code file")
    grow.add_argument("--out", required=True, help="output code file")
    grow.add_argument("--n", type=int, required=True, help="target number of nodes")
    grow.add_argument("--seed", type=int, default=0, help="random seed")
    grow.add_argument(
        "--max-attempts",
        type=_at_least(1),
        default=DEFAULT_MAX_ATTEMPTS,
        dest="max_attempts",
        help="draws per added node before giving up",
    )
    grow.add_argument("--csv", default=None, help="write per-step rows to this file")
    grow.set_defaults(handler=_cmd_grow)

    verify = sub.add_parser("verify", help="run the full verification suite on a file")
    verify.add_argument("--in", dest="in_path", required=True, help="input code file")
    verify.add_argument(
        "--oracle-cap",
        type=_at_least(1),
        default=DEFAULT_ORACLE_CAP,
        dest="oracle_cap",
        help="skip the repair oracle when a pair has more than this many choices of sends",
    )
    verify.set_defaults(handler=_cmd_verify)

    sweep = sub.add_parser(
        "prob-sweep", help="alignment probability: formulas, census, and sampling"
    )
    sweep.add_argument("--k", type=_at_least(2), required=True, help="recovery threshold (>= 2)")
    sweep.add_argument("--p", required=True, help="comma-separated list of prime moduli")
    sweep.add_argument("--trials", type=_at_least(1), default=1000, help="monte-carlo draws per prime")
    sweep.add_argument("--seed", type=int, default=0, help="random seed")
    sweep.add_argument("--csv", default=None, help="write rows to this file instead of stdout")
    sweep.add_argument(
        "--oracle-cap",
        type=_at_least(1),
        default=10**5,
        dest="oracle_cap",
        help="run the exhaustive census only when the subspace count fits",
    )
    sweep.set_defaults(handler=_cmd_prob_sweep)

    bounds = sub.add_parser("bounds", help="print tradeoff corner points and bound checks")
    bounds.add_argument("--k", type=_at_least(2), required=True, help="recovery threshold (>= 2)")
    bounds.set_defaults(handler=_cmd_bounds)

    demo = sub.add_parser(
        "repair-demo", help="walk through one repair that uses a freshly added node"
    )
    demo.add_argument("--k", type=_at_least(2), required=True, help="recovery threshold (>= 2)")
    demo.add_argument("--p", type=int, required=True, help="prime field modulus")
    demo.add_argument("--seed", type=int, default=0, help="random seed")
    demo.add_argument(
        "--max-attempts",
        type=_at_least(1),
        default=DEFAULT_MAX_ATTEMPTS,
        dest="max_attempts",
        help="draws for the fresh node before giving up",
    )
    demo.set_defaults(handler=_cmd_repair_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        if code == 0:
            return EXIT_OK
        return EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except (CodeFileError, NotPrimeError, OSError) as exc:
        # a path the user gave us does not exist or cannot be read/written
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
