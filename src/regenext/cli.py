"""Command-line driver: build, grow, verify, and explore codes.

Human-readable progress goes to standard error; machine-readable output
(reports, CSV) goes to standard output or to files.  Exit codes: 0 on
success, 1 when verification or construction fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .alignment import (
    census_well_aligned,
    count_well_aligned,
    count_well_aligned_lower,
    estimate_probability_monte_carlo,
    probability_well_aligned,
)
from .extend import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_SYNTHESIS_ATTEMPTS,
    ExtensionError,
    SynthesisError,
    attempts_bound,
    extend_code,
    synthesize_base_code,
    synthesize_decomposition,
)
from .gf import FieldSpec, NotPrimeError
from .linalg import CapExceededError, Subspace, count_subspaces, vec_add, vec_scale, vec_sub
from .regen import (
    DEFAULT_ORACLE_CAP,
    Code,
    CodeFileError,
    MissingWitnessError,
    brute_force_repairable,
    check_recovery_subset,
    check_repair_pair,
    corner_point,
    cutset_bound,
    functional_repair_capacity,
    load_code,
    save_code,
)
from .structure import DecompositionError, verify_structure

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

_MAX_LISTED = 20


class UsageError(ValueError):
    """Bad flag values or inconsistent configuration."""


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    command: str
    k: int | None = None
    p: int | None = None
    n_target: int | None = None
    seed: int = 0
    trials: int = 1000
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    in_path: str | None = None
    out_path: str | None = None
    csv_path: str | None = None
    oracle_cap: int = DEFAULT_ORACLE_CAP

    def validate(self) -> None:
        if self.k is not None and self.k < 2:
            raise UsageError(f"k must be at least 2, got {self.k}")
        if self.trials < 1:
            raise UsageError(f"trials must be positive, got {self.trials}")
        if self.max_attempts < 1:
            raise UsageError(f"max-attempts must be positive, got {self.max_attempts}")
        if self.oracle_cap < 1:
            raise UsageError(f"oracle-cap must be positive, got {self.oracle_cap}")
        if self.n_target is not None and self.k is not None and self.n_target < self.k + 1:
            raise UsageError(f"n must be at least k+1 = {self.k + 1}, got {self.n_target}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _field(p: int) -> FieldSpec:
    try:
        return FieldSpec(p)
    except (NotPrimeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _params_line(code: Code) -> str:
    pr = code.params
    return (
        f"params: n={pr.n} k={pr.k} d={pr.d} alpha={pr.alpha} beta={pr.beta} "
        f"F={pr.f_dim} p={pr.spec.p}"
    )


def _print_section(name: str, checked: int, violations: list[str]) -> None:
    print(f"{name}: checked={checked} violations={len(violations)}")
    for line in violations[:_MAX_LISTED]:
        print(f"  {line}")
    if len(violations) > _MAX_LISTED:
        print(f"  ... and {len(violations) - _MAX_LISTED} more")


def _cmd_gen_base(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command="gen-base",
        k=args.k,
        p=args.p,
        seed=args.seed,
        max_attempts=args.max_attempts,
        out_path=args.out,
    )
    cfg.validate()
    spec = _field(cfg.p)
    # namespace the stream per command so reusing one --seed across
    # gen-base and grow does not replay the same draws
    rng = random.Random(f"gen-base:{cfg.seed}")
    try:
        code = synthesize_base_code(cfg.k, spec, rng, max_attempts=cfg.max_attempts)
    except SynthesisError as exc:
        _log(f"gen-base failed: {exc}")
        return EXIT_VERIFICATION
    save_code(code, cfg.out_path)
    _log(_params_line(code))
    _log(
        f"verified: data recovery over {sum(1 for _ in code.recovery_subsets())} subsets, "
        f"repair witnesses over {sum(1 for _ in code.repair_pairs())} pairs"
    )
    _log(f"wrote {cfg.out_path}")
    return EXIT_OK


def _cmd_grow(args: argparse.Namespace) -> int:
    code = load_code(args.in_path)
    pr = code.params
    cfg = RunConfig(
        command="grow",
        k=pr.k,
        n_target=args.n,
        seed=args.seed,
        max_attempts=args.max_attempts,
        in_path=args.in_path,
        out_path=args.out,
        csv_path=args.csv,
    )
    cfg.validate()
    if cfg.n_target <= pr.n:
        _log(
            f"nothing to do: code already has n={pr.n} nodes, target is {cfg.n_target}"
        )
        return EXIT_OK
    rng = random.Random(f"grow:{cfg.seed}")
    trail = [
        {
            "n": pr.n,
            "F_dim": pr.f_dim,
            "alpha": pr.alpha,
            "beta": pr.beta,
            "attempts": 0,
        }
    ]

    def write_csv() -> None:
        if cfg.csv_path is None:
            return
        with open(cfg.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["n", "F_dim", "alpha", "beta", "attempts"]
            )
            writer.writeheader()
            writer.writerows(trail)

    while code.params.n < cfg.n_target:
        current = code.params.n
        bound = attempts_bound(current, code.params.k, code.params.spec)
        try:
            outcome = extend_code(code, rng, max_attempts=cfg.max_attempts)
        except (DecompositionError, MissingWitnessError) as exc:
            _log(
                f"grow: {cfg.in_path} does not hold a valid code ({exc}); "
                f"run `regenext verify --in {cfg.in_path}` for the full report"
            )
            return EXIT_VERIFICATION
        except ExtensionError as exc:
            partial = cfg.out_path + ".partial"
            save_code(code, partial)
            write_csv()
            _log(f"grow stalled at n={current}: {exc}")
            _log(f"saved the verified partial code to {partial}")
            return EXIT_VERIFICATION
        code = outcome.code
        pr = code.params
        trail.append(
            {
                "n": pr.n,
                "F_dim": pr.f_dim,
                "alpha": pr.alpha,
                "beta": pr.beta,
                "attempts": outcome.attempts,
            }
        )
        _log(
            f"extended to n={pr.n}: attempts={outcome.attempts}, "
            f"single-draw success bound {float(bound):.6f}"
        )
    save_code(code, cfg.out_path)
    write_csv()
    _log(_params_line(code))
    _log(f"wrote {cfg.out_path}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    code = load_code(args.in_path)
    cfg = RunConfig(
        command="verify",
        in_path=args.in_path,
        oracle_cap=args.oracle_cap,
    )
    cfg.validate()
    pr = code.params
    print(_params_line(code))
    failed = False

    node_violations = [
        f"node {j}: dimension {code.node(j).dim} != alpha = {pr.alpha}"
        for j in range(1, pr.n + 1)
        if code.node(j).dim != pr.alpha
    ]
    _print_section("node dimensions", pr.n, node_violations)
    failed = failed or bool(node_violations)

    subsets = list(code.recovery_subsets())
    recovery_msgs = [check_recovery_subset(code, subset) for subset in subsets]
    recovery_violations = [m for m in recovery_msgs if m]
    _print_section("data recovery", len(subsets), recovery_violations)
    failed = failed or bool(recovery_violations)

    pairs = list(code.repair_pairs())

    def check_pair(pair):
        x, helpers = pair
        try:
            return check_repair_pair(code, x, helpers)
        except MissingWitnessError as exc:
            return [str(exc)]

    witness_msgs = [check_pair(pair) for pair in pairs]
    witness_violations = [m for msgs in witness_msgs for m in msgs]
    _print_section("repair witnesses", len(pairs), witness_violations)
    failed = failed or bool(witness_violations)

    def check_structure(pair):
        x, helpers = pair
        try:
            return list(verify_structure(code, helpers, x).violations)
        except (DecompositionError, MissingWitnessError) as exc:
            return [f"pair ({x}, {helpers}): {exc}"]

    structure_msgs = [check_structure(pair) for pair in pairs]
    structure_violations = [m for msgs in structure_msgs for m in msgs]
    _print_section("decomposition structure", len(pairs), structure_violations)
    failed = failed or bool(structure_violations)

    per_node = count_subspaces(pr.alpha, pr.beta, pr.spec)
    combos = per_node**pr.k
    if combos > cfg.oracle_cap:
        print(
            f"oracle cross-check: skipped ({combos} combinations per pair exceed "
            f"the cap of {cfg.oracle_cap})"
        )
    else:
        oracle_violations = []
        skipped = 0
        for pair, msgs in zip(pairs, witness_msgs):
            x, helpers = pair
            try:
                repairable = brute_force_repairable(code, x, helpers, cap=cfg.oracle_cap)
            except CapExceededError:
                skipped += 1
                continue
            if not msgs and not repairable:
                oracle_violations.append(
                    f"pair ({x}, {helpers}): witness checks pass but exhaustive "
                    f"search finds no repair"
                )
        _print_section("oracle cross-check", len(pairs) - skipped, oracle_violations)
        if skipped:
            print(f"  ({skipped} pairs skipped by the per-pair cap)")
        failed = failed or bool(oracle_violations)

    print("result: " + ("FAIL" if failed else "PASS"))
    return EXIT_VERIFICATION if failed else EXIT_OK


def _parse_prime_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--p expects a comma-separated list of primes: {raw!r}") from exc
    if not values:
        raise UsageError("--p lists no primes")
    return values


def _cmd_prob_sweep(args: argparse.Namespace) -> int:
    primes = _parse_prime_list(args.p)
    cfg = RunConfig(
        command="prob-sweep",
        k=args.k,
        seed=args.seed,
        trials=args.trials,
        csv_path=args.csv,
        oracle_cap=args.oracle_cap,
    )
    cfg.validate()
    k = cfg.k
    f_dim = k * k - 1
    rng = random.Random(f"prob-sweep:{cfg.seed}")
    fieldnames = [
        "p",
        "k",
        "aligned_exact",
        "aligned_lower",
        "subspaces_total",
        "probability_exact",
        "probability",
        "census",
        "census_ratio",
        "mc_frequency",
        "mc_low",
        "mc_high",
        "trials",
    ]
    rows = []
    for p in primes:
        spec = _field(p)
        dec = synthesize_decomposition(k, spec, rng)
        exact = count_well_aligned(k, spec)
        lower = count_well_aligned_lower(k, spec)
        total = count_subspaces(f_dim, k, spec)
        prob = probability_well_aligned(k, spec)
        census = ""
        census_ratio = ""
        if total <= cfg.oracle_cap:
            census_count = census_well_aligned(dec, cap=cfg.oracle_cap)
            census = census_count
            census_ratio = census_count / total
        freq, (low, high) = estimate_probability_monte_carlo(dec, cfg.trials, rng)
        rows.append(
            {
                "p": p,
                "k": k,
                "aligned_exact": exact,
                "aligned_lower": lower,
                "subspaces_total": total,
                "probability_exact": str(prob),
                "probability": float(prob),
                "census": census,
                "census_ratio": census_ratio,
                "mc_frequency": float(freq),
                "mc_low": low,
                "mc_high": high,
                "trials": cfg.trials,
            }
        )
        census_note = f", census={census}" if census != "" else ""
        _log(
            f"p={p}: probability {float(prob):.6f} "
            f"(exact {prob}), monte-carlo {float(freq):.6f}{census_note}"
        )
    if cfg.csv_path is not None:
        with open(cfg.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        _log(f"wrote {cfg.csv_path}")
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    cfg = RunConfig(command="bounds", k=args.k)
    cfg.validate()
    k = cfg.k
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
    cfg = RunConfig(
        command="repair-demo",
        k=args.k,
        p=args.p,
        seed=args.seed,
        max_attempts=args.max_attempts,
    )
    cfg.validate()
    spec = _field(cfg.p)
    rng = random.Random(f"repair-demo:{cfg.seed}")
    try:
        base = synthesize_base_code(cfg.k, spec, rng)
        outcome = extend_code(base, rng, max_attempts=cfg.max_attempts)
    except (SynthesisError, ExtensionError) as exc:
        _log(f"repair-demo could not build its example code: {exc}")
        return EXIT_VERIFICATION
    code = outcome.code
    pr = code.params
    p = pr.spec.p
    helpers, (x, cert) = next(iter(outcome.alignment_log.items()))
    dec = cert.decomposition
    star = pr.n
    failed = min(helpers)
    others = [j for j in helpers if j != failed]
    key = tuple(sorted(others + [star]))
    witness = code.witness(failed, key)
    print(_params_line(code))
    print(
        f"scenario: node {failed} fails and is rebuilt from helpers {key} "
        f"(node {star} is the newly added one)"
    )
    print(
        f"the split below comes from the stored repair of node {x} by {helpers}; "
        f"node {star} was accepted because it aligns with it"
    )
    print()
    print("helper internals (repair basis rows, then leftover vector):")
    for j in helpers:
        for row in dec.repair_spaces[j].basis_rows():
            print(f"  node {j} repair row:  {_fmt_vec(row)}")
        print(f"  node {j} leftover t_{j}: {_fmt_vec(dec.complement_vectors[j])}")
    print()
    print(f"aligned basis of node {star} (component in its own column vanishes):")
    for i in helpers:
        print(f"  w({i}) = {_fmt_vec(cert.basis[i])}")
    print()
    print("subspaces sent to the replacement node:")
    for j in key:
        sub = witness.space(j)
        label = "new node" if j == star else f"helper {j}"
        for row in sub.basis_rows():
            print(f"  from {label}: {_fmt_vec(row)}")
    print()
    print("reassembly:")
    total = (0,) * pr.f_dim
    for j in others:
        total = vec_add(p, total, dec.complement_vectors[j])
    t_failed = vec_scale(p, -1, total)
    ok_t = t_failed == dec.complement_vectors[failed]
    print(
        f"  1. leftover of the failed node from the received t_j: "
        f"t_{failed} = -({' + '.join(f't_{j}' for j in others)}) = {_fmt_vec(t_failed)} "
        f"[{'verified' if ok_t else 'MISMATCH'}]"
    )
    recovered = []
    all_ok = True
    for i in helpers:
        if i == failed:
            continue
        residue = cert.basis[i]
        for j in others:
            residue = vec_sub(p, residue, cert.repair_parts[(i, j)])
        residue = vec_sub(p, residue, cert.complement_parts[i])
        expected = cert.repair_parts[(i, failed)]
        ok = residue == expected
        all_ok = all_ok and ok
        recovered.append(residue)
        print(
            f"  2. w({i}) minus received interference leaves the component in "
            f"node {failed}: {_fmt_vec(residue)} [{'verified' if ok else 'MISMATCH'}]"
        )
    span = Subspace(pr.spec, pr.f_dim, recovered)
    ok_span = span == dec.repair_spaces[failed]
    print(
        f"  3. those components span the repair space of node {failed} "
        f"(dimension {span.dim}) [{'verified' if ok_span else 'MISMATCH'}]"
    )
    rebuilt = span.sum(Subspace(pr.spec, pr.f_dim, [t_failed]))
    ok_node = rebuilt == code.node(failed)
    print(
        f"  4. repair space plus leftover rebuilds node {failed} exactly "
        f"[{'verified' if ok_node else 'MISMATCH'}]"
    )
    return EXIT_OK if (ok_t and all_ok and ok_span and ok_node) else EXIT_VERIFICATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regenext",
        description=(
            "Build, grow, and verify exact-repair storage codes with per-node "
            "dimension k, repair dimension k-1, and file dimension k^2-1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-base", help="synthesize a verified code on k+1 nodes")
    gen.add_argument("--k", type=int, required=True, help="recovery threshold (>= 2)")
    gen.add_argument("--p", type=int, required=True, help="prime field modulus")
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_SYNTHESIS_ATTEMPTS,
        dest="max_attempts",
        help="synthesis retries before giving up",
    )
    gen.add_argument("--out", required=True, help="output code file")
    gen.set_defaults(handler=_cmd_gen_base)

    grow = sub.add_parser("grow", help="extend a code file to a target node count")
    grow.add_argument("--in", dest="in_path", required=True, help="input code file")
    grow.add_argument("--out", required=True, help="output code file")
    grow.add_argument("--n", type=int, required=True, help="target number of nodes")
    grow.add_argument("--seed", type=int, default=0, help="random seed")
    grow.add_argument(
        "--max-attempts",
        type=int,
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
        type=int,
        default=DEFAULT_ORACLE_CAP,
        dest="oracle_cap",
        help="skip the exhaustive repair oracle above this many combinations",
    )
    verify.set_defaults(handler=_cmd_verify)

    sweep = sub.add_parser(
        "prob-sweep", help="alignment probability: formulas, census, and sampling"
    )
    sweep.add_argument("--k", type=int, required=True, help="recovery threshold (>= 2)")
    sweep.add_argument(
        "--p", required=True, help="comma-separated list of prime moduli"
    )
    sweep.add_argument("--trials", type=int, default=1000, help="monte-carlo draws per prime")
    sweep.add_argument("--seed", type=int, default=0, help="random seed")
    sweep.add_argument("--csv", default=None, help="write rows to this file instead of stdout")
    sweep.add_argument(
        "--oracle-cap",
        type=int,
        default=10**5,
        dest="oracle_cap",
        help="run the exhaustive census only when the subspace count fits",
    )
    sweep.set_defaults(handler=_cmd_prob_sweep)

    bounds = sub.add_parser("bounds", help="print tradeoff corner points and bound checks")
    bounds.add_argument("--k", type=int, required=True, help="recovery threshold (>= 2)")
    bounds.set_defaults(handler=_cmd_bounds)

    demo = sub.add_parser(
        "repair-demo", help="walk through one repair that uses a freshly added node"
    )
    demo.add_argument("--k", type=int, required=True, help="recovery threshold (>= 2)")
    demo.add_argument("--p", type=int, required=True, help="prime field modulus")
    demo.add_argument("--seed", type=int, default=0, help="random seed")
    demo.add_argument(
        "--max-attempts",
        type=int,
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
