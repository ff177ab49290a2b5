"""The three benchmark workloads: inputs made from the seed, and the timed part.

Each workload runs as a closed loop: one client, one thread, every operation
starting after the previous one ended.  Operations go through
`regenext.cli.main` and the public `regenext` API, looked up at call time so
that a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

DEFAULT_SEED = 1
P_LARGE = 65521

# small-field: a budget far above the 75-479 draws its slowest codes need, so
# a stall is an outlier worth reporting rather than the expected outcome
SMALL_FIELD_MAX_ATTEMPTS = 5000
SMALL_FIELD_CODES = 6
# the draws a p=3 grow needs vary widely from code to code, so each pass of
# small-field grows a fresh set of codes and a run averages over several sets
SMALL_FIELD_INPUT_SETS = 32


@dataclass
class OpResult:
    kind: str
    label: str
    seconds: float
    rc: int
    stdout: str
    stderr: str
    failure: str | None = None


@dataclass
class Rep:
    """One pass over a workload's timed part."""

    ops: list[OpResult] = field(default_factory=list)
    # output label -> sha256 hex digest
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The whole timed part: the ops run back to back."""
        return sum(op.seconds for op in self.ops)

    def fail(self, label: str, reason: str) -> None:
        for op in self.ops:
            if op.label == label and op.failure is None:
                op.failure = reason


def derive_seeds(workload: str, seed: int | str, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(10**9) for _ in range(count)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fresh(*paths: Path) -> None:
    """Remove outputs left by an earlier pass, so each pass writes its own."""
    for path in paths:
        path.unlink(missing_ok=True)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    main = sys.modules["regenext.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


class _Runner:
    """Times operations one after another and records their results."""

    def __init__(self, span):
        self.rep = Rep()
        self._span = span

    def cli(self, kind: str, label: str, argv: list):
        return (yield from self.call(kind, label, lambda: _cli(argv)))

    def call(self, kind: str, label: str, fn):
        """Run one operation, then pause the pass (yield the operation)."""
        with self._span(f"op.{kind}"):
            t0 = time.perf_counter()
            rc, out, err = fn()
            seconds = time.perf_counter() - t0
        op = OpResult(kind, label, seconds, rc, out, err)
        if rc != 0:
            op.failure = f"exit code {rc}"
        self.rep.ops.append(op)
        yield op
        return op


def _check_verify(op: OpResult) -> None:
    lines = op.stdout.strip().splitlines()
    if op.failure is None and (not lines or lines[-1] != "result: PASS"):
        op.failure = "verify did not end in 'result: PASS'"


def grow_attempts(rep: Rep) -> list[int]:
    """The per-step attempts= values that every grow printed on stderr."""
    return [
        int(m)
        for op in rep.ops
        if op.kind == "grow"
        for m in re.findall(r"attempts=(\d+)", op.stderr)
    ]


# Each workload's set-up returns a list of per-pass inputs; pass i of a run
# uses entry i modulo the list's length.  A workload's `steps` is a
# generator that runs one pass one operation at a time: it pauses after each
# operation and returns the pass (Rep) when it ends, so that run.py can
# interleave the operations of two processes.


class _Workload:
    def run(self, inputs: dict, workdir: Path, span) -> Rep:
        """One pass, its operations back to back."""
        steps = self.steps(inputs, workdir, span)
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value


class GrowLarge(_Workload):
    """gen-base + grow at p=65521: k=3 from 4 to 12 nodes, k=4 from 5 to 8."""

    name = "grow-large"
    # (tag, k, target n)
    CODES = (("k3", 3, 12), ("k4", 4, 8))

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        return [{"seeds": derive_seeds(self.name, seed, 2 * len(self.CODES))}]

    def steps(self, inputs: dict, workdir: Path, span):
        r = _Runner(span)
        seeds = inputs["seeds"]
        for idx, (tag, k, n) in enumerate(self.CODES):
            base, out = workdir / f"{tag}-base.json", workdir / f"{tag}.json"
            _fresh(base, out)
            yield from r.cli("gen-base", f"gen-base {tag}", [
                "gen-base", "--k", k, "--p", P_LARGE, "--seed", seeds[2 * idx], "--out", base,
            ])
            yield from r.cli("grow", f"grow {tag}", [
                "grow", "--in", base, "--out", out, "--n", n, "--seed", seeds[2 * idx + 1],
            ])
        rep = r.rep
        for tag, _, _ in self.CODES:
            out = workdir / f"{tag}.json"
            if out.exists():
                rep.digests[f"grow {tag}"] = _sha(out.read_bytes())
        return rep

    def expected_extend_calls(self) -> int:
        return sum(n - (k + 1) for _, k, n in self.CODES)


class VerifyLarge(_Workload):
    """load_code, save_code and verify on a k=3, n=12, p=65521 artifact."""

    name = "verify-large"
    K, N = 3, 12

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        gen_seed, grow_seed = derive_seeds(self.name, seed, 2)
        base, artifact = workdir / "artifact-base.json", workdir / "artifact.json"
        for argv in (
            ["gen-base", "--k", self.K, "--p", P_LARGE, "--seed", gen_seed, "--out", base],
            ["grow", "--in", base, "--out", artifact, "--n", self.N, "--seed", grow_seed],
        ):
            rc, _, err = _cli(argv)
            if rc != 0:
                raise RuntimeError(f"building the verify-large artifact failed: {err.strip()}")
        return [{"artifact": artifact.name}]

    def steps(self, inputs: dict, workdir: Path, span):
        r = _Runner(span)
        artifact = workdir / inputs["artifact"]
        copy = workdir / "roundtrip.json"
        regenext = sys.modules["regenext"]
        loaded = {}
        _fresh(copy)

        def load():
            loaded["code"] = regenext.load_code(str(artifact))
            return 0, "", ""

        def save():
            regenext.save_code(loaded["code"], str(copy))
            return 0, "", ""

        yield from r.call("load", "load", load)
        yield from r.call("save", "save", save)
        verify = yield from r.cli("verify", "verify", ["verify", "--in", artifact])
        _check_verify(verify)
        rep = r.rep
        original = artifact.read_bytes()
        rep.digests["artifact"] = _sha(original)
        rep.digests["verify"] = _sha(verify.stdout.encode())
        if not copy.exists() or copy.read_bytes() != original:
            rep.fail("save", "save_code of the loaded code changed the bytes")
        return rep

    def repair_pairs(self) -> int:
        return self.N * comb(self.N - 1, self.K)

    def recovery_subsets(self) -> int:
        return comb(self.N, self.K)


class SmallField(_Workload):
    """Six k=3, p=3 codes: gen-base, grow 4 -> 6, verify with the oracle; then
    one prob-sweep."""

    name = "small-field"
    K, P, N = 3, 3, 6

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        return [
            {"seeds": derive_seeds(self.name, f"{seed}:{index}", 2 * SMALL_FIELD_CODES + 1)}
            for index in range(SMALL_FIELD_INPUT_SETS)
        ]

    def steps(self, inputs: dict, workdir: Path, span):
        r = _Runner(span)
        seeds = inputs["seeds"]
        for i in range(SMALL_FIELD_CODES):
            base, out = workdir / f"code{i}-base.json", workdir / f"code{i}.json"
            _fresh(base, out, Path(f"{out}.partial"))
            yield from r.cli("gen-base", f"gen-base code{i}", [
                "gen-base", "--k", self.K, "--p", self.P, "--seed", seeds[2 * i], "--out", base,
            ])
            yield from r.cli("grow", f"grow code{i}", [
                "grow", "--in", base, "--out", out, "--n", self.N,
                "--seed", seeds[2 * i + 1], "--max-attempts", SMALL_FIELD_MAX_ATTEMPTS,
            ])
            # a stalled grow leaves its verified partial code; check that one
            # instead so the number of operations stays fixed
            target = out if out.exists() else Path(f"{out}.partial")
            verify = yield from r.cli("verify", f"verify code{i}", ["verify", "--in", target])
            _check_verify(verify)
        sweep_csv = workdir / "sweep.csv"
        _fresh(sweep_csv)
        yield from r.cli("prob-sweep", "prob-sweep", [
            "prob-sweep", "--k", self.K, "--p", "3,5", "--trials", 1000,
            "--seed", seeds[-1], "--csv", sweep_csv,
        ])
        rep = r.rep
        for op in rep.ops:
            if op.kind == "grow":
                out = workdir / f"{op.label.split()[1]}.json"
                if out.exists():
                    rep.digests[op.label] = _sha(out.read_bytes())
            elif op.kind == "verify":
                rep.digests[op.label] = _sha(op.stdout.encode())
        if sweep_csv.exists():
            rep.digests["prob-sweep"] = _sha(sweep_csv.read_bytes())
        return rep

    def oracle_pairs(self) -> int:
        """Repair pairs the oracle checks when every grow reaches n."""
        return SMALL_FIELD_CODES * self.N * comb(self.N - 1, self.K)


WORKLOADS = {w.name: w for w in (GrowLarge(), VerifyLarge(), SmallField())}
