"""regenext benchmark: one workload, one seed, every metric by name and unit.

    python3 benchmarks/run.py --workload grow-large --seed 1 --seconds 30 --trace 0

The speed of the shared host this runs on drifts by a third and more over
minutes, far more than the bounds the benchmark sets.  So every untraced
run times the regenext under test (`src/`) against a frozen copy of the
code the benchmark was defined on (`benchmarks/reference/`), on the same
host at the same time.  Each side runs in a server process of its own
(worker.py).  Both sides get the same command (a set-up, or the next
operation of a pass), and this process lets them compute in turn, SLICE_S
at a time and never both at once (SIGSTOP/SIGCONT), timing each side's
slices until it answers.  A time metric is the median, over repeats, of
(this code's time / the reference's time), times the reference's time
pinned in pinned.json.  Raw times are printed and recorded too.

With --trace 1 only the code under test runs: one untraced pass and one
traced pass, and the per-layer metrics are reported instead.  Outputs are
checked on every pass; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# set-up is repeated at least SETUP_MIN_REPS times and for SETUP_MIN_S,
# but no more than SETUP_MAX_REPS times
SETUP_MIN_REPS = 2
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 25
# how long one side computes before the other takes its turn
SLICE_S = 0.02
DEADLINE_S = 175.0
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
PHASES = (
    ("grow_s", "grow"),
    ("verify_s", "verify"),
    ("load_s", "load"),
    ("save_s", "save"),
    ("sweep_s", "prob-sweep"),
)


class BenchError(RuntimeError):
    pass


class Server:
    """One worker.py process, asked one command at a time.

    A server that takes part in interleaving is kept stopped (SIGSTOP)
    except while it is let run."""

    def __init__(self, name: str, src: Path, workload: str, workdir: Path, deadline: float):
        self.name = name
        self.deadline = deadline
        self.stopped = False
        workdir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "worker.py"), "--src", str(src),
                "--workload", workload, "--workdir", str(workdir),
            ],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.receive(self.deadline - time.perf_counter())
        except BaseException:
            self.end()
            raise

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def readable(self, timeout: float) -> bool:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        return bool(ready)

    def receive(self, timeout: float) -> dict:
        if not self.readable(timeout):
            raise BenchError(f"{self.name}: no answer before the deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.name}: exited with code {self.proc.wait()}")
        answer = json.loads(line)
        if "error" in answer:
            raise BenchError(f"{self.name}: {answer['error']}")
        return answer

    def ask(self, command: dict) -> dict:
        self.resume()
        self.send(command)
        return self.receive(self.deadline - time.perf_counter())

    def pause(self) -> None:
        os.kill(self.proc.pid, signal.SIGSTOP)
        self.stopped = True

    def resume(self) -> None:
        if self.stopped:
            os.kill(self.proc.pid, signal.SIGCONT)
            self.stopped = False

    def close(self) -> dict:
        """Ask for the peak RSS and let the process end."""
        answer = self.ask({"cmd": "exit"})
        self.proc.wait(timeout=10)
        return answer

    def end(self) -> None:
        """Make sure the process has ended, killing it if need be."""
        if self.proc.poll() is None:
            self.resume()
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Sides:
    """The servers of one phase; every one has ended on the way out."""

    def __init__(self, names, workload: str, workdir: Path, deadline: float):
        self.servers = {}
        try:
            for name in names:
                src = SRC if name == "cur" else REFERENCE
                self.servers[name] = Server(name, src, workload, workdir / name, deadline)
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self.servers

    def __exit__(self, *exc):
        for server in self.servers.values():
            server.end()


def _interleave(servers: dict, commands: dict, first: int) -> dict:
    """Send each server its command, then let the servers compute in turn,
    SLICE_S at a time and one at a time, until each has answered; the host's
    speed changes over far longer spans than a slice, so every side sees it
    alike.  Returns per server its answer and the time it was let run."""
    names = list(commands)
    names = names[first % len(names):] + names[:first % len(names)]
    for name in names:
        servers[name].pause()
        servers[name].send(commands[name])
    ran = {name: 0.0 for name in names}
    answers: dict = {}
    while len(answers) < len(names):
        for name in names:
            if name in answers:
                continue
            server = servers[name]
            t0 = time.perf_counter()
            server.resume()
            done = server.readable(SLICE_S)
            server.pause()
            ran[name] += time.perf_counter() - t0
            if done:
                answers[name] = server.receive(0.0)
        if time.perf_counter() > servers[names[0]].deadline:
            raise BenchError("the deadline passed while the sides were running")
    return {name: (answers[name], ran[name]) for name in names}


def _run_setup(servers: dict, seed: int) -> tuple[dict, list[str]]:
    """Set both sides up, interleaved, several times; returns the times per
    side and the problems."""
    times = {name: [] for name in servers}
    files, problems = {}, []
    t0 = time.perf_counter()
    reps = 0
    while reps < SETUP_MIN_REPS or (
        time.perf_counter() - t0 < SETUP_MIN_S and reps < SETUP_MAX_REPS
    ):
        commands = {name: {"cmd": "setup", "seed": seed} for name in servers}
        for name, (answer, seconds) in _interleave(servers, commands, reps).items():
            times[name].append(seconds)
            if files.setdefault(name, answer["files"]) != answer["files"]:
                problems.append(f"{name}: set-up made different inputs from the same seed")
        reps += 1
    return times, problems


def _run_pair(servers: dict, index: int) -> dict:
    """One pass on each side over inputs[index], interleaved operation by
    operation; each operation's time is the time its side was let run."""
    reps: dict = {}
    times: dict = {name: [] for name in servers}
    while len(reps) < len(servers):
        commands = {name: {"cmd": "step", "index": index} for name in servers if name not in reps}
        for name, (answer, seconds) in _interleave(servers, commands, index).items():
            if answer["done"]:
                reps[name] = answer["rep"]
            else:
                times[name].append(seconds)
    for name, rep in reps.items():
        for op, seconds in zip(rep["ops"], times[name], strict=True):
            op["seconds"] = seconds
        rep["wall_s"] = sum(times[name])
    return reps


def _pair_ratios(cur: list[float], ref: list[float]) -> list[float]:
    return [c / r for c, r in zip(cur, ref)]


def reference_digest() -> str:
    """sha256 over the reference copy's source files, names and bytes."""
    digest = hashlib.sha256()
    for path in sorted((REFERENCE / "regenext").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _check_outputs(reps: list[dict], pinned: dict | None) -> list[str]:
    """Mark failed ops in place: passes over the same inputs must give the
    same digests, and passes over the first inputs must match the digests
    pinned for the default seed.  Returns the problems no op can carry."""
    problems = []
    first: dict[int, dict] = {}
    for rep in reps:
        expected = first.setdefault(rep["inputs"], rep["digests"])
        if rep["inputs"] == 0 and pinned is not None:
            expected = pinned
        if rep["digests"].keys() != expected.keys():
            problems.append(f"pass over inputs {rep['inputs']} made a different set of outputs")
        ops = {op["label"]: op for op in rep["ops"]}
        for label, digest in rep["digests"].items():
            if digest == expected.get(label):
                continue
            reason = (
                "output differs from the digest pinned for the default seed"
                if expected is pinned
                else "output differs from an earlier pass over the same inputs"
            )
            op = ops.get(label)
            if op is None:
                problems.append(f"{label}: {reason}")
            elif op["failure"] is None:
                op["failure"] = reason
    return problems


def _median_phase(reps: list[dict], kind: str) -> float:
    """Median over passes of the time spent in one kind of operation."""
    return statistics.median(
        sum(op["seconds"] for op in rep["ops"] if op["kind"] == kind) for rep in reps
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenext benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind so that every server is resumed, ended and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = started + DEADLINE_S

    for package in (SRC, REFERENCE):
        if not (package / "regenext" / "__init__.py").is_file():
            return _fail(f"no regenext sources under {package}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned_all = json.loads((HERE / "pinned.json").read_text())
    if reference_digest() != pinned_all["reference_sha256"]:
        return _fail(f"{REFERENCE} differs from the copy pinned in pinned.json; restore it")
    workload = WORKLOADS[args.workload]
    names = ["cur"] if args.trace else ["ref", "cur"]

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    pairs: list[dict] = []
    trace = None
    try:
        with Sides(names, args.workload, workdir, deadline) as servers:
            if args.trace:
                answer = servers["cur"].ask({"cmd": "setup", "seed": args.seed})
                setup_times, problems = {"cur": [answer["seconds"]]}, []
            else:
                setup_times, problems = _run_setup(servers, args.seed)
            for server in servers.values():
                server.close()
        with Sides(names, args.workload, workdir, deadline) as servers:
            for server in servers.values():
                server.ask({"cmd": "load"})
            if args.trace:
                traced = servers["cur"].ask({"cmd": "trace"})
                pairs = [{"cur": rep} for rep in traced["reps"]]
                trace = traced["trace"]
                shutil.move(workdir / "cur" / "spans.tsv.gz",
                            OUT_DIR / f"spans-{args.workload}.tsv.gz")
            else:
                # start another pair only while it should end within --seconds
                t0 = time.perf_counter()
                last = 0.0
                while not pairs or time.perf_counter() - t0 + last <= args.seconds:
                    t1 = time.perf_counter()
                    pairs.append(_run_pair(servers, len(pairs)))
                    last = time.perf_counter() - t1
            peak_rss_kb = servers["cur"].close()["peak_rss_kb"]
            if "ref" in servers:
                servers["ref"].close()
    except BenchError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = [pair["cur"] for pair in pairs]
    ref_reps = [pair["ref"] for pair in pairs if "ref" in pair]
    pinned = (
        pinned_all["digests"].get(args.workload) if args.seed == pinned_all["seed"] else None
    )
    problems += _check_outputs(reps, pinned)
    problems += _check_outputs(ref_reps, pinned)
    problems += [
        f"reference {op['label']}: {op['failure']}"
        for rep in ref_reps for op in rep["ops"] if op["failure"]
    ]
    ops_per_rep = len(reps[0]["ops"])
    attempted = sum(len(rep["ops"]) for rep in reps)
    failures = [
        f"{op['label']}: {op['failure']}" for rep in reps for op in rep["ops"] if op["failure"]
    ]
    failed = len(failures)
    if trace:
        problems += trace["count_failures"]

    raw = {
        "setup_s": statistics.median(setup_times["cur"]),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
    }
    e2e = {}
    if not args.trace:
        pinned_ref = pinned_all["reference_s"][args.workload]
        raw["reference_setup_s"] = statistics.median(setup_times["ref"])
        raw["reference_wall_s"] = statistics.median(rep["wall_s"] for rep in ref_reps)
        setup_ratio = statistics.median(_pair_ratios(setup_times["cur"], setup_times["ref"]))
        wall_ratio = statistics.median(
            _pair_ratios([r["wall_s"] for r in reps], [r["wall_s"] for r in ref_reps])
        )
        e2e = {
            "setup_s": setup_ratio * pinned_ref["setup_s"],
            "wall_s": wall_ratio * pinned_ref["wall_s"],
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "ops": ops_per_rep,
            "ok_ratio": (attempted - failed) / attempted,
        }
        raw["setup_ratio"] = setup_ratio
        raw["wall_ratio"] = wall_ratio
    phases = {name: _median_phase(reps, kind) for name, kind in PHASES}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(reps),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "trace.overhead_ratio": trace["metrics"]["trace.overhead_ratio"] if trace else None,
    }
    record = {
        "meta": meta,
        "digests": reps[0]["digests"],
        "setup_s_samples": setup_times,
        "end_to_end": e2e,
        "raw": raw,
        "phases": phases,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "problems": problems,
        "passes": reps,
        "reference_passes": ref_reps,
        "trace": trace,
    }
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = trace["metrics"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = e2e
    missing = sorted(set(wanted) - set(values))
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(reps)} passes, "
          f"{attempted} ops, {failed} failed")
    print("meta: " + json.dumps(meta))
    print("digests: " + json.dumps(reps[0]["digests"], sort_keys=True))
    print("raw (medians, s or this/reference): " + json.dumps(raw))
    if not trace:
        for name, value in phases.items():
            if value:
                print(f"  {name:<44} {value} s (raw, median over passes)")
        print(f"  {'failed_ratio':<44} {failed / attempted} failed/ops")
    for name, unit in wanted.items():
        print(f"  {name:<44} {values[name]} {unit}")
    if trace:
        for name, why in sorted(trace["absent"].items()):
            print(f"  absent: {name}: {why}")
    for line in problems + failures:
        print(f"  problem: {line}")
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
