"""Serves one side of a benchmark run: the set-up or the passes of one workload.

run.py starts this program once for the regenext under test (`--src src`)
and once for the frozen reference copy (`--src benchmarks/reference`).  It
says it is ready, then reads one JSON command a line on standard input and
answers each with one JSON line on standard output:

    {"cmd": "setup", "seed": 1}  fresh import of regenext plus the inputs, timed
    {"cmd": "load"}              import regenext and read the inputs set-up made
    {"cmd": "step", "index": 3}  the next operation of an untraced pass over
                                 inputs[3 % len(inputs)], started if none is open;
                                 the pass itself once its last operation is done
    {"cmd": "trace"}             one untraced pass, then the same pass traced
    {"cmd": "exit"}              answers with the process's peak RSS, then exits

A set-up server and a pass server are separate processes, so that the peak
RSS of the pass server leaves set-up out.  While the two sides' servers work
on a command, run.py lets them compute in turn, a short slice at a time, and
times each side itself; the times this process measures are used only when
it runs alone (--trace 1).

    python3 benchmarks/worker.py --src src --workload grow-large --workdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from tracer import SpanSummary, Tracer  # noqa: E402
from workloads import WORKLOADS, Rep, grow_attempts  # noqa: E402


def _no_span(name: str):
    return nullcontext()


def _rep_record(rep: Rep, index: int) -> dict:
    return {
        "inputs": index,
        "wall_s": rep.wall_s,
        "ops": [
            {"kind": op.kind, "label": op.label, "seconds": op.seconds, "failure": op.failure}
            for op in rep.ops
        ],
        "digests": rep.digests,
        "attempts": grow_attempts(rep),
    }


def _count_checks(workload, summary, rep: Rep) -> list[str]:
    """Exact counts that the traced run must reproduce."""
    calls = summary.calls
    problems = []

    def expect(what: str, got: int, want: int) -> None:
        if got != want:
            problems.append(f"{what}: counted {got}, expected {want}")

    if workload.name == "verify-large":
        pairs = workload.repair_pairs()
        expect("regen.check_repair_pair.calls", calls["regen.check_repair_pair"], pairs)
        expect("structure.verify_structure.calls", calls["structure.verify_structure"], pairs)
        expect(
            "regen.check_recovery_subset.calls",
            calls["regen.check_recovery_subset"],
            workload.recovery_subsets(),
        )
        expect("regen.brute_force_repairable.calls", calls["regen.brute_force_repairable"], 0)
    elif workload.name == "grow-large":
        expect(
            "extend.extend_code.calls",
            calls["extend.extend_code"],
            workload.expected_extend_calls(),
        )
    elif workload.name == "small-field":
        if all(op.failure is None for op in rep.ops if op.kind == "grow"):
            expect(
                "regen.brute_force_repairable.calls",
                calls["regen.brute_force_repairable"],
                workload.oracle_pairs(),
            )
        expect(
            "extend.attempts",
            summary.under_calls[("extend.find_alignments", "extend.extend_code")],
            sum(grow_attempts(rep)),
        )
    return problems


def _import_fresh(src: Path):
    """Import regenext from src as if for the first time."""
    for name in [m for m in sys.modules if m == "regenext" or m.startswith("regenext.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    module = importlib.import_module("regenext")
    importlib.import_module("regenext.cli")
    if Path(module.__file__).resolve().parent != src / "regenext":
        raise RuntimeError(f"imported regenext from {module.__file__}, not from {src}")
    return module


def _setup(workload, seed: int, src: Path, workdir: Path) -> dict:
    t0 = time.perf_counter()
    _import_fresh(src)
    inputs = workload.setup(seed, workdir)
    seconds = time.perf_counter() - t0
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())
    }
    return {"seconds": seconds, "files": files}


def _trace(workload, inputs: list, workdir: Path) -> dict:
    """One untraced pass, then the same pass traced; the per-layer metrics."""
    untraced = workload.run(inputs[0], workdir, _no_span)
    tracer = Tracer()
    tracer.install()
    unwrapped = tracer.unwrapped_bindings()
    if unwrapped:
        tracer.uninstall()
        return {"error": "traced run refused: unwrapped bindings " + ", ".join(unwrapped)}

    def span(name: str):
        tracer.run_id += 1
        return tracer.span(name)

    traced = workload.run(inputs[0], workdir, span)
    tracer.uninstall()
    summary = SpanSummary(tracer)
    values, absent = layer_metrics(summary, traced.wall_s / untraced.wall_s)
    tracer.write(str(workdir / "spans.tsv.gz"))
    return {
        "reps": [_rep_record(untraced, 0), _rep_record(traced, 0)],
        "trace": {
            "metrics": values,
            "absent": absent,
            "spans": summary.spans,
            "count_failures": _count_checks(workload, summary, traced),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory that holds the regenext package")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    # the workloads redirect sys.stdout while an operation runs; answers go
    # to the stream this process started with
    channel = sys.stdout
    channel.write(json.dumps({"ready": True}) + "\n")
    channel.flush()
    inputs = None
    # the open pass: (index into inputs, generator of its operations)
    open_pass = None

    for line in sys.stdin:
        command = json.loads(line)
        cmd = command["cmd"]
        if cmd == "setup":
            answer = _setup(workload, command["seed"], src, workdir)
        elif cmd == "load":
            _import_fresh(src)
            inputs = json.loads((workdir / "inputs.json").read_text())
            answer = {"inputs": len(inputs)}
        elif cmd in ("step", "trace"):
            if cmd == "trace":
                answer = _trace(workload, inputs, workdir)
            else:
                if open_pass is None:
                    index = command["index"] % len(inputs)
                    open_pass = index, workload.steps(inputs[index], workdir, _no_span)
                try:
                    next(open_pass[1])
                    answer = {"done": False}
                except StopIteration as stop:
                    answer = {"done": True, "rep": _rep_record(stop.value, open_pass[0])}
                    open_pass = None
        elif cmd == "exit":
            answer = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            answer = {"error": f"unknown command {cmd!r}"}
        channel.write(json.dumps(answer) + "\n")
        channel.flush()
        if cmd == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
