"""In-memory span tracer that wraps the public API of the regenext modules.

Every public function of a traced module, and the constructor and public
methods of every public non-exception class defined there, is replaced by a
wrapper that records one span per call: name, start, end, parent span, the
benchmark operation (run id) it belongs to, and whether it returned a value
other than None.  A `from .x import f` copies f into the importing module,
so each binding found in any regenext module is replaced, and
`unwrapped_bindings` reports any that were missed.

Spans live in flat arrays while the run goes on and are written out once it
ends; the per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

_MISSING = object()

LAYERS = ("gf", "linalg", "regen", "structure", "alignment", "extend", "cli")

# calls whose return value the derived metrics need
_FLAGGED = {
    "alignment.is_well_aligned",
    "extend.extend_code",
    "extend.find_alignments",
}


def _modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "regenext" or name.startswith("regenext."))
    }


def _public_targets():
    """(span name, owner, attribute, original) for every callable to trace."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"regenext.{layer}")
        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                targets.append((f"{layer}.{attr}", mod, attr, value))
            elif (
                inspect.isclass(value)
                and value.__module__ == mod.__name__
                and not issubclass(value, BaseException)
            ):
                for mattr, raw in vars(value).items():
                    if mattr.startswith("_") and mattr != "__init__":
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not inspect.isfunction(fn):
                        continue  # properties and plain class attributes
                    name = f"{layer}.{attr}" if mattr == "__init__" else f"{layer}.{attr}.{mattr}"
                    targets.append((name, value, mattr, raw))
    return targets


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.run = array("H")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self._stack = [-1]
        self.run_id = 0
        self.saved_bytes = 0
        self._originals: dict[int, object] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.flag.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        flagged = name in _FLAGGED
        counts_bytes = name == "regen.save_code"
        perf = time.perf_counter
        open_span = self._open
        stack = self._stack
        start, end, flag = self.start, self.end, self.flag
        tracer = self

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if flagged and result is not None:
                flag[idx] = 1
            if counts_bytes:
                tracer.saved_bytes += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one of its operations."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every traced callable at each of its bindings."""
        wrappers: dict[int, object] = {}
        for name, owner, attr, raw in _public_targets():
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
                self._originals[id(raw.__func__)] = raw.__func__
            else:
                wrapped = self._wrap(name, raw)
                self._originals[id(raw)] = raw
                wrappers[id(raw)] = wrapped
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        # re-exports and `from .x import f` copies in other modules
        for mod in _modules().values():
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and self._is_original(value):
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value), _MISSING) is value

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module and class attributes that still point at a traced original."""
        found = []
        for mname, mod in _modules().items():
            for attr, value in vars(mod).items():
                if self._is_original(value):
                    found.append(f"{mname}.{attr}")
                if inspect.isclass(value) and value.__module__ == mname:
                    for mattr, raw in vars(value).items():
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if self._is_original(fn):
                            found.append(f"{mname}.{attr}.{mattr}")
        return found

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\trun\tparent\tname\tstart\tend\tflag\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{idx}\t{self.run[idx]}\t{self.parent[idx]}\t"
                    f"{self.names[self.name_id[idx]]}\t{self.start[idx]:.9f}\t"
                    f"{self.end[idx]:.9f}\t{self.flag[idx]}\n"
                )


class SpanSummary:
    """Per-name aggregates of the recorded spans."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        n = len(tracer.start)
        child = [0.0] * n
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        for i in range(n):
            par = tracer.parent[i]
            if par >= 0:
                child[par] += dur[i]
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.flagged: Counter = Counter()
        # (name, parent name) -> calls, flagged calls, inclusive seconds
        self.under_calls: Counter = Counter()
        self.under_flagged: Counter = Counter()
        self.under_incl_s: defaultdict = defaultdict(float)
        for i in range(n):
            name = names[tracer.name_id[i]]
            par = tracer.parent[i]
            pname = names[tracer.name_id[par]] if par >= 0 else None
            self.calls[name] += 1
            self.incl_s[name] += dur[i]
            self.self_s[name] += dur[i] - child[i]
            self.under_calls[(name, pname)] += 1
            self.under_incl_s[(name, pname)] += dur[i]
            if tracer.flag[i]:
                self.flagged[name] += 1
                self.under_flagged[(name, pname)] += 1
        self.spans = n
        self.saved_bytes = tracer.saved_bytes
