"""In-process tracing of livesubs' public functions.

Every function listed in the ``__all__`` of a traced module is replaced, in
every ``livesubs.*`` namespace that binds it, by a wrapper that records a
span (name, start, end, parent span, request). ``src/`` is not edited, and
because the wrappers sit on the real call path, a function the program stops
calling shows up as spans going to zero. Generators get one span per
yielded item. The request of a span is the segment id it works on.

Run as a script, this module executes a list of CLI commands in-process
through ``livesubs.cli.main`` with tracing on and writes the spans and a
summary; ``run.py --trace 1`` starts it in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

TRACED_MODULES = ("formats", "waitk", "core", "display", "reading_speed", "latency", "report")
COUNTED_MODULES = ("core", "display")  # modules whose call counts are reported
_SCALARS = (int, float, str, bool, type(None))
_RECENT_OWNERS = 256


class Tracer:
    """Spans kept in flat arrays; a span's id is its index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.requests: list[str] = []
        self._request_ids: dict[str, int] = {}
        self.failures: Counter[str] = Counter()  # "<command>.<function>" -> calls that raised
        self._command = ""
        self.counters: Counter[str] = Counter()
        self.commands: list[tuple[str, int, int]] = []  # (command, first span, end span)
        self._stack = [-1]
        # id(object) -> request: the events of every log read or built during
        # the command, and the recent results handed from one traced call to
        # the next (the blocks extracted from those events, ...).
        self._log_owners: dict[int, int] = {}
        self._owners: dict[int, int] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0

    # -- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def request_id(self, segment_id: str) -> int:
        rid = self._request_ids.get(segment_id)
        if rid is None:
            rid = self._request_ids[segment_id] = len(self.requests)
            self.requests.append(segment_id)
        return rid

    def _request_of(self, args, parent: int) -> int:
        if parent >= 0 and self.request[parent] >= 0:
            return self.request[parent]
        for a in args:
            if isinstance(a, _SCALARS):
                continue
            seg = getattr(a, "segment_id", None)
            if isinstance(seg, str):
                return self.request_id(seg)
            if type(a) is dict and isinstance(a.get("id"), str):
                return self.request_id(a["id"])
            rid = self._owners.get(id(a), self._log_owners.get(id(a)))
            if rid is not None:
                return rid
        return -1

    def _own(self, obj, rid: int) -> None:
        if rid < 0 or isinstance(obj, _SCALARS):
            return
        owners = self._owners
        owners[id(obj)] = rid
        if len(owners) > _RECENT_OWNERS:
            del owners[next(iter(owners))]

    def open(self, nid: int, rid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.request.append(rid)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _drop_last(self, sid: int) -> None:
        """Forget span sid, which must be the last one recorded."""
        for arr in (self.name, self.start, self.end, self.parent, self.request):
            del arr[sid]

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """A stand-in for fn that records one span per call (per item for a
        generator function). observe(result) counts what the call produced."""
        nid = self.name_id(name)

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = self.open(nid, self._request_of(args, self._stack[-1]))
                    try:
                        item = next(it)
                    except StopIteration:
                        self.close(sid)
                        if sid == len(self.name) - 1:
                            self._drop_last(sid)
                        return
                    except BaseException:
                        self.close(sid)
                        self.failures[f"{self._command}.{name}"] += 1
                        raise
                    self.close(sid)
                    seg = getattr(item, "segment_id", None)
                    if isinstance(seg, str):
                        rid = self.request[sid] = self.request_id(seg)
                        self._owns_log(item, rid)
                    yield item

            traced = traced_gen
        else:

            def traced_call(*args, **kwargs):
                sid = self.open(nid, self._request_of(args, self._stack[-1]))
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.close(sid)
                    self.failures[f"{self._command}.{name}"] += 1
                    raise
                self.close(sid)
                rid = self.request[sid]
                seg = getattr(result, "segment_id", None)
                if isinstance(seg, str):
                    rid = self.request_id(seg)
                    self._owns_log(result, rid)
                self._own(result, rid)
                if observe is not None:
                    observe(result)
                return result

            traced = traced_call
        return functools.wraps(fn)(traced)

    def _owns_log(self, obj, rid: int) -> None:
        events = getattr(obj, "events", None)
        if events is not None:
            self._log_owners[id(events)] = rid

    # -- commands and GC -----------------------------------------------

    @contextlib.contextmanager
    def command(self, command: str):
        """Group the spans of one CLI command under a root span."""
        first = len(self.name)
        self._command = command.replace("-", "_")
        self._owners.clear()
        self._log_owners.clear()
        sid = self.open(self.name_id(f"cli.{command}"), -1)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self.close(sid)
            self.commands.append((command, first, len(self.name)))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            if info["generation"] == 2:
                self.gc_gen2 += 1

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(len(start))]

    def write_spans(self, path: Path, t0: float) -> None:
        """One line per span: id, name, start and end (s from t0), parent, request."""
        names, requests = self.names, self.requests
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.name)):
                rid = self.request[i]
                f.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t"
                    f"{requests[rid] if rid >= 0 else ''}\n"
                )


def _observers(tracer: Tracer) -> dict:
    counters = tracer.counters

    def flush(log) -> None:
        d = log.source_duration
        counters["waitk.flush_tokens"] += sum(1 for g in log.consumed_source or () if g >= d)

    def states(schedule) -> None:
        counters["display.states_built"] += len(schedule.states)

    def samples(result) -> None:
        counters["reading_speed.samples"] += len(result)
        counters["reading_speed.inf_samples"] += sum(1 for s in result if math.isinf(s.cps))

    return {
        "waitk.simulate_waitk": flush,
        "display.schedule_word_mode": states,
        "display.schedule_block_mode": states,
        "display.schedule_line_mode": states,
        "reading_speed.rs_word_blocks": samples,
        "reading_speed.rs_blocks": samples,
        "reading_speed.rs_lines": samples,
    }


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public function of the traced modules in every loaded
    ``livesubs.*`` namespace that binds it. Returns what uninstall() needs."""
    importlib.import_module("livesubs.cli")  # loads every livesubs module
    observers = _observers(tracer)
    wrappers = {}
    for modname in TRACED_MODULES:
        module = importlib.import_module(f"livesubs.{modname}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{modname}.{attr}"
                wrappers[fn] = tracer.wrap(name, fn, observers.get(name))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "livesubs" and not modname.startswith("livesubs."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, attr, fn in patched:
        setattr(module, attr, fn)


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics: self time per command and function, call counts for
    core and display, per-segment evaluate latency and the counters."""
    self_s = tracer.self_times()
    names = tracer.names
    metrics: dict[str, float] = {}
    for command, first, stop in tracer.commands:
        prefix = command.replace("-", "_")
        for i in range(first, stop):
            name = names[tracer.name[i]]
            if name.startswith("cli."):
                continue
            key = f"{prefix}.{name}"
            metrics[f"{key}.self_s"] = metrics.get(f"{key}.self_s", 0.0) + self_s[i]
            if name.split(".")[0] in COUNTED_MODULES:
                metrics[f"{key}.calls"] = metrics.get(f"{key}.calls", 0) + 1
        if command == "evaluate":
            nid = tracer._name_ids.get("report.evaluate_log")
            durations = sorted(
                tracer.end[i] - tracer.start[i]
                for i in range(first, stop)
                if tracer.name[i] == nid
            )
            if durations:
                key = "evaluate.report.evaluate_log"
                metrics[f"{key}.p50_us"] = 1e6 * statistics.median(durations)
                # the highest percentile with 10 samples beyond it
                metrics[f"{key}.phigh_us"] = 1e6 * durations[max(0, len(durations) - 11)]
                metrics[f"{key}.samples"] = len(durations)
    metrics.update(tracer.counters)
    metrics["gc.gen2_collections"] = tracer.gc_gen2
    metrics["gc.pause_s"] = tracer.gc_pause_s
    metrics["trace.spans"] = len(tracer.name)
    for key, count in tracer.failures.items():
        metrics[f"{key}.failures"] = count
    metrics["trace.failures"] = sum(tracer.failures.values())
    return metrics


def main(argv: list[str]) -> int:
    """Usage: tracing.py PLAN.json SUMMARY.json SPANS.tsv.gz

    PLAN holds {"commands": [{"name", "argv", "stdout"}]}. Each command runs
    through livesubs.cli.main with tracing on; the summary holds per-layer
    metrics, exit codes and each command's traced wall time."""
    plan_path, summary_path, spans_path = (Path(a) for a in argv)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    import livesubs.cli

    tracer = Tracer()
    patched = install(tracer)
    t0 = time.perf_counter()
    results = []
    try:
        for cmd in plan["commands"]:
            with open(cmd["stdout"], "w", encoding="utf-8") as out:
                start = time.perf_counter()
                with tracer.command(cmd["name"]), contextlib.redirect_stdout(out):
                    code = livesubs.cli.main(cmd["argv"])
                results.append(
                    {"name": cmd["name"], "exit": code, "wall_s": time.perf_counter() - start}
                )
    finally:
        uninstall(patched)
    tracer.write_spans(spans_path, t0)
    summary = {
        "commands": results,
        "metrics": summarize(tracer),
        "failures": dict(tracer.failures),
    }
    summary_path.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
