"""Span recorder for traced benchmark runs.

:func:`install` wraps the public calls listed in :data:`TARGETS` so that
each call records one span: its name, start, end, parent span, and a
trace id shared by every span of one request or phase.  Spans stay in
memory, one list per thread, and :meth:`Tracer.dump` writes them once,
when the traced process ends.  Nothing here is imported by ``repro``:
the wrappers are installed from outside, and only in traced runs.

:func:`layer_profile` turns a dump back into per-layer self times (a
span's duration minus its direct children's) and call counts, and
:func:`attributed_share` gives how much of a phase the reported layers
account for.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter_ns

#: (module, class or None, attribute, span name).  A class-level entry
#: wraps the method on that class; a function entry also rebinds every
#: ``from module import name`` copy already imported under ``repro``.
TARGETS = (
    ("repro.deployment.fleet", None, "build_full_deployment", "deployment.build"),
    ("repro.scanners.population", None, "build_population", "scanners.population"),
    ("repro.sim.engine", None, "run_simulation", "sim.run"),
    ("repro.scanners.base", "PortPlan", "build_intent_batch", "scanners.intent_batch"),
    ("repro.honeypots.base", "VantageCapture", "record_batch", "honeypots.capture"),
    ("repro.honeypots.base", "CaptureStack", "capture_batch_columns", "honeypots.capture"),
    ("repro.honeypots.cowrie", "CowrieStack", "capture_batch_columns", "honeypots.capture"),
    ("repro.honeypots.greynoise", "GreyNoiseStack", "capture_batch_columns",
     "honeypots.capture"),
    ("repro.honeypots.honeytrap", "HoneytrapStack", "capture_batch_columns",
     "honeypots.capture"),
    ("repro.honeypots.telescope", "TelescopeStack", "capture_batch_columns",
     "honeypots.capture"),
    ("repro.io.table", "EventTable", "append_view", "io.append"),
    ("repro.analysis.dataset", "AnalysisDataset", "contingency", "analysis.contingency"),
    ("repro.analysis.dataset", "AnalysisDataset", "source_aggregates",
     "analysis.source_aggregates"),
    ("repro.analysis.dataset", "AnalysisDataset", "reputation_oracle", "analysis.reputation"),
    ("repro.detection.engine", "RuleEngine", "alerts", "detection.alerts"),
    ("repro.io.shards", None, "load_shard_tables", "io.load_shards"),
    ("repro.serve.backends", None, "load_run_dir", "io.load_run_dir"),
    ("repro.stream.watch", None, "watch_run_dir", "stream.watch"),
    ("repro.stream.analyzer", "StreamAnalyzer", "consume", "stream.consume"),
    ("repro.incident.pipeline", None, "detect_incidents", "incident.detect"),
    ("repro.incident.pipeline", "IncidentPipeline", "consume", "incident.consume"),
    ("repro.incident.pipeline", "IncidentPipeline", "finalize", "incident.finalize"),
    ("repro.serve.backends", "LockedConsumer", "consume", "serve.lock_hold"),
    ("repro.serve.backends", "ReputationTracker", "consume", "serve.tracker"),
)

#: Backends whose ``handle(path, params)`` becomes ``serve.handle.<endpoint>``.
HANDLE_TARGETS = (
    ("repro.serve.backends", "RunDirBackend"),
    ("repro.serve.backends", "LiveBackend"),
)

#: Endpoints named in the per-layer metrics; other paths fold into "other".
ENDPOINTS = ("healthz", "vantages", "top", "cardinality", "volumes", "compare",
             "ip", "alarms", "incidents", "stats")


class Tracer:
    """In-memory spans, one list per thread, dumped once at exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._threads: list[list] = []
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self.pid = os.getpid()
        #: Objects whose counters are dumped with the spans (QueryServers).
        self.servers: list = []

    def name_id(self, name: str) -> int:
        with self._registry_lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # (spans, open-span stack)
            self._local.state = state
            with self._registry_lock:
                self._threads.append(state[0])
        return state

    def _open(self, name_id: int):
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        trace = spans[parent][4] if parent >= 0 else next(self._trace_ids)
        record = [name_id, perf_counter_ns(), 0, parent, trace]
        stack.append(len(spans))
        spans.append(record)
        return record, stack

    def wrap(self, fn, name: str = None, name_of=None):
        """``fn`` recording one span per call (named by ``name_of(args)``
        when given, else ``name``)."""
        fixed = None if name_of is not None else self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = fixed if name_of is None else tracer.name_id(name_of(args))
            record, stack = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()

        return traced

    def span(self, name: str):
        """Context manager recording one span (phase roots, drivers)."""
        return _Span(self, self.name_id(name))

    def dump(self, path: str) -> None:
        """Write every span with parents re-indexed across threads."""
        if os.getpid() != self.pid:
            return  # a forked worker: its spans stay with it
        now = perf_counter_ns()
        merged = []
        with self._registry_lock:
            threads = list(self._threads)
        for spans in threads:
            offset = len(merged)
            for name_id, start, end, parent, trace in list(spans):
                merged.append([name_id, start, end or now,
                               parent + offset if parent >= 0 else -1, trace])
        payload = {
            "names": self.names,
            "spans": merged,
            "servers": [server.stats.as_dict() for server in self.servers],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name_id", "record", "stack")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.record, self.stack = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc_info):
        self.record[2] = perf_counter_ns()
        self.stack.pop()
        return False


def _endpoint_span(args) -> str:
    path = args[1] if len(args) > 1 else ""
    endpoint = str(path).strip("/")
    return "serve.handle." + (endpoint if endpoint in ENDPOINTS else "other")


def _rebind_copies(original, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapped)


def install(tracer: Tracer) -> Tracer:
    """Wrap every target; returns the tracer for chaining."""
    for module_name, class_name, attribute, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attribute)
            wrapped = tracer.wrap(original, span_name)
            setattr(module, attribute, wrapped)
            _rebind_copies(original, wrapped)
        else:
            owner = getattr(module, class_name)
            setattr(owner, attribute, tracer.wrap(owner.__dict__[attribute], span_name))
    for module_name, class_name in HANDLE_TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        owner.handle = tracer.wrap(owner.handle, name_of=_endpoint_span)

    from repro.serve.http import QueryServer

    start = QueryServer.start

    @functools.wraps(start)
    async def remember_server(server, *args, **kwargs):
        tracer.servers.append(server)
        return await start(server, *args, **kwargs)

    QueryServer.start = remember_server
    return tracer


# -- reading a dump ----------------------------------------------------------


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _child_ns(spans) -> list:
    """Summed duration of each span's direct children."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _trace in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def check_spans(dump: dict) -> list[str]:
    """Structural problems: missing parents, or children outlasting parents."""
    spans = dump["spans"]
    problems = []
    children_ns = [0] * len(spans)
    for index, (_name, start, end, parent, trace) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ends before it starts")
        if parent < 0:
            continue
        if parent >= len(spans):
            problems.append(f"span {index} names missing parent {parent}")
            continue
        p_start, p_end, p_trace = spans[parent][1], spans[parent][2], spans[parent][4]
        if start < p_start or end > p_end:
            problems.append(f"span {index} lies outside its parent {parent}")
        if trace != p_trace:
            problems.append(f"span {index} has another trace id than its parent")
        children_ns[parent] += end - start
    for index, (_name, start, end, _parent, _trace) in enumerate(spans):
        if children_ns[index] > end - start:
            problems.append(f"children of span {index} outlast it")
    return problems


def layer_profile(dump: dict) -> dict:
    """Per span name: self seconds, inclusive seconds, calls."""
    spans = dump["spans"]
    names = dump["names"]
    child_ns = _child_ns(spans)
    profile: dict[str, dict] = {}
    for index, (name_id, start, end, _parent, _trace) in enumerate(spans):
        entry = profile.setdefault(names[name_id],
                                   {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start - child_ns[index]) / 1e9
        entry["total_s"] += (end - start) / 1e9
        entry["calls"] += 1
    # Inclusive time double-counts recursion (a capture stack calling
    # its base class); keep the outermost spans' total only.
    outer: dict[str, float] = {}
    for name_id, start, end, parent, _trace in spans:
        name = names[name_id]
        if parent >= 0 and names[spans[parent][0]] == name:
            continue
        outer[name] = outer.get(name, 0.0) + (end - start) / 1e9
    for name, total in outer.items():
        profile[name]["total_s"] = total
    return profile


def root_seconds(dump: dict, names) -> float:
    """Total duration of the parentless spans with one of ``names``."""
    wanted = {index for index, name in enumerate(dump["names"]) if name in names}
    return sum(end - start for name_id, start, end, parent, _trace in dump["spans"]
               if parent < 0 and name_id in wanted) / 1e9


def attributed_share(dump: dict, root_name: str, reported) -> float:
    """Share of the root spans named ``root_name`` that is the self time
    of spans below them whose name is in ``reported``.

    Self time of any other span (a wrapper no metric reports, or the root
    itself) counts as unattributed.
    """
    spans = dump["spans"]
    names = dump["names"]
    if root_name not in names:
        return 0.0
    root_id = names.index(root_name)
    wanted = {index for index, name in enumerate(names) if name in reported}
    child_ns = _child_ns(spans)
    # A parent is recorded before its children, so one forward pass
    # finds the root above every span.
    root_of = [-1] * len(spans)
    total = covered = 0
    for index, (name_id, start, end, parent, _trace) in enumerate(spans):
        if name_id == root_id:
            root_of[index] = index
            total += end - start
        elif parent >= 0:
            root_of[index] = root_of[parent]
            if root_of[index] >= 0 and name_id in wanted:
                covered += end - start - child_ns[index]
    return covered / total if total else 0.0
