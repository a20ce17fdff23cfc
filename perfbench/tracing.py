"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry point of every layer, patching each
name where its caller looks it up (``propose_hypothesis`` as bound in
``repro.exploration.session``, ``cached_mask`` as bound in
``repro.exploration.predicate``, methods on their classes), so no source
file changes.  Each wrapper appends ``(start_ns, end_ns, layer, kind)`` to
an in-memory list; the load generator adds one ``loadgen`` root span per
request.  The traced run sends one request at a time, so a span's parent
is the innermost span whose interval contains it, and a layer's self time
is its span minus the union of its children's intervals.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable

ROOT = "loadgen"

#: Layers in the order a request descends through them.
LAYERS = (
    "api.http", "api.protocol", "api.service", "cluster.router",
    "service.manager", "exploration.session", "exploration.engine",
    "exploration.heuristics", "stats.tests", "procedures", "store",
)

MANAGER_VERBS = (
    "create_session", "close_session", "show", "star", "unstar",
    "override_with_means", "delete_hypothesis", "decision_log",
    "recover_session", "gauge_summary", "wealth", "export",
)
SESSION_VERBS = ("show", "star", "unstar", "override_with_means", "delete")


def targets() -> list[tuple[Any, str, str, str]]:
    """``(owner, attribute, layer, kind)`` for every wrapped entry point."""
    from repro.api import client, service
    from repro.cluster import router
    from repro.exploration import heuristics, histogram, predicate, session
    from repro.procedures import base
    from repro.service import manager
    from repro.store import jsonl

    return [
        (client.Client, "call", "api.http", "client"),
        (router.RemoteWorker, "handle_dict", "api.http", "forward"),
        (service, "command_from_dict", "api.protocol", "decode"),
        (service.ExplorationService, "handle_dict", "api.service", "handle"),
        (router.RouterService, "handle_dict", "cluster.router", "handle"),
        *[(manager.SessionManager, verb, "service.manager", verb)
          for verb in MANAGER_VERBS],
        *[(session.ExplorationSession, verb, "exploration.session", verb)
          for verb in SESSION_VERBS],
        (predicate, "cached_mask", "exploration.engine", "mask"),
        (histogram, "cached_histogram", "exploration.engine", "hist"),
        (session, "propose_hypothesis", "exploration.heuristics", "propose"),
        (session, "evaluate_proposal", "exploration.heuristics", "evaluate"),
        (heuristics, "chi_square_gof", "stats.tests", "test"),
        (heuristics, "chi_square_two_sample", "stats.tests", "test"),
        (session, "t_test_two_sample", "stats.tests", "test"),
        (base.StreamingProcedure, "test", "procedures", "test"),
        (jsonl.JsonlSessionStore, "_append_now", "store", "commit"),
        (os, "fsync", "store", "fsync"),
    ]


class Tracer:
    """Installs the wrappers and keeps the spans and counts they record."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str]] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, layer: str, kind: str) -> Callable:
        spans, clock, counts = self.spans, time.perf_counter_ns, self.counts

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((start, clock(), layer, kind))
            if layer == "procedures":
                counts["rejections"] += bool(result.rejected)
            elif kind == "forward":
                request = args[1]
                counts["fresh_recovers"] += (request.get("cmd") == "recover"
                                             and bool(request.get("fresh")))
            return result

        return wrapper

    def install(self) -> None:
        for owner, name, layer, kind in targets():
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, kind))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def request(self, call: Callable, payload: dict):
        """Run one load-generator request inside a root span."""
        start = time.perf_counter_ns()
        try:
            return call(payload)
        finally:
            self.spans.append((start, time.perf_counter_ns(), ROOT, "request"))


def nest(spans: list[tuple[int, int, str, str]]) -> list[int]:
    """Parent index of every span (-1 for a root): the innermost span whose
    interval contains it.  Overlapping siblings both attach to the span
    containing them both."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], -spans[i][1]))
    parent = [-1] * len(spans)
    stack: list[int] = []
    for index in order:
        start, end = spans[index][0], spans[index][1]
        while stack and not (spans[stack[-1]][0] <= start
                             and end <= spans[stack[-1]][1]):
            stack.pop()
        parent[index] = stack[-1] if stack else -1
        stack.append(index)
    return parent


def self_times(spans: list[tuple[int, int, str, str]],
               parent: list[int]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    kids: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            kids[up].append((spans[index][0], spans[index][1]))
    result = []
    for index, (start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted(kids.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


class Breakdown:
    """Spans grouped by request: per-layer self time, per-call samples."""

    def __init__(self, spans: list[tuple[int, int, str, str]]) -> None:
        parent = nest(spans)
        own = self_times(spans, parent)
        root = [-1] * len(spans)
        for index in sorted(range(len(spans)),
                            key=lambda i: (spans[i][0], -spans[i][1])):
            up = parent[index]
            root[index] = index if up < 0 else root[up]
        #: request root index -> layer -> summed self time (ns)
        self.requests: dict[int, Counter] = {
            i: Counter() for i, span in enumerate(spans)
            if parent[i] < 0 and span[2] == ROOT
        }
        #: request root index -> root duration (ns)
        self.durations = {i: spans[i][1] - spans[i][0] for i in self.requests}
        #: (layer, kind) -> per-call self times (ns)
        self.calls: dict[tuple[str, str], list[int]] = defaultdict(list)
        #: (layer, kind) -> per-call inclusive durations (ns)
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(list)
        for index, (start, end, layer, kind) in enumerate(spans):
            if root[index] not in self.requests:
                continue
            self.requests[root[index]][layer] += own[index]
            if layer != ROOT:
                self.calls[(layer, kind)].append(own[index])
                self.totals[(layer, kind)].append(end - start)

    def per_request(self, layer: str) -> list[int]:
        """Self time of *layer* in every request where it ran (ns)."""
        return [c[layer] for c in self.requests.values() if layer in c]

    def share(self, layer: str) -> float:
        """*layer*'s self time as a share of all request time."""
        total = sum(self.durations.values())
        spent = sum(c[layer] for c in self.requests.values())
        return spent / total if total else 0.0

    def layer_calls(self, layer: str, kind: str | None = None) -> list[int]:
        return [t for (lay, k), times in self.calls.items()
                if lay == layer and (kind is None or k == kind) for t in times]
