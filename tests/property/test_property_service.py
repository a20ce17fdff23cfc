"""Concurrency property: threaded traffic is invisible in the decisions.

The service contract (``repro/service/manager.py``) promises that N
threads driving N independent sessions over one shared dataset produce
decision logs **byte-identical** to the same sessions run serially:
sessions share only immutable columns and thread-safe memo caches, so
parallelism may change latency but never a p-value, a wealth trajectory,
or a rejection.  The threads follow the HTTP server's model: one thread
per session, each calling ``service.handle_dict`` once per command.
Hypothesis generates the workloads — which panels each session shows
and in which interleaving the commands arrive — and every example
replays the exact same traffic serially and threaded, comparing the
canonical serialized logs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.protocol import predicate_to_dict
from repro.api.service import ExplorationService
from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Eq

_COLORS = ("red", "blue", "green")
_SHAPES = ("circle", "square", "triangle")
_SIZES = ("small", "medium", "large")
_ATTRS = ("color", "shape", "size")


def _build_dataset() -> Dataset:
    rng = np.random.default_rng(2718)
    n = 600
    color = rng.choice(_COLORS, size=n)
    shape_probs = {
        "red": [0.5, 0.3, 0.2],
        "blue": [0.2, 0.5, 0.3],
        "green": [1 / 3, 1 / 3, 1 / 3],
    }
    shape = np.array([rng.choice(_SHAPES, p=shape_probs[c]) for c in color])
    size = rng.choice(_SIZES, size=n)
    return Dataset(
        {"color": color, "shape": shape, "size": size},
        categorical=list(_ATTRS),
        name="service-property",
    )


_BASE = _build_dataset()

_CATEGORY = {"color": _COLORS, "shape": _SHAPES, "size": _SIZES}


@st.composite
def panel(draw):
    """One (target attribute, filter) panel over the shared dataset."""
    target = draw(st.sampled_from(_ATTRS))
    filt_attr = draw(st.sampled_from([a for a in _ATTRS if a != target]))
    category = draw(st.sampled_from(_CATEGORY[filt_attr]))
    return (target, Eq(filt_attr, category))


@st.composite
def traffic(draw):
    """Per-session panel streams plus a shuffled arrival order."""
    n_sessions = draw(st.integers(min_value=2, max_value=5))
    streams = [
        draw(st.lists(panel(), min_size=1, max_size=8))
        for _ in range(n_sessions)
    ]
    # arrival interleaving: shuffle which session each serial slot
    # belongs to; within one session, steps always arrive in stream order
    slots = [s for s, stream in enumerate(streams) for _ in stream]
    order = draw(st.permutations(slots))
    seen = {s: 0 for s in range(n_sessions)}
    arrival = []
    for s in order:
        arrival.append((s, seen[s]))
        seen[s] += 1
    return streams, arrival


def _service(n_sessions: int) -> tuple[ExplorationService, list[str]]:
    """A fresh service over a fresh dataset view, with *n_sessions* open."""
    # Fresh zero-copy view => empty caches, so serial and threaded runs
    # start cold either way and cache state cannot leak between runs.
    dataset = _BASE.select_index(
        np.arange(_BASE.n_rows, dtype=np.intp), name="replay"
    )
    service = ExplorationService(max_sessions=None)
    service.register_dataset(dataset, name="d")
    sids = []
    for _ in range(n_sessions):
        response = service.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "d"}
        )
        sids.append(response["result"]["session_id"])
    return service, sids


def _show(service: ExplorationService, sid: str, panel) -> None:
    target, where = panel
    response = service.handle_dict({
        "v": 2, "cmd": "show", "session_id": sid, "attribute": target,
        "where": predicate_to_dict(where),
    })
    assert response["ok"], response


def _logs(service: ExplorationService, sids: list[str]) -> list[bytes]:
    return [service.manager.decision_log_bytes(sid) for sid in sids]


def _run_serial(streams, arrival) -> list[bytes]:
    """Replay the commands one at a time, in *arrival* order."""
    service, sids = _service(len(streams))
    for s, i in arrival:
        _show(service, sids[s], streams[s][i])
    return _logs(service, sids)


def _run_threaded(streams) -> list[bytes]:
    """One thread per session, released together, each sending its
    session's commands in stream order (the HTTP server's model)."""
    service, sids = _service(len(streams))
    start = threading.Barrier(len(streams))

    def drive(s: int) -> None:
        start.wait(timeout=60)
        for panel in streams[s]:
            _show(service, sids[s], panel)

    with ThreadPoolExecutor(max_workers=len(streams)) as pool:
        for future in [pool.submit(drive, s) for s in range(len(streams))]:
            future.result(timeout=60)
    return _logs(service, sids)


class TestThreadedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(traffic())
    def test_threaded_logs_byte_identical_to_serial(self, tr):
        streams, arrival = tr
        assert _run_threaded(streams) == _run_serial(streams, arrival)

    @settings(max_examples=10, deadline=None)
    @given(traffic())
    def test_arrival_interleaving_is_irrelevant_across_sessions(self, tr):
        """Two different arrival orders of the *same* per-session streams
        give identical logs: only within-session order matters."""
        streams, arrival = tr
        session_major = [
            (s, i) for s in range(len(streams)) for i in range(len(streams[s]))
        ]
        assert (_run_serial(streams, arrival)
                == _run_serial(streams, session_major))
