"""The load generator: analysts' sessions over ``Client`` connections.

One process drives every connection from its own thread.  A *turn* is
one analyst action — open a session if it has none, one gesture, and the
session's end when it ran out of alpha-wealth or sent ``SESSION_SHOWS``
shows — and the two loops time each request of a turn:

* ``open_loop`` — seeded Poisson arrivals per connection; a turn's first
  request is timed from its arrival (its due time), each later request
  from the answer it depends on;
* ``closed_loop`` — the next turn starts when the previous one ends;
  requests are timed from send to answer.

Every session keeps its requests and answers (or a seeded sample of
sessions does), so ``replay_check`` can re-run them through an in-process
``ExplorationService.handle_dict`` and demand identical answers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api.client import ApiError, Client
from repro.errors import ReproError

from perfbench.measure import Outcome, chain_latencies, classify, send_lag
from perfbench.streams import SESSION_SHOWS, Analyst, Workload

TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ReproError)

#: An open loop whose last arrival finishes later than this after the
#: window closed had a growing backlog; the run is invalid.
BACKLOG_LIMIT_S = 1.0


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def commands_of(payload: dict) -> list[dict]:
    """The commands one request carries (a pipeline's, or itself)."""
    return payload["commands"] if payload.get("cmd") == "pipeline" else [payload]


def commands_in(payload: dict) -> int:
    return len(commands_of(payload))


@dataclass
class SessionTrace:
    """One session's requests and answers, kept for the replay check."""

    session_id: str
    checked: bool
    exchanges: list = field(default_factory=list)
    commands: int = 0
    failed: int = 0
    log_digest: str | None = None
    consistent: bool = True
    #: Why the session ended: "exhausted", "length", or "" while it is open
    #: or when the run closed it.
    ended: str = ""


@dataclass
class Tally:
    """One connection's counts and samples (seconds)."""

    #: (exchange, latency) of every request sent inside the window.
    timed: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    attempted: int = 0
    last_done: float = 0.0


@dataclass(frozen=True)
class Exchange:
    payload: dict
    sent: float
    done: float
    correct: int
    session: SessionTrace


class Connection:
    """One keep-alive HTTP connection and what was sent over it."""

    def __init__(self, client: Client, tally: Tally,
                 request_span: Callable | None = None) -> None:
        self.client = client
        self.tally = tally
        #: Optional wrapper around each request (the traced run's root span).
        self.request_span = request_span

    def call(self, payload: dict) -> dict | None:
        try:
            return {"ok": True, "result": self.client.call(payload)}
        except ApiError as err:
            return {"ok": False, "error": {"code": err.code,
                                           "message": err.message,
                                           "details": err.details}}
        except TRANSPORT_ERRORS:
            self.client.close()
            return None

    def send(self, session: SessionTrace, payload: dict,
             exchanges: list[Exchange]) -> tuple[dict | None, Outcome]:
        sent = time.perf_counter()
        if self.request_span is None:
            envelope = self.call(payload)
        else:
            envelope = self.request_span(self.call, payload)
        done = time.perf_counter()
        commands = commands_in(payload)
        outcome = classify(envelope, commands)
        exchanges.append(Exchange(payload, sent, done, outcome.correct, session))
        self.tally.attempted += commands
        session.commands += commands
        session.failed += outcome.failed
        if session.checked:
            # Stored as text: a run keeps thousands of answers, and as dicts
            # they would slow the load generator's garbage collector.
            session.exchanges.append(
                (payload, None if envelope is None else canonical(envelope)))
        return envelope, outcome


class Runner:
    """Turns for one workload; owns every session it opened."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.sessions: list[SessionTrace] = []
        self._by_id: dict[str, SessionTrace] = {}
        #: Optional store-directory size reader: when set, each close is
        #: bracketed by it, and the bytes a close frees are the session's
        #: store footprint (``store_bytes`` over ``store_commands``).
        self.size_probe: Callable[[], int] | None = None
        self.store_bytes = 0
        self.store_commands = 0

    def _open(self, analyst: Analyst, conn: Connection,
              exchanges: list[Exchange]) -> SessionTrace:
        sid = analyst.next_session_id()
        session = SessionTrace(sid, self.workload.checks(sid))
        self.sessions.append(session)
        self._by_id[sid] = session
        analyst.session_id = sid
        analyst.shows, analyst.head_start = analyst.head_start, 0
        conn.send(session, self.workload.create(analyst, sid), exchanges)
        return session

    def close(self, analyst: Analyst, conn: Connection,
              exchanges: list[Exchange]) -> None:
        """End the analyst's session: decision_log, then the closing verbs."""
        sid = analyst.session_id
        session = self._by_id[sid]
        analyst.session_id = None
        envelope, _ = conn.send(session, {"v": 2, "cmd": "decision_log",
                                          "session_id": sid}, exchanges)
        records = None
        if envelope is not None and envelope.get("ok"):
            records = envelope["result"]["records"]
            session.log_digest = digest(records)
        for payload in self.workload.closing(sid):
            probe = self.size_probe if payload["cmd"] == "close_session" else None
            before = probe() if probe else 0
            envelope, _ = conn.send(session, payload, exchanges)
            if probe:
                self.store_bytes += before - probe()
                self.store_commands += session.commands
            if payload["cmd"] != "recover":
                continue
            result = (envelope or {}).get("result") or {}
            if records is None or result.get("decisions") != len(records):
                session.consistent = False

    def turn(self, analyst: Analyst, conn: Connection) -> list[Exchange]:
        exchanges: list[Exchange] = []
        if analyst.session_id is None:
            self._open(analyst, conn, exchanges)
        session = self._by_id[analyst.session_id]
        previous = None
        exhausted = False
        for step in self.workload.gesture(analyst):
            payload = step(previous)
            if payload is None:
                break
            envelope, outcome = conn.send(session, payload, exchanges)
            exhausted = exhausted or outcome.exhausted
            if envelope is None or not envelope.get("ok") or outcome.exhausted:
                break
            previous = envelope["result"]
        analyst.shows += sum(command["cmd"] == "show" for e in exchanges
                             for command in commands_of(e.payload))
        if exhausted:
            session.ended = "exhausted"
        elif analyst.shows >= SESSION_SHOWS:
            session.ended = "length"
        if session.ended:
            self.close(analyst, conn, exchanges)
        return exchanges

    def wind_down(self, analysts: list[Analyst], conn: Connection) -> None:
        """Close every session still open (outside the timed window)."""
        for analyst in analysts:
            if analyst.session_id is not None:
                self.close(analyst, conn, [])


def _record(tally: Tally, exchanges: list[Exchange], latencies: list[float],
            first_lag: float | None) -> None:
    """Keep a timed turn's latencies and the generator's own send lags: the
    first request's *first_lag*, then each request's delay after the
    answer it waited for."""
    tally.timed.extend(zip(exchanges, latencies))
    if first_lag is not None:
        tally.lags.append(first_lag)
    tally.lags.extend(later.sent - earlier.done
                      for earlier, later in zip(exchanges, exchanges[1:]))
    tally.last_done = max(tally.last_done, exchanges[-1].done)


@dataclass
class Window:
    """The timed interval, on the ``time.perf_counter`` clock."""

    start: float
    end: float
    hard_end: float


def open_loop(runner: Runner, conn: Connection, analysts: list[Analyst],
              arrivals: list[float], window: Window) -> bool:
    """Serve *arrivals* in order; False when the backlog outgrew the limit."""
    free_at = arrivals[0] if arrivals else window.start
    for index, due in enumerate(arrivals):
        now = time.perf_counter()
        if now > window.hard_end:
            return False
        if due > now:
            time.sleep(due - now)
        exchanges = runner.turn(analysts[index % len(analysts)], conn)
        if not exchanges:
            continue
        if due >= window.start:
            _record(conn.tally, exchanges,
                    chain_latencies(due, [e.done for e in exchanges]),
                    send_lag(due, free_at, exchanges[0].sent))
        free_at = exchanges[-1].done
    return free_at - window.end <= BACKLOG_LIMIT_S


def closed_loop(runner: Runner, conn: Connection, analysts: list[Analyst],
                window: Window, enough: Callable[[], bool]) -> None:
    """Back-to-back turns until the window closed and *enough* holds."""
    index = 0
    previous_done = None
    while True:
        now = time.perf_counter()
        if now >= window.hard_end or (now >= window.end and enough()):
            return
        exchanges = runner.turn(analysts[index % len(analysts)], conn)
        index += 1
        if not exchanges:
            continue
        if exchanges[0].sent >= window.start:
            _record(conn.tally, exchanges, [e.done - e.sent for e in exchanges],
                    None if previous_done is None
                    else exchanges[0].sent - previous_done)
        previous_done = exchanges[-1].done


def replay_check(runner: Runner, service) -> int:
    """Replay every checked session in-process; returns sessions compared.

    A session whose answers differ from the replay's — or whose decision
    log digest or recover report does not match — has all its commands
    counted as failed.
    """
    compared = 0
    for session in runner.sessions:
        if not session.checked or session.failed:
            continue
        compared += 1
        reference_digest = None
        for payload, envelope in session.exchanges:
            if payload["cmd"] == "recover":
                continue  # the reference has no store; the count was checked
            answer = json.loads(canonical(service.handle_dict(payload)))
            answer.pop("v", None)
            if payload["cmd"] == "decision_log" and answer.get("ok"):
                reference_digest = digest(answer["result"]["records"])
            if canonical(answer) != envelope:
                session.consistent = False
        if reference_digest != session.log_digest:
            session.consistent = False
    return compared


def fail_inconsistent(runner: Runner) -> int:
    """Turn every command of an inconsistent session into a failure;
    returns how many commands that adds to the failed count."""
    extra = 0
    for session in runner.sessions:
        if not session.consistent:
            extra += session.commands - session.failed
            session.failed = session.commands
    return extra
